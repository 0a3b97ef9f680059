"""k-Ramanujan primes: certified computation and derived quantities.

R_n^(k) is the least m such that pi(x) - pi(x/k) >= n for every real
x >= m.  For integer m the infimum of pi(x) - pi(x/k) over x in
[m, m+1) is

    f*(m) = pi(m) - #{q prime : q < (m+1)/k},

because pi(x) is constant on the interval while pi(x/k) peaks as
x -> (m+1)^-.  Hence R_n^(k) = 1 + max{m : f*(m) < n}.  With k = num/den
the strict count below (m+1)/k is pi(q(m)) for q(m) = ((m+1)*den - 1) // num,
exact in integer arithmetic.

The scan visits stretches, not integers.  A prime p counts below
(m+1)/k exactly when m >= floor(num p / den), so pi(q(m)) = t on the
stretch s_t <= m < s_{t+1}, s_t = floor(num p_t / den) (p_0 = s_0 = 0),
where f*(m) = pi(m) - t never decreases from g(t) = pi(s_t) - t.  Below
a cutoff X lie about pi(X/k) stretch starts, and the suffix minimum G
of g (nondecreasing; G[0] = 0 since f* >= 0) carries the whole scan:

    G[t] = min{f*(y) : s_t <= y < X}.

Let T(n) = #{t >= 1 : G[t] < n}, the last stretch with an f* below n.
There f*(y) < n means pi(y) < n + T(n), and every later stretch stays
at n or above, so

    R_n^(k) = p_{n+T(n)},
    pi_k(x) = min(f*(x), G[t_x + 1])   for t_x = pi(q(x)),

since f* only rises on the rest of x's own stretch; where x lies on the
last stretch there is no G[t_x + 1] and pi_k(x) = f*(x).  _scan counts
T(n) for every n at once, with one bincount of G's entries below n and
a cumsum.  R_{m-1}^(m) is the case k = m, n = m - 1, read for many m at
once (_mps_r_values).  A scan is complete only below a cutoff X for
which the tail x >= X is PROVEN safe; bounds.certify_tail supplies that
proof, and an R_n at or past X means the scan hit its own cutoff.

The scan runs in blocks of 2^16 stretches, on a small thread pool from
4 blocks on; a block counts pi(s_t) with PrimeTable.pi_array or, for
few keys, a binary search in the primes.  The output digits are
written in jobs of 2^16 values, on the same pool.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds
from .errors import RangeQueryError, ResourceBudgetError
from .primes import PrimeTable, _run_blocks, build_table
from .rational import ceil_div, parse_k

__all__ = [
    "RamanujanTable", "TableCache", "NEstimate", "MpsVerdict",
    "ramanujan_prefix", "pi_k", "rho_k",
    "empirical_N", "empirical_N0", "mps_holds",
]

PROOF_ANALYTIC = "analytic-certificate"
DEFAULT_CAP = 1 << 31        # a TableCache's hard cap unless one is given
_INITIAL_LIMIT = 1 << 20     # the least limit of a TableCache's first table


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

class RamanujanTable:
    """R_1^(k)..R_N^(k) and the cutoff that makes the scan a proof.

    Every cutoff comes from bounds.certify_tail, so `proof` and `profile`,
    the estimates behind it, are the same for every table.  `array` is
    the read-only int64 array of the values; `values`, the same as a list
    of ints, is built from it on first access.
    """

    proof = PROOF_ANALYTIC
    profile = bounds.P4.name

    def __init__(self, k: Fraction, values, cutoff: int):
        self.k = k
        self.cutoff = cutoff
        self.array = np.asarray(values, dtype=np.int64).view()
        self.array.flags.writeable = False
        self._values: list[int] | None = None

    @property
    def values(self) -> list[int]:
        # two threads may both build it; either list is the same
        values = self._values
        if values is None:
            values = self._values = self.array.tolist()
        return values

    def __len__(self) -> int:
        return len(self.array)

    def value(self, n: int) -> int:
        """R_n^(k), 1-indexed."""
        if n < 1 or n > len(self.array):
            raise IndexError(f"n={n} outside computed range "
                             f"[1, {len(self.array)}]")
        return int(self.array[n - 1])

    def to_json(self) -> str:
        head, tail = json.dumps({
            "k": f"{self.k.numerator}/{self.k.denominator}",
            "values": [],
            "cutoff": self.cutoff,
            "proof": self.proof,
            "profile": self.profile,
        }).split("[]", 1)
        return _format_ints(self.array, ", ", head + "[", "]" + tail)


# the 4 ASCII digits of i, zero-padded, are the bytes of _DIGITS4[i]
_DIGITS4 = sum((48 + np.arange(10000, dtype=np.uint32) // 10 ** (3 - p) % 10)
               << 8 * p for p in range(4)).astype("<u4")
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)       # the width edges


def _format_ints(values: np.ndarray, sep: str, head: str = "",
                 tail: str = "") -> str:
    """head + sep.join(map(str, values)) + tail for nondecreasing int64
    values >= 0 and a sep of at most 4 ASCII bytes, written without a
    Python int per value.

    Sorted values fall into one run per decimal width, so each run's
    byte offset is known up front.  The values are cut into jobs of
    _BLOCK, on the block pool once there are 4 or more (more than
    3 * 2^16 values): each writes its part of every run it meets.  A
    value's base-10^4 digit groups, looked up in _DIGITS4, and sep fill
    a row of 4-byte cells; its last w + s bytes, the digits trimmed to
    the width and sep, are copied into the buffer as one item.
    """
    sep_b, head_b, tail_b = sep.encode(), head.encode(), tail.encode()
    s = len(sep_b)
    sep_cell = np.frombuffer(sep_b.ljust(4, b"\0"), "<u4")[0]
    ends = np.append(np.searchsorted(values, _POW10), len(values))
    starts = np.concatenate(([0], ends[:-1]))
    widths = np.arange(1, len(ends) + 1)
    run_bytes = (ends - starts) * (widths + s)
    size = (len(head_b) + int(run_bytes.sum()) - (s if len(values) else 0)
            + len(tail_b))
    buf = np.empty(size + s, np.uint8)          # room for the last sep
    buf[:len(head_b)] = np.frombuffer(head_b, np.uint8)
    offsets = len(head_b) + np.cumsum(run_bytes) - run_bytes
    runs = [run for run in zip(widths.tolist(), starts.tolist(),
                               ends.tolist(), offsets.tolist())
            if run[1] < run[2]]                 # (width, start, end, offset)

    def write(lo: int) -> None:
        hi = min(lo + _BLOCK, len(values))
        for w, a, b, pos in runs:
            x = values[max(a, lo):min(b, hi)]
            if not len(x):
                continue
            pos += (max(a, lo) - a) * (w + s)
            g = (w + 3) // 4
            cells = np.empty((len(x), g + 1), "<u4")  # digit groups, sep
            for col in range(g - 1, 0, -1):
                x, low = np.divmod(x, 10000)
                cells[:, col] = _DIGITS4[low]
            cells[:, 0] = _DIGITS4[x]
            cells[:, g] = sep_cell
            # each value's w digits and sep as one w + s byte item
            row = f"V{w + s}"
            buf[pos:pos + len(cells) * (w + s)].view(row)[:] = \
                cells.view(np.uint8)[:, 4 * g - w:4 * g + s].view(row)[:, 0]

    _run_blocks(write, range(0, len(values), _BLOCK))
    buf[size - len(tail_b):size] = np.frombuffer(tail_b, np.uint8)
    return str(buf[:size], "ascii")


@dataclass
class NEstimate:
    """Empirical N(k) or N_0(k), with the closed form when one applies."""

    value: int
    kind: str                    # "closed-form" | "empirical"
    probe: int
    closed_form: int | None = None
    consistent: bool | None = None


@dataclass
class MpsVerdict:
    m: int
    verdict: str                 # "holds-certified" | "holds-scanned" | "fails"
    n0: int
    r_value: int | None = None
    counterexample: tuple[int, int] | None = None

    @property
    def holds(self) -> bool:
        return self.verdict != "fails"


# ---------------------------------------------------------------------------
# shared prime tables
# ---------------------------------------------------------------------------

class TableCache:
    """Grow-on-demand PrimeTable shared between computations.

    The one owner of how far to sieve: pi(x) and nth_prime(n) grow the
    table to what the query needs, and get(limit) to a given limit.  The
    table only ever grows, by at least doubling so that repeated small
    bumps rarely grow it, and each growth sieves only past the old
    table's last whole checkpoint block (build_table's base).  It swaps
    atomically under a lock; readers always see a complete table.
    hard_cap bounds the sieve limit: a query past it raises
    ResourceBudgetError.
    """

    def __init__(self, hard_cap: int = DEFAULT_CAP):
        self.hard_cap = int(hard_cap)
        self._lock = threading.Lock()
        self._table: PrimeTable | None = None

    def current(self) -> PrimeTable | None:
        return self._table

    def get(self, limit: int) -> PrimeTable:
        limit = int(limit)
        if limit > self.hard_cap:
            raise ResourceBudgetError(
                f"sieve limit {limit} exceeds hard cap {self.hard_cap}",
                required=limit, cap=self.hard_cap)
        table = self._table
        if table is not None and table.limit >= limit:
            return table
        with self._lock:
            table = self._table
            if table is not None and table.limit >= limit:
                return table
            target = max(_INITIAL_LIMIT,
                         table.limit * 2 if table is not None else 0,
                         limit)
            target = min(target, self.hard_cap)
            self._table = build_table(target, table)
            return self._table

    def pi(self, x: int) -> int:
        """pi(x), from a table grown to x; x < 0 is refused unsieved."""
        if x < 0:
            raise RangeQueryError(f"need x >= 0, got {x}")
        return self.get(x).pi(x)

    def nth_prime(self, n: int | np.ndarray) -> int | np.ndarray:
        """p_n for an int n or an int64 index array, from the table held
        if it has the largest p_n asked for, else from one grown past it:
        Rosser's p_n < n(log n + log log n) for n >= 6, with a fifth and
        16 to spare, and 16 below n = 6.  An n < 1 is refused unsieved."""
        low, top = ((int(n.min(initial=1)), int(n.max(initial=0)))
                    if isinstance(n, np.ndarray) else (n, n))
        if low < 1:
            raise RangeQueryError(f"need n >= 1, got {low}")
        table = self._table
        if table is None or table.prime_count < top:
            x = (top * (math.log(top) + math.log(math.log(top)))
                 if top >= 6 else 0)
            table = self.get(int(x * 1.2) + 16)
        return table.nth_prime(n)


def _as_cache(cache: TableCache | None) -> TableCache:
    return cache if cache is not None else TableCache()


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------

# stretches per block of _stretch_min, values per job of _format_ints
_BLOCK = 1 << 16
_RANK_FROM = 1 << 12         # keys from which pi_array can beat searchsorted


def _stretch_min(num: int, den: int, cutoff: int, first: int,
                 pi: PrimeTable) -> np.ndarray:
    """G[first..T] for k = num/den: G[t] = min f* on [s_t, cutoff).

    T is the last stretch with s_t < cutoff, and pi covers the cutoff;
    the scan reads pi's primes below it and no others.  A window's
    suffix minima equal G on it because G looks only rightwards, and
    first = T + 1 gives an empty window.

    The stretches run in blocks of _BLOCK (_stretch_block), on the block
    pool once there are 4 or more of them.  Each block writes its own
    suffix minima; one pass from the top then carries each block's first
    entry, by then the minimum of everything above, into the block below.
    num p_t < den * cutoff is formed in int64, so a den with
    den * cutoff >= 2^63 is refused with a ValueError.
    """
    if den * cutoff >= 1 << 63:
        raise ValueError(
            f"k with denominator {den} and cutoff {cutoff}: num * p_t "
            "would pass 2^63 in the scan")
    primes = pi.primes_array(cutoff - 1)                    # p < cutoff
    last = int(primes.searchsorted((den * cutoff - 1) // num, side="right"))
    out = np.empty(last - first + 1, dtype=np.int64)        # T = last
    starts = range(0, len(out), _BLOCK)
    _run_blocks(lambda lo: _stretch_block(lo, num, den, first, primes, pi,
                                          out), starts)
    for lo in reversed(starts[1:]):
        np.minimum(out[lo - _BLOCK:lo], out[lo], out=out[lo - _BLOCK:lo])
    return out


def _stretch_block(lo, num, den, first, primes, pi, out) -> None:
    """out[lo:lo + _BLOCK] of _stretch_min: the suffix minima of g over
    the block alone.

    pi(s_t) comes from pi.pi_array, a rank over the table words the
    block's s_t span, from _RANK_FROM keys on, where its fixed set-up
    pays.  Fewer keys take a binary search in primes, at about log2 of
    the primes between a key's answer and the block's largest per key:
    numpy starts each of ascending keys at the last key's place but ends
    it at the end of the array, so the search ends at pi(largest s_t)."""
    hi = min(lo + _BLOCK, len(out))
    t = max(first + lo, 1)                  # g(0) = 0 is set below
    s = primes[t - 1:first + hi - 1] * num                  # num p_t
    s //= den                                               # s_t
    if len(s) >= _RANK_FROM:
        g = pi.pi_array(s)                                  # pi(s_t)
    else:
        top = primes.searchsorted(s.max(initial=0), side="right")
        g = primes[:top].searchsorted(s, side="right")
    g -= np.arange(t, first + hi)
    np.minimum.accumulate(g[::-1], out=out[hi - len(g):hi][::-1])
    out[lo:hi - len(g)] = 0                 # g(0) = 0, below every g(t)


def _scan(k: Fraction, n_max: int, cutoff: int,
          pi: PrimeTable) -> np.ndarray:
    """R_1..R_{n_max} as int64, assuming no m >= cutoff has f*(m) < n_max."""
    return pi.primes_array(cutoff - 1)[_r_index(k, n_max, cutoff, pi)]


def _r_index(k: Fraction, n_max: int, cutoff: int,
             pi: PrimeTable) -> np.ndarray:
    """n - 1 + T(n), the place of R_n = p_{n+T(n)} among the primes from
    0, for n = 1..n_max under _scan's assumption: T(n), the count of
    G[t] < n for t >= 1, sums one bincount of G's entries below n_max."""
    stretch_min = _stretch_min(k.numerator, k.denominator, cutoff, 0, pi)
    index = np.bincount(stretch_min[1:stretch_min.searchsorted(n_max)],
                        minlength=n_max)
    del stretch_min
    np.cumsum(index, out=index)                             # T(n)
    index += np.arange(n_max)
    if index[-1] >= pi.pi(cutoff - 1):
        raise AssertionError(
            f"scan for k={k} hit its own cutoff {cutoff}; certificate broken")
    return index


def _tail_table(k: Fraction, x: int,
                cache: TableCache) -> tuple[int, int, int, PrimeTable]:
    """pi(x), t_x = pi(q(x)), hi = max(cutoff, x + 1) for the cutoff
    certified for f*(x) + 1, and a table over hi.  pi(x) comes first, so
    an x past the cap is refused unsieved."""
    pix = cache.pi(x)
    t_x = cache.pi(((x + 1) * k.denominator - 1) // k.numerator)
    cutoff = bounds.certify_tail(k, pix - t_x + 1, hard_cap=cache.hard_cap)
    hi = max(cutoff, x + 1)
    return pix, t_x, hi, cache.get(hi)


def _pi_k_array(k: Fraction, x: int,
                cache: TableCache) -> tuple[PrimeTable, np.ndarray]:
    """A table and S with pi_k(y) = S[pi(y)] for every y <= x.

    S[j] = #{n : R_n <= p_j} for j <= pi(x), from the R_n up to
    f*(x) + 1, since pi_k(x) <= f*(x)."""
    pix, t_x, hi, pi = _tail_table(k, x, cache)
    index = _r_index(k, pix - t_x + 1, hi, pi)
    return pi, np.cumsum(np.bincount(index[:index.searchsorted(pix)] + 1,
                                     minlength=pix + 1))


def ramanujan_prefix(k, n_max: int,
                     cache: TableCache | None = None) -> RamanujanTable:
    """R_1^(k)..R_{n_max}^(k) with an analytically certified cutoff."""
    k = parse_k(k)
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    cache = _as_cache(cache)
    cutoff = bounds.certify_tail(k, n_max, hard_cap=cache.hard_cap)
    values = _scan(k, n_max, cutoff, cache.get(cutoff))
    return RamanujanTable(k=k, values=values, cutoff=cutoff)


# ---------------------------------------------------------------------------
# counting and deficiency
# ---------------------------------------------------------------------------

def pi_k(k, x: int, cache: TableCache | None = None) -> int:
    """#{n : R_n^(k) <= x}, equal to inf_{y >= x} (pi(y) - pi(y/k))."""
    k = parse_k(k)
    if x < 2:
        return 0
    cache = _as_cache(cache)
    pix, t_x, hi, pi = _tail_table(k, x, cache)
    window = _stretch_min(k.numerator, k.denominator, hi, t_x + 1, pi)
    return min([pix - t_x, *window[:1].tolist()])      # no window: f*(x)


def rho_k(k, x: int, cache: TableCache | None = None) -> Fraction:
    """(k-1)/k - pi_k(x)/pi(x), exact."""
    k = parse_k(k)
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    cache = _as_cache(cache)
    return _rho(k, pi_k(k, x, cache), cache.pi(x))


def _rho(k: Fraction, count: int, total: int) -> Fraction:
    """(k-1)/k - count/total: rho_k(x) from pi_k(x) and pi(x) > 0."""
    return Fraction(k.numerator - k.denominator, k.numerator) \
        - Fraction(count, total)


# ---------------------------------------------------------------------------
# empirical N(k) and N_0(k)
# ---------------------------------------------------------------------------

_N_CLOSED_FROM = Fraction(7458, 10)    # N(k) = pi(3k) - 1 from here on
_N0_CLOSED_FROM = Fraction(1437, 10)   # N_0(k) = pi(2k) from here on


def _p_index(k: Fraction, n):
    """ceil(k*n/(k-1)) exactly, for an int n or an int64 array."""
    num, den = k.numerator, k.denominator
    return ceil_div(num * n, num - den)


def _closed_point(k: Fraction, strict: bool) -> int | None:
    """3k for N(k), 2k for N_0(k), floored; None where no closed form is."""
    if k < (_N_CLOSED_FROM if strict else _N0_CLOSED_FROM):
        return None
    return ((3 if strict else 2) * k.numerator) // k.denominator


def _default_probe(k: Fraction, strict: bool, cache: TableCache) -> int:
    """Twice pi at the closed form's point (at least 2), else 500."""
    x = _closed_point(k, strict)
    return 500 if x is None else 2 * max(cache.pi(x), 1)


def _empirical(k, n_probe: int, cache: TableCache | None,
               strict: bool) -> NEstimate:
    k = parse_k(k)
    if n_probe < 1:
        raise ValueError(f"need n_probe >= 1, got {n_probe}")
    cache = _as_cache(cache)
    rvals = ramanujan_prefix(k, n_probe, cache).array
    pvals = cache.nth_prime(_p_index(k, np.arange(1, n_probe + 1,
                                                   dtype=np.int64)))
    violations = np.flatnonzero(rvals <= pvals if strict else rvals < pvals)
    emp = int(violations[-1]) + 2 if len(violations) else 1

    x = _closed_point(k, strict)
    if x is not None:
        cf = cache.pi(x) - (1 if strict else 0)
        return NEstimate(value=cf, kind="closed-form", probe=n_probe,
                         closed_form=cf, consistent=(emp == cf))
    return NEstimate(value=emp, kind="empirical", probe=n_probe)


def empirical_N(k, n_probe: int,
                cache: TableCache | None = None) -> NEstimate:
    """Least m with R_n^(k) > p_{ceil(kn/(k-1))} for all m <= n <= n_probe.

    Closed form pi(3k) - 1 (exact, not just empirical) once k >= 745.8;
    there the probe acts as a consistency check.
    """
    return _empirical(k, n_probe, cache, True)


def empirical_N0(k, n_probe: int,
                 cache: TableCache | None = None) -> NEstimate:
    """Same with >= in place of >; closed form pi(2k) once k >= 143.7."""
    return _empirical(k, n_probe, cache, False)


# ---------------------------------------------------------------------------
# the interval conjecture reduction
# ---------------------------------------------------------------------------

def mps_holds(m, cache: TableCache | None = None):
    """Verdict for: pi(m*n) - pi(n) >= m - 1 for every n >= ceil(1.1 log 2.5m).

    Reduction: if R_{m-1}^(m) <= m * n0 the claim holds for every
    n >= n0 at once; otherwise each n up to ceil(R/m) is checked
    directly and beyond that the definition of R_{m-1}^(m) takes over.

    m is an int, giving one MpsVerdict, or an int64 array, giving a list
    of verdicts in its order: all its m are certified by one
    certify_tail call, and _mps_r_values reads each R_{m-1}^(m) off
    pi(m p_t) - t at the primes p_t below cutoff / m.
    """
    if not isinstance(m, np.ndarray):
        return mps_holds(np.array([m], dtype=np.int64), cache)[0]
    if not np.issubdtype(m.dtype, np.integer):
        raise ValueError(f"need an integer array of m, got {m.dtype}")
    ms = m.astype(np.int64).ravel()
    if ms.size and ms.min() < 1:
        raise ValueError(f"need m >= 1, got {ms.min()}")
    cache = _as_cache(cache)
    rvals = np.zeros_like(ms)
    big = ms > 1                      # m = 1 holds with nothing to scan
    if big.any():
        cutoffs = bounds.certify_tail(ms[big], ms[big] - 1,
                                      hard_cap=cache.hard_cap)
        rvals[big] = _mps_r_values(ms[big], cutoffs,
                                   cache.get(int(cutoffs.max())))
    verdicts = []
    for mv, rv in zip(ms.tolist(), rvals.tolist()):
        n0 = math.ceil(1.1 * math.log(2.5 * mv))
        verdicts.append(_mps_verdict(mv, n0, rv, cache) if mv > 1 else
                        MpsVerdict(m=1, verdict="holds-certified", n0=n0))
    return verdicts


def _mps_verdict(m: int, n0: int, rv: int, cache: TableCache) -> MpsVerdict:
    if rv <= m * n0:
        return MpsVerdict(m=m, verdict="holds-certified", n0=n0, r_value=rv)
    n_hi = ceil_div(rv, m)
    pi = cache.get(m * n_hi)
    for n in range(max(n0, 1), n_hi + 1):
        if pi.pi(m * n) - pi.pi(n) < m - 1:
            return MpsVerdict(m=m, verdict="fails", n0=n0, r_value=rv,
                              counterexample=(m, n))
    return MpsVerdict(m=m, verdict="holds-scanned", n0=n0, r_value=rv)


def _mps_r_values(ms: np.ndarray, cutoffs: np.ndarray,
                  pi: PrimeTable) -> np.ndarray:
    """R_{m-1}^(m) for each m >= 2, given cutoffs certified for n = m - 1.

    The module's stretch identity at k = m, n = m - 1: s_t = m p_t, and
    R_{m-1}^(m) = p_{m-1+T} for the last t = T with s_t below the cutoff
    and g(t) = pi(m p_t) - t < m - 1, which is T(m - 1).  A p_{m-1+T} at
    or past the cutoff means the scan hit it.  The pairs (m, t), about
    pi(cutoff / m) per m, are counted by one pi_array per _BLOCK m.
    """
    primes = pi.primes_array(int(cutoffs.max()) - 1)
    idx = np.empty_like(ms)                    # R = p_{m-1+T} = primes[idx]
    for lo in range(0, ms.size, _BLOCK):
        m, cut = ms[lo:lo + _BLOCK], cutoffs[lo:lo + _BLOCK]
        # the pairs (m, t) for 0 <= t <= #{p : m p < cutoff}, by m
        count = primes.searchsorted((cut - 1) // m, side="right") + 1
        starts = np.cumsum(count) - count
        t = np.arange(starts[-1] + count[-1]) - np.repeat(starts, count)
        m_t = np.repeat(m, count)
        x = m_t * primes[t - 1]                # m p_t, t = 0 set below
        x[starts] = 0
        low = pi.pi_array(x) - t < m_t - 1     # f*(m p_t) < m - 1
        idx[lo:lo + _BLOCK] = m - 2 + np.maximum.reduceat(t * low, starts)
    broken = np.flatnonzero(idx >= np.searchsorted(primes, cutoffs))
    if broken.size:
        b = broken[0]
        raise AssertionError(
            f"scan for k={ms[b]} hit its own cutoff {cutoffs[b]}; "
            "certificate broken")
    return primes[idx]
