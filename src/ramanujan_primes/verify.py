"""Finite verification campaigns over the k-Ramanujan machinery.

Each campaign re-runs one self-contained computation whose claims split
into a finite part (checked exhaustively here, unless one cruder
inequality settles all of it: rho-upper's bounds exceed rho_2 <= 1/2
below e^(2 c1), which it checks once) and an analytic tail (discharged
by the estimates in bounds).  A campaign passes iff its
failure list is empty; anomalies that are supposed to be there (the one
n where an upper bound genuinely fails, the two n realizing a minimal
gap) are confirmed and recorded separately, and their absence is itself
a failure.

Campaigns are deterministic: given the same parameters they produce the
same verdicts, cases, failures and params regardless of thread count,
because every runner is a pure computation over a shared grow-only prime
table.  Two fields are not: elapsed_s, and table_limit, which is the
shared table's limit when the campaign ended, so with more than one
thread it depends on how far the other campaigns had grown the table.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds
from . import ramanujan as rp
from .primes import PrimeTable
from .rational import ceil_div

__all__ = ["CampaignReport", "campaign_ids", "run_campaign", "run_all",
           "reports_to_json", "reports_to_csv"]


@dataclass
class CampaignReport:
    id: str
    description: str
    params: dict
    cases: int
    failures: list[str]      # the first 50, then "... and N more"
    exceptions: list[str]
    elapsed: float
    table_limit: int
    failure_count: int       # every failure, the ones past 50 included

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "status": "pass" if self.passed else "fail",
            "cases": self.cases,
            "failures": list(self.failures),
            "exceptions": list(self.exceptions),
            "elapsed_s": round(self.elapsed, 3),
            "table_limit": self.table_limit,
            "params": {key: str(val) if isinstance(val, Fraction) else val
                       for key, val in self.params.items()},
        }


def reports_to_json(reports: list[CampaignReport]) -> str:
    return json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2)


def reports_to_csv(reports: list[CampaignReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "status", "cases", "failure_count",
                     "exception_count", "elapsed_s", "table_limit"])
    for r in reports:
        writer.writerow([r.id, "pass" if r.passed else "fail", r.cases,
                         r.failure_count, len(r.exceptions),
                         round(r.elapsed, 3), r.table_limit])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _pi_of_frac(pi: PrimeTable, mult: int, k: Fraction) -> int:
    """pi(mult * k), exact at the rational point."""
    return pi.pi(math.floor(mult * k))


def _blocks(lo: int, hi: int, width: int = 1):
    """Ascending [a, b) pieces of [lo, hi), cut at the multiples of a step
    of at most rp._BLOCK values when one step stands for width values (a
    grid row), and at least one.  The array campaigns walk their ranges
    in these, reading pi per piece from PrimeTable.pi_array, so none of
    their arrays grows with the range and no report depends on where the
    edges fall."""
    step = max(1, rp._BLOCK // width)
    edges = [lo, *range(lo - lo % step + step, hi, step), hi]
    return zip(edges, edges[1:]) if lo < hi else iter(())


# A screen decides a check once per piece of its range, from a bound that
# holds at every element of the piece, and hands only the pieces it
# cannot clear to the per-element check.  So a screen must clear a piece
# only where every element passes; it may leave a passing piece to the
# element check, which then finds nothing.  Float screens widen their
# bound by _SLACK, relatively: far more than the few ulp by which one
# expression, evaluated at two points, can invert the order of its true
# values; rho-upper's one check narrows its bound the same way.  Each
# screen reads a NaN as "cannot clear".
_SLACK = 2.0 ** -40


def _word_screen(pi: PrimeTable, lo: int, hi: int, clears):
    """The pieces [a, b) of [lo, hi), ascending and at most
    ramanujan._BLOCK values each, that clears cannot clear, for lo >= 2.

    [lo, hi) is cut into the table words [128w, 128w + 128) it meets, in
    blocks of ramanujan._BLOCK words.  clears(least, most, ends) gets three
    arrays over those pieces: least, the primes below 128w, and most, the
    primes below 128w + 128, from PrimeTable.pi_below_words, so that
    least <= pi(x) <= most at every x of the piece (2 is counted below
    word 0, so least >= 1 there, and pi(x) >= 1 from x = 2 on); and each
    piece's end, one past its last integer.  It is True where every
    integer of the piece passes."""
    for w_a, w_b in _blocks(lo >> 7, ((hi - 1) >> 7) + 1):
        ends = np.arange(128 * w_a, 128 * w_b + 1, 128)
        ends[0], ends[-1] = max(lo, ends[0]), min(hi, ends[-1])
        below = pi.pi_below_words(w_a, w_b)
        suspect = ~clears(below[:-1], below[1:], ends[1:])
        # the [a, b) of each maximal run of suspect pieces
        flips = ends[np.flatnonzero(np.diff(suspect, prepend=False,
                                            append=False))].tolist()
        for a, b in zip(flips[::2], flips[1::2]):
            yield from _blocks(a, b)


# n per run of the pi(m) + pi(n) grids' screen
_RUN = 25


def _grid_failures(pi: PrimeTable, vals: np.ndarray, pvals: np.ndarray,
                   div: int) -> list[int]:
    """The flat indices i * len(vals) + j, ascending, of the pairs with
    pvals[i] + pvals[j] > pi(vals[i] * vals[j] // div), for ascending
    vals and pvals nondecreasing on each run of _RUN j.

    Along a row both sides grow with j, so a run is cleared where pvals at
    the row and at the run's last j does not exceed pi at its first j;
    only the other runs are checked pair by pair.  Rows go in blocks of
    at most ramanujan._BLOCK pairs."""
    size = len(vals)
    firsts = np.arange(0, size, _RUN)
    lasts = np.minimum(firsts + _RUN, size) - 1
    bad = []
    for a, b in _blocks(0, size, size):
        lhs = pvals[a:b, None] + pvals[lasts]
        rhs = pi.pi_array(np.multiply.outer(vals[a:b], vals[firsts]) // div)
        row, run = np.nonzero(~(lhs <= rhs))
        # the pairs of the uncleared runs, row by row, j ascending
        j = firsts[run, None] + np.arange(_RUN)
        keep = j < size
        i, j = np.broadcast_to(a + row[:, None], j.shape)[keep], j[keep]
        fails = pvals[i] + pvals[j] > pi.pi_array(vals[i] * vals[j] // div)
        bad += (i[fails] * size + j[fails]).tolist()
    return bad


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def _run_sondow_gap(cache, limit, mmax, rng):
    n_max = limit if limit else 37097
    params = {"k": Fraction(2), "n_max": n_max}
    rv = rp.ramanujan_prefix(2, n_max, cache).array
    p2n = cache.nth_prime(2 * np.arange(1, n_max + 1, dtype=np.int64))
    gaps = rv - p2n

    failures, exceptions = [], []
    bad = np.flatnonzero(gaps[3:] < 6) + 4
    failures += [f"n={n}: R_n - p_2n = {gaps[n - 1]} < 6" for n in bad]
    if n_max >= 3:
        if gaps[1] == 4 and gaps[2] == 4 and int(gaps[1:].min()) == 4:
            exceptions.append("min gap over n >= 2 is 4, at n=2 and n=3")
        else:
            failures.append(
                f"expected gap 4 at n=2,3 and min 4; got {gaps[1]}, {gaps[2]},"
                f" min {int(gaps[1:].min())}")
    return params, n_max, failures, exceptions


def _run_upper_48_19(cache, limit, mmax, rng):
    n_max = limit if limit else 19535
    params = {"k": Fraction(2), "t": Fraction(48, 19), "n_max": n_max}
    table = rp.ramanujan_prefix(2, n_max, cache)
    rv = table.array
    n = np.arange(1, n_max + 1, dtype=np.int64)
    pv = cache.nth_prime(ceil_div(48 * n, 19))

    failures, exceptions = [], []
    bad = set(int(v) + 1 for v in np.flatnonzero(rv > pv))
    for n_bad in sorted(bad - {19}):
        failures.append(f"n={n_bad}: R_n = {rv[n_bad - 1]} > "
                        f"p_ceil(48n/19) = {pv[n_bad - 1]}")
    if n_max >= 19:
        if 19 in bad and rv[18] == 227 and cache.nth_prime(49) == 227:
            exceptions.append("n=19: R_19 = p_49 = 227 > p_48 = 223")
        else:
            failures.append("expected the single exception at n=19")

    # the t = 2.53 consequence has no exception at all
    pv253 = cache.nth_prime(ceil_div(253 * n, 100))
    for n_bad in (np.flatnonzero(rv > pv253) + 1):
        failures.append(f"n={n_bad}: R_n > p_ceil(2.53n)")
    return params, 2 * n_max, failures, exceptions


def _run_lemma34_sweep(cache, limit, mmax, rng):
    x_max = max(limit if limit else 38168363, 470077)
    params = {"x_lo": 470077, "x_max": x_max}
    pi = cache.get(x_max + 500)
    # p_{j+1} for pi(470077) <= j <= pi(x_max): the primes q from 470078 to
    # q_end, the first prime past x_max, each with j = pi(q - 1).  The q of
    # a table word have j >= least and, h being nondecreasing, h(q) at most
    # h at the word's end: the screen clears the word where least passes
    # that h
    q_end = int(pi.primes_between(x_max + 1, x_max + 501)[0])

    def clears(least, most, ends):
        return least >= _h_plus_one(ends) * (1.0 + _SLACK)

    failures = []
    for a, b in _word_screen(pi, 470078, q_end + 1, clears):
        q = pi.primes_between(a, b)
        j = np.arange(len(q)) + pi.pi(a - 1)
        failures += [f"i={v}: pi(p_i) < h(p_i+1) + 1"
                     for v in j[j < _h_plus_one(q)]]
    return params, pi.pi(x_max) + 1 - pi.pi(470077), failures, []


def _h_plus_one(x: np.ndarray) -> np.ndarray:
    """h(x) + 1 = x / ((log x - 1) - 1/log x) + 1 at every entry of x, in
    that order of operations."""
    lp = np.log(x)
    return x / ((lp - 1.0) - 1.0 / lp) + 1.0


def _run_eq431_range(cache, limit, mmax, rng):
    x_max = max(limit if limit else 470077, 7478)
    params = {"x_lo": 7477, "x_max": x_max}
    pi = cache.get(x_max + 1)

    def rhs(sup):
        # x/(log x - 1) + 1 at x = sup, growing in sup
        sup = sup.astype(np.float64)
        return sup / (np.log(sup) - 1.0) + 1.0

    # pi(x) >= least on a table word and rhs grows, so the sup of the
    # word's last [m, m + 1), its end, is its worst point
    failures = []
    for a, b in _word_screen(
            pi, 7477, x_max + 1,
            lambda least, most, ends: least >= rhs(ends) * (1.0 + _SLACK)):
        m = np.arange(a, b, dtype=np.int64)
        failures += [f"x={int(v)}: pi(x) <= x/(log x - 1) + 1 fails on "
                     "[x, x+1)" for v in m[pi.pi_array(m) < rhs(m + 1)]]
    return params, x_max + 1 - 7477, failures, []


def _run_prop310_table(cache, limit, mmax, rng):
    params = {"r_values": [20, 19, 18]}
    expected = {20: 5, 19: 5, 18: 4}
    pi = cache.get(100)
    failures = []
    for r, want in expected.items():
        k = Fraction(r, 3)
        table = rp.ramanujan_prefix(k, pi.pi(r), cache)
        got = ceil_div(3 * table.values[-1], r)
        if got != want:
            failures.append(f"r={r}: ceil(3/r * R_pi(r)) = {got}, want {want}")
    return params, len(expected), failures, []


def _sample_tenths(rng, lo: Fraction, hi: Fraction, count: int = 2):
    """Random k with one decimal digit from [lo, hi], reproducibly."""
    lo10 = -((-lo.numerator * 10) // lo.denominator)
    hi10 = (hi.numerator * 10) // hi.denominator
    return [Fraction(int(t), 10)
            for t in rng.integers(lo10, hi10 + 1, size=count)]


def _run_nk_closed_form(cache, limit, mmax, rng):
    closed_ks = [Fraction(7458, 10), Fraction(746), Fraction(1000)]
    lower_ks = [Fraction(2), Fraction(3), Fraction(19, 3), Fraction(10),
                Fraction(100)]
    remark_ks = [Fraction(19, 3), Fraction(7), Fraction(10), Fraction(100),
                 Fraction(746)]
    if rng is not None:
        closed_ks += _sample_tenths(rng, Fraction(7458, 10), Fraction(2000))
        lower_ks += _sample_tenths(rng, Fraction(5, 3), Fraction(745))
        remark_ks += _sample_tenths(rng, Fraction(19, 3), Fraction(745))
    params = {"closed_k": [str(k) for k in closed_ks],
              "lower_k": [str(k) for k in lower_ks],
              "remark_k": [str(k) for k in remark_ks]}
    failures, cases = [], 0
    pi = cache.get(10 ** 5)

    for k in closed_ks:
        target = _pi_of_frac(pi, 3, k) - 1
        est = rp.empirical_N(k, 2 * (target + 1), cache)
        cases += 1
        if not (est.kind == "closed-form" and est.consistent
                and est.value == target):
            failures.append(f"k={k}: N(k) = {est.value} ({est.kind}, "
                            f"consistent={est.consistent}), want {target}")

    for k in lower_ks:
        # k < 745.8, so N(k) is empirical: probe + 1 iff R_probe <= p_index
        probe = _pi_of_frac(pi, 3, k) - 2
        est = rp.empirical_N(k, probe, cache)
        cases += 1
        if est.value != probe + 1:
            failures.append(f"k={k}: no violation at n=pi(3k)-2={probe} "
                            f"(N(k) over n <= {probe} is {est.value}), so "
                            "N(k) >= pi(3k)-1 is not witnessed")

    for k in remark_ks:
        n = _pi_of_frac(pi, 3, k)
        table = rp.ramanujan_prefix(k, n, cache)
        bound = pi.nth_prime(_pi_of_frac(pi, 5, k))
        cases += 1
        if table.values[-1] > bound:
            failures.append(f"k={k}: R_pi(3k) = {table.values[-1]} "
                            f"> p_pi(5k) = {bound}")
    return params, cases, failures, []


def _run_n0k_closed_form(cache, limit, mmax, rng):
    closed_ks = [Fraction(1437, 10), Fraction(150), Fraction(200)]
    lower_ks = [Fraction(11, 3), Fraction(4), Fraction(10), Fraction(50)]
    prefix_ks = lower_ks + [Fraction(5), Fraction(29, 3)]
    if rng is not None:
        closed_ks += _sample_tenths(rng, Fraction(1437, 10), Fraction(2000))
        lower_ks += _sample_tenths(rng, Fraction(11, 3), Fraction(143))
    params = {"closed_k": [str(k) for k in closed_ks],
              "lower_k": [str(k) for k in lower_ks],
              "prefix_k": [str(k) for k in prefix_ks]}
    failures, cases = [], 0
    pi = cache.get(10 ** 5)

    for k in closed_ks:
        target = _pi_of_frac(pi, 2, k)
        est = rp.empirical_N0(k, 2 * target, cache)
        cases += 1
        if not (est.kind == "closed-form" and est.consistent
                and est.value == target):
            failures.append(f"k={k}: N_0(k) = {est.value} ({est.kind}, "
                            f"consistent={est.consistent}), want {target}")

    for k in lower_ks:
        # k < 143.7, so N_0(k) is empirical: probe + 1 iff R_probe < p_index
        probe = _pi_of_frac(pi, 2, k) - 1
        est = rp.empirical_N0(k, probe, cache)
        cases += 1
        if est.value != probe + 1:
            failures.append(f"k={k}: no strict violation at n=pi(2k)-1="
                            f"{probe} (N_0(k) over n <= {probe} is "
                            f"{est.value}), so N_0(k) >= pi(2k) is not "
                            "witnessed")

    for k in prefix_ks:
        hi = _pi_of_frac(pi, 2, k) - 1
        if hi < 1:
            continue
        table = rp.ramanujan_prefix(k, hi, cache)
        cases += hi
        for n in range(1, hi + 1):
            if table.values[n - 1] != pi.nth_prime(n):
                failures.append(f"k={k}: R_{n} != p_{n} although "
                                f"n <= pi(2k)-1 = {hi}")
    return params, cases, failures, []


def _run_cor316_pattern(cache, limit, mmax, rng):
    ks = [Fraction(29, 3), Fraction(10), Fraction(50), Fraction(1437, 10),
          Fraction(746)]
    if rng is not None:
        ks += _sample_tenths(rng, Fraction(29, 3), Fraction(1000))
    params = {"k_values": [str(k) for k in ks]}
    failures, cases = [], 0
    pi = cache.get(10 ** 5)
    for k in ks:
        m2 = _pi_of_frac(pi, 2, k)
        m3 = _pi_of_frac(pi, 3, k)
        table = rp.ramanujan_prefix(k, m3, cache)
        for n in range(1, m3 + 1):
            rv = table.values[n - 1]
            eq_n = rv == pi.nth_prime(n)
            eq_next = rv == pi.nth_prime(n + 1)
            if eq_n != (n <= m2 - 1):
                failures.append(f"k={k}, n={n}: R_n = p_n iff n <= pi(2k)-1 "
                                f"fails (R_n={rv})")
            if eq_next != (m2 <= n <= m3 - 2):
                failures.append(f"k={k}, n={n}: R_n = p_n+1 iff "
                                f"pi(2k) <= n <= pi(3k)-2 fails (R_n={rv})")
        cases += 2 * m3
        # the pattern forces p_pi(2k) to be skipped, and R_pi(3k)-1 > p_pi(3k)
        # skips p_pi(3k) as well; later values only grow past it
        present = set(table.values)
        for i in (m2, m3):
            cases += 1
            if pi.nth_prime(i) in present:
                failures.append(f"k={k}: p_{i} unexpectedly is a "
                                "k-Ramanujan prime")

    # R_{pi(rk) - pi(r) + 1} > p_pi(rk) for real r >= 2/k
    for k in [Fraction(29, 3), Fraction(10), Fraction(50)]:
        for r in [Fraction(2) / k, Fraction(1), Fraction(2),
                  Fraction(37, 10), Fraction(5)]:
            top = pi.pi(math.floor(r * k))
            n = top - pi.pi(math.floor(r)) + 1
            if n < 1 or top < 1:
                continue
            table = rp.ramanujan_prefix(k, n, cache)
            cases += 1
            if table.values[-1] <= pi.nth_prime(top):
                failures.append(f"k={k}, r={r}: R_(pi(rk)-pi(r)+1) = "
                                f"{table.values[-1]} <= p_pi(rk)")
    return params, cases, failures, []


def _run_rho_positivity(cache, limit, mmax, rng):
    x_max = max(limit if limit else 10 ** 6, 100)
    params = {"k": Fraction(2), "x_lo": 11, "x_max": x_max}
    failures, cases = [], 0

    est = rp.empirical_N(2, 30, cache)
    cases += 1
    if est.value != 2:
        failures.append(f"N(2) = {est.value}, want 2")
    start = rp.ramanujan_prefix(2, 2, cache).values[-1]
    cases += 1
    if start != 11:
        failures.append(f"R_N(2) = {start}, want 11")

    # pi_2(y) = sufmin[pi(y)] for every y <= x_max
    pi, sufmin = rp._pi_k_array(Fraction(2), x_max, cache)

    def margin(pix):
        # rho_2(x) > 0  <=>  pi(x) - 2*pi_2(x) >= 1, exactly in integers
        return pix - 2 * sufmin[pix]

    # sufmin steps by 0 or 1 per prime, so the margin by -1 or +1: on a
    # table word, where least <= pi(x) <= most, it is at least
    # margin(least) - (most - least)
    for a, b in _word_screen(
            pi, start, x_max + 1,
            lambda least, most, ends: margin(least) - (most - least) >= 1):
        x = np.arange(a, b, dtype=np.int64)
        failures += [f"x={int(v)}: rho_2(x) <= 0"
                     for v in x[margin(pi.pi_array(x)) < 1]]
    return params, cases + x_max + 1 - start, failures, []


def _run_rho_upper(cache, limit, mmax, rng):
    # n3 sits near 16400 for the default parameters; anything smaller
    # leaves nothing to check
    x_max = max(limit if limit else 10 ** 6, 20000)
    eps = 0.5
    c2 = 100.0
    params = {"k": Fraction(2), "eps": eps, "c2": c2, "x_max": x_max}
    x26 = bounds.named_threshold("X26", pi=cache, k=2, b1=1.17, eps1=eps,
                                 eps2=eps, eps3=eps, eps4=eps, delta1=eps,
                                 delta2=eps, c2=c2)
    c1 = bounds.named_threshold("c1", pi=cache, k=2, eps1=eps, eps2=eps,
                                eps3=eps, eps4=eps, delta1=eps, delta2=eps)
    n3 = bounds.n_threshold("n3", cache, k=2, b1=1.17, eps1=eps, eps2=eps,
                            eps3=eps, eps4=eps, delta1=eps, delta2=eps,
                            c2=c2)
    params.update(X26=float(x26), c1=float(c1), n3=int(n3))

    # pi_2 >= 0, so rho_2(x) <= 1/2 for every x >= 2.  Below e^(2 c1),
    # c1/log p_n exceeds 1/2, and so does c2/log x, X26 holding only for
    # c2 > c1: both bounds hold on their whole ranges up to x_max
    failures = []
    if not math.log(x_max) < 2.0 * c1 * (1.0 - _SLACK):
        failures.append(f"x_max={x_max}: log x_max >= 2 c1, so rho_2 <= 1/2 "
                        "does not settle rho_2(p_n) <= c1/log p_n")
    cases = (max(cache.pi(x_max) + 1 - math.ceil(x26), 0)
             + max(x_max + 1 - n3, 0))
    return params, cases, failures, []


def _run_mps_scan(cache, limit, mmax, rng):
    m_max = mmax if mmax else 10 ** 4
    params = {"m_max": m_max}
    failures, exceptions = [], []
    certified = scanned = 0
    ms = np.arange(1, m_max + 1, dtype=np.int64)
    for verdict in rp.mps_holds(ms, cache):
        if verdict.verdict == "fails":
            cm, cn = verdict.counterexample
            failures.append(f"m={cm}: pi(mn)-pi(n) < m-1 at n={cn}")
        elif verdict.verdict == "holds-certified":
            certified += 1
        else:
            scanned += 1
    params.update(certified=certified, scanned=scanned)
    return params, m_max, failures, exceptions


def _run_section2_properties(cache, limit, mmax, rng):
    n_max = limit if limit else 200
    ks = [Fraction(3, 2), Fraction(5, 3), Fraction(2), Fraction(3),
          Fraction(10)]
    params = {"k_values": [str(k) for k in ks], "n_max": n_max,
              "pair_bound": 1000}
    failures, cases = [], 0
    tables = {k: rp.ramanujan_prefix(k, n_max, cache) for k in ks}
    pi = cache.get(max(t.values[-1] for t in tables.values()) + 1)
    pvals = pi.nth_prime(np.arange(1, n_max + 1, dtype=np.int64))
    arrs = {k: t.array for k, t in tables.items()}

    # monotone in k, componentwise
    for i, k1 in enumerate(ks):
        for k2 in ks[i + 1:]:
            cases += n_max
            bad = np.flatnonzero(arrs[k1] < arrs[k2])
            failures += [f"k1={k1}, k2={k2}, n={j + 1}: R_n increased in k"
                         for j in bad]

    for k in ks:
        rv = arrs[k]
        cases += 3 * n_max
        for j in np.flatnonzero(rv < pvals):
            failures.append(f"k={k}, n={j + 1}: R_n < p_n")
        if np.any(np.diff(rv) <= 0):
            failures.append(f"k={k}: sequence not strictly increasing")
        # the n with R_n = p_n form a prefix
        eq = rv == pvals
        if np.any(np.diff(eq.astype(np.int8)) > 0):
            failures.append(f"k={k}: {{n : R_n = p_n}} is not a prefix")
        # counting invariant, exactly
        num, den = k.numerator, k.denominator
        counted = pi.pi_array(rv) - pi.pi_array(rv * den // num)
        for j in np.flatnonzero(counted != np.arange(1, n_max + 1)):
            failures.append(f"k={k}, n={j + 1}: pi(R_n) - pi(R_n/k) != n")

    grid_cases, grid_failures = _pi_sum_grids(cache)
    cases += grid_cases
    failures += grid_failures

    # R_pi(k) = p_pi(k) and the prefix equality below it, k >= 2
    for k in [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(10),
              Fraction(100)]:
        nk = pi.pi(math.floor(k))
        table = rp.ramanujan_prefix(k, max(nk, 1), cache)
        cases += max(nk, 1)
        for n in range(1, nk + 1):
            if table.values[n - 1] != pi.nth_prime(n):
                failures.append(f"k={k}, n={n} <= pi(k): R_n != p_n")

    # below 5/3 never p_n; in [5/3, 2) only at n = 1
    for k in [Fraction(4, 3), Fraction(3, 2), Fraction(8, 5)]:
        rv = arrs.get(k)
        if rv is None:
            rv = rp.ramanujan_prefix(k, n_max, cache).array
        cases += n_max
        for j in np.flatnonzero(rv == pvals):
            failures.append(f"k={k}, n={j + 1}: R_n = p_n below 5/3")
    for k in [Fraction(5, 3), Fraction(9, 5), Fraction(19, 10)]:
        rv = rp.ramanujan_prefix(k, n_max, cache).array
        cases += n_max
        eq = rv == pvals
        if not eq[0] or np.any(eq[1:]):
            failures.append(f"k={k}: R_n = p_n exactly at n=1 fails")

    # R_n + 1 is never k times an odd prime
    for k in [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(10)]:
        rv = arrs.get(k)
        if rv is None:
            rv = rp.ramanujan_prefix(k, n_max, cache).array
        num, den = k.numerator, k.denominator
        cases += n_max
        for j in range(n_max):
            succ = (int(rv[j]) + 1) * den
            if succ % num == 0:
                q = succ // num
                if q != 2 and q <= pi.limit and pi.is_prime(q):
                    failures.append(f"k={k}, n={j + 1}: R_n = k*{q} - 1")
    return params, cases, failures, []


def _pi_sum_grids(cache) -> tuple[int, list[str]]:
    """(cases, failures) of pi(m) + pi(n) <= pi(mn) for all m, n <= 1000,
    and of pi(m) + pi(n) <= pi(mn/2) for 4 <= m, n <= 1000 with
    max(m, n) >= 6, with the first 20 failures of each grid."""
    bound = 1000
    pi = cache.get(bound * bound)
    mn = np.arange(1, bound + 1, dtype=np.int64)
    psmall = pi.pi_array(mn)
    failures = [f"m={flat // bound + 1}, n={flat % bound + 1}: "
                "pi(m)+pi(n) > pi(mn)"
                for flat in _grid_failures(pi, mn, psmall, 1)[:20]]

    mn4, p4 = mn[3:], psmall[3:]
    size = len(mn4)
    bad4 = [flat for flat in _grid_failures(pi, mn4, p4, 2)
            if max(flat // size, flat % size) >= 2]
    failures += [f"m={flat // size + 4}, n={flat % size + 4}: "
                 "pi(m)+pi(n) > pi(mn/2)" for flat in bad4[:20]]
    # every pair of the second grid but the four with m, n < 6
    return bound * bound + size * size - 4, failures


def _run_nicholson_bound(cache, limit, mmax, rng):
    n_max = limit if limit else 10 ** 4
    params = {"k": Fraction(2), "n_lo": 33, "n_max": n_max}
    failures, cases = [], 0

    table = rp.ramanujan_prefix(2, n_max, cache)
    rv = table.array.astype(np.float64)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    ok = rv < 2.0 * n * np.log(rv)
    for j in np.flatnonzero(~ok[32:]) + 33:
        failures.append(f"n={int(j)}: R_n >= 2n log R_n")
    cases += max(n_max - 32, 0)

    # the generalized form, spot-checked where the premise holds
    k = Fraction(10)
    eps = 0.5
    premise = (1 + eps) * (1 + eps) * (np.log(10.0) + eps)
    assert premise < 9.0
    x19 = bounds.named_threshold("X19", pi=cache, k=10, b1=1.17, eps2=eps,
                                 delta1=eps, delta2=eps)
    n_lo = math.ceil(x19)
    n_hi = n_lo + 1053
    params.update(spot_k=k, eps2=eps, delta1=eps, delta2=eps,
                  X19=float(x19), spot_n_hi=n_hi)
    table10 = rp.ramanujan_prefix(k, n_hi, cache)
    rv10 = table10.array[n_lo - 1:].astype(np.float64)
    nn = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    ok10 = (10.0 / 9.0) * nn * np.log(rv10) > rv10
    for j in np.flatnonzero(~ok10):
        failures.append(f"k=10, n={int(nn[j])}: kn log R_n/(k-1) <= R_n")
    cases += len(nn)
    return params, cases, failures, []


def _run_gamma_difference(cache, limit, mmax, rng):
    window = limit if limit else 3000
    eps = 0.5
    ks = [Fraction(2), Fraction(3, 2)]
    params = {"k_values": [str(k) for k in ks], "eps_all": eps,
              "window": window}
    failures, cases = [], 0
    for k in ks:
        kf = float(k)
        n2 = bounds.n_threshold("n2", cache, k=kf, b1=1.17, eps1=eps,
                                eps2=eps, eps3=eps, delta1=eps, delta2=eps)
        gamma = bounds.named_threshold("gamma", k=kf, eps1=eps, eps2=eps,
                                       eps3=eps, delta1=eps, delta2=eps)
        n_hi = n2 + window
        table = rp.ramanujan_prefix(k, n_hi, cache)
        nn = np.arange(n2, n_hi + 1, dtype=np.int64)
        pidx = cache.nth_prime(rp._p_index(k, nn))
        rv = table.array[n2 - 1:]
        diff = rv - pidx
        bad = np.flatnonzero(diff >= gamma * nn)
        failures += [f"k={k}, n={int(nn[j])}: R_n - p_ceil(kn/(k-1)) = "
                     f"{int(diff[j])} >= gamma*n" for j in bad]
        cases += len(nn)
        params[f"n2(k={k})"] = n2
        params[f"gamma(k={k})"] = round(float(gamma), 6)
    return params, cases, failures, []


_CAMPAIGNS: dict[str, tuple[str, object]] = {
    "sondow-gap": (
        "R_n - p_2n >= 6 for 4 <= n <= 37097 at k=2; minimal gap 4 "
        "attained exactly at n=2,3", _run_sondow_gap),
    "upper-48-19": (
        "R_n <= p_ceil(48n/19) for n <= 19535 except n=19, and "
        "R_n <= p_ceil(2.53n) throughout, at k=2", _run_upper_48_19),
    "lemma34-sweep": (
        "pi(p_i) >= h(p_i+1) + 1 with h(x) = x/(log x - 1 - 1/log x) "
        "for pi(470077) <= i <= pi(38168363)", _run_lemma34_sweep),
    "eq431-range": (
        "pi(x) > x/(log x - 1) + 1 for all real 7477 <= x <= 470077",
        _run_eq431_range),
    "prop310-table": (
        "ceil(3/r * R_pi(r)^(r/3)) = 5, 5, 4 for r = 20, 19, 18",
        _run_prop310_table),
    "Nk-closed-form": (
        "N(k) = pi(3k) - 1 for k >= 745.8; witnessed N(k) >= pi(3k)-1 "
        "and R_pi(3k) <= p_pi(5k) on samples", _run_nk_closed_form),
    "N0k-closed-form": (
        "N_0(k) = pi(2k) for k >= 143.7; witnessed N_0(k) >= pi(2k) and "
        "the prefix R_n = p_n below pi(2k) for k >= 11/3",
        _run_n0k_closed_form),
    "cor316-pattern": (
        "for k >= 29/3: R_n = p_n iff n <= pi(2k)-1 and R_n = p_n+1 iff "
        "pi(2k) <= n <= pi(3k)-2", _run_cor316_pattern),
    "rho-positivity": (
        "rho_2(x) > 0 for R_N(2) = 11 <= x <= 10^6, checked in exact "
        "integer arithmetic", _run_rho_positivity),
    "rho-upper": (
        "rho_2(p_n) <= c1/log p_n for n >= X26 and rho_2(x) <= c2/log x "
        "for x >= n3", _run_rho_upper),
    "mps-scan": (
        "pi(mn) - pi(n) >= m-1 for n >= ceil(1.1 log 2.5m), settled per m "
        "via R_m-1^(m)", _run_mps_scan),
    "section2-properties": (
        "structural properties: monotonicity in k and n, R_n >= p_n, "
        "prefix equality, counting invariant, pi(m)+pi(n) <= pi(mn) and "
        "pi(mn/2) variants, R_n != kp-1", _run_section2_properties),
    "nicholson-bound": (
        "R_n < 2n log R_n for n >= 33 at k=2, and the generalized "
        "kn log R_n/(k-1) > R_n spot check at k=10", _run_nicholson_bound),
    "gamma-difference": (
        "R_n - p_ceil(kn/(k-1)) < gamma*n for n >= n2 at k = 2 and 3/2",
        _run_gamma_difference),
}


def campaign_ids() -> list[str]:
    return list(_CAMPAIGNS)


def _check_sizes(limit: int | None, mmax: int | None) -> None:
    for name, size in (("limit", limit), ("mmax", mmax)):
        if size is not None and size < 1:
            raise ValueError(f"need {name} >= 1, got {size}")


def _campaign(cid: str):
    if cid not in _CAMPAIGNS:
        raise KeyError(f"unknown campaign {cid!r}; known: "
                       f"{', '.join(_CAMPAIGNS)}")
    return _CAMPAIGNS[cid]


def run_campaign(cid: str, cache: rp.TableCache | None = None,
                 limit: int | None = None, mmax: int | None = None,
                 seed: int | None = None) -> CampaignReport:
    description, runner = _campaign(cid)
    _check_sizes(limit, mmax)
    cache = cache if cache is not None else rp.TableCache()
    rng = np.random.default_rng(seed) if seed is not None else None
    started = time.perf_counter()
    params, cases, failures, exceptions = runner(cache, limit, mmax, rng)
    elapsed = time.perf_counter() - started
    if seed is not None:
        params = dict(params, seed=seed)
    failure_count = len(failures)
    if failure_count > 50:
        failures = failures[:50] + [f"... and {failure_count - 50} more"]
    table = cache.current()
    return CampaignReport(id=cid, description=description, params=params,
                          cases=cases, failures=failures,
                          exceptions=exceptions, elapsed=elapsed,
                          table_limit=table.limit if table else 0,
                          failure_count=failure_count)


def run_all(ids: list[str] | None = None,
            cache: rp.TableCache | None = None, threads: int = 1,
            limit: int | None = None, mmax: int | None = None,
            seed: int | None = None) -> list[CampaignReport]:
    ids = list(ids) if ids is not None else campaign_ids()
    for cid in ids:
        _campaign(cid)
    _check_sizes(limit, mmax)
    cache = cache if cache is not None else rp.TableCache()
    if threads <= 1:
        return [run_campaign(cid, cache, limit, mmax, seed) for cid in ids]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run_campaign, cid, cache, limit, mmax, seed)
                   for cid in ids]
        return [f.result() for f in futures]
