"""PrimeTable against an independent sieve and frozen pi values.

Every count the table produces is checked against the bytearray sieve
from conftest (different algorithm, different storage) or against
literals computed once from that oracle and frozen here.
"""

from __future__ import annotations

import ast
import gc
import random
import sys
import threading
import tracemalloc
import weakref
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np
import pytest

from conftest import slow_primes
from ramanujan_primes import RangeQueryError, TableCache, primes
from ramanujan_primes.primes import CHECKPOINT_SPAN, SEGMENT_SIZE, build_table

# pi(x) at the checkpoints the rest of the suite leans on, computed from
# the oracle sieve and frozen
PI_PINS = {
    10: 4,
    22: 8,
    100: 25,
    300: 62,
    2238: 332,
    7477: 946,
    16361: 1897,
    468049: 39071,
    470077: 39227,
    940154: 74196,
    10 ** 6: 78498,
}

NTH_PINS = {1: 2, 2: 3, 8: 19, 49: 227, 1897: 16361, 100000: 1299709}


@pytest.fixture(scope="module")
def table(cache):
    # 1.31e6 covers p_100000 = 1299709
    return cache.get(1_310_000)


def test_small_table_matches_oracle(oracle_primes):
    t = build_table(10 ** 4)
    want = [p for p in oracle_primes if p <= 10 ** 4]
    assert t.primes_array(t.limit).tolist() == want
    assert t.prime_count == len(want)


def test_pi_pins(table):
    for x, want in PI_PINS.items():
        assert table.pi(x) == want, f"pi({x})"


def test_nth_prime_pins(table):
    for n, want in NTH_PINS.items():
        assert table.nth_prime(n) == want, f"p_{n}"
    got = table.nth_prime(np.array(list(NTH_PINS), dtype=np.int64))
    assert got.tolist() == list(NTH_PINS.values())


def test_pi_against_oracle_random(table, oracle_primes):
    rng = np.random.default_rng(20260815)
    for x in rng.integers(0, 10 ** 6, size=300):
        x = int(x)
        assert table.pi(x) == bisect_right(oracle_primes, x)


def test_pi_at_checkpoint_boundaries(table, oracle_primes):
    for base in (CHECKPOINT_SPAN, 2 * CHECKPOINT_SPAN, 5 * CHECKPOINT_SPAN):
        for x in (base - 1, base, base + 1):
            assert table.pi(x) == bisect_right(oracle_primes, x)


@pytest.mark.parametrize("limit", [2, 3, 4, 9, 15, 16, 17, 127, 128, 129,
                                   255, 65535, 65536, 65537, 65663, 131071,
                                   131073, 131079])
def test_pi_at_every_x_across_partial_bytes_and_blocks(limit, oracle_primes):
    """A partial last byte (of 8 odd slots, 16 values), a last 64-bit word
    (128 values) ending at or just past the limit, an exact 2^16 block
    end, a one-value last block; pi, is_prime (every even x as well as the
    odd bits) and pi_cumulative at every x."""
    t = build_table(limit)
    want = np.searchsorted(oracle_primes, np.arange(limit + 1), side="right")
    assert [t.pi(x) for x in range(limit + 1)] == want.tolist()
    assert t.prime_count == want[-1]
    assert t.pi_cumulative(limit + 1).tolist() == want.tolist()
    members = set(oracle_primes[:t.prime_count])
    assert [t.is_prime(x) for x in range(limit + 1)] \
        == [x in members for x in range(limit + 1)]


@pytest.fixture(scope="module")
def primes_past_two_segments():
    return slow_primes(2 * SEGMENT_SIZE + 1)


@pytest.mark.parametrize("limit", [SEGMENT_SIZE - 1, SEGMENT_SIZE,
                                   SEGMENT_SIZE + 1, 2 * SEGMENT_SIZE - 1,
                                   2 * SEGMENT_SIZE + 1])
def test_limits_at_sieve_segment_boundaries(limit, primes_past_two_segments):
    """A table ending on either side of a sieve segment end, against the
    conftest sieve run past the shared oracle's 10^6."""
    want = [p for p in primes_past_two_segments if p <= limit]
    t = build_table(limit)
    assert t.primes_array(t.limit).tolist() == want
    assert t.prime_count == len(want)
    members = set(want)
    edges = [b + d for b in range(0, limit + 1, SEGMENT_SIZE)
             for d in (-1, 0, 1)] + [limit - 1, limit]
    for x in (x for x in edges if 0 <= x <= limit):
        assert t.pi(x) == bisect_right(want, x), f"pi({x})"
        assert t.is_prime(x) == (x in members), f"is_prime({x})"


@pytest.mark.parametrize("lo", [0, 8, 16, 24, 65528, 65536])
def test_pi_cumulative_at_byte_offsets(table, oracle_primes, lo):
    """hi = lo + d ends anywhere in a table byte (lo = 8 (mod 16) is
    halfway through one), well inside a larger table."""
    primes = np.asarray(oracle_primes)
    for hi in (lo, lo + 1, lo + 2, lo + 3, lo + 9, lo + 17, lo + 1000):
        want = np.searchsorted(primes, np.arange(hi), side="right")
        assert table.pi_cumulative(hi).tolist() == want.tolist(), hi


# -- the sieve's small-prime patterns and the rank -------------------------

@pytest.fixture(scope="module")
def small_primes():
    return slow_primes(2000)


def test_every_small_limit_matches_a_plain_sieve(small_primes):
    """Every limit 2..2000, 60..68 among them, where the pattern primes
    (3..61) end and the sliced ones (67 on) begin: the pattern primes
    are restored, and no bit past the limit is set."""
    for limit in range(2, 2001):
        t = build_table(limit)
        want = small_primes[:bisect_right(small_primes, limit)]
        assert t.primes_array(t.limit).tolist() == want, limit
        assert t.prime_count == len(want), limit


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 15, 17, 26])
def test_grown_table_at_pattern_phases(blocks, primes_past_two_segments):
    """Growth resumes at checkpoint block `blocks`, byte 4096 * blocks,
    whose phase differs in each pattern's period (15015, 7429, 33263,
    82861 and 190747 bytes), and grows by more than a segment, so a
    second segment starts at another phase; the grown table's bits equal
    the fresh table's, and its primes the conftest sieve's as far as
    that goes."""
    base = build_table(blocks * CHECKPOINT_SPAN + 5)
    limit = base.limit + SEGMENT_SIZE + 3 * CHECKPOINT_SPAN + 11
    grown, fresh = build_table(limit, base), build_table(limit)
    assert np.array_equal(grown._bits, fresh._bits)
    assert np.array_equal(grown._checkpoints, fresh._checkpoints)
    want = primes_past_two_segments
    got = grown.primes_array(limit).tolist()
    assert got[:len(want)] == want[:bisect_right(want, limit)]


def _rank_edges(limit):
    """x at 0..3, at byte (16), word (128), checkpoint and segment edges
    +-1 and 2, and at the limit."""
    edges = {0, 1, 2, 3, limit - 1, limit}
    for step in (16, 128, CHECKPOINT_SPAN, SEGMENT_SIZE):
        for b in range(step, limit + 1, step):
            edges.update(b + d for d in (-2, -1, 0, 1, 2))
            if len(edges) > 4000:
                break
    return sorted(x for x in edges if 0 <= x <= limit)


def test_pi_array_equals_pi_at_edges(table):
    """The rank of one array over all edges, of each edge alone and of
    each edge with its neighbours, so each edge also opens and closes
    the span of words it reads."""
    xs = np.array(_rank_edges(table.limit), dtype=np.int64)
    want = np.array([table.pi(x) for x in xs.tolist()])
    assert np.array_equal(table.pi_array(xs), want)
    for i, x in enumerate(xs.tolist()):
        assert table.pi_array(xs[i:i + 1]).tolist() == [want[i]], x
        assert np.array_equal(table.pi_array(xs[i:i + 3]), want[i:i + 3]), x
    assert table.pi_array(np.array([], dtype=np.int64)).tolist() == []


@pytest.mark.parametrize("limit", [2, 3, 15, 16, 17, 127, 128, 129, 255,
                                   65535, 65536, 65663, 131072])
def test_pi_array_at_every_x_up_to_the_limit(limit):
    """Tables ending inside, or at the end of, a byte, a 64-bit word and a
    checkpoint block, where the last word reads past the table."""
    t = build_table(limit)
    pic = t.pi_cumulative(limit + 1)
    xs = np.arange(limit + 1, dtype=np.int64)
    assert np.array_equal(t.pi_array(xs), pic)
    for lo in sorted({0, 1, 2, limit // 2, max(0, limit - 130), limit}):
        assert np.array_equal(t.pi_array(xs[lo:]), pic[lo:]), lo


def test_pi_array_on_mps_shaped_blocks(table):
    """2-D arrays, each column ascending as in a block of f* rows, and
    columns from far apart parts of the table."""
    rng = np.random.default_rng(20261019)
    pic = table.pi_cumulative(table.limit + 1)
    for shape, hi in (((700, 128), 3000), ((583, 128), table.limit),
                      ((64, 5), 300_000)):
        x = np.sort(rng.integers(0, hi + 1, shape), axis=0)
        assert np.array_equal(table.pi_array(x), pic[x]), shape


def test_pi_array_range_errors(table):
    for bad in ([-1], [0, -5], [table.limit + 1], [3, table.limit + 1]):
        with pytest.raises(RangeQueryError):
            table.pi_array(np.array(bad, dtype=np.int64))


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint32, np.uint64])
def test_pi_array_counts_any_integer_dtype_as_int64(table, dtype):
    xs = np.array([0, 2, 127, 128, 30000], dtype=np.int64)
    got = table.pi_array(xs.astype(dtype))
    assert got.dtype == np.int64
    assert np.array_equal(got, table.pi_array(xs))


def test_pi_array_refuses_a_float_array(table):
    with pytest.raises(TypeError, match="float64"):
        table.pi_array(np.array([2.0, 3.0]))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
def test_pi_takes_a_numpy_integer(table, dtype):
    """pi at a numpy integer x equals pi at int(x), over every residue of
    x mod 128, so over words with their top bit set; a float is
    refused."""
    xs = range(0, 200_000, 7)
    assert [table.pi(dtype(x)) for x in xs] == [table.pi(x) for x in xs]
    with pytest.raises(TypeError):
        table.pi(np.float64(3.0))


# table words 511..513 and 1023..1025 straddle the checkpoint blocks'
# edges at words 512 and 1024
_WORD_EDGES = (0, 1, 2, 511, 512, 513, 1023, 1024, 1025)


def test_pi_below_words_matches_the_cumulative_oracle():
    """Every word of ranges that start on, just before and just after a
    checkpoint block's edge, single words among them, against
    pi_cumulative: the primes below 128w, 2 below word 0."""
    t = build_table(250_001)
    pic = t.pi_cumulative(t.limit + 1)
    n_words = ((t.limit + 1) >> 7) + 1

    def want(w_lo, w_hi):
        x = np.minimum(128 * np.arange(w_lo, w_hi + 1) - 1, t.limit)
        return np.where(x < 0, 1, pic[np.maximum(x, 0)])

    for w_lo in _WORD_EDGES:
        for w_hi in (w_lo, w_lo + 1, w_lo + 600, n_words):
            got = t.pi_below_words(w_lo, w_hi)
            assert got.dtype == np.int64
            assert np.array_equal(got, want(w_lo, w_hi)), (w_lo, w_hi)
    # the table's last word, and its end: every prime below it
    assert t.pi_below_words(n_words - 1, n_words).tolist() == \
        want(n_words - 1, n_words).tolist()
    assert t.pi_below_words(n_words, n_words).tolist() == [t.prime_count]


def test_pi_below_words_refuses_words_outside_the_table():
    t = build_table(250_001)
    n_words = ((t.limit + 1) >> 7) + 1
    for w_lo, w_hi in ((-1, 3), (0, n_words + 1), (5, 4),
                       (n_words + 1, n_words + 1)):
        with pytest.raises(RangeQueryError):
            t.pi_below_words(w_lo, w_hi)


@pytest.mark.parametrize("lo", [0, 100, 200_000, 512 * 128 - 1,
                                1024 * 128 - 1])
def test_pi_array_makes_no_pi_call(monkeypatch, lo):
    """x whose minimum lies in word 0, mid-block and on a block edge:
    the rank comes from pi_below_words alone."""
    t = build_table(250_001)
    pic = t.pi_cumulative(t.limit + 1)
    calls = []
    pi = primes.PrimeTable.pi
    monkeypatch.setattr(primes.PrimeTable, "pi",
                        lambda self, x: calls.append(x) or pi(self, x))
    x = np.arange(lo, lo + 700, dtype=np.int64)
    assert np.array_equal(t.pi_array(x), pic[x])
    assert calls == []


def test_only_primes_reads_the_table_layout():
    """No module of the package but primes reads a PrimeTable's private
    attributes: a new table layout changes primes.py alone."""
    private = {"_words", "_bits", "_checkpoints", "_primes"}
    for path in Path(primes.__file__).parent.glob("*.py"):
        if path.name == "primes.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = [(node.lineno, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in private]
        assert read == [], path.name


def test_build_table_peak_memory_within_twice_the_table():
    """The sieve's transients stay per segment: tracemalloc's peak over a
    10^8 build is at most twice the table it returns."""
    tracemalloc.start()
    try:
        t = build_table(10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.prime_count == 5761455
    assert peak <= 2 * t._bits.nbytes


def test_pi_is_nondecreasing_and_inverts_nth_prime(table):
    """pi(p_n) = n and pi(p_n - 1) = n - 1, over all n <= 10^5."""
    n_top = 10 ** 5
    p_top = table.nth_prime(n_top)
    pic = table.pi_cumulative(p_top + 1)
    assert np.all(np.diff(pic) >= 0)
    primes = table.primes_array(p_top)
    assert primes[-1] == p_top
    n = np.arange(1, n_top + 1)
    assert np.array_equal(pic[primes], n)
    assert np.array_equal(pic[primes - 1], n - 1)


def test_nth_prime_matches_oracle_everywhere(table, oracle_primes):
    """p_n from the cached primes array, for every n <= pi(10^6), as ints
    and as one index array; the array covers every index of the table."""
    assert [table.nth_prime(n) for n in range(1, len(oracle_primes) + 1)] \
        == oracle_primes
    every = np.arange(1, table.prime_count + 1, dtype=np.int64)
    assert table.nth_prime(every).tolist() \
        == [table.nth_prime(int(n)) for n in every]


def test_nth_prime_range_errors(table):
    with pytest.raises(RangeQueryError):
        table.nth_prime(0)
    with pytest.raises(RangeQueryError):
        table.nth_prime(table.prime_count + 1)
    # an index array never wraps 0 round to the largest prime
    for bad in (0, table.prime_count + 1):
        with pytest.raises(RangeQueryError):
            table.nth_prime(np.array([5, bad, 7], dtype=np.int64))
    empty = table.nth_prime(np.array([], dtype=np.int64))
    assert empty.dtype == np.int64 and empty.shape == (0,)


def test_pi_and_is_prime_range_errors(table):
    with pytest.raises(RangeQueryError):
        table.pi(-1)
    with pytest.raises(RangeQueryError):
        table.pi(table.limit + 1)
    with pytest.raises(RangeQueryError):
        table.is_prime(table.limit + 1)


def test_is_prime_matches_oracle(table, oracle_primes):
    members = set(oracle_primes)
    rng = np.random.default_rng(7)
    for x in rng.integers(0, 10 ** 6, size=500):
        assert table.is_prime(int(x)) == (int(x) in members)


def test_primes_array_is_read_only(table):
    view = table.primes_array(1999)[168:]      # the primes in [1000, 2000)
    with pytest.raises(ValueError):
        view[0] = 4
    with pytest.raises(ValueError):
        table.primes_array(2)[0] = 4
    assert table.nth_prime(1) == 2


def test_primes_array_built_concurrently(oracle_primes):
    """Threads racing to grow the lazy prefix all read the same primes."""
    _race_primes_array(build_table(10 ** 6), oracle_primes)


def test_grown_primes_array_built_concurrently(oracle_primes):
    """The same race on a grown table, whose prefix starts as its base's."""
    base = build_table(300_007)
    base.primes_array(base.limit)
    _race_primes_array(build_table(10 ** 6, base), oracle_primes)


def test_primes_array_unpacked_on_the_pool(oracle_primes, monkeypatch):
    """Segments of one checkpoint block each, 16 to a 10^6 table, unpack
    on the block pool at their checkpoint offsets, on a fresh table and
    after a base's primes alike."""
    monkeypatch.setattr(primes, "SEGMENT_SIZE", CHECKPOINT_SPAN)
    monkeypatch.setattr(primes, "_WORKERS", 2)      # pooled on one CPU too
    base = build_table(300_007)
    base.primes_array(base.limit)
    for t in (build_table(10 ** 6), build_table(10 ** 6, base)):
        assert t.primes_array(t.limit).tolist() == oracle_primes
        assert t.primes_between(0, t.limit + 1).tolist() == oracle_primes


def _race_primes_array(t, oracle_primes):
    """Eight threads grow t's prefix at once, each to its own length (the
    last to the whole table), by nth_prime and primes_array in turn: each
    reads its own primes, and the prefix kept reads the oracle's."""
    counts = [1, 2, 6542, 6543, 26000, 52000, 70000, len(oracle_primes)]
    results, errors = {}, []
    start = threading.Barrier(len(counts))

    def worker(w, n):
        try:
            start.wait(timeout=10)
            x = oracle_primes[n - 1]
            if w & 1:
                got = (t.nth_prime(n), t.primes_array(x).tolist())
            else:
                got = t.primes_array(x).tolist()
                got = (t.nth_prime(n), got)
            results[n] = (got[0], got[1] == oracle_primes[:n])
        except Exception as exc:     # surfaced by the assertions below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=item)
                   for item in enumerate(counts)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert results == {n: (oracle_primes[n - 1], True) for n in counts}
    assert t.primes_array(t.limit).tolist() == oracle_primes


def test_pi_cumulative_matches_scalar(table):
    pic = table.pi_cumulative(5000)
    for x in (0, 1, 2, 1023, 4096, 4999):
        assert int(pic[x]) == table.pi(x)
    assert len(table.pi_cumulative(table.limit + 1)) == table.limit + 1
    with pytest.raises(RangeQueryError):
        table.pi_cumulative(table.limit + 2)


# -- the cached prefix and primes_between -----------------------------------

# a table whose last checkpoint block is partial, 11 values into it
_PARTIAL = SEGMENT_SIZE + 3 * CHECKPOINT_SPAN + 11


def _grown(base_limit, whole, limit):
    """build_table(limit, base) from a base whose prefix holds all its
    primes (whole) or only its first block."""
    base = build_table(base_limit)
    base.nth_prime(base.prime_count if whole else 2)
    return build_table(limit, base)


# fresh tables, and grown ones whose base's prefix is shorter than the
# blocks the two tables share (1 block of 3), longer (all 4 blocks of the
# base, 3 of them shared), and longer than a smaller grown table (2 of 4)
PREFIX_TABLES = {
    "fresh-2": lambda: build_table(2),
    "fresh-16": lambda: build_table(16),
    "fresh-128": lambda: build_table(128),
    "fresh-65536": lambda: build_table(CHECKPOINT_SPAN),
    "fresh-partial": lambda: build_table(_PARTIAL),
    "fresh-two-segments": lambda: build_table(2 * SEGMENT_SIZE + 1),
    "grown-short-base": lambda: _grown(3 * CHECKPOINT_SPAN + 5, False,
                                       _PARTIAL),
    "grown-long-base": lambda: _grown(3 * CHECKPOINT_SPAN + 5, True,
                                      _PARTIAL),
    "grown-smaller": lambda: _grown(3 * CHECKPOINT_SPAN + 5, True,
                                    2 * CHECKPOINT_SPAN + 100),
}


def _prefix_edges(limit):
    """x at 0, 1 and 2, either side of the first byte (16) and word (128)
    edges, of every checkpoint and segment edge, and of the limit."""
    edges = {0, 1, 2, limit - 1, limit}
    for step in (16, 128):
        edges.update(k * step + d for k in (1, 2) for d in (-1, 0, 1))
    for step in (CHECKPOINT_SPAN, SEGMENT_SIZE):
        for b in range(step, limit + 1, step):
            edges.update((b - 1, b, b + 1))
    return sorted(x for x in edges if 0 <= x <= limit)


def _blocks_held(t):
    """The checkpoint blocks t's prefix covers, checking that it ends on
    a checkpoint boundary."""
    n = len(t._primes)
    j = int(t._checkpoints.searchsorted(n - 1))
    assert 1 + int(t._checkpoints[j]) == n
    return j


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("make", PREFIX_TABLES.values(), ids=PREFIX_TABLES)
def test_prefix_matches_oracle_at_edges(make, order,
                                        primes_past_two_segments):
    """primes_array(x) and nth_prime at every edge, asked in ascending
    order (the prefix grows by steps) and in descending order (it grows
    whole at once), against the conftest sieve; the prefix always ends
    on a checkpoint boundary."""
    t = make()
    want = np.array(primes_past_two_segments)
    xs = _prefix_edges(t.limit)
    for x in xs if order == "ascending" else xs[::-1]:
        count = bisect_right(primes_past_two_segments, x)
        got = t.primes_array(x)
        assert got.dtype == np.int64 and np.array_equal(got, want[:count]), x
        if count:
            assert t.nth_prime(count) == want[count - 1], x
        _blocks_held(t)
    assert np.array_equal(t.primes_array(t.limit), want[:t.prime_count])
    for bad in (-1, t.limit + 1):
        with pytest.raises(RangeQueryError):
            t.primes_array(bad)


@pytest.mark.parametrize("make", PREFIX_TABLES.values(), ids=PREFIX_TABLES)
def test_primes_between_matches_oracle_at_edges(make,
                                                primes_past_two_segments):
    """primes_between(lo, hi) for lo at every edge and hi at the next few
    edges and at limit + 1, against the conftest sieve; it caches
    nothing."""
    t = make()
    kept = t._primes
    want = primes_past_two_segments
    wanted = np.array(want)
    xs = _prefix_edges(t.limit) + [t.limit + 1]
    for i, lo in enumerate(xs):
        for hi in {*xs[i:i + 4], t.limit + 1}:
            got = t.primes_between(lo, hi)
            assert got.dtype == np.int64, (lo, hi)
            assert np.array_equal(
                got, wanted[bisect_left(want, lo):bisect_left(want, hi)]), \
                (lo, hi)
    assert t._primes is kept
    for lo, hi in ((-1, 5), (5, 4), (0, t.limit + 2)):
        with pytest.raises(RangeQueryError):
            t.primes_between(lo, hi)


def test_prefix_grows_in_whole_blocks_at_least_doubling():
    """Each growth ends on the first checkpoint boundary with the primes
    asked for, or at twice the blocks held if that is further; a query
    the prefix already answers keeps it as it is."""
    t = build_table(2 * SEGMENT_SIZE + 1)
    cp = t._checkpoints
    held = [_blocks_held(t)]
    for query in (lambda: t.nth_prime(1), lambda: t.nth_prime(2),
                  lambda: t.nth_prime(2 + int(cp[1])),
                  lambda: t.primes_array(5 * CHECKPOINT_SPAN),
                  lambda: t.nth_prime(2 + int(cp[6])),
                  lambda: t.primes_array(12 * CHECKPOINT_SPAN - 1)):
        query()
        held.append(_blocks_held(t))
    assert held == [0, 0, 1, 2, 6, 12, 12]
    t.primes_array(t.limit)
    assert len(t._primes) == t.prime_count
    kept = t._primes
    t.nth_prime(t.prime_count)
    t.nth_prime(np.arange(1, t.prime_count + 1, dtype=np.int64))
    assert t._primes is kept


# -- growth: build_table(limit, base) ----------------------------------------

_SEGMENT_CHAINS = [
    [2, 3, 17, 65535, 65537, 131073],
    [65537, SEGMENT_SIZE - 1, SEGMENT_SIZE + 1, 2 * SEGMENT_SIZE + 17],
]
_rng = random.Random(20261018)
GROWTH_CHAINS = _SEGMENT_CHAINS + [
    sorted(_rng.sample(range(2, 3 * SEGMENT_SIZE), 2)) for _ in range(2)]


def _assert_same_table(got, want):
    assert got.limit == want.limit
    assert got.prime_count == want.prime_count
    assert np.array_equal(got._bits, want._bits)
    assert np.array_equal(got._checkpoints, want._checkpoints)
    assert np.array_equal(got.primes_array(got.limit),
                          want.primes_array(want.limit))
    n = np.arange(1, want.prime_count + 1, dtype=np.int64)
    assert np.array_equal(got.nth_prime(n), want.nth_prime(n))
    assert got.nth_prime(want.prime_count) == want.nth_prime(want.prime_count)


def _assert_same_near(got, want, seam):
    """pi and is_prime at every x within two checkpoint blocks of seam."""
    lo = max(0, seam - 2 * CHECKPOINT_SPAN)
    hi = min(want.limit, seam + 2 * CHECKPOINT_SPAN)
    xs = range(lo, hi + 1)
    pic = want.pi_cumulative(hi + 1)
    assert [got.pi(x) for x in xs] == pic[lo:].tolist()
    assert [got.is_prime(x) for x in xs] == [want.is_prime(x) for x in xs]


@pytest.mark.parametrize("base_primes", [False, True],
                         ids=["bits-only", "primes-built"])
@pytest.mark.parametrize("chain", GROWTH_CHAINS, ids=str)
def test_grown_table_equals_fresh(chain, base_primes):
    """A table grown through a chain of limits is the fresh table, bit for
    bit, in its checkpoints and its primes.  The seams are the bases'
    limits; pi and is_prime read only bits and checkpoints, so they are
    checked near each seam once, in the run without the base's primes."""
    t = build_table(chain[0])
    for limit in chain[1:]:
        if base_primes:
            t.primes_array(t.limit)
        seam = t.limit
        t = build_table(limit, t)
        want = build_table(limit)
        _assert_same_table(t, want)
        if not base_primes:
            _assert_same_near(t, want, seam)


def test_grown_table_keeps_no_base_alive():
    """A grown table holds its base's cached prefix but not the base, and
    a prefix that grows lets go of the one it grew from, so no chain of
    old tables or prefixes stays."""
    base = build_table(3 * CHECKPOINT_SPAN + 5)
    table_ref = weakref.ref(base)
    base.primes_array(base.limit)
    primes_ref = weakref.ref(base._primes)
    grown = build_table(10 * CHECKPOINT_SPAN, base)
    del base
    gc.collect()
    assert table_ref() is None
    assert primes_ref() is not None          # the start of grown's prefix
    grown.nth_prime(grown.prime_count)
    gc.collect()
    assert primes_ref() is None

    fresh = build_table(10 * CHECKPOINT_SPAN)
    fresh.nth_prime(2)
    primes_ref = weakref.ref(fresh._primes)
    fresh.primes_array(fresh.limit)
    gc.collect()
    assert primes_ref() is None

    chain = TableCache()
    refs = []
    for limit in (1 << 20, 1 << 22, 1 << 24):
        t = chain.get(limit)
        t.primes_array(t.limit)
        refs.append(weakref.ref(t))
    del t
    gc.collect()
    assert [r() is None for r in refs] == [True, True, False]
    assert refs[-1]() is chain.current()


def test_build_table_rejects_bad_limit():
    with pytest.raises(ValueError):
        build_table(1)


# -- the arithmetic inequalities the later sections lean on ----------------

def test_pi_superadditive_on_products(cache):
    """pi(m) + pi(n) <= pi(mn) for all 2 <= m, n <= 1000."""
    bound = 1000
    pic = cache.get(bound * bound).pi_cumulative(bound * bound + 1)
    mn = np.arange(2, bound + 1, dtype=np.int64)
    p = pic[mn]
    lhs = p[:, None] + p[None, :]
    rhs = pic[np.multiply.outer(mn, mn)]
    assert not np.any(lhs > rhs)


def test_pi_superadditive_half_product(cache):
    """pi(m) + pi(n) <= pi(mn/2) for m, n >= 4 with max(m, n) >= 6."""
    bound = 500
    pic = cache.get(bound * bound).pi_cumulative(bound * bound + 1)
    mn = np.arange(4, bound + 1, dtype=np.int64)
    p = pic[mn]
    lhs = p[:, None] + p[None, :]
    rhs = pic[np.multiply.outer(mn, mn) // 2]
    mask = np.maximum.outer(mn, mn) >= 6
    assert not np.any((lhs > rhs) & mask)


def test_pi_superadditive_third_product(cache):
    """pi(m) + pi(n) <= pi(mn/3) for m, n >= 5 with max(m, n) >= 18."""
    bound = 500
    pic = cache.get(bound * bound).pi_cumulative(bound * bound + 1)
    mn = np.arange(5, bound + 1, dtype=np.int64)
    p = pic[mn]
    lhs = p[:, None] + p[None, :]
    rhs = pic[np.multiply.outer(mn, mn) // 3]
    mask = np.maximum.outer(mn, mn) >= 18
    assert not np.any((lhs > rhs) & mask)
