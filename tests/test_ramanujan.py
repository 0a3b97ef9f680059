"""The scan engine against an event-driven reference implementation.

The reference below shares no code with the engine: it never forms the
f* array, instead walking the event set {p*den} U {q*num} (scaled so
every x where either count can jump is an exact integer) with bisect
over a plain list.  Expected prefixes frozen into the tests came out of
this reference.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramanujan_primes import primes as primes_module
from ramanujan_primes import ramanujan
from ramanujan_primes import (MpsVerdict, NEstimate, RamanujanTable,
                              RangeQueryError, ResourceBudgetError,
                              TableCache, empirical_N, empirical_N0,
                              mps_holds, pi_k, ramanujan_prefix, rho_k)
from ramanujan_primes.bounds import certify_tail
from ramanujan_primes.primes import PrimeTable, build_table
from ramanujan_primes.ramanujan import (PROOF_ANALYTIC, _format_ints,
                                       _stretch_min)


def naive_table(k: Fraction, n_max: int, primes, bound: int) -> list[int]:
    """R_1..R_{n_max} by brute enumeration of count-change events."""
    num, den = k.numerator, k.denominator
    events = {den}                    # x = 1, before any prime
    for p in primes:
        events.add(p * den)           # pi jumps at x = p
        if p * num <= bound * den:
            events.add(p * num)       # pi(x/k) jumps at x = k*p
    events = sorted(events)
    g = [bisect_right(primes, e // den) - bisect_right(primes, e // num)
         for e in events]
    sufmin = g[:]
    for i in range(len(g) - 2, -1, -1):
        sufmin[i] = min(sufmin[i], sufmin[i + 1])
    assert sufmin[-1] > n_max, "bound too small for requested n_max"
    out = []
    for n in range(1, n_max + 1):
        idx = bisect_left(sufmin, n)
        out.append(-((-events[idx]) // den))    # ceil
    return out


def pi_k_oracle(k: Fraction, x: int, cache) -> np.ndarray:
    """pi_k(y) for every integer 0 <= y <= x, sharing no code with the
    scan: the suffix minimum of f*(m) = pi(m) - pi(q(m)), read off
    pi_cumulative, over the m below the cutoff certified for f*(x) + 1.
    No m past it has an f* that low, and pi_k(y) <= f*(x) for y <= x."""
    num, den = k.numerator, k.denominator
    pi = cache.get(x)
    cutoff = certify_tail(k, pi.pi(x) - pi.pi(((x + 1) * den - 1) // num)
                          + 1)
    count = cache.get(cutoff).pi_cumulative(cutoff)
    fstar = np.arange(1, cutoff + 1) * den
    fstar -= 1
    fstar //= num                                   # q(m)
    fstar = count.take(fstar)
    np.subtract(count, fstar, out=fstar)
    del count
    np.minimum.accumulate(fstar[::-1], out=fstar[::-1])
    return fstar[:x + 1]


# frozen output of naive_table at bound 10^6
PREFIXES = {
    "4/3": [11, 31, 59, 71, 101, 151, 157, 163, 223, 227],
    "3/2": [11, 29, 37, 47, 71, 73, 101, 127, 137, 173],
    "5/3": [2, 13, 29, 41, 53, 59, 79, 89, 103, 127],
    "2": [2, 11, 17, 29, 41, 47, 59, 67, 71, 97],
    "3": [2, 3, 11, 17, 23, 29, 41, 43, 59, 61],
    "10": [2, 3, 5, 7, 11, 13, 17, 23],
}


# ---------------------------------------------------------------------------
# engine vs reference
# ---------------------------------------------------------------------------

def test_frozen_prefixes(cache):
    for ks, want in PREFIXES.items():
        got = ramanujan_prefix(ks, len(want), cache)
        assert got.values == want, ks
        assert got.proof == PROOF_ANALYTIC
        assert got.profile == "P4"
        assert got.cutoff > want[-1]


def test_matches_reference_to_n30(cache, oracle_primes):
    bound = 10 ** 5
    primes = oracle_primes[:bisect_right(oracle_primes, bound)]
    for ks in ("3/2", "2"):
        k = Fraction(ks)
        want = naive_table(k, 30, primes, bound)
        assert ramanujan_prefix(k, 30, cache).values == want, ks


@settings(max_examples=25, deadline=None)
@given(num=st.integers(2, 60), den=st.integers(1, 6), n_max=st.integers(1, 8))
def test_matches_reference_on_random_k(cache, oracle_primes, num, den, n_max):
    if num <= den:
        return              # den <= 6 keeps k >= 7/6, so R_8 sits far below bound
    k = Fraction(num, den)
    bound = 10 ** 4
    primes = oracle_primes[:bisect_right(oracle_primes, bound)]
    want = naive_table(k, n_max, primes, bound)
    assert ramanujan_prefix(k, n_max, cache).values == want


def test_landmark_values_k2(cache):
    table = ramanujan_prefix(2, 37097, cache)
    assert table.cutoff == 1018297
    pi = cache.get(table.cutoff)
    assert table.value(19) == 227 == pi.nth_prime(49)
    assert table.value(33) == 401
    assert table.value(37097) == 1003609


# ---------------------------------------------------------------------------
# result type
# ---------------------------------------------------------------------------

def test_value_is_one_indexed(cache):
    table = ramanujan_prefix("3/2", 10, cache)
    assert len(table) == 10
    assert table.value(1) == 11
    assert table.value(10) == 173
    with pytest.raises(IndexError):
        table.value(0)
    with pytest.raises(IndexError):
        table.value(11)


def test_json_round_trip(cache):
    table = ramanujan_prefix("5/3", 10, cache)
    raw = json.loads(table.to_json())
    assert raw["k"] == "5/3"
    assert raw["proof"] == PROOF_ANALYTIC


def test_table_keeps_an_int64_array(cache):
    """The array is the table; the list is built from it on first use."""
    table = ramanujan_prefix("3/2", 10, cache)
    assert table.array.dtype == np.int64
    assert not table.array.flags.writeable
    assert table.to_json() and len(table) == 10 and table.value(3) == 37
    assert table._values is None           # none of these built the list
    assert table.values == PREFIXES["3/2"]
    assert all(type(v) is int for v in table.values)
    assert table.values is table.values
    from_list = RamanujanTable(k=Fraction(3, 2), values=PREFIXES["3/2"],
                               cutoff=table.cutoff)
    assert (from_list.proof, from_list.profile) == (PROOF_ANALYTIC, "P4")
    assert from_list.array.dtype == np.int64
    assert from_list.to_json() == table.to_json()


@settings(max_examples=200, deadline=None)
@given(raw=st.lists(st.integers(0, 2 ** 63 - 1), max_size=60))
def test_format_ints_equals_json_dumps(raw):
    values = np.array(sorted(raw), dtype=np.int64)
    assert _format_ints(values, ", ", "[", "]") == json.dumps(values.tolist())
    assert _format_ints(values, " ") == " ".join(map(str, values.tolist()))


@pytest.mark.parametrize("raw", [
    [], [0], [7], [9, 10], [9999, 10000], [10 ** 8 - 1, 10 ** 8],
    [2 ** 63 - 1], [10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1],
    [0, 0, 9, 10, 99, 100, 9999, 10000, 10 ** 8 - 1, 10 ** 8, 2 ** 63 - 1],
])
def test_format_ints_at_width_edges(raw):
    values = np.array(raw, dtype=np.int64)
    assert _format_ints(values, ", ", "[", "]") == json.dumps(raw)
    assert _format_ints(values, " ", "<", ">") \
        == "<" + " ".join(map(str, raw)) + ">"


def test_format_ints_across_blocks(monkeypatch):
    """Runs longer than _BLOCK are written a job of _BLOCK values at a
    time."""
    monkeypatch.setattr(ramanujan, "_BLOCK", 7)
    values = np.unique(np.geomspace(1, 10 ** 12, 500).astype(np.int64))
    assert _format_ints(values, ", ", "[", "]") == json.dumps(values.tolist())


@pytest.mark.parametrize("block", [1, 7, 64])
def test_format_ints_on_the_pool(monkeypatch, block):
    """Jobs on the block pool, 4 or more of them even with one CPU, each
    writing its own part of the buffer: runs cut inside and at a job's
    end, one-value jobs, repeated values and every width up to 19."""
    monkeypatch.setattr(ramanujan, "_BLOCK", block)
    monkeypatch.setattr(primes_module, "_WORKERS", 2)
    rng = np.random.default_rng(block)
    raw = [0, 0, 9, 10] + [10 ** w + d for w in range(1, 19) for d in
                            (-1, 0, 1)] + [2 ** 63 - 1]
    raw += rng.integers(0, 10 ** 7, 3 * block + 1).tolist()
    values = np.array(sorted(raw), dtype=np.int64)
    assert _format_ints(values, ", ", "[", "]") == json.dumps(values.tolist())
    assert _format_ints(values, " ") == " ".join(map(str, values.tolist()))
    assert _format_ints(values[:4 * block], " ", "<", ">") \
        == "<" + " ".join(map(str, values[:4 * block].tolist())) + ">"


# ---------------------------------------------------------------------------
# prefix variants
# ---------------------------------------------------------------------------

def test_prefix_rejects_bad_n(cache):
    with pytest.raises(ValueError):
        ramanujan_prefix(2, 0, cache)


# ---------------------------------------------------------------------------
# cache behaviour and budget
# ---------------------------------------------------------------------------

def test_cache_grows_by_doubling():
    fresh = TableCache()
    assert fresh.current() is None
    t1 = fresh.get(10)
    assert t1.limit == 1 << 20 and fresh.current() is t1
    t2 = fresh.get(3 << 19)
    assert t2.limit == 1 << 21       # doubled, not just 1.5 * 2^20
    assert fresh.get(3) is t2        # no rebuild on shrink


def test_cache_enforces_hard_cap():
    small = TableCache(hard_cap=5000)
    with pytest.raises(ResourceBudgetError) as err:
        small.get(6000)
    assert err.value.required == 6000
    assert err.value.cap == 5000


def test_cache_queries_equal_a_fresh_table():
    """TableCache.pi and nth_prime (int and array) answer as a table
    sieved to past every query does, growing the cache as they go."""
    fresh = build_table(3 * 10 ** 6)
    cache = TableCache()
    for x in (0, 1, 2, 100, 10 ** 6, (1 << 20) + 1, 2 * 10 ** 6 + 1):
        assert cache.pi(x) == fresh.pi(x)
    assert cache.current().limit == 1 << 21
    cache = TableCache()
    for n in (1, 5, 6, 1000, 82025, 200_000):
        assert cache.nth_prime(n) == fresh.nth_prime(n)
    idx = np.array([1, 2, 6, 82025, 82026, 200_000], dtype=np.int64)
    assert np.array_equal(TableCache().nth_prime(idx), fresh.nth_prime(idx))
    assert TableCache().nth_prime(idx[:0]).size == 0


@pytest.mark.parametrize("n, limit", [
    (1, 16), (5, 16), (6, 33), (7, 37), (100, 751), (1000, 10624),
    (37098, 573167), (74194, 1213679),
])
def test_cache_nth_prime_requests_the_rosser_limit(monkeypatch, n, limit):
    """p_n < n(log n + log log n) for n >= 6 (Rosser), with a fifth and
    16 to spare, and 16 below n = 6: the limits the verify campaigns
    asked for when each sized its own table, pinned from that code.  A
    cache asks for that limit only when the table it holds lacks p_n:
    an empty cache asks once, and a 2^20 table, which holds p_82025,
    answers every n here without asking, 74194 (p = 940087) among them."""
    cache, held = TableCache(), TableCache()
    held.get(1 << 20)
    asked = []
    for c in (cache, held):
        get = c.get
        monkeypatch.setattr(c, "get",
                            lambda limit, get=get: asked.append(limit)
                            or get(limit))
    want = build_table(limit).nth_prime(n)
    for c in (cache, held):
        assert c.nth_prime(n) == want
        assert c.nth_prime(np.array([1, n], dtype=np.int64))[1] == want
    assert asked == [limit]
    assert cache.current().limit == max(limit, 1 << 20)
    assert held.current().limit == 1 << 20


def test_cache_nth_prime_past_the_held_table_grows_it(monkeypatch):
    """p_82026 = 1048583 lies past a 2^20 table: the cache asks for its
    Rosser limit, 1352549, and doubles to 2^21."""
    cache = TableCache()
    cache.get(1 << 20)
    asked = []
    get = cache.get
    monkeypatch.setattr(cache, "get",
                        lambda limit: asked.append(limit) or get(limit))
    assert cache.nth_prime(82026) == 1048583
    assert asked == [1352549]
    assert cache.current().limit == 1 << 21


def test_cache_nth_prime_of_no_index_unpacks_no_prime():
    """An empty index array sizes the first table but unpacks none of
    its primes."""
    cache = TableCache()
    got = cache.nth_prime(np.array([], dtype=np.int64))
    assert got.dtype == np.int64 and got.size == 0
    assert cache.current()._primes.tolist() == [2]


def test_cache_queries_past_the_cap_are_budget_errors():
    small = TableCache(hard_cap=100)
    assert small.pi(100) == 25
    # p_15 and p_20 come from the table of 100 held, although p_20's
    # Rosser limit, 114, passes the cap
    assert small.nth_prime(15) == 47
    assert small.nth_prime(20) == 71
    for query in (lambda: small.pi(101), lambda: small.nth_prime(26),
                  lambda: small.nth_prime(np.array([1, 26]))):
        with pytest.raises(ResourceBudgetError) as err:
            query()
        assert err.value.cap == 100
    assert small.current().limit == 100


def test_cache_refuses_queries_below_the_domain_unsieved():
    """pi(x < 0) and p_n for n < 1 are refused with RangeQueryError naming
    the argument, before any table is built."""
    fresh = TableCache()
    for query, message in (
            (lambda: fresh.pi(-5), "need x >= 0, got -5"),
            (lambda: fresh.nth_prime(0), "need n >= 1, got 0"),
            (lambda: fresh.nth_prime(-3), "need n >= 1, got -3"),
            (lambda: fresh.nth_prime(np.array([0, 5])), "need n >= 1, got 0"),
    ):
        with pytest.raises(RangeQueryError, match=f"^{message}$"):
            query()
    assert fresh.current() is None
    assert fresh.pi(0) == 0 and fresh.current().limit == 1 << 20


def test_budget_error_sieves_nothing():
    """A prefix whose certificate passes the cap is refused where the cap
    is crossed: the error carries the cap and what was required, and no
    table is built."""
    small = TableCache(hard_cap=200_000)
    with pytest.raises(ResourceBudgetError) as err:
        ramanujan_prefix(2, 10_000, small)
    assert err.value.cap == 200_000
    assert err.value.required > 200_000
    assert small.current() is None


def test_budget_error_without_certifiable_prefix():
    """A cap below every certificate still ends in ResourceBudgetError."""
    with pytest.raises(ResourceBudgetError) as err:
        ramanujan_prefix(2, 1, TableCache(hard_cap=2000))
    assert err.value.cap == 2000
    # the certificate's start point lies past the cap and does not clear n
    with pytest.raises(ResourceBudgetError) as err:
        certify_tail(2, 3000, hard_cap=2000)
    assert err.value.cap == 2000
    with pytest.raises(ResourceBudgetError) as err:
        ramanujan_prefix(2, 3000, TableCache(hard_cap=2000))
    assert err.value.cap == 2000


# ---------------------------------------------------------------------------
# pi_k and rho_k
# ---------------------------------------------------------------------------

def test_pi_k_pins(cache):
    for x, want in ((1, 0), (2, 1), (10, 1), (11, 2), (100, 10)):
        assert pi_k(2, x, cache) == want, x


def test_pi_k_inverts_the_table(cache):
    table = ramanujan_prefix("3/2", 10, cache)
    for n in (1, 4, 10):
        rv = table.value(n)
        assert pi_k("3/2", rv, cache) == n
        assert pi_k("3/2", rv - 1, cache) == n - 1


@settings(max_examples=40, deadline=None)
@given(num=st.integers(2, 60), den=st.integers(1, 6), i=st.integers(0, 300),
       off=st.sampled_from([-1, 0, 1]))
def test_pi_k_counts_reference_values(cache, oracle_primes, num, den, i, off):
    """pi_k(x) = #{n : R_n <= x} at x < 2 and at p - 1, p, p + 1."""
    assume(num > den)
    k = Fraction(num, den)
    x = oracle_primes[i - 1] + off if i else off + 1   # i = 0: x in {0, 1, 2}
    bound = 10 ** 5
    primes = oracle_primes[:bisect_right(oracle_primes, bound)]
    # R_n >= p_n, so R_{pi(x)+1} > x and no value <= x is cut off
    want = naive_table(k, bisect_right(primes, x) + 1, primes, bound)
    assert want[-1] > x
    assert pi_k(k, x, cache) == sum(v <= x for v in want)


@pytest.mark.parametrize("ks, x", [("1000", 10 ** 4), ("100", 14000),
                                   ("1000", 14000)])
def test_pi_k_on_an_empty_stretch_window(cache, oracle_primes, monkeypatch,
                                         ks, x):
    """An x on the last stretch below its cutoff has no G[t_x + 1], so
    pi_k(x) = f*(x), which is still #{n : R_n <= x}."""
    windows, stretch_min = [], ramanujan._stretch_min
    monkeypatch.setattr(ramanujan, "_stretch_min",
                        lambda *args: windows.append(stretch_min(*args))
                        or windows[-1])
    k = Fraction(ks)
    bound = 10 ** 5
    primes = oracle_primes[:bisect_right(oracle_primes, bound)]
    want = naive_table(k, bisect_right(primes, x) + 1, primes, bound)
    assert want[-1] > x
    assert pi_k(k, x, cache) == sum(v <= x for v in want)
    assert [len(w) for w in windows] == [0]


def test_rho_k_exact_values(cache):
    assert rho_k(2, 2, cache) == Fraction(-1, 2)
    assert rho_k(2, 41, cache) == Fraction(3, 26)
    assert rho_k(2, 100, cache) == Fraction(1, 10)
    with pytest.raises(ValueError):
        rho_k(2, 1, cache)


def test_pi_k_and_rho_k_take_a_numpy_integer(cache):
    for x in [2, 100, 1279, 20_000, 470_077]:
        for k in (2, Fraction(11, 10)):
            assert pi_k(k, np.int64(x), cache) == pi_k(k, x, cache)
        assert rho_k(2, np.int64(x), cache) == rho_k(2, x, cache)


# ---------------------------------------------------------------------------
# empirical N and N_0
# ---------------------------------------------------------------------------

def test_empirical_N_small_k(cache):
    est = empirical_N(2, 30, cache)
    assert isinstance(est, NEstimate)
    assert est.value == 2 and est.kind == "empirical"
    assert est.closed_form is None and est.consistent is None
    assert est.probe == 30
    assert empirical_N0(2, 30, cache).value == 2
    assert empirical_N("3/2", 60, cache).value == 1


def test_empirical_N_closed_form_region(cache):
    est = empirical_N("745.8", 40, cache)
    assert est.kind == "closed-form"
    est = empirical_N(746, 700, cache)
    assert est.kind == "closed-form"
    assert est.value == est.closed_form == 331    # pi(2238) - 1
    assert est.consistent is True


def test_empirical_N0_closed_form_region(cache):
    est = empirical_N0(150, 124, cache)
    assert est.kind == "closed-form"
    assert est.value == est.closed_form == 62     # pi(300)
    assert est.consistent is True


def test_empirical_rejects_bad_probe(cache):
    with pytest.raises(ValueError):
        empirical_N(2, 0, cache)


@pytest.mark.parametrize("k", [Fraction(11, 10), Fraction(3, 2), Fraction(2),
                               Fraction(19, 3), Fraction(746)])
def test_p_index_array_matches_scalar(k):
    """ceil(kn/(k-1)) over an int64 array, as _empirical and the campaigns
    use it, against the scalar form."""
    n = np.arange(1, 3001, dtype=np.int64)
    assert ramanujan._p_index(k, n).tolist() \
        == [ramanujan._p_index(k, int(v)) for v in n]


# ---------------------------------------------------------------------------
# the interval property
# ---------------------------------------------------------------------------

def test_mps_pins(cache):
    v = mps_holds(1, cache)
    assert (v.verdict, v.n0, v.r_value) == ("holds-certified", 2, None)
    v = mps_holds(2, cache)
    assert (v.verdict, v.n0, v.r_value) == ("holds-certified", 2, 2)
    v = mps_holds(3, cache)
    assert (v.verdict, v.n0, v.r_value) == ("holds-certified", 3, 3)
    v = mps_holds(168, cache)
    assert (v.verdict, v.n0, v.r_value) == ("holds-certified", 7, 1013)
    v = mps_holds(1000, cache)
    assert (v.verdict, v.n0, v.r_value) == ("holds-certified", 9, 7937)
    assert v.holds
    with pytest.raises(ValueError):
        mps_holds(0, cache)


def test_mps_reads_the_last_prefix_value(cache):
    """mps_holds's batched scan gives R_{m-1}^(m) of the full prefix."""
    ms = np.array([*range(2, 301), *range(301, 10001, 97), 9973, 10000],
                  dtype=np.int64)
    verdicts = mps_holds(ms, cache)
    assert [v.m for v in verdicts] == ms.tolist()
    for v in verdicts:
        assert v.r_value \
            == ramanujan_prefix(v.m, v.m - 1, cache).values[-1], v.m


def test_mps_array_edge_cases(cache):
    """An empty array, and m = 1 among others, give the scalar answers."""
    assert mps_holds(np.array([], dtype=np.int64), cache) == []
    ms = [1, 168, 1, 2, 168]
    assert mps_holds(np.array(ms, dtype=np.int64), cache) \
        == [mps_holds(m, cache) for m in ms]
    with pytest.raises(ValueError):
        mps_holds(np.array([3, 0, 5], dtype=np.int64), cache)
    with pytest.raises(ValueError):
        mps_holds(np.array([2.5]), cache)


def test_mps_stretches_equal_the_window_count(cache, monkeypatch):
    """R_{m-1}^(m) read off pi(m p_t) - t for many m at once equals the
    last value of the one-k scan at k = m, n = m - 1: every
    2 <= m <= 3000 and 200 seeded m up to 10^5, in chunks of 7 and 4096
    m that split them."""
    rng = np.random.default_rng(28)
    ms = np.concatenate([np.arange(2, 3001, dtype=np.int64),
                         rng.integers(3001, 10 ** 5 + 1, 200)])
    cutoffs = certify_tail(ms, ms - 1)
    pi = cache.get(int(cutoffs.max()))
    want = [int(ramanujan._scan(Fraction(m), m - 1, c, pi)[-1])
            for m, c in zip(ms.tolist(), cutoffs.tolist())]
    for block in (7, 4096):
        monkeypatch.setattr(ramanujan, "_BLOCK", block)
        got = ramanujan._mps_r_values(ms, cutoffs, pi)
        assert got.tolist() == want, block


def test_mps_r_values_refuse_a_broken_certificate(cache):
    """A cutoff at some m's R_{m-1}^(m) leaves f*(cutoff - 1) < m - 1
    unproven: _mps_r_values raises naming the first such m."""
    ms = np.arange(2, 200, dtype=np.int64)
    cutoffs = certify_tail(ms, ms - 1)
    pi = cache.get(int(cutoffs.max()))
    r = ramanujan._mps_r_values(ms, cutoffs, pi)
    for bad in ([0], [57], [57, 150], [len(ms) - 1]):
        cut = cutoffs.copy()
        cut[bad] = r[bad]
        with pytest.raises(AssertionError,
                           match=f"k={ms[bad[0]]} hit its own cutoff "
                                 f"{r[bad[0]]}; certificate broken"):
            ramanujan._mps_r_values(ms, cut, pi)


def test_mps_budget_error():
    with pytest.raises(ResourceBudgetError):
        mps_holds(np.arange(2, 10001, dtype=np.int64),
                  TableCache(hard_cap=10 ** 5))


class _UndercountingCache:
    """Tables that drop 100 primes from pi(x) for every x >= 500."""

    def __init__(self, cache):
        self._cache = cache
        self.hard_cap = cache.hard_cap

    def get(self, limit):
        table = self._cache.get(limit)
        return SimpleNamespace(
            pi=lambda x: table.pi(x) - (100 if x >= 500 else 0))


def test_mps_scans_past_a_large_r(cache, monkeypatch):
    """R above m * n0 sends mps_holds to its direct check of each n."""
    monkeypatch.setattr(ramanujan, "_mps_r_values",
                        lambda ms, *args: np.full(ms.shape, 1000))
    v = mps_holds(50, cache)
    assert (v.verdict, v.n0, v.r_value, v.counterexample) \
        == ("holds-scanned", 6, 1000, None)
    assert v.holds
    v = mps_holds(50, _UndercountingCache(cache))
    assert (v.verdict, v.r_value, v.counterexample) \
        == ("fails", 1000, (50, 10))
    assert not v.holds


def _primes_below(pi, x):
    return pi.primes_array(x - 1)


def _stretches_below(k, cutoff, primes):
    """T = #{p : floor(k p) < cutoff}, the last stretch below the cutoff,
    counted prime by prime in Python ints."""
    return sum(p * k.numerator // k.denominator < cutoff
               for p in primes.tolist())


def test_windowed_scan_matches_full_scan(cache):
    """A window's suffix minima equal the full G from first on, down to
    the one-stretch window at T and the empty window past it."""
    for ks, n_max in (("11/10", 2000), ("3/2", 3000), ("2", 5000),
                      ("7", 500)):
        k = Fraction(ks)
        num, den = k.numerator, k.denominator
        cutoff = certify_tail(k, n_max)
        pi = cache.get(cutoff)
        last = _stretches_below(k, cutoff, _primes_below(pi, cutoff))
        full = _stretch_min(num, den, cutoff, 0, pi)
        assert full.shape == (last + 1,)
        for first in (1, 2, last // 3, last - 1, last, last + 1):
            window = _stretch_min(num, den, cutoff, first, pi)
            assert np.array_equal(window, full[first:]), (ks, first)


STEP_GRID = (("101/100", 1000), ("11/10", 2000), ("3/2", 3000),
             ("2", 5000), ("10001", 9999))


@pytest.mark.parametrize("ks, n_max", STEP_GRID)
def test_suffix_min_steps_by_zero_or_one(cache, ks, n_max):
    """The suffix minimum of f* at the primes, S[j] = pi_k(p_j) (S[0] =
    pi_k(1) = 0), steps by 0 or 1 from S[0] = 0 to S[pi(R_n)] = n.  The
    suffix minimum over stretches, G, starts at 0 and never falls, but
    may step by more."""
    k = Fraction(ks)
    cutoff = certify_tail(k, n_max)
    pi = cache.get(cutoff)
    g = _stretch_min(k.numerator, k.denominator, cutoff, 0, pi)
    assert g[0] == 0 and np.diff(g).min(initial=0) >= 0
    r_n = int(ramanujan._scan(k, n_max, cutoff, pi)[-1])
    sufmin = pi_k_oracle(k, r_n, cache)[np.append(1, pi.primes_array(r_n))]
    assert len(sufmin) == pi.pi(r_n) + 1
    assert sufmin[0] == 0 and sufmin[-1] == n_max
    assert set(np.diff(sufmin).tolist()) == {0, 1}


@pytest.mark.parametrize("ks, n_max", STEP_GRID)
def test_step_emit_equals_searchsorted_emit(cache, ks, n_max):
    """R_n counted off G's steps by one bincount is p_{n+T(n)} for T(n)
    found by a search in G for each n: the last t with G[t] < n."""
    k = Fraction(ks)
    cutoff = certify_tail(k, n_max)
    pi = cache.get(cutoff)
    primes = _primes_below(pi, cutoff)
    g = _stretch_min(k.numerator, k.denominator, cutoff, 0, pi)
    for n in (1, n_max // 2 + 1, n_max):
        ns = np.arange(1, n + 1)
        t = np.searchsorted(g, ns, side="left") - 1
        got = ramanujan._scan(k, n, cutoff, pi)
        assert got.dtype == np.int64
        assert np.array_equal(got, primes[ns + t - 1]), (ks, n)


@pytest.mark.parametrize("block", [7, 64])
def test_pooled_emission_equals_whole_row_emission(cache, monkeypatch,
                                                    block):
    """R_n from G built block by block on the pool equals R_n from G
    built as one block: n whose last stretch T(n) opens a block, is its
    second or closes it, and n_max."""
    for ks, n_max in (("11/10", 300), ("2", 1000), ("10001", 400)):
        k = Fraction(ks)
        cutoff = certify_tail(k, n_max)
        pi = cache.get(cutoff)
        whole = ramanujan._scan(k, n_max, cutoff, pi)
        g = _stretch_min(k.numerator, k.denominator, cutoff, 0, pi)
        lasts = np.searchsorted(g, np.arange(1, n_max + 1)) - 1  # T(n)
        ns = {n_max}
        for r in {0, 1, block - 1}:
            ns.update(np.flatnonzero(lasts % block == r)[:2] + 1)
        with monkeypatch.context() as patch:
            patch.setattr(ramanujan, "_BLOCK", block)
            patch.setattr(primes_module, "_WORKERS", 2)
            for n in sorted(ns):
                assert np.array_equal(ramanujan._scan(k, n, cutoff, pi),
                                      whole[:n]), (ks, n)


@pytest.mark.parametrize("ks, n_max", [("2", 1), ("2", 1000),
                                       ("11/10", 300), ("10001", 400)])
def test_scan_refuses_a_cutoff_at_its_last_value(cache, ks, n_max):
    """A cutoff at R_n leaves f*(R_n - 1) < n unproven: the scan raises.
    One past it, the scan ends exactly at R_n."""
    k = Fraction(ks)
    want = ramanujan_prefix(k, n_max, cache).array
    r_n = int(want[-1])
    pi = cache.get(r_n + 1)
    with pytest.raises(AssertionError,
                       match=f"k={k} hit its own cutoff {r_n}; "
                             "certificate broken"):
        ramanujan._scan(k, n_max, r_n, pi)
    assert np.array_equal(ramanujan._scan(k, n_max, r_n + 1, pi), want)


def test_scan_at_the_int64_edge_equals_python_ints(cache):
    """A k whose den * cutoff lies just below 2^63 scans exactly: R_n
    against f* formed in Python ints at every m below the cutoff.  One
    more unit of den * cutoff is refused."""
    n_max, den = 1000, (2 ** 63 - 1) // 14022
    k = Fraction(3 * den - 1, den)
    cutoff = certify_tail(k, n_max)
    assert k.denominator * cutoff < 2 ** 63 <= (k.denominator + 1) * cutoff
    pic = cache.get(cutoff).pi_cumulative(cutoff).tolist()
    num = k.numerator
    fstar = [pic[m] - pic[((m + 1) * den - 1) // num] for m in range(cutoff)]
    tail = list(itertools.accumulate(reversed(fstar), min))[::-1]
    want = [bisect_left(tail, n) for n in range(1, n_max + 1)]  # R_n
    assert ramanujan_prefix(k, n_max, cache).values == want
    with pytest.raises(ValueError, match="would pass 2\\^63"):
        _stretch_min(num, den + 1, cutoff, 0, cache.get(cutoff))


def test_suffix_min_rows_equal_rows_alone(cache):
    """Each (k, cutoff, first) window of G, one per call, equals min f*
    on [s_t, cutoff) taken over every integer.

    Windows mix integer and Fraction k, with 0 to 393 stretches; two
    pairs of cutoffs put a stretch start at cutoff - 1 and at cutoff.
    """
    rows = [(Fraction(2), 5394, 0), (Fraction(2), 5394, 392),
            (Fraction(2), 5394, 393), (Fraction(3), 20000, 500),
            (Fraction(11, 10), 40000, 3700), (Fraction(7, 3), 6000, 300),
            (Fraction(100), 7919, 0),
            (Fraction(2), 5399, 380), (Fraction(2), 5398, 380),
            (Fraction(11, 10), 39989, 3700), (Fraction(11, 10), 39988, 3700)]
    pi = build_table(40000)
    primes = pi.primes_array(pi.limit)
    pic = pi.pi_cumulative(40000)
    widths = []
    for k, c, f in rows:
        got = _stretch_min(k.numerator, k.denominator, c, f, pi)
        assert np.array_equal(got, window_by_integers(k, c, f, pic, primes)), \
            (k, c, f)
        widths.append(len(got))
    assert (min(widths), max(widths)) == (0, 393)
    assert widths[7] == widths[8] + 1 and widths[9] == widths[10] + 1


def window_by_integers(k, cutoff, first, pic, primes):
    """G[first..T] as min f* on [s_t, cutoff) over every integer, with
    s_t = floor(k p_t) (s_0 = 0) checked to be where the count of primes
    below (m + 1)/k reaches t."""
    num, den = k.numerator, k.denominator
    m = np.arange(cutoff)
    below = pic[((m + 1) * den - 1) // num]           # primes < (m + 1)/k
    fstar = pic[m] - below
    tail_min = np.minimum.accumulate(fstar[::-1])[::-1]
    s = np.append(0, primes * num // den)
    s = s[:np.searchsorted(s, cutoff)]
    t = np.arange(len(s))
    assert np.array_equal(below[s], t) and np.array_equal(below[s[1:] - 1],
                                                          t[:-1])
    return tail_min[s[first:]]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_blocks_are_exact_across_edges(cache, monkeypatch, block):
    """Blocks of 1, 7 and 64 stretches give G exactly: whole scans,
    windows from t_x + 1, windows whose last stretch T opens or closes a
    block, one-stretch and empty windows, and the 128 scans of
    R_{m-1}^(m) for m = 2..129, 14 to 393 stretches long."""
    _check_blocks_across_edges(monkeypatch, block)


@pytest.mark.parametrize("block", [7, 64, 1024])
def test_rank_blocks_are_exact_across_edges(monkeypatch, block):
    """The same scans with pi(s_t) from PrimeTable.pi_array in every
    block."""
    calls = []
    pi_array = PrimeTable.pi_array

    def spy(self, x):
        calls.append(x.shape)
        return pi_array(self, x)

    monkeypatch.setattr(ramanujan, "_RANK_FROM", 0)
    monkeypatch.setattr(PrimeTable, "pi_array", spy)
    _check_blocks_across_edges(monkeypatch, block)
    assert len(calls) > 40000 // block // 8


def _check_blocks_across_edges(monkeypatch, block):
    pi = build_table(40000)
    primes = pi.primes_array(pi.limit)
    pic = pi.pi_cumulative(40000)
    monkeypatch.setattr(ramanujan, "_BLOCK", block)
    for k, cutoff in ((Fraction(2), 30011), (Fraction(11, 10), 40000)):
        full = window_by_integers(k, cutoff, 0, pic, primes)
        last = len(full) - 1                                # T
        t_x = int(pic[(10008 * k.denominator - 1) // k.numerator])
        for first in (0, t_x + 1, last - 3 * block, last - 3 * block + 1,
                      last, last + 1):
            if first >= 0:
                got = _stretch_min(k.numerator, k.denominator, cutoff,
                                   first, pi)
                assert np.array_equal(got, full[first:]), (k, first)

    ms = np.arange(2, 130, dtype=np.int64)
    cutoffs = certify_tail(ms, ms - 1)
    widths = []
    for m, c in zip(ms.tolist(), cutoffs.tolist()):
        got = _stretch_min(m, 1, c, 0, pi)
        want = window_by_integers(Fraction(m), c, 0, pic, primes)
        assert np.array_equal(got, want), (m, c)
        widths.append(len(got))
    assert (min(widths), max(widths)) == (14, 393)


def _pooled(monkeypatch, block):
    """Blocks of 64 stretches on the block pool, even with one CPU; block
    runs in place of _stretch_block."""
    monkeypatch.setattr(ramanujan, "_BLOCK", 64)
    monkeypatch.setattr(primes_module, "_WORKERS", 2)
    monkeypatch.setattr(ramanujan, "_stretch_block", block)


def test_pooled_blocks_agree_from_two_threads(cache, monkeypatch):
    """Two threads calling ramanujan_prefix at once, as verify --threads 2
    does, share the block pool and get the one-block scan's values, with
    the interpreter switching threads as often as it can.  Each k has 4
    or more blocks, so every block runs on the pool."""
    ks = ["11/10", "3/2", "2", "5", "7"]
    serial = [ramanujan_prefix(k, 3000, cache).values for k in ks]
    names, block = set(), ramanujan._stretch_block

    def spy(*args):
        names.add(threading.current_thread().name)
        block(*args)

    _pooled(monkeypatch, spy)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as callers:
            futures = [callers.submit(ramanujan_prefix, k, 3000, cache)
                       for k in ks]
            got = [f.result(timeout=60).values for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == serial
    assert {name.split("_")[0] for name in names} == {"primes-block"}


def test_pooled_block_errors_reach_the_caller(cache, monkeypatch):
    """A MemoryError in one pooled block reaches _stretch_min's caller
    once every other block has finished."""
    done, block = [], ramanujan._stretch_block

    def failing(lo, *args):
        if lo == 5 * 64:
            raise MemoryError
        block(lo, *args)
        done.append(lo)

    _pooled(monkeypatch, failing)
    pi = cache.get(40000)
    last = _stretches_below(Fraction(2), 40000, _primes_below(pi, 40000))
    with pytest.raises(MemoryError):
        _stretch_min(2, 1, 40000, 0, pi)
    assert len(done) == -(-(last + 1) // 64) - 1


def test_mps_against_direct_counts(cache, oracle_primes):
    """Verdicts for 2 <= m <= 40 rechecked by counting primes directly."""
    def cnt(x):
        return bisect_right(oracle_primes, x)

    for m in range(2, 41):
        v = mps_holds(m, cache)
        assert isinstance(v, MpsVerdict) and v.holds, m
        assert v.n0 == math.ceil(1.1 * math.log(2.5 * m))
        for n in range(v.n0, 60):
            assert cnt(m * n) - cnt(n) >= m - 1, (m, n)
