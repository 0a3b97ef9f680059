"""Campaign runners: reduced-size smoke runs, pinned anomaly sets,
report serialization, and determinism across seeds and thread counts.

Most campaigns are exercised at a small --limit here; the full-size runs
live in test_acceptance.  The nicholson-bound campaign genuinely fails
(its claimed n >= 33 threshold is too low) and the exact violating n are
pinned so a regression in either direction shows up.
"""

from __future__ import annotations

import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ramanujan_primes import bounds, ramanujan, verify
from ramanujan_primes import (CampaignReport, TableCache, campaign_ids,
                              reports_to_csv, reports_to_json, run_all,
                              run_campaign)

ALL_IDS = [
    "sondow-gap", "upper-48-19", "lemma34-sweep", "eq431-range",
    "prop310-table", "Nk-closed-form", "N0k-closed-form", "cor316-pattern",
    "rho-positivity", "rho-upper", "mps-scan", "section2-properties",
    "nicholson-bound", "gamma-difference",
]

NICHOLSON_SMALL = {33, 34, 43, 44, 45, 46, 68, 97, 98}
NICHOLSON_FULL = NICHOLSON_SMALL | {145, 166, 167, 168, 201}


def _failing_n(report: CampaignReport) -> set[int]:
    return {int(m.group(1)) for m in
            (re.match(r"n=(\d+)", f) for f in report.failures) if m}


def test_campaign_ids_are_stable():
    assert campaign_ids() == ALL_IDS


def test_unknown_campaign_rejected(cache):
    with pytest.raises(KeyError, match="unknown campaign"):
        run_campaign("sondow", cache)
    with pytest.raises(KeyError, match="unknown campaign"):
        run_all(["sondow-gap", "nope"], cache)


def test_reduced_run_of_every_campaign(cache):
    reports = run_all(cache=cache, limit=100, mmax=50, seed=11)
    assert [r.id for r in reports] == ALL_IDS
    by_id = {r.id: r for r in reports}
    for r in reports:
        assert r.cases > 0, r.id
        assert r.table_limit > 0 and r.elapsed >= 0.0
        if r.id != "nicholson-bound":
            assert r.passed, (r.id, r.failures[:3])
    assert _failing_n(by_id["nicholson-bound"]) == NICHOLSON_SMALL


def test_nicholson_full_violation_set(cache):
    report = run_campaign("nicholson-bound", cache)
    assert not report.passed
    assert len(report.failures) == 14
    assert _failing_n(report) == NICHOLSON_FULL


def test_sondow_records_the_minimal_gap_pair(cache):
    report = run_campaign("sondow-gap", cache, limit=10)
    assert report.passed and report.cases == 10
    assert report.exceptions == ["min gap over n >= 2 is 4, at n=2 and n=3"]
    # too short a run cannot see the gap-4 pair and must not claim it
    assert run_campaign("sondow-gap", cache, limit=2).exceptions == []


def test_upper_bound_campaign_isolates_n19(cache):
    report = run_campaign("upper-48-19", cache, limit=30)
    assert report.passed
    assert report.exceptions == ["n=19: R_19 = p_49 = 227 > p_48 = 223"]


def test_prop310_table_full(cache):
    report = run_campaign("prop310-table", cache)
    assert report.passed and report.cases == 3


def test_mps_scan_accounts_for_every_m(cache):
    report = run_campaign("mps-scan", cache, mmax=40)
    assert report.passed and report.cases == 40
    assert report.params["certified"] + report.params["scanned"] == 40


@pytest.mark.parametrize("limit", [None, 50, 2000])
def test_section2_properties_table_limit(limit):
    """On a fresh cache the campaign's prefixes need no more than the
    initial 2^20 sieve."""
    report = run_campaign("section2-properties", TableCache(), limit=limit)
    assert report.passed and report.table_limit == 1 << 20


def test_seed_controls_the_sampled_k(cache):
    r7a = run_campaign("Nk-closed-form", cache, seed=7)
    r7b = run_campaign("Nk-closed-form", cache, seed=7)
    r8 = run_campaign("Nk-closed-form", cache, seed=8)
    assert r7a.params == r7b.params
    assert r7a.failures == r7b.failures
    assert r7a.params["seed"] == 7
    assert r7a.params["closed_k"] != r8.params["closed_k"]


def _normalize(reports):
    """The report dicts without the fields that may vary by thread count."""
    out = []
    for r in reports:
        d = r.to_dict()
        d.pop("elapsed_s")
        d.pop("table_limit")
        out.append(d)
    return out


def test_run_all_preserves_order_and_threads_agree(cache):
    ids = ["prop310-table", "sondow-gap", "eq431-range"]
    serial = run_all(ids, cache, limit=10)
    assert [r.id for r in serial] == ids
    threaded = run_all(ids, cache, threads=3, limit=10)
    assert _normalize(serial) == _normalize(threaded)


def test_run_all_at_default_sizes_threads_agree():
    """At the default sizes, on fresh caches, four campaign threads grow
    one table and its primes prefix at once and give the serial
    reports."""
    serial = run_all(cache=TableCache(), seed=7)
    threaded = run_all(cache=TableCache(), threads=4, seed=7)
    assert _normalize(threaded) == _normalize(serial)


def test_run_all_holds_only_the_primes_it_reads():
    """All of verify at seed 7 on a fresh cache: tracemalloc's peak stays
    within 12 MiB (25.7 MiB while every prime of lemma34-sweep's 3.8e7
    table was cached), and the cached prefix ends below 2^21, the
    largest prime any campaign reads being about 1.05e6."""
    cache = TableCache()
    tracemalloc.start()
    try:
        reports = run_all(cache=cache, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.id for r in reports] == ALL_IDS
    assert cache.current().limit == 38168863
    assert cache.current()._primes[-1] < 1 << 21
    assert peak <= 12 << 20, peak


def test_report_dict_shape(cache):
    report = run_campaign("sondow-gap", cache, limit=5)
    d = report.to_dict()
    assert list(d) == ["id", "description", "status", "cases", "failures",
                       "exceptions", "elapsed_s", "table_limit", "params"]
    assert d["status"] == "pass"
    assert d["params"]["k"] == "2"         # Fraction rendered as a string


def test_json_and_csv_serialization(cache):
    reports = run_all(["prop310-table", "nicholson-bound"], cache, limit=100)
    parsed = json.loads(reports_to_json(reports))
    assert parsed == {"reports": [r.to_dict() for r in reports]}

    lines = reports_to_csv(reports).splitlines()
    assert lines[0] == ("id,status,cases,failure_count,exception_count,"
                        "elapsed_s,table_limit")
    assert len(lines) == 3
    assert lines[1].startswith("prop310-table,pass,3,0,0,")
    assert lines[2].startswith("nicholson-bound,fail,")


def test_csv_counts_every_failure_past_the_json_cap(monkeypatch, cache):
    """A campaign with 70 failures lists 50 of them and "... and 20 more"
    in its report, and counts all 70 in the CSV."""
    def runner(cache, limit, mmax, rng):
        return {}, 70, [f"case {i}" for i in range(70)], []

    monkeypatch.setitem(verify._CAMPAIGNS, "stub", ("70 failures", runner))
    report = run_campaign("stub", cache)
    failures = json.loads(reports_to_json([report]))["reports"][0]["failures"]
    assert failures == [f"case {i}" for i in range(50)] + ["... and 20 more"]
    row = reports_to_csv([report]).splitlines()[1].split(",")
    assert row[:5] == ["stub", "fail", "70", "70", "0"]


def test_h_is_nondecreasing_past_12_8():
    """The comparison function behind the lemma34 sweep never decreases."""
    def h(x):
        return x / (math.log(x) - 1.0 - 1.0 / math.log(x))

    x = 12.8
    while x < 10 ** 7:
        assert h(x * 1.001) >= h(x), x
        x *= 1.01


# the campaigns that walk their ranges in blocks of ramanujan._BLOCK, each
# with two --limit values that are no multiple of a block
STREAMED = {
    "lemma34-sweep": (600011, 1000003),
    "eq431-range": (20001, 90001),
    "rho-positivity": (5003, 60001),
    "rho-upper": (25013, 60001),
    "section2-properties": (150, 777),
}


def _report_without_time(cid, limit):
    d = run_campaign(cid, TableCache(), limit=limit).to_dict()
    d.pop("elapsed_s")
    return d


@pytest.mark.parametrize("block", [7, 4096])
@pytest.mark.parametrize("cid", list(STREAMED))
def test_block_edges_leave_campaign_reports_unchanged(monkeypatch, cid,
                                                      block):
    """Blocks of 7 and 4096 values give the default block's report, cases
    counted block by block included, on limits that split a block."""
    want = [_report_without_time(cid, limit) for limit in STREAMED[cid]]
    monkeypatch.setattr(ramanujan, "_BLOCK", block)
    got = [_report_without_time(cid, limit) for limit in STREAMED[cid]]
    assert got == want


def test_streamed_campaigns_stay_within_8_mib():
    """On a table already grown to lemma34-sweep's limit, with its primes
    array read, no streamed campaign at its default size allocates more
    than 8 MiB at once: no array grows with the range it covers."""
    cache = TableCache()
    cache.get(38168863).primes_array(38168863)
    peaks = {}
    for cid in STREAMED:
        tracemalloc.start()
        try:
            assert run_campaign(cid, cache).passed, cid
            peaks[cid] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert cache.current().limit == 38168863
    assert all(peak <= 8 << 20 for peak in peaks.values()), peaks


# The per-element loops the screened campaigns ran before their screens,
# kept as brute-force oracles: each returns the campaign's cases and
# failures, every element checked, from its --limit and (rho-upper) the
# thresholds in its report's params.

def _lemma34_fails(pi, q):
    """pi(p_j) < h(p_{j+1}) + 1 at each prime q = p_{j+1}."""
    f = q.astype(np.float64)
    lp = np.log(f)
    return pi.pi_array(q) - 1 < f / ((lp - 1.0) - 1.0 / lp) + 1.0


def _lemma34_oracle(cache, limit, params):
    x_max = max(limit or 38168363, 470077)
    pi = cache.get(x_max + 500)
    q = pi.primes_between(470078, x_max + 501)
    q = q[:pi.pi(x_max) + 1 - pi.pi(470077)]
    return len(q), [f"i={pi.pi(int(v)) - 1}: pi(p_i) < h(p_i+1) + 1"
                    for v in q[_lemma34_fails(pi, q)]]


def _eq431_fails(pi, m):
    """pi(x) <= x/(log x - 1) + 1 somewhere on [m, m + 1)."""
    sup = (m + 1).astype(np.float64)
    return pi.pi_array(m) < sup / (np.log(sup) - 1.0) + 1.0


def _eq431_oracle(cache, limit, params):
    x_max = max(limit or 470077, 7478)
    pi = cache.get(x_max + 1)
    m = np.arange(7477, x_max + 1)
    return len(m), [f"x={v}: pi(x) <= x/(log x - 1) + 1 fails on [x, x+1)"
                    for v in m[_eq431_fails(pi, m)]]


def _rho_positivity_fails(pi, sufmin, x):
    """rho_2(x) <= 0, that is pi(x) - 2 pi_2(x) < 1."""
    pix = pi.pi_array(x)
    return pix - 2 * sufmin[pix] < 1


def _rho_positivity_oracle(cache, limit, params):
    x_max = max(limit or 10 ** 6, 100)
    pi, sufmin = ramanujan._pi_k_array(Fraction(2), x_max, cache)
    x = np.arange(11, x_max + 1)                 # from R_N(2) = 11
    # and the two checks of N(2) and R_N(2)
    return 2 + len(x), [f"x={v}: rho_2(x) <= 0"
                        for v in x[_rho_positivity_fails(pi, sufmin, x)]]


def _rho_upper_oracle(cache, limit, params):
    x_max = max(limit or 10 ** 6, 20000)
    pi, sufmin = ramanujan._pi_k_array(Fraction(2), x_max, cache)
    nn = np.arange(math.ceil(params["X26"]), pi.pi(x_max) + 1)
    lhs = 0.5 - sufmin[nn] / nn
    rhs = params["c1"] / np.log(pi.nth_prime(nn).astype(np.float64))
    xs = np.arange(params["n3"], x_max + 1)
    pix = pi.pi_array(xs)
    lhs2 = 0.5 - sufmin[pix] / pix
    rhs2 = params["c2"] / np.log(xs.astype(np.float64))
    return len(nn) + len(xs), (
        [f"n={v}: rho_2(p_n) > c1/log p_n" for v in nn[lhs > rhs]]
        + [f"x={v}: rho_2(x) > c2/log x" for v in xs[lhs2 > rhs2]])


def _pi_sum_grids_oracle(cache):
    bound = 1000
    pi = cache.get(bound * bound)
    mn = np.arange(1, bound + 1)
    psmall = pi.pi_array(mn)
    bad, bad4, cases = [], [], 0
    for a in range(0, bound, 100):
        lhs = psmall[a:a + 100, None] + psmall[None, :]
        rhs = pi.pi_array(np.multiply.outer(mn[a:a + 100], mn))
        bad += (np.flatnonzero(lhs > rhs) + a * bound).tolist()
        cases += lhs.size
    mn4, p4 = mn[3:], psmall[3:]
    for a in range(0, len(mn4), 100):
        lhs4 = p4[a:a + 100, None] + p4[None, :]
        rhs4 = pi.pi_array(np.multiply.outer(mn4[a:a + 100], mn4) // 2)
        mask = np.maximum.outer(mn4[a:a + 100], mn4) >= 6
        cases += int(mask.sum())
        bad4 += (np.flatnonzero((lhs4 > rhs4) & mask)
                 + a * len(mn4)).tolist()
    return cases, (
        [f"m={f // bound + 1}, n={f % bound + 1}: pi(m)+pi(n) > pi(mn)"
         for f in bad[:20]]
        + [f"m={f // len(mn4) + 4}, n={f % len(mn4) + 4}: "
           "pi(m)+pi(n) > pi(mn/2)" for f in bad4[:20]])


def _capped(failures):
    """A failure list as a report keeps it."""
    if len(failures) > 50:
        return failures[:50] + [f"... and {len(failures) - 50} more"]
    return failures


_ORACLES = {"lemma34-sweep": _lemma34_oracle, "eq431-range": _eq431_oracle,
            "rho-positivity": _rho_positivity_oracle,
            "rho-upper": _rho_upper_oracle}


@pytest.mark.parametrize("cid, limit", [
    *((cid, limit) for cid in _ORACLES for limit in STREAMED[cid]),
    # limits that end inside a table word or a prime gap
    ("lemma34-sweep", 470078), ("lemma34-sweep", 470200),
    ("eq431-range", 7478)])
def test_screened_campaign_matches_its_brute_force_oracle(cache, cid,
                                                          limit):
    """The screened campaign's cases and failures are those of checking
    every element."""
    report = run_campaign(cid, cache, limit=limit)
    cases, failures = _ORACLES[cid](cache, limit, report.params)
    assert report.cases == cases
    assert report.failures == _capped(failures)


def test_pi_sum_grids_match_their_brute_force_oracle(cache):
    """section2-properties' two pi(m) + pi(n) grids, screened per run of
    n, against every pair."""
    assert verify._pi_sum_grids(cache) == _pi_sum_grids_oracle(cache)


def _steps(x, v0, steps):
    """The nondecreasing step function with value v0 below the first step
    and value v from each step (at, v) on."""
    return np.select([x >= at for at, v in reversed(steps)],
                     [v for at, v in reversed(steps)], default=v0)


@pytest.mark.parametrize("block", [7, 4096, 1 << 16])
def test_word_screen_finds_failures_inside_and_at_the_end_of_a_gap(
        monkeypatch, cache, block):
    """An x fails where pi(x) < g(x), with g stepping up inside the gap
    [1129, 1151) and at the last x of the gap [1201, 1213): the screen on
    pi(x) >= least and each word's end leaves exactly those failures to
    the element check, whatever the block edges."""
    monkeypatch.setattr(ramanujan, "_BLOCK", block)
    pi = cache.get(10 ** 4)
    g = {"v0": 0.0, "steps": [(1140, pi.pi(1140) + 0.5),
                              (1212, pi.pi(1212) + 0.5)]}
    x = np.arange(1000, 3000)
    brute = x[pi.pi_array(x) < _steps(x, **g)].tolist()
    assert brute == [*range(1140, 1151), 1212]
    runs = list(verify._word_screen(
        pi, 1000, 3000,
        lambda least, most, ends: least >= _steps(ends, **g)))
    found = [int(v) for a, b in runs for v in range(a, b)
             if pi.pi(v) < _steps(np.array(v), **g)]
    assert found == brute
    if block == 1 << 16:
        assert runs == [(1024, 1280)]
    # a NaN cannot clear a piece: every piece goes to the element check
    nan = list(verify._word_screen(
        pi, 1000, 3000, lambda least, most, ends: least >= np.nan))
    assert [v for a, b in nan for v in range(a, b)] == list(range(1000, 3000))


@pytest.mark.parametrize("block", [7, 4096, 1 << 16])
def test_word_screen_finds_failures_inside_and_at_the_end_of_a_word(
        monkeypatch, cache, block):
    """A prime q fails where pi(q) - 1 < g(q), with g stepping up at
    1279, the last integer of table word 9, and at 1451, inside word 11:
    the screen on pi(128w - 1) and each word's end leaves exactly those
    failures to the element check."""
    monkeypatch.setattr(ramanujan, "_BLOCK", block)
    pi = cache.get(10 ** 4)
    g = {"v0": -1.0, "steps": [(1279, pi.pi(1279) - 0.5),
                               (1451, pi.pi(1451) - 0.5)]}
    q = pi.primes_between(1000, 3000)
    brute = q[pi.pi_array(q) - 1 < _steps(q, **g)].tolist()
    assert brute == [1279, 1451]
    runs = list(verify._word_screen(
        pi, 1000, 3000,
        lambda least, most, ends: least >= _steps(ends, **g)))
    found = [int(v) for a, b in runs for v in pi.primes_between(a, b)
             if pi.pi(int(v)) - 1 < _steps(v, **g)]
    assert found == brute
    if block == 1 << 16:
        assert runs == [(1152, 1280), (1408, 1536)]
    nan = list(verify._word_screen(
        pi, 1000, 3000, lambda least, most, ends: least >= np.nan))
    assert [v for a, b in nan for v in range(a, b)] == list(range(1000, 3000))


@pytest.mark.parametrize("block", [7, 1 << 16])
@pytest.mark.parametrize("div", [1, 2])
def test_grid_screen_finds_failures_inside_and_at_the_end_of_a_run(
        monkeypatch, cache, div, block):
    """pvals raised at j = 49, the last j of the run [25, 50), and on
    [60, 75), from inside the run [50, 75): the screened grid gives every
    failing pair of the brute-force grid, these included."""
    monkeypatch.setattr(ramanujan, "_BLOCK", block)
    pi = cache.get(10 ** 5)
    vals = np.arange(1, 201)
    pvals = pi.pi_array(vals)
    pvals[49] += 3
    pvals[60:75] += 2
    lhs = pvals[:, None] + pvals[None, :]
    brute = np.flatnonzero(
        lhs > pi.pi_array(np.multiply.outer(vals, vals) // div)).tolist()
    assert {49, 60} <= {flat % 200 for flat in brute}
    assert verify._grid_failures(pi, vals, pvals, div) == brute


def _spy_on(monkeypatch):
    """The clears functions that the campaigns pass to verify's screen."""
    seen, real = [], verify._word_screen

    def spy(pi, lo, hi, clears):
        seen.append(clears)
        return real(pi, lo, hi, clears)

    monkeypatch.setattr(verify, "_word_screen", spy)
    return seen, real


# each range reaches past the first table word that clears its campaign;
# no word below 7477 clears eq431-range
@pytest.mark.parametrize("cid, lo, hi", [("eq431-range", 3000, 20000),
                                         ("rho-positivity", 2, 1000),
                                         ("lemma34-sweep", 300000, 470078)])
def test_campaign_screens_clear_no_failure_below_their_range(
        monkeypatch, cache, cid, lo, hi):
    """Below each campaign's range its inequality fails, often and not
    at every element: the campaign's own screen, run on a range that
    reaches there, must leave every failure of the element check to that
    check."""
    seen, screen = _spy_on(monkeypatch)
    run_campaign(cid, cache, limit=hi)   # its clears then covers [lo, hi)
    pi, sufmin = ramanujan._pi_k_array(Fraction(2), 10 ** 6, cache)
    if cid == "lemma34-sweep":
        elements = pi.primes_between(lo, hi)
        fails = _lemma34_fails(pi, elements)
    else:
        elements = np.arange(lo, hi)
        fails = (_eq431_fails(pi, elements) if cid == "eq431-range"
                 else _rho_positivity_fails(pi, sufmin, elements))
    brute = elements[fails].tolist()
    assert 0 < len(brute) < len(elements) / 2
    runs = list(screen(pi, lo, hi, seen[0]))
    assert [v for v in brute if any(a <= v < b for a, b in runs)] == brute
    assert sum(b - a for a, b in runs) < hi - lo


def test_rho_positivity_screen_counts_the_margin_it_can_lose(monkeypatch,
                                                             cache):
    """On a table word, where least <= pi(x) <= most, the margin
    pi(x) - 2 pi_2(x) can fall by one per prime past least: with an S
    whose margin is 1 at j = 3 and falls by one from there on, the
    campaign's screen must not clear least = 3, most = 10, where every
    x but those at pi(x) = 3 fails."""
    stepped = np.maximum(np.arange(1000) - 2, 0)     # margin 1 at j = 3
    assert (np.arange(3, 11) - 2 * stepped[3:11]).tolist() == \
        list(range(1, -7, -1))
    monkeypatch.setattr(ramanujan, "_pi_k_array",
                        lambda k, x, cache: (cache.get(x), stepped))
    seen, _ = _spy_on(monkeypatch)
    run_campaign("rho-positivity", cache, limit=100)
    assert not seen[0](np.array([3]), np.array([10]), np.array([128]))[0]


def test_rho_upper_fails_where_rho_2_at_most_half_cannot_settle_c1(
        monkeypatch, cache):
    """rho_2 <= 1/2 proves rho_2(p_n) <= c1/log p_n only up to e^(2 c1):
    with c1 = 5 that holds at x_max = 22026 < e^10 and not at 22027 or at
    the default 10^6, where the campaign reports the one failure naming
    x_max, with the cases it counts at the real c1."""
    want = {lim: run_campaign("rho-upper", cache, limit=lim)
            for lim in (22026, 22027, None)}
    assert all(r.passed for r in want.values())
    real = bounds.named_threshold

    def c1_is_5(name, pi=None, **params):
        return 5.0 if name == "c1" else real(name, pi, **params)

    monkeypatch.setattr(bounds, "named_threshold", c1_is_5)
    for lim, before in want.items():
        report = run_campaign("rho-upper", cache, limit=lim)
        x_max = before.params["x_max"]
        assert report.params == dict(before.params, c1=5.0)
        assert report.cases == before.cases
        assert report.failures == ([] if lim == 22026 else [
            f"x_max={x_max}: log x_max >= 2 c1, so rho_2 <= 1/2 does not "
            "settle rho_2(p_n) <= c1/log p_n"])


def test_rho_upper_runs_no_scan(monkeypatch, cache):
    """rho-upper settles both its bounds from rho_2 <= 1/2: it neither
    computes pi_2 nor screens a range."""
    def refuse(name):
        def stub(*args, **kwargs):
            raise AssertionError(f"rho-upper called {name}")
        return stub

    monkeypatch.setattr(ramanujan, "_pi_k_array", refuse("_pi_k_array"))
    monkeypatch.setattr(verify, "_word_screen", refuse("_word_screen"))
    monkeypatch.setattr(verify, "_blocks", refuse("_blocks"))
    for limit in (None, 60001):
        assert run_campaign("rho-upper", cache, limit=limit).passed
