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

import pytest

from ramanujan_primes import ramanujan
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
