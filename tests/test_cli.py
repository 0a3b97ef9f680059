"""End-to-end CLI behaviour through main(), plus one subprocess smoke.

Everything else calls main() in process so coverage and speed stay
reasonable; the exit-code contract (0 ok, 1 failed check, 2 usage,
3 resource budget) is pinned per subcommand.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

from ramanujan_primes import bounds
from ramanujan_primes import ramanujan as rp
from ramanujan_primes.cli import ENV_CAP, ENV_THREADS, main
from test_bounds import _valid_params
from test_ramanujan import _UndercountingCache


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute / pik
# ---------------------------------------------------------------------------

def test_compute_text(capsys):
    code, out, err = run(capsys, "compute", "--k", "2", "--n", "5")
    assert code == 0
    assert out.splitlines()[0] == "2 11 17 29 41"
    assert "cutoff" in err and "analytic" in err


def test_compute_json_round_trips(capsys):
    """The exact schema: key order, the P4 profile and the cutoff."""
    code, out, _ = run(capsys, "compute", "--k", "3/2", "--n", "10", "--json")
    assert code == 0
    assert out == ('{"k": "3/2", "values": [11, 29, 37, 47, 71, 73, 101, 127, '
                   '137, 173], "cutoff": 5394, "proof": "analytic-certificate",'
                   ' "profile": "P4"}\n')


@pytest.mark.parametrize("fmt, digest", [
    (["--json"], "89e7e39551da57e908591a19ef969b91"),
    ([], "59635124e3a0a5b51a37267356f444d8"),
])
def test_compute_output_is_frozen(capsys, fmt, digest):
    """R_1..R_100000 at k = 2 in JSON and in text, byte for byte."""
    code, out, _ = run(capsys, "compute", "--k", "2", "--n", "100000", *fmt)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_pik_text_shows_exact_rho(capsys):
    code, out, _ = run(capsys, "pik", "--k", "2", "--x", "41")
    assert code == 0
    assert "pi_k(41) = 5" in out
    assert "pi(41) = 13" in out
    assert "3/26" in out


def test_pik_json(capsys):
    code, out, _ = run(capsys, "pik", "--k", "2", "--x", "41", "--json")
    assert code == 0
    assert json.loads(out) == {"k": "2", "x": 41, "pi_k": 5, "pi": 13,
                               "rho": "3/26"}


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_pik_certifies_once(capsys, monkeypatch, fmt):
    """rho comes from the pi_k count already in hand, not a second pi_k."""
    calls = []

    original = bounds.certify_tail

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds, "certify_tail", counted)
    code, out, _ = run(capsys, "pik", "--k", "2", "--x", "41", *fmt)
    assert code == 0 and "3/26" in out
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# nk / n0k / const
# ---------------------------------------------------------------------------

def test_nk_small_k(capsys):
    code, out, _ = run(capsys, "nk", "--k", "2", "--probe", "30")
    assert code == 0
    assert "N(2) = 2 [empirical]" in out


def test_n0k_closed_form_json(capsys):
    code, out, _ = run(capsys, "n0k", "--k", "150", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "N_0"
    assert payload["value"] == payload["closed_form"] == 62
    assert payload["kind"] == "closed-form"
    assert payload["consistent"] is True


@pytest.mark.parametrize("argv, line", [
    (["nk", "--k", "746", "--json"],
     '{"k": "746", "name": "N", "value": 331, "kind": "closed-form", '
     '"probe": 664, "closed_form": 331, "consistent": true}'),
    (["n0k", "--k", "143.7", "--json"],
     '{"k": "1437/10", "name": "N_0", "value": 61, "kind": "closed-form", '
     '"probe": 122, "closed_form": 61, "consistent": true}'),
    (["nk", "--k", "2", "--json"],
     '{"k": "2", "name": "N", "value": 2, "kind": "empirical", '
     '"probe": 500, "closed_form": null, "consistent": null}'),
], ids=["nk-746", "n0k-143.7", "nk-2"])
def test_nk_json_output_is_frozen(capsys, argv, line):
    """The exact bytes, key order included, of one closed-form N, one
    closed-form N_0 at a non-integer k and one empirical N."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == line + "\n"


def test_nk_default_probe_closed_form(capsys):
    code, out, _ = run(capsys, "nk", "--k", "746")
    assert code == 0
    assert "N(746) = 331 [closed-form]" in out
    assert "agreement = yes" in out


def test_const_scalar(capsys):
    code, out, _ = run(capsys, "const", "--name", "c0", "--params", "s=0")
    assert code == 0
    assert out.strip() == "4"


def test_const_json(capsys):
    code, out, _ = run(capsys, "const", "--name", "X4", "--params", "k=746",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"name": "X4", "params": {"k": "746"}, "value": 2238.0}


def test_const_unknown_name_is_usage_error(capsys):
    code, _, err = run(capsys, "const", "--name", "X99")
    assert code == 2
    assert "usage error" in err


def test_const_malformed_params(capsys):
    code, _, err = run(capsys, "const", "--name", "c0", "--params", "s")
    assert code == 2
    assert "key=value" in err


def test_const_missing_param_names_the_key(capsys):
    code, _, err = run(capsys, "const", "--name", "X4")
    assert code == 2
    assert "needs --params k=..." in err
    assert "lambda" not in err


def test_const_wrong_param_names_the_key(capsys):
    code, _, err = run(capsys, "const", "--name", "X4", "--params", "q=3")
    assert code == 2
    assert "does not take parameter 'q'" in err


def test_const_checks_params_against_the_signature(capsys, monkeypatch):
    """pi is the table, not a parameter; a TypeError from inside the
    package is a bug, not a usage error."""
    code, _, err = run(capsys, "const", "--name", "X4", "--params", "pi=3")
    assert code == 2
    assert "does not take parameter 'pi'" in err
    code, _, err = run(capsys, "const", "--name", "X22", "--params", "k=2")
    assert code == 2
    assert ("needs --params eps1=..., eps2=..., eps3=..., delta1=..., "
            "delta2=...") in err

    def broken(*args, **kwargs):
        raise TypeError("internal")

    monkeypatch.setattr(bounds, "named_threshold", broken)
    with pytest.raises(TypeError, match="internal"):
        main(["const", "--name", "X4", "--params", "k=2"])


@pytest.mark.parametrize("name", bounds.threshold_names())
def test_const_json_gives_the_library_value_for_every_name(capsys, cache,
                                                          name):
    """One valid parameter set per name passes const's signature check and
    prints named_threshold's value."""
    pi, params = _valid_params(cache)
    text = ",".join(f"{key}={value}" for key, value in params[name].items())
    code, out, err = run(capsys, "const", "--name", name, "--params", text,
                         "--json")
    assert code == 0, err
    assert json.loads(out)["value"] == bounds.named_threshold(
        name, pi=pi, **params[name])


def test_const_builds_no_table_for_a_formula_without_pi(capsys,
                                                         monkeypatch):
    """X2 reads no prime count, so const sieves nothing for it; c0 reads
    pi(2) and builds the cache's least table."""
    build = rp.build_table
    built = []
    monkeypatch.setattr(rp, "build_table", lambda limit, base=None: (
        built.append(limit), build(limit, base))[1])
    code, out, _ = run(capsys, "const", "--name", "X2", "--params", "k=2")
    assert code == 0 and out.strip() == "940154"
    assert built == []
    code, out, _ = run(capsys, "const", "--name", "c0", "--params", "s=0")
    assert code == 0 and out.strip() == "4"
    assert built == [1 << 20]


@pytest.mark.parametrize("b1", ["0", "-1"])
def test_const_x23_refuses_b1_at_most_zero(capsys, b1):
    code, out, err = run(capsys, "const", "--name", "X23", "--params",
                         f"k=2,eps=0.5,b1={b1}")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")


def test_const_sieves_only_as_far_as_the_threshold_needs(capsys,
                                                          monkeypatch):
    """X19 at k = 1000 needs pi at about 1.2e8, not a table up to the cap.
    The cache grows while X19 runs, so one table is built and X16 is
    evaluated once (a retry loop once built 2 tables and evaluated X19,
    and so X16, twice)."""
    build, x16 = rp.build_table, bounds._x16
    built, x16_calls = [], []

    def bounded_build(limit, base=None):
        assert limit <= 1 << 28, f"sieved to {limit}"
        built.append(limit)
        return build(limit, base)

    def counted_x16(*args, **kwargs):
        x16_calls.append(kwargs)
        return x16(*args, **kwargs)

    monkeypatch.setattr(rp, "build_table", bounded_build)
    monkeypatch.setattr(bounds, "_x16", counted_x16)
    params = "k=1000,eps2=0.1,delta1=0.1,delta2=0.1"
    code, out, _ = run(capsys, "const", "--name", "X19", "--params", params)
    assert code == 0
    assert out.strip() == "6872333"
    assert len(built) == 1 and len(x16_calls) == 1
    code, _, err = run(capsys, "--cap", "1000000", "const", "--name", "X19",
                       "--params", params)
    assert code == 3
    assert "resource budget exceeded" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passing_campaign(capsys):
    code, out, _ = run(capsys, "verify", "--campaign", "prop310-table")
    assert code == 0
    assert "prop310-table: pass (3 cases" in out


def test_verify_failing_campaign_sets_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--campaign", "nicholson-bound",
                       "--limit", "100")
    assert code == 1
    assert "nicholson-bound: FAIL" in out
    assert "failure: n=33" in out


def test_verify_text_prints_the_expected_anomaly(capsys):
    code, out, _ = run(capsys, "verify", "--campaign", "sondow-gap",
                       "--limit", "100")
    assert code == 0
    assert "\n  expected: min gap over n >= 2 is 4, at n=2 and n=3\n" in out


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "--campaign", "sondow-gap",
                       "--limit", "10", "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 1
    assert reports[0]["id"] == "sondow-gap"
    assert reports[0]["status"] == "pass"


def test_verify_csv_output(capsys):
    code, out, _ = run(capsys, "verify", "--campaign", "prop310-table",
                       "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("id,status,")
    assert lines[1].startswith("prop310-table,pass,3,0,0,")


def test_verify_unknown_campaign(capsys):
    """The message is printed unquoted and lists the known ids."""
    code, _, err = run(capsys, "verify", "--campaign", "bogus")
    assert code == 2
    assert err.startswith("usage error: unknown campaign 'bogus'; known: ")
    assert "sondow-gap" in err and "gamma-difference" in err


# ---------------------------------------------------------------------------
# mps
# ---------------------------------------------------------------------------

def test_mps_single(capsys):
    code, out, _ = run(capsys, "mps", "--m", "168")
    assert code == 0
    assert "m=168: holds-certified (n0 = 7, R = 1013)" in out


def test_mps_text_names_the_counterexample(capsys, monkeypatch):
    """A failing verdict, forced as test_mps_scans_past_a_large_r forces
    one, prints its counterexample n and exits 1."""
    monkeypatch.setattr(rp, "_mps_r_values",
                        lambda ms, *args: np.full(ms.shape, 1000))
    table_cache = rp.TableCache
    monkeypatch.setattr(
        rp, "TableCache",
        lambda hard_cap: _UndercountingCache(table_cache(hard_cap=hard_cap)))
    code, out, _ = run(capsys, "mps", "--m", "50")
    assert code == 1
    assert out == "m=50: fails (n0 = 6, R = 1000, counterexample n = 10)\n"


def test_mps_range_json(capsys):
    code, out, _ = run(capsys, "mps", "--mmax", "3", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [row["m"] for row in rows] == [1, 2, 3]
    assert all(row["verdict"].startswith("holds") for row in rows)


def test_mps_single_json_is_frozen(capsys):
    """One row's exact bytes, key order included."""
    code, out, _ = run(capsys, "mps", "--m", "7", "--json")
    assert code == 0
    assert out == ('[{"m": 7, "verdict": "holds-certified", "n0": 4, '
                   '"r_value": 17, "counterexample": null}]\n')


def test_mps_json_output_is_frozen(capsys):
    """Every verdict and R_{m-1}^(m) for m <= 10^4, byte for byte."""
    code, out, _ = run(capsys, "mps", "--mmax", "10000", "--json")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() \
        == "bd969fb5638d3c042de7190958fde666"


def test_mps_json_to_10_5_is_frozen(capsys):
    """The same for m <= 10^5, where the certified cutoffs pass 10^6."""
    code, out, _ = run(capsys, "mps", "--mmax", "100000", "--json")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() \
        == "00d9f62be3b7aefbaaa2f3979624dee8"


def test_verify_all_output_is_frozen(capsys):
    """Every campaign report of verify --campaign all at seed 7, byte for
    byte but for the timings."""
    code, out, _ = run(capsys, "--threads", "1", "verify", "--campaign",
                       "all", "--json", "--seed", "7")
    assert code == 1                       # nicholson-bound fails, as ever
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if "elapsed_s" not in line)
    assert hashlib.md5(kept.encode()).hexdigest() \
        == "374f487a758e150729d62730a895c5e7"


def test_verify_all_output_without_cutoffs_is_frozen(capsys):
    """The same reports with every table_limit line dropped too: a digest
    no change of the certificate's cutoffs may move."""
    code, out, _ = run(capsys, "--threads", "1", "verify", "--campaign",
                       "all", "--json", "--seed", "7")
    assert code == 1
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if "elapsed_s" not in line and "table_limit" not in line)
    assert hashlib.md5(kept.encode()).hexdigest() \
        == "06d47fd22f0a00c688ab6008085d76da"


@pytest.mark.parametrize("argv", [
    ["compute", "--k", "2", "--n", "1000", "--json"],
    ["compute", "--k", "2", "--n", "1000"],
    ["verify", "--campaign", "sondow-gap", "--json"],
], ids=["compute-json", "compute-text", "verify-json"])
def test_stdout_redirected_to_a_stringio_gets_the_same_bytes(capsys, argv):
    """A caller may capture main() with contextlib.redirect_stdout into an
    io.StringIO, which has no .buffer (pytest's capture stream has one):
    the output must be the text main() prints anywhere else."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    want_code, want, _ = run(capsys, *argv)
    assert code == want_code == 0

    def timeless(text):
        return [line for line in text.splitlines(keepends=True)
                if "elapsed_s" not in line]

    assert timeless(buf.getvalue()) == timeless(want)


def test_mps_requires_exactly_one_selector(capsys):
    assert run(capsys, "mps", "--m", "2", "--mmax", "3")[0] == 2
    assert run(capsys, "mps")[0] == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--campaign", "sondow-gap", "--limit", "0"),
    ("verify", "--campaign", "mps-scan", "--mmax", "-3"),
    ("verify", "--campaign", "lemma34-sweep", "--limit", "-3"),
    ("verify", "--campaign", "rho-positivity", "--limit", "-3"),
    ("verify", "--campaign", "all", "--mmax", "0"),
    ("mps", "--mmax", "0"),
])
def test_sizes_below_one_are_usage_errors(capsys, argv):
    """A --limit or --mmax below 1 once ran the default size, a shrunken
    sweep or nothing at all, and exited 0."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: need ")


# ---------------------------------------------------------------------------
# exit codes, cap and env handling
# ---------------------------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert run(capsys)[0] == 2


def test_k_must_exceed_one(capsys):
    code, _, err = run(capsys, "compute", "--k", "1", "--n", "5")
    assert code == 2
    assert "must exceed 1" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--k", "1.0000001", "--n", "3"),
    ("pik", "--k", "1.0000001", "--x", "100"),
    ("nk", "--k", "1.0000001"),
    ("compute", "--k", "1.00001", "--n", "3"),
    ("pik", "--k", "1.00001", "--x", "100"),
    ("nk", "--k", "1.00001"),
])
def test_k_near_one_is_a_resource_exit(capsys, argv):
    """This close to 1 the certificate's start lies past the cap (x14
    overflows a float at 1 + 10^-7): exit 3 with the certificate's own
    message, not a traceback or a sieve limit beyond the cap."""
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("resource budget exceeded: certificate for k=")
    assert "Traceback" not in err
    assert max(map(int, re.findall(r"\d+", err))) <= 2 ** 31


@pytest.mark.parametrize("argv", [
    ("compute", "--k", "2999999999999999/999999999999999", "--n", "1000"),
    ("pik", "--k", "2999999999999999/999999999999999", "--x", "14000"),
])
def test_k_whose_scan_would_pass_int64_is_usage_error(capsys, argv):
    """den * cutoff >= 2^63 here (cutoff 14022): (c + 1) * den wrapped in
    the scan, which printed R_1000 = 7919 where k = 3 gives 13691, and
    pi_k(14000) = pi(14000) with a negative rho_k."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: k with denominator 999999999999999")
    assert "2^63" in err


@pytest.mark.parametrize("name, params, got", [
    ("X14", "k=1", "1.0"), ("r", "k=1", "1.0"), ("rtilde", "k=1", "1.0"),
    ("X2", "k=1", "1.0"), ("X13", "k=1/2", "0.5"),
    ("S", "k=1,eps1=0.5,eps2=0.5", "1.0"), ("X23", "k=1,eps=0.5", "1.0"),
])
def test_const_k_must_exceed_one(capsys, name, params, got):
    """k = 1 used to end in a ZeroDivisionError traceback, and X13 printed
    a number at k = 1/2; X2's message was already this one."""
    code, out, err = run(capsys, "const", "--name", name, "--params", params)
    assert code == 2
    assert out == ""
    assert err == f"usage error: need k > 1, got {got}\n"


_OVERFLOWS = {          # test id: the name and the params that overflow
    "X13": ("X13", "k=1.0000001"), "X14": ("X14", "k=1.0000001"),
    "X17": ("X17", "k=1.0000001"), "X27": ("X27", "k=1.0000001,eps=0.5"),
    "rtilde": ("rtilde", "k=101/100"), "X4": ("X4", "k=101/100"),
    "X2-P2": ("X2", "k=101/100,profile=P2"),
    "X5-P2": ("X5", "k=101/100,profile=P2"),
    "r": ("r", "k=1.0000001"), "X3": ("X3", "k=1.0000001"),
    "X2-P1": ("X2", "k=1.0000001"),
    "X5-P1": ("X5", "k=1.0000001,profile=P1"),
}


@pytest.mark.parametrize("name, params", list(_OVERFLOWS.values()),
                         ids=list(_OVERFLOWS))
def test_const_overflow_is_usage_error(capsys, name, params):
    """X13, X17 and X27 build on x14, the others on P1's r or P2's rtilde,
    which overflow math.exp near k = 1; the error names the constant
    asked for, where the others once ended in an OverflowError traceback
    with exit 1."""
    code, _, err = run(capsys, "const", "--name", name, "--params", params)
    assert code == 2
    assert err.startswith(f"usage error: {name}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("name, params", [
    ("X2", "k=1e400"),
    ("gamma", "k=2,eps1=1e400,eps2=0.5,eps3=0.5,delta1=0.5,delta2=0.5")])
def test_const_parameter_past_float_range_is_usage_error(capsys, name,
                                                         params):
    """A parameter no float holds is one usage line naming the constant
    and exit 2, not an OverflowError traceback and exit 1."""
    code, out, err = run(capsys, "const", "--name", name, "--params", params)
    assert code == 2
    assert out == ""
    assert re.fullmatch(rf"usage error: {name}: overflows a float \(.+\)\n",
                        err)


def test_cap_below_minimum_rejected(capsys):
    code, _, err = run(capsys, "--cap", "1000", "compute", "--k", "2",
                       "--n", "5")
    assert code == 2
    assert "at least 10^6" in err


@pytest.mark.parametrize("argv", [
    ("--cap", str(10 ** 20), "mps", "--m", "5"),
    ("--cap", str(10 ** 20), "verify", "--campaign", "mps-scan",
     "--mmax", "10"),
    ("--cap", str((1 << 62) + 1), "compute", "--k", "2", "--n", "5"),
])
def test_cap_above_maximum_rejected(capsys, argv):
    """Past 2^62, certify_tail's own default, int64 cutoffs could overflow:
    a usage error, not a traceback that exits 1 like a failed verdict."""
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error: sieve cap must be at most 2^62")


def test_env_cap_above_maximum_rejected(capsys, monkeypatch):
    monkeypatch.setenv(ENV_CAP, str(10 ** 20))
    code, _, err = run(capsys, "mps", "--m", "5")
    assert code == 2
    assert err.startswith("usage error: sieve cap must be at most 2^62")


def test_cap_at_maximum_accepted(capsys):
    code, out, _ = run(capsys, "--cap", str(1 << 62), "mps", "--m", "5")
    assert code == 0
    assert out.strip() == "m=5: holds-certified (n0 = 3, R = 11)"


def test_resource_exit_when_cap_too_small(capsys):
    code, _, err = run(capsys, "--cap", "1000000", "compute", "--k", "2",
                       "--n", "37097")
    assert code == 3
    assert "resource budget exceeded" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--k", "2", "--n", "37097"),
    ("pik", "--k", "2", "--x", "2000000"),
    ("nk", "--k", "2", "--probe", "100000"),
    ("n0k", "--k", "2", "--probe", "100000"),
    ("mps", "--m", "100000"),
    ("verify", "--campaign", "lemma34-sweep"),
    ("const", "--name", "X19", "--params",
     "k=1000,eps2=0.1,delta1=0.1,delta2=0.1"),
], ids=lambda argv: argv[0])
def test_refused_run_sieves_nothing(capsys, monkeypatch, argv):
    """Past the cap every command refuses where the cap is crossed: exit 3,
    one stderr line, and no table built on the way."""
    built = []
    monkeypatch.setattr(rp, "build_table",
                        lambda limit, base=None: built.append(limit))
    code, out, err = run(capsys, "--cap", "1000000", *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("resource budget exceeded: ")
    assert built == []


def test_resource_exit_when_out_of_memory(capsys, monkeypatch):
    """Within the cap but past this memory, a run ends in exit 3 and one
    stderr line naming the allocation, not a MemoryError traceback with
    exit 1, the code of a failed verdict.  A bare MemoryError reads as
    out of memory."""
    for message, line in (("Unable to allocate 31.2 GiB",
                           "Unable to allocate 31.2 GiB"),
                          ("", "out of memory")):
        def scan_out_of_memory(*args, message=message):
            raise MemoryError(message)

        monkeypatch.setattr(rp, "_scan", scan_out_of_memory)
        code, out, err = run(capsys, "compute", "--k", "2", "--n", "37097")
        assert code == 3
        assert out == ""
        assert err == f"resource budget exceeded: {line}\n"


def test_env_cap_applies_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv(ENV_CAP, "1000000")
    assert run(capsys, "compute", "--k", "2", "--n", "37097")[0] == 3
    code, out, _ = run(capsys, "--cap", "2000000", "compute", "--k", "2",
                       "--n", "37097")
    assert code == 0
    assert out.split()[-1] == "1003609"


def test_env_threads_used_by_verify(capsys, monkeypatch):
    monkeypatch.setenv(ENV_THREADS, "2")
    code, out, _ = run(capsys, "verify", "--campaign", "prop310-table")
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("env, argv", [
    ("1", ("--threads", "0", "compute", "--k", "2", "--n", "5")),
    ("0", ("compute", "--k", "2", "--n", "5")),
])
def test_zero_threads_is_usage_error(capsys, monkeypatch, env, argv):
    """A zero thread count, from the flag or the environment, exits 2
    before any command runs, with nothing on stdout."""
    monkeypatch.setenv(ENV_THREADS, env)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "usage error: thread count must be >= 1, got 0\n"


def test_bad_env_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(ENV_CAP, "plenty")
    assert run(capsys, "compute", "--k", "2", "--n", "5")[0] == 2


def test_module_entry_point():
    """python -m runs the package this suite imports, installed or not."""
    src = os.path.dirname(os.path.dirname(rp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ramanujan_primes", "compute", "--k", "2",
         "--n", "5"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2 11 17 29 41"


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------

def test_every_export_resolves():
    """Each name in the package's and each module's __all__ exists, so
    `from ramanujan_primes import *` keeps working after a removal."""
    import ramanujan_primes

    modules = [ramanujan_primes] + [
        importlib.import_module(f"ramanujan_primes.{info.name}")
        for info in pkgutil.iter_modules(ramanujan_primes.__path__)
        if info.name != "__main__"]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
