"""Estimate profiles, named constants and the tail certificate.

Scalar constants are pinned to values cross-derived with mpmath at 50
digits where a closed form exists; composite thresholds are pinned to
frozen integers and re-checked against the properties they are defined
by (the certificate really clears n + 1, the bisected thresholds really
flip the predicate they bound).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath.ctx_iv import MPIntervalContext

from ramanujan_primes import (P1, P2, P3, P4, BoundProfile,
                              RangeQueryError, ResourceBudgetError,
                              TableCache, ThresholdDomainError,
                              build_table, certify_tail, get_profile,
                              log_gap_holds, n_threshold, named_threshold,
                              pi_lower, pi_upper, threshold_names,
                              upsilon)
from ramanujan_primes.bounds import (_THRESHOLDS, _upsilon_slope_from_logs,
                                     inflate, r, rtilde, x14, z)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_builtin_profiles_registry():
    assert sorted(p.name for p in (P1, P2, P3, P4)) == ["P1", "P2", "P3", "P4"]
    assert get_profile("P2") is P2
    assert get_profile(P3) is P3
    with pytest.raises(ValueError):
        get_profile("P9")


def test_profile_validation_rejects_bad_constants():
    with pytest.raises(ValueError, match="B > A"):
        BoundProfile("bad", a=(2.0,), b=(1.0,), y_thresholds={0.0: 2.0},
                     x0=2.0, x1_closed=P4.x1_closed)
    with pytest.raises(ValueError, match="b_j"):
        BoundProfile("bad", a=(), b=(1.0, -1.0), y_thresholds={0.0: 2.0},
                     x0=2.0, x1_closed=P4.x1_closed)
    with pytest.raises(ValueError, match="thresholds"):
        BoundProfile("bad", a=(), b=(1.0,), y_thresholds={0.0: 1.0}, x0=2.0,
                     x1_closed=P4.x1_closed)


def test_y_threshold_lookup_uses_smallest_larger_offset():
    assert P4.y_threshold(0.0) == 5393.0
    assert P4.y_threshold(0.5) == 7477.0
    assert P4.y_threshold(1.0) == 7477.0
    with pytest.raises(ThresholdDomainError):
        P4.y_threshold(1.5)
    # P1 stores only the offset-1 bound; offset 0 falls back to it
    assert P1.y_threshold(0.0) == 470077.0


def test_pi_lower_stays_below_pi(cache):
    """Every stored lower offset really under-counts on random points."""
    top = 10 ** 6
    pi = cache.get(top)
    pic = pi.pi_cumulative(top + 1)
    rng = np.random.default_rng(99)
    for profile in (P1, P2, P3, P4):
        for s in sorted(profile.y_thresholds):
            lo = max(int(math.ceil(profile.y_threshold(s))), 3)
            xs = rng.integers(lo, top, size=1000)
            for x in xs:
                x = int(x)
                assert pi_lower(x, profile, s=s) < pic[x], (profile.name, s, x)


def test_pi_upper_stays_above_pi_where_sound(cache):
    """pi_upper brackets pi everywhere past each profile's floor.

    The b_1 = 1.17 estimate shared by P2/P3/P4 is only reliable below
    59753 (and again past 2.13e9, out of reach here); from 59753 on
    pi_upper falls back to P1's estimate, so the whole range is sampled.
    The failing region of the raw estimate is pinned separately below.
    """
    top = 10 ** 6
    pi = cache.get(top)
    pic = pi.pi_cumulative(top + 1)
    rng = np.random.default_rng(98)
    for x in rng.integers(10, top, size=1000):
        x = int(x)
        assert pic[x] < pi_upper(x, P1), x
    for profile in (P2, P3, P4):
        lo = int(math.ceil(profile.x0))
        for x in rng.integers(lo, top, size=1000):
            x = int(x)
            assert pic[x] < pi_upper(x, profile), (profile.name, x)


def test_b117_upper_estimate_fails_in_midrange(cache):
    """x/(log x - 1 - 1.17/log x) drops below pi(x) long before 10^6.

    The registered floor x0 = 5.43 is where the denominator turns
    positive, not where the estimate starts to hold: sieving shows
    23540 violating integers in [6, 10^6], the first at 59753 = p_6041,
    and chunked scans place the last violation at p_103947136 =
    2122756621.  pi_upper falls back to P1's estimate from 59753 on, but
    upsilon and certify_tail still consume the raw form and inherit the
    gap; the campaign scans cross-check the affected results against
    brute force instead.
    """
    top = 10 ** 6
    pi = cache.get(top)
    pic = pi.pi_cumulative(top + 1)
    x = np.arange(6, top + 1, dtype=np.float64)
    bound = x / (np.log(x) - 1.0 - 1.17 / np.log(x))
    bad = np.flatnonzero(pic[6:] >= bound)
    assert len(bad) == 23540
    assert int(bad[0]) + 6 == 59753
    assert pi.is_prime(59753) and pi.pi(59753) == 6041
    # a mid-range witness, well past the first crossing: the profiles
    # still carry the refuted form, and pi_upper no longer returns it
    for profile in (P2, P3, P4):
        estimate = 929872 / (math.log(929872) - 1.0 - profile.B(929872))
        assert estimate < pic[929872] == 73466
        assert pi_upper(929872, profile) > 73466


def test_b117_profiles_fall_back_to_p1_past_first_failure():
    """From 59753 on, pi_upper on P2/P3/P4 is max(own form, P1's bound):
    P1's below e^(3.83/0.17) ~ 6.09e9, the own form above; unchanged
    below 59753.  Only the published b_1 = 1.17 pair carries the switch."""
    def raw(x, profile):
        return x / (math.log(x) - 1.0 - profile.B(x))

    for profile in (P2, P3, P4):
        assert profile.upper_refuted_from == 59753
        for x in (6, 1000, 59752):
            assert pi_upper(x, profile) == raw(x, profile)
        for x in (59753, 929872, 10 ** 9, 6.0e9):
            assert pi_upper(x, profile) == pi_upper(x, P1) > raw(x, profile)
        for x in (6.2e9, 1e12):
            assert pi_upper(x, profile) == raw(x, profile) > pi_upper(x, P1)
    assert P1.upper_refuted_from is None
    with pytest.raises(ValueError, match="upper_refuted_from"):
        BoundProfile("bad", a=(), b=(1.17,), y_thresholds={0.0: 2.0},
                     x0=5.43, x1_closed=P4.x1_closed,
                     upper_refuted_from=3.0)


def test_pi_lower_offset_one_on_p1(cache):
    pi = cache.get(500_000)
    # offset 1 is valid from 470077 for P1
    x = 470077
    assert pi_lower(x, P1, s=1.0) < pi.pi(x)
    with pytest.raises(ThresholdDomainError):
        pi_lower(470076, P1, s=1.0)


def test_pi_bounds_domain_errors():
    with pytest.raises(ThresholdDomainError):
        pi_lower(100, P1)
    with pytest.raises(ThresholdDomainError):
        pi_upper(2.0, P4)   # below x0 = 5.43
    with pytest.raises(ThresholdDomainError):
        upsilon(100.0, 2, P4)   # below max(5393, 2 * 5.43)


# ---------------------------------------------------------------------------
# upsilon
# ---------------------------------------------------------------------------

def test_upsilon_product_equals_difference_form():
    """The factored form equals F(x) - G(x/k) up to roundoff."""
    rng = np.random.default_rng(3)
    for _ in range(500):
        k = float(rng.uniform(1.2, 50.0))
        x = float(rng.uniform(6000 * k, 10 ** 8))
        prof = P4
        got = upsilon(x, k, prof)
        f = x / (math.log(x) - 1.0 - prof.A(x))
        g = (x / k) / (math.log(x / k) - 1.0 - prof.B(x / k))
        assert got == pytest.approx(f - g, rel=1e-9, abs=1e-6)


def test_upsilon_is_lower_bound_for_prime_gap_count(cache):
    pi = cache.get(10 ** 6)
    rng = np.random.default_rng(4)
    for _ in range(300):
        k = Fraction(int(rng.integers(11, 100)), 10)
        x = int(rng.integers(int(5393 * k) + 1, 10 ** 6))
        actual = pi.pi(x) - pi.pi(int(x / k))
        assert upsilon(x, k, P4) < actual


def test_upsilon_monotone_past_certificate_threshold():
    """Geometric-grid increase check up to 10^8."""
    for k in (1.5, 2.0, 10.0):
        start = max(5393.0, k * 5.43, k * x14(k), 20.0)
        x = math.ceil(start) + 1
        prev = upsilon(x, k, P4)
        step = 1
        while x + step <= 10 ** 8:
            x += step
            cur = upsilon(x, k, P4)
            assert cur > prev, (k, x)
            prev = cur
            step *= 10


def test_upsilon_slope_matches_the_derivative():
    """The Newton slope, for every profile's coefficient tuples, equals
    the derivative of the difference form taken by mpmath at 30 digits."""
    def form(t, coeffs):
        lg = mpmath.log(t)
        return t / (lg - 1 - sum(c / lg ** (j + 1)
                                 for j, c in enumerate(coeffs)))

    for prof in (P1, P2, P3, P4):
        for k, x in ((2.0, 10 ** 6), (1.1, 3.0e7), (50.0, 4.0e9),
                     (3.0, 1.0e15)):
            with mpmath.workdps(30):
                want = mpmath.diff(
                    lambda t: form(t, prof.a) - form(t / k, prof.b), x)
            got = _upsilon_slope_from_logs(k, math.log(x), math.log(x / k),
                                           prof)
            assert got == pytest.approx(float(want), rel=1e-9)


def test_upsilon_rejects_bad_k():
    with pytest.raises(ValueError):
        upsilon(10 ** 5, 1, P4)


# ---------------------------------------------------------------------------
# log-gap predicate and X_1
# ---------------------------------------------------------------------------

def test_log_gap_equivalent_to_denominator_inequality():
    """log k - B(kx) + A(x) >= 0 iff the lower denominator at x dominates
    the upper denominator at kx."""
    rng = np.random.default_rng(5)
    for _ in range(10 ** 4):
        k = float(rng.uniform(1.1, 20.0))
        x = float(rng.uniform(2.0, 10 ** 6))
        prof = (P1, P2, P3, P4)[int(rng.integers(0, 4))]
        lhs = log_gap_holds(x, k, prof)
        rhs = (math.log(k * x) - 1.0 - prof.B(k * x)
               >= math.log(x) - 1.0 - prof.A(x))
        assert lhs == rhs


def test_x1_closed_forms_flip_the_predicate():
    # rtilde, z and the single-b form solve the predicate exactly, so the
    # flip is two-sided; P1's r(k) is a sufficient threshold only.
    tight = ((P2, 3.0), (P2, 745.8), (P3, 2.0), (P3, 143.7), (P4, 2.0),
             (P4, 1.5))
    for prof, k in tight:
        x1 = prof.x1(k)
        assert log_gap_holds(x1 * 1.001, k, prof)
        if x1 > 1.1:
            assert not log_gap_holds(x1 * 0.999, k, prof)
    for k in (1.5, 2.0, 5.0):
        assert log_gap_holds(max(P1.x1(k), 1.2) * 1.001, k, P1)


# ---------------------------------------------------------------------------
# scalar constants
# ---------------------------------------------------------------------------

def test_r_rtilde_z_pins():
    assert r(2) == pytest.approx(4.196203770123761, rel=1e-12)
    # the two inequalities the derivations depend on
    assert rtilde(745.8) <= 2.999966
    assert z(143.7) <= 2.0


def test_scalar_constants_against_mpmath():
    with mpmath.workdps(50):
        lk = mpmath.log(2)
        want_r = mpmath.exp(mpmath.sqrt(mpmath.mpf("3.83") / lk - 1)) / 2

        c = mpmath.log(mpmath.mpf("745.8")) - mpmath.mpf("8.27") / mpmath.log(
            mpmath.mpf("745.8"))
        want_rt = mpmath.exp(mpmath.sqrt(mpmath.mpf("7.1") + c * c / 4) - c / 2)

        cz = mpmath.log(mpmath.mpf("143.7")) - mpmath.mpf("4.47") / mpmath.log(
            mpmath.mpf("143.7"))
        want_z = mpmath.exp(mpmath.sqrt(mpmath.mpf("3.3") + cz * cz / 4) - cz / 2)

        e = mpmath.mpf("0.5")
        want_gamma = ((1 + e) * (1 + e) * (mpmath.log(2) + e)
                      + mpmath.log((1 + e) * (1 + e))) * 2

    assert r(2) == pytest.approx(float(want_r), rel=1e-13)
    assert rtilde(745.8) == pytest.approx(float(want_rt), rel=1e-13)
    assert z(143.7) == pytest.approx(float(want_z), rel=1e-13)
    got_gamma = named_threshold("gamma", k=2, eps1=0.5, eps2=0.5, eps3=0.5,
                                delta1=0.5, delta2=0.5)
    assert got_gamma == pytest.approx(float(want_gamma), rel=1e-13)


def test_gamma_pins():
    kwargs = dict(eps1=0.5, eps2=0.5, eps3=0.5, delta1=0.5, delta2=0.5)
    assert named_threshold("gamma", k=2, **kwargs) == pytest.approx(
        6.991022744952412, rel=1e-12)
    assert named_threshold("gamma", k=1.5, **kwargs) == pytest.approx(
        14.656569608109203, rel=1e-12)
    with pytest.raises(ValueError):
        named_threshold("gamma", k=2, eps1=-0.1, eps2=0.5, eps3=0.5,
                        delta1=0.5, delta2=0.5)


def test_c0_pins(cache):
    pi = cache.get(100)
    assert named_threshold("c0", pi=pi, s=0) == 4.0
    assert named_threshold("c0", pi=pi, s=2) == 8.0
    with pytest.raises(ValueError):
        named_threshold("c0", s=0)   # needs a prime table
    with pytest.raises(ValueError):
        named_threshold("c0", pi=pi, s=-1)


def test_lambda_branches():
    # eps1 > 0 uses the full expression
    assert named_threshold("lambda", eps1=0.5, eps2=0.5) == pytest.approx(
        0.5 / 2 + 0.5 * (1 + 0.25), rel=1e-12)
    # eps1 = 0 forces the eps2-only branch (sign(0) = 0)
    assert named_threshold("lambda", eps1=0, eps2=0.4) == pytest.approx(
        0.2, rel=1e-12)
    with pytest.raises(ValueError):
        named_threshold("lambda", eps1=0, eps2=0)


# ---------------------------------------------------------------------------
# named thresholds
# ---------------------------------------------------------------------------

def _valid_params(cache):
    """One valid parameter set per threshold name."""
    pi = cache.get(10 ** 6)
    e = 0.5
    eps = dict(eps1=e, eps2=e, eps3=e, eps4=e, delta1=e, delta2=e)
    return pi, {
        "r": dict(k=2), "rtilde": dict(k=2), "z": dict(k=2),
        "lambda": dict(eps1=e, eps2=e),
        "S": dict(k=2, eps1=e, eps2=e),
        "T": dict(eps1=e, eps2=e),
        "eta": dict(k=2, delta1=e),
        "gamma": dict(k=2, eps1=e, eps2=e, eps3=e, delta1=e, delta2=e),
        "c0": dict(s=0),
        "c1": dict(k=2, **{n: v for n, v in eps.items() if n != "eps3"},
                   eps3=e),
        "X2": dict(k=2, t=1, profile="P1"),
        "X3": dict(k=2), "X4": dict(k=746),
        "X5": dict(k=2, profile="P2"), "X6": dict(k=2),
        "X11": dict(), "X13": dict(k=2), "X14": dict(k=2),
        "X12": dict(k=2, a1=1.0, b1=1.17, y0=468049.0, x0=math.exp(2.547),
                    eps1=0, eps2=e, x10=10 ** 4),
        "X15": dict(k=2, eps1=0, eps2=Fraction(5, 19)),
        "X16": dict(k=2, delta1=e, delta2=e),
        "X17": dict(k=2),
        "X18": dict(k=2, eps2=e),
        "X19": dict(k=2, eps2=e, delta1=e, delta2=e),
        "X20": dict(k=2, eps1=e),
        "X21": dict(eps3=e),
        "X22": dict(k=2, eps1=e, eps2=e, eps3=e, delta1=e, delta2=e),
        "X23": dict(k=2, eps=e),
        "X24": dict(eps3=e, eps4=e),
        "X25": dict(k=2, **eps),
        "X26": dict(k=2, c2=100, **eps),
        "X27": dict(k=2, eps=e),
    }


def test_every_threshold_name_evaluates(cache):
    pi, params = _valid_params(cache)
    names = threshold_names()
    assert set(names) == set(params), "parameter map out of sync"
    for name in names:
        value = named_threshold(name, pi=pi, **params[name])
        assert math.isfinite(value) and value > 0, name


def test_named_threshold_needs_k_above_one():
    """Every formula that takes k refuses k <= 1 with the message X2's
    x1 gave already (r(1) divided by log 1; X13 returned a value at
    k = 0.5)."""
    takes_k = [name for name in threshold_names()
               if "k" in inspect.signature(_THRESHOLDS[name]).parameters]
    assert {"r", "rtilde", "S", "X2", "X13", "X14", "X23"} <= set(takes_k)
    for name in takes_k:
        for k in (1, 0.5, Fraction(1)):
            with pytest.raises(ValueError, match=r"^need k > 1, got "):
                named_threshold(name, k=k)
    with pytest.raises(ValueError, match=r"^need k > 1, got 1\.0$"):
        named_threshold("X14", k=1)


def test_named_threshold_unknown_name():
    with pytest.raises(ValueError, match="unknown threshold"):
        named_threshold("X99", k=2)


def test_threshold_pins(cache):
    pi = cache.get(10 ** 6)
    assert named_threshold("X4", k=746) == 2238.0
    assert named_threshold("X11", pi=pi) == 1.0
    assert named_threshold("X15", pi=pi, k=2, eps1=0,
                           eps2=Fraction(5, 19)) == 468049.0
    assert named_threshold("X19", pi=pi, k=10, eps2=0.5, delta1=0.5,
                           delta2=0.5) == 947.0
    assert named_threshold("X26", pi=pi, k=2, c2=100, eps1=0.5, eps2=0.5,
                           eps3=0.5, eps4=0.5, delta1=0.5,
                           delta2=0.5) == 1896.0
    assert named_threshold("c1", pi=pi, k=2, eps1=0.5, eps2=0.5, eps3=0.5,
                           eps4=0.5, delta1=0.5, delta2=0.5) == pytest.approx(
        29.464090979809647, rel=1e-12)


# Each name's keys on the digest grid below: k, b1, profile and t run over
# their axes, every eps, delta and s key takes the one eps of the point,
# and the remaining keys are fixed.
_GRID_AXES = {
    "k": (Fraction(101, 100), Fraction(11, 10), Fraction(3, 2), 2, 3, 10,
          746, 10 ** 4),
    "b1": (1.17, 1.2, 2),
    "profile": ("P1", "P2", "P3", "P4"),
    "t": (-1, 0, 1, 3),
}
_GRID_FIXED = {"a1": 1.0, "y0": 468049.0, "x0": math.exp(2.547),
               "x10": 10 ** 4, "c2": 100}
_GRID_EPS = (0.1, 0.5)
_X22_KEYS = "k b1 eps1 eps2 eps3 delta1 delta2"
_X26_KEYS = "k b1 eps1 eps2 eps3 eps4 delta1 delta2 c2"
_GRID_KEYS = {
    "r": "k", "rtilde": "k", "z": "k", "lambda": "eps1 eps2",
    "S": "k b1 eps1 eps2", "T": "b1 eps1 eps2", "eta": "k b1 delta1",
    "gamma": "k eps1 eps2 eps3 delta1 delta2", "c0": "s",
    "c1": "k eps1 eps2 eps3 eps4 delta1 delta2",
    "X2": "k t profile", "X3": "k", "X4": "k", "X5": "k profile", "X6": "k",
    "X11": "b1", "X12": "k a1 b1 y0 x0 eps1 eps2 x10", "X13": "k",
    "X14": "k b1", "X15": "k eps1 eps2", "X16": "k b1 delta1 delta2",
    "X17": "k b1", "X18": "k b1 eps2", "X19": "k b1 eps2 delta1 delta2",
    "X20": "k b1 eps1", "X21": "eps3", "X22": _X22_KEYS,
    "X23": "k b1 eps", "X24": "eps3 eps4",
    "X25": "k b1 eps1 eps2 eps3 eps4 delta1 delta2", "X26": _X26_KEYS,
    "X27": "k b1 eps",
    "n0": "k t profile", "n1": "k eps1 eps2", "n2": _X22_KEYS,
    "n3": _X26_KEYS,
}


def _grid_points(keys: str):
    keys = keys.split()
    axes = [key for key in keys if key in _GRID_AXES]
    for eps in _GRID_EPS:
        base = {key: _GRID_FIXED.get(key, eps) for key in keys
                if key not in _GRID_AXES}
        for values in itertools.product(*(_GRID_AXES[a] for a in axes)):
            yield dict(base, **dict(zip(axes, values)))


def test_threshold_values_on_a_grid_are_frozen():
    """Every named threshold and n-threshold on a fixed grid, errors
    recorded by type and message, and every named threshold's keyword
    order and defaults (const lists missing keys in that order), as one
    digest.  The table is built here, so the errors that name its limit
    (RangeQueryError for a point past it) do not depend on what other
    tests grew the shared cache to."""
    pi = build_table(10 ** 6)
    assert set(_GRID_KEYS) == set(threshold_names()) | {"n0", "n1", "n2",
                                                        "n3"}
    lines = []
    for name in threshold_names():
        sig = inspect.signature(_THRESHOLDS[name]).parameters.values()
        lines.append(f"{name} takes " + ", ".join(
            p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in sig if p.kind is p.KEYWORD_ONLY))
    for name in sorted(_GRID_KEYS):
        evaluate = (functools.partial(n_threshold, name, pi)
                    if name in {"n0", "n1", "n2", "n3"}
                    else functools.partial(named_threshold, name, pi=pi))
        seen = set()
        for params in _grid_points(_GRID_KEYS[name]):
            point = repr(sorted(params.items()))
            if point in seen:      # names without eps repeat their points
                continue
            seen.add(point)
            try:
                got = repr(evaluate(**params))
            except Exception as err:    # the error is the value
                got = f"{type(err).__name__}: {err}"
            lines.append(f"{name} {point} -> {got}")
    assert len(lines) == 1177, len(lines)
    digest = hashlib.md5("\n".join(lines).encode()).hexdigest()
    assert digest == "4707801343d13b620105761bf39f2060", digest


def test_x26_requires_c2_above_c1(cache):
    pi = cache.get(10 ** 6)
    with pytest.raises(ValueError, match="c2 > c1"):
        named_threshold("X26", pi=pi, k=2, c2=1, eps1=0.5, eps2=0.5,
                        eps3=0.5, eps4=0.5, delta1=0.5, delta2=0.5)


def test_x21_bisected_value_flips_its_predicate():
    # large eps3: the peak is already negative, any x > 1 works
    assert named_threshold("X21", eps3=0.5) == math.e
    # small eps3 exercises the bisection
    x21 = named_threshold("X21", eps3=0.1)
    assert math.log(math.log(x21 * 1.01)) < 0.1 * math.log(x21 * 1.01)
    assert math.log(math.log(x21 * 0.99)) >= 0.1 * math.log(x21 * 0.99)
    with pytest.raises(ValueError):
        named_threshold("X21", eps3=0)


def test_x24_bisected_value_flips_its_predicate():
    def g(x, eps3, eps4):
        return (math.log(1 + eps3) + math.log(x + 1)
                + math.log(x + math.log(x + 1)) - eps4 * x)

    x24 = named_threshold("X24", eps3=0.1, eps4=0.1)
    assert g(x24 * 1.001, 0.1, 0.1) <= 0
    assert g(x24 * 0.999, 0.1, 0.1) > 0
    # permissive parameters collapse to the trivial threshold
    assert named_threshold("X24", eps3=0.5, eps4=10.0) == 1.0


# ---------------------------------------------------------------------------
# integer n-thresholds
# ---------------------------------------------------------------------------

def test_n0_pin(cache):
    pi = cache.get(10 ** 6)
    assert n_threshold("n0", pi, k=2, t=1, profile="P1") == 37098


def test_n1_pin_and_conservative_variant(cache):
    """The exact ceiling is 15466; dropping the 1/(1+eps2) factor (as the
    prose summary of the same computation does) gives 19536."""
    pi = cache.get(10 ** 6)
    assert n_threshold("n1", pi, k=2, eps1=0, eps2=Fraction(5, 19)) == 15466
    x15 = named_threshold("X15", pi=pi, k=2, eps1=0, eps2=Fraction(5, 19))
    m = pi.pi(math.floor(inflate(x15))) + 1
    assert m == 39072
    assert math.ceil(Fraction(m, 2)) == 19536


def test_n2_n3_pins(cache):
    pi = cache.get(10 ** 6)
    e = 0.5
    assert n_threshold("n2", pi, k=2, eps1=e, eps2=e, eps3=e,
                       delta1=e, delta2=e) == 948
    assert n_threshold("n2", pi, k=1.5, eps1=e, eps2=e, eps3=e,
                       delta1=e, delta2=e) == 948
    n3 = n_threshold("n3", pi, k=2, eps1=e, eps2=e, eps3=e, eps4=e,
                     delta1=e, delta2=e, c2=100)
    assert n3 == 16361
    assert pi.is_prime(n3) and pi.pi(n3) == 1897


def test_n_threshold_errors(cache):
    pi = cache.get(10 ** 6)
    with pytest.raises(ValueError, match="unknown n-threshold"):
        n_threshold("n9", pi, k=2)
    with pytest.raises(ValueError):
        n_threshold("n0", pi, k=2, t=-2, profile="P1")
    # int(t) once truncated these to t = 1 and returned 37098
    for t in (1.5, 1.9, Fraction(3, 2)):
        with pytest.raises(ValueError, match="need an integer t"):
            n_threshold("n0", pi, k=2, t=t, profile="P1")
    assert n_threshold("n0", pi, k=2, t=1.0, profile="P1") == 37098
    # P2's rtilde and P1's r overflow math.exp near k = 1: an error that
    # names n0, as X14's own overflow names X14, not an OverflowError
    for k, profile in ((Fraction(101, 100), "P2"), (1.0000001, "P1")):
        with pytest.raises(ThresholdDomainError,
                           match=r"^n0: overflows a float"):
            n_threshold("n0", pi, k=k, profile=profile)


@pytest.mark.parametrize("kind, name, key", [
    (None, "X2", "k"), (None, "gamma", "eps1"),
    ("n2", "X22", "eps1"), ("n3", "X26", "eps1")])
def test_a_parameter_past_float_range_is_a_domain_error(cache, kind, name,
                                                       key):
    """A parameter no float holds (10^400) is a ThresholdDomainError that
    names the threshold, as an overflow inside its formula is: n2 and n3
    name X22 and X26, which they evaluate.  Converting it once raised a
    bare OverflowError."""
    pi, valid = _valid_params(cache)
    params = dict(valid[name], **{key: 10 ** 400})
    with pytest.raises(ThresholdDomainError,
                       match=rf"^{name}: overflows a float \("):
        if kind is None:
            named_threshold(name, pi, **params)
        else:
            n_threshold(kind, pi, **params)


@pytest.mark.parametrize("kind", ["n0", "n1"])
@pytest.mark.parametrize("k", [1, Fraction(1, 2)])
def test_n_threshold_needs_k_above_one(cache, kind, k):
    """n0 and n1 refuse k <= 1 as n2 and n3 do (k = 1 divided by zero)."""
    with pytest.raises(ValueError, match=r"^need k > 1, got "):
        n_threshold(kind, cache.get(10 ** 6), k=k)


def test_n_threshold_rejects_unknown_keys(cache):
    """A misspelt key is an error, not a silent fall back to a default."""
    pi = cache.get(10 ** 6)
    assert n_threshold("n0", pi, k=2, t=1, profile="P2") == 12091
    with pytest.raises(TypeError, match="prof"):
        n_threshold("n0", pi, k=2, t=1, prof="P2")
    with pytest.raises(TypeError, match="eps3"):
        n_threshold("n1", pi, k=2, eps1=0, eps2=Fraction(5, 19), eps3=0)
    e = 0.5
    with pytest.raises(TypeError, match="bl"):
        n_threshold("n2", pi, k=2, bl=1.2, eps1=e, eps2=e, eps3=e,
                    delta1=e, delta2=e)


def test_n3_needs_enough_primes():
    with pytest.raises(ResourceBudgetError):
        n_threshold("n3", TableCache(hard_cap=100), k=2, eps1=0.5, eps2=0.5,
                    eps3=0.5, eps4=0.5, delta1=0.5, delta2=0.5, c2=100)


def test_thresholds_take_the_cache_or_a_table():
    """A TableCache as pi gives a table's values and grows only as far as
    the formula reads; a PrimeTable refuses a point past its limit."""
    e = 0.5
    params = dict(k=2, eps1=e, eps2=e, eps3=e, eps4=e, delta1=e, delta2=e,
                  c2=100)
    cache = TableCache()
    assert n_threshold("n3", cache, **params) == 16361
    assert cache.current().limit == 1 << 20
    assert (named_threshold("X19", pi=cache, k=10, eps2=e, delta1=e,
                            delta2=e)
            == named_threshold("X19", pi=build_table(10 ** 6), k=10,
                               eps2=e, delta1=e, delta2=e) == 947.0)
    with pytest.raises(RangeQueryError):
        named_threshold("X19", pi=build_table(100), k=10, eps2=e, delta1=e,
                        delta2=e)


# ---------------------------------------------------------------------------
# the tail certificate
# ---------------------------------------------------------------------------

CUTOFF_PINS = {(2, 37097): 1018297, (2, 1): 5394, (Fraction(3, 2), 5): 5394}
# found by bisection over the same exact check, at the default cap 2^62
SCALE_PINS = {(2, 10 ** 15): 77277424592846040,
              (Fraction(1001, 1000), 10 ** 6): 2012210941793465,
              (Fraction(101, 100), 10 ** 9): 3438745639439,
              (3, 10 ** 12): 46612760080434,
              (10 ** 6, 10 ** 9): 22852379683}
# k near 1, where Upsilon_k jitters in floats: Newton's rounded-up
# proposal still falls short of clearing, so the unit steps up run
STEP_UP_CASES = [(Fraction(1001, 1000), 9016), (Fraction(1001, 1000), 12),
                 (Fraction(1003, 1000), 67375608532)]
# k = 1.1 .. 50 in tenths and n from 0 to 10^6, at cap 2^31
CUTOFF_GRID = [(Fraction(s, 10), n) for s in range(11, 501)
               for n in (0, 1, 10, 500, 10 ** 4, 10 ** 6)]


def test_certify_tail_pins():
    for (k, n), want in CUTOFF_PINS.items():
        assert certify_tail(k, n) == want


def test_certify_tail_pins_at_scale():
    """Cutoffs found by bisection over the same exact check, at the
    default cap 2^62, where Newton's proposal is fragile: past 2^53
    (floats 16 apart), where the slack moves the goal by ~4e7 integers,
    k near 1 (Upsilon cancels), and large k."""
    for (k, n), want in SCALE_PINS.items():
        assert certify_tail(k, n) == want
    got = certify_tail(np.array([2, 3]), np.array([10 ** 15, 10 ** 12]))
    assert got.tolist() == [77277424592846040, 46612760080434]
    with pytest.raises(ResourceBudgetError):
        certify_tail(2, 10 ** 17)
    # array cutoffs are int64, so no cap past 2^62 is taken for them
    with pytest.raises(ValueError):
        certify_tail(np.array([2]), np.array([5]), hard_cap=(1 << 62) + 1)


def test_certify_tail_grid_digest():
    """2,940 cutoffs over k = 1.1 .. 50 in tenths and n from 0 to 10^6
    at cap 2^31: the md5 of the same cutoffs found by bisection over the
    same exact check."""
    vals = [certify_tail(k, n, hard_cap=2 ** 31) for k, n in CUTOFF_GRID]
    digest = hashlib.md5(",".join(map(str, vals)).encode()).hexdigest()
    assert digest == "f00fb0753d604b01d759c74f6283aa75"


def test_certificate_clears_target_minimally():
    for k, n in ((2, 100), (Fraction(3, 2), 1000), (10, 50), *STEP_UP_CASES):
        x = certify_tail(k, n)
        u = upsilon(x, k, P4)
        assert u >= n + 1
        start = math.ceil(inflate(max(5393.0, float(k) * 5.43,
                                      float(k) * x14(float(k)))))
        if x > start:
            below = upsilon(x - 1, k, P4)
            assert below < n + 1 + max(abs(below) * 1e-9, 1e-6)


_IV = MPIntervalContext()
_IV.prec = 80


def _upsilon_interval(x: int, k: Fraction):
    """P4's Upsilon_k(x) = x/(log x - 1) - (x/k)/(log(x/k) - 1 -
    1.17/log(x/k)) as an 80-bit mpmath interval: k and 1.17 exact, every
    operation rounded outward, no float in between."""
    x = _IV.mpf(x)
    xk = x * k.denominator / k.numerator
    lxk = _IV.log(xk)
    return x / (_IV.log(x) - 1) - xk / (lxk - 1 - _IV.mpf(117) / 100 / lxk)


def test_certificate_clears_in_interval_arithmetic():
    """Upsilon_k(X) >= n + 1 in outward-rounded interval arithmetic at
    every pinned cutoff and step-up case, 400 cutoffs of the grid (scalar
    path, math.log) and 2,000 of mps_holds' cutoffs, k = m and n = m - 1
    for m <= 10^4 (array path, np.log): the float path's slack covers its
    rounding."""
    rng = random.Random(6)
    cases = [(Fraction(k), n, certify_tail(k, n))
             for k, n in [*CUTOFF_PINS, *SCALE_PINS, *STEP_UP_CASES]]
    cases += [(k, n, certify_tail(k, n, hard_cap=2 ** 31))
              for k, n in rng.sample(CUTOFF_GRID, 400)]
    ms = np.arange(2, 10 ** 4 + 1, dtype=np.int64)
    cutoffs = certify_tail(ms, ms - 1)
    for i in rng.sample(range(len(ms)), 2000):
        m = int(ms[i])
        cases.append((Fraction(m), m - 1, int(cutoffs[i])))
    short = [(k, n, x) for k, n, x in cases
             if _upsilon_interval(x, k).a < n + 1]
    assert short == []


def test_certificate_really_covers_the_scan(cache):
    """No m >= cutoff may have fewer than n primes in (m/k, m]."""
    k, n = Fraction(2), 200
    cutoff = certify_tail(k, n)
    pi = cache.get(2 * cutoff)
    for m in range(cutoff, cutoff + 2000):
        assert pi.pi(m) - pi.pi((m + 1) // 2) >= n


def test_certify_tail_budget():
    """Past the cap an array names its first offending element in ravel
    order, with the message and the int required a number gets."""
    with pytest.raises(ResourceBudgetError) as info:
        certify_tail(2, 10 ** 6, hard_cap=10 ** 6)
    assert info.value.cap == 10 ** 6
    assert info.value.required > 10 ** 6
    with pytest.raises(ResourceBudgetError) as info:
        certify_tail(np.array([[2, 3], [4, 5]]),
                     np.array([[10, 1], [10 ** 6, 10 ** 6]]), hard_cap=10 ** 6)
    assert str(info.value) == ("certificate for k=4, n=1000000 exceeds hard "
                               "cap 1000000")
    assert type(info.value.required) is int and info.value.required > 10 ** 6
    # the start point 5394 clears n + 1 = 2 at once, but lies past the cap
    for k, n in ((2, 1), (np.array([3, 2]), np.array([1, 1]))):
        for cap in (1000, 5393):
            with pytest.raises(ResourceBudgetError) as info:
                certify_tail(k, n, hard_cap=cap)
            assert str(info.value).startswith("certificate for k=")
            assert info.value.cap == cap
            assert type(info.value.required) is int
            assert info.value.required == 2 * 5394
    # past 2^53 the cap start - 1 is the float start, still below start
    k = 10 ** 17
    with pytest.raises(ResourceBudgetError) as info:
        certify_tail(k, 1, hard_cap=1)
    start = info.value.required // 2
    assert float(start - 1) == start
    with pytest.raises(ResourceBudgetError) as info:
        certify_tail(np.array([2, k]), np.array([1, 1]), hard_cap=start - 1)
    assert str(info.value).startswith(f"certificate for k={k}, n=1 ")
    assert certify_tail(np.array([k]), np.array([1]),
                        hard_cap=start).tolist() == [certify_tail(k, 1)]
    # a start past 2^63 does not wrap in int64
    with pytest.raises(ResourceBudgetError) as info:
        certify_tail(np.array([2, 10 ** 18]), np.array([1, 1]))
    assert str(info.value).startswith(f"certificate for k={10 ** 18}, n=1 ")


def test_certify_tail_input_validation():
    with pytest.raises(ValueError):
        certify_tail(1, 5)
    with pytest.raises(ValueError):
        certify_tail(2, -1)
    with pytest.raises(ValueError, match=r"^need k > 1, got 1$"):
        certify_tail(np.array([3, 1, 0]), np.array([5, 5, 5]))
    with pytest.raises(ValueError, match=r"^need n >= 0, got -1$"):
        certify_tail(np.array([2, 2, 2]), np.array([5, -1, -2]))
    # every k is checked before any n
    with pytest.raises(ValueError, match=r"^need k > 1, got 1$"):
        certify_tail(np.array([2, 1]), np.array([-1, 5]))
    with pytest.raises(ValueError):
        certify_tail(np.array([2, 2]), np.array([5]))
    with pytest.raises(ValueError):
        certify_tail(np.array([2.5]), np.array([5]))


def test_certify_tail_array_matches_scalar():
    """The batched search gives the scalar cutoff at every element: all
    2 <= m <= 10^4 at n = m - 1, as mps_holds asks, and one k at many n.
    Up to m = 10^5 the cutoffs are frozen as an md5, recorded when every
    start came from the scalar math code."""
    m = np.arange(2, 10001, dtype=np.int64)
    got = certify_tail(m, m - 1)
    assert got.dtype == np.int64
    assert got.tolist() == [certify_tail(v, v - 1) for v in range(2, 10001)]
    m = np.arange(2, 10 ** 5 + 1)
    digest = hashlib.md5(",".join(map(str, certify_tail(m, m - 1).tolist()))
                         .encode()).hexdigest()
    assert digest == "e090553760015b40ca9919c023e6f901"
    n = np.array([[0, 1, 100], [37097, 10 ** 5, 10 ** 6]])
    got = certify_tail(np.full(n.shape, 2), n)
    assert got.shape == n.shape
    assert got.tolist() == [[certify_tail(2, int(v)) for v in row]
                            for row in n]
    empty = np.array([], dtype=np.int64)
    assert certify_tail(empty, empty).tolist() == []


def test_inflate_is_conservative():
    assert inflate(0.0) == 1e-6
    assert inflate(1e12) > 1e12
    for v in (1e-9, 1.0, 5393.0, -3.0):
        assert inflate(v) > v
