"""Explicit prime-counting estimates and the named threshold constants.

Three layers:

 1. BoundProfile: a pair of explicit estimates
        pi(x) > x/(log x - 1 - A(x)) + s   for x >= Y_s,
        pi(x) < x/(log x - 1 - B(x))       for x >= X_0,
    where A(x) = sum a_j/log^j x and B(x) = sum b_j/log^j x.  The four
    built-in profiles P1..P4 carry published constants and a closed form
    for X_1.  The certificate uses P4 alone.

    The b_1 = 1.17 upper estimate of P2, P3 and P4 is refuted on
    [59753, 2122756621] despite its floor X_0 = 5.43, so from 59753 on
    pi_upper returns the larger of it and P1's upper estimate: that is
    never below P1's bound, hence a strict upper bound wherever P1's
    is.  upsilon and certify_tail still use the raw B form.

 2. named_threshold / n_threshold: a table of closed-form constants
    (r, rtilde, z, S, T, eta, gamma, c0, c1 and the composite maxima
    X2..X27, n0..n3), each marking the point past which some inequality
    between pi(x) and pi(x/k) is guaranteed.

 3. certify_tail: the computational certificate.  Given k and n it
    returns an integer X such that pi(x) - pi(x/k) > n for every real
    x >= X, by locating the monotone region of P4's Upsilon_k and
    pushing Upsilon_k above n + 1 there: Newton's method proposes X and
    an exact integer check settles it.  One body serves numbers and
    equal-shape integer arrays of k and n alike: the start of that
    region, the input checks and the cap check run over a whole array
    as they do on one number.

Everything is evaluated in double precision.  Any value used as a cutoff
or compared against a guarantee is inflated first (relative 1e-9,
absolute 1e-6), so rounding error can only make results more
conservative, never unsound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .errors import ResourceBudgetError, ThresholdDomainError

__all__ = [
    "BoundProfile", "P1", "P2", "P3", "P4", "PROFILES", "get_profile",
    "inflate", "pi_lower", "pi_upper", "log_gap_holds", "upsilon",
    "named_threshold", "threshold_names", "n_threshold", "certify_tail",
    "r", "rtilde", "z", "x14",
]

REL_SLACK = 1e-9
ABS_SLACK = 1e-6


def inflate(value: float) -> float:
    """Round a computed threshold up by the standard conservative slack."""
    return value + max(abs(value) * REL_SLACK, ABS_SLACK)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def _inv_log_sum(coeffs: tuple[float, ...], lg):
    """sum c_j / lg^j over j >= 1: A or B at the point whose log is lg.

    lg is a float or a float array; the sum runs elementwise alike.
    """
    return sum(c / lg ** (j + 1) for j, c in enumerate(coeffs))


@dataclass(frozen=True)
class BoundProfile:
    """Constants of one lower/upper estimate pair for pi(x).

    y_thresholds maps an offset s to the least x from which the lower
    bound holds with that additive offset.  Lookups take the smallest
    stored key >= s: a bound with a larger offset implies every smaller
    one, so this is always sound.

    x1_closed maps k to X_1(k), the least x from which the log-gap
    predicate log k - B(kx) + A(x) >= 0 holds (r, rtilde, z, ...).

    upper_refuted_from, when set, is the least x at which the upper
    estimate x/(log x - 1 - B(x)) is known to fail although x >= X_0.
    From there pi_upper falls back to max(own estimate, P1's), which is
    never below P1's bound and so stays a strict upper bound.  It
    defaults to None: the profile's own estimate throughout.
    """

    name: str
    a: tuple[float, ...]
    b: tuple[float, ...]
    y_thresholds: Mapping[float, float]
    x0: float
    x1_closed: Callable[[float], float]
    upper_refuted_from: float | None = None

    def __post_init__(self):
        # B must dominate A for large x; with positive leading terms that
        # is (b_1, b_2, ...) > (a_1, a_2, ...) lexicographically (zero
        # padded).  P1 has b_1 = a_1 = 1 and wins on the second term.
        width = max(len(self.a), len(self.b), 1)
        avec = self.a + (0.0,) * (width - len(self.a))
        bvec = self.b + (0.0,) * (width - len(self.b))
        if not bvec > avec:
            raise ValueError(f"profile {self.name}: need B > A eventually, "
                             f"got b={self.b}, a={self.a}")
        if any(bj < 0 for bj in self.b):
            raise ValueError(f"profile {self.name}: b_j must be >= 0")
        if self.x0 < 2 or any(y < 2 for y in self.y_thresholds.values()):
            raise ValueError(f"profile {self.name}: thresholds must be >= 2")
        if (self.upper_refuted_from is not None
                and self.upper_refuted_from < self.x0):
            raise ValueError(f"profile {self.name}: upper_refuted_from must "
                             "be >= x0")

    def A(self, x: float) -> float:
        return _inv_log_sum(self.a, math.log(x))

    def B(self, x: float) -> float:
        return _inv_log_sum(self.b, math.log(x))

    def y_threshold(self, s: float) -> float:
        keys = [key for key in self.y_thresholds if key >= s]
        if not keys:
            raise ThresholdDomainError(
                f"profile {self.name} has no lower-bound threshold for "
                f"offset s={s} (stored: {sorted(self.y_thresholds)})")
        return self.y_thresholds[min(keys)]

    def x1(self, k: float) -> float:
        """Least x from which the log-gap predicate holds (see Eq-309 ops)."""
        k = float(k)
        if k <= 1:
            raise ValueError(f"need k > 1, got {k}")
        return self.x1_closed(k)


def _p4_x1(k: float) -> float:
    # With A = 0 and B(y) = 1.17/log y, the log-gap predicate is exactly
    # log(kx) >= 1.17/log k.
    return math.exp(1.17 / math.log(k)) / k


def r(k: float) -> float:
    """Log-gap threshold for P1."""
    k = float(k)
    return math.exp(math.sqrt(max(3.83 / math.log(k) - 1.0, 0.0))) / k


def _log_gap_root(k: float, s: float, t: float) -> float:
    """e^u at the larger root u of u^2 + c u - t, c = log k - s/log k.

    With A = -t/log x and B = b/log x, s = t + b, the log-gap predicate
    at u = log x > 0 reads exactly u^2 + c u - t >= 0.
    """
    k = float(k)
    c = math.log(k) - s / math.log(k)
    return math.exp(math.sqrt(t + 0.25 * c * c) - 0.5 * c)


def rtilde(k: float) -> float:
    """Log-gap threshold for P2."""
    return _log_gap_root(k, 8.27, 7.1)


def z(k: float) -> float:
    """Log-gap threshold for P3."""
    return _log_gap_root(k, 4.47, 3.3)


# Sieved: x/(log x - 1 - 1.17/log x) first fails at the prime 59753 =
# p_6041, where it gives 6040.79 < pi(59753) = 6041; it holds at every
# integer in [6, 59752].  Chunked scans place the last failure at
# p_103947136 = 2122756621.  P1's upper estimate, the fallback, has no
# failure at any integer in [10, 10^8].
_B117_FIRST_FAILURE = 59753.0

P1 = BoundProfile("P1", a=(1.0,), b=(1.0, 3.83), y_thresholds={1.0: 470077.0},
                  x0=9.25, x1_closed=r)
P2 = BoundProfile("P2", a=(-7.1,), b=(1.17,), y_thresholds={1.0: 3.0},
                  x0=5.43, x1_closed=rtilde,
                  upper_refuted_from=_B117_FIRST_FAILURE)
P3 = BoundProfile("P3", a=(-3.3,), b=(1.17,), y_thresholds={0.0: 2.0},
                  x0=5.43, x1_closed=z,
                  upper_refuted_from=_B117_FIRST_FAILURE)

# A = 0 with floor x0 = 5.43.  The offset-1 threshold 7477 is the
# machine-checked extension of the offset-0 bound.
P4 = BoundProfile("P4", a=(), b=(1.17,),
                  y_thresholds={0.0: 5393.0, 1.0: 7477.0}, x0=5.43,
                  x1_closed=_p4_x1, upper_refuted_from=_B117_FIRST_FAILURE)

PROFILES: dict[str, BoundProfile] = {"P1": P1, "P2": P2, "P3": P3, "P4": P4}


def get_profile(profile: BoundProfile | str) -> BoundProfile:
    if isinstance(profile, BoundProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"builtins: {sorted(PROFILES)}") from None


# ---------------------------------------------------------------------------
# the four basic operations
# ---------------------------------------------------------------------------

def pi_lower(x: float, profile: BoundProfile | str, s: float = 0.0) -> float:
    """x/(log x - 1 - A(x)) + s; a strict lower bound for pi(x) when
    x >= the profile's offset-s threshold."""
    profile = get_profile(profile)
    x = float(x)
    y = profile.y_threshold(s)
    if x < y:
        raise ThresholdDomainError(
            f"pi_lower: x={x} below validity threshold {y} "
            f"({profile.name}, s={s})")
    denom = math.log(x) - 1.0 - profile.A(x)
    if denom <= 0:
        raise ThresholdDomainError(
            f"pi_lower: nonpositive denominator at x={x} ({profile.name})")
    return x / denom + s


def pi_upper(x: float, profile: BoundProfile | str) -> float:
    """A strict upper bound for pi(x) when x >= X_0.

    x/(log x - 1 - B(x)), except from the profile's upper_refuted_from
    on (59753 for P2, P3 and P4), where it is the maximum of that and
    pi_upper(x, P1): never below P1's bound, so strict wherever P1's
    is.  For the b_1 = 1.17 profiles this is P1's bound below
    e^(3.83/0.17) ~ 6.09e9 and their own estimate above it.
    """
    profile = get_profile(profile)
    x = float(x)
    if x < profile.x0:
        raise ThresholdDomainError(
            f"pi_upper: x={x} below validity threshold {profile.x0} "
            f"({profile.name})")
    denom = math.log(x) - 1.0 - profile.B(x)
    if denom <= 0:
        raise ThresholdDomainError(
            f"pi_upper: nonpositive denominator at x={x} ({profile.name})")
    if (profile.upper_refuted_from is not None
            and x >= profile.upper_refuted_from):
        return max(x / denom, pi_upper(x, P1))
    return x / denom


def log_gap_holds(x: float, k, profile: BoundProfile | str) -> bool:
    """Predicate log k - B(kx) + A(x) >= 0, evaluated as written.

    Equivalent (for positive denominators) to the lower-bound denominator
    at x dominating the upper-bound denominator at kx.  The meaningful
    domain is x > 1; anywhere both A(x) and B(kx) are defined the
    predicate is still evaluated literally.
    """
    profile = get_profile(profile)
    x, k = float(x), float(k)
    if k <= 1:
        raise ValueError(f"need k > 1, got {k}")
    if x <= 0 or math.log(x) == 0 or math.log(k * x) == 0:
        raise ValueError(f"predicate undefined at x={x} (k={k})")
    return math.log(k) - profile.B(k * x) + profile.A(x) >= 0


def upsilon(x: float, k, profile: BoundProfile | str) -> float:
    """Certified lower bound for pi(x) - pi(x/k).

    Upsilon_k(x) = x/(log x - 1 - A(x)) *
                   (1 - 1/k - (1/k)(log k - A(x) + B(x/k))/(log(x/k) - 1 - B(x/k)))

    Valid (pi(x) - pi(x/k) > Upsilon_k(x)) for x >= max{Y_0, k*X_0}.
    Algebraically equal to x/(log x -1 -A(x)) - (x/k)/(log(x/k) -1 -B(x/k)).
    """
    profile = get_profile(profile)
    x, k = float(x), float(k)
    if k <= 1:
        raise ValueError(f"need k > 1, got {k}")
    lo = max(profile.y_threshold(0.0), k * profile.x0)
    if x < lo:
        raise ThresholdDomainError(
            f"upsilon: x={x} below validity threshold {lo} "
            f"({profile.name}, k={k})")
    return _upsilon_from_logs(x, k, math.log(x), math.log(x / k),
                              math.log(k), profile)


def _upsilon_from_logs(x, k, lx, lxk, lk, profile: BoundProfile):
    """Upsilon_k(x) given lx = log x, lxk = log(x/k) and lk = log k.

    x, k and the logs are floats or equal-shape float arrays, so the
    certificate evaluates one expression for numbers and arrays.  Raises
    ThresholdDomainError where either denominator is nonpositive.
    """
    ax = _inv_log_sum(profile.a, lx)
    bxk = _inv_log_sum(profile.b, lxk)
    d1 = lx - 1.0 - ax
    d2 = lxk - 1.0 - bxk
    bad = (d1 <= 0) | (d2 <= 0)
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        raise ThresholdDomainError(
            f"upsilon: nonpositive denominator at x={x} ({profile.name})")
    return x / d1 * (1.0 - 1.0 / k - (lk - ax + bxk) / (k * d2))


def _upsilon_slope_from_logs(k, lx, lxk, profile: BoundProfile):
    """dUpsilon_k/dx given lx = log x and lxk = log(x/k), floats or
    equal-shape float arrays.  Upsilon_k(x) = g_A(x) - g_B(x/k), where
    g_C(y) = y/d for d = log y - 1 - C(y) has slope
    (d - 1 - sum j c_j/log^(j+1) y)/d^2."""
    slopes = []
    for coeffs, lg in ((profile.a, lx), (profile.b, lxk)):
        d = lg - 1.0 - _inv_log_sum(coeffs, lg)
        dc = sum(j * c / lg ** (j + 1) for j, c in enumerate(coeffs, 1))
        slopes.append((d - 1.0 - dc) / (d * d))
    return slopes[0] - slopes[1] / k


# ---------------------------------------------------------------------------
# scalar closed forms
# ---------------------------------------------------------------------------

def x14(k, b1: float = 1.17):
    """Past k*x14(k) the second Upsilon factor is positive (A in {0, 1/log x}).

    k is a float or a float array; the expression runs elementwise alike.
    ThresholdDomainError where a float k overflows it (k near 1).
    """
    fn = np if isinstance(k, np.ndarray) else math
    w = 0.5 + fn.log(k) / (2.0 * (k - 1.0))
    try:
        return fn.exp(fn.sqrt(b1 + b1 / (k - 1.0) + w * w) + w)
    except OverflowError:
        raise ThresholdDomainError(
            f"X14 overflows a float at k={k}") from None


# Every formula below is its own registry entry: pi (a TableCache or a
# PrimeTable, for the thresholds that count primes) and then its
# parameters by keyword, each declared once with its default.
# named_threshold passes k and the other numbers as floats; composite
# formulas call the others by keyword.

_E2547 = math.exp(2.547)


def _x13(pi=None, *, k):
    return max(k * x14(k), _E2547, 5.43 * k)


def _eps_lambda(eps1: float, eps2: float) -> tuple[float, float]:
    if eps1 < 0 or eps2 < 0 or eps1 + eps2 == 0:
        raise ValueError(
            f"need eps1 >= 0, eps2 >= 0, eps1 + eps2 != 0; "
            f"got eps1={eps1}, eps2={eps2}")
    eps = eps1 if eps1 != 0 else eps2
    sign = 1.0 if eps1 > 0 else 0.0
    lam = eps / 2.0 + eps2 * sign * (1.0 + eps / 2.0)
    return eps, lam


def _S(pi=None, *, k, a1=0.0, b1=1.17, x0=5.43, eps1, eps2):
    eps, _ = _eps_lambda(eps1, eps2)
    g = (1.0 + eps) * math.log(k) / ((k - 1.0) * eps)
    inner = (b1
             + 2.0 * (1.0 + eps) / ((k - 1.0) * eps)
             * (b1 - a1 + a1 * math.log(k) / math.log(k * x0))
             + (0.5 + g) ** 2)
    return math.exp(math.sqrt(inner) + 0.5 + g)


def _T(pi=None, *, a1=0.0, b1=1.17, eps1, eps2):
    eps, lam = _eps_lambda(eps1, eps2)
    h = math.log(1.0 + eps1) / (2.0 * lam)
    inner = (b1 + (b1 - a1) / lam + a1 * math.log(1.0 + eps1) / lam
             + (0.5 + h) ** 2)
    return math.exp(math.sqrt(inner) + 0.5 + h)


def _eta(pi=None, *, k, b1=1.17, delta1):
    w = 0.5 + math.log(k) / (2.0 * delta1)
    return k * (math.sqrt(b1 * (1.0 + 1.0 / delta1) + w * w) + w)


def _gamma(pi=None, *, k, eps1, eps2, eps3, delta1, delta2):
    for name, v in (("eps1", eps1), ("eps2", eps2), ("eps3", eps3),
                    ("delta1", delta1), ("delta2", delta2)):
        if v < 0:
            raise ValueError(f"gamma: need {name} >= 0, got {v}")
    return (((1.0 + eps2) * (1.0 + delta1) * (math.log(k) + delta2) / (k - 1.0)
             + math.log((1.0 + eps1) * (1.0 + eps3))) * k / (k - 1.0))


def _bisect(above, lo: float, hi: float) -> float:
    """Where above flips from true to false, for a predicate that holds
    at lo and flips once past it: double hi while above(hi), then halve
    [lo, hi] 200 times.  Returns hi, the end where above fails."""
    while above(hi):
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _x21(pi=None, *, eps3) -> float:
    """Least X (inflated) with log log x < eps3 * log x for all x >= X.

    In u = log x the condition is phi(u) = log u - eps3*u < 0; phi is
    concave with maximum at u = 1/eps3, so past the larger root it stays
    negative.  If even the maximum is negative, any X > 1 works.
    """
    if eps3 <= 0:
        raise ValueError(f"need eps3 > 0, got {eps3}")
    u0 = max(1.0, 1.0 / eps3)
    if math.log(u0) - eps3 * u0 < 0:
        return math.e
    return inflate(math.exp(
        _bisect(lambda u: math.log(u) - eps3 * u >= 0, u0, 2.0 * u0)))


def _x24(pi=None, *, eps3, eps4) -> float:
    """Least X (inflated) with
    log(1+eps3) + log(x+1) + log(x + log(x+1)) <= eps4 * x for all x >= X."""
    if eps3 <= 0 or eps4 <= 0:
        raise ValueError(f"need eps3, eps4 > 0; got {eps3}, {eps4}")

    def g(x):
        return (math.log(1.0 + eps3) + math.log(x + 1.0)
                + math.log(x + math.log(x + 1.0)) - eps4 * x)

    def gp(x):
        return (1.0 / (x + 1.0)
                + (1.0 + 1.0 / (x + 1.0)) / (x + math.log(x + 1.0)) - eps4)

    # g' is strictly decreasing from +inf to -eps4: single peak, at most
    # one crossing of zero to the right of it.
    peak = _bisect(lambda x: gp(x) > 0, 1e-9, 1.0)
    if g(peak) <= 0:
        return 1.0
    return inflate(_bisect(lambda x: g(x) > 0, peak, 2.0 * peak))


def _c0(pi=None, *, s) -> float:
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    _need_pi(pi, "c0")
    return max(4.0, 4.0 * s, (pi.pi(math.floor(2.0 + s)) - 1) * math.log(2.0))


# ---------------------------------------------------------------------------
# named thresholds
# ---------------------------------------------------------------------------

def _need_pi(pi, name: str):
    if pi is None:
        raise ValueError(f"threshold {name} needs a prime table (pi=...)")


def _pi_at(pi, x: float) -> int:
    """pi evaluated at a real threshold, conservatively rounded up first."""
    return pi.pi(math.floor(inflate(x)))


def _x11(pi=None, *, b1=1.17, x0=5.43) -> int:
    """Least N with p_n >= n(log p_n - 1 - b1/log p_n) for all n >= N.

    For n > pi(x0) the upper estimate gives the inequality outright, so
    only finitely many n need checking.
    """
    _need_pi(pi, "X11")
    top = pi.pi(math.floor(x0))
    worst = 0
    for n in range(1, top + 1):
        p = pi.nth_prime(n)
        if p < n * (math.log(p) - 1.0 - b1 / math.log(p)):
            worst = n
    return worst + 1


def _x2(pi=None, *, k, t=0, profile="P1"):
    profile = get_profile(profile)
    rs = (t + 1) * (k - 1.0) / k
    return max(profile.x0, k * profile.x1(k), k * profile.y_threshold(rs))


def _x3(pi=None, *, k):
    return _x2(k=k, profile=P1)


def _x4(pi=None, *, k):
    return _x2(k=k, profile=P2)


def _x5(pi=None, *, k, profile):
    return _x2(k=k, t=-1, profile=profile)


def _x6(pi=None, *, k):
    return _x5(k=k, profile=P3)


def _x12(pi=None, *, k, a1, b1, y0, x0, eps1, eps2, x10):
    s = _S(k=k, a1=a1, b1=b1, x0=x0, eps1=eps1, eps2=eps2)
    t = _T(a1=a1, b1=b1, eps1=eps1, eps2=eps2)
    e1 = 1.0 + eps1
    return max(y0 / e1, k * x0 / e1, k * s / e1, t, x10 / e1)


def _x15(pi=None, *, k, eps1, eps2):
    return _x12(k=k, a1=1.0, b1=1.17, y0=468049.0, x0=_E2547, eps1=eps1,
                eps2=eps2, x10=_x13(k=k))


def _x16(pi=None, *, k, b1=1.17, delta1, delta2, x0=5.43):
    return max(7477.0, k * x0, _eta(k=k, b1=b1, delta1=delta1),
               k * math.exp(b1 / delta2))


def _x17(pi=None, *, k, b1=1.17, x0=5.43):
    return max(5393.0, k * x0, k * x14(k, b1))


def _x18(pi=None, *, k, b1=1.17, eps2, x0=5.43):
    return _x12(k=k, a1=0.0, b1=b1, y0=5393.0, x0=x0, eps1=0.0, eps2=eps2,
                x10=_x17(k=k, b1=b1, x0=x0))


def _x19(pi=None, *, k, b1=1.17, eps2, delta1, delta2, x0=5.43):
    _need_pi(pi, "X19")
    p16 = _pi_at(pi, _x16(k=k, b1=b1, delta1=delta1, delta2=delta2, x0=x0))
    p18 = _pi_at(pi, _x18(k=k, b1=b1, eps2=eps2, x0=x0))
    x11 = _x11(pi, b1=b1, x0=x0)
    return max(p16 + 1.0,
               (k - 1.0) * (p18 + 1.0) / (k * (1.0 + eps2)),
               (k - 1.0) * x11 / (k * (1.0 + eps2)))


def _x20(pi=None, *, k, b1=1.17, eps1, x0=5.43):
    return _x12(k=k, a1=0.0, b1=b1, y0=5393.0, x0=x0, eps1=eps1, eps2=0.0,
                x10=_x17(k=k, b1=b1, x0=x0))


def _x22(pi=None, *, k, b1=1.17, eps1, eps2, eps3, delta1, delta2, x0=5.43):
    _need_pi(pi, "X22")
    x11 = _x11(pi, b1=b1, x0=x0)
    x19 = _x19(pi, k=k, b1=b1, eps2=eps2, delta1=delta1, delta2=delta2,
               x0=x0)
    p20 = _pi_at(pi, _x20(k=k, b1=b1, eps1=eps1, x0=x0))
    return max((k - 1.0) * x11 / k, x19,
               (k - 1.0) * (p20 + 1.0) / k,
               (k - 1.0) * _x21(eps3=eps3) / k)


def _c1(pi=None, *, k, eps1, eps2, eps3, eps4, delta1, delta2):
    if eps4 <= 0:
        raise ValueError(f"need eps4 > 0, got {eps4}")
    return 1.0 + eps4 + _c0(pi, s=_gamma(k=k, eps1=eps1, eps2=eps2,
                                         eps3=eps3, delta1=delta1,
                                         delta2=delta2))


def _x25(pi=None, *, k, b1=1.17, eps1, eps2, eps3, eps4, delta1, delta2,
         x0=5.43):
    return max(_x22(pi, k=k, b1=b1, eps1=eps1, eps2=eps2, eps3=eps3,
                    delta1=delta1, delta2=delta2, x0=x0),
               _x24(eps3=eps3, eps4=eps4),
               math.log(k / (k - 1.0)))


def _x26(pi=None, *, k, b1=1.17, eps1, eps2, eps3, eps4, delta1, delta2, c2,
         x0=5.43):
    eps = dict(eps1=eps1, eps2=eps2, eps3=eps3, eps4=eps4, delta1=delta1,
               delta2=delta2)
    c1 = _c1(pi, k=k, **eps)
    if not c2 > c1:
        raise ValueError(f"need c2 > c1; got c2={c2}, c1={c1}")
    x25 = _x25(pi, k=k, b1=b1, x0=x0, **eps)
    pow2 = 2.0 ** (c2 / (c2 - c1))
    return max(_x21(eps3=eps3),
               math.ceil(inflate(k / (k - 1.0) * x25)) + 1.0,
               float(_pi_at(pi, pow2)))


def _x23(pi=None, *, k, b1=1.17, eps):
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    if b1 <= 0:
        raise ValueError(f"need b1 > 0, got {b1}")
    # The last two terms are X_2 at t = 0 for the A = 0 profile with this
    # b1: its log-gap threshold exp(b1/log k)/k, and its lower-bound
    # threshold for the offset (k-1)/k, the stored offset-1 value 7477.
    return max(5.43, 5393.0 * k, math.exp(b1 / eps),
               math.exp(b1 / math.log(k)),
               k * (math.exp(b1 / math.log(k)) / k), 7477.0 * k)


def _x27(pi=None, *, k, b1=1.17, eps):
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    return _x12(k=k, a1=0.0, b1=b1, y0=5393.0, x0=5.43, eps1=eps, eps2=0.0,
                x10=_x13(k=k))


_THRESHOLDS: dict[str, Callable] = {
    "r": lambda pi=None, *, k: r(k),
    "rtilde": lambda pi=None, *, k: rtilde(k),
    "z": lambda pi=None, *, k: z(k),
    "lambda": lambda pi=None, *, eps1, eps2: _eps_lambda(eps1, eps2)[1],
    "S": _S, "T": _T, "eta": _eta, "gamma": _gamma, "c0": _c0, "c1": _c1,
    "X2": _x2, "X3": _x3, "X4": _x4, "X5": _x5, "X6": _x6, "X11": _x11,
    "X12": _x12, "X13": _x13,
    "X14": lambda pi=None, *, k, b1=1.17: x14(k, b1),
    "X15": _x15, "X16": _x16, "X17": _x17, "X18": _x18, "X19": _x19,
    "X20": _x20, "X21": _x21, "X22": _x22, "X23": _x23, "X24": _x24,
    "X25": _x25, "X26": _x26, "X27": _x27,
}


def threshold_names() -> list[str]:
    return sorted(_THRESHOLDS)


def named_threshold(name: str, pi=None, **params) -> float:
    """Evaluate a named threshold constant.

    Extra keyword arguments are the formula's parameters (k, eps1, ...);
    Fractions are accepted and converted.  Every formula that takes k
    needs k > 1.  Thresholds that count primes (c0, c1, X11, X19, X22,
    X25, X26) need pi: a TableCache, which sieves as far as the formula
    reads and raises ResourceBudgetError past its hard cap, or a
    PrimeTable, which raises RangeQueryError for a query past its limit.
    A float overflow, in a parameter or inside a formula (k near 1), is
    a ThresholdDomainError naming the threshold.
    """
    try:
        formula = _THRESHOLDS[name]
    except KeyError:
        raise ValueError(f"unknown threshold {name!r}; "
                         f"known: {threshold_names()}") from None
    try:
        clean = {key: (value if isinstance(value, str)
                       or key == "profile" else float(value))
                 for key, value in params.items()}
        if "k" in clean and not clean["k"] > 1:
            raise ValueError(f"need k > 1, got {clean['k']}")
        return float(formula(pi, **clean))
    except ThresholdDomainError as err:    # it may come from an inner one
        raise ThresholdDomainError(f"{name}: {err}") from None
    except OverflowError as err:
        raise ThresholdDomainError(
            f"{name}: overflows a float ({err})") from None


# ---------------------------------------------------------------------------
# integer n-thresholds
# ---------------------------------------------------------------------------

def _ceil_real(value: float) -> int:
    return math.ceil(inflate(value))


def _n0(pi, *, k, t=0, profile="P1") -> int:
    if t != int(t):
        raise ValueError(f"n0: need an integer t, got t={t}")
    t = int(t)
    kx = Fraction(k)
    if not t > -math.ceil(kx / (kx - 1)):
        raise ValueError(f"n0: need t > -ceil(k/(k-1)), got t={t}")
    pival = _pi_at(pi, _x2(k=float(k), t=t, profile=profile))
    return math.ceil((kx - 1) / kx * (pival - t + 1))


def _n1(pi, *, k, eps1=0.0, eps2=0) -> int:
    x15 = _x15(k=float(k), eps1=float(eps1), eps2=float(eps2))
    m = max(_pi_at(pi, x15) + 1, _x11(pi, x0=_E2547))
    kx = Fraction(k)
    return math.ceil((kx - 1) / (kx * (1 + Fraction(eps2))) * m)


def n_threshold(kind: str, pi, **params) -> int:
    """The integer index thresholds n_0..n_3 (ceiling of the real value).

    n0(k, t, profile): past it R_n^(k) > p_{ceil(kn/(k-1)) + t}; t must
       be an integer.
    n1(k, eps1, eps2): X15's index threshold; past it
       R_n^(k) <= (1+eps1) p_{ceil((1+eps2)kn/(k-1))}.
    n2(...): = X22; past it R_n^(k) - p_{ceil(kn/(k-1))} < gamma*n.
    n3(...): = p_{X26}; past it rho_k(x) <= c2/log x.

    n0 and n1 are rational-prefactor-times-integer expressions and their
    ceilings are taken exactly; n2 and n3 round a float threshold up.
    pi, a float overflow and a key the threshold does not take (TypeError)
    behave as in named_threshold, and every kind needs k > 1.
    """
    if "k" in params and not params["k"] > 1:
        raise ValueError(f"need k > 1, got {params['k']}")
    try:
        if kind == "n0":
            return _n0(pi, **params)
        if kind == "n1":
            return _n1(pi, **params)
    except OverflowError as err:
        raise ThresholdDomainError(
            f"{kind}: overflows a float ({err})") from None
    if kind == "n2":
        return _ceil_real(named_threshold("X22", pi, **params))
    if kind == "n3":
        return pi.nth_prime(_ceil_real(named_threshold("X26", pi, **params)))
    raise ValueError(f"unknown n-threshold kind {kind!r}")


# ---------------------------------------------------------------------------
# the tail certificate
# ---------------------------------------------------------------------------

def _budget_error(k, n, hi, hard_cap) -> ResourceBudgetError:
    return ResourceBudgetError(
        f"certificate for k={k}, n={n} exceeds hard cap {hard_cap}",
        required=2 * hi, cap=hard_cap)


def certify_tail(k, n, hard_cap: int = 1 << 62):
    """Integer X with pi(x) - pi(x/k) > n for every real x >= X.

    Uses P4 (A = 0, B = 1.17/log x), whose Upsilon_k is nondecreasing
    from start = max{Y_0, k*X_0, k*x14(k)} on, so an integer X there
    with Upsilon_k(X) clearing n + 1 (plus slack) certifies the tail.
    Newton's method on Upsilon_k = n + 1 + slack only proposes X; the
    exact check alone settles it, by unit steps, where X clears and
    X - 1 does not (or X = start): the least such X while Upsilon_k is
    monotone in floats, still one that clears where rounding makes it
    jitter (k near 1).  Past hard_cap it raises ResourceBudgetError.

    k and n may also be equal-shape integer arrays (integer k > 1 each,
    hard_cap <= 2^62): every element gets its start and runs the same
    search at once, and an int64 array of the cutoffs comes back.  An
    error names the first offending element in ravel order; every k is
    checked before any n.
    """
    if isinstance(k, np.ndarray):
        if not isinstance(n, np.ndarray) or n.shape != k.shape:
            raise ValueError("k and n must be arrays of one shape")
        if not (np.issubdtype(k.dtype, np.integer)
                and np.issubdtype(n.dtype, np.integer)):
            raise ValueError(
                f"need integer arrays, got {k.dtype} and {n.dtype}")
        if hard_cap > 1 << 62:
            raise ValueError(f"int64 cutoffs need hard_cap <= 2^62, "
                             f"got {hard_cap}")
        k, n = k.astype(np.int64), n.astype(np.int64)
        log, clip, some, big = np.log, np.clip, np.any, np.maximum
        ceil = lambda v: np.ceil(v).astype(np.int64)
        first = lambda bad, v: np.extract(bad, v)[0].item()
        # numpy rounds hard_cap to a float; x > cap with the largest
        # float <= hard_cap is exact for every float x
        cap = float(hard_cap)
        cap = math.nextafter(cap, 0.0) if cap > hard_cap else cap
    else:                   # plain floats: numpy scalars cost more here
        log, ceil, some, big = math.log, math.ceil, bool, max
        clip = lambda v, lo, hi: min(max(v, lo), hi)
        first = lambda bad, v: v
        cap = hard_cap
    kf, target = k * 1.0, (n + 1) * 1.0
    if some(kf <= 1):
        raise ValueError(f"need k > 1, got {first(kf <= 1, k)}")
    if some(n < 0):
        raise ValueError(f"need n >= 0, got {first(n < 0, n)}")
    # P4's Upsilon_k is nondecreasing from here on (x/(log x - 1)
    # increases from e^2 < Y_0 on): X17 at P4, inflated
    try:
        x_lo = big(big(P4.y_threshold(0.0), kf * P4.x0),
                   kf * x14(kf, P4.b[0]))
    except ThresholdDomainError:           # x14 overflows: k near 1
        raise _budget_error(k, n, hard_cap, hard_cap) from None
    x_lo = x_lo + big(x_lo * REL_SLACK, ABS_SLACK)  # inflate(x_lo > 0)
    over = x_lo > cap                      # iff ceil(x_lo) > hard_cap
    if some(over):                         # name the first element past it
        raise _budget_error(first(over, k), first(over, n),
                            math.ceil(first(over, x_lo)), hard_cap)
    start = ceil(x_lo)
    goal = target / (1.0 - REL_SLACK) + ABS_SLACK    # <= ABS_SLACK too high
    lk = log(kf)

    def clears(x):
        xf = x * 1.0
        u = _upsilon_from_logs(xf, kf, log(xf), log(xf / kf), lk, P4)
        # u >= target + max(|u| REL_SLACK, ABS_SLACK), one bound at a time
        return (u >= target + abs(u) * REL_SLACK) & (u >= target + ABS_SLACK)

    cutoff = start
    up = 1 - clears(cutoff)                # bools count as 0 and 1
    if some(up):
        x = start * 1.0                    # a start that clears stays put
        for _ in range(64):                # under 10 steps wherever tried
            lx, lxk = log(x), log(x / kf)
            step = ((goal - _upsilon_from_logs(x, kf, lx, lxk, lk, P4))
                    / _upsilon_slope_from_logs(kf, lx, lxk, P4))
            x, last = clip(x + step, start, hard_cap), x
            # past 2^53 the iterates swing by the float spacing
            if not some(abs(x - last) > 0.5 + last * 1e-15):
                break
        cutoff = ceil(x)
        up = 1 - clears(cutoff)
    while some(up):
        stuck = cutoff + up > hard_cap
        if some(stuck):                    # name the first stuck element
            raise _budget_error(first(stuck, k), first(stuck, n), hard_cap,
                                hard_cap)
        cutoff = cutoff + up
        up = 1 - clears(cutoff)
    down = cutoff > start
    while some(down):
        down = down & clears(cutoff - down)
        cutoff = cutoff - down
        down = down & (cutoff > start)
    return cutoff
