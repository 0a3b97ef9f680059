"""The three benchmark workloads: seeded inputs, the calls they make, checks.

A workload is a list of ops rebuilt for every round.  An op makes one or
more timed library or CLI calls and then checks their outputs against an
oracle that shares no code with the package.  Inputs depend only on the
seed.  Sizes are stratified (one draw per size band) so that every seed
does about the same amount of work while every output value changes.
The mix of calls in a round puts the median and p90 call inside a group
of calls of similar cost, not on the slope between two groups.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

CAMPAIGN_IDS = (
    "sondow-gap", "upper-48-19", "lemma34-sweep", "eq431-range",
    "prop310-table", "Nk-closed-form", "N0k-closed-form", "cor316-pattern",
    "rho-positivity", "rho-upper", "mps-scan", "section2-properties",
    "nicholson-bound", "gamma-difference",
)
# n <= 10^4 where R_n < 2n log R_n fails at k = 2 (README, "Verification
# campaigns"); nicholson-bound must fail on exactly these.
NICHOLSON_FAILURES = frozenset(
    {33, 34, 43, 44, 45, 46, 68, 97, 98, 145, 166, 167, 168, 201})
KNOWN_PREFIX_K2 = [2, 11, 17, 29, 41]
ORACLE_PREFIX_BOUND = 10 ** 5
QUERY_K = Fraction(2)
QUERY_PROBE = 500
# Oracle sieve limits, fixed so the oracle's memory is the same for every
# seed: above the cutoff of compute-large (34,390,587 at k = 2,
# n = 10^6), and above both the largest queries lookup (p_n < 1.06e7 for
# n <= 6.6e5) and x = 10^7 by a margin that f* cannot dip back across.
COMPUTE_ORACLE_LIMIT = 35_000_000
QUERY_ORACLE_LIMIT = 11_000_000
SEGMENT = 1 << 20


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

class Oracle:
    """Primes up to a limit from a plain sieve, independent of the package."""

    def __init__(self, limit: int):
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p::p] = False
        self.limit = limit
        self.primes = np.flatnonzero(flags)

    def pi(self, x):
        """Number of primes <= x, for an int or an int array."""
        if np.max(x) > self.limit:
            raise ValueError(f"oracle limit {self.limit} below {np.max(x)}")
        return np.searchsorted(self.primes, x, side="right")

    def fstar(self, k: Fraction, lo: int, hi: int) -> np.ndarray:
        """f*(m) = pi(m) - #{p prime : p < (m+1)/k} for lo <= m < hi."""
        m = np.arange(lo, hi, dtype=np.int64)
        return self.pi(m) - self.pi(((m + 1) * k.denominator - 1)
                                    // k.numerator)

    def pi_k(self, k: Fraction, xs: list[int], top: int) -> dict[int, int]:
        """min of f* over [x, top) for each x, in segments from the top.

        This is pi_k(x) when f* past top stays above that minimum.
        """
        out, carried, hi = {}, None, top
        while hi > min(xs):
            lo = max(hi - SEGMENT, min(xs))
            sufmin = np.minimum.accumulate(self.fstar(k, lo, hi)[::-1])[::-1]
            if carried is not None:
                sufmin = np.minimum(sufmin, carried)
            out.update((x, int(sufmin[x - lo])) for x in xs if lo <= x < hi)
            carried, hi = sufmin[0], lo
        return out

    def prefix(self, k: Fraction, n_max: int, bound: int) -> list[int]:
        """R_1..R_{n_max} by brute force over m < bound (heuristic bound)."""
        sufmin = np.minimum.accumulate(self.fstar(k, 0, bound)[::-1])[::-1]
        if sufmin[-1] <= n_max:
            raise ValueError(f"oracle bound {bound} too small for n={n_max}")
        return np.searchsorted(sufmin, np.arange(1, n_max + 1)).tolist()

    def nth_prime(self, n: int) -> int:
        return int(self.primes[n - 1])

    def empirical(self, k: Fraction, probe: int, strict: bool) -> int:
        """N(k) (strict) or N_0(k) observed over n <= probe."""
        rv = np.asarray(self.prefix(k, probe, ORACLE_PREFIX_BOUND))
        n = np.arange(1, probe + 1)
        idx = -((-k.numerator * n) // (k.numerator - k.denominator))
        pv = self.primes[idx - 1]
        bad = np.flatnonzero(rv <= pv if strict else rv < pv)
        return int(bad[-1]) + 2 if len(bad) else 1


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class CliOutput:
    code: int
    text: str


@dataclass
class Op:
    """Timed calls plus a check returning a problem string or None."""

    label: str
    calls: list[Callable[[], object]]
    check: Callable[[list], str | None]


def run_cli(pkg, argv: list[str]) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(argv)
    return CliOutput(code, buf.getvalue())


def _stratified(rng: random.Random, lo: float, hi: float, count: int):
    """One log-uniform draw from each of `count` equal log-width bands."""
    step = (math.log(hi) - math.log(lo)) / count
    return [math.exp(math.log(lo) + (i + rng.random()) * step)
            for i in range(count)]


def _nth_prime_limit(n: int) -> int:
    """p_n < n (log n + log log n) for n >= 6 (Rosser and Schoenfeld)."""
    return int(n * (math.log(n) + math.log(math.log(n)))) + 1


# -- compute-large ----------------------------------------------------------

def compute_inputs(rng: random.Random) -> list[tuple[Fraction, int]]:
    # One k = 2 call (about 1.9 s) and two k = 11/10 calls (about 0.7 s):
    # the median call is a k = 11/10 one and p90 falls among the k = 2 ones.
    return [(Fraction(2), 10 ** 6 - rng.randrange(1000)),
            (Fraction(11, 10), 10 ** 5 - rng.randrange(100)),
            (Fraction(11, 10), 10 ** 5 - 100 - rng.randrange(100))]


def _check_compute(k: Fraction, n: int, oracle: Oracle):
    def check(outs):
        out = outs[0]
        if out.code != 0:
            return f"exit code {out.code}"
        data = json.loads(out.text)
        values = data["values"]
        if data["proof"] != "analytic-certificate":
            return f"proof label {data['proof']!r}"
        if data["k"] != f"{k.numerator}/{k.denominator}":
            return f"k echoed as {data['k']!r}"
        if len(values) != n:
            return f"{len(values)} values, want {n}"
        if not data["cutoff"] > values[-1]:
            return f"cutoff {data['cutoff']} <= R_n = {values[-1]}"
        want = (KNOWN_PREFIX_K2 if k == 2 else
                oracle.prefix(k, len(KNOWN_PREFIX_K2), ORACLE_PREFIX_BOUND))
        if values[:len(want)] != want:
            return f"prefix {values[:len(want)]}, want {want}"
        rv = np.asarray(values, dtype=np.int64)
        pi_r = oracle.pi(rv)
        not_prime = np.flatnonzero(oracle.primes[pi_r - 1] != rv)
        if len(not_prime):
            return f"R_{not_prime[0] + 1} = {rv[not_prime[0]]} is not prime"
        gaps = pi_r - oracle.pi(rv * k.denominator // k.numerator)
        off = np.flatnonzero(gaps != np.arange(1, n + 1))
        if len(off):
            return f"pi(R_n) - pi(R_n/k) != n at n = {off[0] + 1}"
        return None
    return check


def compute_round(pkg, inputs, oracle: Oracle) -> list[Op]:
    # the CLI builds a fresh TableCache per call, as a user's process does
    return [Op("compute",
               [lambda k=k, n=n: run_cli(pkg, ["compute", "--k", str(k),
                                               "--n", str(n), "--json"])],
               _check_compute(k, n, oracle))
            for k, n in inputs]


# -- verify-all -------------------------------------------------------------

def verify_inputs(rng: random.Random) -> list[int]:
    return [rng.randrange(2 ** 31)]


_NICHOLSON_LINE = re.compile(r"n=(\d+): R_n >= 2n log R_n$")


def _check_verify(seed: int):
    def check(outs):
        out = outs[0]
        if out.code != 1:
            return f"exit code {out.code}, want 1 (nicholson-bound fails)"
        reports = json.loads(out.text)["reports"]
        ids = tuple(r["id"] for r in reports)
        if ids != CAMPAIGN_IDS:
            return f"campaign ids {ids}"
        for rep in reports:
            if rep["params"].get("seed") != seed:
                return f"{rep['id']}: seed {rep['params'].get('seed')}"
            if rep["id"] != "nicholson-bound":
                if rep["status"] != "pass" or rep["failures"]:
                    return f"{rep['id']}: {rep['status']} {rep['failures'][:3]}"
                continue
            hits = [_NICHOLSON_LINE.match(f) for f in rep["failures"]]
            if rep["status"] != "fail" or not all(hits):
                return f"nicholson-bound: {rep['status']} {rep['failures'][:3]}"
            got = {int(h.group(1)) for h in hits}
            if got != NICHOLSON_FAILURES or len(hits) != len(got):
                return f"nicholson-bound fails at {sorted(got)}"
        return None
    return check


def verify_round(pkg, inputs, oracle) -> list[Op]:
    return [Op("verify",
               [lambda s=s: run_cli(pkg, ["--threads", "1", "verify",
                                          "--campaign", "all", "--json",
                                          "--seed", str(s)])],
               _check_verify(s))
            for s in inputs]


# -- queries ----------------------------------------------------------------

@dataclass
class QueryInputs:
    xs: list[int]                    # pi_k + rho_k points, k = 2
    ks: list[tuple[Fraction, bool]]  # N (True) or N_0 (False) at k
    lookup_x: list[int]              # PrimeTable.pi
    lookup_n: list[int]              # PrimeTable.nth_prime
    order: list[int]                 # permutation of all ops


@dataclass
class QueryOracle:
    primes: Oracle
    pi_k: dict[int, int]             # pi_k(x) at every input x


def query_oracle(inputs: QueryInputs) -> QueryOracle:
    primes = Oracle(QUERY_ORACLE_LIMIT)
    return QueryOracle(primes, primes.pi_k(QUERY_K, inputs.xs,
                                           QUERY_ORACLE_LIMIT))


def query_inputs(rng: random.Random) -> QueryInputs:
    # x = 10^7 is always present so that every seed has the same peak
    # working set; the other points are one log-uniform draw per band.
    # 120 of the 200 calls are lookups, so the median call is a lookup;
    # p90 falls among the N/N_0 calls and the largest pi_k/rho_k calls.
    xs = [int(x) for x in _stratified(rng, 1e4, 1e7, 29)] + [10 ** 7]
    ks = [(max(Fraction(round(10 * k), 10), Fraction(3, 2)), i % 2 == 0)
          for i, k in enumerate(_stratified(rng, 1.5, 2000.0, 20))]
    lookup_x = [int(x) for x in _stratified(rng, 1e4, 1e7, 60)]
    lookup_n = [int(n) for n in _stratified(rng, 1e3, 6.6e5, 60)]
    order = list(range(len(xs) + len(ks) + len(lookup_x) + len(lookup_n)))
    rng.shuffle(order)
    return QueryInputs(xs, ks, lookup_x, lookup_n, order)


def _check_pik_rho(x: int, oracle: QueryOracle):
    def check(outs):
        count, rho = outs
        if count != oracle.pi_k[x]:
            return f"pi_k({x}) = {count}, want {oracle.pi_k[x]}"
        k = QUERY_K
        want = (k - 1) / k - Fraction(count, int(oracle.primes.pi(x)))
        if rho != want:
            return f"rho_k({x}) = {rho}, want {want}"
        return None
    return check


def _check_n(k: Fraction, strict: bool, oracle: Oracle):
    def check(outs):
        est = outs[0]
        emp = oracle.empirical(k, QUERY_PROBE, strict)
        closed_from = Fraction(7458, 10) if strict else Fraction(1437, 10)
        if k < closed_from:
            if est.kind != "empirical" or est.value != emp:
                return f"k={k}: {est}, want empirical {emp}"
            return None
        mult = 3 if strict else 2
        cf = (int(oracle.pi(mult * k.numerator // k.denominator))
              - (1 if strict else 0))
        if (est.kind != "closed-form" or est.value != cf
                or est.closed_form != cf or est.consistent != (emp == cf)):
            return f"k={k}: {est}, want closed form {cf} (empirical {emp})"
        return None
    return check


def _check_equal(want: int, what: str):
    def check(outs):
        return None if outs[0] == want else f"{what} = {outs[0]}, want {want}"
    return check


def queries_round(pkg, inputs: QueryInputs,
                  oracle: QueryOracle) -> list[Op]:
    rp = pkg.ramanujan
    cache = rp.TableCache()          # one shared cache for the whole stream
    ops = []
    for x in inputs.xs:
        ops.append(Op("pik-rho", [lambda x=x: rp.pi_k(QUERY_K, x, cache),
                                  lambda x=x: rp.rho_k(QUERY_K, x, cache)],
                      _check_pik_rho(x, oracle)))
    for k, strict in inputs.ks:
        name = "empirical_N" if strict else "empirical_N0"
        ops.append(Op("N" if strict else "N0",
                      [lambda name=name, k=k:
                       getattr(rp, name)(k, QUERY_PROBE, cache)],
                      _check_n(k, strict, oracle.primes)))
    for x in inputs.lookup_x:
        ops.append(Op("pi", [lambda x=x: cache.get(x).pi(x)],
                      _check_equal(int(oracle.primes.pi(x)), f"pi({x})")))
    for n in inputs.lookup_n:
        limit = _nth_prime_limit(n)
        ops.append(Op("nth_prime",
                      [lambda n=n, limit=limit: cache.get(limit).nth_prime(n)],
                      _check_equal(oracle.primes.nth_prime(n),
                                   f"nth_prime({n})")))
    return [ops[i] for i in inputs.order]


INPUTS = {"compute-large": compute_inputs, "verify-all": verify_inputs,
          "queries": query_inputs}
ORACLES = {"compute-large": lambda inputs: Oracle(COMPUTE_ORACLE_LIMIT),
           "verify-all": lambda inputs: None,
           "queries": query_oracle}
ROUNDS = {"compute-large": compute_round, "verify-all": verify_round,
          "queries": queries_round}
