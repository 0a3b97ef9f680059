"""Command line front end.

Data goes to stdout, progress and diagnostics to stderr.  Exit codes:
0 success, 1 a campaign or verdict failed, 2 usage error, 3 resource
budget exceeded: past the sieve cap or out of memory.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

import numpy as np

from . import bounds, verify
from . import ramanujan as rp
from .errors import ResourceBudgetError, ThresholdDomainError
from .rational import format_fraction, parse_k, parse_ratio

ENV_CAP = "RAMANUJAN_PRIMES_CAP"
ENV_THREADS = "RAMANUJAN_PRIMES_THREADS"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_compute(args) -> int:
    k = parse_k(args.k)
    cache = rp.TableCache(hard_cap=args.cap)
    table = rp.ramanujan_prefix(k, args.n, cache)
    if args.json:
        print(table.to_json())
    else:
        print(rp._format_ints(table.array, " "))
        print(f"cutoff {table.cutoff} ({table.proof}, profile "
              f"{table.profile})", file=sys.stderr)
    return EXIT_OK


def _cmd_pik(args) -> int:
    k = parse_k(args.k)
    cache = rp.TableCache(hard_cap=args.cap)
    count = rp.pi_k(k, args.x, cache)
    total = cache.pi(args.x)
    rho = rp._rho(k, count, total) if total else None
    if args.json:
        payload = {"k": str(k), "x": args.x, "pi_k": count, "pi": total}
        if rho is not None:
            payload["rho"] = f"{rho.numerator}/{rho.denominator}"
        print(json.dumps(payload))
        return EXIT_OK
    print(f"pi_k({args.x}) = {count}")
    print(f"pi({args.x}) = {total}")
    if rho is not None:
        print(f"rho_k({args.x}) = {format_fraction(rho)}")
    return EXIT_OK


def _cmd_nk(args, strict: bool) -> int:
    k = parse_k(args.k)
    cache = rp.TableCache(hard_cap=args.cap)
    probe = (args.probe if args.probe is not None
             else rp._default_probe(k, strict, cache))
    est = (rp.empirical_N(k, probe, cache) if strict
           else rp.empirical_N0(k, probe, cache))
    name = "N" if strict else "N_0"
    if args.json:
        print(json.dumps({"k": str(k), "name": name, **vars(est)}))
        return EXIT_OK
    print(f"{name}({k}) = {est.value} [{est.kind}]")
    print(f"probe = {est.probe}")
    if est.closed_form is not None:
        print(f"closed form = {est.closed_form}, "
              f"agreement = {'yes' if est.consistent else 'NO'}")
    return EXIT_OK


def _parse_params(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, raw = chunk.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {chunk!r}")
        key = key.strip()
        raw = raw.strip()
        if key == "profile":
            out[key] = raw
        else:
            out[key] = parse_ratio(raw)
    return out


def _cmd_const(args) -> int:
    params = _parse_params(args.params)
    # an unknown name falls through to named_threshold, which lists the known
    formula = bounds._THRESHOLDS.get(args.name)
    if formula is not None:
        keys = {p.name: p.default is p.empty
                for p in inspect.signature(formula).parameters.values()
                if p.kind is p.KEYWORD_ONLY}
        for key in params:
            if key not in keys:
                raise ValueError(f"threshold '{args.name}' does not take "
                                 f"parameter '{key}'")
        missing = [key for key, required in keys.items()
                   if required and key not in params]
        if missing:
            wanted = ", ".join(f"{key}=..." for key in missing)
            raise ValueError(
                f"threshold '{args.name}' needs --params {wanted}")
    # the cache sieves only as far as the formula reads pi, if at all
    value = bounds.named_threshold(
        args.name, pi=rp.TableCache(hard_cap=args.cap), **params)
    if args.json:
        print(json.dumps({"name": args.name,
                          "params": {k: str(v) for k, v in params.items()},
                          "value": value}))
    else:
        print(f"{value:.12g}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    ids = verify.campaign_ids() if args.campaign == "all" else [args.campaign]
    cache = rp.TableCache(hard_cap=args.cap)
    reports = verify.run_all(ids, cache, threads=args.threads,
                             limit=args.limit, mmax=args.mmax,
                             seed=args.seed)
    if args.json:
        print(verify.reports_to_json(reports))
    elif args.csv:
        print(verify.reports_to_csv(reports), end="")
    else:
        for rep in reports:
            status = "pass" if rep.passed else "FAIL"
            print(f"{rep.id}: {status} ({rep.cases} cases, "
                  f"{rep.elapsed:.2f}s)")
            for note in rep.exceptions:
                print(f"  expected: {note}")
            for failure in rep.failures:
                print(f"  failure: {failure}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILURE


def _cmd_mps(args) -> int:
    if args.mmax is not None and args.mmax < 1:
        raise ValueError(f"need --mmax >= 1, got {args.mmax}")
    ms = (np.array([args.m], dtype=np.int64) if args.m is not None
          else np.arange(1, args.mmax + 1, dtype=np.int64))
    rows = rp.mps_holds(ms, rp.TableCache(hard_cap=args.cap))
    worst = EXIT_OK if all(v.holds for v in rows) else EXIT_FAILURE
    if args.json:
        print(json.dumps([vars(v) for v in rows]))
        return worst
    for v in rows:
        extra = f", R = {v.r_value}" if v.r_value is not None else ""
        if v.counterexample:
            extra += f", counterexample n = {v.counterexample[1]}"
        print(f"m={v.m}: {v.verdict} (n0 = {v.n0}{extra})")
    return worst


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramanujan-primes",
        description="k-Ramanujan primes with certified cutoffs, named "
                    "threshold constants, and verification campaigns.")
    parser.add_argument("--cap", type=int, default=None,
                        help=f"sieve hard cap (or ${ENV_CAP})")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"worker threads for verify (or ${ENV_THREADS})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="R_1..R_n for a given k")
    p.add_argument("--k", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("pik", help="pi_k(x), pi(x) and rho_k(x)")
    p.add_argument("--k", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--json", action="store_true")

    for name in ("nk", "n0k"):
        p = sub.add_parser(name, help=f"empirical {name.upper()}(k) with "
                           "closed form when applicable")
        p.add_argument("--k", required=True)
        p.add_argument("--probe", type=int, default=None)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("const", help="evaluate a named threshold constant")
    p.add_argument("--name", required=True)
    p.add_argument("--params", default="",
                   help="comma-separated key=value, e.g. k=2,eps1=0.1")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run verification campaigns")
    p.add_argument("--campaign", required=True,
                   help="campaign id or 'all'")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--mmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("mps", help="interval-conjecture verdicts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int)
    group.add_argument("--mmax", type=int)
    p.add_argument("--json", action="store_true")
    return parser


_COMMANDS = {
    "compute": _cmd_compute,
    "pik": _cmd_pik,
    "nk": lambda a: _cmd_nk(a, strict=True),
    "n0k": lambda a: _cmd_nk(a, strict=False),
    "const": _cmd_const,
    "verify": _cmd_verify,
    "mps": _cmd_mps,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.cap is None:
            args.cap = int(os.environ.get(ENV_CAP, rp.DEFAULT_CAP))
        if args.threads is None:
            args.threads = int(os.environ.get(ENV_THREADS, 1))
        if args.cap < 10 ** 6:
            raise ValueError(f"sieve cap must be at least 10^6, got {args.cap}")
        if args.cap > 1 << 62:     # certify_tail's default; int64 cutoffs
            raise ValueError(f"sieve cap must be at most 2^62, got {args.cap}")
        if args.threads < 1:
            raise ValueError(f"thread count must be >= 1, got {args.threads}")
        return _COMMANDS[args.command](args)
    except (ResourceBudgetError, MemoryError) as err:
        # a MemoryError is within the cap but not in this memory; numpy's
        # names the allocation
        print(f"resource budget exceeded: {str(err) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError, ThresholdDomainError) as err:
        # str() of a KeyError is the repr of its message
        text = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"usage error: {text}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())
