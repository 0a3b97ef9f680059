"""One workload in one fresh process: set up, run rounds, check, report.

run.py starts this file; it prints one JSON object as its last stdout
line.  With --setup-only it stops once its inputs are ready, so run.py
can sample set-up time several times per run.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Address-space limit per workload, about twice the peak virtual size of
# the seed commit, so a memory regression ends as a failed op
# (MemoryError) rather than as an OOM kill on a shared machine.
ADDRESS_SPACE_BYTES = {
    "compute-large": 3 << 30,
    "verify-all": 1 << 30,
    "queries": 3 << 29,
}


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(ADDRESS_SPACE_BYTES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _import_package():
    if not (SRC / "ramanujan_primes" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import ramanujan_primes
    import ramanujan_primes.cli  # noqa: F401  (binds ramanujan_primes.cli)
    if Path(ramanujan_primes.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported {ramanujan_primes.__file__}, not {SRC}")
    return ramanujan_primes


def run_round(pkg, workloads, name, inputs, oracle) -> dict:
    """Run every op of one round; time the calls, then check the outputs.

    Latencies are keyed (op index, call index): every round makes the same
    calls in the same order, so a key names the same call in each round.
    """
    latencies, problems = [], []
    attempted = failed = stdout_bytes = 0
    for i, op in enumerate(workloads.ROUNDS[name](pkg, inputs, oracle)):
        outs = []
        try:
            for j, call in enumerate(op.calls):
                start = time.perf_counter()
                try:
                    outs.append(call())
                finally:
                    latencies.append(((i, j), time.perf_counter() - start))
            problem = op.check(outs)
        except Exception as exc:     # a failed op is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        attempted += 1
        stdout_bytes += sum(len(o.text.encode()) for o in outs
                            if isinstance(o, workloads.CliOutput))
        if problem is not None:
            failed += 1
            problems.append(f"{op.label}: {problem}")
    return {"wall": sum(dt for _, dt in latencies), "latencies": latencies,
            "attempted": attempted, "failed": failed, "problems": problems,
            "stdout_bytes": stdout_bytes}


def _percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _typical_round(rounds) -> float:
    """Sum over a round's calls of each call's median time across rounds.

    Every round makes the same calls on the same inputs, so this is the
    round time with each call at its typical speed; a burst of load from
    elsewhere on a shared machine slows one call of one round and drops out.
    """
    times = defaultdict(list)
    for r in rounds:
        for key, dt in r["latencies"]:
            times[key].append(dt)
    return sum(statistics.median(v) for v in times.values())


def layer_metrics(tracing, workloads, spans, traced, untraced) -> dict:
    """Per-layer metrics, per traced round, from the recorded spans."""
    rounds = len(traced)
    out = {}
    for name, row in tracing.summarize(spans).items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value / rounds
    for cid in workloads.CAMPAIGN_IDS:
        out[f"verify.{cid}.s"] = sum(
            s[4] - s[3] for s in spans
            if s[2] == "verify.run_campaign" and s[5]["cid"] == cid) / rounds
    sieved = sum(s[5]["limit"] + 1 for s in spans
                 if s[2] == "primes.build_table")
    grows = [s[5] for s in spans
             if s[2] == "ramanujan.TableCache.get" and s[5]]
    gets = out.get("ramanujan.TableCache.get.calls", 0)
    scanned = tracing.attr_sum(spans, "ramanujan.ramanujan_prefix", "cutoff")
    r_last = tracing.attr_sum(spans, "ramanujan.ramanujan_prefix", "r_last")
    out.update({
        "primes.build_table.integers": sieved / rounds,
        "primes.pi_cumulative.bytes": 8 * tracing.attr_sum(
            spans, "primes.pi_cumulative", "hi") / rounds,
        "ramanujan.TableCache.get.grows": len(grows) / rounds,
        "ramanujan.TableCache.get.hits": gets - len(grows) / rounds,
        "ramanujan.sieve_efficiency":
            sum(g["new"] - g["old"] for g in grows) / sieved if sieved else 0.0,
        "ramanujan.ramanujan_prefix.integers_scanned": scanned / rounds,
        "ramanujan.ramanujan_prefix.values": tracing.attr_sum(
            spans, "ramanujan.ramanujan_prefix", "n") / rounds,
        "ramanujan.cutoff_overshoot": scanned / r_last if r_last else 0.0,
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in traced) / rounds,
        "tracing_overhead_s": _typical_round(traced)
        - _typical_round(untraced),
    })
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    limit = ADDRESS_SPACE_BYTES[args.workload]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    pkg = _import_package()
    import numpy
    import workloads
    inputs = workloads.INPUTS[args.workload](random.Random(args.seed))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    oracle = workloads.ORACLES[args.workload](inputs)
    untraced, traced = [], []
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    start = time.perf_counter()

    def another_round_fits() -> bool:
        spent = time.perf_counter() - start
        return spent + spent / len(untraced + traced) <= args.seconds

    # Untraced and traced rounds alternate so drift hits both alike.
    while (not untraced or (tracer and not traced)
           or another_round_fits()):
        if tracer is None or len(untraced) <= len(traced):
            untraced.append(run_round(pkg, workloads, args.workload, inputs,
                                      oracle))
            continue
        tracer.install()
        try:
            traced.append(run_round(pkg, workloads, args.workload, inputs,
                                    oracle))
        finally:
            tracer.uninstall()

    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    latencies = [dt for r in untraced for _, dt in r["latencies"]]
    metrics = {
        "setup_s": setup_s,
        "wall_s": _typical_round(untraced),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok": 1 - failed / attempted,
        "query_p50_s": _percentile(latencies, 0.5),
        "query_p90_s": _percentile(latencies, 0.9),
    }
    if tracer is not None:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        tracer.write(results / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics.update(layer_metrics(tracing, workloads, tracer.spans,
                                     traced, untraced))
    print(json.dumps({
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": [p for r in rounds for p in r["problems"]][:20],
        "rounds": {"untraced": [r["wall"] for r in untraced],
                   "traced": [r["wall"] for r in traced]},
        "calls": len(latencies), "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
