"""Benchmark entry point: one workload, one seed, one run.

    python3 benchmarks/run.py --workload compute-large --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  The workload runs in a fresh child process
(benchmarks/child.py) as a closed loop: one client thread issuing its next
call only after the previous one returned.  With --trace 0 the run reports
the end-to-end metrics and also starts a few set-up-only children,
before and after the measuring one, to sample set-up time; with --trace 1 it reports the per-layer metrics from
spans recorded around the package's public functions.  Every metric is
printed by name with its unit, and the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Metric names and units
come from BENCHMARK.json; a full record with run metadata is written to
benchmarks/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7      # set-up-only children, plus the measuring child
RUN_TIMEOUT_S = 170    # the whole run must end within 180 s


def _git_commit() -> str:
    """HEAD from .git without running git; 'unknown' outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _l3_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size") \
            .read_text().strip()
    except OSError:
        return "unknown"


def metadata(spec: dict, args) -> dict:
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": args.workload, "why": why.get(args.workload, ""),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_size": _l3_size(),
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[key] = "1"
    # the CLI reads these; the benchmark wants the defaults
    env.pop("RAMANUJAN_PRIMES_THREADS", None)
    env.pop("RAMANUJAN_PRIMES_CAP", None)
    return env


def _spawn(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_child_env(),
                          timeout=max(1.0, deadline - time.monotonic()),
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload child exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Set-up samples are taken half before and half after the measuring
    # child, so their median spans the whole run, not one moment of it.
    samples = 0 if args.trace else SETUP_SAMPLES
    try:
        setups = [_spawn(args, deadline, True)["setup_s"]
                  for _ in range(samples // 2)]
        child = _spawn(args, deadline, False)
        setups += [_spawn(args, deadline, True)["setup_s"]
                   for _ in range(samples - samples // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    measured = child["metrics"]
    setups.append(measured["setup_s"])
    measured["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1

    meta = metadata(spec, args)
    meta["numpy"] = child["numpy"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "setup_samples": setups,
              "rounds": child["rounds"], "calls": child["calls"],
              "problems": child["problems"]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))

    for key in ("workload", "seed", "commit", "nproc", "cpu_model",
                "l3_size", "python", "numpy"):
        print(f"# {key}: {meta[key]}")
    print(f"# rounds: {len(child['rounds']['untraced'])} untraced, "
          f"{len(child['rounds']['traced'])} traced; calls: {child['calls']}")
    for problem in child["problems"]:
        print(f"# FAILED {problem}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": child["failed"] == 0,
                      "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
