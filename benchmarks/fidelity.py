"""Check that traced runs reproduce the known cost split of the layers.

    python3 benchmarks/fidelity.py [--seed 1] [--seconds 20]

Runs the traced compute-large and verify-all workloads through run.py and
checks, from their per-layer metrics and span files:

- compute-large: ramanujan_prefix.self_s > FACTOR * build_table.s and
  build_table.s > FACTOR * certify_tail.s (the scan, not the sieve or the
  certificate, is the cost);
- verify-all: inside mps_holds, certify_tail takes the largest share of
  the time.

Prints one PASS or FAIL line per check.  The exit status says which
checks failed: 1 for compute-large, 2 for verify-all, 3 for both, so the
compute-large split still gates when verify-all fails on its own.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
FACTOR = 3.0


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                    workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", "1"], check=True, stdout=subprocess.DEVNULL,
                   cwd=HERE.parent)
    record = json.loads(
        (HERE / "results" / f"{workload}-seed{seed}-trace1.json").read_text())
    return {name: m["value"] for name, m in record["metrics"].items()}


def share_under(spans_path: Path, root: str) -> dict[str, float]:
    """Self time of every span name below spans named root, root included."""
    spans = [json.loads(line) for line in spans_path.open()]
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    under = {}
    for s in spans:       # parents precede children in id order
        p = s["parent"]
        if s["name"] == root or (p >= 0 and under.get(p)):
            under[s["id"]] = True
    out = defaultdict(float)
    for s in spans:
        if under.get(s["id"]):
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
    return dict(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)

    m = traced_run("compute-large", args.seed, args.seconds)
    scan = m["ramanujan.ramanujan_prefix.self_s"]
    sieve = m["primes.build_table.s"]
    cert = m["bounds.certify_tail.s"]
    split = scan > FACTOR * sieve > FACTOR * FACTOR * cert
    print(f"compute-large: ramanujan_prefix.self_s {scan:.4f} s, "
          f"build_table.s {sieve:.4f} s, certify_tail.s {cert:.6f} s "
          f"-> {'PASS' if split else 'FAIL'}")

    traced_run("verify-all", args.seed, args.seconds)
    shares = share_under(
        HERE / "results" / f"spans-verify-all-seed{args.seed}.jsonl",
        "ramanujan.mps_holds")
    total = sum(shares.values())
    for name, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  mps_holds share {name}: {secs:.3f} s "
              f"({100 * secs / total:.1f}%)")
    top = max(shares, key=shares.get)
    share = top == "bounds.certify_tail"
    print(f"verify-all: largest share of mps_holds.s is {top} "
          f"-> {'PASS' if share else 'FAIL'}")
    return (0 if split else 1) + (0 if share else 2)


if __name__ == "__main__":
    sys.exit(main())
