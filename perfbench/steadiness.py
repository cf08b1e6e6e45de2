"""Run-to-run spread of the end-to-end metrics, one seed per run.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b]

Runs ``BENCHMARK.json``'s command once per seed (1..runs) on each
workload and reports, per metric, the median and the distance between
the first and third quartiles as a share of the median -- the spread
the benchmark's bounds are judged against (``statistics.quantiles`` with
``n=4``).  A spread above a third of the metric's bound is flagged,
``setup_s`` included, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            results.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct "
                  f"{result['correct']}, failed {result['failed']}/"
                  f"{result['attempted']}", flush=True)
        print(f"\n{workload}: mean run wall "
              f"{statistics.mean(r['wall_s'] for r in results):.1f} s")
        for name, bound in bounds.items():
            med, rel = spread([r["metrics"][name]["value"]
                               for r in results])
            flag = "" if rel < bound / 3 else "  <-- above bound/3"
            flagged += bool(flag)
            print(f"  {name:16s} median {med:12.4f}  IQR/median "
                  f"{rel:7.4f}  (bound {bound}){flag}")
        print(flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
