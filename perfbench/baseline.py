"""Record a point of the perf trajectory: run every workload over several
seeds, plus one traced run each, and write medians, quartiles and spreads.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline/seed.json

Every run lasts BENCHMARK.json's ``run_seconds``, as the benchmark's own
runs do, and the record is labelled with git HEAD.

The spread of a metric is (q3 - q1) / median over the seeds, with quartiles
from ``statistics.quantiles(values, n=4)``; it is what BENCHMARK.json's
bounds are checked against.  Runs go one at a time, alternating workloads,
so that a slow stretch of the machine does not land on one workload only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True, cwd=ROOT).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    results = {w["name"]: [] for w in bench["workloads"]}
    for seed in args.seeds:
        for workload in results:
            results[workload].append(run(workload, seed, bench["run_seconds"], 0))
    record = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload, runs in results.items():
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                           for name in runs[0]["metrics"]},
        }
        traced = run(workload, args.seeds[0], bench["run_seconds"], 1)
        entry["traced_seed"] = args.seeds[0]
        entry["traced_failed"] = traced["failed"]
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
        print(f"{workload}: fail {entry['failed']}/{entry['attempted']}")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:12s} median={s['median']:.4f} q1={s['q1']:.4f} "
                  f"q3={s['q3']:.4f} spread={s['spread']:.3f}")
        for name, value in entry["per_layer"].items():
            if value:
                print(f"  {name:40s} {value:.6g}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
