"""Measure every workload over several seeds and write BASELINE.json.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads wide,cycles]

For each workload, one ``run.py --trace 0`` run per seed gives each
end-to-end metric's median, quartiles and spread (the distance between the
quartiles as a share of the median, the figure each bound is set against),
and one ``--trace 1`` run on the first seed gives the per-layer metrics.
The result, with the machine's facts, goes to ``perfbench/BASELINE.json``.
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


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = run(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        summary = {"runs": len(runs), "failed": sum(r["failed"] for r in runs),
                   "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            summary["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                "bound": bounds[name], "unit": runs[0]["metrics"][name]["unit"]}
        traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
        summary["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        workloads[workload] = summary

    document = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "os.cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seeds": args.seeds,
        "run_seconds": spec["run_seconds"],
        "workloads": workloads,
    }
    (HERE / "BASELINE.json").write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    for workload, summary in workloads.items():
        print(f"{workload:10s} error_rate   {summary['failed'] / summary['attempted']:.4f} "
              f"({summary['failed']} of {summary['attempted']} invocations)")
        for name, row in summary["end_to_end"].items():
            print(f"{workload:10s} {name:12s} median {row['median']:12.4f} {row['unit']:8s} "
                  f"spread {row['spread']:.4f} (bound {row['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
