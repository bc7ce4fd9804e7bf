"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/baseline.py [--workloads census,stream,cli] [--seeds 1-10]
                                   [--traced] [--write]

Each run is `run.py` in a fresh process.  For every end-to-end metric this
prints the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the spread (q3 - q1) / median next to a third of the metric's bound in
`BENCHMARK.json`.  `--traced` adds one traced run per workload (first seed);
`--write` stores everything, with the machine facts, in `baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
from record_digests import seed_range


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = seed_range(args.seeds)
    report = {"machine": run.machine_facts(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                 "end_to_end": {}}
        for name, bound in bounds.items():
            summary = summarise([r["metrics"][name]["value"] for r in runs], bound)
            entry["end_to_end"][name] = summary
            ok = summary["spread"] < bound / 3
            steady &= ok
            print(f"{workload:7s} {name:18s} median {summary['median']:14.6f}  spread {summary['spread']:.4f}"
                  f"  (bound/3 {bound / 3:.4f}) {'ok' if ok else 'WIDE'}", flush=True)
        if any(entry["failed"]):
            steady = False
            print(f"{workload}: failed operations {entry['failed']}")
        if args.traced:
            traced = one_run(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        detail = json.loads((run.OUT / f"result-{workload}-s{seeds[0]}-t0.json").read_text(encoding="utf-8"))
        entry["inputs"] = detail["inputs"]
        entry["kinds"] = detail["details"]["kinds"]
        report["workloads"][workload] = entry
    if args.write:
        (run.HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
