"""Run the benchmark over several seeds and record medians and quartiles.

    python3 perfbench/record.py --seeds 1..10 --out perfbench/baseline.json

For every workload, each seed is one ``run.py --trace 0`` run of
``run_seconds`` (from ``BENCHMARK.json``).  Every end-to-end metric gets its
median, its quartiles (``statistics.quantiles``, n=4) and its spread, the
distance between the quartiles as a share of the median.  One traced run
per workload, with the first seed, adds the per-layer numbers.  The record
also names the machine and Python it ran on, since numbers from different
machines do not compare.
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

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else 0.0, "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1..10", help="inclusive range, e.g. 1..10")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    record = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version()},
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"runs": len(runs), "ops_attempted": attempted, "ops_failed": failed,
                 "error_rate": failed / attempted, "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, {attempted} ops, {failed} failed")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summary(values)
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            print(f"  {name:14s} median {stats['median']:12.6g} {stats['unit']:4s} "
                  f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                  f"spread {100 * stats['spread']:5.2f} %")
        traced = one_run(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {"seed": seeds[0], "ops_failed": traced["failed"],
                              "metrics": traced["metrics"]}
        record["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
