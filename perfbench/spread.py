"""Run the benchmark over several seeds and report each metric's spread.

For every end-to-end metric of every workload named, prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  Runs are made one after another, each in
its own process, from the root of the checkout::

    python3 perfbench/spread.py --workload check-k6 --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable if bench["command"][0] == "python3" else bench["command"][0]]
    cmd += bench["command"][1:]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name, repeatable, or 'all'")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if "all" in args.workload else args.workload
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    worst = 0.0
    for workload in workloads:
        results = [run_once(bench, workload, seed, seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        summary[workload] = {"seeds": seeds, "seconds": seconds, "failed": failed,
                             "attempted": sum(r["attempted"] for r in results),
                             "metrics": {}}
        print("%s  seeds %s  failed %d" % (workload, args.seeds, failed))
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            s["bound"] = bound
            summary[workload]["metrics"][name] = s
            if name != "setup_s":
                worst = max(worst, s["spread"] / bound)
            print("  %-13s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %.2f)%s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], bound,
                     "" if s["spread"] < bound / 3 else "  <-- over a third of its bound"))
    print("largest spread / bound, setup_s aside: %.3f" % worst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
