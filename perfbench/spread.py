#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed N] [--seconds S]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload with tracing off (for run_seconds from BENCHMARK.json
unless --seconds is given), then prints for every end-to-end metric
its median over the runs and the distance between the first and third
quartile as a share of that median, next to the metric's bound in
BENCHMARK.json.  Raw results go to .perfbench/spread-<workload>.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    a = ap.parse_args()
    steady = True
    for workload in a.workload or [w["name"] for w in spec["workloads"]]:
        results, walls = [], []
        for seed in range(a.first_seed, a.first_seed + a.runs):
            t0 = time.perf_counter()
            r = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(a.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            walls.append(time.perf_counter() - t0)
            results.append(json.loads(r.stdout.strip().splitlines()[-1]))
            if not results[-1]["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                steady = False
        os.makedirs(".perfbench", exist_ok=True)
        with open(os.path.join(".perfbench", f"spread-{workload}.json"), "w") as f:
            json.dump(results, f, indent=1)
        print(f"{workload}: {a.runs} runs, longest {max(walls):.1f} s")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            sp = stats.spread(values)
            gated = m["name"] != "setup_s"
            ok = sp <= m["bound"] / 3 or not gated
            steady = steady and ok
            print(f"  {m['name']:<22} median {stats.median(values):<12.6g} "
                  f"{m['unit']:<6} spread {sp:6.3f}  bound {m['bound']:.2f}"
                  + ("" if ok else "  > bound/3"))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
