#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload fanout16 --runs 10

Run it from the root of a checkout. Each run goes through run.py with its
own seed. For every metric it prints the median of the runs and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of the bound
is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                           cwd=ROOT, capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print(f"seed {seed}: exit {r.returncode}\n{r.stderr}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        status = "" if res["correct"] else "  NOT CORRECT"
        steal = next((l.split(": ", 1)[1] for l in lines if l.startswith("# host steal time")), "not read")
        print(f"seed {seed}: attempted {res['attempted']}, failed {res['failed']}, host steal {steal}{status}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{'metric':32s} {'median':>12s} {'spread':>8s} {'bound':>6s}  values")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " *" if bound and spread > bound / 3 else ""
        print(f"{name:32s} {med:12.5g} {spread:8.3f} {bound if bound else '':>6}{flag:2s}  "
              + " ".join(f"{v:.4g}" for v in vs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
