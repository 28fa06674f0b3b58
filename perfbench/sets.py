#!/usr/bin/env python3
"""Runs two sets of benchmark runs and reports each metric's spread.

Each set runs every workload `--runs` times with consecutive seeds; the
two sets use different seeds and run at different times. For each
end-to-end metric the report gives both sets' medians and quartiles
(statistics.quantiles, n=4), the spread (interquartile distance over the
median), the change of the second median against the first, and the host
steal during the runs. The bounds in BENCHMARK.json are taken from these
reports.

Run from the repository root:

    python3 perfbench/sets.py --runs 10 --workloads fig2-sweep,hijackd-mix,mrt-replay
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def one_run(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    noise = json.loads(lines[-2].split(" ", 1)[1])
    return res, noise, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workloads", default="fig2-sweep,hijackd-mix,mrt-replay")
    ap.add_argument("--seed", type=int, default=1, help="first seed of the first set")
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    record = {w: [] for w in workloads}
    # Each set runs every workload in turn, so the two sets of one
    # workload are taken minutes apart.
    for s in range(args.sets):
        for w in workloads:
            runs = []
            for i in range(args.runs):
                seed = args.seed + s * 1000 + i
                res, noise, wall = one_run(w, seed, args.seconds)
                runs.append({"seed": seed, "result": res, "noise": noise, "wall_s": wall})
                print(f"{w} set {s} seed {seed}: {wall:.0f}s steal {noise['steal_pct']:.1f}% "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                      file=sys.stderr, flush=True)
            record[w].append(runs)
    for w in workloads:
        sets = record[w]
        print(f"\n## {w}")
        print(f"{'metric':16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(bounds):
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["result"]["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                print(f"{name:16} {s:>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bounds[name]:>6}")
            if len(meds) > 1:
                print(f"{'':16} second median vs first: {meds[-1] / meds[0] - 1:+.3f}")
        for s, runs in enumerate(sets):
            steal = [r["noise"]["steal_pct"] for r in runs]
            fails = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
            print(f"set {s}: steal median {statistics.median(steal):.1f}% "
                  f"(min {min(steal):.1f}, max {max(steal):.1f}); failed shares {sorted(fails)}; "
                  f"wall {sum(r['wall_s'] for r in runs):.0f}s")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
