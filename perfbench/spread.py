#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed for each
workload (untraced), then prints, per workload and metric, the median, the
first and third quartile (statistics.quantiles(values, n=4)) and the
interquartile distance as a share of the median, next to a third of the
metric's bound. Run it from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--workloads serve-hit,solve-ilp]
                                [--seed0 1] [--json out.json] [--logdir DIR]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    ap.add_argument("--logdir", default="", help="keep each run's standard error here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {}
    ok = True
    for w in names:
        values = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if args.logdir:
                os.makedirs(args.logdir, exist_ok=True)
                with open(os.path.join(args.logdir, f"{w}-{seed}.log"), "w") as f:
                    f.write(out.stderr)
            line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            rep = json.loads(line)
            if out.returncode != 0 or not rep.get("correct"):
                print(f"{w} seed {seed}: exit {out.returncode}, result {line}", file=sys.stderr)
                ok = False
                continue
            for name, m in rep["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(rep["metrics"].items())), file=sys.stderr)
        rows = {}
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vals}
            third = bounds.get(name, 0) / 3
            flag = "" if name == "setup_s" or spread <= third else "  <-- above bound/3"
            print(f"{w:11s} {name:13s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {100 * spread:6.2f}%  (bound/3 {100 * third:5.2f}%){flag}")
        results[w] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
