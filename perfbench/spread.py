#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads battery solve ballstats \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--out FILE]

Runs perfbench/run.py untraced once per (workload, seed), one process at a
time, with BENCHMARK.json's run_seconds.  For every metric it prints the median,
the quartiles from statistics.quantiles(values, n=4) and the spread
(q3 - q1) / median, next to the bound BENCHMARK.json fixes.  With --out the
runs and the summary are written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {}
    summary = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            info_line, result_line = proc.stdout.strip().splitlines()[-2:]
            result = json.loads(result_line)
            info = json.loads(info_line[len("info "):])
            runs[workload].append({"seed": seed, "result": result,
                                   "pass_wall_s": info["pass_wall_s"],
                                   "setup_imports_s": info["setup_imports_s"],
                                   "loadavg_1min": info["env"]["loadavg_1min"]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in
                             result["metrics"].items()),
                  flush=True)
        summary[workload] = {}
        for name in runs[workload][0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / med if med else 0.0,
                                       "bound": bounds[name]}
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{workload:10s} {name:28s} median={s['median']:.4g} "
                  f"q1={s['q1']:.4g} q3={s['q3']:.4g} spread={s['spread']:.3f} "
                  f"bound={s['bound']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": args.seeds, "summary": summary,
                       "runs": runs}, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
