#!/usr/bin/env python3
"""plaplab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {battery,solve,ballstats} --seed N \
        --seconds S --trace {0,1} [--size {bench,smoke,full}]

The library is imported from the src/ directory beside perfbench/.  The
process pins BLAS and OpenMP to one thread before numpy is imported.  It
times its imports again in four fresh interpreters and builds the
workload's inputs from the seed five times; setup_s adds the two medians.
It then repeats timed passes until the next one would end after S seconds
(at least one pass, two when traced).  With --trace 1, odd passes run with
every plaplab binding of the traced functions wrapped in spans and even
passes run plain, which gives the tracing overhead.

stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}, holding the end-to-end metrics untraced and the per-layer
metrics traced.  The line before it starts with "info " and carries the
environment, pass and set-up times, report digests and, when traced, the
known-defect measurement.
A full record and, when traced, the spans are written to perfbench/out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 5
# what run.py imports before it builds inputs, timed in a fresh interpreter
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spans, workloads; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["battery", "solve", "ballstats"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["bench", "smoke", "full"], default="bench")
    return ap.parse_args(argv)


def environment(load1):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min": load1,
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    load1 = os.getloadavg()[0]
    sys.path.insert(0, SRC)
    import spans
    import workloads

    import_s = time.perf_counter() - T_START
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.size, workdir)
    try:
        return measure(args, workload, import_s, load1, spans, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def import_probes(n):
    """Import times of n fresh interpreters, one after the other."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                                 check=True, capture_output=True, text=True).stdout)
            for _ in range(n)]


def measure(args, workload, import_s, load1, spans, workloads):
    imports = [import_s] + import_probes(SETUP_REPS - 1)
    builds = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)

    tracer = spans.Tracer() if args.trace else None
    walls = {False: [], True: []}
    cpus = []
    ranges = []
    attempted = failed = 0
    crashed = None
    digests = []
    t_begin = time.perf_counter()
    n_pass = 0
    while True:
        traced = bool(args.trace) and n_pass % 2 == 1
        if traced:
            tracer.install()
            lo = len(tracer.name_id)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = workload.run(inputs, tracer.span if traced else _no_span)
        except Exception:
            crashed = traceback.format_exc()
            print(crashed, file=sys.stderr)
            break
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if traced:
                ranges.append((lo, len(tracer.name_id)))
                tracer.uninstall()
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)
        a, f = workload.check(inputs, out)
        attempted += a
        failed += f
        if args.workload == "battery":
            digests.append(workload.digests())
        n_pass += 1
        elapsed = time.perf_counter() - t_begin
        typical = statistics.median(walls[False] + walls[True])
        if n_pass >= 1 + args.trace and elapsed + typical > args.seconds:
            break

    info = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "env": environment(load1),
            "setup_builds_s": builds, "setup_imports_s": imports,
            "pass_wall_s": walls[False], "traced_pass_wall_s": walls[True],
            "pass_cpu_s": cpus}
    if digests:
        # every pass of one seed must write byte-identical reports
        for later in digests[1:]:
            attempted += len(later)
            failed += sum(later[k] != digests[0][k] for k in later)
        info["report_sha256"] = digests[0]
    if args.workload == "ballstats" and crashed is None:
        a, f = workload.check_batched(inputs)
        attempted += a
        failed += f
        if args.trace:
            info["known_defect"] = dict(
                workload.offset_defect(inputs),
                what="whole batched ball family vs direct values on the table "
                     f"shifted by {workloads.TABLE_OFFSET:g} (expanded-square "
                     "cancellation); not counted as a failure")
    if crashed is not None:
        attempted += 1
        failed += 1
        info["crash"] = crashed.strip().splitlines()[-1]
    info["fail_frac"] = failed / attempted if attempted else 1.0

    if args.trace:
        metrics = (spans.layer_metrics(tracer, ranges,
                                       statistics.median(walls[False]),
                                       statistics.median(walls[True]))
                   if ranges else {})
        metrics["oscillation.family.max_rel_err"] = {
            "value": float(info.get("known_defect", {}).get("max_rel_err", 0.0)),
            "unit": "ratio"}
        tracer.save(os.path.join(OUT, f"spans-{args.workload}-{args.size}.npz"))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False] or [0.0]), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus or [0.0]), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {"correct": crashed is None and failed == 0,
              "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    record = os.path.join(
        OUT, f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1, sort_keys=True)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def _no_span(name):
    return nullcontext()


if __name__ == "__main__":
    sys.exit(main())
