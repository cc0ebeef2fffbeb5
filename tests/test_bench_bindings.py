"""The benchmark's span tracer binds plaplab functions by module and name,
its ballstats workload checks plaplab's ball values against its own
float-membership reference, its battery workload counts every report
assertion and every non-finite fitted constant as a failure, and its solve
workload counts every solve whose residual misses the target or whose energy
trace rises.

A traced benchmark run fails if a traced function is renamed or deleted, or
if a plaplab module holds a binding of one that the tracer cannot patch, and
a benchmark run counts failures if the ball values drift from the reference,
a report assertion fails or a solve misses its checks, so all of these are
checked here: the bindings by installing and uninstalling the tracer
in-process, the ballstats, battery and solve checks in-process at the smoke
size.
"""

import contextlib
import importlib
import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = _spans()
    for module in spans.PLAPLAB_MODULES:
        importlib.import_module(module)
    missing = [f"{module}.{attr}" for _, module, attr in spans.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing
    assert callable(importlib.import_module("plaplab.grid").Mesh)


def test_tracer_installs_and_uninstalls_in_process():
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()         # RuntimeError for a binding left unwrapped
    try:
        stepfun = importlib.import_module("plaplab.rearrange.stepfun")
        stepfun.lq_norm(stepfun.StepFunction([2.0, 1.0], [0.5, 0.5]), 2.0)
        assert "rearrange.lq_norm" in tracer.names
    finally:
        tracer.uninstall()
    wrapped = [f"{module}.{attr}" for _, module, attr in spans.TRACED
               if not getattr(importlib.import_module(module), attr).__module__
               .startswith("plaplab")]
    assert not wrapped


def test_ballstats_workload_checks_pass_at_smoke_size(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    bench = workloads.BallStats("smoke", str(tmp_path))
    inputs = bench.setup(3)
    out = bench.run(inputs, lambda name: contextlib.nullcontext())
    attempted, failed = bench.check(inputs, out)
    assert attempted > 0 and failed == 0
    attempted, failed = bench.check_batched(inputs)
    assert attempted > 0 and failed == 0
    defect = bench.offset_defect(inputs)
    assert defect["balls_checked"] > 0 and defect["balls_over_tol"] == 0


def test_battery_workload_checks_pass_at_smoke_size(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    bench = workloads.Battery("smoke", str(tmp_path))
    cfg = bench.setup(3)
    reports = bench.run(cfg, lambda name: contextlib.nullcontext())
    attempted, failed = bench.check(cfg, reports)
    assert attempted > 0 and failed == 0


def test_solve_workload_checks_pass_at_smoke_size(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    bench = workloads.Solve("smoke", str(tmp_path))
    problems = bench.setup(3)
    solutions = bench.run(problems, lambda name: contextlib.nullcontext())
    attempted, failed = bench.check(problems, solutions)
    assert attempted > 0 and failed == 0
