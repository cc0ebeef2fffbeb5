"""The benchmark's span tracer binds plaplab functions by module and name.

A traced benchmark run fails if one of them is renamed or deleted, so the
bindings are checked here, without running the benchmark.
"""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


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
