"""In-memory span tracing of plaplab's public functions.

A `Tracer` replaces every binding of a traced function in every loaded
`plaplab.*` namespace with a wrapper that records one span per call: name,
start, end and parent span.  Spans live in flat arrays while the run lasts
and are written out once at the end.  Per-layer metrics are aggregated from
them: calls, inclusive seconds and self seconds (a span's duration minus
the time its child spans cover).

Only the benchmark's own files are touched; the library is patched at run
time and restored by `uninstall`.
"""

import hashlib
import importlib
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (span name, defining module, attribute): each traced public function
TRACED = [
    ("solver.solve", "plaplab.solver", "solve"),
    ("solver.residual", "plaplab.solver", "residual"),
    ("solver.regularized_energy", "plaplab.solver", "regularized_energy"),
    ("grid.gradient", "plaplab.grid", "gradient"),
    ("grid.ball_elements", "plaplab.grid", "ball_elements"),
    ("grid.ball_oscillation", "plaplab.grid", "ball_oscillation"),
    ("grid.read_elem_field", "plaplab.grid", "read_elem_field"),
    ("maximal.sharp_maximal", "plaplab.maximal", "sharp_maximal"),
    ("maximal.weighted_local_sharp", "plaplab.maximal", "weighted_local_sharp"),
    ("oscillation.ball_family_oscillations", "plaplab.oscillation",
     "ball_family_oscillations"),
    ("oscillation.campanato_seminorm", "plaplab.oscillation", "campanato_seminorm"),
    ("oscillation.vmo_modulus", "plaplab.oscillation", "vmo_modulus"),
    ("oscillation.holder_seminorm", "plaplab.oscillation", "holder_seminorm"),
    ("oscillation.oscillation_potential", "plaplab.oscillation",
     "oscillation_potential"),
    ("rearrange.rearrange", "plaplab.rearrange.stepfun", "rearrange"),
    ("rearrange.lq_norm", "plaplab.rearrange.stepfun", "lq_norm"),
    ("rearrange.lorentz_norm", "plaplab.rearrange.stepfun", "lorentz_norm"),
    ("rearrange.luxemburg_norm", "plaplab.rearrange.stepfun", "luxemburg_norm"),
    ("rearrange.marcinkiewicz_norm", "plaplab.rearrange.stepfun",
     "marcinkiewicz_norm"),
    ("rearrange.hardy_check_avg", "plaplab.rearrange.hardy", "hardy_check_avg"),
    ("rearrange.hardy_check_tail", "plaplab.rearrange.hardy", "hardy_check_tail"),
    ("rearrange.orlicz_target", "plaplab.rearrange.young", "orlicz_target"),
    ("fluxmaps.a_map", "plaplab.fluxmaps", "a_map"),
    ("fluxmaps.v_map", "plaplab.fluxmaps", "v_map"),
    ("lab.norm_table", "plaplab.lab.experiments", "norm_table"),
]
MESH_SPAN = "grid.Mesh"          # Mesh.__init__, wrapped on the class
EXPERIMENT_NAMES = ["basic-estimate", "decay", "oscillation", "potential",
                    "example55", "reduction"]
REPORT_SPAN = "lab.report"       # write_json + write_csv, spanned by the battery

# every plaplab module that may hold a by-name import of a traced function
PLAPLAB_MODULES = [
    "plaplab", "plaplab.fluxmaps", "plaplab.grid", "plaplab.solver",
    "plaplab.maximal", "plaplab.oscillation", "plaplab.rearrange",
    "plaplab.rearrange.stepfun", "plaplab.rearrange.young",
    "plaplab.rearrange.hardy", "plaplab.lab", "plaplab.lab.cases",
    "plaplab.lab.config", "plaplab.lab.report", "plaplab.lab.experiments",
    "plaplab.lab.cli",
]


def _digest(arr):
    a = np.ascontiguousarray(arr)
    return hashlib.sha1(a.view(np.uint8).ravel()).hexdigest() + str(a.shape)


class SolveStats:
    """Per-call record of `solver.solve`: problem identity, iterations, time."""

    def __init__(self):
        self.keys = []
        self.iterations = 0
        self.nonconverged = 0
        self.p2_m128_s = []

    def observe(self, args, kwargs, result, error, seconds):
        # the key is the problem and start iterate, not the solver settings
        prob = args[0] if args else kwargs["prob"]
        u0 = args[2] if len(args) > 2 else kwargs.get("u0")
        M = prob.mesh.cells_per_side
        self.keys.append((prob.p.p, prob.mesh.bounds, M, _digest(prob.F.tensors),
                          _digest(prob.g), None if u0 is None else _digest(u0.values)))
        if error is not None:
            if type(error).__name__ == "NonConvergenceError":
                self.nonconverged += 1
            return
        self.iterations += result.iterations
        if prob.p.p == 2.0 and M == 128:
            self.p2_m128_s.append(seconds)


class Tracer:
    """Span recorder plus the patching that routes plaplab calls through it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patched = []
        self.solves = SolveStats()
        self.family_balls = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name, fn, observe=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self._close(i)
                if observe is not None:
                    observe(args, kwargs, result, error, self.end[i] - self.start[i])

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _observers(self):
        def family(args, kwargs, result, error, seconds):
            centers = args[2] if len(args) > 2 else kwargs["centers"]
            radii = args[3] if len(args) > 3 else kwargs["radii"]
            self.family_balls += len(centers) * len(radii)

        return {"solver.solve": self.solves.observe,
                "oscillation.ball_family_oscillations": family}

    def install(self):
        """Route every plaplab binding of a traced function through a span."""
        modules = [importlib.import_module(m) for m in PLAPLAB_MODULES]
        observers = self._observers()
        originals = {}
        for span, mod, attr in TRACED:
            fn = getattr(importlib.import_module(mod), attr)
            originals[id(fn)] = (fn, self.wrap(span, fn, observers.get(span)))
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patched.append((module, key, value))
                    setattr(module, key, originals[id(value)][1])
        mesh_cls = importlib.import_module("plaplab.grid").Mesh
        init = mesh_cls.__init__
        self._patched.append((mesh_cls, "__init__", init))
        mesh_cls.__init__ = self.wrap(MESH_SPAN, init)
        leftovers = unwrapped_bindings([fn for fn, _ in originals.values()] + [init])
        if leftovers:
            self.uninstall()
            raise RuntimeError(f"traced functions still bound unwrapped: {leftovers}")

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end))

    def totals(self, lo, hi):
        """Per span name: (calls, inclusive s, self s) over spans [lo, hi)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))[lo:hi]
        nested = parent >= lo
        child = np.bincount(parent[nested] - lo, weights=dur[nested],
                            minlength=hi - lo)
        own = dur - child
        n = len(self.names)
        return (np.bincount(nid, minlength=n),
                np.bincount(nid, weights=dur, minlength=n),
                np.bincount(nid, weights=own, minlength=n))


def unwrapped_bindings(originals):
    """Names under which a loaded plaplab module still holds an original."""
    ids = {id(fn) for fn in originals}
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "plaplab" or name.startswith("plaplab.")):
            continue
        for key, value in vars(module).items():
            if id(value) in ids:
                found.append(f"{name}.{key}")
            elif isinstance(value, type) and value.__module__.startswith("plaplab"):
                found += [f"{name}.{key}.{k}" for k, v in vars(value).items()
                          if id(v) in ids]
            elif isinstance(value, dict):
                found += [f"{name}.{key}[{k!r}]" for k, v in value.items()
                          if id(v) in ids]
    return found


def layer_metrics(tracer, pass_ranges, untraced_wall, traced_wall):
    """Per-layer metrics: medians over traced passes, each a span index range."""
    per_pass = [tracer.totals(lo, hi) for lo, hi in pass_ranges]
    index = {name: i for i, name in enumerate(tracer.names)}
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def median_of(name, column):
        i = index.get(name)
        return statistics.median(p[column][i] for p in per_pass) if i is not None else 0.0

    for name in [s for s, _, _ in TRACED] + [MESH_SPAN]:
        put(f"{name}.calls", median_of(name, 0), "count")
        put(f"{name}.s", median_of(name, 1), "s")
        put(f"{name}.self_s", median_of(name, 2), "s")
    for name in [f"lab.exp.{e}" for e in EXPERIMENT_NAMES] + [REPORT_SPAN]:
        put(f"{name}.s", median_of(name, 1), "s")

    n_pass = len(pass_ranges)
    stats = tracer.solves
    calls = len(stats.keys) // n_pass
    distinct = len(set(stats.keys[:calls]))
    iters = stats.iterations / n_pass
    solve_s = out["solver.solve.s"]["value"]
    put("solver.solve.distinct", distinct, "count")
    put("solver.solve.unique_frac", distinct / calls if calls else 0.0, "ratio")
    put("solver.outer_iters", iters, "count")
    put("solver.s_per_outer_iter", solve_s / iters if iters else 0.0, "s")
    put("solver.nonconverged", stats.nonconverged / n_pass, "count")
    put("solver.linear_s",
        statistics.median(stats.p2_m128_s) if stats.p2_m128_s else 0.0, "s")
    put("solver.solves_per_s", calls / untraced_wall if untraced_wall else 0.0, "1/s")
    put("oscillation.family.balls", tracer.family_balls / n_pass, "count")
    put("trace.overhead_frac", traced_wall / untraced_wall - 1.0, "ratio")
    return out
