"""Outside-in tracing of bundlelift for the benchmark's traced run.

The tracer wraps the public entry points of each library layer from the
benchmark's side: it swaps the target function for a wrapper under every
loaded ``bundlelift.*`` module attribute bound to it (so names imported
with ``from .x import y`` are caught too), or on its class for methods.
Nothing in ``src/`` knows about it.

Timed targets record a span (name, start, end, parent) per call; spans
stay in memory until :meth:`Tracer.write_spans`. Hot methods are counted
only, because a span per call would distort the run. A target that does
not exist in the library is listed in ``Tracer.absent`` and its metrics
read 0, so the benchmark keeps running while layers are merged or deleted.

Metric names use the module name without its leading underscore
(``kernels.*`` measures ``bundlelift._kernels``), because benchmark metric
names must start with a letter or digit.
"""

import contextlib
import functools
import inspect
import json
import sys
import time

PACKAGE = "bundlelift"

SCENARIOS = (
    "ambient_projection", "cpn_conjugation", "frame_view", "gluing_demo",
    "grassmann_action", "homotopy_lift_sphere", "metrize_random",
    "s1xs2_generators", "sphere_pullbacks", "tangent_isometry", "torus_sweep",
)


# ---------------------------------------------------------------------------
# Work counted from a call's arguments, by parameter name.


def _probes(a):
    return {"probes": int(a["samples"])}


def _rk4_work(a):
    qp, qnode, x0 = a["qp"], a["qnode"], a["x0"]
    steps = qnode.shape[0] - 1
    n = qnode.shape[1]
    k = x0.shape[1] if x0.ndim == 2 else 1
    # per step: four stage products and the re-projection (2 n^2 k flops
    # each) plus 14 n k for the stage combinations; bytes are the operand
    # arrays read once and the result written once
    return {"steps": steps,
            "flops_computed": steps * (10 * n * n * k + 14 * n * k),
            "bytes_computed": qp.nbytes + qnode.nbytes + 2 * x0.nbytes}


def _triangles(a):
    return {"triangles": int(a["tris"].shape[0])}


class Target:
    """One wrapped entry point: ``module`` and ``attr`` locate it under
    ``bundlelift``; ``name`` prefixes its metrics."""

    def __init__(self, name, module, attr, timed=True, work=None, params=()):
        self.name = name
        self.module = module
        self.attr = attr
        self.timed = timed
        self.work = work
        self.params = params


TARGETS = (
    Target("lifts.check_lift", "lifts", "check_lift", work=_probes,
           params=("samples",)),
    Target("lifts.Lift.action", "lifts", "Lift.action", timed=False),
    Target("bundles.fiber_projector", "bundles",
           "BundleModel.fiber_projector", timed=False),
    Target("bundles.complex_fiber_projector", "bundles",
           "BundleModel.complex_fiber_projector", timed=False),
    Target("bundles.fiber_basis", "bundles", "BundleModel.fiber_basis"),
    Target("bundles.transport_operator", "bundles", "transport_operator"),
    Target("bundles.transport", "bundles", "transport"),
    Target("kernels.rk4_transport", "_kernels", "rk4_transport",
           work=_rk4_work, params=("qp", "qnode", "x0")),
    Target("kernels.jacobi_eigh", "_kernels", "jacobi_eigh"),
    Target("kernels.plaquette_phases", "_kernels", "plaquette_phases",
           work=_triangles, params=("tris",)),
    Target("kernels.solid_angles", "_kernels", "solid_angles",
           work=_triangles, params=("tris",)),
    Target("numkernel.sym_eigh", "numkernel", "sym_eigh"),
    Target("numkernel.polar_two_metric", "numkernel", "polar_two_metric"),
    Target("obstruction.lattice_chern_number", "obstruction",
           "lattice_chern_number"),
    Target("obstruction.plaquette_phases", "obstruction", "plaquette_phases"),
    Target("obstruction.w1_profile", "obstruction", "w1_profile"),
    Target("obstruction.torus_criterion", "obstruction", "torus_criterion"),
    Target("manifolds.degree", "manifolds", "degree"),
    Target("manifolds.icosphere", "manifolds", "icosphere"),
    Target("manifolds.cpn_homogeneous", "manifolds", "cpn_homogeneous",
           timed=False),
    Target("gluing.cocycle_compat_check", "gluing", "cocycle_compat_check"),
)

CHECK_LIFT = "lifts.check_lift"
TRANSPORT_OPERATOR = "bundles.transport_operator"
FIBER_BASIS = "bundles.fiber_basis"
SYM_EIGH = "numkernel.sym_eigh"


# ---------------------------------------------------------------------------
# The per-layer metrics of the traced run, in report order:
# (name, unit, better, source workloads). A metric is read from the traced
# workers of its source workloads only: those whose end-to-end metrics it
# should move (see perfbench/run.py). So check_lift's probe counts and
# busy time come from the formula lifts alone, and the transport tracks
# that transport lifts run inside check_lift do not swamp them.

TRANSPORT = "transport"
FORMULA_CHECKS = "formula_checks"
INVARIANTS = "invariants"
EVERY = (TRANSPORT, FORMULA_CHECKS, INVARIANTS)

PER_LAYER = (
    # a scenario runs in one workload only
    [(f"cli.{s}.wall_s", "s", "lower", EVERY) for s in SCENARIOS]
    + [
        ("lifts.check_lift.calls", "count", "lower", (FORMULA_CHECKS,)),
        ("lifts.check_lift.probes", "count", "lower", (FORMULA_CHECKS,)),
        ("lifts.check_lift.busy_s", "s", "lower", (FORMULA_CHECKS,)),
        ("lifts.check_lift.self_s", "s", "lower", (FORMULA_CHECKS, TRANSPORT)),
        ("lifts.check_lift.us_per_probe", "us", "lower", (FORMULA_CHECKS,)),
        ("lifts.Lift.action.calls", "count", "lower", (FORMULA_CHECKS,)),
        ("bundles.fiber_projector.calls", "count", "lower", (TRANSPORT,)),
        ("bundles.complex_fiber_projector.calls", "count", "lower", (INVARIANTS,)),
        ("bundles.fiber_basis.calls", "count", "lower", (FORMULA_CHECKS,)),
        ("bundles.fiber_basis.eigensolves", "count", "lower", (FORMULA_CHECKS,)),
        ("bundles.fiber_basis.hit_ratio", "frac", "higher", (FORMULA_CHECKS,)),
        ("bundles.transport_operator.calls", "count", "lower", (TRANSPORT,)),
        ("bundles.transport_operator.busy_s", "s", "lower", (TRANSPORT,)),
        ("bundles.transport_operator.self_s", "s", "lower", (TRANSPORT,)),
        ("bundles.transport.calls", "count", "lower", (TRANSPORT,)),
        ("bundles.transport.busy_s", "s", "lower", (TRANSPORT,)),
        ("bundles.transport.self_s", "s", "lower", (TRANSPORT,)),
        ("bundles.tracks_per_probe", "tracks/probe", "lower", (TRANSPORT,)),
        ("kernels.rk4_transport.calls", "count", "lower", (TRANSPORT,)),
        ("kernels.rk4_transport.steps", "count", "lower", (TRANSPORT,)),
        ("kernels.rk4_transport.busy_s", "s", "lower", (TRANSPORT,)),
        ("kernels.rk4_transport.flops_computed", "flop", "lower", (TRANSPORT,)),
        ("kernels.rk4_transport.bytes_computed", "B", "lower", (TRANSPORT,)),
        ("kernels.jacobi_eigh.calls", "count", "lower", (FORMULA_CHECKS,)),
        ("kernels.jacobi_eigh.busy_s", "s", "lower", (FORMULA_CHECKS,)),
        ("numkernel.sym_eigh.calls", "count", "lower", (FORMULA_CHECKS,)),
        ("numkernel.sym_eigh.busy_s", "s", "lower", (FORMULA_CHECKS,)),
        ("numkernel.sym_eigh.self_s", "s", "lower", (FORMULA_CHECKS,)),
        ("numkernel.polar_two_metric.calls", "count", "lower", (FORMULA_CHECKS,)),
        ("numkernel.polar_two_metric.busy_s", "s", "lower", (FORMULA_CHECKS,)),
        ("kernels.plaquette_phases.triangles", "count", "lower", (INVARIANTS,)),
        ("kernels.plaquette_phases.busy_s", "s", "lower", (INVARIANTS,)),
        ("kernels.solid_angles.triangles", "count", "lower", (INVARIANTS,)),
        ("kernels.solid_angles.busy_s", "s", "lower", (INVARIANTS,)),
        ("obstruction.lattice_chern_number.calls", "count", "lower", (INVARIANTS,)),
        ("obstruction.lattice_chern_number.busy_s", "s", "lower", (INVARIANTS,)),
        ("obstruction.plaquette_phases.self_s", "s", "lower", (INVARIANTS,)),
        ("manifolds.degree.calls", "count", "lower", (INVARIANTS,)),
        ("manifolds.degree.self_s", "s", "lower", (INVARIANTS,)),
        ("manifolds.cpn_homogeneous.calls", "count", "lower", (TRANSPORT, INVARIANTS)),
        ("obstruction.w1_profile.busy_s", "s", "lower", (TRANSPORT,)),
        ("obstruction.torus_criterion.calls", "count", "lower", (TRANSPORT,)),
        ("obstruction.torus_criterion.busy_s", "s", "lower", (TRANSPORT,)),
        ("manifolds.icosphere.busy_s", "s", "lower", (INVARIANTS,)),
        ("gluing.cocycle_compat_check.busy_s", "s", "lower", (FORMULA_CHECKS,)),
        ("trace.overhead_frac", "frac", "lower", EVERY),
    ]
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Counts, busy time, self time and spans for the wrapped targets.

    Single-threaded: the open spans form one stack, and a span's parent is
    the span open when it started.
    """

    def __init__(self):
        self.names = []
        self._index = {}
        self.calls = []
        self.busy = []
        self.self_time = []
        self.work = {}
        self.absent = []
        # columns of the span table; parent is a row index or -1
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        # open spans: [row, name index, start, time covered by children,
        # transport tracks started inside it, probes]
        self._stack = []
        self._undo = []
        self._origin = time.perf_counter()

    def _name_index(self, name):
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self._index[name] = idx
            self.names.append(name)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_time.append(0.0)
        return idx

    def add_work(self, key, amount):
        self.work[key] = self.work.get(key, 0) + amount

    # -- spans -------------------------------------------------------------

    def enter(self, idx):
        row = len(self.span_name)
        parent = self._stack[-1] if self._stack else None
        self.span_name.append(idx)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_end.append(None)
        frame = [row, idx, 0.0, 0.0, 0, 0]
        self._stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        frame[2] = start
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        row, idx, start, children = frame[:4]
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("trace spans closed out of order")
        self.span_end[row] = end
        dur = end - start
        self.calls[idx] += 1
        self.busy[idx] += dur
        self.self_time[idx] += dur - children
        if self._stack:
            self._stack[-1][3] += dur

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed block as one span named ``name``."""
        frame = self.enter(self._name_index(name))
        try:
            yield
        finally:
            self.leave(frame)

    # -- wrapping ----------------------------------------------------------

    def install(self):
        """Wrap every target present in the loaded bundlelift modules."""
        modules = _package_modules()
        for target in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{target.module}")
            owner_name, _, method = target.attr.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, method or target.attr, None) \
                if owner is not None else None
            if original is None or not _accepts(original, target.params):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if owner_name:
                self._rebind(owner, method, original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, original, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, target, fn):
        idx = self._name_index(target.name)
        calls = self.calls
        if not target.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[idx] += 1
                return fn(*args, **kwargs)
            return counted

        enter, leave = self.enter, self.leave
        signature = inspect.signature(fn) if target.work else None
        on_enter, on_leave = self._hooks(target.name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            work = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work = target.work(bound.arguments)
                for key, amount in work.items():
                    self.add_work(f"{target.name}.{key}", amount)
            frame = enter(idx)
            if on_enter is not None:
                on_enter(frame, work)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
                if on_leave is not None:
                    on_leave(frame)
        return timed

    def _hooks(self, name):
        """Work that depends on the enclosing spans: transport tracks run
        inside each check_lift call, and eigensolves run directly inside
        fiber_basis (its cache misses)."""
        if name == CHECK_LIFT:
            def note_probes(frame, work):
                frame[5] = work["probes"]

            def credit_transport(frame):
                if frame[4]:
                    self.add_work("transport_lift.probes", frame[5])
                    self.add_work("transport_lift.tracks", frame[4])
            return note_probes, credit_transport
        if name == TRANSPORT_OPERATOR:
            check_lift = self._name_index(CHECK_LIFT)

            def note_track(frame, work):
                for outer in reversed(self._stack[:-1]):
                    if outer[1] == check_lift:
                        outer[4] += 1
                        break
            return note_track, None
        if name == SYM_EIGH:
            fiber_basis = self._name_index(FIBER_BASIS)

            def note_eigensolve(frame, work):
                if len(self._stack) > 1 and self._stack[-2][1] == fiber_basis:
                    self.add_work(f"{FIBER_BASIS}.eigensolves", 1)
            return note_eigensolve, None
        return None, None

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per-name counts and times plus work counters, as plain numbers
        that add across workers."""
        out = dict(self.work)
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.busy_s"] = self.busy[idx]
            out[f"{name}.self_s"] = self.self_time[idx]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "origin": self._origin,
                       "name": self.span_name, "start": self.span_start,
                       "end": self.span_end, "parent": self.span_parent}, fh)


def _accepts(fn, params):
    """True when ``fn`` takes every parameter the work counter reads."""
    if not params:
        return True
    try:
        names = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return all(p in names for p in params)


def layer_metrics(totals, untraced_wall, traced_wall):
    """The PER_LAYER metrics from ``totals`` (workload -> its traced
    workers' totals), each summed over its source workloads; a name missing
    there (layer not run, or absent) reads 0."""
    out = {}
    for name, unit, _, sources in PER_LAYER:
        t = {}
        for workload in sources:
            for key, value in totals.get(workload, {}).items():
                t[key] = t.get(key, 0) + value

        def ratio(num, den):
            return t.get(num, 0) / t[den] if t.get(den) else 0.0

        if name.startswith("cli."):
            value = t.get(name.replace(".wall_s", ".busy_s"), 0)
        elif name == "lifts.check_lift.us_per_probe":
            value = 1e6 * ratio(f"{CHECK_LIFT}.busy_s", f"{CHECK_LIFT}.probes")
        elif name == "bundles.fiber_basis.hit_ratio":
            value = 1.0 - ratio(f"{FIBER_BASIS}.eigensolves", f"{FIBER_BASIS}.calls") \
                if t.get(f"{FIBER_BASIS}.calls") else 0.0
        elif name == "bundles.tracks_per_probe":
            value = ratio("transport_lift.tracks", "transport_lift.probes")
        elif name == "trace.overhead_frac":
            value = traced_wall / untraced_wall - 1.0
        else:
            value = t.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
