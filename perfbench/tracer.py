"""In-memory span tracer that wraps tracefem's public functions from outside.

A span is ``(name, start, end, parent)``: ``name`` is ``<layer>.<function>``
with the layer being the tracefem module the function is defined in,
``start``/``end`` are ``time.perf_counter`` readings and ``parent`` is the
index of the enclosing span (-1 for a root).  Counts are recorded at the
same boundaries by small hooks that read the returned objects.

``Tracer.install`` replaces every public function and public method of the
layer modules (plus explicitly written ``__init__`` methods, which time
object construction) wherever tracefem refers to it: as a module or class
attribute, or as a value of a module-level dict (``cli._COMMANDS``, through
which ``cli.main`` dispatches).  ``restore`` puts every original back.
Nothing in tracefem is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("geometry", "mesh", "cutquad", "assembly", "operators",
          "heatsolver", "diagnostics", "cli")

ERROR_FUNCTIONALS = ("operators.DiscreteOperators.error_l2_star",
                     "operators.DiscreteOperators.error_h1_star",
                     "operators.DiscreteOperators.error_hm1_star")
WRITERS = ("cli.write_csv", "cli.write_dat")
MIB = float(2 ** 20)


def _targets():
    """(layer, owner, attribute, function) for every function to wrap."""
    out = []
    for layer in LAYERS:
        mod = sys.modules["tracefem." + layer]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((layer, mod, name, obj))
            elif inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if not inspect.isfunction(meth):
                        continue     # properties, static and class methods
                    if mname == "__init__" and not hasattr(obj, "__dataclass_fields__"):
                        out.append((layer, obj, mname, meth))
                    elif not mname.startswith("_"):
                        out.append((layer, obj, mname, meth))
    return out


def span_name(layer, owner, attr):
    if inspect.isclass(owner):
        if attr == "__init__":
            return "%s.%s" % (layer, owner.__name__)
        return "%s.%s.%s" % (layer, owner.__name__, attr)
    return "%s.%s" % (layer, attr)


class Tracer:
    """Records spans and counts for one traced CLI invocation."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []       # (owner, key, original); owner may be a dict

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result
        return wrapper

    def install(self):
        """Wrap every target wherever a tracefem module or class holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = _targets()
        wrappers = {id(fn): (fn, self._wrap(span_name(layer, owner, attr), fn))
                    for layer, owner, attr, fn in targets}
        # patch every holder, so names modules imported from each other
        # (``from .mesh import select_active`` in cli) are wrapped too
        holders = {id(m): m for n, m in sys.modules.items()
                   if n == "tracefem" or n.startswith("tracefem.")}
        tables = [obj for m in holders.values() for obj in vars(m).values()
                  if type(obj) is dict]
        holders.update((id(owner), owner) for _, owner, _, _ in targets)
        for holder in list(holders.values()) + tables:
            entries = holder if type(holder) is dict else vars(holder)
            for key, obj in list(entries.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((holder, key, obj))
                    _put(holder, key, hit[1])
        self._install_eigen_counter()

    def _install_eigen_counter(self):
        """Count n^3 of each dense symmetric eigensolve made via scipy.linalg."""
        import scipy.linalg as sla
        counts = self.counts

        def counted(fn):
            @functools.wraps(fn)
            def wrapper(a, *args, **kwargs):
                counts["diagnostics.dense_flops_computed"] += float(len(a)) ** 3
                return fn(a, *args, **kwargs)
            return wrapper

        for attr in ("eigh", "eigvalsh"):
            fn = getattr(sla, attr)
            self._patches.append((sla, attr, fn))
            setattr(sla, attr, counted(fn))

    def restore(self):
        """Put every original back, in reverse order of patching."""
        while self._patches:
            _put(*self._patches.pop())


def _put(owner, key, value):
    if type(owner) is dict:
        owner[key] = value
    else:
        setattr(owner, key, value)


def wrapper_cost(calls=10000, trials=5):
    """Seconds one traced call adds to a call of a no-op (best of trials)."""
    def noop():
        return None

    clock = time.perf_counter
    best = float("inf")
    for _ in range(trials):
        wrapped = Tracer()._wrap("calibration.noop", noop)
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


# -- count hooks: (counts, call args, result) -------------------------------

def _select_active(counts, args, mesh):
    counts["mesh.n_dofs"] += mesh.n_dofs
    counts["mesh.active"] += len(mesh.active)
    counts["mesh.tested"] += len(mesh.background.triangles)


def _build_topology(counts, args, topo):
    counts["cutquad.nodes"] += sum(len(w) for w in topo.s_w)
    counts["cutquad.max_arcs"] = max(counts["cutquad.max_arcs"],
                                     max(len(a) for a in topo.arcs))


def _assemble(counts, args, system):
    mats = [system.M, system.A, system.D] + list(system.S.values())
    counts["assembly.nnz"] += sum(m.nnz for m in mats)


def _operators(counts, args, result):
    ops = args[0]
    for f in (ops.mstar, ops.kstar, ops.kaux):
        counts["operators.lu_nnz"] += f.lu.L.nnz + f.lu.U.nnz
        counts["operators.matrix_nnz"] += f.mat.nnz


def _run(counts, args, result):
    ops = args[0]
    steps = len(result.times) - 1
    counts["heatsolver.steps"] += steps
    mb = (steps + 1) * ops.system.n_dofs * 8 / MIB
    counts["heatsolver.history_mb_computed"] = max(
        counts["heatsolver.history_mb_computed"], mb)


def _write(counts, args, result):
    import os
    counts["cli.bytes_written"] += os.path.getsize(args[0])


_HOOKS = {
    "mesh.select_active": _select_active,
    "cutquad.build_topology": _build_topology,
    "assembly.assemble": _assemble,
    "operators.DiscreteOperators": _operators,
    "heatsolver.run": _run,
    "cli.write_csv": _write,
    "cli.write_dat": _write,
}


# -- span arithmetic ---------------------------------------------------------

def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        lo = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            c0, c1 = max(spans[c][1], lo), min(spans[c][2], end)
            if c1 > c0:
                covered += c1 - c0
                lo = c1
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced invocation (names as in BENCHMARK.json)."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    writing = []                        # span is a writer or inside one
    for (name, start, end, parent), s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += s
        calls[name] += 1
        writing.append(name in WRITERS or (parent >= 0 and writing[parent]))
        if not writing[-1]:             # writing is reported as cli.write_s
            layer_self[name.split(".", 1)[0]] += s

    def tot(*names):
        return sum(total[n] for n in names)

    def ncalls(*names):
        return sum(calls[n] for n in names)

    ops = "operators.DiscreteOperators."
    dg = "diagnostics."
    m = {
        "mesh.build_background_s": tot("mesh.build_background"),
        "mesh.select_active_s": tot("mesh.select_active"),
        "mesh.n_dofs": counts.get("mesh.n_dofs", 0.0),
        "mesh.active_ratio": (counts.get("mesh.active", 0.0)
                              / counts["mesh.tested"]
                              if counts.get("mesh.tested") else 0.0),
        "geometry.check_resolution_s": tot("geometry.check_resolution"),
        "cutquad.build_topology_s": tot("cutquad.build_topology"),
        "cutquad.build_topology_calls": ncalls("cutquad.build_topology"),
        "cutquad.nodes": counts.get("cutquad.nodes", 0.0),
        "cutquad.max_arcs": counts.get("cutquad.max_arcs", 0.0),
        "cutquad.arc_cover_defect_s": tot("cutquad.arc_cover_defect"),
        "assembly.assemble_s": tot("assembly.assemble"),
        "assembly.nnz": counts.get("assembly.nnz", 0.0),
        "assembly.assemble_fourier_s": tot("assembly.assemble_fourier"),
        "operators.factor_s": tot("operators.DiscreteOperators"),
        "operators.lu_fill": (counts.get("operators.lu_nnz", 0.0)
                              / counts["operators.matrix_nnz"]
                              if counts.get("operators.matrix_nnz") else 0.0),
        "operators.error_functional_s": tot(*ERROR_FUNCTIONALS),
        "operators.error_functional_calls": ncalls(*ERROR_FUNCTIONALS),
        "operators.riesz_data_s": tot(ops + "riesz_data"),
        "operators.riesz_data_calls": ncalls(ops + "riesz_data"),
        "operators.dual_norm_s": tot(ops + "dual_norm"),
        "operators.dual_norm_calls": ncalls(ops + "dual_norm"),
        "operators.hm1_star_s": tot(ops + "hm1_star"),
        "operators.project_s": tot(ops + "project"),
        "operators.project_calls": ncalls(ops + "project"),
        "heatsolver.run_s": tot("heatsolver.run"),
        "heatsolver.steps": counts.get("heatsolver.steps", 0.0),
        "heatsolver.stepper_factor_s": tot("heatsolver.HeatStepper"),
        "heatsolver.accumulate_errors_self_s": own["heatsolver.accumulate_errors"],
        "heatsolver.history_mb_computed":
            counts.get("heatsolver.history_mb_computed", 0.0),
        "diagnostics.op_norms_ph_s": tot(dg + "op_norms_ph"),
        "diagnostics.c_inv_h_s": tot(dg + "c_inv_h"),
        "diagnostics.lambda_h_s": tot(dg + "lambda_h"),
        "diagnostics.kappa_pstar_s": tot(dg + "kappa_pstar"),
        "diagnostics.condition_number_s": tot(dg + "condition_number"),
        "diagnostics.condition_number_calls": ncalls(dg + "condition_number"),
        "diagnostics.dense_flops_computed":
            counts.get("diagnostics.dense_flops_computed", 0.0),
        "cli.write_s": tot(*WRITERS),
        "cli.bytes_written": counts.get("cli.bytes_written", 0.0),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self[layer]
    return m
