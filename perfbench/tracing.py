"""Per-layer spans and counts, recorded by wrapping cloaksim from outside.

`install()` replaces every module binding of the public functions each
layer exposes (the sweeps import them with `from .x import y`, so patching
the defining module alone would miss those calls), the class methods on
their class, and the `splu`/`cg` names bound in `cloaksim.fem` and
`cloaksim.homog`. Spans are kept in memory as [name, start, end, parent]
and written out by the caller. Time spent in the counting hooks is taken
off the span clock, so it shows as tracing overhead and not in a layer.
"""

import functools
import sys
import time
from collections import defaultdict

import cloaksim.coeff as coeff
import cloaksim.dnmap as dnmap
import cloaksim.experiments as experiments
import cloaksim.fem as fem
import cloaksim.homog as homog
import cloaksim.qsolve as qsolve


class Tracer:
    def __init__(self):
        self.spans = []                  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._open = []
        self._depth = defaultdict(int)
        self._paused = 0.0

    def clock(self):
        return time.perf_counter() - self._paused

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            outermost = self._depth[name] == 0
            self._depth[name] += 1
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._depth[name] -= 1
                self._open.pop()
            if count is not None:
                t0 = time.perf_counter()
                count(self.counts, result, outermost)
                self._paused += time.perf_counter() - t0
            return result
        return traced


# counting hooks: (counts, result, whether no span of the same name is open)

def _on_dn_operator(counts, op, outermost):
    counts["dnmap.columns"] += op.basis.size
    counts["dnmap.linear_calls"] += not op.nonlinear


def _on_solve(counts, res, outermost):
    counts["qsolve.iterations"] += res.iterations
    counts["qsolve.nonconverged"] += not res.converged
    counts["qsolve.damping_activated"] += res.damping_activated
    # an iterated solve assembles once more at convergence; a one-shot
    # linear solve records no updates
    counts["qsolve.converged_iterated"] += res.converged and bool(res.updates)


def _on_mesh(counts, mesh, outermost):
    counts["fem.n_vertices"] += mesh.n_vertices


def _fill_counter(layer):
    def on_splu(counts, lu, outermost):
        counts[f"{layer}.lu_fill_nnz"] += lu.L.nnz + lu.U.nnz
    return on_splu


def _on_cg(counts, result, outermost):
    counts["fem.cg.fallbacks"] += result[1] != 0


def _on_eval(counts, out, outermost):
    if outermost:
        counts["coeff.eval.points"] += 1 if out.ndim == 2 else len(out)


def _on_sequence(counts, specs, outermost):
    counts["homog.fallback_points"] += sum(s.n_fallback for s in specs)


def _rebind(fn, wrapped):
    """Replace fn by wrapped in every cloaksim module that binds it."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if name != "cloaksim" and not name.startswith("cloaksim."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapped)
                n += 1
    if n == 0:
        raise RuntimeError(f"no module binds {fn.__qualname__}")


def install():
    """Wrap every traced entry point of cloaksim; returns the Tracer."""
    tr = Tracer()
    functions = [
        (experiments.run_regular_cloak_sweep, "experiments.sweep", None),
        (experiments.run_truncated_singular_sweep, "experiments.sweep", None),
        (experiments.run_homogenization_sweep, "experiments.sweep", None),
        (experiments.run_diffeo_invariance, "experiments.sweep", None),
        (dnmap.dn_operator, "dnmap.dn_operator", _on_dn_operator),
        (dnmap.dn_difference, "dnmap.dn_difference", None),
        (dnmap.neumann_trace_error, "dnmap.neumann_trace_error", None),
        (qsolve.solve_quasilinear, "qsolve.solve_quasilinear", _on_solve),
        (qsolve.dn_pairing, "qsolve.dn_pairing", None),
        (fem.build_disk_mesh, "fem.build_disk_mesh", _on_mesh),
        (fem.assemble_frozen, "fem.assemble_frozen", None),
        (fem.l2_norm, "fem.norms", None),
        (fem.h1_norm, "fem.norms", None),
        (homog.build_isotropic_cloak_sequence,
         "homog.build_isotropic_cloak_sequence", _on_sequence),
        (homog.solve_cell, "homog.solve_cell", None),
    ]
    for fn, name, count in functions:
        _rebind(fn, tr.wrap(name, fn, count))
    methods = [
        (fem.SparseSystem, "__init__", "fem.SparseSystem", None),
        (fem.SparseSystem, "solve_dirichlet", "fem.solve_dirichlet", None),
        (coeff.CoefficientField, "eval", "coeff.eval", _on_eval),
    ]
    for cls, attr, name, count in methods:
        setattr(cls, attr, tr.wrap(name, getattr(cls, attr), count))
    bindings = [
        (fem, "splu", "fem.splu", _fill_counter("fem")),
        (fem, "cg", "fem.cg", _on_cg),
        (homog, "splu", "homog.splu", _fill_counter("homog")),
    ]
    for mod, attr, name, count in bindings:
        setattr(mod, attr, tr.wrap(name, getattr(mod, attr), count))
    return tr


# span name -> which of inclusive time (.s), self time (.self_s) and call
# count (.calls) the benchmark reports for it
SPAN_METRICS = {
    "experiments.sweep": ("s",),
    "dnmap.dn_operator": ("s", "self_s", "calls"),
    "dnmap.dn_difference": ("s",),
    "dnmap.neumann_trace_error": ("s",),
    "qsolve.solve_quasilinear": ("s", "self_s", "calls"),
    "qsolve.dn_pairing": ("s",),
    "fem.build_disk_mesh": ("s", "calls"),
    "fem.assemble_frozen": ("s", "self_s", "calls"),
    "fem.SparseSystem": ("s",),
    "fem.solve_dirichlet": ("s", "self_s", "calls"),
    "fem.splu": ("s", "calls"),
    "fem.cg": ("s", "calls"),
    "fem.norms": ("s",),
    "coeff.eval": ("s", "calls"),
    "homog.build_isotropic_cloak_sequence": ("s",),
    "homog.solve_cell": ("s", "self_s", "calls"),
    "homog.splu": ("s",),
}

COUNT_METRICS = ("dnmap.columns", "qsolve.iterations", "qsolve.nonconverged",
                 "qsolve.damping_activated", "fem.n_vertices",
                 "fem.lu_fill_nnz", "fem.cg.fallbacks", "coeff.eval.points",
                 "homog.fallback_points", "homog.lu_fill_nnz")


def span_totals(spans):
    """Inclusive seconds, self seconds and calls per span name.

    Inclusive time counts only spans with no enclosing span of the same
    name, so nested calls (a pushed-forward field evaluating its base
    field, h1_norm calling l2_norm) are not counted twice. Self time is a
    span's duration minus that of its direct children.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for i, (name, t0, t1, parent) in enumerate(spans):
        tot = out[name]
        tot["calls"] += 1
        tot["self_s"] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            tot["s"] += t1 - t0
    return out


def layer_metrics(tracer):
    """Flat dict of per-layer metric values from one traced call."""
    totals = span_totals(tracer.spans)
    out = {f"{name}.{kind}": totals[name][kind]
           for name, kinds in SPAN_METRICS.items() for kind in kinds}
    # the last two are bases for the invariant checks, not reported
    for name in COUNT_METRICS + ("dnmap.linear_calls",
                                 "qsolve.converged_iterated"):
        out[name] = tracer.counts[name]
    return out


def invariant_failures(m, basis_size):
    """Invariants the counts of one traced call must satisfy."""
    out = []
    want = (m["dnmap.linear_calls"] + m["qsolve.iterations"]
            + m["qsolve.converged_iterated"])
    if m["fem.assemble_frozen.calls"] != want:
        out.append(f"fem.assemble_frozen.calls {m['fem.assemble_frozen.calls']}"
                   f" != linear dn_operator calls {m['dnmap.linear_calls']}"
                   f" + qsolve.iterations {m['qsolve.iterations']}"
                   f" + converged iterated solves "
                   f"{m['qsolve.converged_iterated']}")
    if m["dnmap.columns"] != basis_size * m["dnmap.dn_operator.calls"]:
        out.append(f"dnmap.columns {m['dnmap.columns']} != {basis_size} x "
                   f"dnmap.dn_operator.calls {m['dnmap.dn_operator.calls']}")
    if m["fem.cg.fallbacks"] > m["fem.cg.calls"]:
        out.append("more CG fallbacks than CG calls")
    return out
