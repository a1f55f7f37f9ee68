"""Per-layer spans recorded from outside the program.

``install`` wraps the public functions of each sqopt module wherever a module
(or the equilibrium runner registry) holds them, and returns the patches;
``uninstall`` puts every original back.  Nothing under ``src/`` changes, and
the wrappers exist only for the traced passes.

A span is opened at each layer boundary: it records its name, start, end, the
span that caused it and the job.  A call into a layer from inside the same
layer (``run_ppa`` calling ``run_rippa``, ``prox`` calling ``prox_point``)
opens no new span, so counts are of outermost calls.  A layer's self time is
its spans' durations minus their direct child spans.  Counts are recorded at
the same boundaries.  Spans stay in memory until ``write_spans``.

Which end-to-end metric each layer should move, and where:
  harness      par2_s on every workload, a small share
  minimize     par2_s on minimize
  equilibrium  par2_s on solve_ep; no change elsewhere
  prox         par2_s on minimize (most) and solve_ep; no change on certify
  functions    par2_s on minimize and solve_ep through per-call overhead, on
               certify through per-row cost
  geometry     par2_s on certify (most) and minimize (polytope job); no change
               on solve_ep
  verify       par2_s and peak_rss_mb on certify
  dynamics     par2_s on certify
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

# The package namespace rebinds some submodule names to functions (``sqopt.prox``
# is the prox function there), so the modules are fetched by their full names.
sqopt, cli, harness, minimize, equilibrium, prox, functions, geometry, verify, dynamics = (
    importlib.import_module(name) for name in (
        "sqopt", "sqopt.cli", "sqopt.harness", "sqopt.minimize", "sqopt.equilibrium",
        "sqopt.prox", "sqopt.functions", "sqopt.geometry", "sqopt.verify", "sqopt.dynamics"))

MODULES = (sqopt, cli, harness, minimize, equilibrium, prox, functions, geometry, verify, dynamics)

_WRAPPED = "__perfbench_wrapped__"


class Tracer:
    """In-memory span store plus the per-layer counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("l")
        self.job = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []  # [span id, layer, start, child time]
        self.job_index = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.prox_call_s: list[float] = []
        self.final_points: dict[int, list] = defaultdict(list)

    def layer_open(self) -> str | None:
        return self.stack[-1][1] if self.stack else None

    def enter(self, layer: str, name: str) -> None:
        key = f"{layer}.{name}"
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        sid = len(self.start)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.job.append(self.job_index)
        self.name.append(nid)
        t = time.perf_counter()
        self.start.append(t)
        self.end.append(t)
        self.stack.append([sid, layer, t, 0.0])

    def exit(self) -> float:
        t = time.perf_counter()
        sid, layer, t0, child = self.stack.pop()
        self.end[sid] = t
        dur = t - t0
        c = self.counts
        c[layer + ".self_s"] += dur - child
        if self.stack:
            parent = self.stack[-1]
            parent[3] += dur
            if parent[1] != layer:
                c[layer + ".s"] += dur
        else:
            c[layer + ".s"] += dur
        return dur

    def write_spans(self, path) -> int:
        """CSV of every span: id, parent, job, name, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("span,parent,job,name,start_s,end_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.job[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")
        return len(self.start)


def _span(tracer: Tracer, layer: str, name: str, fn, after=None, nest: bool = False):
    """Wrap ``fn`` in a span of ``layer``; ``after(result, args, dur)`` counts."""

    def wrapped(*args, **kwargs):
        if not nest and tracer.layer_open() == layer:
            return fn(*args, **kwargs)
        tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.exit()
        if after is not None:
            after(result, args, dur)
        return result

    setattr(wrapped, _WRAPPED, fn)
    wrapped.__name__ = getattr(fn, "__name__", name)
    return wrapped


def _rows(X) -> int:
    X = np.asarray(X)
    return int(X.shape[0]) if X.ndim > 1 else 1


# ---------------------------------------------------------------------------
# functions layer: catalog callables, wrapped where the public constructors
# hand them out
# ---------------------------------------------------------------------------


def _callable_span(tracer: Tracer, kind: str, fn):
    if fn is None or hasattr(fn, _WRAPPED):
        return fn
    c = tracer.counts

    def after(result, args, dur):
        c[f"functions.{kind}_calls"] += 1
        c[f"functions.{kind}_rows"] += max(_rows(a) for a in args)

    return _span(tracer, "functions", kind, fn, after)


def _wrap_objective(tracer: Tracer, h):
    return dataclasses.replace(h, fn=_callable_span(tracer, "fn", h.fn),
                               grad=_callable_span(tracer, "grad", h.grad))


def _wrap_bifunction(tracer: Tracer, f):
    y_parts = f.y_parts
    if y_parts is not None and not hasattr(y_parts, _WRAPPED):
        raw = y_parts

        def y_parts(x):
            fy, gy = raw(x)
            return _callable_span(tracer, "fn", fy), _callable_span(tracer, "grad", gy)

        setattr(y_parts, _WRAPPED, raw)
    return dataclasses.replace(
        f,
        fn=_callable_span(tracer, "fn", f.fn),
        partial_grad_y=_callable_span(tracer, "grad", f.partial_grad_y),
        y_parts=y_parts,
    )


def _wrap_bregman(tracer: Tracer, phi):
    return dataclasses.replace(phi, phi=_callable_span(tracer, "fn", phi.phi),
                               grad_phi=_callable_span(tracer, "grad", phi.grad_phi))


def _constructor(tracer: Tracer, build, wrap):
    def wrapped(*args, **kwargs):
        return wrap(tracer, build(*args, **kwargs))

    setattr(wrapped, _WRAPPED, build)
    return wrapped


# ---------------------------------------------------------------------------
# wrapper table
# ---------------------------------------------------------------------------


def _wrappers(tracer: Tracer) -> dict:
    """original function -> its traced replacement."""
    c = tracer.counts
    out = {}

    def harness_after(result, args, dur):
        c["harness.jobs"] += 1

    for fn in (harness.run_from_config, harness.sweep_compare, harness.run_verify,
               harness.run_dynamics):
        out[fn] = _span(tracer, "harness", fn.__name__, fn, harness_after)

    def write_after(result, args, dur):
        c["harness.write_trace_s"] += dur

    out[harness.write_trace_csv] = _span(tracer, "harness", "write_trace_csv",
                                         harness.write_trace_csv, write_after, nest=True)

    def minimize_after(trace, args, dur):
        c["minimize.runs"] += 1
        c["minimize.iterations"] += trace.iterations

    for name in ("run_ppa", "run_rippa", "run_bppa", "run_subgradient", "run_gradient",
                 "run_heavy_ball", "run_inertial_gm"):
        fn = getattr(minimize, name)
        out[fn] = _span(tracer, "minimize", name, fn, minimize_after)

    def ep_after(trace, args, dur):
        c["equilibrium.runs"] += 1
        c["equilibrium.iterations"] += trace.iterations
        c["equilibrium.line_search_backtracks"] += sum(trace.extra.get("line_search_m", []))
        tracer.final_points[tracer.job_index].append(np.array(trace.final_point))

    for fn in set(equilibrium.EP_RUNNERS.values()):
        out[fn] = _span(tracer, "equilibrium", fn.__name__, fn, ep_after)

    def residual_after(result, args, dur):
        c["equilibrium.residual_calls"] += 1
        c["equilibrium.residual_s"] += dur

    out[equilibrium.ep_residual] = _span(tracer, "equilibrium", "ep_residual",
                                         equilibrium.ep_residual, residual_after, nest=True)

    def prox_after(res, args, dur):
        c["prox.calls"] += 1
        c["prox.fn_evals"] += res.n_evals
        tracer.prox_call_s.append(dur)

    for fn in (prox.prox, prox.prox_point, prox.bregman_prox, prox.global_min):
        out[fn] = _span(tracer, "prox", fn.__name__, fn, prox_after)

    out[functions.catalog] = _constructor(tracer, functions.catalog, _wrap_objective)
    out[functions.bifunction_catalog] = _constructor(tracer, functions.bifunction_catalog,
                                                     _wrap_bifunction)
    out[functions.bregman_catalog] = _constructor(tracer, functions.bregman_catalog,
                                                  _wrap_bregman)

    def project_after(Y, args, dur):
        K, X = args[0], np.asarray(args[1])
        c["geometry.project_calls"] += 1
        c["geometry.project_rows"] += X.shape[0]
        if isinstance(K, geometry.HalfspaceIntersection) and K.normals.shape[0] > 1:
            viol = np.any(X @ K.normals.T - K.bounds > 0, axis=1)
            c["geometry.dykstra_rows"] += int(np.count_nonzero(viol))

    out[geometry.FeasibleSet.project_many] = _span(
        tracer, "geometry", "project_many", geometry.FeasibleSet.project_many, project_after)

    def verify_after(report, args, dur):
        c["verify.checks"] += 1
        c["verify.samples"] += report.samples

    for name in ("check_sqc_sampled", "estimate_modulus", "check_supercoercive",
                 "check_quadratic_growth", "check_foc", "check_pl", "check_cfz_at",
                 "subdiff_member", "estimate_eta", "check_a0", "check_pseudomonotone",
                 "check_a4_sampled", "grad_check"):
        fn = getattr(verify, name)
        out[fn] = _span(tracer, "verify", name, fn, verify_after)

    def dynamics_after(traj, args, dur):
        c["dynamics.steps"] += len(traj.times) - 1

    for name in ("integrate_ds1", "integrate_ds2", "integrate_ds2_undamped_descent"):
        fn = getattr(dynamics, name)
        out[fn] = _span(tracer, "dynamics", name, fn, dynamics_after)
    return out


def _holders():
    """Every namespace the program looks its functions up in."""
    for m in MODULES:
        yield m, vars(m)
    yield geometry.FeasibleSet, vars(geometry.FeasibleSet)
    yield equilibrium.EP_RUNNERS, equilibrium.EP_RUNNERS


def _set(holder, name, value):
    if isinstance(holder, dict):
        holder[name] = value
    else:
        setattr(holder, name, value)


def install(tracer: Tracer) -> list[tuple]:
    """Patch every reference to a wrapped function; returns the undo list."""
    table = _wrappers(tracer)
    patches = []
    for holder, ns in _holders():
        for name, value in list(ns.items()):
            try:
                replacement = table.get(value)
            except TypeError:  # unhashable attribute
                continue
            if replacement is not None:
                patches.append((holder, name, value))
                _set(holder, name, replacement)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for holder, name, original in reversed(patches):
        _set(holder, name, original)


def wrapped_references() -> list[str]:
    """Names under which a traced wrapper is still reachable (should be none)."""
    left = []
    for holder, ns in _holders():
        for name, value in ns.items():
            if hasattr(value, _WRAPPED):
                left.append(f"{getattr(holder, '__name__', 'EP_RUNNERS')}.{name}")
    return left


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, every one present."""
    c = tracer.counts
    tail_pct = tail_percentile(len(tracer.prox_call_s))
    m = {name: float(c.get(name, 0.0)) for name in PER_LAYER_COUNTS}
    calls = c.get("prox.calls", 0.0)
    m["prox.evals_per_call"] = c.get("prox.fn_evals", 0.0) / calls if calls else 0.0
    ms = np.asarray(tracer.prox_call_s) * 1e3
    m["prox.call_ms.p50"] = float(np.percentile(ms, 50)) if ms.size else 0.0
    m["prox.call_ms.tail"] = float(np.percentile(ms, tail_pct)) if tail_pct else 0.0
    m["prox.call_ms.tail_pct"] = float(tail_pct or 0.0)
    fn_calls = c.get("functions.fn_calls", 0.0) + c.get("functions.grad_calls", 0.0)
    fn_rows = c.get("functions.fn_rows", 0.0) + c.get("functions.grad_rows", 0.0)
    m["functions.rows_per_call"] = fn_rows / fn_calls if fn_calls else 0.0
    rows = c.get("geometry.project_rows", 0.0)
    m["geometry.us_per_row"] = 1e6 * c.get("geometry.s", 0.0) / rows if rows else 0.0
    return m


PER_LAYER_COUNTS = (
    "harness.jobs", "harness.s", "harness.self_s", "harness.write_trace_s",
    "minimize.runs", "minimize.iterations", "minimize.s", "minimize.self_s",
    "equilibrium.runs", "equilibrium.iterations", "equilibrium.self_s",
    "equilibrium.residual_calls", "equilibrium.residual_s",
    "equilibrium.line_search_backtracks",
    "prox.calls", "prox.s", "prox.self_s", "prox.fn_evals",
    "functions.fn_calls", "functions.fn_rows", "functions.grad_calls", "functions.grad_rows",
    "functions.s",
    "geometry.project_calls", "geometry.project_rows", "geometry.dykstra_rows", "geometry.s",
    "verify.checks", "verify.samples", "verify.s", "verify.self_s",
    "dynamics.steps", "dynamics.s",
)
