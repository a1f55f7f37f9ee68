"""Run orchestration: config schema, dispatch, trace/summary emission, sweeps.

Configs are JSON with a ``schema_version`` field; a key that nothing reads
is rejected with a field-path diagnostic.  With ``fields`` it is the only
module that reads config JSON.  ``SETS`` is the one table of set kinds,
``VARIANTS`` the one table of algorithms and ``CHECKS`` the one table of
``verify`` checks; each variant and check gives its problem kind and the
keys it reads.  The module imports only
``fields``, ``functions`` and ``geometry`` at its top; each command imports
the back end it runs and passes it to the entry's callables, so a command
compiles only the modules it runs.  Exit codes (used by the CLI): 0 when a
run converged, 1 on a schema violation (a hard range that the variant's
validator rejects before the first iteration included), 2 on hitting the
iteration cap, 3 on a guard that fires during a run.  Trace CSVs are
byte-reproducible: the ``wall_ms`` column is left empty on purpose (wall
time lives in the summary JSON, the only nondeterministic output).
"""

from __future__ import annotations

import csv
import inspect
import json
from dataclasses import MISSING, asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .fields import (POINT, RADIUS, Kind, SchemaError, check_keys, check_object, config_keys,
                     convert, read, require)
from .functions import (_BUILDERS, BREGMAN_NAMES, bifunction_catalog, bregman_catalog, catalog,
                        glt_example)
from .geometry import (AffineSubspace, Ball, Box, FeasibleSet, FullSpace, HalfspaceIntersection,
                       hyperplane)

if TYPE_CHECKING:
    from .minimize import IterationTrace

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_MAX_ITERS = 2
EXIT_GUARD = 3

TRACE_HEADER = ["k", "value", "residual", "step_norm", "cum_prox_evals", "wall_ms"]
EP_TRACE_HEADER = TRACE_HEADER + ["residual_ep", "line_search_m"]


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


_ARRAY = Kind("array")

# each set kind's forms: a constructor and the kind of each of its keys.  An affine set
# is a normal and a value or an orthonormal basis and an offset; a spec takes the first
# form whose first key it gives, else the last
SETS = {"full_space": ((FullSpace, {"dim": Kind("int")}),),
        "box": ((Box, {"lo": _ARRAY, "hi": _ARRAY}),),
        "ball": ((Ball, {"center": _ARRAY, "radius": Kind("number")}),),
        "affine": ((hyperplane, {"normal": _ARRAY, "value": Kind("number")}),
                   (AffineSubspace, {"basis": _ARRAY, "offset": _ARRAY})),
        "halfspaces": ((HalfspaceIntersection, {"normals": _ARRAY, "bounds": _ARRAY}),)}


def _made(path: str, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``; a value it rejects is a SchemaError at ``path``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as e:
        raise SchemaError(path, str(e)) from e


def _build_set(spec, path: str) -> FeasibleSet:
    """The feasible set of the spec ``spec``, its keys read by ``SETS``."""
    check_object(spec, path)
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in SETS:
        raise SchemaError(path, f"unknown feasible set kind: {kind!r}")
    make, kinds = next((form for form in SETS[kind] if next(iter(form[1])) in spec),
                       SETS[kind][-1])
    args = read({"kind": Kind("enum", choices=(kind,)), **kinds}, spec, path)
    del args["kind"]
    return _made(path, make, **args)


# the kind of a catalog constructor parameter by its annotation
_SET = Kind("set", of=_build_set)
_ANNOTATED = {int: Kind("int"), float: Kind("number"), float | None: Kind("number"),
              np.ndarray: _ARRAY, FeasibleSet: _SET, FeasibleSet | None: _SET}


def param_kinds(make) -> dict:
    """The kind of each parameter of the catalog constructor ``make``, with its default."""
    return {key: replace(_ANNOTATED[prm.annotation],
                         default=MISSING if prm.default is prm.empty else prm.default)
            for key, prm in inspect.signature(make, eval_str=True).parameters.items()}


# the bifunction constructors; value_gap's one parameter is an objective spec
_BIFUNCTIONS = {"value_gap": None, "glt_example": glt_example}


def _build(spec: dict, path: str, makers: dict, build):
    """``build(name, **params)`` for the catalog entry ``spec``; a rejected one is a SchemaError."""
    check_keys(spec, {"catalog", "params"}, path)
    name = convert(Kind("enum", choices=tuple(makers)), require(spec, "catalog", path),
                   path + ".catalog")
    params = spec.get("params", {})
    if name == "value_gap":
        check_keys(params, {"objective"}, path + ".params")
        params = {"h": _build(require(params, "objective", path + ".params"),
                              path + ".params.objective", _BUILDERS, catalog)}
    else:
        kinds = param_kinds(makers[name])
        args = read(kinds, params, path + ".params")
        # passed as given, for objective names embed them; a set spec passed built
        params = {key: args[key] if kinds[key].name == "set" else params[key] for key in params}
    return _made(path, build, name, **params)


_PROBLEM_KIND = Kind("enum", "minimize", choices=("minimize", "ep"))


def build_problem(spec: dict, path: str = "problem"):
    """Returns ("minimize", Objective, K) or ("ep", Bifunction, K); K defaults to the domain."""
    check_keys(spec, {"kind", "objective", "bifunction", "set"}, path)
    kind = convert(_PROBLEM_KIND, spec.get("kind", "minimize"), path + ".kind")
    K = _build_set(spec["set"], path + ".set") if "set" in spec else None
    if kind == "minimize":
        func = _build(require(spec, "objective", path), path + ".objective", _BUILDERS, catalog)
    else:
        func = _build(require(spec, "bifunction", path), path + ".bifunction", _BIFUNCTIONS,
                      bifunction_catalog)
    if K is None:
        K = func.domain
    elif K.dim != func.dim:
        raise SchemaError(path + ".set", f"dimension {K.dim} differs from the problem's {func.dim}")
    return kind, func, K


# ---------------------------------------------------------------------------
# algorithm construction
# ---------------------------------------------------------------------------

_COMMON_KEYS = {"variant", "x0", "stop_tol", "max_iters"}
_SOLVES = {"prox", "search_radius"}  # the keys of a variant that makes global solves

# the kinds of the algorithm keys passed to the runner rather than kept in the parameter bag
_RUN_KINDS = {"x0": Kind("point"), "x1": POINT,
              "bregman": Kind("object", {"name": "half_sq_norm", "shift": 0.0},
                              of={"name": Kind("enum", choices=BREGMAN_NAMES),
                                  "shift": Kind("number", 0.0)})}


@dataclass(frozen=True)
class Variant:
    """One entry of the variant registry.

    ``keys``: the config keys the variant reads beyond ``_COMMON_KEYS``, the
    only others it accepts.  ``problem`` is the objective or the bifunction,
    ``K`` its set, and ``back`` the back end of ``kind`` (the ``minimize`` or
    ``equilibrium`` module), imported by the command.  ``validate`` names
    the validator in ``back``, which returns guard notes and raises
    ValueError on a hard invariant.  It and the runner,
    ``run(back, problem, K, params, args)`` (``args``: the ``_RUN_KINDS``
    values), are looked up when called, so one replaced on its module (or in
    ``EP_RUNNERS``) is the one that runs.  The swept variants also have
    ``start(back, problem, K, params, x0)``: the same run, not yet started,
    for ``minimize._drive_many``.  PPA and PPA_EP start the relaxed-inertial
    run: their keys exclude ``alpha`` and the ``rho`` pair, so their
    parameters already hold alpha = 0, rho = 1.
    """

    kind: str
    keys: set
    validate: str
    run: Callable
    start: Callable | None = None


def _ep(keys, validate, start=None) -> Variant:
    return Variant("ep", keys | _SOLVES, validate,
                   lambda ep, f, K, p, a: ep.EP_RUNNERS[p.variant](f, K, p, a["x0"]), start)


VARIANTS = {
    "PPA": Variant("minimize", {"c"} | _SOLVES, "validate_rippa",
                   lambda mz, h, K, p, a: mz.run_ppa(h, K, p, a["x0"]),
                   lambda mz, h, K, p, x0: mz.start_rippa(h, K, p, x0)),
    "RIPPA": Variant("minimize", {"c", "alpha", "rho_lo", "rho_hi"} | _SOLVES, "validate_rippa",
                     lambda mz, h, K, p, a: mz.run_rippa(h, K, p, a["x0"]),
                     lambda mz, h, K, p, x0: mz.start_rippa(h, K, p, x0)),
    "BPPA": Variant("minimize", {"c", "bregman"} | _SOLVES, "validate_bppa",
                    lambda mz, h, K, p, a: mz.run_bppa(
                        h, K, bregman_catalog(dim=h.dim, **a["bregman"]), p, a["x0"])),
    "SUBGRAD": Variant("minimize", {"steps", "beta", "search_radius"}, "validate_subgradient",
                       lambda mz, h, K, p, a: mz.run_subgradient(h, K, p, a["x0"])),
    "GRAD": Variant("minimize", {"steps"}, "validate_gradient",
                    lambda mz, h, K, p, a: mz.run_gradient(h, p, a["x0"])),
    "HEAVY_BALL": Variant("minimize", {"theta", "hb_eta", "x1"}, "validate_heavy_ball",
                          lambda mz, h, K, p, a: mz.run_heavy_ball(h, p, a["x0"], a["x1"])),
    "INERTIAL_GM": Variant("minimize", {"steps", "eta_min", "x1"}, "validate_inertial_gm",
                           lambda mz, h, K, p, a: mz.run_inertial_gm(h, p, a["x0"], a["x1"])),
    "RIPPA_EP": _ep({"beta", "alpha", "rho_lo", "rho_hi", "policy"}, "validate_rippa_ep",
                    lambda ep, f, K, p, x0: ep.start_rippa_ep(f, K, p, x0)),
    "PPA_EP": _ep({"beta", "policy"}, "validate_rippa_ep",
                  lambda ep, f, K, p, x0: ep.start_rippa_ep(f, K, p, x0)),
    "REG_EP": _ep({"beta", "inner_max"}, "validate_reg_ep"),
    "IEPPA_EP": _ep({"beta", "alpha"}, "validate_ieppa"),
    "TWO_PPA_EP": _ep({"beta", "epsilon"}, "validate_2ppa"),
    "EG_EP": _ep({"beta", "ls_alpha", "ls_rho", "steps"}, "validate_eg"),
    "PEG_EP": _ep({"beta", "ls_alpha", "ls_rho", "steps"}, "validate_peg"),
}

# the relaxed-inertial variant a sweep of each problem kind runs, and its baseline
_SWEPT = {"minimize": ("RIPPA", "PPA"), "ep": ("RIPPA_EP", "PPA_EP")}


# the diagnostic for a section that the command does not read
_UNREAD = {"algorithm": "only minimize, solve-ep and sweep run an algorithm",
           "sweep": "only sweep reads a grid", "dynamics": "only dynamics integrates a flow",
           "verify": "only verify runs checks", "seed": "only verify reads a seed"}


def validate_config(cfg: dict, reads: set) -> None:
    """Schema-validate a config's top level; raises SchemaError with a field path.

    ``reads`` holds the sections the command reads besides ``problem``; a
    config with any other section is refused, not run without it.
    """
    check_keys(cfg, {"schema_version", "problem", *_UNREAD}, "config")
    version = require(cfg, "schema_version", "config")
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # True == 1
        raise SchemaError("config.schema_version", f"unsupported version {version!r}")
    for section in cfg:
        if section in _UNREAD and section not in reads:
            raise SchemaError(f"config.{section}", _UNREAD[section])


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return repr(float(v))


def write_trace_csv(path, trace: IterationTrace, is_ep: bool = False, residual_ep: dict | None = None):
    """Fixed-header trace CSV; ``wall_ms`` stays empty so re-runs byte-match."""
    header = EP_TRACE_HEADER if is_ep else TRACE_HEADER
    ls = trace.extra.get("line_search_m", []) if is_ep else []
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        n = trace.iterates.shape[0]
        for i in range(n):
            row = [
                str(i),
                _fmt(trace.values[i]),
                _fmt(trace.residuals[i]),
                _fmt(trace.step_norms[i]),
                str(int(trace.cum_evals[i])),
                "",
            ]
            if is_ep:
                row.append(_fmt(residual_ep[i]) if residual_ep and i in residual_ep else "")
                row.append(str(ls[i - 1]) if 0 < i <= len(ls) else "")
            w.writerow(row)


def _finite_or_null(obj):
    """Non-finite floats become None, so the emitted JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def strict_json(obj) -> str:
    """Sorted, indented JSON; non-finite floats are written as null."""
    return json.dumps(_finite_or_null(obj), sort_keys=True, indent=2, allow_nan=False)


@dataclass
class RunSummary:
    problem: str
    algorithm: str
    guarded: bool
    guard_notes: list[str]
    iterations: int
    prox_or_grad_evals: int
    final_value: float
    final_residual: float
    terminated_by: str
    distance_to_known_solution: float | None = None
    rate_estimate: dict | None = None
    wall_ms: float = 0.0

    def to_json(self) -> str:
        return strict_json(asdict(self))


@dataclass
class RateFit:
    """The least-squares line through ``(x, log distance)`` over a series' tail: its slope
    ``rate``, its ``r_squared`` and ``n_points``; no line (``below_floor``) when fewer than
    ``_MIN_POINTS`` distances lie above ``_DISTANCE_FLOOR``."""

    rate: float | None
    r_squared: float | None
    n_points: int
    below_floor: bool

    @property
    def q(self) -> float | None:
        """The factor per unit of x, ``exp(rate)``: a run's linear rate per iteration."""
        return None if self.rate is None else float(np.exp(self.rate))


_DISTANCE_FLOOR = 1e-14
_MIN_POINTS = 10


def fit_rate(xs, distances, window: float = 0.5) -> RateFit:
    """``RateFit`` of ``log(distances)`` against ``xs`` over the last ``window`` share of the
    distances above the floor, at least ``_MIN_POINTS`` of them.

    A two-column least-squares problem, solved in closed form on the centred series.
    """
    if not 0.0 < window <= 1.0:
        raise ValueError("window must lie in (0, 1]")
    xs = np.asarray(xs, dtype=float)
    d = np.asarray(distances, dtype=float)
    pos = d > _DISTANCE_FLOOR
    xs, d = xs[pos], d[pos]
    n = max(_MIN_POINTS, int(np.ceil(window * xs.shape[0])))
    xs, d = xs[-n:], d[-n:]
    if xs.shape[0] < _MIN_POINTS:
        return RateFit(None, None, int(xs.shape[0]), True)
    y = np.log(d)
    xc, yc = xs - np.mean(xs), y - np.mean(y)
    slope = float(xc @ yc / (xc @ xc))
    ss_res = float(np.sum((yc - slope * xc) ** 2))
    ss_tot = float(yc @ yc)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope, r2, int(xs.shape[0]), False)


def _exit_code_for(trace: IterationTrace) -> int:
    if trace.terminated_by in ("residual", "exact_fixed_point"):
        return EXIT_OK
    if trace.terminated_by == "max_iters":
        return EXIT_MAX_ITERS
    return EXIT_GUARD  # diverged and other guard-terminated runs


def _radius_rule(K: FeasibleSet, keys, key: str, value, path: str):
    """An entry that accepts the radius ``key`` needs it on a set with no bounding box."""
    if key in keys and value is None and not K.is_bounded:
        raise SchemaError(path, f"missing required key {key!r} ({K.kind} has no bounding box)")


def _checked(kind: str, problem, K: FeasibleSet, spec: dict, path: str) -> tuple:
    """``spec`` checked against its registry entry: ``(entry, back, params, args)``.

    ``back`` is the back end of ``kind``.  The parameter bag converts its own
    keys; ``args`` are the runner's.  A hard invariant that the variant's
    validator rejects is a SchemaError.
    """
    names = tuple(name for name, v in VARIANTS.items() if v.kind == kind)
    variant = convert(Kind("enum", choices=names), require(spec, "variant", path), path + ".variant")
    entry = VARIANTS[variant]
    check_keys(spec, _COMMON_KEYS | entry.keys, path)
    if kind == "minimize":  # a back end is imported only by the commands that run it
        from . import minimize as back
        cls = back.MinParams
    else:
        from . import equilibrium as back
        cls = back.EpParams
    keys = config_keys(cls)
    try:
        params = cls(variant=variant, **{keys[key]: v for key, v in spec.items() if key in keys})
    except SchemaError as e:
        raise SchemaError(f"{path}.{e.path}", e.message) from e
    _radius_rule(K, entry.keys, "search_radius", params.search_radius, path)
    args = read(_RUN_KINDS, {key: v for key, v in spec.items() if key in _RUN_KINDS}, path,
                problem.dim)
    if args["bregman"]["name"] != "neg_entropy" and "shift" in spec.get("bregman", {}):
        raise SchemaError(path + ".bregman", "only neg_entropy reads a shift")
    try:
        getattr(back, entry.validate)(problem, K, params)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e
    return entry, back, params, args


def run_algorithm(kind: str, problem, K: FeasibleSet, spec: dict, path: str = "algorithm"):
    """Check ``spec`` against its registry entry, then run the variant: ``(trace, params)``.

    A hard invariant that the variant's validator rejects before the first
    iteration is a SchemaError; guards that fire during the run propagate.
    """
    entry, back, params, args = _checked(kind, problem, K, spec, path)
    return entry.run(back, problem, K, params, args), params


def run_from_config(cfg: dict, out_dir) -> tuple[RunSummary, int, dict]:
    """Validate, dispatch, write trace.csv + summary.json; returns exit code too."""
    validate_config(cfg, {"algorithm"})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, obj, K = build_problem(require(cfg, "problem", "config"))
    algo = require(cfg, "algorithm", "config")
    paths = {"trace": out / "trace.csv", "summary": out / "summary.json"}
    trace, params = run_algorithm(kind, obj, K, algo)
    residual_ep = None
    if kind == "ep":
        from .equilibrium import ep_residual  # not at module top: only solve-ep certifies
        from .prox import GlobalSolveConfig
        # periodic certificate column: five evenly spaced states plus the last
        n = trace.iterates.shape[0]
        marks = sorted(set(np.linspace(0, n - 1, min(5, n)).astype(int)) | {n - 1})
        res_cfg = GlobalSolveConfig(grid_density=2001, search_radius=params.search_radius)
        values = ep_residual(obj, K, trace.iterates[marks], res_cfg)  # one solve for all marks
        residual_ep = {int(i): v for i, v in zip(marks, values)}
    write_trace_csv(paths["trace"], trace, is_ep=kind == "ep", residual_ep=residual_ep)
    # a bifunction records no solution, and a minimizer outside K solves nothing here
    known = obj.known_min[0] if kind == "minimize" and obj.known_min else None
    rate = dist = None
    if known is not None and K.contains(known):
        dist = float(np.linalg.norm(trace.final_point - np.asarray(known, dtype=float)))
        steps = np.arange(trace.iterates.shape[0], dtype=float)
        fit = fit_rate(steps, np.linalg.norm(trace.iterates - known, axis=-1))
        if not fit.below_floor:
            rate = {"q": fit.q, "r_squared": fit.r_squared}
    summary = RunSummary(
        problem=obj.name,
        algorithm=params.variant,
        guarded=trace.guarded,
        guard_notes=trace.guard_notes,
        iterations=trace.iterations,
        prox_or_grad_evals=trace.prox_evals,
        final_value=trace.final_value,
        final_residual=trace.final_residual,
        terminated_by=trace.terminated_by,
        distance_to_known_solution=dist,
        rate_estimate=rate,
        wall_ms=trace.wall_ms,
    )
    paths["summary"].write_text(summary.to_json() + "\n")
    return summary, _exit_code_for(trace), paths


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


_SWEEP_KINDS = {"alphas": Kind("numbers"), "rhos": Kind("numbers")}


def sweep_compare(cfg: dict, out_dir) -> dict:
    """(alpha, rho) grid for the relaxed-inertial solver vs. the plain baseline.

    Rows come out in grid order (alpha outer, rho inner) with the baseline
    (alpha=0, rho=1) appended last; the best cell minimizes iterations with
    subproblem evaluations as the tie-break.

    Every cell is checked before any runs, then all run in lockstep under
    ``minimize._drive_many``: each round, the cells' proximal requests that
    share a stack key (objective, set, solve config and ``c_k``) are one
    stacked global solve, and each cell's trace keeps the bits of its run
    alone.  Equilibrium cells' requests have no key and are solved one at a
    time.  A cell that raises ValueError or RuntimeError becomes an error
    row; any other exception ends the sweep after the rows before it are
    written.
    """
    from . import minimize as mz  # not at module top: only a sweep drives many runs
    validate_config(cfg, {"algorithm", "sweep"})
    grid = read(_SWEEP_KINDS, require(cfg, "sweep", "config"), "config.sweep")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, obj, K = build_problem(require(cfg, "problem", "config"))
    base_algo = require(cfg, "algorithm", "config")
    check_object(base_algo, "config.algorithm")
    relaxed, plain = _SWEPT[kind]

    def cell_run(alpha: float, rho: float) -> mz.Run:
        variant = relaxed if (alpha != 0.0 or rho != 1.0) else plain
        # the baseline drops the relaxed variant's keys that it does not read
        dropped = VARIANTS[relaxed].keys - VARIANTS[variant].keys
        spec = {k: v for k, v in base_algo.items() if k not in dropped}
        spec["variant"] = variant
        if variant == relaxed:
            spec.update(alpha=alpha, rho_lo=rho, rho_hi=rho)
        entry, back, params, args = _checked(kind, obj, K, spec, "algorithm")
        return entry.start(back, obj, K, params, args["x0"])

    cells = [(f"cell_{i}_{j}", a, r) for i, a in enumerate(grid["alphas"])
             for j, r in enumerate(grid["rhos"])]
    cells.append(("baseline", 0.0, 1.0))
    ends = mz._drive_many([cell_run(alpha, rho) for _, alpha, rho in cells])
    rows = []
    for (tag, alpha, rho), trace in zip(cells, ends):
        row = {"cell": tag, "alpha": alpha, "rho": rho}
        if isinstance(trace, (ValueError, RuntimeError)):
            row.update(error=str(trace), converged=False, guarded=False,
                       iterations=None, subproblem_evals=None)
        elif isinstance(trace, Exception):
            raise trace
        else:
            write_trace_csv(out / f"{tag}_trace.csv", trace, is_ep=(kind == "ep"))
            row.update(
                guarded=trace.guarded,
                converged=trace.terminated_by in ("residual", "exact_fixed_point"),
                iterations=trace.iterations,
                subproblem_evals=trace.prox_evals,
                final_residual=trace.final_residual,
            )
        rows.append(row)
    converged = [r for r in rows if r.get("converged")]
    best = min(converged, key=lambda r: (r["iterations"], r["subproblem_evals"])) if converged else None
    baseline = rows[-1]
    speedup = bool(
        best
        and baseline.get("converged")
        and best["cell"] != "baseline"
        and best["iterations"] < baseline["iterations"]
    )
    table = {
        "rows": rows,
        "best_cell": best["cell"] if best else None,
        "baseline_iterations": baseline.get("iterations"),
        "strict_speedup_found": speedup,
    }
    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cell", "alpha", "rho", "guarded", "converged", "iterations", "subproblem_evals"])
        for r in rows:
            w.writerow([r["cell"], r["alpha"], r["rho"], r.get("guarded"),
                        r.get("converged"), r.get("iterations"), r.get("subproblem_evals")])
    (out / "sweep.json").write_text(strict_json(table) + "\n")
    return table


# ---------------------------------------------------------------------------
# verify / dynamics dispatch (CLI back ends)
# ---------------------------------------------------------------------------

# the checks of each problem kind: ``call(v, target, K, **values)`` on the objective or
# bifunction, with ``v`` the verify module; its keywords after K are the keys it reads, and it
# looks its verify function up when called
CHECKS = {
    "minimize": {
        "sqc": lambda v, h, K, gamma, n, seed, radius:
            v.check_sqc_sampled(h, K, gamma, n, seed, radius),
        "modulus": lambda v, h, K, n, seed, radius: v.estimate_modulus(h, K, n, seed, radius),
        "supercoercive": lambda v, h, K, radii, seed: v.check_supercoercive(h, radii, seed=seed),
        "growth": lambda v, h, K, xbar, gamma, n, seed, radius:
            v.check_quadratic_growth(h, K, xbar, gamma, n, seed, radius),
        "foc": lambda v, h, K, gamma, n, seed, radius: v.check_foc(h, K, gamma, n, seed, radius),
        "pl": lambda v, h, K, xbar, gamma, lip, n, seed, radius:
            v.check_pl(h, K, xbar, gamma, lip, n, seed, radius),
        "subdiff": lambda v, h, K, xbar, z, beta, gamma, n, seed, radius:
            v.subdiff_member(h, K, xbar, z, beta, gamma, n, seed, radius),
        "grad": lambda v, h, K, n, seed, radius: v.check_grad(h, K, n, seed, radius),
    },
    "ep": {
        "a0": lambda v, f, K, n, seed, radius: v.check_a0(f, K, n, seed, radius),
        "pseudomonotone": lambda v, f, K, n, seed, radius:
            v.check_pseudomonotone(f, K, n, seed, radius),
        "a4": lambda v, f, K, seed, radius: v.check_a4_sampled(f, K, seed=seed, radius=radius),
        "eta": lambda v, f, K, n, seed, radius: v.estimate_eta(f, K, n, seed, radius),
    },
}


def keys_read(call: Callable) -> tuple:
    return tuple(inspect.signature(call).parameters)[3:]


_SEED = Kind("int", 0, lo=0, hi=2**64 - 1)  # a Philox key, with room for the offsets verify adds

# the kind of each check key; a check's seed defaults to the config seed
_CHECK_KINDS = {"gamma": Kind("number", None, lo=0.0), "n": Kind("int", 2000, lo=0), "seed": _SEED,
                "radius": RADIUS, "xbar": POINT, "z": POINT,
                "radii": Kind("numbers", (10.0, 100.0), lo=0.0, strict=True, at_least=2),
                "beta": Kind("number", 1.0, lo=0.0, strict=True),
                "lip": Kind("number", None, lo=0.0, strict=True)}


def run_verify(cfg: dict, out_dir) -> list[dict]:
    validate_config(cfg, {"verify", "seed"})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checks = require(cfg, "verify", "config")
    check_keys(checks, {"checks"}, "config.verify")
    kind, obj, K = build_problem(require(cfg, "problem", "config"))
    seed = convert(_SEED, cfg.get("seed", 0), "config.seed")
    kinds = {**_CHECK_KINDS, "seed": replace(_SEED, default=seed),
             "check": Kind("enum", choices=tuple(CHECKS[kind]))}
    items = require(checks, "checks", "config.verify")
    if not isinstance(items, list):
        raise SchemaError("config.verify.checks", f"expected a list, got {type(items).__name__}")
    runs = []  # every check is read before any runs
    for i, c in enumerate(items):
        path = f"config.verify.checks[{i}]"
        name = convert(kinds["check"], require(c, "check", path), path + ".check")
        keys = keys_read(CHECKS[kind][name])
        args = read({key: kinds[key] for key in ("check", *keys)}, c, path, obj.dim)
        del args["check"]
        _radius_rule(K, keys, "radius", args.get("radius"), path)
        runs.append((CHECKS[kind][name], args))
    from . import verify  # not at module top: only verify runs checks
    reports = [asdict(call(verify, obj, K, **args)) for call, args in runs]
    (out / "checks.json").write_text(strict_json(reports) + "\n")
    return reports


_DYNAMICS_KINDS = {"system": Kind("enum", choices=("ds1", "ds2", "ds2_undamped")), "x0": POINT,
                   "v0": POINT, "T": Kind("number"), "dt": Kind("number", lo=0.0, strict=True),
                   "damping": Kind("number", 0.0, lo=0.0)}
# the keys each system reads beyond system, x0, T and dt
_SYSTEM_KEYS = {"ds1": set(), "ds2": {"v0", "damping"}, "ds2_undamped": {"v0"}}


def run_dynamics(cfg: dict, out_dir) -> dict:
    validate_config(cfg, {"dynamics"})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, h, K = build_problem(require(cfg, "problem", "config"))
    if kind != "minimize":
        raise SchemaError("config.problem", "dynamics needs an objective problem")
    if K is not h.domain:
        raise SchemaError("config.problem.set",
                          "dynamics is unconstrained: it takes no problem.set")
    spec = require(cfg, "dynamics", "config")
    d = read(_DYNAMICS_KINDS, spec, "config.dynamics", h.dim)
    check_keys(spec, {"system", "x0", "T", "dt"} | _SYSTEM_KEYS[d["system"]], "config.dynamics")
    T, dt = d["T"], d["dt"]
    if not T >= dt:
        raise SchemaError("config.dynamics.T", f"must be at least dt = {dt}, got {T}")
    x0, v0 = (np.zeros(h.dim) if d[key] is None else d[key] for key in ("x0", "v0"))
    from .dynamics import integrate_ds1, integrate_ds2  # not at module top: only dynamics
    if d["system"] == "ds1":
        traj = integrate_ds1(h, None, x0, T, dt)
        speed = np.linalg.norm(h.grad_many(traj.states), axis=-1)
    else:
        traj = integrate_ds2(h, d["damping"] if d["system"] == "ds2" else 0.0, x0, v0, T, dt)
        speed = np.linalg.norm(traj.velocities, axis=-1)
    path = out / "trajectory.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"u{i}" for i in range(h.dim)] + ["value", "speed"])
        # repr of a Python float from tolist() is _fmt of the entry; one
        # row at a time, so no list of the whole table is held
        table = np.column_stack([traj.times, traj.states, traj.values, speed])
        w.writerows(map(repr, row.tolist()) for row in table)
    steps = traj.times.shape[0] - 1
    drift = None
    if d["system"] == "ds2_undamped":  # the flow conserves 1/2 ||v||^2 + h(u)
        energy = 0.5 * np.sum(traj.velocities**2, axis=-1) + traj.values
        drift = float(np.max(np.abs(energy - energy[0])))
    summary = {"system": d["system"], "steps": steps, "dt": dt, "grad_evals": 4 * steps,
               "final_state": traj.final_state.tolist(), "final_value": float(traj.values[-1]),
               "final_speed": float(speed[-1]), "energy_drift": drift,
               "rate_fit": None if h.known_min is None else asdict(
                   fit_rate(traj.times, np.linalg.norm(traj.states - h.known_min[0], axis=-1)))}
    (out / "summary.json").write_text(strict_json(summary) + "\n")
    return {"trajectory": str(path), "final_state": summary["final_state"],
            "final_value": summary["final_value"]}
