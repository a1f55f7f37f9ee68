"""Run orchestration: config schema, dispatch, trace/summary emission, sweeps.

Configs are JSON with a ``schema_version`` field; a key that nothing reads
is rejected with a field-path diagnostic.  ``VARIANTS`` is the one table of
algorithms and ``CHECKS`` the one table of ``verify`` checks; each entry
gives its problem kind and the keys it reads.  Exit codes (used by the
CLI): 0 when a run converged, 1 on a schema violation (a hard range that
the variant's validator rejects before the first iteration included), 2 on
hitting the iteration cap, 3 on a guard that fires during a run.  Trace
CSVs are byte-reproducible: the ``wall_ms`` column is left empty on purpose
(wall time lives in the summary JSON, the only nondeterministic output).
"""

from __future__ import annotations

import csv
import inspect
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import equilibrium as ep
from . import minimize as mz
from . import verify
from .dynamics import integrate_ds1, integrate_ds2, loglinear_rate
from .functions import (_BUILDERS, Objective, bifunction_catalog, bregman_catalog, catalog,
                        glt_example)
from .geometry import FeasibleSet, as_point, feasible_set_from_spec
from .prox import GlobalSolveConfig

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_MAX_ITERS = 2
EXIT_GUARD = 3

TRACE_HEADER = ["k", "value", "residual", "step_norm", "cum_prox_evals", "wall_ms"]
EP_TRACE_HEADER = TRACE_HEADER + ["residual_ep", "line_search_m"]


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _object(d, path: str):
    if not isinstance(d, dict):
        raise SchemaError(path, f"expected an object, got {type(d).__name__}")


def _check_keys(d: dict, allowed: set[str], path: str):
    _object(d, path)
    unknown = set(d) - allowed
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _require(d: dict, key: str, path: str):
    _object(d, path)
    if key not in d:
        raise SchemaError(path, f"missing required key {key!r}")
    return d[key]


def _point(d: dict, key: str, dim: int, path: str):
    """Optional point field, checked for finiteness and dimension (None if absent)."""
    if key not in d:
        return None
    try:
        return as_point(d[key], dim)
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{path}.{key}", str(e)) from e


def _convert(value, conv, path: str):
    """``conv(value)``; a value it rejects is a SchemaError at ``path``."""
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(path, str(e)) from e


def _integer(value) -> int:
    """``value`` as an int: a JSON number with no fractional part, never a boolean."""
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and float(value).is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _number(d: dict, key: str, path: str, conv=float, default=None):
    """Optional field ``d[key]`` converted by ``conv``; ``default`` when absent or null."""
    return default if d.get(key) is None else _convert(d[key], conv, f"{path}.{key}")


def _numbers(value, path: str, at_least: int = 1) -> list[float]:
    """A list of at least ``at_least`` numbers, as floats."""
    if not isinstance(value, list) or len(value) < at_least:
        raise SchemaError(path, f"expected a list of at least {at_least} numbers, got {value!r}")
    return [_convert(v, float, f"{path}[{i}]") for i, v in enumerate(value)]


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def _finite(value, path: str):
    """Every number in the JSON value ``value`` must be finite."""
    if isinstance(value, dict):
        for key, v in value.items():
            _finite(v, f"{path}.{key}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _finite(v, f"{path}[{i}]")
    elif isinstance(value, float) and not np.isfinite(value):
        raise SchemaError(path, f"expected a finite number, got {value}")


# the keys of each set kind; an affine set is given by a normal or by a basis
_SET_KEYS = {"full_space": {"dim"}, "box": {"lo", "hi"}, "ball": {"center", "radius"},
             "affine": {"normal", "value"}, "halfspaces": {"normals", "bounds"}}


def _build_set(spec, path: str) -> FeasibleSet:
    """A feasible set from its spec; every defect of the spec is a SchemaError at ``path``."""
    _object(spec, path)
    _finite(spec, path)
    if "dim" in spec:  # the one integer of a set spec
        _convert(spec["dim"], _integer, f"{path}.dim")
    kind = spec.get("kind")
    if isinstance(kind, str) and kind in _SET_KEYS:
        keys = {"basis", "offset"} if kind == "affine" and "normal" not in spec else _SET_KEYS[kind]
        _check_keys(spec, {"kind"} | keys, path)
    try:
        return feasible_set_from_spec(spec)
    except KeyError as e:
        raise SchemaError(path, f"missing required key {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise SchemaError(path, str(e)) from e


_NUMBER_ANNOTATIONS = {float, float | None}


def _catalog_params(spec: dict, path: str, make=None) -> dict:
    """A copy of ``spec["params"]``, an object whose numbers are finite, checked against ``make``.

    A set spec under the ``K`` parameter of the catalog constructor ``make``
    is built, and a parameter annotated as a number must hold one (or null,
    where null is its default); one annotated as an int must hold an integer.
    """
    params = spec.get("params", {})
    _object(params, path + ".params")
    _finite(params, path + ".params")
    params = dict(params)
    signature = inspect.signature(make, eval_str=True).parameters if make else {}
    for key, prm in signature.items():
        if key not in params:
            continue
        value = params[key]
        if key == "K":
            params[key] = _build_set(value, f"{path}.params.K")
        elif prm.annotation is int:
            _convert(value, _integer, f"{path}.params.{key}")
        elif (prm.annotation in _NUMBER_ANNOTATIONS and not (value is None and prm.default is None)
              and (isinstance(value, bool) or not isinstance(value, (int, float)))):
            raise SchemaError(f"{path}.params.{key}", f"expected a number, got {value!r}")
    return params


def _build_objective(spec: dict, path: str) -> Objective:
    _check_keys(spec, {"catalog", "params"}, path)
    name = _require(spec, "catalog", path)
    params = _catalog_params(spec, path, _BUILDERS.get(name) if isinstance(name, str) else None)
    try:
        return catalog(name, **params)
    except (TypeError, ValueError) as e:
        raise SchemaError(path, str(e)) from e


def _build_bifunction(spec: dict, path: str):
    _check_keys(spec, {"catalog", "params"}, path)
    name = _require(spec, "catalog", path)
    if name == "value_gap":
        params = _catalog_params(spec, path)
        _check_keys(params, {"objective"}, path + ".params")
        h = _build_objective(_require(params, "objective", path + ".params"),
                             path + ".params.objective")
        return bifunction_catalog("value_gap", h=h)
    if name == "glt_example":
        params = _catalog_params(spec, path, glt_example)
        try:
            return bifunction_catalog("glt_example", **params)
        except (TypeError, ValueError) as e:
            raise SchemaError(path, str(e)) from e
    raise SchemaError(path, f"unknown bifunction {name!r}")


def build_problem(spec: dict, path: str = "problem"):
    """Returns ("minimize", Objective, K) or ("ep", EpProblem, K)."""
    _check_keys(spec, {"kind", "objective", "bifunction", "set"}, path)
    kind = spec.get("kind", "minimize")
    K = _build_set(spec["set"], path + ".set") if "set" in spec else None
    if kind == "minimize":
        func = _build_objective(_require(spec, "objective", path), path + ".objective")
    elif kind == "ep":
        func = _build_bifunction(_require(spec, "bifunction", path), path + ".bifunction")
    else:
        raise SchemaError(path + ".kind", f"unknown problem kind {kind!r}")
    if K is None:
        K = func.domain
    elif K.dim != func.dim:
        raise SchemaError(path + ".set", f"dimension {K.dim} differs from the problem's {func.dim}")
    return kind, (func if kind == "minimize" else ep.EpProblem(func, K)), K


# ---------------------------------------------------------------------------
# algorithm construction
# ---------------------------------------------------------------------------

_COMMON_KEYS = {"variant", "x0", "stop_tol", "max_iters"}
_SOLVES = {"prox", "search_radius"}  # the keys of a variant that makes global solves


@dataclass(frozen=True)
class Variant:
    """One entry of the variant registry.

    ``keys``: the config keys the variant reads beyond ``_COMMON_KEYS``, the
    only others it accepts.  ``validate(problem, K, params)`` returns guard
    notes and raises ValueError on a hard invariant.  A runner,
    ``run(problem, K, params, x0, x1, spec)``, is looked up when called,
    never at import, so a runner replaced on its module (or in
    ``EP_RUNNERS``) is the one that runs.  The swept variants also have
    ``start(problem, K, params, x0)``: the same run, not yet started, for
    ``minimize._drive_many``.  PPA and PPA_EP start the relaxed-inertial
    run: their keys exclude ``alpha`` and the ``rho`` pair, so their
    parameters already hold alpha = 0, rho = 1.
    """

    kind: str
    keys: set
    validate: Callable
    run: Callable
    start: Callable | None = None


def _run_bppa(h, K, p, x0, x1, spec):
    path = "algorithm.bregman"
    br = spec.get("bregman", {"name": "half_sq_norm"})
    _check_keys(br, {"name", "shift"}, path)
    name = _require(br, "name", path)
    try:
        phi = bregman_catalog(name, dim=h.dim, shift=float(br.get("shift", 0.0)))
    except (TypeError, ValueError) as e:
        raise SchemaError(path, str(e)) from e
    return mz.run_bppa(h, K, phi, p, x0)


def _ep(keys, validate, start=None) -> Variant:
    return Variant("ep", keys | _SOLVES, lambda prob, K, p: validate(prob, p),
                   lambda prob, K, p, x0, x1, spec: ep.EP_RUNNERS[p.variant](prob, p, x0),
                   start)


VARIANTS = {
    "PPA": Variant("minimize", {"c"} | _SOLVES, mz.validate_rippa,
                   lambda h, K, p, x0, x1, spec: mz.run_ppa(h, K, p, x0),
                   lambda h, K, p, x0: mz.start_rippa(h, K, p, x0)),
    "RIPPA": Variant("minimize", {"c", "alpha", "rho_lo", "rho_hi"} | _SOLVES, mz.validate_rippa,
                     lambda h, K, p, x0, x1, spec: mz.run_rippa(h, K, p, x0),
                     lambda h, K, p, x0: mz.start_rippa(h, K, p, x0)),
    "BPPA": Variant("minimize", {"c", "bregman"} | _SOLVES, mz.validate_bppa, _run_bppa),
    "SUBGRAD": Variant("minimize", {"steps", "beta", "search_radius"}, mz.validate_subgradient,
                       lambda h, K, p, x0, x1, spec: mz.run_subgradient(h, K, p, x0)),
    "GRAD": Variant("minimize", {"steps"}, mz.validate_gradient,
                    lambda h, K, p, x0, x1, spec: mz.run_gradient(h, p, x0)),
    "HEAVY_BALL": Variant("minimize", {"theta", "hb_eta", "x1"}, mz.validate_heavy_ball,
                          lambda h, K, p, x0, x1, spec: mz.run_heavy_ball(h, p, x0, x1)),
    "INERTIAL_GM": Variant("minimize", {"steps", "eta_min", "x1"}, mz.validate_inertial_gm,
                           lambda h, K, p, x0, x1, spec: mz.run_inertial_gm(h, p, x0, x1)),
    "RIPPA_EP": _ep({"beta", "alpha", "rho_lo", "rho_hi", "policy"}, ep.validate_rippa_ep,
                    lambda prob, K, p, x0: ep.start_rippa_ep(prob, p, x0)),
    "PPA_EP": _ep({"beta", "policy"}, ep.validate_rippa_ep,
                  lambda prob, K, p, x0: ep.start_rippa_ep(prob, p, x0)),
    "REG_EP": _ep({"beta", "inner_max"}, ep.validate_reg_ep),
    "IEPPA_EP": _ep({"beta", "alpha"}, ep.validate_ieppa),
    "TWO_PPA_EP": _ep({"beta", "epsilon"}, ep.validate_2ppa),
    "EG_EP": _ep({"beta", "ls_alpha", "ls_rho", "steps"}, ep.validate_eg),
    "PEG_EP": _ep({"beta", "ls_alpha", "ls_rho", "steps"}, ep.validate_peg),
}

# the relaxed-inertial variant a sweep of each problem kind runs, and its baseline
_SWEPT = {"minimize": ("RIPPA", "PPA"), "ep": ("RIPPA_EP", "PPA_EP")}

# parameters that are not floats; schedule-valued ones are found by their default
_CONVERT = {"max_iters": _integer, "inner_max": _integer, "policy": str}

# algorithm keys passed to the runner rather than kept in the parameter bag
_RUN_ARGS = {"x0", "x1", "bregman"}

# the keys of ``algorithm.prox`` and how each value converts
_SOLVE_KEYS = {"n_starts": _integer, "grid_density": _integer, "local_tol": float,
               "max_local_iters": _integer}


def _solve_cfg_from(spec: dict, path: str) -> GlobalSolveConfig:
    _check_keys(spec, set(_SOLVE_KEYS), path)
    kw = {key: _convert(value, _SOLVE_KEYS[key], f"{path}.{key}") for key, value in spec.items()}
    try:
        return GlobalSolveConfig(**kw)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e


def _sched(spec, path: str) -> mz.Schedule:
    try:
        return mz.Schedule.from_spec(spec)
    except (KeyError, ValueError, TypeError) as e:
        raise SchemaError(path, f"bad schedule: {e}") from e


def _params(kind: str, spec: dict, path: str):
    """The run's parameter bag from the keys of ``spec``; a rejected value is a SchemaError."""
    cls = mz.MinParams if kind == "minimize" else ep.EpParams
    default = cls()
    kw: dict = {"variant": spec["variant"]}
    for key in sorted(set(spec) - _RUN_ARGS - {"variant"}):
        kpath = f"{path}.{key}"
        if key == "prox":
            kw["prox_cfg"] = _solve_cfg_from(spec[key], kpath)
        elif isinstance(getattr(default, key), mz.Schedule):
            kw[key] = _sched(spec[key], kpath)
        else:
            kw[key] = _convert(spec[key], _CONVERT.get(key, float), kpath)
    try:
        return cls(**kw)
    except mz.ParamError as e:
        raise SchemaError(f"{path}.{e.key}", e.message) from e
    except ValueError as e:
        raise SchemaError(path, str(e)) from e


def validate_config(cfg: dict) -> None:
    """Schema-validate a config; raises SchemaError with a field path."""
    _check_keys(cfg, {"schema_version", "seed", "problem", "algorithm", "sweep",
                      "dynamics", "verify"}, "config")
    version = _require(cfg, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise SchemaError("config.schema_version", f"unsupported version {version!r}")
    if "problem" not in cfg:
        raise SchemaError("config", "missing required key 'problem'")


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return repr(float(v))


def write_trace_csv(path, trace: mz.IterationTrace, is_ep: bool = False, residual_ep: dict | None = None):
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
class LinearRateFit:
    q: float | None
    r_squared: float | None
    n_points: int
    below_floor: bool


def fit_linear_rate(trace: mz.IterationTrace, target, window: float = 0.5) -> LinearRateFit:
    """Per-iteration linear rate ``q = exp(slope of log distance)``."""
    target = np.asarray(target, dtype=float)
    d = np.linalg.norm(trace.iterates - target, axis=-1)
    fit = loglinear_rate(np.arange(d.shape[0], dtype=float), d, window=window)
    if fit.below_floor:
        return LinearRateFit(None, None, fit.n_points, True)
    return LinearRateFit(float(np.exp(fit.rate)), fit.r_squared, fit.n_points, False)


def _exit_code_for(trace: mz.IterationTrace) -> int:
    if trace.terminated_by in ("residual", "exact_fixed_point"):
        return EXIT_OK
    if trace.terminated_by == "max_iters":
        return EXIT_MAX_ITERS
    return EXIT_GUARD  # diverged and other guard-terminated runs


def _summarize(problem_label, algo_label, trace, known=None, rate=None) -> RunSummary:
    dist = None
    if known is not None:
        dist = float(np.linalg.norm(trace.final_point - np.asarray(known, dtype=float)))
    return RunSummary(
        problem=problem_label,
        algorithm=algo_label,
        guarded=trace.guarded,
        iterations=trace.iterations,
        prox_or_grad_evals=trace.prox_evals,
        final_value=trace.final_value,
        final_residual=trace.final_residual,
        terminated_by=trace.terminated_by,
        distance_to_known_solution=dist,
        rate_estimate=rate,
        wall_ms=trace.wall_ms,
    )


def _radius_rule(K: FeasibleSet, keys, key: str, value, path: str):
    """An entry that accepts the radius ``key`` needs it on a set with no bounding box."""
    if key in keys and value is None and not K.is_bounded:
        raise SchemaError(path, f"missing required key {key!r} ({K.kind} has no bounding box)")


def _checked(kind: str, problem, K: FeasibleSet, spec: dict, path: str) -> tuple:
    """``spec`` checked against its registry entry: ``(entry, params, x0, x1)``.

    A hard invariant that the variant's validator rejects is a SchemaError.
    """
    variant = _require(spec, "variant", path)
    entry = VARIANTS.get(variant) if isinstance(variant, str) else None
    if entry is None or entry.kind != kind:
        raise SchemaError(path + ".variant", f"unknown variant {variant!r}")
    _check_keys(spec, _COMMON_KEYS | entry.keys, path)
    params = _params(kind, spec, path)
    _radius_rule(K, entry.keys, "search_radius", params.search_radius, path)
    _require(spec, "x0", path)
    dim = problem.dim if kind == "minimize" else problem.f.dim
    x0, x1 = _point(spec, "x0", dim, path), _point(spec, "x1", dim, path)
    try:
        entry.validate(problem, K, params)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e
    return entry, params, x0, x1


def run_algorithm(kind: str, problem, K: FeasibleSet, spec: dict,
                  path: str = "algorithm") -> mz.IterationTrace:
    """Check ``spec`` against its registry entry, then run the variant.

    A hard invariant that the variant's validator rejects before the first
    iteration is a SchemaError; guards that fire during the run propagate.
    """
    entry, params, x0, x1 = _checked(kind, problem, K, spec, path)
    return entry.run(problem, K, params, x0, x1, spec)


def run_from_config(cfg: dict, out_dir) -> tuple[RunSummary, int, dict]:
    """Validate, dispatch, write trace.csv + summary.json; returns exit code too."""
    validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, obj, K = build_problem(_require(cfg, "problem", "config"))
    algo = _require(cfg, "algorithm", "config")
    paths = {"trace": out / "trace.csv", "summary": out / "summary.json"}
    trace = run_algorithm(kind, obj, K, algo)
    if kind == "minimize":
        known = obj.known_min[0] if obj.known_min else None
        write_trace_csv(paths["trace"], trace)
        label = obj.name
    else:
        known = obj.known_solution
        # periodic certificate column: five evenly spaced states plus the last
        n = trace.iterates.shape[0]
        marks = sorted(set(np.linspace(0, n - 1, min(5, n)).astype(int)) | {n - 1})
        res_cfg = GlobalSolveConfig(grid_density=2001, search_radius=algo.get("search_radius"))
        values = ep.ep_residual(obj, trace.iterates[marks], res_cfg)  # one solve for all marks
        residual_ep = {int(i): v for i, v in zip(marks, values)}
        write_trace_csv(paths["trace"], trace, is_ep=True, residual_ep=residual_ep)
        label = obj.f.name
    if known is not None and not K.contains(known):
        known = None  # a minimizer outside K is not a solution of this problem
    rate = None
    if known is not None:
        fit = fit_linear_rate(trace, known)
        if not fit.below_floor:
            rate = {"q": fit.q, "r_squared": fit.r_squared}
    summary = _summarize(label, algo["variant"], trace, known, rate)
    paths["summary"].write_text(summary.to_json() + "\n")
    return summary, _exit_code_for(trace), paths


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def sweep_compare(cfg: dict, out_dir, workers: int = 1) -> dict:
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
    written.  ``workers`` is accepted and ignored.
    """
    validate_config(cfg)
    sweep = _require(cfg, "sweep", "config")
    _check_keys(sweep, {"alphas", "rhos"}, "config.sweep")
    alphas = _numbers(_require(sweep, "alphas", "config.sweep"), "config.sweep.alphas")
    rhos = _numbers(_require(sweep, "rhos", "config.sweep"), "config.sweep.rhos")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, obj, K = build_problem(_require(cfg, "problem", "config"))
    base_algo = _require(cfg, "algorithm", "config")
    _object(base_algo, "config.algorithm")
    relaxed, plain = _SWEPT[kind]

    def cell_run(alpha: float, rho: float) -> mz.Run:
        variant = relaxed if (alpha != 0.0 or rho != 1.0) else plain
        # the baseline drops the relaxed variant's keys that it does not read
        dropped = VARIANTS[relaxed].keys - VARIANTS[variant].keys
        spec = {k: v for k, v in base_algo.items() if k not in dropped}
        spec["variant"] = variant
        if variant == relaxed:
            spec.update(alpha=alpha, rho_lo=rho, rho_hi=rho)
        entry, params, x0, _ = _checked(kind, obj, K, spec, "algorithm")
        return entry.start(obj, K, params, x0)

    cells = [(f"cell_{i}_{j}", a, r) for i, a in enumerate(alphas) for j, r in enumerate(rhos)]
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

# the checks of each problem kind: ``call(target, K, **values)`` on the objective or bifunction;
# its keywords after K are the keys it reads, and it looks its verify function up when called
CHECKS = {
    "minimize": {
        "sqc": lambda h, K, gamma, n, seed, radius:
            verify.check_sqc_sampled(h, K, gamma, n, seed, radius),
        "modulus": lambda h, K, n, seed, radius: verify.estimate_modulus(h, K, n, seed, radius),
        "supercoercive": lambda h, K, radii, seed: verify.check_supercoercive(h, radii, seed=seed),
        "growth": lambda h, K, xbar, gamma, n, seed, radius:
            verify.check_quadratic_growth(h, K, xbar, gamma, n, seed, radius),
        "foc": lambda h, K, gamma, n, seed, radius: verify.check_foc(h, K, gamma, n, seed, radius),
        "pl": lambda h, K, xbar, gamma, lip, n, seed, radius:
            verify.check_pl(h, K, xbar, gamma, lip, n, seed, radius),
        "subdiff": lambda h, K, xbar, z, beta, gamma, n, seed, radius:
            verify.subdiff_member(h, K, xbar, z, beta, gamma, n, seed, radius),
        "grad": lambda h, K, n, seed, radius: verify.check_grad(h, K, n, seed, radius),
    },
    "ep": {
        "a0": lambda f, K, n, seed, radius: verify.check_a0(f, K, n, seed, radius),
        "pseudomonotone": lambda f, K, n, seed, radius:
            verify.check_pseudomonotone(f, K, n, seed, radius),
        "a4": lambda f, K, seed, radius: verify.check_a4_sampled(f, K, seed=seed, radius=radius),
        "eta": lambda f, K, n, seed, radius: verify.estimate_eta(f, K, n, seed, radius),
    },
}


def keys_read(call: Callable) -> tuple:
    return tuple(inspect.signature(call).parameters)[2:]


def _check_arg(c: dict, key: str, path: str, dim: int, config_seed: int):
    """The value of the check key ``key``, converted; its default when absent."""
    if key in ("xbar", "z"):
        return _point(c, key, dim, path)
    if key == "radii":
        return _numbers(c.get(key, [10.0, 100.0]), f"{path}.{key}", at_least=2)
    value = _number(c, key, path, _integer if key in ("n", "seed") else float,
                    {"seed": config_seed, "n": 2000, "beta": 1.0}.get(key))
    if key == "n" and value < 0:
        raise SchemaError(f"{path}.n", f"must be nonnegative, got {value}")
    return value


def run_verify(cfg: dict, out_dir) -> list[dict]:
    validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checks = _require(cfg, "verify", "config")
    _check_keys(checks, {"checks"}, "config.verify")
    kind, obj, K = build_problem(_require(cfg, "problem", "config"))
    target = obj if kind == "minimize" else obj.f
    config_seed = _convert(cfg.get("seed", 0), _integer, "config.seed")
    items = _require(checks, "checks", "config.verify")
    if not isinstance(items, list):
        raise SchemaError("config.verify.checks", f"expected a list, got {type(items).__name__}")
    reports = []
    for i, c in enumerate(items):
        path = f"config.verify.checks[{i}]"
        name = _require(c, "check", path)
        call = CHECKS[kind].get(name) if isinstance(name, str) else None
        if call is None:
            raise SchemaError(path + ".check", f"unknown check {name!r} for a {kind} problem")
        keys = keys_read(call)
        # values first, so a bad value is reported before an unread key
        args = {key: _check_arg(c, key, path, target.dim, config_seed) for key in keys}
        _check_keys(c, {"check", *keys}, path)
        _radius_rule(K, keys, "radius", args.get("radius"), path)
        reports.append(asdict(call(target, K, **args)))
    (out / "checks.json").write_text(strict_json(reports) + "\n")
    return reports


def run_dynamics(cfg: dict, out_dir) -> dict:
    validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, h, K = build_problem(_require(cfg, "problem", "config"))
    if kind != "minimize":
        raise SchemaError("config.problem", "dynamics needs an objective problem")
    if K is not h.domain:
        raise SchemaError("config.problem.set",
                          "dynamics is unconstrained: it takes no problem.set")
    spec = _require(cfg, "dynamics", "config")
    _check_keys(spec, {"system", "x0", "v0", "T", "dt", "damping"}, "config.dynamics")
    path = "config.dynamics"
    system = _require(spec, "system", path)
    T = _convert(_require(spec, "T", path), float, path + ".T")
    dt = _convert(_require(spec, "dt", path), float, path + ".dt")
    if not dt > 0:
        raise SchemaError(path + ".dt", f"must be positive, got {dt}")
    if not dt <= T < np.inf:
        raise SchemaError(path + ".T", f"must be finite and at least dt = {dt}, got {T}")
    damping = _number(spec, "damping", path, default=0.0)
    if not damping >= 0:
        raise SchemaError(path + ".damping", f"must be nonnegative, got {damping}")
    x0, v0 = (np.zeros(h.dim) if key not in spec else _point(spec, key, h.dim, path)
              for key in ("x0", "v0"))
    if system == "ds1":
        traj = integrate_ds1(h, None, x0, T, dt)
        speed = np.linalg.norm(h.grad_many(traj.states), axis=-1)
    elif system in ("ds2", "ds2_undamped"):
        traj = integrate_ds2(h, damping if system == "ds2" else 0.0, x0, v0, T, dt)
        speed = np.linalg.norm(traj.velocities, axis=-1)
    else:
        raise SchemaError("config.dynamics.system", f"unknown system {system!r}")
    path = out / "trajectory.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"u{i}" for i in range(h.dim)] + ["value", "speed"])
        # repr of a Python float from tolist() is _fmt of the entry; one
        # row at a time, so no list of the whole table is held
        table = np.column_stack([traj.times, traj.states, traj.values, speed])
        w.writerows(map(repr, row.tolist()) for row in table)
    return {"trajectory": str(path), "final_state": traj.final_state.tolist(),
            "final_value": float(traj.values[-1])}
