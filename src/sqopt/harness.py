"""Run orchestration: config schema, dispatch, trace/summary emission, sweeps.

Configs are JSON with a ``schema_version`` field; unknown keys are rejected
with a field-path diagnostic.  ``VARIANTS`` is the one table of algorithms:
each entry gives its problem kind, accepted keys, search-radius need,
validator and runner.  Exit-code contract (used by the CLI): 0 when a run
converged, 1 on a schema violation (a hard range that the variant's
validator rejects before the first iteration included), 2 on hitting the
iteration cap, 3 on a guard that fires during a run.  Trace CSVs are
byte-reproducible: the ``wall_ms`` column is left empty on purpose (wall
time lives in the summary JSON, which is the only nondeterministic output).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import equilibrium as ep
from . import minimize as mz
from . import verify
from .dynamics import integrate_ds1, integrate_ds2, loglinear_rate
from .functions import Objective, bifunction_catalog, bregman_catalog, catalog
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


def _check_keys(d: dict, allowed: set[str], path: str):
    if not isinstance(d, dict):
        raise SchemaError(path, f"expected an object, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _require(d: dict, key: str, path: str):
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


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def _build_objective(spec: dict, path: str) -> Objective:
    _check_keys(spec, {"catalog", "params"}, path)
    name = _require(spec, "catalog", path)
    params = dict(spec.get("params", {}))
    if name == "quad_fractional" and "K" in params:
        params["K"] = feasible_set_from_spec(params["K"])
    try:
        return catalog(name, **params)
    except (TypeError, ValueError) as e:
        raise SchemaError(path, str(e)) from e


def _build_bifunction(spec: dict, path: str):
    _check_keys(spec, {"catalog", "params"}, path)
    name = _require(spec, "catalog", path)
    params = dict(spec.get("params", {}))
    try:
        if name == "value_gap":
            h = _build_objective(_require(params, "objective", path), path + ".objective")
            return bifunction_catalog("value_gap", h=h)
        if name == "glt_example":
            if "K" in params:
                params["K"] = feasible_set_from_spec(params["K"])
            return bifunction_catalog("glt_example", **params)
    except SchemaError:
        raise
    except (TypeError, ValueError) as e:
        raise SchemaError(path, str(e)) from e
    raise SchemaError(path, f"unknown bifunction {name!r}")


def build_problem(spec: dict, path: str = "problem"):
    """Returns ("minimize", Objective, K) or ("ep", EpProblem, K)."""
    _check_keys(spec, {"kind", "objective", "bifunction", "set"}, path)
    kind = spec.get("kind", "minimize")
    K: FeasibleSet | None = None
    if "set" in spec:
        try:
            K = feasible_set_from_spec(spec["set"])
        except (ValueError, KeyError) as e:
            raise SchemaError(path + ".set", str(e)) from e
    if kind == "minimize":
        h = _build_objective(_require(spec, "objective", path), path + ".objective")
        return kind, h, (K or h.domain)
    if kind == "ep":
        f = _build_bifunction(_require(spec, "bifunction", path), path + ".bifunction")
        return kind, ep.EpProblem(f, K or f.domain), (K or f.domain)
    raise SchemaError(path + ".kind", f"unknown problem kind {kind!r}")


# ---------------------------------------------------------------------------
# algorithm construction
# ---------------------------------------------------------------------------

_COMMON_KEYS = {"variant", "x0", "x1", "stop_tol", "max_iters", "search_radius", "prox"}


@dataclass(frozen=True)
class Variant:
    """One entry of the variant registry.

    ``keys``: the config keys the variant accepts beyond ``_COMMON_KEYS``.
    ``radius``: where a run bounds an unbounded set, and so needs a search
    radius: ``none`` never, ``solve`` only in its global solves (which also
    read ``prox.search_radius``), ``sampled`` also to sample or certify.
    ``validate(problem, K, params)`` returns guard notes and raises
    ValueError on a hard invariant.  ``run(problem, K, params, x0, x1, spec)``
    looks its runner up when called, never at import, so a runner replaced
    on its module (or in ``EP_RUNNERS``) is the one that runs.
    """

    kind: str
    keys: set
    radius: str
    validate: Callable
    run: Callable


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


def _ep(keys, validate) -> Variant:
    return Variant("ep", keys, "sampled", lambda prob, K, p: validate(prob, p),
                   lambda prob, K, p, x0, x1, spec: ep.EP_RUNNERS[p.variant](prob, p, x0))


VARIANTS = {
    "PPA": Variant("minimize", {"c"}, "solve", mz.validate_rippa,
                   lambda h, K, p, x0, x1, spec: mz.run_ppa(h, K, p, x0)),
    "RIPPA": Variant("minimize", {"c", "alpha", "rho_lo", "rho_hi"}, "solve", mz.validate_rippa,
                     lambda h, K, p, x0, x1, spec: mz.run_rippa(h, K, p, x0)),
    "BPPA": Variant("minimize", {"c", "bregman"}, "solve", mz.validate_bppa, _run_bppa),
    "SUBGRAD": Variant("minimize", {"steps", "beta"}, "sampled", mz.validate_subgradient,
                       lambda h, K, p, x0, x1, spec: mz.run_subgradient(h, K, p, x0)),
    "GRAD": Variant("minimize", {"steps"}, "none", mz.validate_gradient,
                    lambda h, K, p, x0, x1, spec: mz.run_gradient(h, p, x0)),
    "HEAVY_BALL": Variant("minimize", {"theta", "hb_eta"}, "none", mz.validate_heavy_ball,
                          lambda h, K, p, x0, x1, spec: mz.run_heavy_ball(h, p, x0, x1)),
    "INERTIAL_GM": Variant("minimize", {"steps", "eta_min"}, "none", mz.validate_inertial_gm,
                           lambda h, K, p, x0, x1, spec: mz.run_inertial_gm(h, p, x0, x1)),
    "RIPPA_EP": _ep({"beta", "alpha", "rho_lo", "rho_hi", "policy"}, ep.validate_rippa_ep),
    "PPA_EP": _ep({"beta", "policy"}, ep.validate_rippa_ep),
    "REG_EP": _ep({"beta", "inner_max"}, ep.validate_reg_ep),
    "IEPPA_EP": _ep({"beta", "alpha"}, ep.validate_ieppa),
    "TWO_PPA_EP": _ep({"beta", "epsilon"}, ep.validate_2ppa),
    "EG_EP": _ep({"beta", "ls_alpha", "ls_rho", "steps"}, ep.validate_eg),
    "PEG_EP": _ep({"beta", "ls_alpha", "ls_rho", "steps"}, ep.validate_peg),
}

# the relaxed-inertial variant a sweep of each problem kind runs, and its baseline
_SWEPT = {"minimize": ("RIPPA", "PPA"), "ep": ("RIPPA_EP", "PPA_EP")}

# parameters that are not floats; schedule-valued ones are found by their default
_CONVERT = {"max_iters": int, "inner_max": int, "policy": str}


# the keys of ``algorithm.prox`` and how each value converts
_SOLVE_KEYS = {"n_starts": int, "grid_density": int, "local_tol": float,
               "max_local_iters": int, "seed": int, "search_radius": float}


def _solve_cfg_from(spec: dict, path: str) -> GlobalSolveConfig:
    _check_keys(spec, set(_SOLVE_KEYS), path)
    kw = {}
    for key, value in spec.items():
        try:
            kw[key] = _SOLVE_KEYS[key](value)
        except (TypeError, ValueError, OverflowError) as e:
            raise SchemaError(f"{path}.{key}", str(e)) from e
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
    """The run's parameter bag, built from the keys of ``spec``."""
    cls = mz.MinParams if kind == "minimize" else ep.EpParams
    default = cls()
    kw: dict = {"variant": spec["variant"]}
    for key in sorted(set(spec) - {"variant", "x0", "x1", "bregman"}):
        kpath = f"{path}.{key}"
        if key == "prox":
            kw["prox_cfg"] = _solve_cfg_from(spec[key], kpath)
        elif isinstance(getattr(default, key), mz.Schedule):
            kw[key] = _sched(spec[key], kpath)
        else:
            try:
                kw[key] = _CONVERT.get(key, float)(spec[key])
            except (TypeError, ValueError, OverflowError) as e:
                raise SchemaError(kpath, str(e)) from e
    return cls(**kw)


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


def _check_search_radius(K: FeasibleSet, params, need: str, path: str):
    """An unbounded set needs a search radius wherever a run bounds it."""
    if K.is_bounded or need == "none" or params.search_radius is not None:
        return
    if need == "solve" and params.prox_cfg.search_radius is not None:
        return
    raise SchemaError(path, f"missing required key 'search_radius' (needed to bound the {K.kind} set)")


def run_algorithm(kind: str, problem, K: FeasibleSet, spec: dict,
                  path: str = "algorithm") -> mz.IterationTrace:
    """Check ``spec`` against its registry entry, then run the variant.

    A hard invariant that the variant's validator rejects before the first
    iteration is a SchemaError; guards that fire during the run propagate.
    """
    variant = _require(spec, "variant", path)
    entry = VARIANTS.get(variant) if isinstance(variant, str) else None
    if entry is None or entry.kind != kind:
        raise SchemaError(path + ".variant", f"unknown variant {variant!r}")
    _check_keys(spec, _COMMON_KEYS | entry.keys, path)
    params = _params(kind, spec, path)
    _check_search_radius(K, params, entry.radius, path)
    _require(spec, "x0", path)
    dim = problem.dim if kind == "minimize" else problem.f.dim
    x0, x1 = _point(spec, "x0", dim, path), _point(spec, "x1", dim, path)
    try:
        entry.validate(problem, K, params)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e
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
    """
    validate_config(cfg)
    sweep = _require(cfg, "sweep", "config")
    _check_keys(sweep, {"alphas", "rhos"}, "config.sweep")
    alphas = [float(a) for a in _require(sweep, "alphas", "config.sweep")]
    rhos = [float(r) for r in _require(sweep, "rhos", "config.sweep")]
    if not alphas or not rhos:
        raise SchemaError("config.sweep", "grid must be nonempty")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, obj, K = build_problem(_require(cfg, "problem", "config"))
    base_algo = _require(cfg, "algorithm", "config")
    if not isinstance(base_algo, dict):
        raise SchemaError("config.algorithm", f"expected an object, got {type(base_algo).__name__}")
    relaxed, plain = _SWEPT[kind]
    kind_keys = set().union(*(v.keys for v in VARIANTS.values() if v.kind == kind))

    def one_cell(tag: str, alpha: float, rho: float) -> dict:
        variant = relaxed if (alpha != 0.0 or rho != 1.0) else plain
        # drop the base's keys that this cell's variant does not accept
        dropped = kind_keys - VARIANTS[variant].keys
        spec = {k: v for k, v in base_algo.items() if k not in dropped}
        spec["variant"] = variant
        if variant == relaxed:
            spec.update(alpha=alpha, rho_lo=rho, rho_hi=rho)
        row = {"cell": tag, "alpha": alpha, "rho": rho}
        try:
            trace = run_algorithm(kind, obj, K, spec)
        except SchemaError:
            raise
        except (ValueError, RuntimeError) as e:
            row.update(error=str(e), converged=False, guarded=False,
                       iterations=None, subproblem_evals=None)
            return row
        write_trace_csv(out / f"{tag}_trace.csv", trace, is_ep=(kind == "ep"))
        row.update(
            guarded=trace.guarded,
            converged=trace.terminated_by in ("residual", "exact_fixed_point"),
            iterations=trace.iterations,
            subproblem_evals=trace.prox_evals,
            final_residual=trace.final_residual,
        )
        return row

    cells = [(f"cell_{i}_{j}", a, r) for i, a in enumerate(alphas) for j, r in enumerate(rhos)]
    cells.append(("baseline", 0.0, 1.0))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda c: one_cell(*c), cells))
    else:
        rows = [one_cell(*c) for c in cells]
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

_CHECK_KEYS = {"check", "gamma", "n", "seed", "radius", "radii", "xbar", "z", "beta", "lip"}
_UNSAMPLED_CHECKS = {"supercoercive"}  # every other check samples the set


def run_verify(cfg: dict, out_dir) -> list[dict]:
    validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = _require(cfg, "problem", "config")
    checks = _require(cfg, "verify", "config")
    _check_keys(checks, {"checks"}, "config.verify")
    kind, obj, K = build_problem(spec)
    reports = []
    for i, c in enumerate(_require(checks, "checks", "config.verify")):
        path = f"config.verify.checks[{i}]"
        _check_keys(c, _CHECK_KEYS, path)
        name = _require(c, "check", path)
        seed = int(c.get("seed", cfg.get("seed", 0)))
        radius = c.get("radius")
        n = int(c.get("n", 2000))
        if name not in _UNSAMPLED_CHECKS and radius is None and not K.is_bounded:
            raise SchemaError(path, f"missing required key 'radius' (needed to sample the {K.kind} set)")
        if kind == "minimize":
            h = obj
            if name == "sqc":
                rep = verify.check_sqc_sampled(h, K, c.get("gamma"), n, seed, radius)
            elif name == "modulus":
                rep = verify.estimate_modulus(h, K, n, seed, radius)
            elif name == "supercoercive":
                rep = verify.check_supercoercive(h, c.get("radii", [10.0, 100.0]), seed=seed)
            elif name == "growth":
                rep = verify.check_quadratic_growth(h, K, c.get("xbar"), c.get("gamma"),
                                                    n, seed, radius)
            elif name == "foc":
                rep = verify.check_foc(h, K, c.get("gamma"), n, seed, radius)
            elif name == "pl":
                rep = verify.check_pl(h, K, c.get("xbar"), c.get("gamma"), c.get("lip"),
                                      n, seed, radius)
            elif name == "subdiff":
                rep = verify.subdiff_member(h, K, c.get("xbar"), c.get("z"),
                                            float(c.get("beta", 1.0)), c.get("gamma"),
                                            n, seed, radius)
            elif name == "grad":
                pts = K.sample(seed, min(n, 100), radius)
                rep = verify.grad_check(h, pts)
            else:
                raise SchemaError(path, f"unknown objective check {name!r}")
        else:
            f = obj.f
            if name == "a0":
                rep = verify.check_a0(f, K, n, seed, radius)
            elif name == "pseudomonotone":
                rep = verify.check_pseudomonotone(f, K, n, seed, radius)
            elif name == "a4":
                rep = verify.check_a4_sampled(f, K, seed=seed, radius=radius)
            elif name == "eta":
                rep = verify.estimate_eta(f, K, n, seed, radius)
            else:
                raise SchemaError(path, f"unknown bifunction check {name!r}")
        reports.append(asdict(rep))
    (out / "checks.json").write_text(strict_json(reports) + "\n")
    return reports


def run_dynamics(cfg: dict, out_dir) -> dict:
    validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, h, K = build_problem(_require(cfg, "problem", "config"))
    if kind != "minimize":
        raise SchemaError("config.problem", "dynamics needs an objective problem")
    spec = _require(cfg, "dynamics", "config")
    _check_keys(spec, {"system", "x0", "v0", "T", "dt", "damping"}, "config.dynamics")
    system = _require(spec, "system", "config.dynamics")
    x0 = spec.get("x0", [0.0] * h.dim)
    T, dt = float(_require(spec, "T", "config.dynamics")), float(_require(spec, "dt", "config.dynamics"))
    if system == "ds1":
        traj = integrate_ds1(h, None, x0, T, dt)
        speed = np.linalg.norm(h.grad_many(traj.states), axis=-1)
    elif system in ("ds2", "ds2_undamped"):
        damping = float(spec.get("damping", 0.0)) if system == "ds2" else 0.0
        traj = integrate_ds2(h, damping, x0, spec.get("v0", [0.0] * h.dim), T, dt)
        speed = np.linalg.norm(traj.velocities, axis=-1)
    else:
        raise SchemaError("config.dynamics.system", f"unknown system {system!r}")
    path = out / "trajectory.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"u{i}" for i in range(h.dim)] + ["value", "speed"])
        for i, t in enumerate(traj.times):
            w.writerow([_fmt(t)] + [_fmt(v) for v in traj.states[i]]
                       + [_fmt(traj.values[i]), _fmt(speed[i])])
    return {"trajectory": str(path), "final_state": traj.final_state.tolist(),
            "final_value": float(traj.values[-1])}
