"""Solvers for equilibrium problems with strongly quasiconvex bifunctions.

Find ``x`` in K with ``f(x, y) >= 0`` for all ``y`` in K: the problem is the
pair ``(f, K)``, as a minimization problem is ``(h, K)``, so every runner is
``run_*_ep(f, K, params, x0)`` and every validator ``validate_*(f, K, params)``
(``verify.certify_ep(f, K)`` samples the assumptions).  Six methods: the
relaxed-inertial proximal scheme, full-bifunction regularization with nested
proximal solves, constant-inertia extrapolation (positive or negative), a
two-step predictor-corrector, and two extragradient methods (normalized star
step and plain strong-subdifferential step).

Guarded parameter windows follow the corrected split for the proximal
parameter: ``beta in (0, min(1/(8 eta - gamma), 1/(4 eta)))`` when
``0 < gamma < 8 eta`` and ``beta in (1/(gamma - 8 eta), 1/(4 eta))`` when
``gamma > 12 eta``; the strict policy exposes only the latter.  Validators
flag runs outside the windows instead of blocking them.

The relaxed-inertial, plain and constant-inertia schemes are one step,
``minimize._run_proximal``, with the proximal step in the second argument
and constant inertia and relaxation.  Their proximal requests are answered
one at a time, also when a sweep runs its cells in lockstep:
``y_objective(c)`` binds the center into the callables, so no two requests
share a stack key.
``EpParams`` adds the equilibrium fields to ``minimize._RunParams``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import Kind, Schedule, declared
from .functions import Bifunction
from .geometry import FeasibleSet, as_point
from .minimize import (IterationTrace, Run, _drive, _drive_one, _Recorder,
                       _relaxed_inertial_notes, _run_proximal, _RunParams)
from .prox import GlobalSolveConfig, ProxResult, _global_min_impl, prox_point
from .verify import CheckReport, _fold_blocks, _unit_blocks

LINE_SEARCH_CAP = 60  # 2^-60 underflow guard
ORACLE_CHECK_SAMPLES = 32  # EG/PEG level-set spot check of each oracle output


@dataclass
class EpParams(_RunParams):
    """Parameter bag of the equilibrium variants."""

    variant: str = "RIPPA_EP"
    beta: Schedule = declared(Kind("schedule", Schedule.constant(1.0)))
    ls_alpha: float = declared(Kind("number", 0.5))  # line-search sufficient-decrease factor
    ls_rho: float = declared(Kind("number", 0.5))  # line-search backtracking ratio
    steps: Schedule = declared(Kind("schedule", Schedule.inv_k(0.5)))  # projection steps
    epsilon: float = declared(Kind("number", 1e-3))  # two-step interval margin
    inner_max: int = declared(Kind("int", 1000, lo=1))  # nested solve iteration cap
    policy: str = declared(Kind("enum", "corrected", choices=("corrected", "strict")))


def beta_window(gamma: float, eta: float, policy: str = "corrected") -> tuple[float, float] | None:
    """Admissible proximal-parameter interval for the relaxed-inertial scheme."""
    if gamma <= 0:
        return None
    if eta <= 0:
        return (1.0 / gamma, np.inf)
    hi = 1.0 / (4.0 * eta)
    if gamma > 12.0 * eta:
        return (1.0 / (gamma - 8.0 * eta), hi)
    if policy == "corrected" and gamma < 8.0 * eta:
        return (0.0, min(1.0 / (8.0 * eta - gamma), hi))
    return None


def _beta_probe(p: EpParams) -> list[float]:
    return [p.beta.at(k) for k in (0, 1, 10, 1000)]


def _ep_prox(f: Bifunction, K: FeasibleSet, beta: float, center: np.ndarray, cfg) -> ProxResult:
    """Proximal step in the second argument: argmin_y f(x, y) + ||y-c||^2/(2 beta)."""
    fy, gy = f.y_objective(center)
    return prox_point(fy, gy, K, beta, center, cfg)


def ep_residual(f: Bifunction, K: FeasibleSet, x,
                cfg: GlobalSolveConfig | None = None) -> float | np.ndarray:
    """Certificate residual ``min_y f(x, y)`` over K; near zero iff x solves the problem.

    ``x`` is one point, giving a float, or a batch of rows, giving an array.
    A batch is one global solve of a stack of problems, one per row, refined
    in lockstep; each entry equals the one-point call's value bit for bit.
    The solve steps along ``partial_grad_y`` (a subgradient at kinks where
    the bifunction is not ``smooth``); above one dimension it needs one.
    """
    cfg = cfg or GlobalSolveConfig()
    X = np.asarray(x, dtype=float)
    one = X.ndim < 2
    C = as_point(X, f.dim)[None, :] if one else np.stack([as_point(r, f.dim) for r in X])
    fn = lambda Xc, Y: np.asarray(f.fn(Xc, Y), dtype=float)
    res = _global_min_impl(fn, f.partial_grad_y, K, cfg, C)
    values = np.array([r.value for r in res])
    return float(values[0]) if one else values


def check_minty(f: Bifunction, K: FeasibleSet, xbar, n_samples: int = 1000, seed: int = 0,
                tol: float = 1e-8, radius: float | None = None) -> CheckReport:
    """Dual feasibility: sampled y satisfy f(y, xbar) <= tol at the solution."""
    xbar = as_point(xbar, f.dim)

    def block(start, U):
        Y = K.from_unit(U, radius)
        vals = f.fn(Y, xbar[None, :].repeat(len(Y), axis=0))

        def witness(i):
            return {"y": Y[i].tolist(), "f_y_xbar": float(vals[i])}

        return -vals, witness, len(Y)

    return _fold_blocks("minty_dual", tol, seed, n_samples, K.dim, block)


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------


def validate_rippa_ep(f: Bifunction, K: FeasibleSet, p: EpParams) -> list[str]:
    affine_notes = _relaxed_inertial_notes("RIPPA_EP", p, K)
    notes = []
    win = beta_window(f.gamma, f.eta, p.policy)
    betas = _beta_probe(p)
    if win is None:
        notes.append(f"no admissible beta window for gamma={f.gamma:.4g}, eta={f.eta:.4g}")
    elif not all(win[0] < b < win[1] for b in betas):
        notes.append(f"beta leaves the window ({win[0]:.4g}, {win[1]:.4g})")
    if f.eta > 0:
        rho_dev = max(1.0 - p.rho_lo, p.rho_hi - 1.0)
        if rho_dev > 1.0 - 4.0 * f.eta * max(betas) + 1e-12:
            notes.append("relaxation deviation exceeds 1 - 4 eta beta")
    return notes + affine_notes


def validate_ieppa(f: Bifunction, K: FeasibleSet, p: EpParams) -> list[str]:
    if not -1.0 < p.alpha < 1.0:
        raise ValueError("IEPPA_EP requires alpha in (-1, 1)")
    notes = []
    if f.gamma <= 12.0 * f.eta:
        notes.append(f"theorem window empty: gamma={f.gamma:.4g} <= 12 eta={12 * f.eta:.4g}")
        return notes
    lo = 1.0 / (f.gamma - 8.0 * f.eta)
    b = p.beta.at(0)
    if p.alpha >= 0.0:
        if p.alpha >= 1.0 / 3.0:
            notes.append("positive inertia requires alpha < 1/3")
        hi = np.inf if f.eta == 0 else (1.0 - 3.0 * p.alpha) / (4.0 * f.eta * (1.0 - p.alpha))
        if not lo < b < hi:
            notes.append(f"beta={b:.4g} leaves ({lo:.4g}, {hi:.4g})")
    else:
        hi = np.inf if f.eta == 0 else 1.0 / (4.0 * f.eta)
        if not lo < b < hi:
            notes.append(f"beta={b:.4g} leaves ({lo:.4g}, {hi:.4g})")
    return notes


def validate_2ppa(f: Bifunction, K: FeasibleSet, p: EpParams) -> list[str]:
    if not p.epsilon > 0:
        raise ValueError("TWO_PPA_EP requires epsilon > 0")
    lo = (-np.inf if f.gamma <= 8.0 * f.eta else 1.0 / (f.gamma - 8.0 * f.eta)) if f.eta > 0 else (
        1.0 / f.gamma if f.gamma > 0 else np.inf
    )
    hi = np.inf if f.eta == 0 else 1.0 / (4.0 * f.eta)
    if lo + p.epsilon > hi - p.epsilon:
        raise ValueError(
            f"empty beta interval [{lo:.4g}+eps, {hi:.4g}-eps] for gamma={f.gamma:.4g}, eta={f.eta:.4g}"
        )
    notes = []
    betas = _beta_probe(p)
    if not all(lo + p.epsilon <= b <= hi - p.epsilon for b in betas):
        notes.append(f"beta leaves [{lo + p.epsilon:.4g}, {hi - p.epsilon:.4g}]")
    if f.gamma <= 12.0 * f.eta:
        notes.append(f"theorem hypothesis gamma > 12 eta fails ({f.gamma:.4g} <= {12 * f.eta:.4g})")
    return notes


def validate_eg(f: Bifunction, K: FeasibleSet, p: EpParams, peg: bool = False,
                oracle=None) -> list[str]:
    if not 0.0 < p.ls_alpha < 1.0 or not 0.0 < p.ls_rho < 1.0:
        raise ValueError("line-search parameters must lie in (0, 1)")
    notes = []
    betas = _beta_probe(p)
    if any(b2 > b1 + 1e-12 for b1, b2 in zip(betas, betas[1:])):
        notes.append("beta schedule is not nonincreasing")
    if oracle is None and (f.partial_grad_y is None or not f.smooth):
        raise ValueError("extragradient methods need a subgradient oracle or a smooth y-gradient")
    if p.steps.kind == "constant":
        notes.append("constant projection steps violate the square-summability condition")
    if peg:
        step_probe = [p.steps.at(k) for k in (0, 1, 10)]
        if max(step_probe) >= min(betas):
            notes.append("projection steps must stay below inf beta")
    return notes


def validate_peg(f: Bifunction, K: FeasibleSet, p: EpParams) -> list[str]:
    return validate_eg(f, K, p, peg=True)


def validate_reg_ep(f: Bifunction, K: FeasibleSet, p: EpParams) -> list[str]:
    return []  # beta > 0 holds by construction of its Schedule


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _ep_recorder(f: Bifunction, x0: np.ndarray) -> _Recorder:
    """Trace recorder against f(x0, x^k): zero at x0, negative past it."""
    ref = x0.copy()
    return _Recorder(lambda x: f.value(ref, x), x0)


def start_rippa_ep(f: Bifunction, K: FeasibleSet, p: EpParams, x0) -> Run:
    """``run_rippa_ep`` as a run; its requests carry no StackKey (see ``minimize``)."""
    notes = validate_rippa_ep(f, K, p)
    cfg = p.solve_cfg()
    rec = _ep_recorder(f, as_point(x0, f.dim))
    prox_at = lambda k, y: _ep_prox(f, K, p.beta.at(k), y, cfg)
    return (yield from _run_proximal(rec, p, prox_at, notes, p.alpha, p.rho))


def run_rippa_ep(f: Bifunction, K: FeasibleSet, p: EpParams, x0) -> IterationTrace:
    """Relaxed-inertial proximal point method for the equilibrium problem."""
    return _drive_one(start_rippa_ep(f, K, p, x0))


def run_ppa_ep(f: Bifunction, K: FeasibleSet, p: EpParams, x0) -> IterationTrace:
    """Proximal point method: the alpha = 0, rho = 1 degeneracy of run_rippa_ep."""
    q = replace(p, variant="RIPPA_EP", alpha=0.0, rho_lo=1.0, rho_hi=1.0)
    return run_rippa_ep(f, K, q, x0)


def _regularized_y_objective(f: Bifunction, xk: np.ndarray, beta_k: float, x) -> tuple:
    """``(fy, gy)`` of ``f_k(x, .)`` for the REG_EP outer-step bifunction.

    ``f_k(x, y) = f(x, y) + (x - x_k).(y - x)/beta_k``; like every y-objective,
    ``fy`` is ``f_k(x, .)`` up to an additive constant.
    """
    fy, gy = f.y_objective(x)
    shift = (np.asarray(x, dtype=float) - xk) / beta_k
    # einsum, not ``Y @ shift``: a matrix-vector product may round a row
    # differently inside a batch than alone
    fy_k = lambda Y: fy(Y) + np.einsum("...i,i->...", np.asarray(Y, dtype=float), shift)
    gy_k = None if gy is None else (lambda Y: gy(Y) + shift)
    return fy_k, gy_k


def run_reg_ep(f: Bifunction, K: FeasibleSet, p: EpParams, x0) -> IterationTrace:
    """Regularized-bifunction method with nested proximal inner solves.

    Each outer step solves the equilibrium problem for
    ``f_k(x, y) = f(x, y) + (x - x_k).(y - x)/beta_k`` by a nested proximal
    iteration warm-started at ``x_k``, to tolerance
    ``max(stop_tol, 0.1 * previous outer residual)``.
    """
    notes = validate_reg_ep(f, K, p)
    cfg = p.solve_cfg()
    x = as_point(x0, f.dim)
    rec = _ep_recorder(f, x)
    prev_res = 1.0

    def step(k):
        nonlocal x, prev_res
        beta_k = p.beta.at(k)
        z = xk = x.copy()
        inner_tol = max(p.stop_tol, 0.1 * prev_res)
        for _ in range(p.inner_max):
            fy, gy = _regularized_y_objective(f, xk, beta_k, z)
            z_next = rec.took(prox_point(fy, gy, K, beta_k, z, cfg))
            r_in = float(np.linalg.norm(z_next - z))
            z = z_next
            if r_in <= inner_tol:
                break
        else:
            raise RuntimeError(
                f"inner equilibrium solve stagnated at outer iteration {k} "
                f"(tolerance {inner_tol:.3g})"
            )
        r = float(np.linalg.norm(z - x))
        prev_res = max(r, p.stop_tol)
        yield r, z
        x = z
        yield x, None

    return rec.done(_drive_one(_drive(rec, p, step)), not notes, notes)


def run_ieppa_ep(f: Bifunction, K: FeasibleSet, p: EpParams, x0) -> IterationTrace:
    """Constant-inertia extrapolated proximal method (constant alpha, maybe negative; rho = 1)."""
    notes = validate_ieppa(f, K, p)
    cfg = p.solve_cfg()
    rec = _ep_recorder(f, as_point(x0, f.dim))
    prox_at = lambda k, y: _ep_prox(f, K, p.beta.at(k), y, cfg)
    return _drive_one(_run_proximal(rec, p, prox_at, notes, p.alpha))


def run_2ppa_ep(f: Bifunction, K: FeasibleSet, p: EpParams, x0) -> IterationTrace:
    """Two-step predictor-corrector proximal method (both steps centered at x)."""
    notes = validate_2ppa(f, K, p)
    cfg = p.solve_cfg()
    x = as_point(x0, f.dim)
    rec = _ep_recorder(f, x)
    corr_gaps = []

    def step(k):
        nonlocal x
        beta_k = p.beta.at(k)
        y = rec.took(_ep_prox(f, K, beta_k, x, cfg))
        yield float(np.linalg.norm(y - x)), y
        fy, gy = f.y_objective(y)
        x = rec.took(prox_point(fy, gy, K, beta_k, x, cfg))
        corr_gaps.append(float(np.linalg.norm(x - y)))
        yield x, None

    return rec.done(_drive_one(_drive(rec, p, step)), not notes, notes,
                    extra={"corrector_gaps": corr_gaps})


def _star_subgrad_check(f: Bifunction, K, z, x, w, n_samples, seed, radius) -> bool:
    """Strict-level-set condition: f(z, y) < f(z, x) implies w.(y - x) < 0."""
    fz_x = f.value(z, x)
    for _, U in _unit_blocks(seed, n_samples, K.dim):
        Y = K.from_unit(U, radius)
        lower = Y[f.fn(np.broadcast_to(z, Y.shape), Y) < fz_x - 1e-12]
        if not np.all(np.einsum("ij,j->i", lower - x, w) < 1e-10):
            return False
    return True


def _run_extragradient(f: Bifunction, K: FeasibleSet, p: EpParams, x0, oracle,
                       normalized: bool) -> IterationTrace:
    notes = validate_eg(f, K, p, peg=not normalized, oracle=oracle)
    if oracle is None:
        oracle = lambda z, x: f.partial_grad_y(z[None], x[None])[0]
    cfg = p.solve_cfg()
    x = as_point(x0, f.dim)
    rec = _ep_recorder(f, x)
    ls_counts = []

    def step(k):
        nonlocal x
        beta_k = p.beta.at(k)
        y = rec.took(_ep_prox(f, K, beta_k, x, cfg))
        r = float(np.linalg.norm(y - x))
        yield r, y
        target = (p.ls_alpha / (2.0 * beta_k)) * r * r
        for m in range(LINE_SEARCH_CAP + 1):
            z = (1.0 - p.ls_rho**m) * x + p.ls_rho**m * y
            if f.value(z, x) - f.value(z, y) >= target:
                ls_counts.append(m)
                break
        else:
            raise RuntimeError(
                f"line search exceeded {LINE_SEARCH_CAP} halvings at k={k}: "
                "the decrease condition looks unattainable"
            )
        w = np.asarray(oracle(z, x), dtype=float)
        if not _star_subgrad_check(
            f, K, z, x, w, ORACLE_CHECK_SAMPLES, seed=k, radius=p.search_radius
        ):
            notes.append(f"subgradient oracle failed the level-set spot check at k={k}")
        wn = float(np.linalg.norm(w))
        if wn == 0.0:
            yield z, "exact_fixed_point"  # stationary oracle output
            return
        t = p.steps.at(k)
        x1 = K.project(x - (t / wn) * w if normalized else x - t * w)
        if float(np.linalg.norm(x1 - x)) == 0.0:
            yield z, "exact_fixed_point"  # the projected step stands still
            return
        x = x1
        yield x, None

    end = _drive_one(_drive(rec, p, step))
    return rec.done(end, not notes, notes, extra={"line_search_m": ls_counts})


def run_eg_ep(f: Bifunction, K: FeasibleSet, p: EpParams, x0, oracle=None) -> IterationTrace:
    """Extragradient method with backtracking and normalized projection step."""
    return _run_extragradient(f, K, p, x0, oracle, normalized=True)


def run_peg_ep(f: Bifunction, K: FeasibleSet, p: EpParams, x0, oracle=None) -> IterationTrace:
    """Extragradient method with plain (unnormalized) projection step."""
    return _run_extragradient(f, K, p, x0, oracle, normalized=False)


EP_RUNNERS = {
    "RIPPA_EP": run_rippa_ep,
    "PPA_EP": run_ppa_ep,
    "REG_EP": run_reg_ep,
    "IEPPA_EP": run_ieppa_ep,
    "TWO_PPA_EP": run_2ppa_ep,
    "EG_EP": run_eg_ep,
    "PEG_EP": run_peg_ep,
}
