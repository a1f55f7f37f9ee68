"""Iterative methods for minimizing strongly quasiconvex objectives.

Six variants: the proximal point method and its relaxed-inertial form, a
Bregman proximal method, a projected method driven by the strong
subdifferential, and the gradient / heavy-ball / inertial discretizations of
the associated dynamical systems.  Parameter validators encode the
convergence-theorem regimes: violating a hard invariant raises, while leaving a
convergence-safe regime only flags the run as unguarded (so divergence
phenomena stay reproducible).

Sign convention: descent steps use ``-grad h`` everywhere.  Stopping replaces
the exact equality tests of the underlying schemes by ``residual <= stop_tol``;
an exactly zero residual still terminates as ``exact_fixed_point``.  Every
runner here and in ``equilibrium`` supplies only its step: ``_drive`` owns the
iteration loop, that stop test, the divergence guard and the termination label.
The proximal point family (PPA, RIPPA, BPPA; PPA_EP, RIPPA_EP, IEPPA_EP) is one
step, ``_run_proximal``, with its own proximal operator, inertia and relaxation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .functions import BregmanFunction, Objective, bregman_catalog
from .geometry import AffineSubspace, FeasibleSet, FullSpace, as_point
from .prox import GlobalSolveConfig, bregman_prox, prox

DIVERGENCE_GUARD = 1e6


@dataclass(frozen=True)
class Schedule:
    """Scalar sequence: constant, 1/(k+1)-scaled, or an explicit list."""

    kind: str
    value: float = 0.0
    values: tuple = ()

    def at(self, k: int) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "inv_k":
            return self.value / (k + 1)
        if self.kind == "list":
            return self.values[k] if k < len(self.values) else self.values[-1]
        raise ValueError(f"unknown schedule kind {self.kind!r}")

    @staticmethod
    def constant(v: float) -> "Schedule":
        return Schedule("constant", float(v))

    @staticmethod
    def inv_k(scale: float) -> "Schedule":
        return Schedule("inv_k", float(scale))

    @staticmethod
    def explicit(vals) -> "Schedule":
        values = tuple(float(v) for v in vals)
        if not values:
            raise ValueError("a list schedule needs at least one value")
        return Schedule("list", 0.0, values)

    @staticmethod
    def from_spec(spec) -> "Schedule":
        if isinstance(spec, Schedule):
            return spec
        if isinstance(spec, (int, float)):
            return Schedule.constant(spec)
        kind = spec["kind"]
        if kind == "constant":
            return Schedule.constant(spec["value"])
        if kind == "inv_k":
            return Schedule.inv_k(spec["value"])
        if kind == "list":
            return Schedule.explicit(spec["values"])
        raise ValueError(f"unknown schedule kind {kind!r}")


class _SolveCfg:
    """``solve_cfg()``: ``prox_cfg``, given ``search_radius`` when it has no radius."""

    def solve_cfg(self) -> GlobalSolveConfig:
        if self.search_radius is not None and self.prox_cfg.search_radius is None:
            return replace(self.prox_cfg, search_radius=self.search_radius)
        return self.prox_cfg


@dataclass
class MinParams(_SolveCfg):
    """Parameter bag shared by the minimization variants."""

    variant: str = "PPA"
    c: Schedule = field(default_factory=lambda: Schedule.constant(1.0))  # prox parameter
    alpha: float = 0.0  # inertial cap
    alpha_sched: Schedule | None = None  # defaults to the constant cap
    rho_lo: float = 1.0
    rho_hi: float = 1.0
    rho_sched: Schedule | None = None  # defaults to the midpoint
    steps: Schedule = field(default_factory=lambda: Schedule.constant(0.1))  # step sizes
    beta: float = 1.0  # strong-subdifferential parameter
    theta: float = 0.5  # heavy-ball momentum
    hb_eta: float = 0.1  # heavy-ball eta (step is eta^2)
    eta_min: float = 0.0  # inertial method lower step bound
    psi: Callable[[int], np.ndarray] | None = None  # summable perturbations
    stop_tol: float = 1e-8
    max_iters: int = 100_000
    prox_cfg: GlobalSolveConfig = field(default_factory=GlobalSolveConfig)
    search_radius: float | None = None
    spotcheck_every: int = 100

    def alpha_at(self, k: int) -> float:
        a = self.alpha if self.alpha_sched is None else self.alpha_sched.at(k)
        if not 0.0 <= a <= self.alpha + 1e-15:
            raise ValueError(f"alpha_k={a} leaves [0, alpha={self.alpha}]")
        return a

    def rho_at(self, k: int) -> float:
        if self.rho_sched is not None:
            r = self.rho_sched.at(k)
        else:
            r = 0.5 * (self.rho_lo + self.rho_hi)
        if not self.rho_lo - 1e-15 <= r <= self.rho_hi + 1e-15:
            raise ValueError(f"rho_k={r} leaves [{self.rho_lo}, {self.rho_hi}]")
        return r


@dataclass
class IterationTrace:
    """Immutable record of one solver run.

    All arrays share one length; ``residuals[i]`` is the stopping quantity
    observed at state ``i`` (the final entry repeats the triggering value).
    """

    iterates: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    step_norms: np.ndarray
    cum_evals: np.ndarray
    prox_evals: int
    fn_evals: int
    wall_ms: float
    terminated_by: str  # residual | max_iters | exact_fixed_point | diverged
    guarded: bool
    guard_notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def final_point(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_value(self) -> float:
        return float(self.values[-1])

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])

    @property
    def iterations(self) -> int:
        return self.iterates.shape[0] - 1


class _Recorder:
    """States, values and residuals of one run; ``value`` maps a state to its value."""

    def __init__(self, value: Callable[[np.ndarray], float], x0: np.ndarray):
        self.value = value
        self.t0 = time.perf_counter()
        self.states = [np.asarray(x0, dtype=float).copy()]
        self.values = [value(x0)]
        self.residuals = [np.inf]
        self.steps = [0.0]
        self.cum = [0]
        self.prox_evals = 0
        self.fn_evals = 0

    def took(self, pr) -> np.ndarray:
        """Count one proximal solve; returns its point."""
        self.prox_evals += 1
        self.fn_evals += pr.n_evals
        return pr.point

    def push(self, x, residual: float):
        x = np.asarray(x, dtype=float)
        self.residuals[-1] = float(residual)
        self.states.append(x.copy())
        self.values.append(self.value(x))
        self.residuals.append(float(residual))
        self.steps.append(float(np.linalg.norm(x - self.states[-2])))
        self.cum.append(self.prox_evals)

    def mark(self, residual: float):
        """Record the stopping residual at the current state (no new state)."""
        self.residuals[-1] = float(residual)
        self.cum[-1] = self.prox_evals

    def done(self, terminated_by, guarded, notes, extra=None) -> IterationTrace:
        return IterationTrace(
            iterates=np.asarray(self.states),
            values=np.asarray(self.values),
            residuals=np.asarray(self.residuals),
            step_norms=np.asarray(self.steps),
            cum_evals=np.asarray(self.cum),
            prox_evals=self.prox_evals,
            fn_evals=self.fn_evals,
            wall_ms=1000.0 * (time.perf_counter() - self.t0),
            terminated_by=terminated_by,
            guarded=guarded,
            guard_notes=list(notes),
            extra=extra or {},
        )


def _drive(rec: _Recorder, p, step, guard: bool = False) -> str:
    """The iteration loop of every runner; returns how the run ended.

    ``step(k)`` is a generator of two phases.  The first yields ``(r, at)``:
    the step residual and the state to stop at (``None``: the current one).
    The run stops there when ``r == 0`` (``exact_fixed_point``) or
    ``r <= p.stop_tol`` (``residual``), and the second phase never runs.
    Otherwise the second yields ``(x, end)``: the next state (``None``: stay)
    and, when the step itself ends the run, its label.  With ``guard`` a next
    state that is non-finite or has norm above DIVERGENCE_GUARD ends the run
    as ``diverged`` and is recorded clipped to the guard.
    """
    for k in range(p.max_iters):
        phases = step(k)
        r, x = next(phases)
        end = "exact_fixed_point" if r == 0.0 else "residual" if r <= p.stop_tol else None
        if end is None:
            x, end = next(phases)
            if guard and (not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_GUARD):
                x = np.nan_to_num(x, posinf=DIVERGENCE_GUARD, neginf=-DIVERGENCE_GUARD)
                end = "diverged"
        if x is None:
            rec.mark(r)
        else:
            rec.push(x, r)
        if end is not None:
            return end
    return "max_iters"


def _run_proximal(rec: _Recorder, p, prox_at, notes, alpha_at=None, rho_at=None) -> IterationTrace:
    """The proximal point iteration, from the recorder's first state.

    Extrapolate ``y = x + alpha_k (x - x_prev)``, take the proximal step
    ``z = prox_at(k, y)`` (a ProxResult), stop when ``||z - y|| <= stop_tol``,
    otherwise relax ``x_next = (1 - rho_k) y + rho_k z``.  Without
    ``alpha_at``/``rho_at``, alpha_k = 0 and rho_k = 1.  The extras sum the
    inertial summands ``alpha_k ||x - x_prev||^2``, all and the last quarter.
    """
    alpha_at = alpha_at or (lambda k: 0.0)
    rho_at = rho_at or (lambda k: 1.0)
    x = x_prev = rec.states[0]
    summands = []

    def step(k):
        nonlocal x, x_prev
        a_k = alpha_at(k)
        y = x + a_k * (x - x_prev)
        z = rec.took(prox_at(k, y))
        summands.append(a_k * float(np.sum((x - x_prev) ** 2)))
        yield float(np.linalg.norm(z - y)), z
        rho_k = rho_at(k)
        x_prev, x = x, (1.0 - rho_k) * y + rho_k * z
        yield x, None

    end = _drive(rec, p, step)
    tail = sum(summands[-max(1, len(summands) // 4) :])
    extra = {"inertial_summand_total": sum(summands, 0.0), "inertial_summand_tail": tail}
    return rec.done(end, not notes, notes, extra=extra)


def _is_affine(K: FeasibleSet) -> bool:
    return isinstance(K, (FullSpace, AffineSubspace))


def _schedule_positive(s: Schedule, label: str):
    probe = [s.at(k) for k in (0, 1, 10, 1000)]
    if any(v <= 0 for v in probe):
        raise ValueError(f"{label} must stay positive")


def rippa_rho_upper(beta_hat: float, rho_lo: float) -> float:
    """Relaxation upper bound guaranteeing the inertial summability condition."""
    num = 2.0 * rho_lo * (beta_hat**2 - beta_hat + 1.0)
    den = 2.0 * rho_lo * beta_hat**2 + (2.0 - rho_lo) * beta_hat + rho_lo
    return num / den


def default_rippa_params(gamma: float, alpha_target: float, rho_lo: float, **kw) -> MinParams:
    """Guarded relaxed-inertial parameters for a given inertial target.

    Uses ``beta_hat = (1 + alpha_target)/2`` and the summability relaxation
    ceiling; the relaxation schedule is the midpoint of its admissible range.
    Raises when the ceiling does not exceed ``rho_lo`` (lower the target).
    """
    if not 0.0 <= alpha_target < 1.0:
        raise ValueError("alpha_target must lie in [0, 1)")
    if not 0.0 < rho_lo < 2.0:
        raise ValueError("rho_lo must lie in (0, 2)")
    beta_hat = 0.5 * (1.0 + alpha_target)
    rho_hi = rippa_rho_upper(beta_hat, rho_lo)
    if rho_hi <= rho_lo:
        raise ValueError(
            f"relaxation ceiling {rho_hi:.6g} <= rho_lo {rho_lo:.6g}; lower alpha_target"
        )
    return MinParams(
        variant="RIPPA",
        alpha=alpha_target,
        alpha_sched=Schedule.constant(alpha_target),
        rho_lo=rho_lo,
        rho_hi=rho_hi,
        rho_sched=Schedule.constant(0.5 * (rho_lo + rho_hi)),
        **kw,
    )


def _relaxed_inertial_notes(name: str, p, K: FeasibleSet) -> list[str]:
    """Hard alpha/rho ranges of RIPPA and RIPPA_EP; notes for a non-affine set."""
    if not 0.0 <= p.alpha < 1.0:
        raise ValueError(f"{name} requires 0 <= alpha < 1")
    if not 0.0 < p.rho_lo <= p.rho_hi < 2.0:
        raise ValueError(f"{name} requires 0 < rho_lo <= rho_hi < 2")
    notes = []
    if p.alpha > 0.0 and not _is_affine(K):
        notes.append("inertial steps on a non-affine set are outside the guarded regime")
    if p.alpha == 0.0 and p.rho_hi > 1.0 and not _is_affine(K):
        notes.append("relaxation above 1 on a non-affine set is outside the guarded regime")
    return notes


def validate_rippa(h: Objective, K: FeasibleSet, p: MinParams) -> list[str]:
    notes = _relaxed_inertial_notes("RIPPA", p, K)
    _schedule_positive(p.c, "c_k")
    if p.alpha > 0.0:
        ceiling = rippa_rho_upper(0.5 * (1.0 + p.alpha), p.rho_lo)
        if p.rho_hi > ceiling + 1e-12:
            notes.append(
                f"rho_hi {p.rho_hi:.6g} exceeds the summability ceiling {ceiling:.6g}"
            )
    if h.modulus <= 0:
        notes.append("objective declares no positive modulus")
    return notes


def run_rippa(h: Objective, K: FeasibleSet | None, p: MinParams, x0) -> IterationTrace:
    """Relaxed-inertial proximal point method (PPA when alpha=0, rho=1)."""
    K = h.domain if K is None else K
    notes = validate_rippa(h, K, p)
    cfg = p.solve_cfg()
    rec = _Recorder(h.value, as_point(x0, h.dim))
    prox_at = lambda k, y: prox(h, K, p.c.at(k), y, cfg)
    return _run_proximal(rec, p, prox_at, notes, p.alpha_at, p.rho_at)


def run_ppa(h: Objective, K: FeasibleSet | None, p: MinParams, x0) -> IterationTrace:
    """Proximal point method: the alpha = 0, rho = 1 degeneracy of run_rippa."""
    q = replace(p, variant="PPA", alpha=0.0, alpha_sched=None, rho_lo=1.0, rho_hi=1.0, rho_sched=None)
    return run_rippa(h, K, q, x0)


def validate_bppa(h: Objective, K: FeasibleSet, p: MinParams) -> list[str]:
    _schedule_positive(p.c, "c_k")
    return ["objective declares no positive modulus"] if h.modulus <= 0 else []


def run_bppa(
    h: Objective,
    K: FeasibleSet | None,
    phi: BregmanFunction | str,
    p: MinParams,
    x0,
) -> IterationTrace:
    """Bregman proximal point method; strict descent while steps are nonzero.

    ``_run_proximal`` with the Bregman prox and no inertia or relaxation.
    Iterates must stay in the kernel zone: leaving it aborts with a
    diagnostic.  With the half-squared-norm kernel this reproduces run_ppa.
    """
    K = h.domain if K is None else K
    if isinstance(phi, str):
        phi = bregman_catalog(phi, dim=h.dim)
    notes = validate_bppa(h, K, p)
    cfg = p.solve_cfg()
    x = as_point(x0, h.dim)
    if not bool(np.all(phi.zone_contains(x))):
        raise ValueError("x0 must lie in the open zone of the Bregman kernel")

    def prox_at(k, y):
        pr = bregman_prox(h, K, phi, p.c.at(k), y, cfg)
        if not bool(np.all(phi.zone_contains(pr.point))):
            raise RuntimeError(
                f"BPPA iterate left the kernel zone at iteration {k}: {pr.point.tolist()}"
            )
        return pr

    return _run_proximal(_Recorder(h.value, x), p, prox_at, notes)


def _subgradient_bound(h: Objective, p: MinParams) -> float:
    return np.inf if h.modulus <= 0 else 1.0 / (h.modulus * p.beta)


def validate_subgradient(h: Objective, K: FeasibleSet, p: MinParams, oracle=None) -> list[str]:
    if oracle is None and h.grad is None:
        raise ValueError("SUBGRAD needs an oracle or a differentiable objective")
    if p.beta <= 0:
        raise ValueError("beta must be positive")
    bound = _subgradient_bound(h, p)
    _schedule_positive(p.steps, "step schedule")
    if p.steps.at(0) >= bound:
        raise ValueError(f"step schedule must stay below 1/(gamma beta) = {bound:.6g}")
    if p.steps.kind == "constant":
        return ["constant steps violate the square-summability condition"]
    return []


def run_subgradient(
    h: Objective,
    K: FeasibleSet | None,
    p: MinParams,
    x0,
    oracle: Callable[[np.ndarray], np.ndarray] | None = None,
) -> IterationTrace:
    """Projected method driven by the strong subdifferential.

    The default oracle returns the gradient (a strong sublevel-subgradient
    with beta = 1 for differentiable objectives); each oracle output is
    spot-checked against the sublevel membership inequality every
    ``spotcheck_every`` iterations and the run aborts on a witnessed failure.
    """
    from . import verify  # local import: verify depends on functions only

    K = h.domain if K is None else K
    notes = validate_subgradient(h, K, p, oracle)
    oracle = h.grad_at if oracle is None else oracle
    bound = _subgradient_bound(h, p)
    x = as_point(x0, h.dim)
    rec = _Recorder(h.value, x)

    def step(k):
        nonlocal x
        xi = np.asarray(oracle(x), dtype=float)
        rec.prox_evals += 1
        nrm = float(np.linalg.norm(xi))
        if p.spotcheck_every and k % p.spotcheck_every == 0 and nrm > 0:
            rep = verify.subdiff_member(
                h,
                K,
                xbar=x,
                z=xi,
                beta=p.beta,
                gamma=h.modulus,
                n_samples=32,
                seed=k,
                radius=p.search_radius,
                sublevel_only=True,
            )
            if not rep.passed:
                raise RuntimeError(
                    f"subgradient oracle failed membership spot-check at k={k}: "
                    f"{rep.witnesses[0]}"
                )
        yield nrm, None
        t = p.steps.at(k)
        if t >= bound:
            raise ValueError(f"step {t} at k={k} violates the 1/(gamma beta) bound")
        x1 = K.project(x - t * xi)
        if float(np.linalg.norm(x1 - x)) == 0.0:
            yield None, "exact_fixed_point"  # the projected step stands still
            return
        x = x1
        yield x, None

    return rec.done(_drive(rec, p, step), not notes, notes)


def _gradient_norm(rec: _Recorder, h: Objective, x) -> tuple[np.ndarray, float]:
    """One counted gradient evaluation and its norm, the stopping residual."""
    g = h.grad_at(x)
    rec.prox_evals += 1
    return g, float(np.linalg.norm(g))


def validate_gradient(h: Objective, K: FeasibleSet, p: MinParams) -> list[str]:
    if h.grad is None:
        raise ValueError("GRAD needs a differentiable objective")
    _schedule_positive(p.steps, "step schedule")
    if not (h.lip_grad and h.modulus > 0):
        return ["missing modulus or Lipschitz constant: step bound unverified"]
    cap = min(h.modulus / h.lip_grad**2, 2.0 / h.lip_grad)
    probe = max(p.steps.at(k) for k in (0, 1, 10, 1000))
    return [f"step bound {probe:.6g} >= min(gamma/L^2, 2/L) = {cap:.6g}"] if probe >= cap else []


def run_gradient(h: Objective, p: MinParams, x0) -> IterationTrace:
    """Explicit gradient descent with optional summable perturbations."""
    notes = validate_gradient(h, h.domain, p)
    x = as_point(x0, h.dim)
    rec = _Recorder(h.value, x)

    def step(k):
        nonlocal x
        g, nrm = _gradient_norm(rec, h, x)
        yield nrm, None
        x = x - p.steps.at(k) * g
        if p.psi is not None:
            x = x + np.asarray(p.psi(k), dtype=float)
        yield x, None

    return rec.done(_drive(rec, p, step, guard=True), not notes, notes)


def validate_heavy_ball(h: Objective, K: FeasibleSet, p: MinParams) -> list[str]:
    if h.grad is None:
        raise ValueError("HEAVY_BALL needs a differentiable objective")
    if not 0.0 < p.theta < 1.0:
        raise ValueError("HEAVY_BALL requires theta in (0, 1)")
    if p.hb_eta <= 0:
        raise ValueError("HEAVY_BALL requires eta > 0")
    if not h.lip_grad:
        return ["missing Lipschitz constant: eta window unverified"]
    cap = (1.0 - p.theta**2) / h.lip_grad
    if p.hb_eta**2 >= cap:
        raise ValueError(f"eta^2 must lie in (0, (1-theta^2)/L) = (0, {cap:.6g})")
    return []


def run_heavy_ball(h: Objective, p: MinParams, x0, x1=None) -> IterationTrace:
    """Heavy-ball iteration ``x+ = x + theta (x - x_prev) - eta^2 grad h(x)``."""
    notes = validate_heavy_ball(h, h.domain, p)
    x = as_point(x0, h.dim)
    x_prev = x if x1 is None else as_point(x1, h.dim)
    rec = _Recorder(h.value, x)

    def step(k):
        nonlocal x, x_prev
        g, nrm = _gradient_norm(rec, h, x)
        yield nrm, None
        x_prev, x = x, x + p.theta * (x - x_prev) - p.hb_eta**2 * g
        yield x, None

    return rec.done(_drive(rec, p, step, guard=True), not notes, notes)


def validate_inertial_gm(h: Objective, K: FeasibleSet, p: MinParams) -> list[str]:
    if h.grad is None:
        raise ValueError("INERTIAL_GM needs a differentiable objective")
    if p.eta_min <= 0:
        raise ValueError("INERTIAL_GM requires a positive step lower bound eta_min")
    _schedule_positive(p.steps, "step schedule")
    return []


def run_inertial_gm(h: Objective, p: MinParams, x0, x1=None) -> IterationTrace:
    """Undamped inertial iteration ``x+ = 2x - x_prev - alpha_k grad h(x)``.

    Boundedness is monitored, not assumed: exceeding the divergence guard
    terminates the run with ``terminated_by='diverged'``.
    """
    notes = validate_inertial_gm(h, h.domain, p)
    x = as_point(x0, h.dim)
    x_prev = x if x1 is None else as_point(x1, h.dim)
    rec = _Recorder(h.value, x)
    max_norm = float(np.linalg.norm(x))

    def step(k):
        nonlocal x, x_prev, max_norm
        a_k = p.steps.at(k)
        if a_k < p.eta_min:
            raise ValueError(f"step {a_k} at k={k} fell below eta_min={p.eta_min}")
        g, nrm = _gradient_norm(rec, h, x)
        yield nrm, None
        x_prev, x = x, 2.0 * x - x_prev - a_k * g
        max_norm = max(max_norm, float(np.linalg.norm(x)))
        yield x, None

    end = _drive(rec, p, step, guard=True)
    if end == "diverged":
        notes.append("divergence guard fired: boundedness hypothesis failed empirically")
    return rec.done(end, not notes, notes, extra={"max_norm": max_norm})
