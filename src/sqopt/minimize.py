"""Iterative methods for minimizing strongly quasiconvex objectives.

Six variants: the proximal point method and its relaxed-inertial form, a
Bregman proximal method, a projected method driven by the strong
subdifferential, and the gradient / heavy-ball / inertial discretizations of
the associated dynamical systems.  Parameter validators encode the
convergence-theorem regimes: violating a hard invariant raises, while leaving a
convergence-safe regime only flags the run as unguarded (so divergence
phenomena stay reproducible).

``_RunParams`` holds, and checks by their declared kinds on construction, the
run parameters of every variant here and in ``equilibrium``.

Sign convention: descent steps use ``-grad h`` everywhere.  Stopping replaces
the exact equality tests of the underlying schemes by ``residual <= stop_tol``;
an exactly zero residual still terminates as ``exact_fixed_point``.  Every
runner here and in ``equilibrium`` supplies only its step: ``_drive`` owns the
iteration loop, that stop test and the termination label.  The proximal point
family (PPA, RIPPA, BPPA; PPA_EP, RIPPA_EP, IEPPA_EP) is one step,
``_run_proximal``, with its own proximal operator, inertia and relaxation; GRAD,
HEAVY_BALL and INERTIAL_GM are one step, ``_run_explicit``, which owns the
divergence guard.

A run is a generator: its step yields each proximal step it needs as a
``ProxRequest`` and is sent the ``ProxResult``.  ``_drive_many`` advances many
runs in lockstep, one request each per round.  A request's ``solve()`` is the
step alone.  Where the subproblem's callables are paired, the request also
carries a ``StackKey`` (the base ``fn``/``grad``, the set, the solve config and
beta) and its center; the requests of one round with equal keys get one
stacked ``prox_many`` solve, which gives each center the bits of its solve
alone.  Equilibrium requests carry no key: ``Bifunction.y_objective(c)`` binds
the center into the callables, so no two of them pair.  A runner such as
``run_rippa`` is ``_drive_one``: ``_drive_many`` with one run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Generator

import numpy as np

from . import verify
from .fields import RADIUS, Kind, Schedule, check_fields, declared
from .functions import BregmanFunction, Objective, bregman_catalog
from .geometry import DIVERGENCE_GUARD, AffineSubspace, FeasibleSet, FullSpace, as_point
from .prox import GlobalSolveConfig, ProxResult, bregman_prox, prox, prox_many

SPOTCHECK_EVERY = 100  # SUBGRAD checks its oracle's output at every this-many iterations


@dataclass
class _RunParams:
    """The fields every variant's parameter bag shares; ``alpha`` and ``rho`` are constants.

    ``solve_cfg()`` is ``prox_cfg``, given ``search_radius`` when it has none.
    """

    alpha: float = declared(Kind("number", 0.0))  # inertial parameter / cap
    rho_lo: float = declared(Kind("number", 1.0))
    rho_hi: float = declared(Kind("number", 1.0))
    stop_tol: float = declared(Kind("number", 1e-8, lo=0.0))
    max_iters: int = declared(Kind("int", 100_000, lo=0))
    prox_cfg: GlobalSolveConfig = declared(Kind("object", GlobalSolveConfig(), of=GlobalSolveConfig),
                                           key="prox")
    search_radius: float | None = declared(RADIUS)

    __post_init__ = check_fields

    @property
    def rho(self) -> float:
        return 0.5 * (self.rho_lo + self.rho_hi)

    def solve_cfg(self) -> GlobalSolveConfig:
        if self.search_radius is not None and self.prox_cfg.search_radius is None:
            return replace(self.prox_cfg, search_radius=self.search_radius)
        return self.prox_cfg


@dataclass
class MinParams(_RunParams):
    """Parameter bag of the minimization variants."""

    variant: str = "PPA"
    c: Schedule = declared(Kind("schedule", Schedule.constant(1.0)))  # prox parameter
    steps: Schedule = declared(Kind("schedule", Schedule.constant(0.1)))  # step sizes
    beta: float = declared(Kind("number", 1.0))  # strong-subdifferential parameter
    theta: float = declared(Kind("number", 0.5))  # heavy-ball momentum
    hb_eta: float = declared(Kind("number", 0.1))  # heavy-ball eta (step is eta^2)
    eta_min: float = declared(Kind("number", 0.0))  # inertial method lower step bound
    psi: Callable[[int], np.ndarray] | None = None  # summable perturbations


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


@dataclass(frozen=True, eq=False)
class StackKey:
    """What stacked proximal requests share: every argument of ``prox_many`` but the centers.

    Keys are equal when they hold the same callables and the same set object,
    and equal solve configs and betas.
    """

    fn: Callable
    grad: Callable | None
    K: FeasibleSet
    cfg: GlobalSolveConfig
    beta: float

    def _identity(self) -> tuple:
        return self.fn, self.grad, id(self.K), self.cfg, self.beta

    def __eq__(self, other):
        return isinstance(other, StackKey) and self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    def solve(self, C: np.ndarray) -> list[ProxResult]:
        return prox_many(self.fn, self.grad, self.K, self.beta, C, self.cfg)


@dataclass
class ProxRequest:
    """One proximal step a run asks for.

    ``solve()`` answers it alone.  Requests with equal ``key``s (not None)
    may instead be answered together, each by its ``center`` row of one
    stacked solve.
    """

    solve: Callable[[], ProxResult]
    key: StackKey | None
    center: np.ndarray


Run = Generator[ProxRequest, ProxResult, object]


def _answer(requests: list[ProxRequest]) -> list[tuple[bool, object]]:
    """``(True, result)`` or ``(False, exception)`` for each request, in order.

    Two or more requests (of one key) get one stacked solve.  If it raises,
    each request is solved alone, so an error reaches only its own run.
    """
    if len(requests) > 1:
        try:
            results = requests[0].key.solve(np.stack([q.center for q in requests]))
            return [(True, r) for r in results]
        except Exception:
            pass
    out = []
    for q in requests:
        try:
            out.append((True, q.solve()))
        except Exception as e:
            out.append((False, e))
    return out


def _drive_many(runs: list[Run]) -> list:
    """Drive every run to its end in lockstep; returns what each returned or raised.

    Each round answers the one pending request of every active run: the
    requests with equal keys together (see ``_answer``), every other one by
    its own ``solve()``.  A failed solve is thrown into the run that asked,
    and an exception ends only the run it leaves.
    """
    ends: list = [None] * len(runs)
    pending: dict[int, ProxRequest] = {}

    def advance(i, resume, value):
        try:
            pending[i] = resume(value)
        except StopIteration as stop:
            ends[i] = stop.value
        except Exception as e:
            ends[i] = e

    for i, run in enumerate(runs):
        advance(i, run.send, None)
    while pending:
        requests, pending = pending, {}
        groups: dict = {}
        for i, q in requests.items():
            groups.setdefault(i if q.key is None else q.key, []).append(i)
        for members in groups.values():
            for i, (ok, value) in zip(members, _answer([requests[i] for i in members])):
                advance(i, runs[i].send if ok else runs[i].throw, value)
    return ends


def _drive_one(run: Run):
    """``_drive_many`` with one run: what it returns; what it raises propagates."""
    end = _drive_many([run])[0]
    if isinstance(end, Exception):
        raise end
    return end


def _phase(phases):
    """The next phase of a step; the proximal requests before it are passed up."""
    item = next(phases)
    while isinstance(item, ProxRequest):
        item = phases.send((yield item))
    return item


def _drive(rec: _Recorder, p, step):
    """The iteration loop of every runner; a run that returns how it ended.

    ``step(k)`` is a generator of two phases.  The first yields ``(r, at)``:
    the step residual and the state to stop at (``None``: the current one).
    The run stops there when ``r == 0`` (``exact_fixed_point``) or
    ``r <= p.stop_tol`` (``residual``), and the second phase never runs.
    Otherwise the second yields ``(x, end)``: the next state (``None``: stay)
    and, when the step itself ends the run, its label.  A step may yield
    ProxRequests before a phase; they are passed up to ``_drive_many``.
    """
    for k in range(p.max_iters):
        phases = step(k)
        r, x = yield from _phase(phases)
        end = "exact_fixed_point" if r == 0.0 else "residual" if r <= p.stop_tol else None
        if end is None:
            x, end = yield from _phase(phases)
        if x is None:
            rec.mark(r)
        else:
            rec.push(x, r)
        if end is not None:
            return end
    return "max_iters"


def _run_proximal(rec: _Recorder, p, prox_at, notes, alpha=0.0, rho=1.0, key_at=None) -> Run:
    """The proximal point iteration, from the recorder's first state; a run.

    Extrapolate ``y = x + alpha (x - x_prev)``, take the proximal step
    ``z = prox_at(k, y)`` (a ProxResult), stop when ``||z - y|| <= stop_tol``,
    otherwise relax ``x_next = (1 - rho) y + rho z``.  The inertia ``alpha``
    and the relaxation ``rho`` are constants.  The step is requested from the
    caller; ``key_at(k)``, when given, is its StackKey.  The extras sum the
    inertial summands ``alpha ||x - x_prev||^2``, all and the last quarter.
    """
    x = x_prev = rec.states[0]
    summands = []

    def step(k):
        nonlocal x, x_prev
        y = x + alpha * (x - x_prev)
        key = None if key_at is None else key_at(k)
        z = rec.took((yield ProxRequest(lambda: prox_at(k, y), key, y)))
        summands.append(alpha * float(np.sum((x - x_prev) ** 2)))
        yield float(np.linalg.norm(z - y)), z
        x_prev, x = x, (1.0 - rho) * y + rho * z
        yield x, None

    end = yield from _drive(rec, p, step)
    tail = sum(summands[-max(1, len(summands) // 4) :])
    extra = {"inertial_summand_total": sum(summands, 0.0), "inertial_summand_tail": tail}
    return rec.done(end, not notes, notes, extra=extra)


def _is_affine(K: FeasibleSet) -> bool:
    return isinstance(K, (FullSpace, AffineSubspace))


def rippa_rho_upper(beta_hat: float, rho_lo: float) -> float:
    """Relaxation upper bound guaranteeing the inertial summability condition."""
    num = 2.0 * rho_lo * (beta_hat**2 - beta_hat + 1.0)
    den = 2.0 * rho_lo * beta_hat**2 + (2.0 - rho_lo) * beta_hat + rho_lo
    return num / den


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
    if p.alpha > 0.0:
        ceiling = rippa_rho_upper(0.5 * (1.0 + p.alpha), p.rho_lo)
        if p.rho_hi > ceiling + 1e-12:
            notes.append(
                f"rho_hi {p.rho_hi:.6g} exceeds the summability ceiling {ceiling:.6g}"
            )
    if h.modulus <= 0:
        notes.append("objective declares no positive modulus")
    return notes


def start_rippa(h: Objective, K: FeasibleSet | None, p: MinParams, x0) -> Run:
    """``run_rippa`` as a run; its proximal requests share a StackKey per ``c_k``."""
    K = h.domain if K is None else K
    notes = validate_rippa(h, K, p)
    cfg = p.solve_cfg()
    rec = _Recorder(h.value, as_point(x0, h.dim))
    prox_at = lambda k, y: prox(h, K, p.c.at(k), y, cfg)
    grad = h.grad_many if h.grad else None
    key_at = lambda k: StackKey(h.value_many, grad, K, cfg, p.c.at(k))
    return (yield from _run_proximal(rec, p, prox_at, notes, p.alpha, p.rho, key_at))


def run_rippa(h: Objective, K: FeasibleSet | None, p: MinParams, x0) -> IterationTrace:
    """Relaxed-inertial proximal point method (PPA when alpha=0, rho=1)."""
    return _drive_one(start_rippa(h, K, p, x0))


def run_ppa(h: Objective, K: FeasibleSet | None, p: MinParams, x0) -> IterationTrace:
    """Proximal point method: the alpha = 0, rho = 1 degeneracy of run_rippa."""
    q = replace(p, variant="PPA", alpha=0.0, rho_lo=1.0, rho_hi=1.0)
    return run_rippa(h, K, q, x0)


def validate_bppa(h: Objective, K: FeasibleSet, p: MinParams) -> list[str]:
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

    return _drive_one(_run_proximal(_Recorder(h.value, x), p, prox_at, notes))


def _subgradient_bound(h: Objective, p: MinParams) -> float:
    return np.inf if h.modulus <= 0 else 1.0 / (h.modulus * p.beta)


def validate_subgradient(h: Objective, K: FeasibleSet, p: MinParams, oracle=None) -> list[str]:
    if oracle is None and not h.differentiable:
        raise ValueError("SUBGRAD needs an oracle or a differentiable objective")
    if not p.beta > 0:
        raise ValueError("beta must be positive")
    bound = _subgradient_bound(h, p)
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
    ``SPOTCHECK_EVERY`` iterations and the run aborts on a witnessed failure.
    """
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
        if k % SPOTCHECK_EVERY == 0 and nrm > 0:
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

    return rec.done(_drive_one(_drive(rec, p, step)), not notes, notes)


def _unconstrained_gradient_method(name: str, h: Objective, K: FeasibleSet):
    """A gradient method needs a smooth objective and runs on its whole domain."""
    if not h.differentiable:
        raise ValueError(f"{name} needs a differentiable objective")
    if K is not h.domain:
        raise ValueError(f"{name} is unconstrained: it takes no problem.set")


def validate_gradient(h: Objective, K: FeasibleSet, p: MinParams) -> list[str]:
    _unconstrained_gradient_method("GRAD", h, K)
    if not (h.lip_grad and h.modulus > 0):
        return ["missing modulus or Lipschitz constant: step bound unverified"]
    cap = min(h.modulus / h.lip_grad**2, 2.0 / h.lip_grad)
    probe = max(p.steps.at(k) for k in (0, 1, 10, 1000))
    return [f"step bound {probe:.6g} >= min(gamma/L^2, 2/L) = {cap:.6g}"] if probe >= cap else []


def _run_explicit(h: Objective, p: MinParams, x0, x1, theta: float, step_at, psi=None):
    """The explicit step of GRAD, HEAVY_BALL and INERTIAL_GM; ``(recorder, end)``.

    ``x+ = (1 + theta) x - theta x_prev - t grad h(x)``, plus ``psi(k)`` when
    given, with ``t = step_at(k)`` and ``x_prev`` from ``x1`` (None: ``x0``).
    A next state that is non-finite or has norm above DIVERGENCE_GUARD ends
    the run as ``diverged`` and is recorded clipped to the guard.
    """
    x = as_point(x0, h.dim)
    x_prev = x if x1 is None else as_point(x1, h.dim)
    rec = _Recorder(h.value, x)

    def step(k):
        nonlocal x, x_prev
        t = step_at(k)
        g = h.grad_at(x)
        rec.prox_evals += 1
        yield float(np.linalg.norm(g)), None
        x_prev, x = x, (1.0 + theta) * x - theta * x_prev - t * g
        if psi is not None:
            x = x + np.asarray(psi(k), dtype=float)
        if np.all(np.isfinite(x)) and np.linalg.norm(x) <= DIVERGENCE_GUARD:
            yield x, None
        else:
            yield np.nan_to_num(x, posinf=DIVERGENCE_GUARD, neginf=-DIVERGENCE_GUARD), "diverged"

    return rec, _drive_one(_drive(rec, p, step))


def run_gradient(h: Objective, p: MinParams, x0) -> IterationTrace:
    """Explicit gradient descent with optional summable perturbations."""
    notes = validate_gradient(h, h.domain, p)
    rec, end = _run_explicit(h, p, x0, None, 0.0, p.steps.at, p.psi)
    return rec.done(end, not notes, notes)


def validate_heavy_ball(h: Objective, K: FeasibleSet, p: MinParams) -> list[str]:
    _unconstrained_gradient_method("HEAVY_BALL", h, K)
    if not 0.0 < p.theta < 1.0:
        raise ValueError("HEAVY_BALL requires theta in (0, 1)")
    if not p.hb_eta > 0:
        raise ValueError("HEAVY_BALL requires eta > 0")
    if not h.lip_grad:
        return ["missing Lipschitz constant: eta window unverified"]
    cap = (1.0 - p.theta**2) / h.lip_grad
    if p.hb_eta**2 >= cap:
        raise ValueError(f"eta^2 must lie in (0, (1-theta^2)/L) = (0, {cap:.6g})")
    return []


def run_heavy_ball(h: Objective, p: MinParams, x0, x1=None) -> IterationTrace:
    """Heavy-ball iteration ``x+ = (1 + theta) x - theta x_prev - eta^2 grad h(x)``."""
    notes = validate_heavy_ball(h, h.domain, p)
    rec, end = _run_explicit(h, p, x0, x1, p.theta, lambda k: p.hb_eta**2)
    return rec.done(end, not notes, notes)


def validate_inertial_gm(h: Objective, K: FeasibleSet, p: MinParams) -> list[str]:
    _unconstrained_gradient_method("INERTIAL_GM", h, K)
    if not p.eta_min > 0:
        raise ValueError("INERTIAL_GM requires a positive step lower bound eta_min")
    return []


def run_inertial_gm(h: Objective, p: MinParams, x0, x1=None) -> IterationTrace:
    """Undamped inertial iteration ``x+ = 2x - x_prev - alpha_k grad h(x)``.

    Boundedness is monitored, not assumed: exceeding the divergence guard
    terminates the run with ``terminated_by='diverged'``.
    """
    notes = validate_inertial_gm(h, h.domain, p)

    def step_at(k):
        a_k = p.steps.at(k)
        if a_k < p.eta_min:
            raise ValueError(f"step {a_k} at k={k} fell below eta_min={p.eta_min}")
        return a_k

    rec, end = _run_explicit(h, p, x0, x1, 1.0, step_at)
    if end == "diverged":
        notes.append("divergence guard fired: boundedness hypothesis failed empirically")
    max_norm = max(float(np.linalg.norm(x)) for x in rec.states)
    return rec.done(end, not notes, notes, extra={"max_norm": max_norm})
