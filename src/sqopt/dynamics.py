"""Fixed-step integrators for the gradient-flow dynamical systems.

A classical 4-stage Runge-Kutta step on a uniform grid: reproducible runs and
clean step-halving refinement studies matter more than adaptive efficiency at
desk scale.  The first-order flow is ``du/dt = -grad h(u) + psi(t)`` and the
second-order flows are ``u'' + a u' + grad h(u) = 0`` (viscous damping
``a >= 0``); descent signs throughout.  A state that turns non-finite or
whose norm passes the discrete methods' ``DIVERGENCE_GUARD`` aborts the
integration with ``FloatingPointError``.

A step costs little beyond its arithmetic.  Each integration builds its field
once, and the state is carried as one row, so the field calls ``h.grad`` on
a one-row batch, with the bits ``Objective.grad_at`` gives, but with no
reshape or re-validation per call (``x0``/``v0`` are validated once, at
entry).  The guard is one scalar test per step,
``np.vdot(z, z) <= DIVERGENCE_GUARD**2``, which a non-finite state fails, and
so does any state whose norm ``sqrt(np.vdot(z, z))`` passes the guard; a
state that fails it gets the exact finiteness and norm checks, so runs abort
exactly where a full check at every step would.  A non-finite stage point
makes the step's state non-finite, and the arithmetic's floating-point
warnings are silenced: the guard reports such a state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import Objective
from .geometry import as_point
from .minimize import DIVERGENCE_GUARD

DISTANCE_FLOOR = 1e-14


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    values: np.ndarray
    velocities: np.ndarray | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _check_state(z: np.ndarray, t) -> None:
    """The exact per-step guard: raises on a non-finite state or one past DIVERGENCE_GUARD."""
    if not np.all(np.isfinite(z)):
        raise FloatingPointError(f"non-finite state at t={t:.6g}")
    if np.linalg.norm(z) > DIVERGENCE_GUARD:
        raise FloatingPointError(
            f"diverged: state norm exceeds {DIVERGENCE_GUARD:.0e} at t={t:.6g}"
        )


def _rk4(field, z0: np.ndarray, T: float, dt: float):
    """States of the fixed-step RK4 run from the point ``z0``; ``field(t, z)`` takes one row."""
    if dt <= 0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    n_steps = int(round(T / dt))
    times = np.arange(n_steps + 1) * dt
    out = np.empty((n_steps + 1, z0.shape[0]))
    out[0] = z0
    z = z0[None]
    h2, h6 = 0.5 * dt, dt / 6.0
    # np.linalg.norm(z) is sqrt(np.vdot(z, z)), and sqrt is monotone, so a
    # state passing this test passes the exact check; NaN and inf fail it
    bound = DIVERGENCE_GUARD**2
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            t = times[i]
            k1 = field(t, z)
            tm = t + h2
            k2 = field(tm, z + h2 * k1)
            k3 = field(tm, z + h2 * k2)
            k4 = field(t + dt, z + dt * k3)
            z = z + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.vdot(z, z) <= bound:
                _check_state(z, t + dt)
            out[i + 1] = z
    return times, out


def integrate_ds1(h: Objective, psi, x0, T: float, dt: float) -> Trajectory:
    """First-order flow ``du/dt = -grad h(u) + psi(t)``; descent when psi = 0."""
    if not h.differentiable:
        raise ValueError("integrate_ds1 needs a differentiable objective")
    x0 = as_point(x0, h.dim)
    grad = h.grad

    if psi is None:
        field_fn = lambda t, u: -grad(u)
    else:
        field_fn = lambda t, u: -grad(u) + np.asarray(psi(t), dtype=float)
    times, states = _rk4(field_fn, x0, T, dt)
    return Trajectory(times, states, h.value_many(states))


def integrate_ds2(h: Objective, damping: float, x0, v0, T: float, dt: float) -> Trajectory:
    """Second-order flow ``u'' + damping u' + grad h(u) = 0`` in (u, u') form."""
    if not h.differentiable:
        raise ValueError("integrate_ds2 needs a differentiable objective")
    if damping < 0:
        raise ValueError("damping must be nonnegative")
    x0 = as_point(x0, h.dim)
    v0 = as_point(v0, h.dim)
    n = h.dim
    grad = h.grad

    def field_fn(t, z):
        v = z[:, n:]
        return np.concatenate([v, -damping * v - grad(z[:, :n])], axis=1)

    times, Z = _rk4(field_fn, np.concatenate([x0, v0]), T, dt)
    states, vel = Z[:, :n], Z[:, n:]
    return Trajectory(times, states, h.value_many(states), velocities=vel)


def integrate_ds2_undamped_descent(h: Objective, x0, v0, T: float, dt: float) -> Trajectory:
    """Undamped second-order descent flow ``u'' = -grad h(u)``."""
    return integrate_ds2(h, 0.0, x0, v0, T, dt)


@dataclass
class RateFit:
    rate: float | None
    r_squared: float | None
    n_points: int
    below_floor: bool


def loglinear_rate(xs: np.ndarray, distances: np.ndarray, window: float = 0.5, min_points: int = 10) -> RateFit:
    """Least-squares slope of log(distance) over the tail window of the series."""
    if not 0.0 < window <= 1.0:
        raise ValueError("window must lie in (0, 1]")
    xs = np.asarray(xs, dtype=float)
    d = np.asarray(distances, dtype=float)
    pos = d > DISTANCE_FLOOR
    xs, d = xs[pos], d[pos]
    n_tail = max(min_points, int(np.ceil(window * xs.shape[0])))
    xs, d = xs[-n_tail:], d[-n_tail:]
    if xs.shape[0] < min_points:
        return RateFit(None, None, int(xs.shape[0]), True)
    y = np.log(d)
    A = np.stack([xs, np.ones_like(xs)], axis=-1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(coef[0]), r2, int(xs.shape[0]), False)


def fit_exponential_rate(traj: Trajectory, target, window: float = 0.5) -> RateFit:
    """Exponential rate of ||u(t) - target|| via log-linear least squares."""
    target = np.asarray(target, dtype=float)
    d = np.linalg.norm(traj.states - target, axis=-1)
    return loglinear_rate(traj.times, d, window=window)
