"""Fixed-step integrators for the gradient-flow dynamical systems.

A classical 4-stage Runge-Kutta step on a uniform grid: reproducible runs and
clean step-halving refinement studies matter more than adaptive efficiency at
desk scale.  The first-order flow is ``du/dt = -grad h(u) + psi(t)`` and the
second-order flows are ``u'' + a u' + grad h(u) = 0`` (viscous damping
``a >= 0``); descent signs throughout.  A state that turns non-finite or
whose norm passes ``geometry.DIVERGENCE_GUARD``, the explicit methods'
guard too, aborts the integration with ``FloatingPointError``.  The module
imports only ``functions`` and ``geometry``, so a ``dynamics`` command
loads no solver.

A step costs its four gradient calls and little else.  Each integration
builds its field once, and the state is carried as a list of Python floats:
the stage points and the step are per-coordinate float expressions in the
order the array form ``z + h6 * (k1 + 2 k2 + 2 k3 + k4)`` takes, and ``+``,
``-`` and ``*`` on Python floats round as NumPy's float64 operations do, so
the bits are those of the array form.  Only the gradient stays in NumPy
(``math.exp`` does not round as ``np.exp`` does): the field writes the point
into one (1, n) row, reused across calls, hands it to ``h.grad`` (the bits
``Objective.grad_at`` gives, with no reshape or re-validation per call;
``x0``/``v0`` are validated once, at entry) and reads the result back with
``tolist``.  Each new state is written into its preallocated row of the
output, and the guard is one scalar test on that row,
``np.vdot(z, z) <= DIVERGENCE_GUARD**2``, which a non-finite state fails, and
so does any state whose norm ``sqrt(np.vdot(z, z))`` passes the guard; a
state that fails it gets the exact finiteness and norm checks, so runs abort
exactly where a full check at every step would.  A non-finite stage point
makes the step's state non-finite, and the arithmetic's floating-point
warnings are silenced: the guard reports such a state.

The list state pays per coordinate where a row pays per call, so it wins in
the few dimensions the catalog's flows have and loses in many.  Microseconds
per ds2 step on 1/2 ||x||^2 (2-vCPU VM, Python 3.11, NumPy on one thread;
median of 6 alternating runs of 2,000 steps), one row of NumPy operations
against the list state:

    n                1      2      8     32     128
    row state     18.0   18.3   18.4   18.6    20.7
    list state     8.8    9.7   14.9   35.1   119.7

One path serves every n: the CLI reaches a flow only through the catalog,
whose differentiable entries are 1-D except ``quad_fractional``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import Objective
from .geometry import DIVERGENCE_GUARD, as_point


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


def _rk4(field, z0: list, T: float, dt: float):
    """States of the fixed-step RK4 run from ``z0``; ``field(t, z)`` maps a list to a list."""
    if dt <= 0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    n_steps = int(round(T / dt))
    times = np.arange(n_steps + 1) * dt
    out = np.empty((n_steps + 1, len(z0)))
    out[0] = z0
    z = z0
    h2, h6 = 0.5 * dt, dt / 6.0
    # np.linalg.norm(z) is sqrt(np.vdot(z, z)), and sqrt is monotone, so a
    # state passing this test passes the exact check; NaN and inf fail it
    bound = DIVERGENCE_GUARD**2
    with np.errstate(all="ignore"):
        for i, t in enumerate(times[:-1].tolist()):
            k1 = field(t, z)
            tm = t + h2
            k2 = field(tm, [a + h2 * b for a, b in zip(z, k1)])
            k3 = field(tm, [a + h2 * b for a, b in zip(z, k2)])
            k4 = field(t + dt, [a + dt * b for a, b in zip(z, k3)])
            z = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]
            row = out[i + 1]
            row[:] = z
            if not np.vdot(row, row) <= bound:
                _check_state(row, t + dt)
    return times, out


def integrate_ds1(h: Objective, psi, x0, T: float, dt: float) -> Trajectory:
    """First-order flow ``du/dt = -grad h(u) + psi(t)``; descent when psi = 0."""
    if not h.differentiable:
        raise ValueError("integrate_ds1 needs a differentiable objective")
    x0 = as_point(x0, h.dim)
    grad = h.grad
    u_row = np.empty((1, h.dim))

    if psi is None:
        def field_fn(t, u):
            u_row[0] = u
            return [-g for g in grad(u_row).tolist()[0]]
    else:
        def field_fn(t, u):
            u_row[0] = u
            return (-grad(u_row) + np.asarray(psi(t), dtype=float)).tolist()[0]
    times, states = _rk4(field_fn, x0.tolist(), T, dt)
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
    u_row = np.empty((1, n))
    minus_damping = -damping

    def field_fn(t, z):
        v = z[n:]
        u_row[0] = z[:n]
        return v + [minus_damping * vi - g for vi, g in zip(v, grad(u_row).tolist()[0])]

    times, Z = _rk4(field_fn, x0.tolist() + v0.tolist(), T, dt)
    states, vel = Z[:, :n], Z[:, n:]
    return Trajectory(times, states, h.value_many(states), velocities=vel)


def integrate_ds2_undamped_descent(h: Objective, x0, v0, T: float, dt: float) -> Trajectory:
    """Undamped second-order descent flow ``u'' = -grad h(u)``."""
    return integrate_ds2(h, 0.0, x0, v0, T, dt)

