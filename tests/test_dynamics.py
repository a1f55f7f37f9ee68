import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import half_quad
from sqopt.dynamics import integrate_ds1, integrate_ds2, integrate_ds2_undamped_descent
from sqopt.functions import Objective, catalog
from sqopt.geometry import DIVERGENCE_GUARD, Box, FullSpace, as_point
from sqopt.harness import fit_rate
from sqopt.minimize import MinParams, Schedule, run_inertial_gm


def test_ds1_linear_flow_matches_exponential():
    traj = integrate_ds1(half_quad(), None, np.array([1.0]), T=5.0, dt=1e-3)
    exact = np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-4
    assert abs(traj.final_state[0] - np.exp(-5.0)) <= 1e-8


def test_ds1_descent_property():
    for h, x0 in ((catalog("sin_quad"), 2.5), (catalog("gauss_well", c=1, d=1, delta=1), 0.9)):
        traj = integrate_ds1(h, None, np.array([x0]), T=10.0, dt=1e-2)
        assert np.all(np.diff(traj.values) <= 1e-10)


def test_ds1_summable_perturbation_still_converges():
    psi = lambda t: np.array([np.exp(-t)])
    traj = integrate_ds1(half_quad(), psi, np.array([1.0]), T=20.0, dt=1e-2)
    assert abs(traj.final_state[0]) <= 1e-3


def test_ds1_terminal_proximity_catalog():
    # differentiable catalog objectives whose formula has a global minimizer
    cases = [catalog("gauss_well", c=1.0, d=1.0, delta=1.0),
             catalog("sin_quad"),
             catalog("root_quartic", k=1.0, c=2.0)]
    for h in cases:
        x0 = 0.8 * h.domain.bounding_box(radius=2.0)[1]
        traj = integrate_ds1(h, None, x0, T=20.0, dt=1e-2)
        assert np.linalg.norm(traj.final_state - h.known_min[0]) <= 1e-3, h.name


def test_ds2_critical_damping_closed_form():
    traj = integrate_ds2(half_quad(), 2.0, np.array([1.0]), np.array([0.0]),
                         T=5.0, dt=1e-3)
    exact = (1.0 + traj.times) * np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-4


def test_ds2_energy_conservation_undamped():
    traj = integrate_ds2(half_quad(), 0.0, np.array([1.0]), np.array([0.0]),
                         T=10.0, dt=1e-3)
    energy = 0.5 * traj.velocities[:, 0] ** 2 + traj.values
    assert np.max(np.abs(energy - energy[0])) <= 1e-6


def test_ds2_sin_quad_damped_converges():
    traj = integrate_ds2(catalog("sin_quad"), 1.0, np.array([2.0]), np.array([0.0]),
                         T=30.0, dt=1e-2)
    assert abs(traj.final_state[0]) <= 1e-3


def test_undamped_variant_is_definitional_alias():
    h = catalog("sin_quad")
    rng = np.random.Generator(np.random.Philox(key=77))
    for _ in range(10):
        x0 = np.array([2.0 * rng.random() - 1.0])
        v0 = np.array([rng.random() - 0.5])
        a = integrate_ds2(h, 0.0, x0, v0, T=2.0, dt=1e-2)
        b = integrate_ds2_undamped_descent(h, x0, v0, T=2.0, dt=1e-2)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.velocities, b.velocities)


def test_inertial_discretization_tracks_undamped_flow():
    # x_{k+1} = 2 x_k - x_{k-1} - dt^2 grad h(x_k) is the leapfrog form of
    # u'' = -grad h(u); the state error against the flow shrinks with dt
    h = half_quad()
    errs = []
    for dt in (0.01, 0.005):
        T = 1.0
        n = int(round(T / dt))
        traj = integrate_ds2_undamped_descent(h, np.array([1.0]), np.array([0.0]), T, dt)
        p = MinParams(variant="INERTIAL_GM", steps=Schedule.constant(dt * dt),
                      eta_min=dt * dt / 2, stop_tol=0.0, max_iters=n)
        tr = run_inertial_gm(h, p, np.array([1.0]), np.array([1.0]))
        m = min(traj.states.shape[0], tr.iterates.shape[0])
        errs.append(np.max(np.abs(traj.states[:m, 0] - tr.iterates[:m, 0])))
    assert errs[1] <= errs[0] / 1.5  # at least first-order tracking


def test_step_halving_fourth_order():
    h = catalog("sin_quad")
    x0 = np.array([2.0])
    exact = integrate_ds1(h, None, x0, T=2.0, dt=1e-4).final_state
    e1 = abs(integrate_ds1(h, None, x0, T=2.0, dt=2e-2).final_state[0] - exact[0])
    e2 = abs(integrate_ds1(h, None, x0, T=2.0, dt=1e-2).final_state[0] - exact[0])
    assert e1 / e2 >= 8.0


def test_rate_fit_exact_exponential():
    times = np.linspace(0.0, 10.0, 200)
    fit = fit_rate(times, np.exp(-times), window=0.5)
    assert fit.rate == pytest.approx(-1.0, abs=1e-3)
    assert fit.r_squared >= 1.0 - 1e-9


def test_rate_fit_ds1_half_quad():
    traj = integrate_ds1(half_quad(), None, np.array([1.0]), T=8.0, dt=1e-2)
    fit = fit_rate(traj.times, np.abs(traj.states[:, 0]), window=0.5)
    assert fit.rate == pytest.approx(-1.0, rel=0.05)


def test_rate_fit_below_floor_for_constant_target():
    fit = fit_rate(np.linspace(0.0, 1.0, 50), np.zeros(50))
    assert fit.below_floor and fit.rate is None


def test_rate_fit_window_validation():
    with pytest.raises(ValueError):
        fit_rate(np.arange(20.0), np.ones(20), window=0.0)


def test_integrator_argument_validation():
    h = half_quad()
    with pytest.raises(ValueError):
        integrate_ds1(h, None, np.array([1.0]), T=1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate_ds2(h, -1.0, np.array([1.0]), np.array([0.0]), T=1.0, dt=0.1)
    def blow_grad(X):
        with np.errstate(over="ignore"):
            return np.stack([-4.0 * X[..., 0] ** 3], axis=-1)

    hn = Objective(name="blowup", dim=1, domain=FullSpace(1), modulus=0.0,
                   fn=lambda X: -X[..., 0] ** 4, grad=blow_grad)
    # the finite-time blowup trips the divergence guard; no RuntimeWarning
    # escapes, since under "error" it would be raised instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="diverged"):
            integrate_ds1(hn, None, np.array([2.0]), T=50.0, dt=0.5)


def test_divergence_guard_fires_at_the_first_step_past_it():
    # du/dt = u grows like e^t and first exceeds the guard of 1e6 at t = 13.82
    hill = Objective(name="hill", dim=1, domain=FullSpace(1), modulus=0.0,
                     fn=lambda X: -0.5 * X[..., 0] ** 2, grad=lambda X: -X)
    traj = integrate_ds1(hill, None, [1.0], T=13.81, dt=0.01)
    assert 0.99 * DIVERGENCE_GUARD < traj.final_state[0] <= DIVERGENCE_GUARD
    with pytest.raises(FloatingPointError, match=r"exceeds 1e\+06 at t=13\.82$"):
        integrate_ds1(hill, None, [1.0], T=20.0, dt=0.01)


def test_non_finite_stage_point_is_a_non_finite_state():
    # from 1e30 the third stage's gradient overflows, so the fourth stage
    # point is infinite (this was a ValueError from the point check); the
    # overflow itself must not reach the caller as a RuntimeWarning
    hn = Objective(name="blowup", dim=1, domain=FullSpace(1), modulus=0.0,
                   fn=lambda X: -X[..., 0] ** 4,
                   grad=lambda X: (-4.0 * X[..., 0] ** 3)[..., None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="non-finite state at t=0.5"):
            integrate_ds1(hn, None, np.array([1e30]), T=50.0, dt=0.5)


# --- bit-for-bit regression against the per-step checked loop -----------------


def _reference_rk4(field, z0, T, dt):
    """RK4 as it ran with both guards evaluated at every step."""
    n_steps = int(round(T / dt))
    times = np.arange(n_steps + 1) * dt
    out = np.empty((n_steps + 1, z0.shape[0]))
    out[0] = z0
    z = z0.copy()
    for i in range(n_steps):
        t = times[i]
        k1 = field(t, z)
        k2 = field(t + 0.5 * dt, z + 0.5 * dt * k1)
        k3 = field(t + 0.5 * dt, z + 0.5 * dt * k2)
        k4 = field(t + dt, z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.all(np.isfinite(z)) and np.linalg.norm(z) <= DIVERGENCE_GUARD
        out[i + 1] = z
    return times, out


def _reference_ds1(h, psi, x0, T, dt):
    x0 = as_point(x0, h.dim)
    if psi is None:
        field = lambda t, u: -h.grad_at(u)
    else:
        field = lambda t, u: -h.grad_at(u) + np.asarray(psi(t), dtype=float)
    return _reference_rk4(field, x0, T, dt)


def _reference_ds2(h, damping, x0, v0, T, dt):
    n = h.dim

    def field(t, z):
        u, v = z[:n], z[n:]
        return np.concatenate([v, -damping * v - h.grad_at(u)])

    return _reference_rk4(field, np.concatenate([as_point(x0, n), as_point(v0, n)]), T, dt)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


FLOW_CASES = [
    (catalog("gauss_well", c=1.0, d=1.0, delta=1.0), [0.9]),
    (catalog("sin_quad"), [2.0]),
    (catalog("root_quartic", k=1.0, c=2.0), [1.5]),
    (catalog("quad_fractional", A=[[2.0, 0.5], [0.5, 1.0]], a=[0.1, -0.2], alpha=0.0,
             B=np.zeros((2, 2)), b=[0.1, 0.05], beta=1.0,
             K=Box(-np.ones(2), np.ones(2)), m=0.8, M=1.2), [0.7, -0.4]),
    # above 2-D the state is a longer list: its per-coordinate arithmetic must
    # still round as the row arithmetic does
    (replace(catalog("quad_fractional", A=np.diag(np.linspace(0.5, 4.0, 8)),
                     a=np.linspace(-0.2, 0.2, 8), alpha=0.0, B=np.zeros((8, 8)),
                     b=np.linspace(0.01, 0.08, 8), beta=1.0,
                     K=Box(-np.ones(8), np.ones(8)), m=0.5, M=1.5), name="quad_fractional_8d"),
     np.linspace(0.7, -0.6, 8)),
]
FLOW_IDS = [h.name.split("(")[0] for h, _ in FLOW_CASES]


@pytest.mark.parametrize("h, x0", FLOW_CASES, ids=[h.name.split("(")[0] for h, _ in FLOW_CASES])
@pytest.mark.parametrize("with_psi", [False, True])
def test_ds1_bits_match_the_checked_loop(h, x0, with_psi):
    psi = (lambda t: np.exp(-t) * np.ones(h.dim)) if with_psi else None
    traj = integrate_ds1(h, psi, x0, T=4.0, dt=0.01)
    times, states = _reference_ds1(h, psi, x0, T=4.0, dt=0.01)
    assert _same_bits(traj.times, times)
    assert _same_bits(traj.states, states)


@pytest.mark.parametrize("h, x0", FLOW_CASES, ids=[h.name.split("(")[0] for h, _ in FLOW_CASES])
@pytest.mark.parametrize("damping", [0.0, 1.0])
def test_ds2_bits_match_the_checked_loop(h, x0, damping):
    v0 = 0.1 * np.ones(h.dim)
    traj = integrate_ds2(h, damping, x0, v0, T=4.0, dt=0.01)
    times, Z = _reference_ds2(h, damping, x0, v0, T=4.0, dt=0.01)
    assert _same_bits(traj.times, times)
    assert _same_bits(traj.states, Z[:, :h.dim])
    assert _same_bits(traj.velocities, Z[:, h.dim:])


@pytest.mark.parametrize("h, x0", FLOW_CASES, ids=FLOW_IDS)
@pytest.mark.parametrize("shape", ["scalar", "vector"])
def test_ds1_psi_is_broadcast_against_the_state(h, x0, shape):
    # a scalar perturbation moves every coordinate alike, a vector one each its own way
    if shape == "scalar":
        psi = lambda t: 0.3 * np.cos(t)
    else:
        psi = lambda t: 0.3 * np.cos(t + np.arange(h.dim))
    traj = integrate_ds1(h, psi, x0, T=2.0, dt=0.01)
    times, states = _reference_ds1(h, psi, x0, T=2.0, dt=0.01)
    assert _same_bits(traj.states, states)


@pytest.mark.parametrize("h, x0", FLOW_CASES, ids=FLOW_IDS)
def test_each_step_calls_grad_four_times_on_one_row(h, x0):
    seen = []

    def grad(X):
        seen.append((X.shape, X.dtype))
        return h.grad(X)

    counted = replace(h, grad=grad)
    steps = 50
    integrate_ds1(counted, None, x0, T=steps * 0.01, dt=0.01)
    integrate_ds2(counted, 1.0, x0, np.zeros(h.dim), T=steps * 0.01, dt=0.01)
    assert seen == [((1, h.dim), np.float64)] * (2 * 4 * steps)
