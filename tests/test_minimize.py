import numpy as np
import pytest

from conftest import half_quad
from sqopt.functions import bregman_catalog, catalog
from sqopt.geometry import box1d, hyperplane
from sqopt.minimize import (
    MinParams,
    ProxRequest,
    Schedule,
    StackKey,
    _drive_many,
    default_rippa_params,
    rippa_rho_upper,
    run_bppa,
    run_gradient,
    run_heavy_ball,
    run_inertial_gm,
    run_ppa,
    run_rippa,
    run_subgradient,
    start_rippa,
)
from sqopt.prox import GlobalSolveConfig, prox


def test_schedule_kinds():
    assert Schedule.constant(0.5).at(10) == 0.5
    assert Schedule.inv_k(1.0).at(9) == 0.1
    assert Schedule.explicit([1.0, 2.0]).at(0) == 1.0
    assert Schedule.explicit([1.0, 2.0]).at(5) == 2.0
    assert Schedule.from_spec({"kind": "inv_k", "value": 2.0}).at(0) == 2.0
    assert Schedule.from_spec(0.3).at(7) == 0.3


# --- relaxation ceiling -------------------------------------------------------


def test_rippa_rho_upper_direct_formula():
    # frozen by direct evaluation of 2 r (b^2 - b + 1) / (2 r b^2 + (2-r) b + r)
    assert rippa_rho_upper(0.5, 1.0) == pytest.approx(2 * 1 * 0.75 / (0.5 + 0.5 + 1.0))
    assert rippa_rho_upper(0.5, 1.0) == pytest.approx(0.75)
    assert rippa_rho_upper(0.5, 0.4) == pytest.approx(2 * 0.4 * 0.75 / (0.2 + 0.8 + 0.4))


def test_default_rippa_params():
    p = default_rippa_params(gamma=1.0, alpha_target=0.1, rho_lo=0.2)
    assert p.alpha == 0.1
    beta_hat = 0.55
    expected_hi = rippa_rho_upper(beta_hat, 0.2)
    assert p.rho_hi == pytest.approx(expected_hi)
    assert p.rho_lo < p.rho_hi < 2.0
    assert p.rho == pytest.approx(0.5 * (0.2 + expected_hi))


def test_default_rippa_params_rejects_tight_ceiling():
    # at alpha_target = 0 the ceiling is 1.5 r / (1 + r) <= rho_lo for rho_lo >= 0.5
    with pytest.raises(ValueError, match="ceiling"):
        default_rippa_params(gamma=1.0, alpha_target=0.0, rho_lo=1.0)
    with pytest.raises(ValueError):
        default_rippa_params(gamma=1.0, alpha_target=1.0, rho_lo=0.2)


def test_rippa_invariant_violations_raise():
    h = catalog("power_norm", n=2, halfwidth=1.0)
    with pytest.raises(ValueError):
        run_rippa(h, None, MinParams(variant="RIPPA", alpha=1.0), np.zeros(2))
    with pytest.raises(ValueError):
        run_rippa(h, None, MinParams(variant="RIPPA", rho_lo=0.5, rho_hi=2.0), np.zeros(2))
    with pytest.raises(ValueError, match="positive"):
        run_rippa(h, None, MinParams(c=Schedule.constant(-1.0)), np.zeros(2))


# --- PPA ----------------------------------------------------------------------


def test_ppa_power_norm_converges_fast():
    h = catalog("power_norm", n=2, halfwidth=1.0)
    p = MinParams(c=Schedule.constant(0.5), stop_tol=1e-8, max_iters=200)
    tr = run_ppa(h, None, p, np.array([1.0, 1.0]))
    assert tr.terminated_by in ("residual", "exact_fixed_point")
    assert tr.iterations <= 200
    assert np.linalg.norm(tr.final_point) <= 1e-6
    assert tr.guarded


def test_ppa_equals_plain_prox_iteration():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    p = MinParams(c=Schedule.constant(0.7), stop_tol=1e-8, max_iters=50)
    tr = run_ppa(h, None, p, np.array([0.9]))
    x = np.array([0.9])
    for k in range(1, tr.iterates.shape[0]):
        x = prox(h, None, 0.7, x, p.prox_cfg).point
        assert np.array_equal(tr.iterates[k], x)


def test_ppa_starting_at_minimizer_exact_fixed_point():
    h = catalog("power_norm", n=2, halfwidth=1.0)
    p = MinParams(c=Schedule.constant(0.5))
    tr = run_ppa(h, None, p, np.zeros(2))
    assert tr.terminated_by == "exact_fixed_point"
    assert tr.final_residual == 0.0
    assert tr.iterations <= 1


def test_ppa_on_an_affine_set_reaches_the_projected_minimizer():
    # ||y||^(1/2) on the line y1 + y2 = 1 is least at its point nearest 0;
    # the seeds cover the line within search_radius of the origin
    h = catalog("power_norm", n=2, halfwidth=2.0)
    K = hyperplane([1.0, 1.0], 1.0)
    p = MinParams(c=Schedule.constant(0.5), search_radius=2.0)
    tr = run_ppa(h, K, p, np.array([0.9, 0.1]))
    assert tr.terminated_by == "residual"
    assert np.all(K.contains_many(tr.iterates, tol=1e-12))
    assert np.linalg.norm(tr.final_point - 0.5) <= 1e-6


def test_rippa_unguarded_flag_on_box_with_inertia():
    h = catalog("power_norm", n=2, halfwidth=1.0)
    p = MinParams(variant="RIPPA", c=Schedule.constant(0.5), alpha=0.2,
                  rho_lo=0.9, rho_hi=0.9, stop_tol=1e-8)
    tr = run_rippa(h, None, p, np.array([0.8, -0.5]))
    assert not tr.guarded  # inertia on a non-affine set
    assert np.linalg.norm(tr.final_point) <= 1e-4  # still converges here


def test_rippa_summability_along_trace():
    h = catalog("sin_quad")
    p = default_rippa_params(h.modulus, alpha_target=0.15, rho_lo=0.2,
                             c=Schedule.constant(0.8))
    p = MinParams(**{**p.__dict__, "search_radius": 6.0, "stop_tol": 1e-9})
    tr = run_rippa(h, None, p, np.array([3.0]))
    assert tr.guarded
    assert np.linalg.norm(tr.final_point) <= 1e-6
    assert np.isfinite(tr.extra["inertial_summand_total"])
    assert tr.extra["inertial_summand_tail"] <= 1e-6


def test_rippa_residuals_decrease_to_tolerance():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    p = MinParams(variant="RIPPA", c=Schedule.constant(0.5), alpha=0.0,
                  rho_lo=0.8, rho_hi=1.0, stop_tol=1e-8)
    tr = run_rippa(h, None, p, np.array([0.95]))
    assert tr.terminated_by == "residual"
    assert tr.final_residual <= 1e-8


# --- BPPA ---------------------------------------------------------------------


def test_bppa_half_sq_norm_reproduces_ppa():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    p = MinParams(c=Schedule.constant(0.6), stop_tol=1e-8, max_iters=60)
    a = run_ppa(h, None, p, np.array([0.8]))
    b = run_bppa(h, None, "half_sq_norm", p, np.array([0.8]))
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.values, b.values)


def test_bppa_strict_descent_with_entropy_kernel():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    phi = bregman_catalog("neg_entropy", dim=1, shift=1.5)
    p = MinParams(c=Schedule.constant(0.5), stop_tol=1e-9, max_iters=80)
    tr = run_bppa(h, None, phi, p, np.array([0.9]))
    assert np.linalg.norm(tr.final_point) <= 1e-4
    steps = np.linalg.norm(np.diff(tr.iterates, axis=0), axis=-1)
    dv = np.diff(tr.values)
    assert np.all(dv <= 0.0)
    # strict decrease wherever the value change is resolvable in float64
    assert np.all(dv[steps > 1e-6] < 0.0)


def test_bppa_start_at_minimizer_stops_immediately():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    p = MinParams(c=Schedule.constant(0.5))
    tr = run_bppa(h, None, "half_sq_norm", p, np.zeros(1))
    assert tr.iterations <= 1
    assert tr.terminated_by in ("exact_fixed_point", "residual")


def test_bppa_zone_requirement():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    phi = bregman_catalog("neg_entropy", dim=1)  # zone: positive reals
    p = MinParams(c=Schedule.constant(0.5))
    with pytest.raises(ValueError, match="zone"):
        run_bppa(h, None, phi, p, np.array([-0.5]))


# --- subgradient method --------------------------------------------------------


def test_subgradient_sin_quad_converges():
    h = catalog("sin_quad")
    p = MinParams(variant="SUBGRAD", steps=Schedule.inv_k(0.8), beta=1.0,
                  stop_tol=1e-8, max_iters=10_000, search_radius=6.0)
    tr = run_subgradient(h, None, p, np.array([4.0]))
    assert tr.guarded
    assert abs(tr.final_point[0]) <= 1e-3
    assert tr.terminated_by == "residual"


def test_subgradient_zero_start_immediate():
    h = catalog("sin_quad")
    p = MinParams(variant="SUBGRAD", steps=Schedule.inv_k(0.8), search_radius=6.0)
    tr = run_subgradient(h, None, p, np.zeros(1))
    assert tr.terminated_by == "exact_fixed_point"
    assert tr.iterations == 0


def test_subgradient_ends_where_the_projected_step_stands_still():
    # neg_quad's minimizer 1 is the end of its domain, where the gradient -3 points out
    h = catalog("neg_quad")
    p = MinParams(variant="SUBGRAD", steps=Schedule.inv_k(0.25))
    tr = run_subgradient(h, None, p, np.ones(1))
    assert tr.terminated_by == "exact_fixed_point" and tr.iterations == 0
    assert tr.final_point.tolist() == [1.0] and tr.final_residual == 3.0


def test_subgradient_gauss_well():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    p = MinParams(variant="SUBGRAD", steps=Schedule.inv_k(2.0), stop_tol=1e-8,
                  max_iters=10_000)
    tr = run_subgradient(h, None, p, np.array([0.9]))
    assert abs(tr.final_point[0]) <= 1e-3


def test_subgradient_schedule_guards():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)  # 1/(gamma*beta) = e
    with pytest.raises(ValueError, match="1/\\(gamma beta\\)"):
        run_subgradient(h, None, MinParams(variant="SUBGRAD",
                                           steps=Schedule.constant(3.0)), np.array([0.5]))
    tr = run_subgradient(h, None, MinParams(variant="SUBGRAD",
                                            steps=Schedule.constant(0.5),
                                            max_iters=200, stop_tol=1e-6), np.array([0.5]))
    assert not tr.guarded  # constant steps break square summability


def test_subgradient_oracle_membership_abort():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    bad_oracle = lambda x: -5.0 * np.ones(1)  # not a strong subgradient anywhere
    p = MinParams(variant="SUBGRAD", steps=Schedule.inv_k(1.0), max_iters=50)
    with pytest.raises(RuntimeError, match="spot-check"):
        run_subgradient(h, None, p, np.array([0.5]), oracle=bad_oracle)


# --- gradient method -----------------------------------------------------------


def test_gradient_closed_form_halving():
    h = half_quad()
    p = MinParams(variant="GRAD", steps=Schedule.constant(0.5), stop_tol=1e-8)
    tr = run_gradient(h, p, np.array([1.0]))
    expect = 2.0 ** -np.arange(tr.iterates.shape[0])
    assert np.array_equal(tr.iterates[:, 0], expect)  # x - 0.5 x is exact in binary


def test_gradient_sin_quad_guarded():
    h = catalog("sin_quad")
    p = MinParams(variant="GRAD", steps=Schedule.constant(0.01), stop_tol=1e-8,
                  max_iters=5000)
    tr = run_gradient(h, p, np.array([2.5]))
    assert tr.guarded  # 0.01 < min(gamma/L^2, 2/L) = 0.6965/64
    assert abs(tr.final_point[0]) <= 1e-6


def test_gradient_summable_perturbations_still_converge():
    h = half_quad()
    p = MinParams(variant="GRAD", steps=Schedule.constant(0.5), stop_tol=1e-10,
                  psi=lambda k: np.array([2.0 ** -(k + 1)]), max_iters=500)
    tr = run_gradient(h, p, np.array([1.0]))
    assert abs(tr.final_point[0]) <= 1e-8


def test_gradient_step_bound_flag():
    h = catalog("sin_quad")
    p = MinParams(variant="GRAD", steps=Schedule.constant(0.2), stop_tol=1e-8,
                  max_iters=100)
    tr = run_gradient(h, p, np.array([1.0]))
    assert not tr.guarded
    assert any("step bound" in note for note in tr.guard_notes)


# --- heavy ball ------------------------------------------------------------------


def test_heavy_ball_half_quad():
    h = half_quad()
    p = MinParams(variant="HEAVY_BALL", theta=0.5, hb_eta=np.sqrt(0.5),
                  stop_tol=1e-10, max_iters=2000)
    tr = run_heavy_ball(h, p, np.array([1.0]))
    assert abs(tr.final_point[0]) <= 1e-8
    assert tr.guarded


def test_heavy_ball_eta_window_enforced():
    h = half_quad()
    with pytest.raises(ValueError, match="eta"):
        run_heavy_ball(h, MinParams(variant="HEAVY_BALL", theta=0.5, hb_eta=1.0),
                       np.array([1.0]))
    with pytest.raises(ValueError, match="theta"):
        run_heavy_ball(h, MinParams(variant="HEAVY_BALL", theta=1.0, hb_eta=0.1),
                       np.array([1.0]))


def test_heavy_ball_small_theta_degenerates_to_gradient():
    h = catalog("sin_quad")
    eta = 0.1
    hb = MinParams(variant="HEAVY_BALL", theta=1e-12, hb_eta=eta, stop_tol=1e-8,
                   max_iters=3000)
    gd = MinParams(variant="GRAD", steps=Schedule.constant(eta**2), stop_tol=1e-8,
                   max_iters=3000)
    t1 = run_heavy_ball(h, hb, np.array([1.5]))
    t2 = run_gradient(h, gd, np.array([1.5]))
    m = min(t1.iterates.shape[0], t2.iterates.shape[0])
    assert np.max(np.abs(t1.iterates[:m, 0] - t2.iterates[:m, 0])) <= 1e-6


def test_heavy_ball_sin_quad():
    h = catalog("sin_quad")
    p = MinParams(variant="HEAVY_BALL", theta=0.5, hb_eta=0.3, stop_tol=1e-8,
                  max_iters=5000)  # eta^2 = 0.09 < (1 - 0.25)/8
    tr = run_heavy_ball(h, p, np.array([2.0]))
    assert tr.guarded
    assert abs(tr.final_point[0]) <= 1e-6


# --- the explicit step ------------------------------------------------------------


@pytest.mark.parametrize("variant, theta", [("GRAD", 0.0), ("HEAVY_BALL", 0.5),
                                            ("INERTIAL_GM", 1.0)])
def test_explicit_methods_are_one_recurrence_bit_for_bit(variant, theta):
    # x+ = (1 + theta) x - theta x_prev - t grad h(x); heavy ball was written
    # x + theta (x - x_prev) - t grad h(x), which rounds differently
    h = catalog("sin_quad")
    x0, x1, t = np.array([2.0]), np.array([1.9]), 0.3**2
    p = MinParams(variant=variant, steps=Schedule.constant(t), theta=theta, hb_eta=0.3,
                  eta_min=0.01, max_iters=300)
    if variant == "GRAD":
        tr, x_prev = run_gradient(h, p, x0), x0
    else:
        run = run_heavy_ball if variant == "HEAVY_BALL" else run_inertial_gm
        tr, x_prev = run(h, p, x0, x1), x1
    x, expect = x0, [x0]
    for _ in range(tr.iterations):
        x, x_prev = (1.0 + theta) * x - theta * x_prev - t * h.grad_at(x), x
        expect.append(x)
    assert tr.iterations > 20
    assert np.array_equal(tr.iterates, np.stack(expect))


# --- inertial method --------------------------------------------------------------


def test_inertial_gm_stationary_at_minimizer():
    h = half_quad()
    p = MinParams(variant="INERTIAL_GM", steps=Schedule.constant(0.05), eta_min=0.01)
    tr = run_inertial_gm(h, p, np.zeros(1))
    assert tr.terminated_by == "exact_fixed_point"
    assert tr.iterations == 0


def test_inertial_gm_oscillatory_convergence():
    h = half_quad()
    p = MinParams(variant="INERTIAL_GM", steps=Schedule.constant(0.05), eta_min=0.01,
                  stop_tol=1e-3, max_iters=200_000)
    tr = run_inertial_gm(h, p, np.array([1.0]))
    assert tr.terminated_by == "residual"
    assert abs(tr.final_point[0]) <= 1e-3
    assert tr.extra["max_norm"] <= 2.0  # boundedness hypothesis held empirically


def test_inertial_gm_divergence_guard():
    h = half_quad()
    p = MinParams(variant="INERTIAL_GM", steps=Schedule.constant(5.0), eta_min=1.0,
                  max_iters=10_000)
    tr = run_inertial_gm(h, p, np.array([1.0]))
    assert tr.terminated_by == "diverged"
    assert not tr.guarded


def test_inertial_gm_requires_positive_floor():
    h = half_quad()
    with pytest.raises(ValueError, match="eta_min"):
        run_inertial_gm(h, MinParams(variant="INERTIAL_GM",
                                     steps=Schedule.constant(0.05)), np.array([1.0]))


# --- linear-rate evidence ----------------------------------------------------------


def test_linear_rate_power_norm_tail():
    from sqopt.harness import fit_linear_rate

    h = catalog("power_norm", n=2, halfwidth=10.0)
    p = MinParams(c=Schedule.constant(0.5), stop_tol=1e-8, max_iters=300)
    tr = run_ppa(h, None, p, np.array([7.0, -6.0]))
    fit = fit_linear_rate(tr, np.zeros(2), window=0.1)
    assert fit.q is not None and fit.q < 1.0
    assert fit.r_squared >= 0.9


def test_linear_rate_euclid_norm_tail():
    from sqopt.harness import fit_linear_rate

    h = catalog("euclid_norm", n=2, gamma=0.1, halfwidth=5.0)
    p = MinParams(c=Schedule.constant(0.1), stop_tol=1e-10, max_iters=40)
    tr = run_ppa(h, None, p, np.array([5.0, 5.0]))  # truncated before absorption
    assert tr.terminated_by == "max_iters"
    fit = fit_linear_rate(tr, np.zeros(2), window=1.0)
    assert fit.q is not None and fit.q < 1.0
    assert fit.r_squared >= 0.9


def test_uniqueness_cross_check_small():
    # two variants, two starts each: all land at the same unique minimizer
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    finals = []
    for x0 in (np.array([0.9]), np.array([-0.8])):
        p1 = MinParams(c=Schedule.constant(0.5), stop_tol=1e-9)
        finals.append(run_ppa(h, None, p1, x0).final_point)
        p2 = MinParams(variant="GRAD", steps=Schedule.constant(0.05), stop_tol=1e-9,
                       max_iters=5000)
        finals.append(run_gradient(h, p2, x0).final_point)
    for a in finals:
        for b in finals:
            assert np.linalg.norm(a - b) <= 10 * 1e-9 + 1e-6


# --- lockstep runs ---------------------------------------------------------------


def test_stacked_solve_error_reaches_only_the_run_that_asked(monkeypatch):
    h, cfg = catalog("sin_quad"), GlobalSolveConfig(search_radius=4.0)
    key = StackKey(h.value_many, h.grad_many, h.domain, cfg, 0.5)
    stacks = []
    solve = StackKey.solve
    monkeypatch.setattr(StackKey, "solve", lambda k, C: stacks.append(len(C)) or solve(k, C))

    def asking(c):
        try:
            return (yield ProxRequest(lambda: prox(h, h.domain, 0.5, c, cfg), key, c))
        except ValueError as e:
            return f"thrown in: {e}"

    centers = [np.array([2.0]), np.array([np.nan]), np.array([-1.0])]
    ends = _drive_many([asking(c) for c in centers])
    assert stacks == [3]  # one stacked attempt, then one solve per request
    assert ends[1] == "thrown in: prox center must be finite"
    for i in (0, 2):
        alone = prox(h, h.domain, 0.5, centers[i], cfg)
        assert np.array_equal(ends[i].point, alone.point)
        assert (ends[i].value, ends[i].residual, ends[i].n_evals) == (
            alone.value, alone.residual, alone.n_evals)


def test_drive_many_answers_equal_keys_with_one_stack_per_round(monkeypatch):
    h = catalog("power_norm", n=2, halfwidth=1.0)
    stacks = []
    solve = StackKey.solve
    monkeypatch.setattr(StackKey, "solve", lambda k, C: stacks.append(len(C)) or solve(k, C))
    params = [MinParams(c=Schedule.constant(0.5), alpha=a, rho_lo=r, rho_hi=r)
              for a, r in ((0.0, 1.0), (0.1, 0.8), (0.2, 1.2))]
    ends = _drive_many([start_rippa(h, None, p, [0.6, -0.8]) for p in params])
    alone = [run_rippa(h, None, p, [0.6, -0.8]) for p in params]
    for trace, ref in zip(ends, alone):
        for name in ("iterates", "values", "residuals", "step_norms", "cum_evals"):
            assert np.array_equal(getattr(trace, name), getattr(ref, name))
        assert (trace.terminated_by, trace.fn_evals) == (ref.terminated_by, ref.fn_evals)
    # round r stacks every run still active; a lone run's request is solved alone
    active = [sum(t.prox_evals > r for t in alone) for r in range(max(t.prox_evals for t in alone))]
    assert stacks == [n for n in active if n >= 2] and stacks[0] == 3
