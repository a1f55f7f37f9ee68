from dataclasses import replace

import numpy as np
import pytest

from sqopt.equilibrium import (
    EpParams,
    beta_window,
    check_minty,
    ep_residual,
    run_2ppa_ep,
    run_eg_ep,
    run_ieppa_ep,
    run_peg_ep,
    run_ppa_ep,
    run_reg_ep,
    run_rippa_ep,
    validate_eg,
    validate_ieppa,
    validate_peg,
    validate_rippa_ep,
)
from sqopt.functions import Bifunction, catalog, glt_example, value_gap
from sqopt.geometry import box1d
from sqopt.minimize import MinParams, Schedule, run_ppa
from sqopt.prox import GlobalSolveConfig
from sqopt.verify import certify_ep


def pair(f):
    """EP(f, K) with K the bifunction's domain."""
    return f, f.domain


def vg_problem():
    h = catalog("power_norm", n=2, halfwidth=1.0)
    return pair(value_gap(h))


def glt_problem():
    return pair(glt_example(2, 2))


def glt_grid_solution():
    """Independent grid oracle: argmax over x of min over y of f(x, y)."""
    xs = np.linspace(0.0, 4.0, 2001)
    g = np.maximum(np.sqrt(xs), (xs - 2.0) ** 2 - 2.0)
    F = 2.0 * (g[None, :] - g[:, None]) + xs[:, None] * (xs[None, :] - xs[:, None])
    return float(xs[F.min(axis=1).argmax()])


GLT_FAST = GlobalSolveConfig(grid_density=2001)


def test_glt_solution_is_golden_section_kink():
    # the equilibrium point solves (y-2)^2 - 2 = sqrt(y); bisection oracle
    f = lambda y: (y - 2.0) ** 2 - 2.0 - np.sqrt(y)
    lo, hi = 0.25, 0.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, abs=1e-12)
    assert glt_grid_solution() == pytest.approx(root, abs=2e-3)


def test_beta_window_corrected_split():
    assert beta_window(1.0, 0.0) == (1.0, np.inf)  # eta = 0
    lo, hi = beta_window(13.0, 1.0)  # gamma > 12 eta
    assert lo == pytest.approx(1.0 / 5.0) and hi == pytest.approx(0.25)
    lo, hi = beta_window(1.0, 1.0)  # gamma < 8 eta: corrected branch
    assert lo == 0.0 and hi == pytest.approx(min(1.0 / 7.0, 0.25))
    assert beta_window(10.0, 1.0) is None  # 8 eta <= gamma <= 12 eta
    assert beta_window(1.0, 1.0, policy="strict") is None
    assert beta_window(0.0, 1.0) is None


def test_ep_residual_value_gap():
    prob = vg_problem()
    assert ep_residual(*prob, np.zeros(2)) >= -1e-6
    assert abs(ep_residual(*prob, np.zeros(2))) <= 1e-6
    assert ep_residual(*prob, np.array([0.5, 0.5])) < -0.1


def test_ep_residual_glt_at_grid_solution():
    prob = glt_problem()
    xstar = glt_grid_solution()
    assert ep_residual(*prob, np.array([xstar]), cfg=GLT_FAST) >= -1e-4


def test_rippa_ep_guarded_convergence():
    prob = vg_problem()
    p = EpParams(beta=Schedule.constant(6.0), stop_tol=1e-8)
    tr = run_rippa_ep(*prob, p, np.array([0.9, -0.7]))
    assert tr.guarded
    assert tr.terminated_by in ("residual", "exact_fixed_point")
    assert np.linalg.norm(tr.final_point) <= 1e-5
    assert ep_residual(*prob, tr.final_point) >= -1e-6


def test_rippa_ep_beta_window_flag():
    prob = vg_problem()  # window (5.03, inf)
    p = EpParams(beta=Schedule.constant(1.0), stop_tol=1e-8)
    tr = run_rippa_ep(*prob, p, np.array([0.9, -0.7]))
    assert not tr.guarded
    assert any("window" in n for n in tr.guard_notes)


def test_rippa_ep_invariant_violations_raise():
    prob = vg_problem()
    with pytest.raises(ValueError):
        run_rippa_ep(*prob, EpParams(alpha=1.0), np.zeros(2))
    with pytest.raises(ValueError):
        run_rippa_ep(*prob, EpParams(rho_lo=0.0, rho_hi=1.0), np.zeros(2))


def test_degeneracy_identities_trace_for_trace():
    prob = vg_problem()
    x0 = np.array([0.9, -0.7])
    beta = Schedule.constant(6.0)
    a = run_ppa_ep(*prob, EpParams(beta=beta, stop_tol=1e-8), x0)
    b = run_rippa_ep(*prob, EpParams(beta=beta, alpha=0.0, rho_lo=1.0, rho_hi=1.0,
                                    stop_tol=1e-8), x0)
    c = run_ieppa_ep(*prob, EpParams(beta=beta, alpha=0.0, stop_tol=1e-8), x0)
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.iterates, c.iterates)
    assert np.array_equal(a.residuals, c.residuals)
    # IEPPA_EP(alpha) is RIPPA_EP(alpha, rho = 1) for alpha > 0 as well
    cases = [(prob, x0, EpParams(beta=beta, stop_tol=1e-8, max_iters=60)),
             (glt_problem(), np.array([3.1]),
              EpParams(beta=Schedule.constant(0.18), stop_tol=1e-8, max_iters=60, prox_cfg=GLT_FAST))]
    for problem, start, p in cases:
        for alpha in (0.1, 0.25):
            ie = run_ieppa_ep(*problem, replace(p, alpha=alpha), start)
            ri = run_rippa_ep(*problem, replace(p, alpha=alpha, rho_lo=1.0, rho_hi=1.0), start)
            assert ie.iterations > 1
            for name in ("iterates", "values", "residuals", "cum_evals"):
                assert np.array_equal(getattr(ie, name), getattr(ri, name)), (alpha, name)


def test_ppa_ep_matches_min_ppa_bit_for_bit():
    h = catalog("power_norm", n=2, halfwidth=1.0)
    prob = pair(value_gap(h))
    x0 = np.array([0.9, -0.7])
    t_min = run_ppa(h, None, MinParams(c=Schedule.constant(6.0), stop_tol=1e-8), x0)
    t_ep = run_ppa_ep(*prob, EpParams(beta=Schedule.constant(6.0), stop_tol=1e-8), x0)
    assert np.array_equal(t_min.iterates, t_ep.iterates)
    assert np.array_equal(t_min.residuals, t_ep.residuals)


def test_reg_ep_converges_and_stops_at_solution():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    prob = pair(value_gap(h))
    p = EpParams(beta=Schedule.constant(2.0), stop_tol=1e-8)
    tr = run_reg_ep(*prob, p, np.array([0.9]))
    assert np.linalg.norm(tr.final_point) <= 1e-6
    tr0 = run_reg_ep(*prob, p, np.zeros(1))
    assert tr0.iterations <= 1  # start at the solution: immediate stop


def test_reg_ep_stagnation_aborts():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    prob = pair(value_gap(h))
    p = EpParams(beta=Schedule.constant(2.0), stop_tol=1e-12, inner_max=1)
    with pytest.raises(RuntimeError, match="stagnated"):
        run_reg_ep(*prob, p, np.array([0.9]))


def test_ieppa_both_signs_converge():
    prob = vg_problem()
    for alpha in (0.1, -0.1):
        p = EpParams(beta=Schedule.constant(6.0), alpha=alpha, stop_tol=1e-8)
        tr = run_ieppa_ep(*prob, p, np.array([0.9, -0.7]))
        assert np.linalg.norm(tr.final_point) <= 1e-5
        assert tr.guarded, (alpha, tr.guard_notes)


def test_ieppa_validator():
    prob = vg_problem()
    with pytest.raises(ValueError):
        run_ieppa_ep(*prob, EpParams(alpha=1.0), np.zeros(2))
    p = EpParams(beta=Schedule.constant(6.0), alpha=0.5, stop_tol=1e-8)
    tr = run_ieppa_ep(*prob, p, np.array([0.5, 0.5]))
    assert not tr.guarded
    assert any("1/3" in n for n in tr.guard_notes)


def test_2ppa_value_gap_eta_zero():
    prob = vg_problem()
    p = EpParams(beta=Schedule.constant(6.0), epsilon=0.05, stop_tol=1e-8)
    tr = run_2ppa_ep(*prob, p, np.array([0.9, -0.7]))
    assert tr.guarded
    assert np.linalg.norm(tr.final_point) <= 1e-5
    gaps = tr.extra["corrector_gaps"]
    assert gaps[-1] <= gaps[0] + 1e-12  # ||x_{k+1} - y_k|| shrinks along the trace
    tr0 = run_2ppa_ep(*prob, p, np.zeros(2))
    assert tr0.iterations <= 1 and tr0.terminated_by == "exact_fixed_point"


def test_2ppa_empty_interval_raises():
    # 8 eta < gamma <= 12 eta: lower endpoint exceeds the upper one
    f = Bifunction(name="synthetic", dim=1, domain=box1d(0, 1),
                   fn=lambda X, Y: np.zeros(np.broadcast(X, Y).shape[:-1]),
                   gamma=1.0, eta=0.1)
    prob = pair(f)
    with pytest.raises(ValueError, match="empty beta interval"):
        run_2ppa_ep(*prob, EpParams(beta=Schedule.constant(3.0), epsilon=0.01), np.zeros(1))


def test_eg_ep_stops_at_solution_immediately():
    prob = vg_problem()
    p = EpParams(beta=Schedule.constant(6.0), steps=Schedule.inv_k(0.5), stop_tol=1e-6)
    tr = run_eg_ep(*prob, p, np.zeros(2), oracle=lambda z, x: np.zeros(2))
    assert tr.iterations <= 1
    assert tr.terminated_by in ("residual", "exact_fixed_point")


def test_eg_ep_ends_at_a_zero_oracle_output():
    # the proximal step moves, the line search holds at z, and the oracle there is 0
    prob = vg_problem()
    p = EpParams(beta=Schedule.constant(6.0), steps=Schedule.inv_k(0.5), stop_tol=1e-6)
    tr = run_eg_ep(*prob, p, np.array([0.9, -0.7]), oracle=lambda z, x: np.zeros(2))
    assert tr.terminated_by == "exact_fixed_point" and tr.iterations == 1
    assert tr.final_residual > p.stop_tol


def test_eg_ep_ends_where_the_projected_step_stands_still():
    # from the corner of the box, a step against (-1, -1) is projected back onto the corner
    prob = vg_problem()
    p = EpParams(beta=Schedule.constant(6.0), steps=Schedule.inv_k(0.5), stop_tol=1e-6)
    tr = run_eg_ep(*prob, p, np.array([1.0, 1.0]), oracle=lambda z, x: -np.ones(2))
    assert tr.terminated_by == "exact_fixed_point" and tr.iterations == 1
    assert tr.final_residual > p.stop_tol


def test_validator_notes_of_the_relaxation_the_negative_inertia_and_the_extragradient_steps():
    glt = glt_example(2, 2)  # eta = 1/2: rho may deviate from 1 by at most 1 - 4 eta beta = 0.2
    notes = validate_rippa_ep(glt, glt.domain, EpParams(beta=Schedule.constant(0.4), rho_lo=0.5))
    assert "relaxation deviation exceeds 1 - 4 eta beta" in notes
    f, K = vg_problem()  # eta = 0, so the window of a negative alpha is (1/gamma, inf)
    notes = validate_ieppa(f, K, EpParams(beta=Schedule.constant(0.01), alpha=-0.1))
    assert notes == [f"beta=0.01 leaves ({1.0 / f.gamma:.4g}, inf)"]
    smooth = value_gap(catalog("gauss_well"))
    notes = validate_eg(smooth, smooth.domain, EpParams(beta=Schedule.explicit([1.0, 2.0])))
    assert "beta schedule is not nonincreasing" in notes
    notes = validate_peg(smooth, smooth.domain,
                         EpParams(beta=Schedule.constant(1.0), steps=Schedule.inv_k(5.0)))
    assert "projection steps must stay below inf beta" in notes


def sqrt_norm_grad(z, x):
    n = np.linalg.norm(x)
    if n == 0.0:
        return np.zeros_like(x)
    return x / (2.0 * n**1.5)


def test_eg_ep_converges_with_gradient_oracle():
    prob = vg_problem()
    p = EpParams(beta=Schedule.constant(6.0), steps=Schedule.inv_k(0.5),
                 stop_tol=5e-4, max_iters=4000)
    tr = run_eg_ep(*prob, p, np.array([0.9, -0.7]), oracle=sqrt_norm_grad)
    assert np.linalg.norm(tr.final_point) <= 1e-3
    ms = tr.extra["line_search_m"]
    assert ms and all(m <= 60 for m in ms)  # finite backtracking every iteration


def test_peg_ep_converges_and_counts():
    prob = vg_problem()
    p = EpParams(beta=Schedule.constant(6.0), steps=Schedule.inv_k(0.5),
                 stop_tol=5e-4, max_iters=4000)
    tr = run_peg_ep(*prob, p, np.array([0.9, -0.7]), oracle=sqrt_norm_grad)
    assert np.linalg.norm(tr.final_point) <= 1e-3
    assert tr.guarded
    assert tr.prox_evals >= tr.iterations


def test_eg_line_search_cap_fires_on_bad_bifunction():
    # f whose decrease condition can never hold: f(z, x) - f(z, y) == 0
    f = Bifunction(name="flat", dim=1, domain=box1d(0, 1),
                   fn=lambda X, Y: np.zeros(np.broadcast(X, Y).shape[:-1]),
                   gamma=1.0, eta=0.0,
                   partial_grad_y=lambda x, y: np.ones(1))
    prob = pair(f)
    # the proximal step of a flat bifunction returns the center: supply a
    # custom y-objective that forces a nonzero displacement
    f2 = Bifunction(name="tilt", dim=1, domain=box1d(0, 1),
                    fn=lambda X, Y: np.zeros(np.broadcast(X, Y).shape[:-1]),
                    gamma=1.0, eta=0.0,
                    partial_grad_y=lambda x, y: np.ones(1),
                    y_parts=lambda x: (lambda Y: Y[..., 0], None))
    prob2 = pair(f2)
    p = EpParams(beta=Schedule.constant(1.0), steps=Schedule.inv_k(0.5),
                 stop_tol=1e-10, max_iters=5)
    with pytest.raises(RuntimeError, match="line search"):
        run_eg_ep(*prob2, p, np.array([0.9]))


def test_minty_coincidence_at_solution():
    prob = vg_problem()
    rep = check_minty(*prob, np.zeros(2), n_samples=1000, seed=5)
    assert rep.passed
    bad = check_minty(*prob, np.array([0.6, 0.6]), n_samples=1000, seed=5)
    assert not bad.passed


def test_certification_reports():
    reports = certify_ep(*glt_problem(), seed=2)
    assert set(reports) == {"A0", "A2", "A4", "A5"}
    assert all(r.passed for r in reports.values())
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    bad = Bifunction(name="shifted", dim=1, domain=h.domain,
                     fn=lambda X, Y: h.fn(np.asarray(Y)) - h.fn(np.asarray(X)) + 1.0,
                     gamma=h.modulus, eta=0.0)
    assert not all(r.passed for r in certify_ep(bad, seed=3).values())


def test_glt_all_proximal_solvers_agree():
    prob = glt_problem()
    xstar = glt_grid_solution()
    x0 = np.array([3.5])
    base = dict(beta=Schedule.constant(0.18), stop_tol=1e-8, prox_cfg=GLT_FAST)
    runs = {
        "rippa": run_rippa_ep(*prob, EpParams(**base), x0),
        "reg": run_reg_ep(*prob, EpParams(**base), x0),
        "ieppa": run_ieppa_ep(*prob, EpParams(**base, alpha=0.1), x0),
        "2ppa": run_2ppa_ep(*prob, EpParams(**base, epsilon=0.01), x0),
    }
    for name, tr in runs.items():
        assert abs(tr.final_point[0] - xstar) <= 1e-3, name
    assert runs["rippa"].guarded  # corrected-split window covers beta = 0.18
    assert not runs["ieppa"].guarded  # theorem window empty: gamma < 12 eta
    assert not runs["2ppa"].guarded


@pytest.mark.parametrize("prob, X, cfg", [
    (glt_problem(), np.array([[0.2], [0.381966], [1.7], [3.9], [0.381966]]), GLT_FAST),
    (pair(glt_example(2, 2, n=2)), np.array([[0.5, 3.1], [2.2, 0.9], [1.0, 1.0]]), None),
    (vg_problem(), np.array([[0.0, 0.0], [0.5, 0.5], [-0.8, 0.3]]), None),  # y-subgradient
], ids=["glt1d", "glt2d", "value_gap"])
def test_ep_residual_batch_equals_one_at_a_time(prob, X, cfg):
    # a batch is one lockstep solve over a stack of centers; each entry is
    # exactly the one-point certificate
    batch = ep_residual(*prob, X, cfg)
    assert isinstance(batch, np.ndarray) and batch.shape == (X.shape[0],)
    single = [ep_residual(*prob, x, cfg) for x in X]
    assert all(isinstance(r, float) for r in single)
    assert np.array_equal(batch, single)


def test_reg_ep_regularized_objective_batch_equals_row_by_row():
    # the shift term used ``Y @ shift``, which rounds a row differently inside
    # a batch than alone
    from sqopt.equilibrium import _regularized_y_objective

    f = glt_example(2, 2, n=2)
    fy, _ = _regularized_y_objective(f, np.array([1.3, 0.6]), 0.18, np.array([2.1, 0.35]))
    Y = f.domain.sample(seed=71, m=64)
    V = fy(Y)
    assert all(fy(Y[i]) == V[i] for i in range(Y.shape[0]))


def test_1d_glt_extragradient_and_certificate_solves_take_few_batches(tmp_path, monkeypatch):
    # the solve_ep benchmark's EG_EP and PEG_EP runs from fixed starts, with
    # their certificates; projected gradient took a median of 46-52 lockstep
    # iterations per solve, the bracket search takes at most 5
    import sqopt.equilibrium as E
    import sqopt.prox as P
    from sqopt.harness import run_from_config

    solve, iters = P._global_min_impl, []

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        iters.extend(r.refine_iters for r in res)
        return res

    monkeypatch.setattr(P, "_global_min_impl", counted)
    monkeypatch.setattr(E, "_global_min_impl", counted)
    for variant, beta in (("EG_EP", 0.18), ("PEG_EP", 1.0)):
        for x0 in (0.7, 3.1):
            algo = {"variant": variant, "x0": [x0], "beta": {"kind": "constant", "value": beta},
                    "steps": {"kind": "inv_k", "value": 0.8}, "stop_tol": 5e-3,
                    "max_iters": 4000, "prox": {"grid_density": 2001}}
            cfg = {"schema_version": 1, "algorithm": algo,
                   "problem": {"kind": "ep", "bifunction": {"catalog": "glt_example",
                                                            "params": {"p": 2, "q": 2}}}}
            assert run_from_config(cfg, tmp_path / f"{variant}_{x0}")[1] == 0
    assert len(iters) >= 40
    assert np.median(iters) <= 20 and max(iters) <= 30
