import contextlib
import dataclasses
import importlib.util
import io
import json
import statistics
import warnings
from pathlib import Path

import numpy as np
import pytest

import sqopt.prox as P
from conftest import abs_on_box, grid_min_1d, half_quad
from sqopt.functions import bifunction_catalog, bregman_catalog, catalog
from sqopt.geometry import Box, HalfspaceIntersection, box1d
from sqopt.prox import (
    GlobalSolveConfig,
    bregman_prox,
    global_min,
    prox,
    prox_many,
    prox_point,
)
from sqopt import cli, verify

FAST = GlobalSolveConfig(grid_density=4001, local_tol=1e-10)


def test_global_min_sin_quad():
    h = catalog("sin_quad")
    res = global_min(h, box1d(-5.0, 5.0))
    assert abs(res.point[0]) <= 1e-6
    assert res.value <= 1e-10


def test_global_min_power_norm():
    h = catalog("power_norm", n=2, halfwidth=1.0)
    res = global_min(h)
    assert np.linalg.norm(res.point) <= 1e-9
    assert res.value == 0.0


@pytest.mark.parametrize(
    "h",
    [
        catalog("abs_shift", a=-0.3, gamma=2.0),
        catalog("neg_quad"),
        catalog("gauss_well", c=1.0, d=1.0, delta=1.0),
        catalog("inv_gap"),
        catalog("root_quartic", k=1.0, c=2.0),
        catalog("sin_quad"),
    ],
    ids=lambda h: h.name.split("(")[0],
)
def test_global_min_matches_dense_grid_oracle(h):
    lo, hi = h.domain.bounding_box(radius=5.0)
    t_star, v_star = grid_min_1d(h.fn, lo[0], hi[0])
    res = global_min(h, cfg=GlobalSolveConfig(search_radius=5.0)
                     if not h.domain.is_bounded else None)
    assert res.value <= v_star + 1e-6
    if h.name != "inv_gap":  # no attained minimum there: grid depth is arbitrary
        assert abs(res.point[0] - t_star) <= 1e-4


def test_prox_quadratic_closed_form():
    # h = y^2/2: prox_beta(x) = x / (1 + beta)
    res = prox(half_quad(), beta=1.0, x=np.array([3.0]),
               cfg=GlobalSolveConfig(search_radius=10.0))
    assert res.point[0] == pytest.approx(1.5, abs=1e-8)
    assert res.residual == pytest.approx(1.5, abs=1e-8)


def test_prox_abs_soft_threshold():
    h = abs_on_box(4.0, 0.25)
    res = prox(h, beta=1.0, x=np.array([3.0]))
    assert res.point[0] == pytest.approx(2.0, abs=1e-8)


def test_prox_neg_quad_example():
    # beta = 1/4 at x = 0: subproblem is t^2 - t on [0, 1], minimized at 1/2
    h = catalog("neg_quad")
    t_star, _ = grid_min_1d(lambda T: T[..., 0] ** 2 - T[..., 0], 0.0, 1.0)
    res = prox(h, beta=0.25, x=np.zeros(1))
    assert res.point[0] == pytest.approx(0.5, abs=1e-8)
    assert res.point[0] == pytest.approx(t_star, abs=1e-4)


def test_prox_requires_positive_beta_and_finite_center():
    h = catalog("neg_quad")
    with pytest.raises(ValueError):
        prox(h, beta=0.0, x=np.zeros(1))
    with pytest.raises(ValueError):
        prox(h, beta=1.0, x=np.array([np.inf]))


def test_prox_candidates_record_set_valuedness():
    # symmetric double-well distance: prox at the midpoint has two minimizers
    from sqopt.functions import Objective

    h = Objective(name="vee2", dim=1, domain=box1d(-2.0, 2.0), modulus=0.0,
                  fn=lambda X: np.abs(np.abs(X[..., 0]) - 1.0))
    res = prox(h, beta=10.0, x=np.zeros(1))
    assert len(res.candidates) == 2
    assert res.point[0] == pytest.approx(-1.0, abs=1e-7)  # lexicographic winner
    assert sorted(c[0] for c in res.candidates) == pytest.approx([-1.0, 1.0], abs=1e-7)
    # ProxResult invariants: near-optimal value ties and feasible candidates
    def sub_value(y):
        return h.value(y) + np.sum((y - np.zeros(1)) ** 2) / 20.0

    for c in res.candidates:
        assert res.value <= sub_value(c) + 1e-8
        assert h.domain.contains(c, tol=1e-10)


def test_solve_config_invariants():
    with pytest.raises(ValueError):
        GlobalSolveConfig(n_starts=0)
    with pytest.raises(ValueError):
        GlobalSolveConfig(local_tol=0.0)


def test_prox_global_optimality_spot_check():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    x = np.array([0.8])
    res = prox(h, beta=0.5, x=x)
    Y = h.domain.sample(seed=31, m=1000)
    sub = h.value_many(Y) + np.sum((Y - x) ** 2, axis=-1) / (2.0 * 0.5)
    assert res.value <= np.min(sub) + 1e-10


def test_prox_determinism():
    h = catalog("sin_quad")
    cfg = GlobalSolveConfig(search_radius=6.0)
    a = prox(h, beta=0.7, x=np.array([2.3]), cfg=cfg)
    b = prox(h, beta=0.7, x=np.array([2.3]), cfg=cfg)
    assert np.array_equal(a.point, b.point)
    assert a.value == b.value and a.n_evals == b.n_evals
    assert all(np.array_equal(u, v) for u, v in zip(a.candidates, b.candidates))


def test_prox_descent_inequality_via_subdiff_membership():
    # displacement of a proximal step is a strong subgradient at the output
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    for seed, x in enumerate([np.array([0.9]), np.array([-0.6]), np.array([0.2])]):
        res = prox(h, beta=0.8, x=x)
        rep = verify.subdiff_member(h, xbar=res.point, z=x - res.point, beta=0.8,
                                    n_samples=300, seed=seed)
        assert rep.passed, rep.witnesses[:1]


def test_bregman_half_sq_norm_collapses_to_prox():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    phi = bregman_catalog("half_sq_norm", dim=1)
    rng = np.random.Generator(np.random.Philox(key=41))
    for _ in range(20):
        x = np.array([2.0 * rng.random() - 1.0])
        beta = 0.2 + rng.random()
        a = prox(h, beta=beta, x=x)
        b = bregman_prox(h, None, phi, beta, x)
        assert np.array_equal(a.point, b.point)
        assert abs(a.value - b.value) <= 1e-8


def test_bregman_prox_fixed_point_contains_minimizer():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    phi = bregman_catalog("neg_entropy", dim=1, shift=1.5)
    res = bregman_prox(h, None, phi, 0.5, np.zeros(1))
    assert any(np.linalg.norm(c) <= 1e-6 for c in res.candidates)


def test_bregman_prox_neg_entropy_matches_grid_oracle():
    # h = |t - 1| on [0.1, 4] with the entropy kernel at x = 2
    from sqopt.functions import Objective

    K = box1d(0.1, 4.0)
    h = Objective(name="abs_shifted", dim=1, domain=K, modulus=0.2,
                  fn=lambda X: np.abs(X[..., 0] - 1.0))
    phi = bregman_catalog("neg_entropy", dim=1)
    x = np.array([2.0])
    beta = 1.0

    def sub(T):
        t = T[..., 0]
        return np.abs(t - 1.0) + (t * np.log(t / 2.0) - t + 2.0) / beta

    t_star, v_star = grid_min_1d(sub, 0.1, 4.0)
    res = bregman_prox(h, K, phi, beta, x)
    assert res.point[0] == pytest.approx(t_star, abs=1e-4)
    assert res.value <= v_star + 1e-8


def test_bregman_subproblem_gradient_matches_central_differences():
    cases = [(catalog("gauss_well"), bregman_catalog("neg_entropy", dim=1, shift=2.0), 0.5),
             (catalog("euclid_norm", n=2, gamma=0.2), bregman_catalog("neg_entropy", dim=2, shift=4.0),
              0.3)]
    for key, (h, phi, beta) in enumerate(cases):
        fn, grad = P._bregman_objective(h, phi, beta)
        Y, Xc = _starts(h.domain, GlobalSolveConfig(), 40, key=140 + key), _starts(
            h.domain, GlobalSolveConfig(), 40, key=150 + key)
        Y = Y[np.linalg.norm(Y, axis=-1) > 0.1]  # off the kink of euclid_norm
        Xc = Xc[: Y.shape[0]]
        G, eps = grad(Xc, Y), 1e-6
        for j in range(h.dim):
            e = np.zeros(h.dim)
            e[j] = eps
            fd = (fn(Xc, Y + e) - fn(Xc, Y - e)) / (2.0 * eps)
            np.testing.assert_allclose(G[:, j], fd, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("x, beta, shift, lo", [([1.2, -0.7], 1.0, 4.0, None),
                                                ([3.0, -2.0], 0.2, 4.0, None),
                                                ([1.0, 0.3], 0.7, 0.0, 0.0)],
                         ids=["at_the_kink", "interior", "box_on_the_zone_boundary"])
def test_bregman_prox_neg_entropy_matches_2d_grid_oracle(x, beta, shift, lo):
    # ||y|| with the entropy kernel shifted by `shift`, on its box [-w, w]^2,
    # w = 3.54, or on [lo, 2]^2.  The first center's proximal point is the
    # kink 0 (the divergence's gradient there is shorter than 1 / beta), the
    # others' are interior.  On [0, 2]^2 the seeds on the zone's boundary have
    # a -inf gradient; no inf or NaN may reach a step (warnings are errors)
    h = catalog("euclid_norm", n=2, gamma=0.2)
    K = h.domain if lo is None else Box(np.full(2, lo), np.full(2, 2.0))
    phi = bregman_catalog("neg_entropy", dim=2, shift=shift)
    x = np.array(x)

    def sub(Y):
        Z, Zx = Y + shift, x + shift
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(Z > 0, Z * np.log(Z / Zx), 0.0)
        return np.linalg.norm(Y, axis=-1) + np.sum(ent - (Y - x), axis=-1) / beta

    center, half = (K.lo + K.hi) / 2.0, (K.hi - K.lo) / 2.0
    for _ in range(3):  # a dense grid, then two zooms about its minimum
        axes = [np.linspace(max(c - r, l), min(c + r, u), 801)
                for c, r, l, u in zip(center, half, K.lo, K.hi)]
        Y = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
        V = sub(Y)
        center, v_star = Y[int(np.argmin(V))], float(np.min(V))
        half = np.array([2.0 * (a[1] - a[0]) for a in axes])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = bregman_prox(h, K, phi, beta, x)
    assert res.value <= v_star + 1e-12
    assert np.linalg.norm(res.point - center) <= 2.0 * np.linalg.norm(half)


def test_bregman_prox_zone_violation():
    h = abs_on_box(4.0, 0.25)
    phi = bregman_catalog("neg_entropy", dim=1)
    with pytest.raises(ValueError, match="zone"):
        bregman_prox(h, box1d(0.1, 4.0), phi, 1.0, np.array([-1.0]))


def test_global_min_unbounded_needs_radius():
    h = catalog("sin_quad")
    with pytest.raises(ValueError, match="radius"):
        global_min(h)
    res = global_min(h, cfg=GlobalSolveConfig(search_radius=5.0))
    assert abs(res.point[0]) <= 1e-6


def test_power_norm_2d_prox_single_polished_candidate():
    # ||y||^(1/2): the prox lies on the ray to x at the root r of
    # 1/(2 sqrt r) + (r - |x|)/beta = 0 (the larger one, past the kink at 0)
    h = catalog("power_norm", n=2, halfwidth=10.0)
    beta = 0.5
    rng = np.random.Generator(np.random.Philox(key=81))
    for _ in range(6):
        ang, s = 2.0 * np.pi * rng.random(), 1.0 + 5.0 * rng.random()
        x = s * np.array([np.cos(ang), np.sin(ang)])
        lo, hi = (beta / 4.0) ** (2.0 / 3.0), s  # derivative increasing on [lo, hi]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if 0.5 / np.sqrt(mid) + (mid - s) / beta > 0 else (mid, hi)
        res = prox(h, beta=beta, x=x)
        assert len(res.candidates) == 1
        assert np.linalg.norm(res.point - 0.5 * (lo + hi) * x / s) <= 1e-8


def test_tie_representative_is_best_valued_member():
    from sqopt.prox import _tie_representatives

    # two clusters within DEDUPE_TOL = 1e-7, one point outside VALUE_TIE_TOL;
    # value ties break by index
    X = np.array([[0.0], [0.3e-7], [5.0], [5.0 + 0.5e-7], [0.6e-7], [2.0]])
    F = np.array([2e-9, 1e-9, 3e-9, 3e-9, 1e-9, 1.0])
    assert _tie_representatives(X, F).tolist() == [1, 2]


# --- lockstep refiners ----------------------------------------------------------


def test_refine_pg_root_quartic_prox_converges_fast():
    # curvature ~1.985 here: doubling after every accept and halving after
    # every reject cycled between an overshooting step 1 and a rejected step 2,
    # so all 17 rows ran to max_local_iters with |grad| up to 1.6e-2
    h = catalog("root_quartic", k=1.0, c=2.0)
    x = np.array([1.748224804581618])
    cfg = GlobalSolveConfig()
    fn, grad = P._prox_objective(h.value_many, h.grad_many, 0.5)
    stack = P._Stack(fn, grad, x[None, :])
    seeds = np.concatenate([x[None, :], P._seed_points(h.domain, cfg)])
    F = fn(x, seeds)
    keep = np.concatenate([[0], np.argsort(F[1:], kind="stable")[:16] + 1])
    iters = 0

    def counted_fn(own, Y):  # one batched call per lockstep iteration
        nonlocal iters
        iters += 1
        return stack.fn(own, Y)

    X, _, _ = P._refine_pg(counted_fn, stack.grad, h.domain, seeds[keep].copy(),
                           F[keep].copy(), np.zeros(17, dtype=int), cfg)
    assert X.shape[0] == 17
    assert iters < 50
    assert np.all(np.linalg.norm(grad(x, X), axis=-1) <= np.sqrt(cfg.local_tol))


def _refine_subproblems():
    """(id, paired fn, paired grad, centers, K, cfg) of the refined subproblem kinds."""
    sq = catalog("sin_quad")
    sq_fn, sq_grad = P._prox_objective(sq.value_many, sq.grad_many, 0.8)
    glt = bifunction_catalog("glt_example", p=2.0, q=2.0, n=2)
    glt_fy, glt_gy = glt.y_objective(np.array([0.7, 1.9]))
    pn = catalog("power_norm", n=2, halfwidth=10.0)
    pn_fn, pn_grad = P._prox_objective(pn.value_many, pn.grad_many, 0.5)
    return [
        ("sin_quad_prox", sq_fn, sq_grad, np.array([[2.4], [-1.3]]), sq.domain,
         GlobalSolveConfig(search_radius=6.0)),
        ("glt2d_y_objective", lambda Xc, Y: glt_fy(Y), lambda Xc, Y: glt_gy(Y),
         np.array([[0.7, 1.9]]), glt.domain, GlobalSolveConfig()),
        ("glt2d_certificate", glt.fn, glt.partial_grad_y, np.array([[0.7, 1.9], [2.6, 0.4]]),
         glt.domain, GlobalSolveConfig()),
        ("power_norm2_prox", pn_fn, pn_grad, np.array([[3.5, -4.2], [-0.3, 1.1]]), pn.domain,
         GlobalSolveConfig()),
    ]


def _refiner(P, case, C):
    """The projected-gradient refine as ``refine(X, own)`` on the stack with centers ``C``."""
    _, fn, grad, _, K, cfg = case

    def pg(X, own):
        stack = P._Stack(fn, grad, C)
        return P._refine_pg(stack.fn, stack.grad, K, X, stack.fn(own, X), own, cfg)[:2]

    return pg


def _starts(K, cfg, m, key):
    lo, hi = K.bounding_box(cfg.search_radius)
    rng = np.random.Generator(np.random.Philox(key=key))
    return K.project_many(lo + rng.random((m, K.dim)) * (hi - lo))


@pytest.mark.parametrize("case", _refine_subproblems(), ids=lambda c: c[0])
def test_lockstep_refiners_rows_are_independent(case):
    # per-row state (step, gradient, BB lengths, stop flags) never mixes rows:
    # a batch refines bit for bit as one call per row
    C, K, cfg = case[3][:1], case[4], case[5]
    X = _starts(K, cfg, 12, key=97)
    own = np.zeros(X.shape[0], dtype=int)
    refine = _refiner(P, case, C)
    XB, FB = refine(X.copy(), own)
    for i in range(X.shape[0]):
        xi, fi = refine(X[i : i + 1].copy(), own[i : i + 1])
        assert np.array_equal(xi[0], XB[i]) and fi[0] == FB[i], i


@pytest.mark.parametrize("case", [c for c in _refine_subproblems() if len(c[3]) == 2],
                         ids=lambda c: c[0])
def test_lockstep_refiners_stack_equals_each_problem_solo(case):
    # two problems (two centers) refined in one working set: each problem's
    # rows end bit for bit where that problem alone takes them, although the
    # two retire at different iterations
    C, K, cfg = case[3], case[4], case[5]
    X = np.concatenate([_starts(K, cfg, 9, key=98), _starts(K, cfg, 7, key=99)])
    own = np.repeat([0, 1], [9, 7])
    XS, FS = _refiner(P, case, C)(X.copy(), own)
    for p in (0, 1):
        mine = own == p
        xp, fp = _refiner(P, case, C[p : p + 1])(X[mine].copy(), np.zeros(int(mine.sum()), dtype=int))
        assert np.array_equal(xp, XS[mine]) and np.array_equal(fp, FS[mine]), p


def test_global_solve_stack_equals_each_problem_solo():
    # per-problem seeding (each center is an extra start), 1-D brackets and
    # bracket search (by derivative: sin_quad's prox, glt_example's
    # certificate and BPPA's neg_entropy subproblem; by values: a kinked
    # objective without a derivative), tie representatives, evaluation and
    # batch counts
    cases = []
    for h, cfg in ((catalog("sin_quad"), GlobalSolveConfig(search_radius=6.0)),
                   (catalog("power_norm", n=2, halfwidth=10.0), GlobalSolveConfig())):
        fn, grad = P._prox_objective(h.value_many, h.grad_many if h.grad else None, 0.7)
        cases.append((fn, grad, h.domain, cfg, _starts(h.domain, cfg, 3, key=100), True))
    glt = bifunction_catalog("glt_example", p=2.0, q=2.0)
    cases.append((glt.fn, glt.partial_grad_y, glt.domain, GlobalSolveConfig(grid_density=2001),
                  np.array([[0.2], [1.3], [3.6]]), False))
    gw = catalog("gauss_well")
    fn, grad = P._bregman_objective(gw, bregman_catalog("neg_entropy", dim=1, shift=2.0), 0.5)
    cases.append((fn, grad, gw.domain, GlobalSolveConfig(), np.array([[-0.6], [0.1], [0.8]]),
                  True))
    fn, _ = P._prox_objective(lambda Y: np.abs(np.abs(Y[:, 0]) - 1.0), None, 0.7)
    cases.append((fn, None, box1d(-2.0, 2.0), GlobalSolveConfig(),
                  np.array([[-0.6], [0.0], [1.7]]), True))
    for fn, grad, K, cfg, C, seed_centers in cases:
        stacked = P._global_min_impl(fn, grad, K, cfg, C, seed_centers=seed_centers)
        for p, res in enumerate(stacked):
            solo = P._global_min_impl(fn, grad, K, cfg, C[p : p + 1], seed_centers=seed_centers)[0]
            assert np.array_equal(res.point, solo.point) and res.value == solo.value
            assert (res.n_evals, res.refine_iters) == (solo.n_evals, solo.refine_iters)
            assert len(res.candidates) == len(solo.candidates)
            assert all(np.array_equal(a, b) for a, b in zip(res.candidates, solo.candidates))


@pytest.mark.parametrize("name, kw, centers, radius", [
    ("sin_quad", {}, [[2.0], [-1.3], [0.4]], 4.0),
    ("power_norm", {"n": 2, "halfwidth": 1.0}, [[0.6, -0.8], [0.1, 0.2], [-1.0, 1.0]], None),
])
def test_prox_many_equals_prox_point_per_center(name, kw, centers, radius):
    h = catalog(name, **kw)
    cfg = GlobalSolveConfig(search_radius=radius)
    grad = h.grad_many if h.grad else None
    stacked = prox_many(h.value_many, grad, h.domain, 0.5, np.array(centers), cfg)
    for res, c in zip(stacked, centers):
        alone = prox_point(h.value_many, grad, h.domain, 0.5, np.array(c), cfg)
        assert np.array_equal(res.point, alone.point)
        assert (res.value, res.residual, res.n_evals) == (
            alone.value, alone.residual, alone.n_evals)
        assert all(np.array_equal(a, b) for a, b in zip(res.candidates, alone.candidates))


def test_n_evals_counts_every_row_the_objective_sees():
    h = catalog("power_norm", n=2, halfwidth=1.0)
    rows = []
    counted = dataclasses.replace(h, fn=lambda X: rows.append(len(X)) or h.fn(X))
    # the seeds and every refine batch, alone and in a stack of four
    one = prox(counted, x=np.array([0.6, -0.8]), beta=0.5)
    assert one.n_evals == sum(rows)
    rows.clear()
    C = np.array([[0.6, -0.8], [0.1, 0.2], [-1.0, 1.0], [0.3, 0.9]])
    many = prox_many(counted.value_many, counted.grad_many, h.domain, 0.5, C, GlobalSolveConfig())
    assert sum(r.n_evals for r in many) == sum(rows)
    assert many[0].n_evals == one.n_evals


# x1 >= 0.5, x2 >= 0.2, x1 + x2 >= 1, x1 + 2 x2 <= 4; ||x|| is least at its vertex (0.5, 0.5)
POLYTOPE = HalfspaceIntersection(np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 2.0]]),
                                 np.array([-0.5, -0.2, -1.0, 4.0]))


# (objective, set, solve config, center, the proximal point and how far from
# it the result may lie, a bound on the rows evaluated);
# the seeds are 10,002, 82 and 26 rows, and each of the 17, 82 and 26 kept
# starts may run 400 refine iterations
@pytest.mark.parametrize("h, K, cfg, center, point, atol, max_evals", [
    (catalog("gauss_well"), box1d(0.3, 1.0), GlobalSolveConfig(), [0.5], [0.3], 0.0, 10_100),
    (catalog("quad_fractional", A=np.eye(2), a=np.zeros(2), alpha=0.0, B=np.zeros((2, 2)),
             b=np.zeros(2), beta=1.0, K=Box(np.full(2, 0.5), np.full(2, 2.0)), m=0.5, M=1.5),
     None, GlobalSolveConfig(), [0.2, 0.4], [0.5, 0.5], 0.0, 400),
    (catalog("euclid_norm", n=2, gamma=0.2), POLYTOPE,
     GlobalSolveConfig(n_starts=25, search_radius=3.0), [0.55, 0.8], [0.5, 0.5], 1e-12, 200),
], ids=["gauss_well_1d", "quad_fractional_corner", "euclid_norm_polytope_vertex"])
def test_refine_pg_rows_retire_at_a_constrained_minimizer(h, K, cfg, center, point, atol,
                                                          max_evals):
    # at a minimizer on the boundary the gradient stays large and the projected
    # move is zero, or at a polytope's vertex within the projection's rounding; a
    # gradient test ran such rows to max_local_iters (16,803, 32,883 and 3,830
    # rows evaluated).  At the vertex the tiny clipped moves are often
    # rejected, so a mapping test on accepted moves alone still took 390 rows
    res = prox(h, K, 0.5, np.array(center), cfg)
    np.testing.assert_allclose(res.point, point, rtol=0, atol=atol)
    assert res.n_evals <= max_evals


# --- one-dimensional bracket search -----------------------------------------------


@pytest.mark.parametrize("grid_density", [999, 1234, 10_000])
def test_1d_prox_lands_exactly_on_a_kink(grid_density):
    # |t - 0.3| on [0, 0.5]: every center below is within beta of the kink, so
    # its proximal point is the kink, a grid point only for 10,000 (10,001
    # points).  Projected gradient ended up to 3e-11 from the off-grid kink
    h = catalog("abs_shift", a=-0.3, gamma=2.0)
    cfg = GlobalSolveConfig(grid_density=grid_density)
    for c in (0.0, 0.2, 0.45, 0.5):
        assert prox(h, beta=0.5, x=np.array([c]), cfg=cfg).point[0] == 0.3


def test_1d_glt_certificate_lands_on_its_kink():
    # for these x, min_y f(x, y) of glt_example lies on the max-kink
    # (3 - sqrt 5)/2 of g; projected gradient ended 1e-12 to 1e-10 from it
    f = bifunction_catalog("glt_example", p=2.0, q=2.0)
    kink = (3.0 - np.sqrt(5.0)) / 2.0
    for x in (0.1, 0.5, 1.3, 2.0, 3.0):
        res = P._global_min_impl(f.fn, f.partial_grad_y, f.domain, GlobalSolveConfig(),
                                 np.array([[x]]))[0]
        assert abs(res.point[0] - kink) <= 1e-15


@pytest.mark.parametrize("center, bound", [(0.5, 0.3), (0.1, 0.3), (5.0, 1.0)])
def test_1d_minimum_at_a_bound_is_the_bound_after_one_batch(center, bound):
    # gauss_well on [0.3, 1]: where the derivative at an end of the samples
    # points out of them, that end is the answer, exactly, after one batch
    res = prox(catalog("gauss_well"), box1d(0.3, 1.0), 0.5, np.array([center]))
    assert res.point[0] == bound and res.refine_iters == 1


def _oracle_cases():
    """(id, paired fn, paired grad, K, cfg, 50 centers, extra starts?, the oracle's interval)."""
    rng = np.random.Generator(np.random.Philox(key=131))
    sq = catalog("sin_quad")
    fn, grad = P._prox_objective(sq.value_many, sq.grad_many, 0.8)
    glt = bifunction_catalog("glt_example", p=2.0, q=2.0)
    return [("sin_quad_prox", fn, grad, sq.domain, GlobalSolveConfig(search_radius=6.0),
             rng.uniform(-5.0, 5.0, (50, 1)), True, (-6.0, 6.0)),
            ("glt_certificate", glt.fn, glt.partial_grad_y, glt.domain, GlobalSolveConfig(),
             rng.uniform(0.0, 4.0, (50, 1)), False, (0.0, 4.0))]


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
def test_1d_solves_agree_with_a_million_point_grid(case):
    # the bracket search keeps the dense grid's globality: no worse a value
    # than 10^6 grid points, and a candidate within two of their spacings
    _, fn, grad, K, cfg, C, seed_centers, (lo, hi) = case
    T = np.linspace(lo, hi, 1_000_001)[:, None]
    for c, res in zip(C, P._global_min_impl(fn, grad, K, cfg, C, seed_centers=seed_centers)):
        V = fn(c[None, :], T)
        i = int(np.argmin(V))
        assert res.value <= V[i] + 1e-12
        assert min(abs(y[0] - T[i, 0]) for y in res.candidates) <= 2.0 * (hi - lo) / 1e6


@pytest.mark.parametrize("name, kw, cfg, centers", [
    ("gauss_well", {}, GlobalSolveConfig(), (-1.5, 1.5)),
    ("sin_quad", {}, GlobalSolveConfig(search_radius=6.0), (-5.0, 5.0)),
    ("root_quartic", {"k": 1.0, "c": 2.0}, GlobalSolveConfig(), (-2.5, 2.5)),
])
def test_1d_prox_points_are_roots_of_the_subproblem_derivative(name, kw, cfg, centers):
    # a bracket closed until no float lies inside ends on the root; a
    # Newton polish that kept a point only if its value did not rise left
    # up to half of the interior gauss_well points with a derivative of 1e-12
    # to 1e-9
    h = catalog(name, **kw)
    C = np.random.Generator(np.random.Philox(key=35)).uniform(*centers, (200, 1))
    lo, hi = h.domain.bounding_box(cfg.search_radius)
    Y = np.array([r.point for r in prox_many(h.value_many, h.grad_many, h.domain, 0.5, C, cfg)])
    inside = (Y[:, 0] > lo[0]) & (Y[:, 0] < hi[0])
    assert np.sum(inside) >= 150
    D = h.grad_many(Y[inside]) + (Y[inside] - C[inside]) / 0.5
    assert np.max(np.abs(D)) <= 1e-14


def test_1d_brackets_every_local_minimum_up_to_n_starts():
    # 0.1 t^2 - cos(2 pi t) on [-1.5, 1.5] has local minima near -1, 0 and 1,
    # the best at 0; the ends are local maxima
    K = box1d(-1.5, 1.5)
    fn = lambda X: 0.1 * X[:, 0] ** 2 - np.cos(2.0 * np.pi * X[:, 0])
    slope = lambda t: 0.2 * t + 2.0 * np.pi * np.sin(2.0 * np.pi * t)
    for cfg, minima in ((GlobalSolveConfig(), [-1.0, 0.0, 1.0]),
                        (GlobalSolveConfig(n_starts=1), [0.0])):
        seeds = P._seed_points(K, cfg)
        X3, F3 = P._brackets_1d(seeds, fn(seeds), cfg)
        np.testing.assert_allclose(X3[:, 1], minima, atol=0.01)
        assert np.all((slope(X3[:, 0]) < 0) & (slope(X3[:, 2]) > 0))
        assert np.all(F3[:, 1] <= np.minimum(F3[:, 0], F3[:, 2]))


# --- every benchmark solve has a gradient ------------------------------------------


def test_every_benchmark_global_solve_gets_a_gradient(tmp_path, monkeypatch):
    # the minimize and solve_ep job configs of one seed (``perfbench/jobs.py``,
    # loaded read-only): every problem of every global solve steps along a
    # gradient; BPPA's entropy subproblems and the value gap's certificate
    # were solved without one
    import sqopt.equilibrium as E

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("benchmark_jobs", root / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    solve, solves = P._global_min_impl, []

    def recorded(raw_fn, raw_grad, K, cfg, C, seed_centers=False):
        res = solve(raw_fn, raw_grad, K, cfg, C, seed_centers)
        solves.extend((job_id, raw_grad is not None, r.refine_iters) for r in res)
        return res

    monkeypatch.setattr(P, "_global_min_impl", recorded)
    monkeypatch.setattr(E, "_global_min_impl", recorded)
    for job in jobs.make_jobs("minimize", 31) + jobs.make_jobs("solve_ep", 31):
        job_id = job["id"]
        path = tmp_path / f"{job_id}.json"
        path.write_text(json.dumps(job["config"]))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([job["command"], "--config", str(path), "--out", str(tmp_path / job_id)])
        assert code == 0, job_id
    assert len(solves) > 700
    assert [job_id for job_id, has_grad, _ in solves if not has_grad] == []
    bppa = [n for job_id, _, n in solves if job_id == "bppa_gauss_well"]
    assert len(bppa) > 10 and statistics.median(bppa) <= 5
