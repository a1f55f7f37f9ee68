import contextlib
import dataclasses
import importlib.util
import io
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import grid_min_1d
from sqopt.functions import (
    BREGMAN_NAMES,
    CATALOG_NAMES,
    Objective,
    bifunction_catalog,
    bregman_catalog,
    catalog,
    combine_linear,
    combine_max,
    combine_scale,
    glt_example,
    value_gap,
)
from sqopt.geometry import Box, box1d
from sqopt import geometry, verify

QUAD_FRACTIONAL_KW = dict(
    A=np.eye(2), a=np.zeros(2), alpha=0.0,
    B=np.zeros((2, 2)), b=np.zeros(2), beta=1.0,
    K=Box(-np.ones(2), np.ones(2)), m=0.5, M=1.5,
)


def all_catalog_entries():
    return [
        catalog("abs_shift", a=-0.3, gamma=2.0),
        catalog("euclid_norm", n=2, gamma=1.0),
        catalog("neg_quad"),
        catalog("gauss_well", c=1.0, d=1.0, delta=1.0),
        catalog("sin_quad"),
        catalog("inv_gap"),
        catalog("root_quartic", k=1.0, c=2.0),
        catalog("power_norm", n=2, halfwidth=1.0),
        catalog("quad_fractional", **QUAD_FRACTIONAL_KW),
    ]


def test_catalog_names_complete():
    assert len(CATALOG_NAMES) == 9
    with pytest.raises(ValueError, match="unknown catalog"):
        catalog("nope")


def test_gauss_well_declared_modulus():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    assert h.modulus == pytest.approx(np.exp(-1.0))
    assert h.domain.lo[0] == -1.0 and h.domain.hi[0] == 1.0
    assert h.value([0.0]) == pytest.approx(0.0)
    h2 = catalog("gauss_well", c=0.0, d=2.0, delta=0.5)
    assert h2.modulus == pytest.approx(2.0 * np.exp(-0.25))


def test_euclid_norm_domain_inside_ball():
    h = catalog("euclid_norm", n=2, gamma=1.0)
    corner = np.array([h.domain.hi[0], h.domain.hi[1]])
    assert np.linalg.norm(corner) <= 1.0 + 1e-12
    assert h.known_min[1] == 0.0
    with pytest.raises(ValueError, match="inside the ball"):
        catalog("euclid_norm", n=2, gamma=1.0, halfwidth=0.9)


def test_sin_quad_entry():
    h = catalog("sin_quad")
    assert h.value([0.0]) == 0.0
    assert h.lip_grad == 8.0
    # certified frozen bound sits below the analytic infimum 2 + 6 min(sin u / u)
    assert h.modulus == pytest.approx(0.6965)
    assert h.modulus < 2.0 - 6.0 * 0.21723362821122166


def test_root_quartic_modulus_formula():
    h = catalog("root_quartic", k=1.0, c=2.0)
    assert h.modulus == pytest.approx(1.0 / (2.0 * 5.0**0.75))
    assert h.known_min[1] == pytest.approx(1.0)
    nod = catalog("root_quartic", k=0.0, c=1.0)
    assert nod.grad is None and nod.modulus == pytest.approx(0.5)


def test_power_norm_modulus_scales_with_radius():
    h1 = catalog("power_norm", n=2, halfwidth=1.0)
    h10 = catalog("power_norm", n=2, halfwidth=10.0)
    assert h1.modulus == pytest.approx(80.0**-0.25 * 2.0**-0.75)
    assert h10.modulus == pytest.approx(h1.modulus / 10.0**1.5)
    assert catalog("power_norm", n=2, halfwidth=1.0, alpha=0.3).modulus == 0.0


def test_inv_gap_shape():
    h = catalog("inv_gap")
    assert h.value([0.0]) == 0.0
    assert h.value([0.5]) == -2.0
    assert not h.lower_semicontinuous
    assert h.known_min is None


def test_quad_fractional_constructor_checks():
    h = catalog("quad_fractional", **QUAD_FRACTIONAL_KW)
    assert h.modulus == pytest.approx(1.0 / 1.5)
    assert h.value([1.0, 1.0]) == pytest.approx(1.0)
    bad = dict(QUAD_FRACTIONAL_KW, A=-np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        catalog("quad_fractional", **bad)
    bad = dict(QUAD_FRACTIONAL_KW, m=2.0, M=3.0)
    with pytest.raises(ValueError):
        catalog("quad_fractional", **bad)


def _peaked_denominator(c, M, n_check):
    """quad_fractional on [-1, 1]^2 with the concave denominator 10 - ||x - c||^2."""
    return dict(A=np.eye(2), a=np.zeros(2), alpha=1.0, B=-2.0 * np.eye(2), b=2.0 * c,
                beta=10.0 - c @ c, K=Box(-np.ones(2), np.ones(2)), m=1.0, M=M, n_check=n_check)


def _verdict(**kw):
    try:
        catalog("quad_fractional", **kw)
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.parametrize("n_check", [1, 16_384, 16_385, 100_000])
def test_quad_fractional_blocked_check_gives_the_one_shot_verdict(monkeypatch, n_check):
    # the denominator passes M = 11 everywhere; M = peak fails only at c, the
    # first point of the second block, so only n_check > 16,384 sees it
    block = geometry.BLOCK_ROWS
    S = Box(-np.ones(2), np.ones(2)).sample(seed=2024, m=100_000)
    c = S[block]
    peak = 10.0 - 0.5 * np.min(np.sum((np.delete(S, block, axis=0) - c) ** 2, axis=-1))
    blocked = [_verdict(**_peaked_denominator(c, M, n_check)) for M in (11.0, peak)]
    fails = n_check > block
    assert blocked == [None, "denominator leaves [m, M] on sampled points of K" if fails else None]
    monkeypatch.setattr(geometry, "BLOCK_ROWS", n_check)
    assert [_verdict(**_peaked_denominator(c, M, n_check)) for M in (11.0, peak)] == blocked


def _traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_constructor_checks_hold_one_block_at_a_time():
    # a one-shot draw of 10^6 points takes 48 MB in quad_fractional
    n = 1_000_000
    assert _traced_peak(lambda: catalog(
        "quad_fractional", **_peaked_denominator(np.zeros(2), 11.0, n))) < 4e6
    h = catalog("euclid_norm", n=2, gamma=1.0)
    assert _traced_peak(lambda: combine_linear(h, np.eye(2), h.domain, n_check=n)) < 4e6


@pytest.mark.parametrize("h", all_catalog_entries(), ids=lambda h: h.name.split("(")[0])
def test_gradients_match_finite_differences(h):
    if h.grad is None:
        pytest.skip("no analytic gradient")
    lo, hi = h.domain.bounding_box(radius=3.0)
    pts = lo + 0.1 * (hi - lo) + np.random.Generator(np.random.Philox(key=3)).random((100, h.dim)) * 0.8 * (hi - lo)
    rep = verify.grad_check(h, pts)
    assert rep.passed, rep.witnesses[:1]


@pytest.mark.parametrize("h", all_catalog_entries(), ids=lambda h: h.name.split("(")[0])
def test_known_min_is_sampled_minimum(h):
    if h.known_min is None:
        pytest.skip("no known minimizer")
    xbar, vbar = h.known_min
    S = h.domain.sample(seed=21, m=1000, radius=5.0 if not h.domain.is_bounded else None)
    assert h.value(xbar) == pytest.approx(vbar, abs=1e-12)
    assert np.all(h.value_many(S) >= vbar - 1e-10)


def test_combine_scale():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    same = combine_scale(h, 1.0)
    assert same.modulus == h.modulus
    two = combine_scale(h, 2.0)
    assert two.modulus == pytest.approx(2.0 * np.exp(-1.0))
    assert two.value([0.3]) == pytest.approx(2.0 * h.value([0.3]))
    rep = verify.check_sqc_sampled(two, n_triples=4000, seed=5)
    assert rep.passed
    est = verify.estimate_modulus(two, n_triples=4000, seed=6)
    assert est.estimate >= two.modulus - 1e-8
    with pytest.raises(ValueError):
        combine_scale(h, 0.0)


def test_combine_linear_identity_and_scaling():
    h = catalog("euclid_norm", n=2, gamma=1.0)
    ident = combine_linear(h, np.eye(2), h.domain)
    assert ident.modulus == pytest.approx(h.modulus)
    # A = 2 I on a domain shrunk so the range stays feasible: modulus 4 gamma,
    # matching the quadratic-form expansion <A^T A d, d> = 4 ||d||^2
    w = h.domain.hi[0] / 2.0
    small = Box(-w * np.ones(2), w * np.ones(2))
    scaled = combine_linear(h, 2.0 * np.eye(2), small)
    assert scaled.modulus == pytest.approx(4.0 * h.modulus)
    assert scaled.value([0.1, 0.2]) == pytest.approx(h.value([0.2, 0.4]))
    rep = verify.check_sqc_sampled(scaled, n_triples=4000, seed=7)
    assert rep.passed
    est = verify.estimate_modulus(scaled, n_triples=4000, seed=8)
    assert est.estimate >= scaled.modulus - 1e-8
    with pytest.raises(ValueError, match="sigma_min"):
        combine_linear(h, np.array([[1.0, 0.0], [1.0, 0.0]]), small)
    with pytest.raises(ValueError, match="does not map"):
        combine_linear(h, 10.0 * np.eye(2), h.domain)


def test_combine_max():
    g = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    s = Objective(name="sq", dim=1, domain=g.domain, modulus=2.0,
                  fn=lambda X: X[..., 0] ** 2)
    assert combine_max([g]) is g
    m = combine_max([g, s])
    assert m.modulus == pytest.approx(min(g.modulus, 2.0))
    assert m.value([0.9]) == pytest.approx(max(g.value([0.9]), 0.81))
    rep = verify.check_sqc_sampled(m, n_triples=4000, seed=9)
    assert rep.passed
    with pytest.raises(ValueError):
        combine_max([])
    with pytest.raises(ValueError, match="share"):
        combine_max([g, catalog("euclid_norm", n=2, gamma=1.0)])


def test_combine_max_grad_is_the_active_pieces_row_by_row():
    g = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    # 1 - exp(-t^2) is the larger near 0, 0.8 t^2 near the ends of [-1, 1]
    s = Objective(name="sq", dim=1, domain=g.domain, modulus=1.6,
                  fn=lambda X: 0.8 * X[..., 0] ** 2, grad=lambda X: 1.6 * X[..., :1])
    m = combine_max([g, s])
    assert m.grad is not None and not m.smooth and not m.differentiable
    X = _seeded_batch(g.domain, 200, seed=71)
    G = m.grad_many(X)
    assert _batch_equals_rows(m.grad, X)
    active = g.value_many(X) >= s.value_many(X)  # the first piece on a tie
    assert 0 < np.count_nonzero(active) < X.shape[0]
    np.testing.assert_array_equal(G, np.where(active[:, None], g.grad_many(X), s.grad_many(X)))
    # without a grad on every piece there is none
    assert combine_max([g, dataclasses.replace(s, grad=None)]).grad is None


def test_bregman_grad_divergence_is_the_gradient_difference():
    cube = Box(-np.ones(3), np.ones(3))
    Y, Xc = _seeded_batch(cube, 100, seed=72), _seeded_batch(cube, 100, seed=73)
    for name, shift in (("neg_entropy", 1.5), ("half_sq_norm", 0.0)):
        phi = bregman_catalog(name, dim=3, shift=shift)
        G = phi.grad_divergence(Y, Xc)
        np.testing.assert_allclose(G, phi.grad_phi(Y) - phi.grad_phi(Xc), rtol=0, atol=1e-15)
        assert all(np.array_equal(phi.grad_divergence(Y[i], Xc[i]), G[i]) for i in range(100))
        assert np.all(phi.grad_divergence(Xc, Xc) == 0.0)


def test_value_gap_bifunction():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    f = value_gap(h)
    assert f.gamma == h.modulus and f.eta == 0.0
    xs = h.domain.sample(seed=13, m=200)
    assert np.max(np.abs(f.fn(xs, xs))) == 0.0  # identical terms cancel exactly
    # telescoping: estimated eta is exactly zero
    rep = verify.estimate_eta(f, n_triples=3000, seed=14)
    assert rep.estimate == 0.0
    fy, gy = f.y_objective(xs[0])
    assert fy is h.fn and gy is h.grad  # shared callables keep prox steps identical


# every (p, q, box, n) that the tests, the README and the benchmark jobs build; then
# a box where many pairs' x-minima fall outside [lo, hi], and one with lo < 0
GLT_BOXES = [(2.0, 2.0, 0.0, 4.0, 1), (2.0, 2.0, 0.0, 4.0, 2), (3.0, 1.5, 0.0, 4.0, 3),
             (2.0, 5.0, 0.0, 10.0, 1), (2.0, 2.0, -3.0, 1.5, 1)]


@pytest.mark.parametrize("p, q, lo, hi, n", GLT_BOXES)
def test_glt_ratio_is_the_least_over_a_dense_x_grid(p, q, lo, hi, n):
    # in 1-D a subset of the (y1, y2, t) samples of _glt_constants (grid
    # pairs times every tenth t); above, the first Philox(11) triples
    from sqopt.functions import _glt_constants, _glt_ratios
    from sqopt.geometry import rng_for

    if n == 1:
        ys, ts = np.linspace(lo, hi, 101), np.linspace(0.01, 0.99, 61)
        Y1, Y2, t = (A.ravel() for A in np.meshgrid(ys[::7], ys[3::11], ts[::10], indexing="ij"))
        keep = Y1 != Y2
        Y1, Y2, t = Y1[keep, None], Y2[keep, None], t[keep]
        k = 4001
    else:
        rng = rng_for(11)
        Y1, Y2 = (lo + rng.random((40_000, n)) * (hi - lo) for _ in range(2))
        t = rng.random(40_000)
        m = 60 if n == 2 else 25
        Y1, Y2, t = Y1[:m], Y2[:m], t[:m]
        k = 201 if n == 2 else 41
    f = glt_example(p, q, n=n, K=Box(np.full(n, lo), np.full(n, hi)))
    axis = np.linspace(lo, hi, k)
    X = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    closed = _glt_ratios(p, q, lo, hi, Y1, Y2, t)
    assert closed.shape == t.shape
    u = Y1 - Y2
    scale = 2.0 / (t * (1 - t) * np.sum(u * u, axis=-1))  # ratio per unit of numerator
    brute = np.array([scale[i] * (np.maximum(f.fn(X, Y1[i]), f.fn(X, Y2[i]))
                                  - f.fn(X, t[i] * Y1[i] + (1 - t[i]) * Y2[i])).min()
                      for i in range(t.size)])
    # the numerator is 1-Lipschitz in s = x.u, and some grid point lies within
    # h/2 per axis of an x attaining the clipped s, so within h/2 ||u||_1 in s
    h = (hi - lo) / (k - 1)
    assert np.all(closed <= brute + 1e-11 * scale)
    assert np.all(brute - closed <= (0.5 * h * np.sum(np.abs(u), axis=-1) + 1e-11) * scale)
    assert _glt_constants(p, q, lo, hi, n)[0] <= max(0.9 * brute.min(), 0.0)


def test_glt_constants_in_one_dimension_are_unchanged_and_eta_is_one_half():
    from sqopt.functions import _glt_constants

    gammas = [_glt_constants(p, q, lo, hi, n)[0] for p, q, lo, hi, n in GLT_BOXES if n == 1]
    assert gammas == [0.22784376788091046, 0.12155186417649394, 0.0]
    for p, q, lo, hi, n in GLT_BOXES:
        assert glt_example(p, q, n=n, K=Box(np.full(n, lo), np.full(n, hi))).eta == 0.5


def test_glt_gamma_above_one_dimension_is_2p_where_the_parabola_covers_the_box():
    # n delta^2 - q = 16 >= (sqrt(2) 6)^(1/2) on [5, 6]^2: f(x, .) has Hessian 4 I there
    lo, hi = 5.0, 6.0
    f = glt_example(2, 2, n=2, K=Box(np.full(2, lo), np.full(2, hi)))
    assert f.gamma == 4.0

    def glt(X, y):  # f written out again, at every row x of X
        g = lambda U: np.maximum(np.sqrt(np.hypot(U[..., 0], U[..., 1])),
                                 (U[..., 0] - 2) ** 2 + (U[..., 1] - 2) ** 2 - 2)
        return 2 * (g(y) - g(X)) + X @ y - np.sum(X * X, axis=-1)

    # 200 triples, every other pair about 1e-2 apart, each least over a 201^2 grid of x
    rng = np.random.default_rng(5)
    Y1 = lo + rng.random((200, 2)) * (hi - lo)
    step = rng.standard_normal((200, 2)) * np.where(np.arange(200) % 2, 1e-2, 0.5)[:, None]
    Y2 = np.clip(Y1 + step, lo, hi)
    t = rng.uniform(0.05, 0.95, 200)
    axis = np.linspace(lo, hi, 201)
    X = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    least = min(2 * (np.maximum(glt(X, y1), glt(X, y2)) - glt(X, s * y1 + (1 - s) * y2)).min()
                / (s * (1 - s) * np.sum((y1 - y2) ** 2)) for y1, y2, s in zip(Y1, Y2, t))
    assert f.gamma <= least * (1 + 1e-9) and least < 4.01


# the four boxes on which the sampled gamma of earlier versions (0.0648, 0.2748,
# 0.0591, 0.4565) was above a ratio that a denser search found, and every n >= 2
# box that the other tests build
@pytest.mark.parametrize("p, q, lo, hi, n", [(2.0, 2.0, 1.0, 3.0, 2), (2.0, 2.0, 0.5, 1.5, 2),
                                             (2.0, 2.0, 2.0, 4.0, 2), (2.0, 2.0, 0.0, 1.0, 2)]
                         + [box for box in GLT_BOXES if box[-1] >= 2])
def test_glt_gamma_above_one_dimension_is_0_unless_the_parabola_covers_the_box(p, q, lo, hi, n):
    assert glt_example(p, q, n=n, K=Box(np.full(n, lo), np.full(n, hi))).gamma == 0.0


def test_glt_example_is_not_quasiconvex_in_y_in_two_dimensions():
    # a point between two y's lies above both, so the 2-D modulus is 0
    f = glt_example(2, 2, n=2)
    assert f.gamma == 0.0
    x = np.array([3.88813694, 0.11186306])
    y1, y2, t = np.array([0.36199571, 2.09970456]), np.array([0.45577555, 1.63627617]), 0.47696546

    def glt(x, y):  # f written out again, independently of the catalog
        g = lambda u: max(np.sqrt(np.hypot(*u)), (u[0] - 2) ** 2 + (u[1] - 2) ** 2 - 2)
        return 2 * (g(y) - g(x)) + float(np.dot(x, y - x))

    ym = t * y1 + (1 - t) * y2
    for fv in (f.value, glt):
        assert fv(x, ym) - max(fv(x, y1), fv(x, y2)) > 2.6e-3


@pytest.mark.parametrize("n", [1, 2])
def test_glt_a5_holds_with_the_exact_eta(n):
    from sqopt.verify import certify_ep

    for seed in (0, 1, 7, 31):
        rep = certify_ep(glt_example(2, 2, n=n), seed=seed)["A5"]
        assert rep.passed and rep.property == "a5(eta=0.5)", (n, seed)


def test_glt_example_basics():
    f = glt_example(2, 2)
    assert f.value([1.0], [1.0]) == 0.0
    assert f.gamma > 0.1 and f.eta == 0.5
    with pytest.raises(ValueError):
        glt_example(1, 2)
    rep = verify.check_a0(f, n_samples=300, seed=1)
    assert rep.passed
    a4 = verify.check_a4_sampled(f, n_triples=1500, seed=2)
    assert a4.passed
    mono = verify.check_pseudomonotone(f, n_pairs=1500, seed=3)
    assert mono.passed


def test_bifunction_catalog_dispatch():
    h = catalog("sin_quad")
    f = bifunction_catalog("value_gap", h=h)
    assert f.gamma == h.modulus
    g = bifunction_catalog("glt_example", p=2, q=2)
    assert g.dim == 1
    with pytest.raises(ValueError, match="unknown bifunction"):
        bifunction_catalog("mystery")


def test_bregman_half_sq_norm():
    phi = bregman_catalog("half_sq_norm", dim=2)
    x = np.array([0.3, -0.5])
    y = np.array([1.0, 0.25])
    assert phi.divergence(x, y) == pytest.approx(0.5 * np.sum((x - y) ** 2))
    assert phi.divergence(x, x) == 0.0


def test_bregman_neg_entropy():
    phi = bregman_catalog("neg_entropy", dim=1)
    # frozen from the formula: D(1, e) = 1 ln(1/e) - 1 + e = e - 2
    assert phi.divergence(np.array([1.0]), np.array([np.e])) == pytest.approx(np.e - 2.0)
    assert phi.divergence(np.array([0.7]), np.array([0.7])) == pytest.approx(0.0, abs=1e-15)
    assert not phi.zone_contains(np.array([-0.1]))
    shifted = bregman_catalog("neg_entropy", dim=1, shift=1.5)
    assert shifted.zone_contains(np.array([-1.0]))


def test_bregman_divergence_nonneg_zero_iff_equal():
    for name, shift in (("half_sq_norm", 0.0), ("neg_entropy", 0.0)):
        phi = bregman_catalog(name, dim=1, shift=shift)
        rng = np.random.Generator(np.random.Philox(key=17))
        X = 0.05 + rng.random((200, 1)) * 3.0
        y = np.array([1.3])
        D = phi.divergence_many(X, y)
        assert np.all(D >= -1e-12)
        far = np.linalg.norm(X - y, axis=-1) > 1e-6
        assert np.all(D[far] > 0.0)


# --- batch contract: a batch evaluates exactly like its rows one by one --------


def _seeded_batch(K, m, seed):
    return K.sample(seed=seed, m=m, radius=None if K.is_bounded else 3.0)


def bifunction_entries():
    gaps = [value_gap(h) for h in all_catalog_entries() if h.grad is not None]
    return gaps + [glt_example(2, 2), glt_example(2, 2, n=2), glt_example(3, 1.5, n=3)]


@pytest.mark.parametrize("h", [h for h in all_catalog_entries() if h.grad is not None],
                         ids=lambda h: h.name.split("(")[0])
def test_catalog_grad_batch_equals_row_by_row(h):
    X = _seeded_batch(h.domain, 300, seed=61)
    rows = np.stack([h.grad_at(x) for x in X])
    np.testing.assert_allclose(h.grad_many(X), rows, rtol=1e-12, atol=1e-15)


# the single-column gradients as they were written, with np.stack
STACK_GRADIENTS = {
    "neg_quad": (catalog("neg_quad"),
                 lambda X: np.stack([-2.0 * X[..., 0] - 1.0], axis=-1)),
    "gauss_well": (catalog("gauss_well", c=1.0, d=2.0, delta=1.0),
                   lambda X: np.stack([4.0 * X[..., 0] * np.exp(-(X[..., 0] ** 2))], axis=-1)),
    "sin_quad": (catalog("sin_quad"),
                 lambda X: np.stack([2.0 * X[..., 0] + 3.0 * np.sin(2.0 * X[..., 0])], axis=-1)),
    "root_quartic": (catalog("root_quartic", k=0.5, c=2.0),
                     lambda X: np.stack([X[..., 0] / (2.0 * (X[..., 0] ** 2 + 0.25) ** 0.75)],
                                        axis=-1)),
}


@pytest.mark.parametrize("name", sorted(STACK_GRADIENTS))
def test_single_column_gradients_equal_the_stack_form_bit_for_bit(name):
    h, ref = STACK_GRADIENTS[name]
    X = np.random.Generator(np.random.Philox(key=83)).uniform(-3.0, 3.0, size=(2000, 1))

    def same(a, b):
        return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
            a.view(np.int64), b.view(np.int64))

    assert same(h.grad(X), ref(X))  # many rows
    for x in X[:300]:
        assert same(h.grad(x), ref(x))  # a lone point
        assert same(h.grad(x[None]), ref(x[None]))  # a one-row batch


@pytest.mark.parametrize("f", bifunction_entries(), ids=lambda f: f.name)
def test_bifunction_y_gradients_batch_equal_row_by_row(f):
    Xs = _seeded_batch(f.domain, 4, seed=62)
    Y = _seeded_batch(f.domain, 300, seed=63)
    for x in Xs:
        G = f.partial_grad_y(x, Y)
        np.testing.assert_allclose(G, np.stack([f.partial_grad_y(x, y) for y in Y]),
                                   rtol=1e-12, atol=1e-15)
        _, gy = f.y_objective(x)
        Gy = gy(Y)
        np.testing.assert_allclose(Gy, np.stack([gy(y) for y in Y]), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(Gy, G, rtol=1e-12, atol=1e-15)


def test_glt_y_gradient_takes_each_rows_branch():
    # rows 0 and 2 sit on different branches of max(sqrt|u|, (u - q)^2 - q)
    _, gy = glt_example(2, 2).y_objective(np.array([1.0]))
    G = gy(np.array([[0.1], [3.5], [1.0]]))[:, 0]
    assert G == pytest.approx([-6.6, 1.0 + 1.0 / np.sqrt(3.5), 2.0], abs=1e-12)


def _paired_bifunction_entries():
    gaps = [value_gap(h) for h in all_catalog_entries() if h.name != "inv_gap"]
    return gaps + [glt_example(2, 2), glt_example(2, 2, n=2), glt_example(3, 1.5, n=3)]


@pytest.mark.parametrize("f", _paired_bifunction_entries(), ids=lambda f: f.name)
def test_bifunction_paired_rows_equal_one_x_calls(f):
    # fn(X, Y) and partial_grad_y(X, Y) pair row i of X with row i of Y; each
    # row gets exactly the bits of the call with the one row X[i] for all of Y
    X = _seeded_batch(f.domain, 40, seed=64)
    Y = _seeded_batch(f.domain, 40, seed=65)
    V = f.fn(X, Y)
    assert all(f.fn(X[i : i + 1], Y)[i] == V[i] for i in range(X.shape[0]))
    if f.partial_grad_y is not None:
        G = f.partial_grad_y(X, Y)
        assert all(np.array_equal(f.partial_grad_y(X[i : i + 1], Y)[i], G[i]) for i in range(X.shape[0]))


def _lone_point_cases():
    """``(id, lone, batch, args)``: each lone-point entry point, its batch form and rows."""
    cases = []
    for h in all_catalog_entries():
        X = _seeded_batch(h.domain, 2000, seed=74)
        cases.append((f"{h.name} value", h.value, h.value_many, (X,)))
        if h.grad is not None:
            cases.append((f"{h.name} grad_at", h.grad_at, h.grad_many, (X,)))
    gaps = [value_gap(h) for h in all_catalog_entries()]
    for f in gaps + [glt_example(2, 2), glt_example(2, 2, n=2), glt_example(3, 1.5, n=3)]:
        args = (_seeded_batch(f.domain, 2000, seed=75), _seeded_batch(f.domain, 2000, seed=76))
        cases.append((f"{f.name} value", f.value, f.fn, args))
    cube = Box(-np.ones(3), np.ones(3))
    for name in BREGMAN_NAMES:
        phi = bregman_catalog(name, dim=3, shift=1.5)
        args = (_seeded_batch(cube, 2000, seed=77), _seeded_batch(cube, 2000, seed=78))
        cases.append((f"{phi.name} divergence", phi.divergence, phi.divergence_many, args))
    return cases


@pytest.mark.parametrize("case", _lone_point_cases(), ids=lambda case: case[0])
def test_lone_point_entry_points_equal_their_batch_rows_bit_for_bit(case):
    # a lone point is a one-row batch; evaluated as a NumPy scalar, root_quartic
    # and power_norm rounded some points differently alone
    _, lone, batch, args = case
    alone = np.array([lone(*(A[i] for A in args)) for i in range(args[0].shape[0])])
    rows = np.asarray(batch(*args), dtype=float)
    assert alone.shape == rows.shape
    assert np.count_nonzero(alone.view(np.int64) != rows.view(np.int64)) == 0


def _quad_fractional_4d():
    # convex denominator (B positive semidefinite) over a nonpositive numerator;
    # four coordinates, since a 3-column matrix product happens to round rows alike
    rng = np.random.Generator(np.random.Philox(key=66))
    Q = rng.standard_normal((4, 4))
    A = np.eye(4) + 0.1 * (Q + Q.T)
    return catalog("quad_fractional", A=A, a=0.3 * rng.standard_normal(4), alpha=-10.0,
                   B=0.1 * (Q @ Q.T), b=0.2 * rng.standard_normal(4), beta=3.0,
                   K=Box(-np.ones(4), np.ones(4)), m=1.0, M=8.0)


def _batch_equals_rows(fn, X):
    B = fn(X)
    return all(np.array_equal(fn(X[i]), B[i]) for i in range(X.shape[0]))


def test_einsum_sites_batch_equal_row_by_row():
    # matrix products rounded a row differently inside a batch than alone
    h = _quad_fractional_4d()
    X = _seeded_batch(h.domain, 64, seed=67)
    assert _batch_equals_rows(h.fn, X) and _batch_equals_rows(h.grad, X)
    A = 0.2 * np.random.Generator(np.random.Philox(key=68)).uniform(-1.0, 1.0, (4, 5))
    hl = combine_linear(h, A, Box(-np.ones(5), np.ones(5)))
    X = _seeded_batch(hl.domain, 64, seed=68)
    assert _batch_equals_rows(hl.fn, X) and _batch_equals_rows(hl.grad, X)
    cube = Box(-np.ones(4), np.ones(4))
    for name, shift in (("neg_entropy", 1.5), ("half_sq_norm", 0.0)):
        phi = bregman_catalog(name, dim=4, shift=shift)
        Y = _seeded_batch(cube, 64, seed=69)
        x = np.array([0.3, -0.7, 0.45, 0.1])
        assert _batch_equals_rows(lambda Z: phi.divergence_many(Z, x), Y)
        # paired centers, as the stacked global solve passes them
        Xc = _seeded_batch(cube, 64, seed=70)
        D = phi.divergence_many(Y, Xc)
        assert all(phi.divergence_many(Y[i], Xc[i]) == D[i] for i in range(Y.shape[0]))


def test_benchmark_jobs_call_catalog_callables_with_rows_only(tmp_path, monkeypatch):
    # every job config of the three workloads of one seed (``perfbench/jobs.py``,
    # loaded read-only); at seed 31 they made 33,238 lone-point calls, 32,000
    # of them from the RK4 field of the dynamics job
    from sqopt import cli, harness

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("benchmark_jobs", root / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    lone = Counter()

    def rec(kind, fn):  # fn, counting each call with an argument that is not rows
        if fn is None:
            return None

        def recorded(*args):
            lone[kind] += any(np.ndim(a) != 2 for a in args)
            return fn(*args)

        return recorded

    def objective(h):
        return dataclasses.replace(h, fn=rec("fn", h.fn), grad=rec("grad", h.grad))

    def bifunction(f):
        def y_parts(x):  # a lone center, for callables that take rows
            fy, gy = f.y_parts(x)
            return rec("y_parts fn", fy), rec("y_parts grad", gy)

        return dataclasses.replace(f, fn=rec("bifunction fn", f.fn),
                                   partial_grad_y=rec("partial_grad_y", f.partial_grad_y),
                                   y_parts=y_parts if f.y_parts else None)

    def bregman(phi):
        return dataclasses.replace(phi, phi=rec("phi", phi.phi), grad_phi=rec("grad_phi", phi.grad_phi),
                                   grad_divergence=rec("grad_divergence", phi.grad_divergence))

    for name, wrap in (("catalog", objective), ("bifunction_catalog", bifunction),
                       ("bregman_catalog", bregman)):
        build = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, build=build, wrap=wrap, **kw: wrap(build(*a, **kw)))
    every_job = [job for workload in jobs.WORKLOADS for job in jobs.make_jobs(workload, 31)]
    assert len(every_job) == 38
    for job in every_job:
        path = tmp_path / f"{job['id']}.json"
        path.write_text(json.dumps(job["config"]))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([job["command"], "--config", str(path), "--out", str(tmp_path / job["id"])])
        assert code == 0, job["id"]
    assert sum(lone.values()) == 0, dict(lone)
