from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import abs_on_box, cubic_mix, half_quad, indefinite_quad, linear_on
from sqopt.functions import Bifunction, Objective, catalog, value_gap
from sqopt.geometry import Ball, Box, FullSpace, HalfspaceIntersection, box1d, rng_for
from sqopt import verify
from sqopt.verify import CheckReport


def test_report_invariants():
    with pytest.raises(ValueError):
        CheckReport("p", passed=True, samples=1, worst_margin=1.0, witnesses=[{"x": 0}])
    with pytest.raises(ValueError):
        CheckReport("p", passed=False, samples=1, worst_margin=-1.0, witnesses=[])
    rep = CheckReport("p", passed=False, samples=1, worst_margin=-1.0, witnesses=[{"x": 0}])
    assert not rep.passed


# --- strong quasiconvexity check -------------------------------------------


def test_sqc_euclid_passes():
    h = abs_on_box(1.0, 1.0)
    rep = verify.check_sqc_sampled(h, n_triples=10_000, seed=0)
    assert rep.passed and rep.samples == 10_000


def test_sqc_linear_small_gamma_holds_on_bounded_interval():
    # t on [0, 10] carries modulus up to 2/10; gamma = 0.01 cannot fail there
    h = linear_on(0.0, 10.0, 0.01)
    rep = verify.check_sqc_sampled(h, gamma=0.01, n_triples=10_000, seed=1)
    assert rep.passed


def test_sqc_linear_large_gamma_fails_with_witness():
    h = linear_on(0.0, 10.0, 0.5)
    rep = verify.check_sqc_sampled(h, gamma=0.5, n_triples=10_000, seed=2)
    assert not rep.passed
    assert rep.witnesses and len(rep.witnesses) <= 10
    w = rep.witnesses[0]
    assert w["slack"] < 0


def test_sqc_cubic_fails_for_any_gamma():
    h = cubic_mix()
    for gamma in (1e-6, 0.1, 1.0):
        rep = verify.check_sqc_sampled(h, gamma=gamma, n_triples=5000, seed=3)
        assert not rep.passed


def test_sqc_indefinite_quadratic_fails_every_gamma():
    h = indefinite_quad()
    for gamma in (1e-8, 1e-3, 0.1, 1.0, 10.0):
        rep = verify.check_sqc_sampled(h, gamma=gamma, n_triples=5000, seed=4, radius=3.0)
        assert not rep.passed


# --- modulus estimator ------------------------------------------------------


def test_estimate_modulus_constant_function():
    h = Objective(name="const", dim=1, domain=box1d(0, 1), modulus=0.0,
                  fn=lambda X: np.zeros_like(X[..., 0]))
    rep = verify.estimate_modulus(h, n_triples=2000, seed=5)
    assert rep.estimate == 0.0


def test_estimate_modulus_gauss_well_above_declared():
    h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
    rep = verify.estimate_modulus(h, n_triples=10_000, seed=6)
    assert rep.estimate >= np.exp(-1.0) - 1e-6


def test_estimate_modulus_neg_quad_matches_grid_oracle():
    # independent dense-grid oracle for the defining ratio
    h = catalog("neg_quad")
    ts = np.linspace(0.0, 1.0, 201)
    X, Y = np.meshgrid(ts, ts, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    keep = X != Y
    X, Y = X[keep], Y[keep]
    mx = np.maximum(h.fn(X[:, None]), h.fn(Y[:, None]))
    best = np.inf
    for t in np.linspace(0.01, 0.99, 99):
        mid = h.fn((t * X + (1 - t) * Y)[:, None])
        best = min(best, float(np.min(2.0 * (mx - mid) / (t * (1 - t) * (X - Y) ** 2))))
    assert best > 2.0  # grid ratios stay above the declared infimum 2
    rep = verify.estimate_modulus(h, n_triples=8000, seed=7)
    assert rep.estimate >= 2.0 - 1e-8  # declared modulus is a certified lower bound


def test_estimate_modulus_monotone_in_sample_size():
    h = catalog("sin_quad")
    small = verify.estimate_modulus(h, n_triples=2000, seed=8, radius=6.0)
    large = verify.estimate_modulus(h, n_triples=8000, seed=8, radius=6.0)
    assert large.estimate <= small.estimate + 1e-15


# the benchmark's verify_polytope modulus checks whose vertex pairs, one ulp
# apart, read 0.0 while every pair with d2 > 0 counted
@pytest.mark.parametrize("seed", [2110381203, 183155252])
def test_estimate_modulus_drops_pairs_that_differ_only_by_rounding(seed):
    h = catalog("euclid_norm", n=2, gamma=0.2)
    K = HalfspaceIntersection(np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 2.0]]),
                              np.array([-0.5, -0.2, -1.0, 4.0]))
    assert verify.estimate_modulus(h, K, 800, seed, 3.0).estimate > 0.5


# --- supercoercivity --------------------------------------------------------


def test_supercoercive_half_quad():
    rep = verify.check_supercoercive(half_quad(), radii=[10.0, 100.0, 1000.0])
    assert rep.passed
    assert rep.estimate == pytest.approx(0.5, rel=1e-9)


def test_supercoercive_linear_ray_fails():
    h = Objective(name="ray", dim=1,
                  domain=HalfspaceIntersection(np.array([[-1.0]]), np.array([0.0])),
                  modulus=0.0, fn=lambda X: X[..., 0])
    rep = verify.check_supercoercive(h, radii=[10.0, 100.0, 1000.0])
    assert not rep.passed


def test_supercoercive_sin_quad():
    rep = verify.check_supercoercive(catalog("sin_quad"), radii=[20.0, 200.0])
    assert rep.passed
    assert rep.estimate == pytest.approx(1.0, abs=1e-3)


def test_supercoercive_inapplicable_on_bounded_domain():
    with pytest.raises(ValueError, match="inapplicable"):
        verify.check_supercoercive(catalog("gauss_well", c=1, d=1, delta=1), radii=[10.0, 100.0])


# --- quadratic growth -------------------------------------------------------


def test_quadratic_growth_euclid():
    h = abs_on_box(1.0, 1.0)
    rep = verify.check_quadratic_growth(h, xbar=np.zeros(1), n_samples=1000, seed=9)
    assert rep.passed


def test_quadratic_growth_gauss_well():
    rep = verify.check_quadratic_growth(catalog("gauss_well", c=1, d=1, delta=1),
                                        n_samples=1000, seed=10)
    assert rep.passed


def test_quadratic_growth_offset_minimizer_fails():
    h = catalog("gauss_well", c=1, d=1, delta=1)
    rep = verify.check_quadratic_growth(h, xbar=np.array([0.5]), n_samples=1000, seed=11)
    assert not rep.passed and rep.witnesses


def test_quadratic_growth_xbar_outside_domain():
    with pytest.raises(ValueError, match="not in K"):
        verify.check_quadratic_growth(catalog("gauss_well", c=1, d=1, delta=1),
                                      xbar=np.array([2.0]))


# --- first-order characterization -------------------------------------------


def test_foc_sin_quad_passes_with_certified_modulus():
    h = catalog("sin_quad")
    rep = verify.check_foc(h, n_pairs=4000, seed=12, radius=6.0)
    assert rep.passed


def test_foc_linear_gamma_dependence():
    # gradient slope 1 on [0, 10]: the implication holds iff gamma <= 0.2
    ok = verify.check_foc(linear_on(0, 10, 0.1), gamma=0.1, n_pairs=4000, seed=13)
    assert ok.passed
    bad = verify.check_foc(linear_on(0, 10, 0.5), gamma=0.5, n_pairs=4000, seed=13)
    assert not bad.passed
    # frozen arithmetic at the extreme pair (0, 10): lhs 10 vs rhs 25
    assert 10.0 < 0.5 / 2.0 * 100.0


def test_foc_gamma_zero_degenerate_pass():
    rep = verify.check_foc(catalog("gauss_well", c=1, d=1, delta=1), gamma=0.0,
                           n_pairs=2000, seed=14)
    assert rep.passed


# --- Polyak-Lojasiewicz ------------------------------------------------------


def test_pl_half_quad():
    rep = verify.check_pl(half_quad(), n_samples=1000, seed=15, radius=5.0)
    assert rep.passed  # t^2 >= (1/2)(t^2/2)


def test_pl_sin_quad_certified():
    rep = verify.check_pl(catalog("sin_quad"), n_samples=1000, seed=16, radius=5.0)
    assert rep.passed


def test_pl_inflated_gamma_fails():
    rep = verify.check_pl(catalog("sin_quad"), gamma=10.0, n_samples=1000, seed=17, radius=5.0)
    assert not rep.passed and rep.witnesses


def test_pl_requires_lipschitz():
    h = catalog("gauss_well", c=1, d=1, delta=1)
    with pytest.raises(ValueError, match="Lipschitz"):
        verify.check_pl(h, lip=0.0)


# --- CFZ certificates --------------------------------------------------------


def test_cfz_sin_quad_at_one():
    h = catalog("sin_quad")
    cert = verify.check_cfz_at(h, xbar=np.array([1.0]), rho=0.5, n_samples=512)
    assert not cert.trivial and cert.report.passed
    g = h.grad_at(np.array([1.0]))
    assert np.allclose(cert.e, -g / np.linalg.norm(g))
    assert cert.alpha == pytest.approx(h.modulus / (2.0 * np.linalg.norm(g)))


def test_cfz_trivial_at_minimizer():
    cert = verify.check_cfz_at(catalog("sin_quad"), xbar=np.zeros(1), rho=0.5)
    assert cert.trivial and cert.report.passed


def test_cfz_linear_ray_certificate():
    # h(x) = x on [0, inf) is not strongly quasiconvex, yet at xbar = 1 the
    # local certificate with alpha = 2/xbar = 2 (declared modulus 4) passes
    # for radii up to 1/2.
    h = Objective(
        name="ray", dim=1,
        domain=HalfspaceIntersection(np.array([[-1.0]]), np.array([0.0])),
        modulus=4.0,
        fn=lambda X: X[..., 0],
        grad=lambda X: np.ones_like(X[..., :1]),
    )
    cert = verify.check_cfz_at(h, xbar=np.array([1.0]), rho=0.4, n_samples=512)
    assert cert.report.passed
    assert cert.alpha == pytest.approx(2.0)
    assert cert.e[0] == pytest.approx(-1.0)


def test_cfz_never_fails_where_sqc_passed():
    for h, radius in ((catalog("gauss_well", c=1, d=1, delta=1), None),
                      (catalog("sin_quad"), 4.0)):
        assert verify.check_sqc_sampled(h, n_triples=4000, seed=18, radius=radius).passed
        for x in (0.3, -0.7):
            cert = verify.check_cfz_at(h, xbar=np.array([x]), rho=0.5, n_samples=256)
            assert cert.report.passed


# --- strong subdifferential membership --------------------------------------


def test_subdiff_inv_gap_interval():
    # extended to the line by +inf, the strong subdifferential at 0 is
    # (-inf, -beta/2]; with beta = gamma = 1, z = -0.6 is in and z = 0 is out
    h = catalog("inv_gap")
    ok = verify.subdiff_member(h, xbar=np.zeros(1), z=np.array([-0.6]),
                               beta=1.0, gamma=1.0, n_samples=300, seed=19)
    assert ok.passed
    bad = verify.subdiff_member(h, xbar=np.zeros(1), z=np.array([0.0]),
                                beta=1.0, gamma=1.0, n_samples=300, seed=19)
    assert not bad.passed
    w = bad.witnesses[0]
    assert w["t"] > 0.0 and w["slack"] < 0.0
    boundary = verify.subdiff_member(h, xbar=np.zeros(1), z=np.array([-0.5]),
                                     beta=1.0, gamma=1.0, n_samples=300, seed=19)
    assert boundary.passed


def test_subdiff_gradient_membership_sublevel():
    h = catalog("sin_quad")
    for x in (0.5, 2.0, -1.3):
        rep = verify.subdiff_member(h, xbar=np.array([x]), z=h.grad_at(np.array([x])),
                                    beta=1.0, n_samples=400, seed=20, radius=6.0,
                                    sublevel_only=True)
        assert rep.passed, rep.witnesses[:1]


def test_subdiff_t_grid_includes_endpoints():
    # t = 1 is the binding parameter for the inv_gap counterexample above;
    # construct a z that only violates at t = 1 to pin the closed grid
    h = abs_on_box(1.0, 1.0)
    rep = verify.subdiff_member(h, xbar=np.zeros(1), z=np.array([0.0]),
                                beta=1.0, gamma=1.0, n_samples=200, seed=21)
    assert rep.passed  # 0 is a valid strong subgradient of |t| at 0


# --- bifunction checks -------------------------------------------------------


def test_estimate_eta_value_gap_zero():
    f = value_gap(catalog("gauss_well", c=1, d=1, delta=1))
    rep = verify.estimate_eta(f, n_triples=4000, seed=22)
    assert rep.estimate == 0.0


def test_estimate_eta_squared_difference():
    # f(x,y) = (y-x)^2: the three-point ratio is 2ab/(a^2+b^2) <= 1
    from sqopt.functions import Bifunction

    f = Bifunction(name="sqdiff", dim=1, domain=box1d(0, 4),
                   fn=lambda X, Y: (np.asarray(Y)[..., 0] - np.asarray(X)[..., 0]) ** 2,
                   gamma=2.0, eta=1.0)
    rep = verify.estimate_eta(f, n_triples=8000, seed=23)
    assert 0.9 <= rep.estimate <= 1.0 + 1e-12


def test_estimate_eta_glt_positive_finite():
    from sqopt.functions import glt_example

    f = glt_example(2, 2)
    rep = verify.estimate_eta(f, n_triples=8000, seed=24)
    assert 0.0 < rep.estimate <= f.eta + 1e-8


def test_pseudomonotone_value_gap_and_linear():
    from sqopt.functions import Bifunction

    f = value_gap(catalog("gauss_well", c=1, d=1, delta=1))
    assert verify.check_pseudomonotone(f, n_pairs=2000, seed=25).passed
    g = Bifunction(name="lin", dim=2, domain=Ball(np.zeros(2), 1.0),
                   fn=lambda X, Y: np.einsum("...i,...i->...", np.asarray(X),
                                             np.asarray(Y) - np.asarray(X)),
                   gamma=0.0, eta=0.5)
    assert verify.check_pseudomonotone(g, n_pairs=2000, seed=26).passed


def test_pseudomonotone_shifted_gap_fails():
    from sqopt.functions import Bifunction

    h = catalog("gauss_well", c=1, d=1, delta=1)
    f = Bifunction(name="shifted", dim=1, domain=h.domain,
                   fn=lambda X, Y: h.fn(np.asarray(Y)) - h.fn(np.asarray(X)) + 1.0,
                   gamma=h.modulus, eta=0.0)
    assert not verify.check_a0(f, n_samples=200, seed=27).passed
    rep = verify.check_pseudomonotone(f, n_pairs=2000, seed=27)
    assert not rep.passed  # diagonal pairs witness f(x,x) = 1 > 0 both ways


# --- gradient validation ------------------------------------------------------


def test_grad_check_sin_quad_origin():
    rep = verify.grad_check(catalog("sin_quad"), np.zeros((1, 1)))
    assert rep.passed and rep.estimate <= 1e-8


def _grad_check_loop(h, P):
    """The relative errors of the per-point, per-coordinate loop grad_check ran."""
    rels = []
    for x in P:
        step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        fd = np.empty_like(x)
        for j in range(x.shape[0]):
            e = np.zeros_like(x)
            e[j] = step
            fd[j] = (h.value(x + e) - h.value(x - e)) / (2.0 * step)
        g = h.grad_at(x)
        rels.append(float(np.linalg.norm(fd - g) / (1.0 + np.linalg.norm(g))))
    return np.array(rels)


@pytest.mark.parametrize("h", [catalog("gauss_well"), catalog("root_quartic", k=1.0, c=2.0),
                               catalog("power_norm", n=2), catalog("euclid_norm", n=3)],
                         ids=lambda h: h.name.split("(")[0])
def test_grad_check_batch_equals_the_per_point_loop(h):
    # in 1-D each point's error is the loop's bit for bit; above it the norms
    # are row sums, not dot products, and a step one ulp off moves a
    # difference quotient by about eps |h| / step, well below 1e-9
    P = h.domain.sample(seed=79, m=300)
    ref = _grad_check_loop(h, P)
    rep = verify.grad_check(h, P)
    rels = np.array([verify.grad_check(h, P[i : i + 1]).estimate for i in range(P.shape[0])])
    assert rep.passed == (ref.max() <= verify.GRAD_RTOL) and rep.estimate == rels.max()
    if h.dim == 1:
        assert np.array_equal(rels, ref)
    else:
        np.testing.assert_allclose(rels, ref, rtol=0.0, atol=1e-9)


def test_grad_check_negative_control():
    h = Objective(name="wrong", dim=1, domain=box1d(-1, 1), modulus=0.0,
                  fn=lambda X: X[..., 0] ** 2,
                  grad=lambda X: np.stack([2.0 * X[..., 0] + 0.1], axis=-1))
    rep = verify.grad_check(h, np.array([[0.3], [0.5]]))
    assert not rep.passed and rep.witnesses


# --- row blocks ---------------------------------------------------------------


def _sq_norm(d: int) -> Objective:
    """||x||^2 on [-1, 1]^d: smooth, modulus 2, minimizer 0."""
    return Objective(name="sq_norm", dim=d, domain=Box(-np.ones(d), np.ones(d)), modulus=2.0,
                     fn=lambda X: np.einsum("...i,...i->...", X, X), grad=lambda X: 2.0 * X,
                     lip_grad=2.0, known_min=(np.zeros(d), 0.0))


def _sampled_checks():
    """(id, call(n)) for every check that reads its samples in blocks.

    Several fail: sqc with an overstated gamma, whose witnesses come from
    many blocks, and a0 of a shifted gap, whose violations all tie, so the
    first rows must win.
    """
    from sqopt.equilibrium import check_minty
    from sqopt.functions import Bifunction, glt_example

    gw = catalog("gauss_well", c=1, d=1, delta=1)
    pn3 = catalog("power_norm", n=3, halfwidth=1.0)
    sq2 = _sq_norm(2)
    line = linear_on(0.0, 10.0, 0.5)
    glt = glt_example(2, 2)
    shifted = Bifunction(name="shifted", dim=1, domain=gw.domain,
                         fn=lambda X, Y: gw.fn(np.asarray(Y)) - gw.fn(np.asarray(X)) + 1.0,
                         gamma=gw.modulus, eta=0.0)
    return [
        ("sqc", lambda n: verify.check_sqc_sampled(pn3, n_triples=n, seed=1)),
        ("sqc_overstated", lambda n: verify.check_sqc_sampled(line, gamma=0.5, n_triples=n, seed=2)),
        ("modulus", lambda n: verify.estimate_modulus(pn3, n_triples=n, seed=3)),
        ("growth", lambda n: verify.check_quadratic_growth(sq2, gamma=20.0, n_samples=n, seed=4)),
        ("foc", lambda n: verify.check_foc(gw, n_pairs=n, seed=5)),
        ("pl", lambda n: verify.check_pl(sq2, n_samples=n, seed=6)),
        ("cfz", lambda n: verify.check_cfz_at(sq2, np.array([0.5, 0.2]), 0.5, n_samples=n,
                                              seed=7)),
        ("cfz_fails", lambda n: verify.check_cfz_at(replace(sq2, modulus=50.0),
                                                    np.array([0.5, 0.2]), 0.5, n_samples=n, seed=7)),
        ("subdiff", lambda n: verify.subdiff_member(sq2, xbar=np.array([0.5, 0.2]),
                                                    z=np.array([3.0, 0.0]), n_samples=n, seed=8)),
        ("subdiff_sublevel", lambda n: verify.subdiff_member(
            sq2, xbar=np.array([0.5, 0.2]), z=np.array([1.0, 0.4]), n_samples=n, seed=9,
            sublevel_only=True)),
        ("a0_ties", lambda n: verify.check_a0(shifted, n_samples=n, seed=10)),
        ("pseudomonotone_fails", lambda n: verify.check_pseudomonotone(shifted, n_pairs=n,
                                                                       seed=11)),
        ("pseudomonotone", lambda n: verify.check_pseudomonotone(glt, n_pairs=n, seed=12)),
        ("eta", lambda n: verify.estimate_eta(glt, n_triples=n, seed=13)),
        ("a4", lambda n: verify.check_a4_sampled(glt, n_x=2, n_triples=n, seed=14)),
        ("minty", lambda n: check_minty(glt, glt.domain, np.array([0.5]), n_samples=n,
                                        seed=15)),
    ]


@pytest.mark.parametrize("block", [verify.BLOCK_ROWS, 100])
@pytest.mark.parametrize("name, call", _sampled_checks(), ids=lambda v: v if isinstance(v, str) else "")
def test_blocked_check_equals_one_block(monkeypatch, block, name, call):
    n = 2 * block + 37
    monkeypatch.setattr(verify, "BLOCK_ROWS", block)
    blocked = call(n)
    monkeypatch.setattr(verify, "BLOCK_ROWS", n)
    whole = call(n)
    if isinstance(whole, verify.CfzCertificate):
        assert np.array_equal(blocked.e, whole.e) and blocked.alpha == whole.alpha
        blocked, whole = blocked.report, whole.report
    assert asdict(blocked) == asdict(whole)
    assert blocked.samples > 0
    if name == "a0_ties":  # f(x, x) = 1 everywhere: the first rows are the witnesses
        first = -1.0 + 2.0 * rng_for(10).random((verify.WITNESS_CAP, 1))
        assert [w["x"] for w in whole.witnesses] == first.tolist()


def test_overstated_sqc_witnesses_come_from_several_blocks(monkeypatch):
    block = 100
    n = 2 * block + 37
    monkeypatch.setattr(verify, "BLOCK_ROWS", block)
    h = linear_on(0.0, 10.0, 0.5)
    rep = verify.check_sqc_sampled(h, gamma=0.5, n_triples=n, seed=2)
    assert not rep.passed and len(rep.witnesses) == verify.WITNESS_CAP
    X = 10.0 * rng_for(2).random((n, 3))[:, 0]
    rows = [int(np.nonzero(X == w["x"][0])[0][0]) for w in rep.witnesses]
    assert len({r // block for r in rows}) > 1


def test_a4_witnesses_are_the_worst_of_all_slices_with_their_slice_point():
    # f(x, y) = -(1 + 9x)(y - 1/2)^2 is concave in y, more steeply the larger
    # x is: every slice fails, and its worst violations lie in the slices of
    # large x, not in the first ones
    f = Bifunction(name="concave", dim=1, domain=box1d(0.0, 1.0), gamma=1.0, eta=0.0,
                   fn=lambda X, Y: -(1.0 + 9.0 * np.asarray(X)[..., 0])
                   * (np.asarray(Y)[..., 0] - 0.5) ** 2)
    rep = verify.check_a4_sampled(f, n_triples=500, seed=3)
    Xs = f.domain.sample(3 + 101, 8)
    slices = [verify.check_sqc_sampled(
        Objective(name=f"slice{j}", dim=1, domain=f.domain, modulus=1.0,
                  fn=lambda Y, x=x: f.fn(x, Y)), n_triples=500, seed=3 + j)
        for j, x in enumerate(Xs)]
    assert rep.samples == 8 * 500 and not rep.passed
    assert rep.worst_margin == min(s.worst_margin for s in slices)

    def margin(x, w):  # check_sqc_sampled's normalized margin of a witness
        y0, y1, t = np.array(w["x"]), np.array(w["y"]), w["t"]
        v = f.fn(x, np.stack([y0, y1, t * y1 + (1.0 - t) * y0]))
        return w["slack"] / (1.0 + max(abs(max(v[0], v[1])), abs(v[2])))

    # each slice's witnesses are its own worst; the report's are the worst of
    # their union, ties to the earlier slice, each with its slice point
    pool = sorted((margin(x, w), j, k, {"x_slice": x.tolist(), **w})
                  for j, (x, s) in enumerate(zip(Xs, slices)) for k, w in enumerate(s.witnesses))
    assert rep.witnesses == [w for *_, w in pool[: verify.WITNESS_CAP]]
    worst = int(np.argmin([s.worst_margin for s in slices]))
    assert worst > 0 and rep.witnesses[0]["x_slice"] == Xs[worst].tolist()


@pytest.mark.parametrize("d", [2, 3])
def test_cfz_and_subdiff_margins_are_a_prefix(monkeypatch, d):
    # the first k rows of an n-row call get the margins of a k-row call.  A
    # matrix-vector product (``@``) may round a row by where its array sits in
    # memory; small k put the rows at other alignments than the n-row call
    n = 20_000
    monkeypatch.setattr(verify, "BLOCK_ROWS", n)
    h = _sq_norm(d)
    xbar = np.linspace(0.5, 0.1, d)
    z = np.linspace(1.0, 0.3, d)
    runs = {"cfz": lambda m: verify.check_cfz_at(h, xbar, 0.7, n_samples=m, seed=3),
            "subdiff": lambda m: verify.subdiff_member(h, xbar=xbar, z=z, n_samples=m, seed=4)}
    seen = []
    real_add = verify._Fold.add
    monkeypatch.setattr(verify._Fold, "add", lambda self, margins, *rest:
                        seen.append(margins.copy()) or real_add(self, margins, *rest))
    for name, run in runs.items():
        seen.clear()
        run(n)
        (big,) = seen
        for k in (*range(1, 41), 2_000):
            seen.clear()
            run(k)
            small = seen[0] if seen else np.empty(0)
            assert np.array_equal(big[: small.size], small), (name, k)


def test_sqc_memory_is_flat_in_n():
    import tracemalloc

    h = catalog("power_norm", n=3, halfwidth=1.0)
    peaks = []
    for n in (50_000, 400_000):
        tracemalloc.start()
        verify.check_sqc_sampled(h, n_triples=n, seed=5)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
