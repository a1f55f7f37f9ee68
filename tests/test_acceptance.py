"""Acceptance gate: ten desk-scale criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from conftest import cubic_mix, default_rippa_params, indefinite_quad, linear_on
from sqopt import equilibrium as ep
from sqopt import verify
from sqopt.dynamics import integrate_ds1, integrate_ds2
from sqopt.functions import catalog, glt_example, value_gap
from sqopt.geometry import Box
from sqopt.harness import fit_rate, run_from_config, sweep_compare
from sqopt.minimize import (
    MinParams,
    Schedule,
    run_bppa,
    run_gradient,
    run_heavy_ball,
    run_ppa,
    run_rippa,
    run_subgradient,
)
from sqopt.prox import GlobalSolveConfig, global_min, prox
from conftest import half_quad

QUAD_FRACTIONAL_KW = dict(
    A=np.eye(2), a=np.zeros(2), alpha=0.0,
    B=np.zeros((2, 2)), b=np.zeros(2), beta=1.0,
    K=Box(-np.ones(2), np.ones(2)), m=0.5, M=1.5,
)

# (objective, sampling radius for unbounded domains)
CATALOG_WITH_RADII = [
    (catalog("abs_shift", a=-0.3, gamma=2.0), None),
    (catalog("euclid_norm", n=2, gamma=1.0), None),
    (catalog("neg_quad"), None),
    (catalog("gauss_well", c=1.0, d=1.0, delta=1.0), None),
    (catalog("sin_quad"), 8.0),
    (catalog("inv_gap"), None),
    (catalog("root_quartic", k=1.0, c=2.0), None),
    (catalog("power_norm", n=2, halfwidth=1.0), None),
    (catalog("quad_fractional", **QUAD_FRACTIONAL_KW), None),
]


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --------------------------------------------------------------------------


def test_criterion_01_catalog_certification():
    failures = []
    for h, radius in CATALOG_WITH_RADII:
        t0 = time.perf_counter()
        rep = verify.check_sqc_sampled(h, n_triples=10_000, seed=1, radius=radius)
        elapsed = time.perf_counter() - t0
        if not rep.passed:
            failures.append(f"{h.name}: margin {rep.worst_margin:.2e}")
        if elapsed > 5.0:
            failures.append(f"{h.name}: took {elapsed:.1f}s")
    negatives = [
        ("linear gamma=0.5", verify.check_sqc_sampled(linear_on(0, 10, 0.5),
                                                      gamma=0.5, n_triples=10_000, seed=2)),
        ("cubic", verify.check_sqc_sampled(cubic_mix(), gamma=0.3,
                                           n_triples=10_000, seed=3)),
        ("indefinite quad g=0.1", verify.check_sqc_sampled(indefinite_quad(), gamma=0.1,
                                                           n_triples=10_000, seed=4, radius=3.0)),
        ("indefinite quad g=1", verify.check_sqc_sampled(indefinite_quad(), gamma=1.0,
                                                         n_triples=10_000, seed=5, radius=3.0)),
    ]
    for name, rep in negatives:
        if rep.passed or not rep.witnesses:
            failures.append(f"negative control {name} did not fail with witnesses")
    report(1, not failures,
           f"9 catalog entries certified at 1e-8 on 10^4 triples; "
           f"negative controls witnessed ({'; '.join(failures) or 'no failures'})")


def test_criterion_02_gauss_well_modulus_bound():
    rep = verify.estimate_modulus(catalog("gauss_well", c=1.0, d=1.0, delta=1.0),
                                  n_triples=10_000, seed=6)
    ok = rep.estimate >= np.exp(-1.0) - 1e-6
    report(2, ok, f"estimate {rep.estimate:.5f} >= e^-1 - 1e-6 = {np.exp(-1.0) - 1e-6:.5f}")


# --------------------------------------------------------------------------


def _runs_for(problem_name):
    """Guarded configurations per problem: (label, callable(x0) -> trace)."""
    if problem_name == "power_norm":
        h = catalog("power_norm", n=2, halfwidth=1.0)
        c = Schedule.constant(0.5)
        rippa = default_rippa_params(alpha_target=0.0, rho_lo=0.3, c=c)
        return h, None, {
            "PPA": lambda x0: run_ppa(h, None, MinParams(c=c), x0),
            "RIPPA": lambda x0: run_rippa(h, None, rippa, x0),
            "BPPA": lambda x0: run_bppa(h, None, "half_sq_norm", MinParams(c=c), x0),
        }
    if problem_name == "gauss_well":
        h = catalog("gauss_well", c=1.0, d=1.0, delta=1.0)
        c = Schedule.constant(0.5)
        rippa = default_rippa_params(alpha_target=0.0, rho_lo=0.3, c=c)
        return h, None, {
            "PPA": lambda x0: run_ppa(h, None, MinParams(c=c), x0),
            "RIPPA": lambda x0: run_rippa(h, None, rippa, x0),
            "BPPA": lambda x0: run_bppa(h, None, "half_sq_norm", MinParams(c=c), x0),
            "SUBGRAD": lambda x0: run_subgradient(
                h, None, MinParams(variant="SUBGRAD", steps=Schedule.inv_k(2.0),
                                   max_iters=20_000), x0),
            "GRAD": lambda x0: run_gradient(
                h, MinParams(variant="GRAD", steps=Schedule.constant(0.05),
                             max_iters=20_000), x0),
            "HEAVY_BALL": lambda x0: run_heavy_ball(
                h, MinParams(variant="HEAVY_BALL", theta=0.5, hb_eta=0.55,
                             max_iters=20_000), x0),
        }
    h = catalog("sin_quad")
    c = Schedule.constant(0.8)
    rippa = default_rippa_params(alpha_target=0.15, rho_lo=0.2, c=c, search_radius=6.0)
    return h, 3.0, {
        "PPA": lambda x0: run_ppa(h, None, MinParams(c=c, search_radius=6.0), x0),
        "RIPPA": lambda x0: run_rippa(h, None, rippa, x0),
        "BPPA": lambda x0: run_bppa(h, None, "half_sq_norm",
                                    MinParams(c=c, search_radius=6.0), x0),
        "SUBGRAD": lambda x0: run_subgradient(
            h, None, MinParams(variant="SUBGRAD", steps=Schedule.inv_k(0.8),
                               max_iters=20_000, search_radius=6.0), x0),
        "GRAD": lambda x0: run_gradient(
            h, MinParams(variant="GRAD", steps=Schedule.constant(0.01),
                         max_iters=20_000), x0),
        "HEAVY_BALL": lambda x0: run_heavy_ball(
            h, MinParams(variant="HEAVY_BALL", theta=0.5, hb_eta=0.3,
                         max_iters=20_000), x0),
    }


def test_criterion_03_unique_minimizer_cross_check():
    failures = []
    for problem in ("power_norm", "gauss_well", "sin_quad"):
        h, radius, runners = _runs_for(problem)
        oracle = global_min(h, cfg=GlobalSolveConfig(search_radius=6.0)
                            if not h.domain.is_bounded else None).point
        starts = h.domain.sample(seed=33, m=5, radius=radius)
        for label, runner in runners.items():
            for i, x0 in enumerate(starts):
                tr = runner(x0)
                if not tr.guarded:
                    failures.append(f"{problem}/{label}[{i}] unguarded: {tr.guard_notes}")
                    continue
                dist = float(np.linalg.norm(tr.final_point - oracle))
                if dist > 1e-4:
                    failures.append(f"{problem}/{label}[{i}] dist {dist:.2e}")
    report(3, not failures,
           f"PPA/RIPPA/BPPA (+SUBGRAD/GRAD/HEAVY_BALL where differentiable) x 5 starts "
           f"all within 1e-4 of the oracle minimizer ({'; '.join(failures[:4]) or 'no failures'})")


def test_criterion_04_linear_rate_evidence():
    h = catalog("power_norm", n=2, halfwidth=10.0)
    p = MinParams(c=Schedule.constant(0.5), stop_tol=1e-8, max_iters=200)
    tr = run_ppa(h, None, p, np.array([7.0, -6.0]))
    reached = np.linalg.norm(tr.final_point) <= 1e-6 and tr.iterations <= 200
    fit = fit_rate(np.arange(tr.iterates.shape[0]), np.linalg.norm(tr.iterates, axis=-1),
                   window=0.1)
    ok = reached and fit.q is not None and fit.q < 1.0 and fit.r_squared >= 0.9
    report(4, ok,
           f"PPA c=0.5 reached ||x||<=1e-6 in {tr.iterations} iters; "
           f"q={fit.q:.3f}, R^2={fit.r_squared:.3f}")


def test_criterion_05_prox_subdifferential_inclusion():
    cfg = GlobalSolveConfig(grid_density=4001)
    failures = []
    worst = np.inf
    for h, radius in CATALOG_WITH_RADII:
        rng = np.random.Generator(np.random.Philox(key=55))
        X = h.domain.sample(seed=56, m=50, radius=radius)
        betas = 0.1 + 0.9 * rng.random(50)
        for i in range(50):
            c = GlobalSolveConfig(grid_density=4001, search_radius=radius) if radius else cfg
            pr = prox(h, None, float(betas[i]), X[i], c)
            rep = verify.subdiff_member(
                h, xbar=pr.point, z=X[i] - pr.point, beta=float(betas[i]),
                n_samples=120, seed=i, radius=radius)
            worst = min(worst, rep.worst_margin)
            if not rep.passed:
                failures.append(f"{h.name}[{i}]: margin {rep.worst_margin:.2e}")
    report(5, not failures,
           f"50 prox displacements per entry are strong subgradients at 1e-8 "
           f"(worst margin {worst:.2e}; {'; '.join(failures[:3]) or 'no violations'})")


def test_criterion_06_dynamics_accuracy():
    hq = half_quad()
    traj = integrate_ds1(hq, None, np.array([1.0]), T=5.0, dt=1e-3)
    acc = float(np.max(np.abs(traj.states[:, 0] - np.exp(-traj.times))))
    e1 = abs(integrate_ds1(hq, None, np.array([1.0]), T=5.0, dt=4e-2).states[-1, 0]
             - np.exp(-5.0))
    e2 = abs(integrate_ds1(hq, None, np.array([1.0]), T=5.0, dt=2e-2).states[-1, 0]
             - np.exp(-5.0))
    halving = e1 / e2
    traj2 = integrate_ds2(hq, 0.0, np.array([1.0]), np.array([0.0]), T=10.0, dt=1e-3)
    energy = 0.5 * traj2.velocities[:, 0] ** 2 + traj2.values
    drift = float(np.max(np.abs(energy - energy[0])))
    ok = acc <= 1e-4 and halving >= 8.0 and drift <= 1e-6
    report(6, ok,
           f"DS1 error {acc:.1e} <= 1e-4; halving ratio {halving:.1f} >= 8; "
           f"energy drift {drift:.1e} <= 1e-6")


# --------------------------------------------------------------------------


def _sqrt_norm_grad(z, x):
    n = np.linalg.norm(x)
    if n == 0.0:
        return np.zeros_like(x)
    return x / (2.0 * n**1.5)


def _ep_suite_value_gap():
    h = catalog("power_norm", n=2, halfwidth=1.0)
    f = value_gap(h)
    K = f.domain
    beta = Schedule.constant(6.0)
    x0 = np.array([0.9, -0.7])
    eg = dict(beta=beta, steps=Schedule.inv_k(0.5), stop_tol=5e-4, max_iters=4000)
    runs = {
        "RIPPA_EP": ep.run_rippa_ep(f, K, ep.EpParams(beta=beta, stop_tol=1e-8), x0),
        "REG_EP": ep.run_reg_ep(f, K, ep.EpParams(beta=beta, stop_tol=1e-8), x0),
        "IEPPA_EP": ep.run_ieppa_ep(f, K, ep.EpParams(beta=beta, alpha=0.1,
                                                      stop_tol=1e-8), x0),
        "TWO_PPA_EP": ep.run_2ppa_ep(f, K, ep.EpParams(beta=beta, epsilon=0.05,
                                                       stop_tol=1e-8), x0),
        "EG_EP": ep.run_eg_ep(f, K, ep.EpParams(**eg), x0, oracle=_sqrt_norm_grad),
        "PEG_EP": ep.run_peg_ep(f, K, ep.EpParams(**eg), x0, oracle=_sqrt_norm_grad),
    }
    # grid oracle: dense argmin of h over the box (value-gap solution = argmin h)
    lo, hi = K.bounding_box()
    ax = np.linspace(lo[0], hi[0], 201)
    G = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    oracle = G[np.argmin(h.value_many(G))]
    return (f, K), runs, oracle, {k: True for k in runs}


def _ep_suite_glt():
    f = glt_example(2, 2)
    K = f.domain
    cfg = GlobalSolveConfig(grid_density=2001)
    beta = Schedule.constant(0.18)
    x0 = np.array([3.5])
    base = dict(beta=beta, stop_tol=1e-8, prox_cfg=cfg)
    # the returned point of the extragradient methods is the proximal output,
    # which lands on the solution kink once the iterate is inside its pull
    # radius; the stop tolerance governs when that happens, not the accuracy
    eg = dict(beta=beta, steps=Schedule.inv_k(0.8), stop_tol=5e-3,
              max_iters=4000, prox_cfg=cfg)
    peg = dict(beta=Schedule.constant(1.0), steps=Schedule.inv_k(0.8),
               stop_tol=5e-3, max_iters=4000, prox_cfg=cfg)
    runs = {
        "RIPPA_EP": ep.run_rippa_ep(f, K, ep.EpParams(**base), x0),
        "REG_EP": ep.run_reg_ep(f, K, ep.EpParams(**base), x0),
        "IEPPA_EP": ep.run_ieppa_ep(f, K, ep.EpParams(**base, alpha=0.1), x0),
        "TWO_PPA_EP": ep.run_2ppa_ep(f, K, ep.EpParams(**base, epsilon=0.01), x0),
        "EG_EP": ep.run_eg_ep(f, K, ep.EpParams(**eg), x0),
        "PEG_EP": ep.run_peg_ep(f, K, ep.EpParams(**peg), x0),
    }
    xs = np.linspace(0.0, 4.0, 2001)
    g = np.maximum(np.sqrt(xs), (xs - 2.0) ** 2 - 2.0)
    F = 2.0 * (g[None, :] - g[:, None]) + xs[:, None] * (xs[None, :] - xs[:, None])
    oracle = np.array([xs[F.min(axis=1).argmax()]])
    # the positive-inertia and two-step theorem windows are empty here
    # (gamma < 12 eta), so those runs are expected to carry unguarded flags
    expected_guarded = {"RIPPA_EP": True, "REG_EP": True, "IEPPA_EP": False,
                        "TWO_PPA_EP": False, "EG_EP": True, "PEG_EP": True}
    return (f, K), runs, oracle, expected_guarded


def test_criterion_07_ep_suite_agreement():
    failures = []
    for label, suite in (("value_gap(power_norm)", _ep_suite_value_gap),
                         ("glt(2,2)", _ep_suite_glt)):
        prob, runs, oracle, expected_guarded = suite()
        res_cfg = GlobalSolveConfig(grid_density=4001)
        for name, tr in runs.items():
            dist = float(np.linalg.norm(tr.final_point - oracle))
            if dist > 1e-3:
                failures.append(f"{label}/{name} dist {dist:.2e}")
                continue
            r = ep.ep_residual(*prob, tr.final_point, res_cfg)
            if r < -1e-4:
                failures.append(f"{label}/{name} residual {r:.2e}")
            minty = ep.check_minty(*prob, tr.final_point, n_samples=1000, seed=7,
                                   tol=1e-2)
            if not minty.passed:
                failures.append(f"{label}/{name} minty margin {minty.worst_margin:.2e}")
            if tr.guarded != expected_guarded[name]:
                failures.append(f"{label}/{name} guarded={tr.guarded} "
                                f"expected {expected_guarded[name]} ({tr.guard_notes})")
    report(7, not failures,
           f"six EP solvers agree with grid oracles within 1e-3, residual >= -1e-4, "
           f"Minty dual holds ({'; '.join(failures[:4]) or 'no failures'})")


def test_criterion_08_degeneracy_identities():
    h = catalog("power_norm", n=2, halfwidth=1.0)
    f = value_gap(h)
    K = f.domain
    x0 = np.array([0.9, -0.7])
    beta = Schedule.constant(6.0)
    a = ep.run_ppa_ep(f, K, ep.EpParams(beta=beta, stop_tol=1e-8), x0)
    b = ep.run_rippa_ep(f, K, ep.EpParams(beta=beta, alpha=0.0, rho_lo=1.0,
                                          rho_hi=1.0, stop_tol=1e-8), x0)
    c = ep.run_ieppa_ep(f, K, ep.EpParams(beta=beta, alpha=0.0, stop_tol=1e-8), x0)
    d = run_ppa(h, None, MinParams(c=beta, stop_tol=1e-8), x0)
    ok = (np.array_equal(a.iterates, b.iterates)
          and np.array_equal(a.iterates, c.iterates)
          and np.array_equal(a.residuals, c.residuals)
          and np.array_equal(a.iterates, d.iterates)
          and np.array_equal(a.residuals, d.residuals))
    report(8, ok, "IEPPA(0) == RIPPA-EP(0,1) == PPA-EP == PPA on the value gap, bit for bit")


def test_criterion_09_sweep_reproduction(tmp_path):
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "minimize",
                    "objective": {"catalog": "power_norm",
                                  "params": {"n": 2, "halfwidth": 1.0}}},
        "algorithm": {"variant": "PPA", "x0": [1.0, 1.0],
                      "c": {"kind": "constant", "value": 0.5},
                      "stop_tol": 1e-8, "max_iters": 500},
        "sweep": {"alphas": [0.0, 0.1, 0.2], "rhos": [0.8, 1.0, 1.2]},
    }
    t1 = sweep_compare(cfg, tmp_path / "s1")
    t2 = sweep_compare(cfg, tmp_path / "s2")
    rows = t1["rows"]
    baseline = rows[-1]
    best_iters = min(r["iterations"] for r in rows if r.get("converged"))
    ok = (t1 == t2 and len(rows) == 10 and baseline["cell"] == "baseline"
          and baseline["converged"] and best_iters <= baseline["iterations"]
          and isinstance(t1["strict_speedup_found"], bool))
    report(9, ok,
           f"3x3 sweep deterministic with baseline row; best cell {t1['best_cell']} "
           f"({best_iters} iters vs baseline {baseline['iterations']}); "
           f"strict speedup found: {t1['strict_speedup_found']}")


def test_criterion_10_end_to_end_determinism(tmp_path):
    min_cfg = {
        "schema_version": 1,
        "problem": {"kind": "minimize",
                    "objective": {"catalog": "gauss_well",
                                  "params": {"c": 1.0, "d": 1.0, "delta": 1.0}}},
        "algorithm": {"variant": "PPA", "x0": [0.9],
                      "c": {"kind": "constant", "value": 0.5},
                      "stop_tol": 1e-8, "max_iters": 200},
    }
    ep_cfg = {
        "schema_version": 1,
        "problem": {"kind": "ep",
                    "bifunction": {"catalog": "glt_example", "params": {"p": 2, "q": 2}}},
        "algorithm": {"variant": "PPA_EP", "x0": [3.5],
                      "beta": {"kind": "constant", "value": 0.18},
                      "stop_tol": 1e-8, "max_iters": 500},
    }
    ok = True
    for name, cfg in (("minimize", min_cfg), ("ep", ep_cfg)):
        b1 = run_from_config(cfg, tmp_path / f"{name}_1")[2]["trace"].read_bytes()
        b2 = run_from_config(cfg, tmp_path / f"{name}_2")[2]["trace"].read_bytes()
        ok = ok and b1 == b2
    report(10, ok, "re-running minimize and EP configs byte-reproduces trace CSVs")
