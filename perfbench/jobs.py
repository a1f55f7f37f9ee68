"""Seeded job lists for the three benchmark workloads.

A job is one CLI call (``minimize``, ``solve-ep``, ``sweep``, ``verify`` or
``dynamics``) with a generated JSON config and the expectations the checker
judges its outputs against.  Starts and verify seeds come from a Philox stream
keyed by the benchmark seed; the program only ever sees the generated configs.

Start regions are chosen so that the work a job does hardly depends on the
seed (fixed start radius for the radially symmetric objectives, the
two-iteration cone for the polytope job), which keeps run-to-run spread down.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("minimize", "solve_ep", "certify")

# A job slower than this fails, and PAR-2 charges every failed job twice it.
# Correct 2-D glt_example runs take up to about 3.5 s on a 2-core Xeon, so the
# limit leaves room for the fix of their y-gradient.
JOB_LIMIT_S = 5.0

# Tolerances of "a solution of stated accuracy".
DIST_TOL = 1e-4  # distance_to_known_solution
VALUE_TOL = 1e-6  # final_value against a constrained minimum
RESIDUAL_EP_MIN = -1e-4  # emitted residual_ep certificate: min_y f(x, y)
ORACLE_DIST_TOL = 1e-3  # EP final point against a grid oracle (criterion 7)
STATE_TOL = 1e-4  # dynamics final state against the minimizer

# x1 >= 0.5, x2 >= 0.2, x1 + x2 >= 1, x1 + 2 x2 <= 4: inside the ball of radius
# 1/gamma = 5, so euclid_norm(gamma=0.2) stays strongly quasiconvex on it.
POLYTOPE = {
    "kind": "halfspaces",
    "normals": [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 2.0]],
    "bounds": [-0.5, -0.2, -1.0, 4.0],
}
POLYTOPE_MIN = (0.5, 0.5)  # argmin of ||x|| on POLYTOPE, value sqrt(0.5)

GLT_1D = {"catalog": "glt_example", "params": {"p": 2, "q": 2}}
GLT_2D = {"catalog": "glt_example", "params": {"p": 2, "q": 2, "n": 2}}
VALUE_GAP = {
    "catalog": "value_gap",
    "params": {"objective": {"catalog": "power_norm", "params": {"n": 2, "halfwidth": 1.0}}},
}

# The 2-D glt_example runs stop at non-equilibria because the batched
# glt_example y-gradient uses the first row's branch for every row (ROADMAP
# item 4a).  They stay in the workload and count as failed.
GLT_2D_DEFECT = "batched glt_example y-gradient (ROADMAP 4a)"


def _const(v: float) -> dict:
    return {"kind": "constant", "value": v}


def _inv_k(v: float) -> dict:
    return {"kind": "inv_k", "value": v}


def _config(problem: dict, **sections) -> dict:
    return {"schema_version": 1, "problem": problem, **sections}


def _objective(name: str, **params) -> dict:
    return {"catalog": name, "params": params}


def _job(job_id: str, command: str, config: dict, expect: dict, **extra) -> dict:
    return {"id": job_id, "command": command, "config": config, "expect": expect, **extra}


class _Draws:
    """Philox stream of starts and sample seeds, keyed by the benchmark seed."""

    def __init__(self, seed: int):
        self.rng = np.random.Generator(np.random.Philox(key=seed))

    def sphere(self, n: int, radius: float) -> list[float]:
        d = self.rng.standard_normal(n)
        return (radius * d / np.linalg.norm(d)).tolist()

    def signed(self, lo: float, hi: float) -> list[float]:
        """One coordinate with |x| in [lo, hi] and a random sign."""
        return [float(self.rng.choice([-1.0, 1.0]) * self.rng.uniform(lo, hi))]

    def box(self, lo: float, hi: float, n: int) -> list[float]:
        return self.rng.uniform(lo, hi, n).tolist()

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))


def _minimize_jobs(dr: _Draws) -> list[dict]:
    def ppa(job_id, objective, x0, c, expect, **algo):
        cfg = _config({"kind": "minimize", "objective": objective},
                      algorithm={"variant": "PPA", "x0": x0, "c": _const(c),
                                 "stop_tol": 1e-8, "max_iters": 500, **algo})
        return _job(job_id, "minimize", cfg, expect)

    dist = {"distance": DIST_TOL}
    jobs = [
        # compass search on a 9x9 seed grid; iterations depend on |x0| only
        ppa("ppa_power_norm2", _objective("power_norm", n=2, halfwidth=10.0),
            dr.sphere(2, 6.0), 0.5, dist),
        # Halton seeds in 3-D, compass search
        ppa("ppa_power_norm3", _objective("power_norm", n=3, halfwidth=10.0),
            dr.sphere(3, 4.0), 0.5, dist),
        # 1-D dense grid, projected gradient, Newton polish
        ppa("ppa_sin_quad", _objective("sin_quad"), dr.signed(2.0, 3.0), 0.8, dist,
            search_radius=6.0),
        ppa("ppa_root_quartic", _objective("root_quartic", k=1.0, c=2.0),
            dr.signed(1.5, 1.9), 0.5, dist),
    ]
    bppa = _config({"kind": "minimize", "objective": _objective("gauss_well")},
                   algorithm={"variant": "BPPA", "x0": dr.signed(0.5, 0.9), "c": _const(0.5),
                              "bregman": {"name": "neg_entropy", "shift": 2.0},
                              "stop_tol": 1e-8, "max_iters": 500})
    jobs.append(_job("bppa_gauss_well", "minimize", bppa, dist))
    # Starts in the cone min + c*(1,1)/sqrt(2) + cone{(-1,0), (-1,-1)}: the first
    # proximal step lands on the minimizer, so every seed takes two steps.  Each
    # step is a compass search whose projections run Dykstra row by row.
    a, b = dr.box(0.0, 0.4, 2)
    c = 0.5
    x0 = [POLYTOPE_MIN[0] + c / math.sqrt(2) - a - b, POLYTOPE_MIN[1] + c / math.sqrt(2) - b]
    poly = _config({"kind": "minimize", "objective": _objective("euclid_norm", n=2, gamma=0.2),
                    "set": POLYTOPE},
                   algorithm={"variant": "PPA", "x0": x0, "c": _const(c), "stop_tol": 1e-8,
                              "max_iters": 500, "search_radius": 3.0,
                              "prox": {"n_starts": 25}})
    jobs.append(_job("ppa_polytope", "minimize", poly,
                     {"final_value": math.sqrt(0.5), "tol": VALUE_TOL}))
    # the 3x3 (alpha, rho) sweep of acceptance criterion 9, seeded start on the unit circle
    sweep = _config({"kind": "minimize", "objective": _objective("power_norm", n=2, halfwidth=1.0)},
                    algorithm={"variant": "PPA", "x0": dr.sphere(2, 1.0), "c": _const(0.5),
                               "stop_tol": 1e-8, "max_iters": 500},
                    sweep={"alphas": [0.0, 0.1, 0.2], "rhos": [0.8, 1.0, 1.2]})
    jobs.append(_job("sweep_power_norm", "sweep", sweep, {}))
    return jobs


def _solve_ep_jobs(dr: _Draws) -> list[dict]:
    def ep(job_id, bif, algo, expect=None, **extra):
        cfg = _config({"kind": "ep", "bifunction": bif}, algorithm=algo)
        return _job(job_id, "solve-ep", cfg, expect or {"residual_ep_min": RESIDUAL_EP_MIN},
                    **extra)

    jobs = []
    # acceptance criterion 7 parameters on the 1-D glt_example
    prox = {"grid_density": 2001}
    base = {"beta": _const(0.18), "stop_tol": 1e-8, "max_iters": 500, "prox": prox}
    eg = {"steps": _inv_k(0.8), "stop_tol": 5e-3, "max_iters": 4000, "prox": prox}
    variants = [
        ("ppa_ep", {"variant": "PPA_EP", **base}),
        ("rippa_ep", {"variant": "RIPPA_EP", **base}),
        ("reg_ep", {"variant": "REG_EP", **base}),
        ("ieppa_ep", {"variant": "IEPPA_EP", "alpha": 0.1, **base}),
        ("two_ppa_ep", {"variant": "TWO_PPA_EP", "epsilon": 0.01, **base}),
        ("eg_ep", {"variant": "EG_EP", "beta": _const(0.18), **eg}),
        ("peg_ep", {"variant": "PEG_EP", "beta": _const(1.0), **eg}),
    ]
    for i in range(3):
        x0 = dr.box(0.2, 3.8, 1)
        for name, algo in variants:
            jobs.append(ep(f"glt1d_{name}_{i}", GLT_1D, {**algo, "x0": x0}, oracle="glt1d"))
    jobs.append(ep("value_gap_rippa_ep", VALUE_GAP,
                   {"variant": "RIPPA_EP", "x0": dr.box(-1.0, 1.0, 2), "beta": _const(6.0),
                    "stop_tol": 1e-8, "max_iters": 500},
                   oracle="origin"))
    for i in range(3):
        jobs.append(ep(f"glt2d_ppa_ep_{i}", GLT_2D,
                       {"variant": "PPA_EP", "x0": dr.box(0.5, 3.5, 2), "beta": _const(0.18),
                        "stop_tol": 1e-8, "max_iters": 500},
                       oracle="glt2d", known_defect=GLT_2D_DEFECT))
    return jobs


def _certify_jobs(dr: _Draws) -> list[dict]:
    def verify(job_id, problem, checks, estimates=None):
        cfg = _config(problem, verify={"checks": checks})
        return _job(job_id, "verify", cfg, {"estimates": estimates or {}})

    big = 200_000
    jobs = [
        verify("verify_gauss_well", {"kind": "minimize", "objective": _objective("gauss_well")},
               [{"check": "sqc", "n": big, "seed": dr.seed()},
                {"check": "modulus", "n": big, "seed": dr.seed()},
                {"check": "foc", "n": big, "seed": dr.seed()}],
               # published modulus d exp(-delta^2) (acceptance criterion 2)
               {1: {"min": math.exp(-1.0) - 1e-6}}),
        verify("verify_power_norm3",
               {"kind": "minimize", "objective": _objective("power_norm", n=3, halfwidth=1.0)},
               [{"check": "sqc", "n": big, "seed": dr.seed()},
                {"check": "modulus", "n": big, "seed": dr.seed()}]),
        verify("verify_sin_quad", {"kind": "minimize", "objective": _objective("sin_quad")},
               [{"check": "sqc", "n": big, "seed": dr.seed(), "radius": 8.0},
                {"check": "modulus", "n": big, "seed": dr.seed(), "radius": 8.0}]),
        verify("verify_glt1d", {"kind": "ep", "bifunction": GLT_1D},
               [{"check": "a0", "n": 20_000, "seed": dr.seed()},
                {"check": "pseudomonotone", "n": 20_000, "seed": dr.seed()},
                {"check": "a4", "seed": dr.seed()},
                {"check": "eta", "n": 20_000, "seed": dr.seed()}]),
        # Dykstra in a few big project_many calls; gamma = 0.2 keeps the set
        # inside the ball of radius 1/gamma (gamma = 1 would correctly fail)
        verify("verify_polytope",
               {"kind": "minimize", "objective": _objective("euclid_norm", n=2, gamma=0.2),
                "set": POLYTOPE},
               [{"check": "sqc", "n": 800, "seed": dr.seed(), "radius": 3.0},
                {"check": "modulus", "n": 800, "seed": dr.seed(), "radius": 3.0}]),
    ]
    dyn = _config({"kind": "minimize", "objective": _objective("gauss_well")},
                  dynamics={"system": "ds2", "x0": dr.signed(0.5, 0.9), "v0": [0.0],
                            "T": 40.0, "dt": 0.005, "damping": 1.0})
    jobs.append(_job("dynamics_gauss_well", "dynamics", dyn,
                     {"final_state": [0.0], "tol": STATE_TOL}))
    return jobs


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one pass; the same (workload, seed) gives the same list."""
    builders = {"minimize": _minimize_jobs, "solve_ep": _solve_ep_jobs, "certify": _certify_jobs}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return builders[workload](_Draws(seed))
