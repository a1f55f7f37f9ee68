"""Shared test fixtures and independent oracles.

The grid oracles here deliberately bypass the package's multistart solver:
plain dense-grid argmins with their own point counts and no refinement, so
solver results are checked against an independent route.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from sqopt.fields import config_keys
from sqopt.functions import Objective
from sqopt.geometry import Box, FullSpace, box1d
from sqopt.minimize import MinParams, rippa_rho_upper


TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """A file left open, or any other unraisable exception, fails a test under ``tests/``."""
    for item in items:
        if TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))


def half_quad() -> Objective:
    """t^2/2 on the line: strongly convex modulus 1, L = 1."""
    return Objective(
        name="half_quad",
        dim=1,
        domain=FullSpace(1),
        modulus=1.0,
        fn=lambda X: 0.5 * X[..., 0] ** 2,
        grad=lambda X: np.stack([X[..., 0]], axis=-1),
        lip_grad=1.0,
        known_min=(np.zeros(1), 0.0),
    )


def linear_on(lo: float, hi: float, gamma: float) -> Objective:
    """h(t) = t on [lo, hi] with a caller-declared modulus."""
    return Objective(
        name="linear",
        dim=1,
        domain=box1d(lo, hi),
        modulus=gamma,
        fn=lambda X: X[..., 0],
        grad=lambda X: np.ones_like(X[..., :1]),
        lip_grad=1e-12,
    )


def cubic_mix() -> Objective:
    """t^3 + t^2/2 on [-2, 2]: not quasiconvex (interior bump)."""
    return Objective(
        name="cubic_mix",
        dim=1,
        domain=box1d(-2.0, 2.0),
        modulus=0.0,
        fn=lambda X: X[..., 0] ** 3 + 0.5 * X[..., 0] ** 2,
    )


def indefinite_quad() -> Objective:
    """x1^2 - x2^2 on the plane: indefinite, not quasiconvex."""
    return Objective(
        name="indefinite_quad",
        dim=2,
        domain=FullSpace(2),
        modulus=0.0,
        fn=lambda X: X[..., 0] ** 2 - X[..., 1] ** 2,
    )


def abs_on_box(hw: float, gamma: float) -> Objective:
    """|t| on [-hw, hw] (1d Euclidean norm) with declared modulus; subgradient 0 at 0."""
    return Objective(
        name="abs1d",
        dim=1,
        domain=box1d(-hw, hw),
        modulus=gamma,
        fn=lambda X: np.abs(X[..., 0]),
        grad=lambda X: np.sign(X[..., :1]),
        known_min=(np.zeros(1), 0.0),
        smooth=False,
    )


def default_rippa_params(alpha_target: float, rho_lo: float, **kw) -> MinParams:
    """Guarded relaxed-inertial parameters for a given inertial target.

    Uses ``beta_hat = (1 + alpha_target)/2`` and the summability relaxation
    ceiling; the relaxation is the midpoint of its admissible range.
    Raises when the ceiling does not exceed ``rho_lo`` (lower the target).
    """
    if not 0.0 <= alpha_target < 1.0:
        raise ValueError("alpha_target must lie in [0, 1)")
    if not 0.0 < rho_lo < 2.0:
        raise ValueError("rho_lo must lie in (0, 2)")
    beta_hat = 0.5 * (1.0 + alpha_target)
    rho_hi = rippa_rho_upper(beta_hat, rho_lo)
    if rho_hi <= rho_lo:
        raise ValueError(
            f"relaxation ceiling {rho_hi:.6g} <= rho_lo {rho_lo:.6g}; lower alpha_target"
        )
    return MinParams(
        variant="RIPPA",
        alpha=alpha_target,
        rho_lo=rho_lo,
        rho_hi=rho_hi,
        **kw,
    )


def grid_min_1d(fn, lo: float, hi: float, n: int = 40_001):
    """Independent dense-grid argmin for 1D objectives (no refinement)."""
    ts = np.linspace(lo, hi, n)
    vals = fn(ts[:, None])
    i = int(np.argmin(vals))
    return float(ts[i]), float(vals[i])


def declared_kinds(cls) -> dict:
    """The config key of each field the dataclass ``cls`` declares -> the field's kind."""
    return {key: cls.__dataclass_fields__[name].metadata["kind"]
            for key, name in config_keys(cls).items()}


def random_starts(K, seed: int, m: int, radius=None) -> np.ndarray:
    return K.sample(seed=seed, m=m, radius=radius)
