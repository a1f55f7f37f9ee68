"""Catalog of strongly quasiconvex objectives, bifunctions and Bregman kernels.

Every entry declares the modulus it is certified for on its domain.  Declared
moduli are guaranteed lower bounds: either a published closed form or a frozen
constant obtained from a dense-grid certification run (those constants sit
strictly below the grid infimum).

One batch contract: the program calls every evaluation callable with rows,
shape ``(m, n)``, and each row gets the bits it gets in a one-row batch.  A
lone point is a one-row batch: ``Objective.value``, ``Objective.grad_at``,
``Bifunction.value`` and ``BregmanFunction.divergence`` evaluate ``x[None]``
and return row 0, so a point gets its row's bits wherever it is evaluated.

``power_norm``, ``euclid_norm`` and ``abs_shift`` have a kink at their
minimizer; their ``grad`` is a subgradient there (0) and the gradient
elsewhere, and they are not ``smooth``, hence not ``differentiable``.
``inv_gap`` and ``root_quartic`` with ``k = 0`` have no ``grad``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import BLOCK_ROWS, Box, FeasibleSet, FullSpace, as_point, box1d

# Frozen certified lower bounds (dense-grid runs; see package notes).
SIN_QUAD_MODULUS = 0.6965  # grid infimum 2 + 6*min(sin u / u) = 0.696598...
NEG_QUAD_MODULUS = 2.0  # exact infimum of the defining ratio on [0, 1]

@dataclass(frozen=True)
class Objective:
    """An evaluable objective with a declared strong-quasiconvexity modulus.

    ``modulus`` is the declared modulus on ``domain`` (0 means merely
    quasiconvex).  ``fn`` and ``grad`` take rows ``(m, n)``; ``value`` and
    ``grad_at`` evaluate one point as a one-row batch.
    ``known_min`` is ``(argmin, min_value)`` when the minimizer is known.
    A ``grad`` that is not ``smooth`` is the gradient away from kinks and a
    fixed subgradient on them; the global solver uses it, and everything
    that needs a true gradient (gradient methods and flows, gradient-based
    checks) asks for ``differentiable``: a ``grad`` that is smooth.
    """

    name: str
    dim: int
    domain: FeasibleSet
    modulus: float
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    lip_grad: float | None = None
    known_min: tuple[np.ndarray, float] | None = None
    lower_semicontinuous: bool = True
    smooth: bool = True

    def value(self, x) -> float:
        return float(self.value_many(as_point(x, self.dim)[None])[0])

    def value_many(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(X, dtype=float)), dtype=float)

    @property
    def differentiable(self) -> bool:
        return self.grad is not None and self.smooth

    def grad_at(self, x) -> np.ndarray:
        return self.grad_many(as_point(x, self.dim)[None])[0]

    def grad_many(self, X: np.ndarray) -> np.ndarray:
        if self.grad is None:
            raise ValueError(f"objective {self.name!r} has no gradient")
        return np.asarray(self.grad(np.asarray(X, dtype=float)), dtype=float)


@dataclass(frozen=True)
class Bifunction:
    """Equilibrium bifunction f(x, y), strongly quasiconvex in y on the domain.

    ``fn(X, Y)`` and ``partial_grad_y(X, Y)`` take paired rows (row ``i`` of
    ``X`` with row ``i`` of ``Y``), or one row of ``X`` for every row of
    ``Y``; a paired row gets exactly the bits of the one-row call.  ``value``
    evaluates one pair as one-row batches.  A value gap copies ``smooth``
    from its objective; the extragradient methods refuse a ``partial_grad_y``
    that is not, while the global solver takes it.  ``gamma``
    is the declared per-x modulus of ``f(x, .)`` and ``eta`` the declared
    Lipschitz-type constant of the three-point condition.  ``y_parts(x)``
    returns ``(fy, gy)`` with ``fy`` equal to ``f(x, .)`` up to an additive
    constant; proximal subproblems are built from it so that value-gap
    bifunctions reproduce plain proximal steps bit for bit.
    """

    name: str
    dim: int
    domain: FeasibleSet
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gamma: float
    eta: float
    partial_grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    y_parts: Callable[[np.ndarray], tuple] | None = None
    smooth: bool = True

    def value(self, x, y) -> float:
        return float(self.fn(as_point(x, self.dim)[None], as_point(y, self.dim)[None])[0])

    def y_objective(self, x):
        """``(fy, gy)`` for the proximal subproblem in the second argument."""
        if self.y_parts is not None:
            return self.y_parts(np.asarray(x, dtype=float))
        xa = np.asarray(x, dtype=float)[None]
        fy = lambda Y: self.fn(xa, Y)
        gy = None
        if self.partial_grad_y is not None:
            gy = lambda Y: self.partial_grad_y(xa, Y)
        return fy, gy


@dataclass(frozen=True)
class BregmanFunction:
    """Bregman kernel phi with zone S and divergence D(x, y).

    ``phi`` and ``grad_phi`` take rows, and ``grad_divergence(Y, X)`` is
    ``grad_phi(y) - grad_phi(x)`` for paired rows, taken without
    cancellation: accurate relative to its size near y = x.  ``divergence``
    evaluates one pair as one-row batches.
    """

    name: str
    dim: int
    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]
    grad_divergence: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zone_contains: Callable[[np.ndarray], np.ndarray]  # open zone S, strict
    closure_contains: Callable[[np.ndarray], np.ndarray]

    def divergence_many(self, Y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """D(y, x) = phi(y) - phi(x) - grad_phi(x) . (y - x), batched over y.

        ``x`` is one row per row of ``Y``, or one row for all of them.
        """
        Y = np.asarray(Y, dtype=float)
        x = np.asarray(x, dtype=float)
        return self.phi(Y) - self.phi(x) - np.einsum("...i,...i->...", Y - x, self.grad_phi(x))

    def divergence(self, x, y) -> float:
        return float(self.divergence_many(as_point(x, self.dim)[None], as_point(y, self.dim)[None])[0])


# ---------------------------------------------------------------------------
# objective catalog
# ---------------------------------------------------------------------------


def _nonzero(nrm):
    """Row norms with 0 replaced by 1: a norm's gradient ``x / ||x||`` is then 0 at x = 0."""
    return np.where(nrm == 0.0, 1.0, nrm)


def _abs_shift(a: float = 0.0, gamma: float = 1.0) -> Objective:
    """|t + a| on [0, 1/gamma] with modulus gamma."""
    if gamma <= 0:
        raise ValueError("abs_shift requires gamma > 0")
    a = float(a)
    hi = 1.0 / gamma
    dom = box1d(0.0, hi)
    fn = lambda X: np.abs(X[..., 0] + a)
    if -a <= 0.0:
        xm, vm = 0.0, abs(a)
    elif -a >= hi:
        xm, vm = hi, abs(hi + a)
    else:
        xm, vm = -a, 0.0
    return Objective(
        name=f"abs_shift(a={a},gamma={gamma})",
        dim=1,
        domain=dom,
        modulus=float(gamma),
        fn=fn,
        grad=lambda X: np.sign(X[..., 0] + a)[..., None],  # 0 at the kink t = -a
        known_min=(np.array([xm]), vm),
        smooth=False,
    )


def _euclid_norm(n: int = 2, gamma: float = 1.0, halfwidth: float | None = None) -> Objective:
    """Euclidean norm on a box inside the closed ball of radius 1/gamma."""
    if n < 1:
        raise ValueError("euclid_norm requires n >= 1")
    if gamma <= 0:
        raise ValueError("euclid_norm requires gamma > 0")
    n = int(n)
    wmax = 1.0 / (gamma * np.sqrt(n))
    w = wmax if halfwidth is None else float(halfwidth)
    if w * np.sqrt(n) > 1.0 / gamma + 1e-12:
        raise ValueError("box must lie inside the ball of radius 1/gamma")
    dom = Box(-w * np.ones(n), w * np.ones(n))
    return Objective(
        name=f"euclid_norm(n={n},gamma={gamma})",
        dim=n,
        domain=dom,
        modulus=float(gamma),
        fn=lambda X: np.linalg.norm(X, axis=-1),
        grad=lambda X: X / _nonzero(np.linalg.norm(X, axis=-1, keepdims=True)),
        known_min=(np.zeros(n), 0.0),
        smooth=False,
    )


def _neg_quad() -> Objective:
    """-t^2 - t on [0, 1]; nonconvex, strongly quasiconvex with modulus 2."""
    return Objective(
        name="neg_quad",
        dim=1,
        domain=box1d(0.0, 1.0),
        modulus=NEG_QUAD_MODULUS,
        fn=lambda X: -X[..., 0] ** 2 - X[..., 0],
        grad=lambda X: (-2.0 * X[..., 0] - 1.0)[..., None],
        lip_grad=2.0,
        known_min=(np.array([1.0]), -2.0),
    )


def _gauss_well(c: float = 1.0, d: float = 1.0, delta: float = 1.0) -> Objective:
    """c - d*exp(-t^2) on [-delta, delta], modulus d*exp(-delta^2)."""
    if d <= 0 or delta <= 0:
        raise ValueError("gauss_well requires d > 0 and delta > 0")
    c, d, delta = float(c), float(d), float(delta)
    return Objective(
        name=f"gauss_well(c={c},d={d},delta={delta})",
        dim=1,
        domain=box1d(-delta, delta),
        modulus=d * np.exp(-(delta**2)),
        fn=lambda X: c - d * np.exp(-(X[..., 0] ** 2)),
        grad=lambda X: (2.0 * d * X[..., 0] * np.exp(-(X[..., 0] ** 2)))[..., None],
        lip_grad=2.0 * d,
        known_min=(np.array([0.0]), c - d),
    )


def _sin_quad() -> Objective:
    """t^2 + 3 sin^2 t on the line; certified modulus 0.6965."""
    return Objective(
        name="sin_quad",
        dim=1,
        domain=FullSpace(1),
        modulus=SIN_QUAD_MODULUS,
        fn=lambda X: X[..., 0] ** 2 + 3.0 * np.sin(X[..., 0]) ** 2,
        grad=lambda X: (2.0 * X[..., 0] + 3.0 * np.sin(2.0 * X[..., 0]))[..., None],
        lip_grad=8.0,
        known_min=(np.array([0.0]), 0.0),
    )


def _inv_gap() -> Objective:
    """0 at t=0 and -1/t on (0, 1]; modulus 1, not lower semicontinuous at 0.

    The infimum on [0, 1] is -inf (approached as t -> 0+), so there is no
    minimizer and proximal subproblems built on it are unbounded below.
    """

    def fn(X):
        t = X[..., 0]
        pos = t > 0
        return np.where(pos, np.divide(-1.0, t, out=np.zeros_like(t), where=pos), 0.0)

    return Objective(
        name="inv_gap",
        dim=1,
        domain=box1d(0.0, 1.0),
        modulus=1.0,
        fn=fn,
        lower_semicontinuous=False,
    )


def _root_quartic(k: float = 1.0, c: float = 1.0) -> Objective:
    """(t^2 + k^2)^(1/4) on [-c, c], modulus 1/(2 (c^2+k^2)^(3/4))."""
    if c <= 0:
        raise ValueError("root_quartic requires c > 0")
    k, c = float(k), float(c)
    fn = lambda X: (X[..., 0] ** 2 + k**2) ** 0.25
    grad = None
    lip = None
    if k != 0.0:
        grad = lambda X: (X[..., 0] / (2.0 * (X[..., 0] ** 2 + k**2) ** 0.75))[..., None]
        lip = 1.0 / (2.0 * abs(k) ** 1.5)
    return Objective(
        name=f"root_quartic(k={k},c={c})",
        dim=1,
        domain=box1d(-c, c),
        modulus=1.0 / (2.0 * (c**2 + k**2) ** 0.75),
        fn=fn,
        grad=grad,
        lip_grad=lip,
        known_min=(np.array([0.0]), abs(k) ** 0.5),
    )


def _power_norm(n: int = 2, halfwidth: float = 1.0, alpha: float = 0.5) -> Objective:
    """||x||^alpha on the box [-w, w]^n.

    For alpha = 1/2 the declared modulus is 1/(80^(1/4) r^(3/2)) with r the
    circumscribed-ball radius; other exponents are declared merely
    quasiconvex (modulus 0).
    """
    if n < 1:
        raise ValueError("power_norm requires n >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("power_norm requires 0 < alpha < 1")
    if not halfwidth > 0:
        raise ValueError("power_norm requires halfwidth > 0")
    n, w = int(n), float(halfwidth)
    r = w * np.sqrt(n)
    modulus = 1.0 / (80.0**0.25 * r**1.5) if alpha == 0.5 else 0.0

    def grad(X):  # alpha ||x||^(alpha - 2) x, and 0 at the cusp x = 0
        return alpha * _nonzero(np.linalg.norm(X, axis=-1, keepdims=True)) ** (alpha - 2.0) * X

    return Objective(
        name=f"power_norm(n={n},w={w},alpha={alpha})",
        dim=n,
        domain=Box(-w * np.ones(n), w * np.ones(n)),
        modulus=modulus,
        fn=lambda X: np.linalg.norm(X, axis=-1) ** alpha,
        grad=grad,
        known_min=(np.zeros(n), 0.0),
        smooth=False,
    )


def _quad_fractional(A: np.ndarray, a: np.ndarray, alpha: float, B: np.ndarray, b: np.ndarray,
                     beta: float, K: FeasibleSet, m: float, M: float,
                     n_check: int = 1000) -> Objective:
    """Quadratic-over-quadratic fractional objective with modulus lambda_min(A)/M.

    K is user-supplied; the constructor verifies m <= denominator <= M on
    the points of ``K.sample(2024, n_check)``, drawn a block at a time, and
    that one of the sign conditions for the numerator and the curvature of B
    holds on them.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    alpha, beta, m, M = float(alpha), float(beta), float(m), float(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if K.dim != n:
        raise ValueError(f"K has dimension {K.dim}, not {n} as A")
    for name, v, shape in (("a", a, (n,)), ("B", B, (n, n)), ("b", b, (n,))):
        if v.shape != shape:
            raise ValueError(f"{name} must have shape {shape} to match A, got {v.shape}")
    if n_check < 1:
        raise ValueError(f"n_check must be at least 1, got {n_check}")
    if not (0 < m < M):
        raise ValueError("quad_fractional requires 0 < m < M")
    if np.max(np.abs(A - A.T)) > 1e-12:
        raise ValueError("A must be symmetric")
    eigA = np.linalg.eigvalsh(A)
    if eigA[0] <= 0:
        raise ValueError("A must be positive definite")

    # einsum, not ``X @ a``: a matrix product may round a row differently
    # inside a batch than alone, breaking the batch contract
    def num(X):
        return 0.5 * np.einsum("...i,ij,...j->...", X, A, X) + np.einsum("...i,i->...", X, a) + alpha

    def den(X):
        return 0.5 * np.einsum("...i,ij,...j->...", X, B, X) + np.einsum("...i,i->...", X, b) + beta

    def blocks():
        return K.sample_blocks(seed=2024, m=n_check)

    if any(np.any(dv < m - 1e-9) or np.any(dv > M + 1e-9) for dv in map(den, blocks())):
        raise ValueError("denominator leaves [m, M] on sampled points of K")
    eigB = np.linalg.eigvalsh(B) if np.any(B) else np.zeros(n)
    if np.max(np.abs(B)) == 0.0:
        pass  # affine denominator with B = 0
    elif eigB[-1] <= 1e-12:
        if any(np.any(nv < -1e-9) for nv in map(num, blocks())):
            raise ValueError("concave denominator requires a nonnegative numerator on K")
    elif eigB[0] >= -1e-12:
        if any(np.any(nv > 1e-9) for nv in map(num, blocks())):
            raise ValueError("convex denominator requires a nonpositive numerator on K")
    else:
        raise ValueError("B must be zero, positive or negative semidefinite")

    def fn(X):
        return num(X) / den(X)

    def grad(X):
        nv, dv = num(X), den(X)
        gn = np.einsum("...i,ij->...j", X, A) + a
        gd = np.einsum("...i,ij->...j", X, B) + b
        return (gn * dv[..., None] - nv[..., None] * gd) / (dv * dv)[..., None]

    return Objective(
        name="quad_fractional",
        dim=n,
        domain=K,
        modulus=float(eigA[0] / M),
        fn=fn,
        grad=grad,
    )


_BUILDERS = {
    "abs_shift": _abs_shift,
    "euclid_norm": _euclid_norm,
    "neg_quad": _neg_quad,
    "gauss_well": _gauss_well,
    "sin_quad": _sin_quad,
    "inv_gap": _inv_gap,
    "root_quartic": _root_quartic,
    "power_norm": _power_norm,
    "quad_fractional": _quad_fractional,
}
CATALOG_NAMES = tuple(_BUILDERS)


def catalog(name: str, **params) -> Objective:
    """Build a catalog objective by name with its declared modulus and domain."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog entry {name!r}; known: {CATALOG_NAMES}")
    return _BUILDERS[name](**params)


# ---------------------------------------------------------------------------
# combinators (modulus-preserving operations)
# ---------------------------------------------------------------------------


def combine_scale(h: Objective, kappa: float) -> Objective:
    """kappa * h with modulus kappa * gamma."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    kappa = float(kappa)
    grad = None if h.grad is None else (lambda X, g=h.grad: kappa * g(X))
    km = None if h.known_min is None else (h.known_min[0].copy(), kappa * h.known_min[1])
    return Objective(
        name=f"{kappa}*{h.name}",
        dim=h.dim,
        domain=h.domain,
        modulus=kappa * h.modulus,
        fn=lambda X, f=h.fn: kappa * f(X),
        grad=grad,
        lip_grad=None if h.lip_grad is None else kappa * h.lip_grad,
        known_min=km,
        lower_semicontinuous=h.lower_semicontinuous,
        smooth=h.smooth,
    )


def combine_linear(h: Objective, A, domain: FeasibleSet, n_check: int = 1000) -> Objective:
    """h(A x) on the given domain, modulus gamma * sigma_min(A)^2.

    The squared factor follows the quadratic-form expansion
    <A^T A d, d> >= sigma_min(A)^2 ||d||^2 used to derive the rule.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (h.dim, domain.dim):
        raise ValueError(f"A must map R^{domain.dim} into R^{h.dim}")
    if n_check < 1:
        raise ValueError(f"n_check must be at least 1, got {n_check}")
    smin = float(np.linalg.svd(A, compute_uv=False)[-1])
    if smin <= 0:
        raise ValueError("A must be injective (sigma_min > 0)")
    # einsum keeps each row's bits independent of the batch (see quad_fractional)
    AX = lambda X: np.einsum("...j,ij->...i", X, A)
    if domain.is_bounded and not all(np.all(h.domain.contains_many(AX(S), tol=1e-8))
                                     for S in domain.sample_blocks(seed=2024, m=n_check)):
        raise ValueError("A does not map the new domain into the domain of h")
    grad = None if h.grad is None else (lambda X, g=h.grad: np.einsum("...i,ij->...j", g(AX(X)), A))
    known = None
    if h.known_min is not None and A.shape[0] == A.shape[1]:
        try:
            xm = np.linalg.solve(A, h.known_min[0])
            if domain.contains(xm, tol=1e-9):
                known = (xm, h.known_min[1])
        except np.linalg.LinAlgError:
            known = None
    return Objective(
        name=f"{h.name}@linear",
        dim=domain.dim,
        domain=domain,
        modulus=h.modulus * smin**2,
        fn=lambda X, f=h.fn: f(AX(X)),
        grad=grad,
        known_min=known,
        lower_semicontinuous=h.lower_semicontinuous,
        smooth=h.smooth,
    )


def combine_max(hs: list[Objective]) -> Objective:
    """Pointwise maximum; modulus is the minimum of the moduli; ``grad`` is the active piece's."""
    if not hs:
        raise ValueError("combine_max needs at least one objective")
    dim = hs[0].dim
    dom = hs[0].domain
    for h in hs[1:]:
        if h.dim != dim or type(h.domain) is not type(dom):
            raise ValueError("objectives must share dimension and domain")
    if len(hs) == 1:
        return hs[0]
    fns = [h.fn for h in hs]

    def fn(X):
        out = fns[0](X)
        for f in fns[1:]:
            out = np.maximum(out, f(X))
        return out

    def grad(X):  # a subgradient where pieces cross: the first of equal values
        G = np.stack([np.asarray(h.grad(X), dtype=float) for h in hs])
        active = np.argmax(np.stack([f(X) for f in fns]), axis=0)
        return np.take_along_axis(G, active[None, ..., None], axis=0)[0]

    return Objective(
        name="max(" + ",".join(h.name for h in hs) + ")",
        dim=dim,
        domain=dom,
        modulus=min(h.modulus for h in hs),
        fn=fn,
        grad=grad if all(h.grad is not None for h in hs) else None,
        lower_semicontinuous=all(h.lower_semicontinuous for h in hs),
        smooth=False,
    )


# ---------------------------------------------------------------------------
# bifunction catalog
# ---------------------------------------------------------------------------


def value_gap(h: Objective) -> Bifunction:
    """f(x, y) = h(y) - h(x); the equilibrium problem collapses to minimizing h."""

    def fn(X, Y):
        return h.fn(Y) - h.fn(X)

    def y_parts(x):
        return h.fn, h.grad

    pg = None if h.grad is None else (lambda X, Y: h.grad(Y))
    return Bifunction(
        name=f"value_gap({h.name})",
        dim=h.dim,
        domain=h.domain,
        fn=fn,
        gamma=h.modulus,
        eta=0.0,
        partial_grad_y=pg,
        y_parts=y_parts,
        smooth=h.smooth,
    )


def _glt_g(U: np.ndarray, q: float) -> np.ndarray:
    nrm = np.linalg.norm(U, axis=-1)
    shifted = U - q
    return np.maximum(np.sqrt(nrm), np.einsum("...i,...i->...", shifted, shifted) - q)


def _glt_g_grad(U: np.ndarray, q: float) -> np.ndarray:
    """Row-wise gradient of ``_glt_g``; the zero subgradient at the kink u = 0."""
    nrm = np.linalg.norm(U, axis=-1, keepdims=True)
    on_sqrt = np.sqrt(nrm) >= np.sum((U - q) ** 2, axis=-1, keepdims=True) - q
    return np.where(on_sqrt, U / (2.0 * _nonzero(nrm) ** 1.5), 2.0 * (U - q))


def _glt_ratios(p, q, lo, hi, y1, y2, t) -> np.ndarray:
    """Strong-quasiconvexity ratios of f(x, .) at (y1, y2, t), each least over x in [lo, hi]^n.

    Up to a constant f(x, .) is y -> a(y) + x.y with a = p g, so with
    m = t y1 + (1-t) y2 the ratio's numerator is
    max(a1 - am + (1-t) s, a2 - am - t s), with x only in s = x.(y1 - y2).
    Its pieces rise and fall in s, so it is least at s = a2 - a1 clipped to
    the range of s over the box.  ``t`` is one per pair, or a column of t's
    for every pair; pairs closer than 1e-6 are left out.
    """
    a1, a2 = p * _glt_g(y1, q), p * _glt_g(y2, q)
    am = p * _glt_g(t[..., None] * y1 + (1 - t[..., None]) * y2, q)
    u = y1 - y2
    s = np.clip(a2 - a1, np.sum(np.minimum(lo * u, hi * u), axis=-1),
                np.sum(np.maximum(lo * u, hi * u), axis=-1))
    d2 = np.sum(u * u, axis=-1)
    ratio = 2.0 * np.maximum(a1 - am + (1 - t) * s, a2 - am - t * s) / (t * (1 - t) * d2)
    return ratio[..., d2 > 1e-12]


@functools.lru_cache(maxsize=32)
def _glt_constants(p: float, q: float, lo: float, hi: float, n: int) -> tuple[float, float]:
    """(gamma, eta) for the max/sqrt bifunction on the box [lo, hi]^n.

    eta = 1/2 exactly: the g terms telescope out of the three-point
    condition, leaving (x - y).(z - y) <= eta (||x - y||^2 + ||y - z||^2),
    which Cauchy-Schwarz and AM-GM give with eta = 1/2, attained at x = z.

    In 1-D gamma is 0.9 times the least ``_glt_ratios`` value, floored at
    0, over the 101-point pair grid times 61 t's, in blocks of at most
    ``BLOCK_ROWS`` ratios.  For n >= 2 gamma is what a proof gives.  With
    delta the distance from q to [lo, hi] and M = max(|lo|, |hi|), every u
    in the box has ||u - q e||^2 - q >= n delta^2 - q and
    sqrt(||u||) <= (sqrt(n) M)^(1/2).  Where the first bound is at least
    the second, g is the parabola on the whole box and f(x, .) has Hessian
    2p I, so gamma = 2p; elsewhere gamma = 0.
    """
    if n >= 2:
        delta, M = max(lo - q, q - hi, 0.0), max(abs(lo), abs(hi))
        return (2.0 * p if n * delta**2 - q >= (n**0.5 * M) ** 0.5 else 0.0), 0.5
    ys = np.linspace(lo, hi, 101)
    Y1, Y2 = (Y[Y != Y.T][:, None] for Y in np.meshgrid(ys, ys, indexing="ij"))
    ts = np.linspace(0.01, 0.99, 61)[:, None]
    rows = BLOCK_ROWS // ts.size
    blocks = ((Y1[b : b + rows], Y2[b : b + rows], ts) for b in range(0, Y1.shape[0], rows))
    best = min(float(_glt_ratios(p, q, lo, hi, *blk).min(initial=np.inf)) for blk in blocks)
    return max(0.9 * best, 0.0), 0.5


def glt_example(p: float = 2.0, q: float = 2.0, n: int = 1, K: FeasibleSet | None = None) -> Bifunction:
    """Max-of-sqrt-and-parabola bifunction with a quadratic coupling term.

    ``f(x, y) = p (g(y) - g(x)) + x . (y - x)`` with
    ``g(u) = max(sqrt(||u||), ||u - q e||^2 - q)``.  Monotone; on the
    default 1-D box strongly quasiconvex in ``y``.  eta = 1/2 is exact, and
    gamma is a sampled minimum in 1-D and a proven bound above (see
    ``_glt_constants``).  For n >= 2 on the default box f(x, .) is not
    quasiconvex, so gamma = 0 and 2-D EP runs are unguarded.
    """
    if n < 1:
        raise ValueError("glt_example requires n >= 1")
    if p <= 1 or q <= 1:
        raise ValueError("glt_example requires p > 1 and q > 1")
    p, q, n = float(p), float(q), int(n)
    if K is None:
        K = Box(np.zeros(n), 4.0 * np.ones(n))
    if not isinstance(K, Box):
        raise ValueError("glt_example expects a box domain")
    if K.dim != n:
        raise ValueError(f"K has dimension {K.dim}, not n = {n}")
    lo, hi = float(np.min(K.lo)), float(np.max(K.hi))
    gamma, eta = _glt_constants(p, q, lo, hi, n)

    def fn(X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        return p * (_glt_g(Y, q) - _glt_g(X, q)) + np.einsum("...i,...i->...", X, Y - X)

    def partial_grad_y(x, y):
        return p * _glt_g_grad(np.asarray(y, dtype=float), q) + np.asarray(x, dtype=float)

    def y_parts(x):
        xa = np.asarray(x, dtype=float)
        # einsum, not ``Y @ xa``: a matrix-vector product may round a row
        # differently from the same row alone, breaking the batch contract
        fy = lambda Y: p * _glt_g(np.asarray(Y, dtype=float), q) + np.einsum(
            "...i,i->...", np.asarray(Y, dtype=float), xa)
        gy = lambda Y: p * _glt_g_grad(np.asarray(Y, dtype=float), q) + xa
        return fy, gy

    return Bifunction(
        name=f"glt_example(p={p},q={q},n={n})",
        dim=n,
        domain=K,
        fn=fn,
        gamma=gamma,
        eta=eta,
        partial_grad_y=partial_grad_y,
        y_parts=y_parts,
    )


def bifunction_catalog(name: str, **params) -> Bifunction:
    if name == "value_gap":
        return value_gap(**params)
    if name == "glt_example":
        return glt_example(**params)
    raise ValueError(f"unknown bifunction {name!r}; known: value_gap, glt_example")


# ---------------------------------------------------------------------------
# Bregman kernels
# ---------------------------------------------------------------------------

BREGMAN_NAMES = ("half_sq_norm", "neg_entropy")


def bregman_catalog(name: str, dim: int = 1, shift: float = 0.0) -> BregmanFunction:
    """Bregman kernels: ``half_sq_norm`` (zone R^n) and ``neg_entropy``.

    ``neg_entropy`` uses phi(x) = sum (x_i + shift) ln(x_i + shift) with zone
    ``{x : x_i > -shift}``; the shift lets domains touching zero or negative
    coordinates sit inside the zone.
    """
    dim = int(dim)
    if name == "half_sq_norm":
        return BregmanFunction(
            name="half_sq_norm",
            dim=dim,
            phi=lambda X: 0.5 * np.sum(np.asarray(X, dtype=float) ** 2, axis=-1),
            grad_phi=lambda X: np.asarray(X, dtype=float),
            grad_divergence=lambda Y, X: Y - X,
            zone_contains=lambda X: np.ones(np.asarray(X).shape[:-1], dtype=bool),
            closure_contains=lambda X: np.ones(np.asarray(X).shape[:-1], dtype=bool),
        )
    if name == "neg_entropy":
        s = float(shift)

        def phi(X):
            Z = np.asarray(X, dtype=float) + s
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(Z > 0, Z * np.log(np.where(Z > 0, Z, 1.0)), 0.0)
            return np.where(np.all(Z >= 0, axis=-1), np.sum(term, axis=-1), np.inf)

        def grad_phi(X):
            Z = np.asarray(X, dtype=float) + s
            return np.log(Z) + 1.0

        return BregmanFunction(
            name=f"neg_entropy(shift={s})",
            dim=dim,
            phi=phi,
            grad_phi=grad_phi,
            grad_divergence=lambda Y, X: np.log1p((Y - X) / (X + s)),  # log((y + s) / (x + s))
            zone_contains=lambda X: np.all(np.asarray(X, dtype=float) + s > 0, axis=-1),
            closure_contains=lambda X: np.all(np.asarray(X, dtype=float) + s >= 0, axis=-1),
        )
    raise ValueError(f"unknown Bregman kernel {name!r}")
