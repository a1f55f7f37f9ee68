"""Feasible sets, exact Euclidean projections and deterministic sampling.

Every solver in the package works over one of the closed convex set kinds
defined here.  Points are plain ``numpy`` float64 vectors of shape ``(n,)``;
all set operations also accept batches of shape ``(m, n)`` through the
``*_many`` variants.  Every kind samples one way (``from_unit``: onto the
bounding box, then projected) from counter-based Philox draws, so a given
seed reproduces the same points on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# y, projected from x, meets a.y <= b once a.y - b <= FEAS_TOL (|a|_1 max_j(|x_j|+|y_j|) + |b|)
FEAS_TOL = 1e-14
ACTIVE_SET_MAX_STEPS = 10_000  # the solve is finite; this turns a cycling one into an error
ORTHONORMAL_TOL = 1e-12
# rows per block when many sampled rows are reduced to one number (the
# sampled checks of ``verify``, the constructors' sampled checks,
# glt_example's constants); no result depends on it
BLOCK_ROWS = 1 << 14
# the state norm past which an explicit method or a gradient flow diverges
DIVERGENCE_GUARD = 1e6


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite float64 vector, optionally checking its dimension."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"point must be one-dimensional, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point has non-finite coordinates: {p}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {p.shape[0]}")
    return p


def rng_for(seed: int) -> np.random.Generator:
    """Counter-based Philox generator; the documented source of all sampling."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def unit_blocks(seed: int, n: int, width: int):
    """The (n, width) uniform stream of ``seed`` as ``(start, rows)`` blocks.

    The blocks hold the bits of one (n, width) draw, in order, so the rows
    of any n are a prefix of those of a larger n.
    """
    rng = rng_for(seed)
    for start in range(0, n, BLOCK_ROWS):
        yield start, rng.random((min(BLOCK_ROWS, n - start), width))


class FeasibleSet:
    """Base class for the supported closed convex set kinds."""

    dim: int
    kind: str = "abstract"

    def project(self, x) -> np.ndarray:
        x = as_point(x, self.dim)
        return self._project_many(x[None, :])[0]

    def project_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected shape (m, {self.dim}), got {X.shape}")
        return self._project_many(X)

    def _project_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x, tol: float = 1e-10) -> bool:
        """True iff ``x`` is within Euclidean distance ``tol`` of the set."""
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        x = as_point(x, self.dim)
        return float(np.linalg.norm(x - self.project(x))) <= tol

    def contains_many(self, X: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        d = np.linalg.norm(X - self.project_many(X), axis=-1)
        return d <= tol

    @property
    def is_bounded(self) -> bool:
        raise NotImplementedError

    def bounding_box(self, radius: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box enclosing the set (or its radius-truncated part)."""
        raise NotImplementedError

    def from_unit(self, U: np.ndarray, radius: float | None = None) -> np.ndarray:
        """Unit-cube rows mapped onto the bounding box, then projected into the set.

        Unbounded kinds need ``radius``; box and full-space rows are ``lo + U (hi - lo)``.
        """
        lo, hi = self.bounding_box(radius)
        return self.project_many(lo + U * (hi - lo))

    def sample(self, seed: int, m: int, radius: float | None = None) -> np.ndarray:
        """``from_unit`` of ``m`` Philox rows of ``seed``: deterministic points of the set."""
        if m < 1:
            raise ValueError("m must be positive")
        return self.from_unit(rng_for(seed).random((m, self.dim)), radius)

    def sample_blocks(self, seed: int, m: int, radius: float | None = None):
        """The rows of ``sample(seed, m, radius)``, in blocks of at most ``BLOCK_ROWS``."""
        if m < 1:
            raise ValueError("m must be positive")
        for _, U in unit_blocks(seed, m, self.dim):
            yield self.from_unit(U, radius)


@dataclass(frozen=True)
class FullSpace(FeasibleSet):
    dim: int
    kind: str = field(default="full_space", init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"full_space dimension must be at least 1, got {self.dim}")

    def _project_many(self, X):
        return X.copy()

    @property
    def is_bounded(self):
        return False

    def bounding_box(self, radius=None):
        if radius is None:
            raise ValueError("FullSpace is unbounded: a radius is required")
        r = float(radius)
        return -r * np.ones(self.dim), r * np.ones(self.dim)


@dataclass(frozen=True)
class Box(FeasibleSet):
    lo: np.ndarray
    hi: np.ndarray
    kind: str = field(default="box", init=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be vectors of equal length")
        if np.any(lo > hi):
            raise ValueError("box requires lo_i <= hi_i for all i")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    def _project_many(self, X):
        return np.clip(X, self.lo, self.hi)

    @property
    def is_bounded(self):
        return True

    def bounding_box(self, radius=None):
        return self.lo.copy(), self.hi.copy()


def box1d(lo: float, hi: float) -> Box:
    return Box(np.array([float(lo)]), np.array([float(hi)]))


@dataclass(frozen=True)
class Ball(FeasibleSet):
    center: np.ndarray
    radius: float
    kind: str = field(default="ball", init=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self):
        return self.center.shape[0]

    def _project_many(self, X):
        D = X - self.center
        nrm = np.linalg.norm(D, axis=-1, keepdims=True)
        scale = np.where(nrm > self.radius, self.radius / np.where(nrm == 0, 1.0, nrm), 1.0)
        return self.center + D * scale

    @property
    def is_bounded(self):
        return True

    def bounding_box(self, radius=None):
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True)
class AffineSubspace(FeasibleSet):
    """Affine subspace ``offset + span(basis columns)`` with orthonormal basis."""

    basis: np.ndarray
    offset: np.ndarray
    kind: str = field(default="affine", init=False)

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        off = np.atleast_1d(np.asarray(self.offset, dtype=float))
        if B.ndim != 2 or B.shape[0] != off.shape[0]:
            raise ValueError("basis must be (n, k) with offset of length n")
        gram = B.T @ B
        if B.shape[1] and np.max(np.abs(gram - np.eye(B.shape[1]))) > ORTHONORMAL_TOL:
            raise ValueError("basis columns must be orthonormal (tolerance 1e-12)")
        object.__setattr__(self, "basis", B)
        object.__setattr__(self, "offset", off)

    @property
    def dim(self):
        return self.offset.shape[0]

    @property
    def subspace_dim(self):
        return self.basis.shape[1]

    def _project_many(self, X):
        # einsum, not matrix products: BLAS may round a row differently
        # inside a batch than alone
        coef = np.einsum("mi,ij->mj", X - self.offset, self.basis)
        return self.offset + np.einsum("mj,ij->mi", coef, self.basis)

    @property
    def is_bounded(self):
        return self.subspace_dim == 0

    def bounding_box(self, radius=None):
        if self.subspace_dim == 0:
            return self.offset.copy(), self.offset.copy()
        if radius is None:
            raise ValueError("AffineSubspace is unbounded: a radius is required")
        half = float(radius) * np.linalg.norm(self.basis, axis=1)
        return self.offset - half, self.offset + half


def hyperplane(normal, value: float) -> AffineSubspace:
    """The affine subspace ``{x : normal . x = value}``."""
    a = as_point(normal)
    nrm = float(np.linalg.norm(a))
    if nrm == 0:
        raise ValueError("normal must be nonzero")
    a = a / nrm
    offset = a * (float(value) / nrm)
    # Orthonormal basis of the orthogonal complement of a.
    q, _ = np.linalg.qr(np.column_stack([a, np.eye(a.shape[0])]))
    return AffineSubspace(q[:, 1 : a.shape[0]], offset)


@dataclass(frozen=True)
class HalfspaceIntersection(FeasibleSet):
    """Intersection of halfspaces ``normal_i . x <= bound_i``."""

    normals: np.ndarray
    bounds: np.ndarray
    kind: str = field(default="halfspaces", init=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.normals, dtype=float))
        b = np.atleast_1d(np.asarray(self.bounds, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise ValueError("one bound per normal is required")
        if np.any(np.linalg.norm(A, axis=1) == 0):
            raise ValueError("normals must be nonzero")
        object.__setattr__(self, "normals", A)
        object.__setattr__(self, "bounds", b)

    @property
    def dim(self):
        return self.normals.shape[1]

    def _project_many(self, X):
        # Goldfarb and Idnani's dual active-set method with H = I: a row adds its most
        # violated halfspace p along the part z of p's normal orthogonal to the row's
        # active normals, first dropping each active halfspace whose multiplier would turn
        # negative (a normal within sqrt(FEAS_TOL) radians of their span lies in it).  The
        # at most dim active halfspaces sit in slots, an empty one an identity row of the
        # Gram matrix.  A feasible row takes one refinement step onto its active planes.
        # einsum and the stacked solve round a row alike in any batch.
        A, b = self.normals, self.bounds
        sq, l1 = np.einsum("ij,ij->i", A, A), np.abs(A).sum(axis=1)
        out, rows, Y = X.copy(), np.arange(len(X)), X
        act, u, p, up = np.full(X.shape, -1), np.zeros(X.shape), np.full(len(X), -1), np.zeros(len(X))
        for _ in range(ACTIVE_SET_MAX_STEPS):
            N = np.where((act >= 0)[..., None], A[act], 0.0)
            G = np.einsum("rkj,rlj->rkl", N, N) + np.eye(self.dim) * (act < 0)[..., None]
            S = np.einsum("ij,kj->ik", Y, A) - b
            tol = FEAS_TOL * ((np.abs(Y) + np.abs(X[rows])).max(axis=1)[:, None] * l1 + np.abs(b))
            done = (p < 0) & np.all(S <= tol, axis=1)
            res = np.where(act >= 0, np.take_along_axis(S, act, 1), 0.0)[done]
            w = np.linalg.solve(G[done], res[..., None])[..., 0]
            out[rows[done]] = Y[done] - np.einsum("rk,rkj->rj", w, N[done])
            p = np.where(p < 0, np.argmax((S - tol) / np.sqrt(sq), axis=1), p)
            rows, Y, act, N, G, u, p, up, S = (v[~done] for v in (rows, Y, act, N, G, u, p, up, S))
            if rows.size == 0:
                return out
            i = np.arange(rows.size)
            r = np.linalg.solve(G, np.einsum("rkj,rj->rk", N, A[p])[..., None])[..., 0]
            z = A[p] - np.einsum("rk,rkj->rj", r, N)
            zz = np.einsum("ij,ij->i", z, z)
            spanned = (zz <= FEAS_TOL * sq[p]) | np.all(act >= 0, axis=1)
            t1 = np.where(spanned, np.inf, S[i, p] / np.where(spanned, 1.0, zz))
            ratio = np.where(r > 0, u / np.where(r > 0, r, 1.0), np.inf)
            t = np.minimum(t1, ratio.min(axis=1))
            if np.any(np.isinf(t)):  # p's normal is a nonpositive sum of active ones
                raise ValueError("the halfspace intersection is empty")
            full = t == t1
            Y = Y - np.where(spanned, 0.0, t)[:, None] * z
            u, up = u - t[:, None] * r, up + t
            k = np.where(full, np.argmin(act >= 0, axis=1), np.argmin(ratio, axis=1))
            act[i, k], u[i, k] = np.where(full, p, -1), np.where(full, up, 0.0)
            p[full], up[full] = -1, 0.0
        raise ValueError(f"{rows.size} rows unprojected after {ACTIVE_SET_MAX_STEPS} steps")

    @property
    def is_bounded(self):
        # Not decidable cheaply in general; callers must pass a radius.
        return False

    def bounding_box(self, radius=None):
        if radius is None:
            raise ValueError("HalfspaceIntersection needs a radius for bounding")
        r = float(radius)
        return -r * np.ones(self.dim), r * np.ones(self.dim)

