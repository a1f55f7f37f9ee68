import itertools
import tracemalloc

import numpy as np
import pytest

from sqopt.geometry import (
    AffineSubspace,
    Ball,
    Box,
    FullSpace,
    HalfspaceIntersection,
    box1d,
    feasible_set_from_spec,
    hyperplane,
    rng_for,
)

ALL_SETS = [
    Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
    Ball(np.zeros(2), 1.0),
    hyperplane(np.array([1.0, 1.0]), 1.0),
    FullSpace(2),
    HalfspaceIntersection(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                          np.array([1.0, 1.0, 0.5])),
]

# the config spec of each set of ALL_SETS, written out
SPECS = {
    "box": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    "ball": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
    "affine": {"kind": "affine", "normal": [1.0, 1.0], "value": 1.0},
    "full_space": {"kind": "full_space", "dim": 2},
    "halfspaces": {"kind": "halfspaces", "normals": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                   "bounds": [1.0, 1.0, 0.5]},
}


def test_box_projection_clamps():
    K = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert np.allclose(K.project([2.0, -1.0]), [1.0, 0.0])


def test_ball_projection_radial():
    K = Ball(np.zeros(2), 1.0)
    assert np.allclose(K.project([3.0, 4.0]), [0.6, 0.8])


def test_affine_projection_symmetry():
    K = hyperplane(np.array([1.0, 1.0]), 1.0)  # x1 + x2 = 1
    assert np.allclose(K.project([0.0, 0.0]), [0.5, 0.5], atol=1e-12)


def test_affine_requires_orthonormal_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        AffineSubspace(np.array([[1.0], [1.0]]), np.zeros(2))


@pytest.mark.parametrize("K", ALL_SETS, ids=lambda K: K.kind)
def test_projection_idempotent_and_feasible(K):
    X = 3.0 * (2.0 * np.random.Generator(np.random.Philox(key=5)).random((200, K.dim)) - 1.0)
    P = K.project_many(X)
    P2 = K.project_many(P)
    assert np.max(np.linalg.norm(P - P2, axis=-1)) <= 1e-12
    assert np.all(K.contains_many(P, tol=1e-10))


@pytest.mark.parametrize("K", ALL_SETS, ids=lambda K: K.kind)
def test_projection_nonexpansive(K):
    rng = np.random.Generator(np.random.Philox(key=6))
    X = 4.0 * (2.0 * rng.random((300, K.dim)) - 1.0)
    Y = 4.0 * (2.0 * rng.random((300, K.dim)) - 1.0)
    lhs = np.linalg.norm(K.project_many(X) - K.project_many(Y), axis=-1)
    rhs = np.linalg.norm(X - Y, axis=-1)
    assert np.all(lhs <= rhs + 1e-10)


def test_single_halfspace_projection_analytic():
    K = HalfspaceIntersection(np.array([[3.0, 4.0]]), np.array([0.0]))
    x = np.array([3.0, 4.0])  # violation 25, normal norm 5
    assert np.allclose(K.project(x), x - np.array([3.0, 4.0]), atol=1e-12)


def test_dykstra_matches_box():
    # the positive quadrant cut at x+y <= 1, reachable as halfspaces
    K = HalfspaceIntersection(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 1.0])
    )
    p = K.project([1.0, 1.0])
    assert np.allclose(p, [0.5, 0.5], atol=1e-9)
    p2 = K.project([-1.0, 0.5])
    assert np.allclose(p2, [0.0, 0.5], atol=1e-9)


def test_contains_tolerances():
    K = box1d(0.0, 1.0)
    assert K.contains([1.0000001], tol=1e-6)
    assert not K.contains([1.0000001], tol=1e-9)
    B = Ball(np.zeros(2), 1.0)
    assert not B.contains([1.1, 0.0], tol=1e-3)
    assert FullSpace(3).contains([1e5, -2.0, 0.0])
    with pytest.raises(ValueError):
        K.contains([0.5], tol=-1.0)


def test_sampling_deterministic_and_member():
    K = Box(np.zeros(2), np.ones(2))
    a = K.sample(seed=7, m=3)
    b = K.sample(seed=7, m=3)
    assert np.array_equal(a, b)
    assert a.shape == (3, 2)
    assert np.all(K.contains_many(a))
    assert not np.array_equal(a, K.sample(seed=8, m=3))


def test_ball_sampling_monte_carlo_mean():
    K = Ball(np.zeros(2), 1.0)
    S = K.sample(seed=11, m=10_000)
    assert np.all(K.contains_many(S, tol=1e-12))
    assert np.linalg.norm(S.mean(axis=0)) < 0.05


@pytest.mark.parametrize("K", ALL_SETS, ids=lambda K: K.kind)
def test_sample_is_the_unit_map_of_the_philox_draws(K):
    U = rng_for(17).random((200, K.dim))
    S = K.sample(seed=17, m=200, radius=3.0)
    assert np.array_equal(S, K.from_unit(U, 3.0))
    assert np.all(K.contains_many(S, tol=1e-10))


@pytest.mark.parametrize("K", [ALL_SETS[0], FullSpace(2)], ids=lambda K: K.kind)
def test_box_and_full_space_samples_are_the_draws_scaled_bit_for_bit(K):
    # the projection leaves them as drawn
    lo, hi = K.bounding_box(3.0)
    U = rng_for(17).random((200, K.dim))
    assert np.array_equal(K.sample(seed=17, m=200, radius=3.0), lo + U * (hi - lo))


def test_unbounded_sampling_requires_radius():
    with pytest.raises(ValueError, match="radius"):
        FullSpace(2).sample(seed=0, m=5)
    S = FullSpace(2).sample(seed=0, m=5, radius=2.0)
    assert np.all(np.abs(S) <= 2.0)
    with pytest.raises(ValueError, match="radius"):
        hyperplane(np.array([1.0, 0.0]), 0.0).sample(seed=0, m=5)


def test_dimension_and_finiteness_errors():
    K = Box(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="dimension"):
        K.project([1.0])
    with pytest.raises(ValueError, match="finite"):
        K.project([np.nan, 0.0])
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 0.0)


@pytest.mark.parametrize("K", ALL_SETS, ids=lambda K: K.kind)
def test_spec_round_trip(K):
    K2 = feasible_set_from_spec(SPECS[K.kind])
    X = 2.0 * (2.0 * np.random.Generator(np.random.Philox(key=9)).random((50, K.dim)) - 1.0)
    assert np.allclose(K.project_many(X), K2.project_many(X), atol=1e-12)


def _reference_dykstra(A, b, x):
    """Plain one-point Dykstra, written out independently of the package."""
    y = x.copy()
    inc = np.zeros_like(A)
    for _ in range(10_000):
        shift = 0.0
        for i in range(A.shape[0]):
            w = y + inc[i]
            y_new = w - max(0.0, (A[i] @ w - b[i]) / (A[i] @ A[i])) * A[i]
            inc[i] = w - y_new
            shift += float(np.linalg.norm(y_new - y))
            y = y_new
        if shift <= 1e-13:
            break
    return y


def test_lockstep_dykstra_equals_row_by_row():
    # x1 >= 0.5, x2 >= 0.2, x1 + x2 >= 1, x1 + 2 x2 <= 4
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 2.0]])
    b = np.array([-0.5, -0.2, -1.0, 4.0])
    K = HalfspaceIntersection(A, b)
    inside = np.array([4.0, 2.0]) * np.random.Generator(np.random.Philox(key=71)).random(
        (8000, 2))
    inside = inside[np.all(inside @ A.T <= b, axis=1)][:1000]
    outside = 6.0 * (2.0 * np.random.Generator(np.random.Philox(key=72)).random((4000, 2)) - 1.0)
    outside = outside[np.any(outside @ A.T > b, axis=1)][:1000]
    X = np.concatenate([inside, outside])
    assert inside.shape[0] == outside.shape[0] == 1000
    P = K.project_many(X)
    assert np.array_equal(P, np.stack([K.project(x) for x in X]))
    assert np.array_equal(P[:1000], inside)
    ref = np.stack([_reference_dykstra(A, b, x) for x in outside[:200]])
    assert np.max(np.abs(P[1000:1200] - ref)) <= 1e-12


def _reference_projection(A, b, x):
    """The feasible point nearest x among x's projections onto the affine hulls of
    up to dim of the halfspaces: the projection, found by enumeration."""
    best = None
    for k in range(A.shape[1] + 1):
        for face in itertools.combinations(range(A.shape[0]), k):
            F = A[list(face)]
            if np.linalg.matrix_rank(F) < k:
                continue
            y = x - F.T @ np.linalg.solve(F @ F.T, F @ x - b[list(face)]) if k else x
            if np.all(A @ y - b <= 1e-12) and (best is None
                                               or np.linalg.norm(y - x) < np.linalg.norm(best - x)):
                best = y
    return best


def test_projection_equals_the_affine_hull_reference():
    rng = np.random.Generator(np.random.Philox(key=95))
    cases = [(rng.standard_normal((2 * d, d)), rng.random(2 * d) + 0.5) for d in (2, 3, 4) * 3]
    # three halfspaces through the vertex (1, 1)
    cases.append((np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0, 2.0])))
    # x + 2y <= 1 twice, at two scales, x + 2y <= 5/6 scaled by 3, x >= 0 and y >= 0
    cases.append((np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [-1.0, 0.0], [0.0, -1.0]]),
                  np.array([1.0, 2.0, 2.5, 0.0, 0.0])))
    for A, b in cases:
        X = 3.0 * rng.standard_normal((40, A.shape[1]))
        ref = np.stack([_reference_projection(A, b, x) for x in X])
        assert np.max(np.abs(HalfspaceIntersection(A, b).project_many(X) - ref)) <= 1e-13


_POLYTOPE = HalfspaceIntersection(np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 2.0]]),
                                  np.array([-0.5, -0.2, -1.0, 4.0]))


def test_reprojecting_projected_points_is_bit_identical():
    X = 6.0 * (2.0 * np.random.Generator(np.random.Philox(key=96)).random((20_000, 2)) - 1.0)
    P = _POLYTOPE.project_many(X)
    assert np.array_equal(_POLYTOPE.project_many(P), P)


def test_normal_cone_points_land_on_the_vertex():
    # (0.5, 0.5) plus a nonnegative sum of the normals (-1, 0) and (-1, -1) of
    # its two active halfspaces
    W = np.random.Generator(np.random.Philox(key=97)).random((40_000, 2))
    X = 0.5 - W @ np.array([[1.0, 0.0], [1.0, 1.0]])
    X = X[np.linalg.norm(X, axis=1) <= 1.0]
    assert X.shape[0] > 10_000
    assert np.max(np.abs(_POLYTOPE.project_many(X) - 0.5)) <= 1.2e-16


def test_many_halfspaces_project_feasibly_in_bounded_memory():
    # 64 tangent halfspaces of the unit circle: a row keeps at most dim active
    # normals, so memory is of order rows * (halfspaces + dim^2)
    theta = 2.0 * np.pi * np.arange(64) / 64
    A = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    K = HalfspaceIntersection(A, np.ones(64))
    X = 4.0 * np.random.Generator(np.random.Philox(key=98)).standard_normal((1 << 14, 2))
    tracemalloc.start()
    try:
        P = K.project_many(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(P @ A.T - 1.0) <= 1e-13
    assert peak < 50e6


@pytest.mark.parametrize("A, b", [
    ([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0]),  # x <= -1 and x >= 1
    ([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [-1.0, -1.0, 1.0]),  # x, y >= 1 and x + y <= 1
], ids=["parallel", "triangle"])
def test_empty_intersection_is_refused(A, b):
    K = HalfspaceIntersection(np.array(A), np.array(b))
    with pytest.raises(ValueError, match="halfspace intersection is empty"):
        K.project_many(np.array([[0.3, 0.2], [5.0, -4.0]]))


@pytest.mark.parametrize("key", range(5))
def test_projected_points_reproject_alike_in_a_batch_and_alone(key):
    # the violation test ``X @ A.T - b > 0`` picked different rows for 372 of
    # these 15,000 points on the boundary inside the batch than alone
    rng = np.random.Generator(np.random.Philox(key=90 + key))
    for d in (2, 3, 4):
        K = HalfspaceIntersection(rng.standard_normal((2 * d, d)), rng.random(2 * d) + 0.5)
        P = K.project_many(rng.standard_normal((1000, d)))
        assert np.array_equal(K.project_many(P), np.stack([K.project(p) for p in P]))


def test_single_halfspace_batch_equals_row_by_row():
    K = HalfspaceIntersection(np.array([[3.0, 4.0]]), np.array([1.0]))
    X = 3.0 * (2.0 * np.random.Generator(np.random.Philox(key=73)).random((500, 2)) - 1.0)
    P = K.project_many(X)
    assert np.array_equal(P, np.stack([K.project(x) for x in X]))
    assert np.allclose(P @ np.array([3.0, 4.0]), np.minimum(X @ np.array([3.0, 4.0]), 1.0),
                       atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_affine_batch_equals_row_by_row(n):
    # (X - offset) @ basis @ basis.T rounded 43-63 of these 64 rows differently
    # inside the batch than alone
    rng = np.random.Generator(np.random.Philox(key=80 + n))
    basis, _ = np.linalg.qr(rng.standard_normal((n, n - 1)))
    K = AffineSubspace(basis, rng.standard_normal(n))
    X = 3.0 * rng.standard_normal((64, n))
    P = K.project_many(X)
    assert np.array_equal(P, np.stack([K.project(x) for x in X]))
    assert np.allclose(K.project_many(P), P, atol=1e-12)


def test_hyperplane_of_the_line_is_a_point():
    # a 1-D hyperplane has an empty basis, whose orthonormality check raised
    # "zero-size array to reduction operation maximum"
    K = hyperplane(np.array([2.0]), 1.0)
    assert K.is_bounded and K.subspace_dim == 0
    assert np.array_equal(K.project_many(np.array([[3.0], [-1.0]])), np.array([[0.5], [0.5]]))
    assert np.array_equal(K.sample(seed=0, m=2), np.array([[0.5], [0.5]]))


def test_full_space_needs_a_positive_dimension():
    with pytest.raises(ValueError, match="at least 1"):
        FullSpace(0)
