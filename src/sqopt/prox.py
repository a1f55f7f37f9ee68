"""Global solution of (possibly nonconvex) proximal subproblems.

Proximal subproblems of strongly quasiconvex objectives need a global search:
the regularized objective is only guaranteed quasiconvex for all parameters
when the underlying function is convex.  The solver is a deterministic
multistart: a dense grid for one dimension, a square grid for two, a Halton
set above that, every start refined in lockstep by projected gradient (when a
gradient exists) or compass search (when not).  Projected-gradient rows take
Barzilai-Borwein step lengths, capped at twice the last accepted step, under
an Armijo test; a rejected step is halved.

After refinement the near-ties (within 1e-8 of the best value) are grouped
into clusters of points within 1e-7 of each other; each cluster is one
minimizer, represented by its best-valued member.  Only the representatives
are polished (Newton on the gradient, or parabolic steps without one), all in
one batch, and the other members are dropped.  The representatives that are
still near-ties are all retained, since the proximity operator of a nonconvex
function is set-valued, and the returned point is the lexicographically
smallest of them, which keeps traces deterministic.

One solve handles a stack of problems that share the set and the
``GlobalSolveConfig``.  Problem ``p`` minimizes ``fn(c_p, .)`` for its own
center ``c_p``: a proximal center, or the ``x`` of an equilibrium
certificate ``min_y f(x, y)``.  The callables are paired, ``fn(Xc, Y)`` and
``grad(Xc, Y)`` evaluating row ``i`` of ``Y`` against center row ``i`` of
``Xc``, and give each row the bits it gets alone.  Seeding, the selection
of starts, the near-tie clusters and the result are per problem; the refine
and the polish run the rows of all problems together, in one batch per
step.  The refines keep a working set: the active rows are compacted
together with their values, steps, gradients and owning problem, and a row
is written back once, when it retires.  ``prox``, ``prox_point``,
``bregman_prox`` and ``global_min`` are the one-center case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import BregmanFunction, Objective
from .geometry import FeasibleSet

VALUE_TIE_TOL = 1e-8
DEDUPE_TOL = 1e-7
ARMIJO_C = 1e-4

_HALTON_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class GlobalSolveConfig:
    """Multistart configuration; identical config + inputs give identical output."""

    n_starts: int = 64
    grid_density: int = 10_000
    local_tol: float = 1e-9
    max_local_iters: int = 400
    seed: int = 0
    search_radius: float | None = None

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if self.grid_density < 1:
            raise ValueError("grid_density must be at least 1")
        if self.max_local_iters < 0:
            raise ValueError("max_local_iters must be nonnegative")
        if self.local_tol <= 0:
            raise ValueError("local_tol must be positive")


@dataclass
class ProxResult:
    point: np.ndarray
    value: float
    residual: float
    candidates: list
    n_evals: int = 0


def _halton(m: int, dim: int) -> np.ndarray:
    out = np.empty((m, dim))
    for j in range(dim):
        b = _HALTON_PRIMES[j % len(_HALTON_PRIMES)]
        seq = np.zeros(m)
        f = 1.0
        i = np.arange(1, m + 1)
        work = i.copy()
        while np.any(work > 0):
            f /= b
            seq += f * (work % b)
            work //= b
        out[:, j] = seq
    return out


def _seed_points(K: FeasibleSet, cfg: GlobalSolveConfig) -> np.ndarray:
    lo, hi = K.bounding_box(cfg.search_radius)
    n = K.dim
    if n == 1:
        m = cfg.grid_density + (cfg.grid_density % 2 == 0)  # odd count keeps exact centers
        pts = np.linspace(lo[0], hi[0], m)[:, None]
    elif n == 2:
        k = int(np.ceil(np.sqrt(cfg.n_starts)))
        k += k % 2 == 0
        ax = [np.linspace(lo[j], hi[j], k) for j in range(2)]
        g = np.meshgrid(*ax, indexing="ij")
        pts = np.stack([a.ravel() for a in g], axis=-1)
    else:
        pts = lo + _halton(cfg.n_starts, n) * (hi - lo)
    return K.project_many(pts)


class _Stack:
    """The paired callables of a stack of problems, addressed by problem index.

    Problem ``p`` has center row ``C[p]``.  ``fn(own, Y)`` evaluates row ``i``
    of ``Y`` in problem ``own[i]``, and ``grad(own, Y)`` likewise.  The
    owners of every ``fn`` batch are kept, so ``counts()`` gives each
    problem's evaluations.
    """

    def __init__(self, fn, grad, C: np.ndarray):
        self.C = C
        self._fn, self._grad = fn, grad
        self._owners = [np.zeros(0, dtype=int)]

    def fn(self, own, Y):
        self._owners.append(own)
        return self._fn(self.C.take(own, axis=0), Y)

    def grad(self, own, Y):
        return np.asarray(self._grad(self.C.take(own, axis=0), Y), dtype=float)

    def counts(self) -> np.ndarray:
        return np.bincount(np.concatenate(self._owners), minlength=self.C.shape[0])


def _norms(V):
    return np.sqrt(np.einsum("ij,ij->i", V, V))


def _refine_pg(fn, grad, K, X, F, own, cfg):
    """Lockstep projected gradient with Armijo backtracking over all starts.

    Row ``i`` belongs to problem ``own[i]``; ``fn(own, Y)`` and
    ``grad(own, Y)`` evaluate each row in its own problem.  Each row keeps
    the gradient at its current point, evaluated once on entry and then only
    at accepted trial points.  After an accepted move ``s`` with gradient
    change ``y`` the row's next trial step is the Barzilai-Borwein length
    ``s.s / s.y``, capped at twice the accepted step (and at ``step_cap``);
    where ``s.y <= 0`` it is twice the accepted step.  The doubling cap
    matters across kinks, where the gradient jumps and the BB length means
    nothing.  A rejected trial halves the step.

    The active rows form a working set: their points, values, gradients,
    steps and owners are compacted together and updated in place, and a row
    is written back to ``X`` and ``F`` once, when it retires.
    """
    lo, hi = K.bounding_box(cfg.search_radius)
    step_cap = 1e3 * (float(np.max(hi - lo)) + 1.0)
    gtol = np.sqrt(cfg.local_tol)
    rows, o, x, f = np.arange(X.shape[0]), own, X.copy(), F.copy()
    step = np.full(X.shape[0], 0.25 * float(np.max(hi - lo)) + 1e-12)
    g = grad(o, x)
    for _ in range(cfg.max_local_iters):
        if rows.size == 0:
            break
        C = K.project_many(x - step[:, None] * g)
        FC = fn(o, C)
        move = C - x
        accept = FC <= f + ARMIJO_C * np.einsum("ij,ij->i", g, move)
        # converged: a tiny accepted move with a near-stationary gradient
        # (the gradient guard keeps small-step rows far from optimality alive)
        done = accept & (_norms(move) <= cfg.local_tol) & (_norms(g) <= gtol)
        acc = np.flatnonzero(accept)
        if acc.size:
            GC = grad(o[acc], C[acc])
            s, y = move[acc], GC - g[acc]
            sy = np.einsum("ij,ij->i", s, y)
            bb = np.divide(np.einsum("ij,ij->i", s, s), sy,
                           out=np.full(acc.size, np.inf), where=sy > 0)
            step[acc] = np.minimum(np.minimum(bb, step[acc] * 2.0), step_cap)
            x[acc], f[acc], g[acc] = C[acc], FC[acc], GC
        rej = ~accept
        step[rej] *= 0.5
        done |= rej & (step < cfg.local_tol)
        if np.any(done):
            X[rows[done]], F[rows[done]] = x[done], f[done]
            keep = ~done
            rows, o, x, f, g, step = rows[keep], o[keep], x[keep], f[keep], g[keep], step[keep]
    X[rows], F[rows] = x, f
    return X, F


def _refine_compass(fn, K, X, F, own, cfg):
    """Lockstep compass (pattern) search; no gradient needed.

    Rows, owners and the working set as in ``_refine_pg``.
    """
    lo, hi = K.bounding_box(cfg.search_radius)
    n = K.dim
    eye = np.eye(n)
    dirs = np.concatenate([eye, -eye], axis=0)  # (2n, n)
    rows, x, f = np.arange(X.shape[0]), X.copy(), F.copy()
    step = np.full(X.shape[0], 0.25 * float(np.max(hi - lo)) + 1e-12)
    o = np.repeat(own, 2 * n)  # the owner of every candidate
    for _ in range(cfg.max_local_iters * 4):
        if rows.size == 0:
            break
        m = rows.size
        cand = x[:, None, :] + step[:, None, None] * dirs[None, :, :]
        cand = K.project_many(cand.reshape(m * 2 * n, n))
        fc = fn(o, cand).reshape(m, 2 * n)
        best = np.argmin(fc, axis=1)
        fbest = fc[np.arange(m), best]
        improved = fbest < f
        x[improved] = cand.reshape(m, 2 * n, n)[improved, best[improved]]
        f[improved] = fbest[improved]
        stay = ~improved
        step[stay] *= 0.5
        done = stay & (step < cfg.local_tol)
        if np.any(done):
            X[rows[done]], F[rows[done]] = x[done], f[done]
            keep = ~done
            rows, x, f, step = rows[keep], x[keep], f[keep], step[keep]
            o = o.reshape(m, 2 * n)[keep].ravel()
    X[rows], F[rows] = x, f
    return X, F


def _no_worse(F_new, F):
    """True where ``F_new`` exceeds ``F`` by at most one ulp.

    Values one ulp apart are ties at the floating-point floor, and a
    best-valued representative often sits on a favourably rounded one; a
    strict comparison would reject polish steps that move it closer to the
    minimizer.
    """
    return F_new <= F + np.spacing(np.abs(F))


def _polish_newton(fn, grad, K, X, F, own):
    """Gradient-root polish along the steepest direction for smooth subproblems.

    Value comparisons bottom out at sqrt(machine eps); driving the gradient
    to zero instead reaches machine precision at interior minima.  Rows step
    in lockstep; a row stops as soon as its step is clipped by the constraint
    or its gradient norm grows.  A polished row replaces its start only if
    its value does not increase (see ``_no_worse``).  Row ``i`` belongs to
    problem ``own[i]``, as in ``_refine_pg``.
    """
    P = X.copy()
    G = grad(own, P)
    gn = _norms(G)
    idx = np.arange(P.shape[0])  # rows still stepping
    for _ in range(30):
        idx = idx[gn[idx] > 1e-15 * (1.0 + _norms(P[idx]))]
        if idx.size == 0:
            break
        D = -G[idx] / gn[idx, None]
        eps = 1e-7 * (1.0 + _norms(P[idx]))
        curv = np.einsum("ij,ij->i", grad(own[idx], P[idx] + eps[:, None] * D) - G[idx], D) / eps
        ok = np.isfinite(curv) & (curv > 0)
        idx, D, curv = idx[ok], D[ok], curv[ok]
        target = P[idx] + (gn[idx] / curv)[:, None] * D
        cand = K.project_many(target)
        # a clipped step means the constraint became active: keep the
        # comparison-phase point
        ok = np.all(cand == target, axis=-1)
        idx, cand = idx[ok], cand[ok]
        if idx.size == 0:
            break
        G_new = grad(own[idx], cand)
        gn_new = _norms(G_new)
        ok = np.isfinite(gn_new) & (gn_new < gn[idx])
        idx = idx[ok]
        P[idx], G[idx], gn[idx] = cand[ok], G_new[ok], gn_new[ok]
    FP = fn(own, P)
    keep = _no_worse(FP, F)
    return np.where(keep[:, None], P, X), np.where(keep, FP, F)


def _polish_parabolic(fn, K, X, F, own, rounds: int = 2, delta: float = 1e-5):
    """Coordinate-wise parabolic vertex steps for derivative-free smooth minima.

    Improves the sqrt(eps) comparison floor to ~1e-11 at smooth interior
    minima; moves are only accepted when they do not increase the value (see
    ``_no_worse``), so kink and boundary minima (already sharp for compass
    search) are kept.  All rows are probed together, one coordinate at a time;
    row ``i`` belongs to problem ``own[i]``, as in ``_refine_pg``.
    """
    X, F = X.copy(), F.copy()
    r, n = X.shape
    for _ in range(rounds):
        for j in range(n):
            d = delta * (1.0 + np.abs(X[:, j]))
            probes = np.concatenate([X, X])
            probes[:r, j] += d
            probes[r:, j] -= d
            # an axis that touches the boundary is left to compass search
            clipped = np.any(K.project_many(probes) != probes, axis=-1).reshape(2, r)
            idx = np.nonzero(~np.any(clipped, axis=0))[0]
            if idx.size == 0:
                continue
            fpm = fn(np.concatenate([own[idx], own[idx]]),
                     np.concatenate([probes[idx], probes[r + idx]]))
            fp, fm = fpm[: idx.size], fpm[idx.size :]
            denom = fp - 2.0 * F[idx] + fm
            ok = np.isfinite(denom) & (denom > 0)
            idx, fp, fm, denom = idx[ok], fp[ok], fm[ok], denom[ok]
            if idx.size == 0:
                continue
            cand = X[idx].copy()
            cand[:, j] -= d[idx] * (fp - fm) / (2.0 * denom)
            cand = K.project_many(cand)
            fc = fn(own[idx], cand)
            acc = _no_worse(fc, F[idx])
            X[idx[acc]], F[idx[acc]] = cand[acc], fc[acc]
    return X, F


def _tie_representatives(X, F) -> np.ndarray:
    """One index per cluster of near-ties: the cluster's best-valued member.

    Near-ties are the points within ``VALUE_TIE_TOL`` of the best value.
    Taken in order of value (ties by index), each near-tie not yet claimed
    represents a new cluster and claims every near-tie within ``DEDUPE_TOL``.
    """
    near = np.nonzero(F <= float(np.min(F)) + VALUE_TIE_TOL)[0]
    order = near[np.argsort(F[near], kind="stable")]
    P = X[order]
    free = np.ones(order.shape[0], dtype=bool)
    reps = []
    while np.any(free):
        i = int(np.argmax(free))
        reps.append(order[i])
        free &= _norms(P - P[i]) > DEDUPE_TOL
    return np.asarray(reps, dtype=int)


def _collect(X, F, n_evals) -> ProxResult:
    reps = _tie_representatives(X, F)
    reps = reps[np.lexsort(X[reps].T[::-1])]  # lexicographic by coordinates
    return ProxResult(
        point=X[reps[0]].copy(),
        value=float(F[reps[0]]),
        residual=0.0,
        candidates=[X[i].copy() for i in reps],
        n_evals=n_evals,
    )


def _global_min_impl(raw_fn, raw_grad, K: FeasibleSet, cfg: GlobalSolveConfig, C: np.ndarray,
                     seed_centers: bool = False) -> list[ProxResult]:
    """Global minimizers over ``K`` of ``fn(c, .)``, one problem per center row ``c`` of ``C``.

    ``raw_fn(Xc, Y)`` and ``raw_grad(Xc, Y)`` (or None) pair row ``i`` of
    ``Y`` with center row ``i`` of ``Xc``; a single center row broadcasts
    over all rows of ``Y``.  With ``seed_centers`` each problem's projected
    center is an extra start.  Returns one result per problem, each what
    that problem gets when solved alone.
    """
    stack = _Stack(raw_fn, raw_grad, C)
    grid = _seed_points(K, cfg)
    starts, values = [], []
    n_seed = np.zeros(C.shape[0], dtype=int)
    for p in range(C.shape[0]):
        seeds = np.concatenate([K.project_many(C[p : p + 1]), grid]) if seed_centers else grid
        n_extra = seeds.shape[0] - grid.shape[0]
        F = raw_fn(C[p : p + 1], seeds)  # one center row broadcast over the seeds
        n_seed[p] = seeds.shape[0]
        if not np.all(np.isfinite(F)):
            finite = np.isfinite(F)
            if not np.any(finite):
                raise ValueError("objective is not finite anywhere on the seed set")
            seeds, F = seeds[finite], F[finite]
        if K.dim == 1 and seeds.shape[0] > cfg.n_starts:
            # dense 1D grid: refine only the most promising points plus the extras
            keep = np.argsort(F[n_extra:], kind="stable")[:16] + n_extra
            keep = np.concatenate([np.arange(n_extra), keep])
            seeds, F = seeds[keep], F[keep]
        starts.append(seeds)
        values.append(F)
    own = np.repeat(np.arange(C.shape[0]), [s.shape[0] for s in starts])
    X, F = np.concatenate(starts), np.concatenate(values)
    if raw_grad is not None:
        X, F = _refine_pg(stack.fn, stack.grad, K, X, F, own, cfg)
    else:
        X, F = _refine_compass(stack.fn, K, X, F, own, cfg)
    # near-ties within DEDUPE_TOL are one minimizer: polish only each
    # cluster's representative and drop the rest, so no unpolished point
    # can be returned
    reps = []
    for p in range(C.shape[0]):
        mine = np.flatnonzero(own == p)
        reps.append(mine[_tie_representatives(X[mine], F[mine])])
    reps = np.concatenate(reps)
    X, F, own = X[reps], F[reps], own[reps]
    if raw_grad is not None:
        X, F = _polish_newton(stack.fn, stack.grad, K, X, F, own)
    else:
        X, F = _polish_parabolic(stack.fn, K, X, F, own)
    n_evals = n_seed + stack.counts()
    return [_collect(X[own == p], F[own == p], int(n_evals[p])) for p in range(C.shape[0])]


def global_min(h: Objective, K: FeasibleSet | None = None, cfg: GlobalSolveConfig | None = None) -> ProxResult:
    """Brute-force global minimizer of ``h`` over ``K`` (the project-wide oracle)."""
    K = h.domain if K is None else K
    cfg = cfg or GlobalSolveConfig()
    fn = lambda Xc, Y: h.value_many(Y)
    grad = (lambda Xc, Y: h.grad_many(Y)) if h.grad else None
    return _global_min_impl(fn, grad, K, cfg, np.zeros((1, 0)))[0]


def _prox_objective(base_fn, base_grad, beta: float):
    """Quadratically regularized subproblem ``base_fn(y) + ||y - c||^2 / (2 beta)``.

    The callables are paired, ``fn(Xc, Y)`` with one center row per row of
    ``Y``.  Shared by the minimization and equilibrium paths so that
    value-gap bifunctions reproduce plain proximal steps bit for bit.
    """

    def fn(Xc, Y):
        D = Y - Xc
        return base_fn(Y) + np.sum(D * D, axis=-1) / (2.0 * beta)

    grad = None
    if base_grad is not None:

        def grad(Xc, Y):
            return base_grad(Y) + (Y - Xc) / beta

    return fn, grad


def prox_point(base_fn, base_grad, K: FeasibleSet, beta: float, x, cfg: GlobalSolveConfig) -> ProxResult:
    """Proximal step for an arbitrary evaluation callable (internal engine)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("prox center must be finite")
    fn, grad = _prox_objective(base_fn, base_grad, float(beta))
    res = _global_min_impl(fn, grad, K, cfg, x[None, :], seed_centers=True)[0]
    res.residual = float(np.linalg.norm(res.point - x))
    return res


def prox(h: Objective, K: FeasibleSet | None = None, beta: float = 1.0, x=None, cfg: GlobalSolveConfig | None = None) -> ProxResult:
    """Global proximity operator: argmin over K of h(y) + ||y - x||^2 / (2 beta)."""
    K = h.domain if K is None else K
    cfg = cfg or GlobalSolveConfig()
    return prox_point(h.value_many, h.grad_many if h.grad else None, K, beta, x, cfg)


def prox_fixed_point_residual(h: Objective, K: FeasibleSet | None, beta: float, x, cfg: GlobalSolveConfig | None = None) -> float:
    """Distance from ``x`` to the nearest proximal candidate (0 iff fixed point)."""
    pr = prox(h, K, beta, x, cfg)
    x = np.asarray(x, dtype=float)
    return min(float(np.linalg.norm(c - x)) for c in pr.candidates)


def bregman_prox(
    h: Objective,
    K: FeasibleSet | None,
    phi: BregmanFunction,
    beta: float,
    x,
    cfg: GlobalSolveConfig | None = None,
) -> ProxResult:
    """Bregman proximity operator: argmin over K (within cl S) of h + D(., x)/beta.

    With the half-squared-norm kernel this routes through ``prox`` exactly,
    matching the collapse of the Bregman operator to the proximity operator.
    Other kernels are minimized by compass search with the divergence set to
    +inf outside the zone closure.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    K = h.domain if K is None else K
    cfg = cfg or GlobalSolveConfig()
    x = np.asarray(x, dtype=float)
    if not bool(np.all(phi.zone_contains(x))):
        raise ValueError("prox center must lie in the open zone of the kernel")
    if phi.name == "half_sq_norm":
        return prox(h, K, beta, x, cfg)

    def fn(Xc, Y):
        Y = np.asarray(Y, dtype=float)
        vals = h.value_many(Y) + phi.divergence_many(Y, Xc) / beta
        inside = phi.closure_contains(Y)
        return np.where(inside, vals, np.inf)

    res = _global_min_impl(fn, None, K, cfg, x[None, :], seed_centers=True)[0]
    res.residual = float(np.linalg.norm(res.point - x))
    return res
