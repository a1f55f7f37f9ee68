"""Global solution of (possibly nonconvex) proximal subproblems.

Proximal subproblems of strongly quasiconvex objectives need a global search:
the regularized objective is only guaranteed quasiconvex for all parameters
when the underlying function is convex.  The solver is a deterministic
multistart: a dense grid for one dimension, a square grid for two, a Halton
set above that.

In one dimension the grid is evaluated once, with the projected proximal
center sorted in among its samples, and every discrete local minimum of the
samples (up to the ``n_starts`` best) is bracketed by its two neighbours.
With a derivative (a subgradient at kinks included), all brackets of all
problems are closed in lockstep by a safeguarded search for its sign
change: each batch evaluates the derivative at equally spaced interior
points, at the secant root of the end derivatives and just either side of
that root, and keeps a sign change, so a bracket shrinks by a fixed factor
per batch, kink or not, and closes fast about a smooth root (Brent 1973,
*Algorithms for Minimization without Derivatives*, on safeguarded zero
finding).  A bracket is closed when no float lies inside it, and its
better end is the point: exact to rounding at smooth roots and at kinks
alike.  ``local_tol`` plays no part in this search.  A minimum at an end of
the samples where the derivative points out of them is that end, exactly.
Without a derivative, or without a sign change, a lockstep multisection on
values closes the bracket to ``local_tol``, which keeps ``inv_gap`` (no
attained minimum) at its sample minimum.

Above one dimension a gradient is required (a subgradient at kinks
included), and every start is refined in lockstep by projected gradient.
Its rows take Barzilai-Borwein step lengths, capped at twice the last
accepted step, under an Armijo test; a rejected step is halved.

After the search or refinement the near-ties (within 1e-8 of the best value)
are grouped into clusters of points within 1e-7 of each other; each cluster
is one minimizer, represented by its best-valued member, and the other
members are dropped.  The representatives are all retained, since the
proximity operator of a nonconvex function is set-valued, and the returned
point is the lexicographically smallest of them, which keeps traces
deterministic.  No step follows the search or refinement: each point is
returned as the search or the refine left it.

One solve handles a stack of problems that share the set and the
``GlobalSolveConfig``.  Problem ``p`` minimizes ``fn(c_p, .)`` for its own
center ``c_p``: a proximal center, or the ``x`` of an equilibrium
certificate ``min_y f(x, y)``.  The callables are paired, ``fn(Xc, Y)`` and
``grad(Xc, Y)`` evaluating row ``i`` of ``Y`` against center row ``i`` of
``Xc``, and give each row the bits it gets alone.  Seeding, the brackets
or starts, the near-tie clusters and the result are per problem; the refine
or bracket search runs the rows of all problems together, in one batch per
step.  It keeps a working set: the active rows are compacted together with
their state and owning problem, and a row is written back once, when it
retires.  ``ProxResult.refine_iters`` counts the batches of the refine or
bracket search that held a row of the problem.  ``prox``, ``prox_point``,
``bregman_prox`` and ``global_min`` are the one-center case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import RADIUS, Kind, check_fields, declared
from .functions import BregmanFunction, Objective
from .geometry import FeasibleSet

VALUE_TIE_TOL = 1e-8
DEDUPE_TOL = 1e-7
ARMIJO_C = 1e-4
_PROBES = 31  # equally spaced probes per 1-D bracket and batch: five bisections' worth

_HALTON_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class GlobalSolveConfig:
    """Multistart configuration; identical config + inputs give identical output.

    The starts are a grid or a Halton set, so there is no seed.  In one
    dimension ``grid_density`` sets the samples and ``n_starts`` caps the
    brackets; above it ``n_starts`` sets the starts.  ``local_tol`` stops
    the refines and the 1-D search on values; the 1-D search on the
    derivative closes its brackets to one ulp and does not read it.
    ``max_local_iters`` caps the batches of each.  A config sets
    ``search_radius`` by ``algorithm.search_radius``, not under
    ``algorithm.prox``.
    """

    n_starts: int = declared(Kind("int", 64, lo=1))
    grid_density: int = declared(Kind("int", 10_000, lo=1))
    local_tol: float = declared(Kind("number", 1e-9, lo=0.0, strict=True))
    max_local_iters: int = declared(Kind("int", 400, lo=0))
    search_radius: float | None = declared(RADIUS, key=None)

    __post_init__ = check_fields


@dataclass
class ProxResult:
    point: np.ndarray
    value: float
    residual: float
    candidates: list
    n_evals: int = 0
    refine_iters: int = 0  # lockstep refine or bracket-search batches that held this problem


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
    of ``Y`` in problem ``own[i]``, and ``grad(own, Y)`` likewise.  Every
    ``fn`` batch adds its rows to their problems' ``counts``.
    """

    def __init__(self, fn, grad, C: np.ndarray):
        self.C = C
        self._fn, self._grad = fn, grad
        self.counts = np.zeros(C.shape[0], dtype=int)

    def fn(self, own, Y):
        self.counts += np.bincount(own, minlength=self.C.shape[0])
        return self._fn(self.C.take(own, axis=0), Y)

    def grad(self, own, Y):
        return np.asarray(self._grad(self.C.take(own, axis=0), Y), dtype=float)


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

    A row retires when a trial is rejected below ``local_tol``, or when its
    move, accepted or clipped by K, is at most ``local_tol`` long and its
    gradient mapping ``move / step`` is at most ``sqrt(local_tol)``.  Where
    K does not clip, the mapping is the gradient; at a constrained minimizer
    the gradient stays large and the projected move is (nearly) zero, and a
    clipped move there may be rejected only because the projection rounds,
    by up to an ulp at a polytope's vertex.

    The active rows form a working set: their points, values, gradients,
    steps and owners are compacted together and updated in place, and a row
    is written back to ``X`` and ``F`` once, when it retires.  Returns ``X``,
    ``F`` and each row's number of iterations.
    """
    lo, hi = K.bounding_box(cfg.search_radius)
    step_cap = 1e3 * (float(np.max(hi - lo)) + 1.0)
    gtol = np.sqrt(cfg.local_tol)  # on the gradient mapping move / step
    g = grad(own, X)
    # no finite gradient (a Bregman zone's boundary): not refined from, not accepted
    rows = np.flatnonzero(np.all(np.isfinite(g), axis=1))
    o, x, f, g = own[rows], X[rows], F[rows], g[rows]
    step = np.full(rows.size, 0.25 * float(np.max(hi - lo)) + 1e-12)
    iters, n = np.zeros(X.shape[0], dtype=int), 0
    for n in range(1, cfg.max_local_iters + 1):
        if rows.size == 0:
            break
        T = x - step[:, None] * g
        C = K.project_many(T)
        FC = fn(o, C)
        move = C - x
        accept = FC <= f + ARMIJO_C * np.einsum("ij,ij->i", g, move)
        acc = np.flatnonzero(accept)
        if acc.size:
            GC = grad(o[acc], C[acc])
            if not np.isfinite(GC).all():
                finite = np.isfinite(GC).all(axis=1)
                accept[acc[~finite]] = False
                acc, GC = acc[finite], GC[finite]
        rej = ~accept
        # converged (see above): the mapping guard keeps small-step rows far
        # from optimality alive, and a rejected move counts only if K clipped it
        done = _norms(move) <= np.minimum(gtol * step, cfg.local_tol)
        check = np.flatnonzero(done & rej)
        if check.size:
            done[check] = np.any(C[check] != T[check], axis=1)
        if acc.size:
            s, y = move[acc], GC - g[acc]
            sy = np.einsum("ij,ij->i", s, y)
            bb = np.divide(np.einsum("ij,ij->i", s, s), sy,
                           out=np.full(acc.size, np.inf), where=sy > 0)
            step[acc] = np.minimum(np.minimum(bb, step[acc] * 2.0), step_cap)
            x[acc], f[acc], g[acc] = C[acc], FC[acc], GC
        step[rej] *= 0.5
        done |= rej & (step < cfg.local_tol)
        if np.any(done):
            X[rows[done]], F[rows[done]], iters[rows[done]] = x[done], f[done], n
            keep = ~done
            rows, o, x, f, g, step = rows[keep], o[keep], x[keep], f[keep], g[keep], step[keep]
    X[rows], F[rows], iters[rows] = x, f, n
    return X, F, iters


def _brackets_1d(seeds, F, cfg):
    """The brackets ``[a, m, b]`` of one problem's 1-D samples, and their values.

    The samples are sorted and deduplicated.  Each discrete local minimum
    ``m`` of their values (the leftmost sample of a flat valley) is bracketed
    by its neighbours ``a`` and ``b`` (by itself at the first or last
    sample); of more than ``cfg.n_starts`` minima the best are kept, the
    leftmost of equal values first.  Returns the ``(r, 3)`` points
    ``a, m, b`` and their values, in the order of ``m``.
    """
    order = np.argsort(seeds[:, 0], kind="stable")
    xs, fs = seeds[order, 0], F[order]
    new = np.concatenate([[True], xs[1:] != xs[:-1]])
    xs, fs = xs[new], fs[new]
    run = np.flatnonzero(np.concatenate([[True], fs[1:] != fs[:-1]]))  # runs of equal values
    fp = np.concatenate([[np.inf], fs[run], [np.inf]])
    i = run[(fp[1:-1] < fp[:-2]) & (fp[1:-1] < fp[2:])]
    if i.size > cfg.n_starts:
        i = np.sort(i[np.argsort(fs[i], kind="stable")[: cfg.n_starts]])
    j = np.stack([np.maximum(i - 1, 0), i, np.minimum(i + 1, xs.size - 1)], axis=1)
    return xs[j], fs[j]


def _closed(a, b, tol=0.0):
    """True where the bracket ``[a, b]`` is at most ``tol`` wide or has no float inside."""
    mid = a + 0.5 * (b - a)
    return (b - a <= tol) | (mid <= a) | (mid >= b)


def _at(P, j):
    return P[np.arange(P.shape[0]), j]


def _batch(call, own, Q):
    """``call`` on every point of the ``(r, q)`` array ``Q``, row ``i`` in problem ``own[i]``."""
    return np.asarray(call(np.repeat(own, Q.shape[1]), Q.reshape(-1, 1)), dtype=float).reshape(Q.shape)


def _narrowed(Q, G, a, ga, b, gb):
    """The brackets ``[a, b]`` narrowed by the probes ``Q`` with derivatives ``G``.

    The new bracket runs from the rightmost point with a negative derivative
    to the nearest point right of it without one; ends no probe improves on
    stay, with their derivatives ``ga`` and ``gb``.
    """
    neg = G < 0
    L = np.where(neg, Q, -np.inf)
    j = np.argmax(L, axis=1)
    move = _at(L, j) > a
    a, ga = np.where(move, _at(Q, j), a), np.where(move, _at(G, j), ga)
    R = np.where(~neg & (Q > a[:, None]), Q, np.inf)
    j = np.argmin(R, axis=1)
    move = _at(R, j) < b
    return a, ga, np.where(move, _at(Q, j), b), np.where(move, _at(G, j), gb)


def _root_search(grad, A, M, B, own, cfg):
    """Lockstep safeguarded search for a sign change of the derivative in 1-D brackets.

    Row ``i`` is the bracket ``[A[i], B[i]]`` around the sample minimum
    ``M[i]`` of problem ``own[i]``.  The first batch takes the derivative at
    ``a``, ``m``, ``b`` and ``_PROBES`` equally spaced interior points.  A
    row whose ``m`` is the first sample and whose derivative there is >= 0
    (or the last, and <= 0) ends exactly on it.  Another row's bracket is
    ``_narrowed`` to its points; a row without a sign change among them has
    no bracket (``ok`` False).  Each further batch takes the derivative at
    ``_PROBES`` equally spaced interior points, at the secant root of the end
    derivatives and ``w / (_PROBES + 1)**2`` either side of it (``w`` the
    bracket's width), and narrows again.  So a bracket shrinks at least
    ``_PROBES + 1``-fold per batch, kink or not, and about 500-fold once the
    secant lies that close to a smooth root.  A row retires when no float
    lies inside its bracket, or when a probe's derivative is exactly 0 (its
    bracket is then that point).

    Returns the brackets ``lo``, ``hi``, ``ok`` and each row's number of
    batches.
    """
    frac = np.arange(1, _PROBES + 1) / (_PROBES + 1)
    P = np.column_stack([A, M, B, A[:, None] + (B - A)[:, None] * frac])
    G = _batch(grad, own, P)
    inf = np.full(A.size, np.inf)
    lo, glo, hi, ghi = _narrowed(P, G, -inf, inf, inf, inf)
    lo = np.where(ghi == 0, hi, lo)
    at_lo, at_hi = (A == M) & (G[:, 0] >= 0), (M == B) & (G[:, 2] <= 0)
    end = at_lo | at_hi  # the derivative points out of the samples there
    lo = np.where(end, np.where(at_lo, A, B), lo)
    hi = np.where(end, lo, hi)
    ok = np.isfinite(lo) & np.isfinite(hi)
    iters, n = np.ones(A.size, dtype=int), 1
    rows = np.flatnonzero(ok)
    rows = rows[~_closed(lo[rows], hi[rows])]
    a, ga, b, gb, o = lo[rows], glo[rows], hi[rows], ghi[rows], own[rows]
    for n in range(2, cfg.max_local_iters + 1):
        if rows.size == 0:
            break
        w = b - a
        with np.errstate(divide="ignore", invalid="ignore"):
            sec = ga / (ga - gb)  # the secant root, a bisection where that is not inside
        s, t = a + w * np.where((sec > 0.0) & (sec < 1.0), sec, 0.5), w * frac[0] ** 2
        Q = np.concatenate([a[:, None] + w[:, None] * frac,
                            np.stack([np.maximum(s - t, a), s, np.minimum(s + t, b)], axis=1)], axis=1)
        a, ga, b, gb = _narrowed(Q, _batch(grad, o, Q), a, ga, b, gb)  # ga < 0 < gb stays true
        a = np.where(gb == 0, b, a)
        done = _closed(a, b)
        if np.any(done):
            lo[rows[done]], hi[rows[done]], iters[rows[done]] = a[done], b[done], n
            keep = ~done
            rows, a, ga, b, gb, o = rows[keep], a[keep], ga[keep], b[keep], gb[keep], o[keep]
    lo[rows], hi[rows], iters[rows] = a, b, n
    return lo, hi, ok, iters


def _section_values(fn, X3, F3, own, cfg):
    """Lockstep multisection on values in 1-D brackets ``[a, m, b]``; no derivative needed.

    ``m`` is the best of its row's three points.  Each batch evaluates
    ``_PROBES`` equally spaced interior points; the best of the row's points
    (the leftmost of equal values) becomes ``m`` and its neighbours the
    bracket, which thus shrinks at least ``(_PROBES + 1) / 2``-fold.  A row
    retires as ``_closed`` says.  Returns ``m``, its value and each row's
    number of batches.
    """
    frac = np.arange(1, _PROBES + 1) / (_PROBES + 1)
    M, FM, iters, n = X3[:, 1].copy(), F3[:, 1].copy(), np.zeros(X3.shape[0], dtype=int), 0
    rows = np.flatnonzero(~_closed(X3[:, 0], X3[:, 2], cfg.local_tol))
    (a, m, b), (fa, fm, fb), o = X3[rows].T, F3[rows].T, own[rows]
    for n in range(1, cfg.max_local_iters + 1):
        if rows.size == 0:
            break
        Q = a[:, None] + (b - a)[:, None] * frac
        P, V = np.column_stack([a, Q, m, b]), np.column_stack([fa, _batch(fn, o, Q), fm, fb])
        pos = np.argsort(P, axis=1, kind="stable")  # m among the others
        P, V = np.take_along_axis(P, pos, axis=1), np.take_along_axis(V, pos, axis=1)
        j = np.argmin(np.where(np.isnan(V), np.inf, V), axis=1)
        jl, jr = np.maximum(j - 1, 0), np.minimum(j + 1, P.shape[1] - 1)
        a, fa, m, fm, b, fb = _at(P, jl), _at(V, jl), _at(P, j), _at(V, j), _at(P, jr), _at(V, jr)
        done = _closed(a, b, cfg.local_tol)
        if np.any(done):
            M[rows[done]], FM[rows[done]], iters[rows[done]] = m[done], fm[done], n
            keep = ~done
            rows, a, fa, m, fm, b, fb, o = (v[keep] for v in (rows, a, fa, m, fm, b, fb, o))
    M[rows], FM[rows], iters[rows] = m, fm, n
    return M, FM, iters


def _search_1d(stack, grad, X3, F3, own, cfg):
    """One point per 1-D bracket ``[a, m, b]``: its value and number of batches.

    With a derivative, ``_root_search`` brackets its sign change until no
    float lies inside, and the better end of that bracket (``lo`` on a tie)
    is the point, exact to rounding at smooth roots and at kinks alike.  Rows
    without a sign change, and every row without a derivative, go to
    ``_section_values``.
    """
    M, FM, iters = X3[:, 1].copy(), F3[:, 1].copy(), np.zeros(X3.shape[0], dtype=int)
    if cfg.max_local_iters == 0:
        return M[:, None], FM, iters
    todo = np.arange(M.size)
    if grad is not None:
        lo, hi, ok, iters = _root_search(grad, X3[:, 0], M, X3[:, 2], own, cfg)
        g, todo = np.flatnonzero(ok), np.flatnonzero(~ok)
        if g.size:
            FL, FH = _batch(stack.fn, own[g], np.column_stack([lo[g], hi[g]])).T
            right = FH < FL
            M[g], FM[g] = np.where(right, hi[g], lo[g]), np.where(right, FH, FL)
    if todo.size:
        M[todo], FM[todo], it = _section_values(stack.fn, X3[todo], F3[todo], own[todo], cfg)
        iters[todo] += it
    return M[:, None], FM, iters


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


def _collect(X, F, n_evals, refine_iters) -> ProxResult:
    reps = _tie_representatives(X, F)
    reps = reps[np.lexsort(X[reps].T[::-1])]  # lexicographic by coordinates
    return ProxResult(
        point=X[reps[0]].copy(),
        value=float(F[reps[0]]),
        residual=0.0,
        candidates=[X[i].copy() for i in reps],
        n_evals=n_evals,
        refine_iters=refine_iters,
    )


def _global_min_impl(raw_fn, raw_grad, K: FeasibleSet, cfg: GlobalSolveConfig, C: np.ndarray,
                     seed_centers: bool = False) -> list[ProxResult]:
    """Global minimizers over ``K`` of ``fn(c, .)``, one problem per center row ``c`` of ``C``.

    ``raw_fn(Xc, Y)`` and ``raw_grad(Xc, Y)`` (None only in one dimension)
    pair row ``i`` of ``Y`` with center row ``i`` of ``Xc``; a single center
    row broadcasts over all rows of ``Y``.  With ``seed_centers`` each
    problem's projected center is an extra sample or start.  Every solve is
    one pipeline: the seeds; in one dimension the brackets go to
    ``_search_1d``, above it the starts to ``_refine_pg``; then ``_collect``
    clusters each problem's points, its one clustering pass.  Returns one
    result per problem, each what that problem gets when solved alone.
    """
    if raw_grad is None and K.dim > 1:
        raise ValueError("a global solve above one dimension needs a gradient")
    stack = _Stack(raw_fn, raw_grad, C)
    grid = _seed_points(K, cfg)
    starts, values = [], []
    n_seed = np.zeros(C.shape[0], dtype=int)
    for p in range(C.shape[0]):
        seeds = np.concatenate([K.project_many(C[p : p + 1]), grid]) if seed_centers else grid
        F = raw_fn(C[p : p + 1], seeds)  # one center row broadcast over the seeds
        n_seed[p] = seeds.shape[0]
        if not np.all(np.isfinite(F)):
            finite = np.isfinite(F)
            if not np.any(finite):
                raise ValueError("objective is not finite anywhere on the seed set")
            seeds, F = seeds[finite], F[finite]
        if K.dim == 1:
            seeds, F = _brackets_1d(seeds, F, cfg)
        starts.append(seeds)
        values.append(F)
    own = np.repeat(np.arange(C.shape[0]), [s.shape[0] for s in starts])
    X, F = np.concatenate(starts), np.concatenate(values)
    if K.dim == 1:
        X, F, iters = _search_1d(stack, stack.grad if raw_grad is not None else None, X, F, own, cfg)
    else:
        X, F, iters = _refine_pg(stack.fn, stack.grad, K, X, F, own, cfg)
    refine_iters = np.zeros(C.shape[0], dtype=int)
    np.maximum.at(refine_iters, own, iters)
    n_evals = n_seed + stack.counts
    return [_collect(X[own == p], F[own == p], int(n_evals[p]), int(refine_iters[p]))
            for p in range(C.shape[0])]


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


def _bregman_objective(h: Objective, phi: BregmanFunction, beta: float):
    """Bregman subproblem ``h(y) + D(y, c) / beta``, +inf outside the zone closure.

    Paired as in ``_prox_objective``.  Its gradient (with ``h.grad``) is -inf
    on the boundary of the zone and NaN outside, where the value rejects the point.
    """

    def fn(Xc, Y):
        Y = np.asarray(Y, dtype=float)
        vals = h.value_many(Y) + phi.divergence_many(Y, Xc) / beta
        return np.where(phi.closure_contains(Y), vals, np.inf)

    grad = None
    if h.grad is not None:

        def grad(Xc, Y):
            with np.errstate(divide="ignore", invalid="ignore"):
                return h.grad_many(Y) + phi.grad_divergence(Y, Xc) / beta

    return fn, grad


def prox_many(base_fn, base_grad, K: FeasibleSet, beta: float, C,
              cfg: GlobalSolveConfig) -> list[ProxResult]:
    """Proximal steps from every center row of ``C`` in one stacked global solve.

    Result ``i`` is what ``prox_point`` gives for center ``C[i]`` alone, bit
    for bit; its ``residual`` is its distance to that center.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    C = np.asarray(C, dtype=float)
    if not np.all(np.isfinite(C)):
        raise ValueError("prox center must be finite")
    fn, grad = _prox_objective(base_fn, base_grad, float(beta))
    res = _global_min_impl(fn, grad, K, cfg, C, seed_centers=True)
    for r, c in zip(res, C):
        r.residual = float(np.linalg.norm(r.point - c))
    return res


def prox_point(base_fn, base_grad, K: FeasibleSet, beta: float, x, cfg: GlobalSolveConfig) -> ProxResult:
    """Proximal step for an arbitrary evaluation callable (internal engine)."""
    return prox_many(base_fn, base_grad, K, beta, np.asarray(x, dtype=float)[None, :], cfg)[0]


def prox(h: Objective, K: FeasibleSet | None = None, beta: float = 1.0, x=None, cfg: GlobalSolveConfig | None = None) -> ProxResult:
    """Global proximity operator: argmin over K of h(y) + ||y - x||^2 / (2 beta).

    In one dimension the grid's brackets are closed by the derivative's sign
    change (``h.grad``, a subgradient at kinks for the entries that are not
    smooth) until no float lies inside, or by values to ``cfg.local_tol``
    where ``h`` has no ``grad`` or a bracket no sign change.  Above it
    ``h.grad`` is required, and the starts are refined by projected
    gradient.  A start stops at a move, accepted or clipped by K, of at most
    ``cfg.local_tol`` whose gradient mapping (the move over the step, the
    gradient where K does not clip) is at most ``sqrt(cfg.local_tol)``, or
    when a rejected step falls below ``cfg.local_tol``.
    """
    K = h.domain if K is None else K
    cfg = cfg or GlobalSolveConfig()
    return prox_point(h.value_many, h.grad_many if h.grad else None, K, beta, x, cfg)


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
    Other kernels are minimized as ``prox`` minimizes, on ``_bregman_objective``
    (points outside the zone closure are rejected by their value); without
    ``h.grad`` only a one-dimensional ``h`` is accepted.
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
    fn, grad = _bregman_objective(h, phi, float(beta))
    res = _global_min_impl(fn, grad, K, cfg, x[None, :], seed_centers=True)[0]
    res.residual = float(np.linalg.norm(res.point - x))
    return res
