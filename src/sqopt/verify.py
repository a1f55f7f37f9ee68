"""Sampled certification of structural properties of catalog objects.

Every verifier here is a one-sided sampled certificate: "pass" means no
violation was found at the reported sample count and seed, never a proof.
Margins are normalized by ``1 + |h|`` so large function values do not drown
the slack; a check passes iff the worst normalized margin stays above minus
its tolerance.

A check reads its samples as one row-major uniform stream per call, in
consecutive blocks of ``BLOCK_ROWS`` rows, and folds each block into its
report (worst margin, witnesses, sample count, estimate) before it reads the
next; ``FeasibleSet.from_unit`` maps the rows into the set, as ``sample`` does.
Its memory therefore does not grow with ``n``.  Every row is computed as it
would be alone (the batch contract), and grids that run over the
samples (the t strata, the diagonal pairs) use global row indices, so the
report does not depend on the block size, and the samples of a smaller ``n``
are a prefix of those of any larger ``n`` (estimates are monotone under
sample growth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions import Bifunction, Objective
from .geometry import BLOCK_ROWS, FeasibleSet, rng_for

SQC_TOL = 1e-8
GROWTH_TOL = 1e-9
A0_TOL = 1e-12
PSEUDO_TOL = 1e-10
GRAD_RTOL = 1e-6
WITNESS_CAP = 10


@dataclass
class CheckReport:
    """Outcome of one sampled property check."""

    property: str
    passed: bool
    samples: int
    worst_margin: float
    witnesses: list = field(default_factory=list)
    estimate: float | None = None

    def __post_init__(self):
        if self.passed and self.witnesses:
            raise ValueError("a passing report cannot carry witnesses")
        if not self.passed and not self.witnesses:
            raise ValueError("a failing report must carry at least one witness")


class _Fold:
    """A report folded over blocks of margins, taken in sample order.

    The worst margin is the minimum so far.  The witnesses are the violations
    with the lowest margins, ties to the earliest position in the
    concatenated margins, at most ``WITNESS_CAP``: what one stable sort of
    the whole array would pick.  ``samples`` is summed over blocks.
    """

    def __init__(self, prop: str, tol: float):
        self.prop, self.tol = prop, tol
        self.worst, self.samples, self.seen = np.inf, 0, 0
        self.bad = []  # (margin, position, witness)

    def add(self, margins, witness_of, samples) -> "_Fold":
        if margins.size:
            self.worst = float(np.minimum(self.worst, np.min(margins)))
            bad = np.nonzero(margins < -self.tol)[0]
            order = bad[np.argsort(margins[bad], kind="stable")][:WITNESS_CAP]
            new = [(float(margins[i]), self.seen + int(i), witness_of(int(i))) for i in order]
            self.bad = sorted(self.bad + new, key=lambda b: b[:2])[:WITNESS_CAP]
            self.seen += margins.size
        self.samples += int(samples)
        return self

    def report(self, estimate=None) -> CheckReport:
        return CheckReport(self.prop, self.worst >= -self.tol, self.samples, self.worst,
                           [w for _, _, w in self.bad], estimate)


def _unit_blocks(seed: int, n: int, width: int):
    """The (n, width) uniform stream of ``seed`` as ``(start, rows)`` blocks.

    The blocks hold the bits of one (n, width) draw, in order, so the rows
    of any n are a prefix of those of a larger n.
    """
    rng = rng_for(seed)
    for start in range(0, n, BLOCK_ROWS):
        yield start, rng.random((min(BLOCK_ROWS, n - start), width))


def _fold_blocks(prop, tol, seed, n, width, block) -> CheckReport:
    """Fold ``block(start, U) -> (margins, witness_of, samples)`` over the stream."""
    fold = _Fold(prop, tol)
    for start, U in _unit_blocks(seed, n, width):
        fold.add(*block(start, U))
    return fold.report()


def check_sqc_sampled(
    h: Objective,
    K: FeasibleSet | None = None,
    gamma: float | None = None,
    n_triples: int = 10_000,
    seed: int = 0,
    radius: float | None = None,
) -> CheckReport:
    """Sampled test of the defining strong-quasiconvexity inequality.

    Evaluates ``h(t y + (1-t) x) <= max(h(x), h(y)) - t(1-t)(gamma/2)||x-y||^2``
    on ``n_triples`` triples with t on a jittered 64-stratum grid of (0, 1).
    """
    K = h.domain if K is None else K
    gamma = h.modulus if gamma is None else float(gamma)
    block = _sqc_block(h.value_many, K, gamma, radius)
    return _fold_blocks(f"sqc(gamma={gamma})", SQC_TOL, seed, n_triples, 2 * K.dim + 1, block)


def _sqc_block(value_many, K: FeasibleSet, gamma: float, radius: float | None):
    """The block function of ``check_sqc_sampled`` for the values ``value_many``."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    d = K.dim

    def block(start, U):
        X = K.from_unit(U[:, :d], radius)
        Y = K.from_unit(U[:, d : 2 * d], radius)
        t = (np.arange(start, start + len(U)) % 64 + U[:, 2 * d]) / 64.0
        mid = t[:, None] * Y + (1.0 - t[:, None]) * X
        hx, hy, hm = value_many(X), value_many(Y), value_many(mid)
        mx = np.maximum(hx, hy)
        d2 = np.sum((X - Y) ** 2, axis=-1)
        slack = mx - t * (1.0 - t) * (gamma / 2.0) * d2 - hm
        scale = 1.0 + np.maximum(np.abs(mx), np.abs(hm))

        def witness(i):
            return {"x": X[i].tolist(), "y": Y[i].tolist(), "t": float(t[i]), "slack": float(slack[i])}

        return slack / scale, witness, len(U)

    return block


def estimate_modulus(
    h: Objective,
    K: FeasibleSet | None = None,
    n_triples: int = 10_000,
    seed: int = 0,
    radius: float | None = None,
) -> CheckReport:
    """Sampled strong-quasiconvexity modulus: min ratio over valid triples.

    The estimate never increases when ``n_triples`` grows (prefix sampling).
    """
    K = h.domain if K is None else K
    d = K.dim
    worst, valid_rows = np.inf, 0
    for start, U in _unit_blocks(seed, n_triples, 2 * d + 1):
        X = K.from_unit(U[:, :d], radius)
        Y = K.from_unit(U[:, d : 2 * d], radius)
        t = (np.arange(start, start + len(U)) % 64 + np.clip(U[:, 2 * d], 1e-9, 1 - 1e-9)) / 64.0
        d2 = np.sum((X - Y) ** 2, axis=-1)
        valid = d2 > 1e-12  # pairs closer than 1e-6 differ only by rounding
        if not np.any(valid):
            continue
        mid = t[:, None] * X + (1.0 - t[:, None]) * Y
        mx = np.maximum(h.value_many(X), h.value_many(Y))
        hm = h.value_many(mid)
        ratio = 2.0 * (mx[valid] - hm[valid]) / (t[valid] * (1.0 - t[valid]) * d2[valid])
        worst = float(np.minimum(worst, np.min(ratio)))
        valid_rows += int(np.sum(valid))
    if valid_rows == 0:
        raise ValueError("all sampled pairs are degenerate (x = y)")
    return CheckReport("modulus_estimate", True, valid_rows, worst, [], max(0.0, worst))


def check_supercoercive(
    h: Objective,
    radii: list[float],
    n_directions: int = 64,
    seed: int = 0,
) -> CheckReport:
    """Empirical 2-supercoercivity: h(x)/||x||^2 along rays, largest radii.

    Passes when the proxy at the largest radius is positive and has not
    decayed by more than half relative to the previous radius.  Raises when
    the domain admits no tested ray (check inapplicable on bounded sets).
    """
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    radii = sorted(float(r) for r in radii)
    K = h.domain
    D = rng_for(seed).standard_normal((n_directions, K.dim))
    D /= np.linalg.norm(D, axis=-1, keepdims=True)
    ok = np.ones(n_directions, dtype=bool)
    for r in radii:
        ok &= K.contains_many(r * D, tol=1e-9 * (1.0 + r))
    if not np.any(ok):
        raise ValueError("no ray of the tested radii stays in the domain: check inapplicable")
    D = D[ok]
    r_hi, r_lo = radii[-1], radii[-2]
    if r_hi * r_hi == np.inf:  # checked first: an overflow raises before h warns
        raise ValueError(f"supercoercive: the square of radius {r_hi:g} overflows")
    sq_hi, sq_lo = r_hi**2, r_lo**2
    v_hi = h.value_many(r_hi * D)
    proxy = float(np.min(v_hi / sq_hi))
    prev = float(np.min(h.value_many(r_lo * D) / sq_lo))
    margin = min(proxy - 0.5 * prev, proxy - 1e-12)
    i_bad = int(np.argmin(v_hi))
    witness = lambda i: {"x": (r_hi * D[i_bad]).tolist(), "ratio": proxy}
    return _Fold("supercoercive", 0.0).add(np.array([margin]), witness, D.shape[0]).report(proxy)


def check_quadratic_growth(
    h: Objective,
    K: FeasibleSet | None = None,
    xbar=None,
    gamma: float | None = None,
    n_samples: int = 1000,
    seed: int = 0,
    radius: float | None = None,
) -> CheckReport:
    """h(x) - h(xbar) >= (gamma/8) ||x - xbar||^2 at sampled points."""
    K = h.domain if K is None else K
    gamma = h.modulus if gamma is None else float(gamma)
    if xbar is None:
        if h.known_min is None:
            raise ValueError("xbar required when the objective has no known minimizer")
        xbar = h.known_min[0]
    xbar = np.asarray(xbar, dtype=float)
    if not K.contains(xbar, tol=1e-8):
        raise ValueError("xbar is not in K")
    hb = h.value(xbar)

    def block(start, U):
        X = K.from_unit(U, radius)
        slack = h.value_many(X) - hb - (gamma / 8.0) * np.sum((X - xbar) ** 2, axis=-1)

        def witness(i):
            return {"x": X[i].tolist(), "slack": float(slack[i])}

        return slack, witness, len(U)

    return _fold_blocks("quadratic_growth", GROWTH_TOL, seed, n_samples, K.dim, block)


def check_foc(
    h: Objective,
    K: FeasibleSet | None = None,
    gamma: float | None = None,
    n_pairs: int = 2000,
    seed: int = 0,
    radius: float | None = None,
) -> CheckReport:
    """First-order test: h(x) <= h(y) implies grad h(y).(y-x) >= (gamma/2)||x-y||^2."""
    if not h.differentiable:
        raise ValueError("check_foc needs a gradient")
    K = h.domain if K is None else K
    gamma = h.modulus if gamma is None else float(gamma)
    d = K.dim

    def block(start, U):
        X = K.from_unit(U[:, :d], radius)
        Y = K.from_unit(U[:, d:], radius)
        hx, hy = h.value_many(X), h.value_many(Y)
        G = h.grad_many(Y)
        lhs = np.einsum("ij,ij->i", G, Y - X)
        rhs = (gamma / 2.0) * np.sum((X - Y) ** 2, axis=-1)
        premise = hx <= hy
        slack = np.where(premise, lhs - rhs, np.inf)
        scale = 1.0 + np.abs(lhs) + np.abs(rhs)

        def witness(i):
            return {"x": X[i].tolist(), "y": Y[i].tolist(), "lhs": float(lhs[i]), "rhs": float(rhs[i])}

        return slack / scale, witness, np.count_nonzero(premise)

    return _fold_blocks(f"first_order(gamma={gamma})", SQC_TOL, seed, n_pairs, 2 * d, block)


def check_pl(
    h: Objective,
    K: FeasibleSet | None = None,
    xbar=None,
    gamma: float | None = None,
    lip: float | None = None,
    n_samples: int = 1000,
    seed: int = 0,
    radius: float | None = None,
) -> CheckReport:
    """Polyak-Lojasiewicz test with constant gamma^2 / (2 L)."""
    if not h.differentiable:
        raise ValueError("check_pl needs a gradient")
    lip = h.lip_grad if lip is None else float(lip)
    if lip is None or lip <= 0:
        raise ValueError("check_pl needs a positive Lipschitz constant")
    K = h.domain if K is None else K
    gamma = h.modulus if gamma is None else float(gamma)
    if xbar is None:
        if h.known_min is None:
            raise ValueError("xbar required")
        xbar = h.known_min[0]
    nu = gamma**2 / (2.0 * lip)
    hb = h.value(np.asarray(xbar, dtype=float))

    def block(start, U):
        X = K.from_unit(U, radius)
        gn2 = np.sum(h.grad_many(X) ** 2, axis=-1)
        gap = h.value_many(X) - hb
        slack = gn2 - nu * gap
        scale = 1.0 + np.abs(gn2) + np.abs(nu * gap)

        def witness(i):
            return {"x": X[i].tolist(), "grad_sq": float(gn2[i]), "bound": float(nu * gap[i])}

        return slack / scale, witness, len(U)

    return _fold_blocks(f"pl(nu={nu:.6g})", SQC_TOL, seed, n_samples, K.dim, block)


@dataclass
class CfzCertificate:
    """Local directional certificate (e, alpha) at a point, with its report."""

    e: np.ndarray | None
    alpha: float | None
    trivial: bool
    report: CheckReport


def check_cfz_at(
    h: Objective,
    xbar,
    rho: float,
    n_samples: int = 512,
    seed: int = 0,
) -> CfzCertificate:
    """Constructive local-strong-quasiconvexity certificate at ``xbar``.

    Uses ``e = -grad/||grad||`` and ``alpha = gamma / (2 ||grad||)``; verifies
    ``<e, y - xbar> >= alpha ||y - xbar||^2`` on sampled sublevel points in
    the ball of radius ``rho``.  A zero gradient yields the trivial
    certificate (the point is the minimizer).
    """
    if not h.differentiable:
        raise ValueError("check_cfz_at needs a gradient")
    xbar = np.asarray(xbar, dtype=float)
    g = h.grad_at(xbar)
    gn = float(np.linalg.norm(g))
    if gn <= 1e-14:
        rep = CheckReport("cfz_at(trivial)", True, 0, np.inf, [], None)
        return CfzCertificate(None, None, True, rep)
    if h.modulus <= 0:
        raise ValueError("check_cfz_at needs a positive declared modulus")
    e = -g / gn
    alpha = h.modulus / (2.0 * gn)
    level = h.value(xbar) + 1e-12

    def block(start, U):
        Y = xbar + (2.0 * U - 1.0) * rho
        d = np.linalg.norm(Y - xbar, axis=-1)
        Y = Y[(d <= rho) & h.domain.contains_many(Y, tol=1e-9) & (h.value_many(Y) <= level)]
        # einsum, not ``@``: a matrix-vector product may round a row by the
        # size of its batch or where the batch sits in memory, which would
        # break the prefix property
        slack = np.einsum("ij,j->i", Y - xbar, e) - alpha * np.sum((Y - xbar) ** 2, axis=-1)
        scale = 1.0 + alpha * np.sum((Y - xbar) ** 2, axis=-1)

        def witness(i):
            return {"y": Y[i].tolist(), "slack": float(slack[i])}

        return slack / scale, witness, len(Y)

    rep = _fold_blocks(f"cfz_at(alpha={alpha:.6g})", SQC_TOL, seed, n_samples, h.dim, block)
    return CfzCertificate(e, alpha, False, rep)


def subdiff_member(
    h: Objective,
    K: FeasibleSet | None = None,
    xbar=None,
    z=None,
    beta: float = 1.0,
    gamma: float | None = None,
    n_samples: int = 200,
    seed: int = 0,
    radius: float | None = None,
    sublevel_only: bool = False,
) -> CheckReport:
    """One-sided sampled membership test for the strong subdifferential.

    Checks ``max(h(y), h(xbar)) >= h(xbar) + (t/beta) z.(y-xbar)
    + (t/2)(gamma - t/beta - t gamma) ||y-xbar||^2`` over sampled ``y`` in K
    and ``t`` on the closed grid {0, 0.05, ..., 1}.  With ``sublevel_only``
    the y samples are restricted to the sublevel set at ``h(xbar)`` (the set
    quantified by the sublevel-subdifferential membership of gradients).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    K = h.domain if K is None else K
    gamma = h.modulus if gamma is None else float(gamma)
    xbar = np.asarray(xbar, dtype=float)
    z = np.asarray(z, dtype=float)
    hb = h.value(xbar)
    t = np.linspace(0.0, 1.0, 21)  # includes both endpoints exactly
    nt = t.shape[0]

    def block(start, U):
        Y = K.from_unit(U, radius)
        hy = h.value_many(Y)
        if sublevel_only:
            keep = hy <= hb + 1e-12
            Y, hy = Y[keep], hy[keep]
        lhs = np.maximum(hy, hb)[:, None]
        dot = np.einsum("ij,j->i", Y - xbar, z)  # not ``@``, as in check_cfz_at
        d2 = np.sum((Y - xbar) ** 2, axis=-1)
        rhs = (
            hb
            + (t[None, :] / beta) * dot[:, None]
            + 0.5 * t[None, :] * (gamma - t[None, :] / beta - t[None, :] * gamma) * d2[:, None]
        )
        slack = (lhs - rhs).ravel()
        scale = (1.0 + np.abs(lhs - hb) + np.abs(rhs - hb)).ravel()

        def witness(i):
            return {"y": Y[i // nt].tolist(), "t": float(t[i % nt]), "slack": float(slack[i])}

        return slack / scale, witness, slack.size

    return _fold_blocks(f"subdiff_member(beta={beta},gamma={gamma})", SQC_TOL, seed, n_samples,
                        K.dim, block)


def estimate_eta(
    f: Bifunction,
    K: FeasibleSet | None = None,
    n_triples: int = 5000,
    seed: int = 0,
    radius: float | None = None,
) -> CheckReport:
    """Sampled Lipschitz-type constant: max positive three-point ratio.

    Numerators below ``1e-12 * (1 + |f|)`` count as zero so telescoping
    bifunctions report exactly 0.
    """
    K = f.domain if K is None else K
    d = K.dim
    est = None
    for start, U in _unit_blocks(seed, n_triples, 3 * d):
        X = K.from_unit(U[:, :d], radius)
        Y = K.from_unit(U[:, d : 2 * d], radius)
        Z = K.from_unit(U[:, 2 * d :], radius)
        fxz, fxy, fyz = f.fn(X, Z), f.fn(X, Y), f.fn(Y, Z)
        num = fxz - fxy - fyz
        den = np.sum((X - Y) ** 2, axis=-1) + np.sum((Y - Z) ** 2, axis=-1)
        scale = 1.0 + np.maximum(np.abs(fxz), np.maximum(np.abs(fxy), np.abs(fyz)))
        meaningful = (num > 1e-12 * scale) & (den > 1e-12)
        if np.any(meaningful):
            top = np.max(num[meaningful] / den[meaningful])
            est = float(top if est is None else np.maximum(est, top))
    est = 0.0 if est is None else est
    return CheckReport("eta_estimate", True, n_triples, est, [], est)


def check_a0(
    f: Bifunction,
    K: FeasibleSet | None = None,
    n_samples: int = 500,
    seed: int = 0,
    radius: float | None = None,
) -> CheckReport:
    """f(x, x) = 0 on sampled points, tolerance 1e-12."""
    K = f.domain if K is None else K

    def block(start, U):
        X = K.from_unit(U, radius)
        vals = f.fn(X, X)

        def witness(i):
            return {"x": X[i].tolist(), "f_xx": float(vals[i])}

        return -np.abs(vals), witness, len(U)

    return _fold_blocks("a0", A0_TOL, seed, n_samples, K.dim, block)


def check_pseudomonotone(
    f: Bifunction,
    K: FeasibleSet | None = None,
    n_pairs: int = 2000,
    seed: int = 0,
    radius: float | None = None,
) -> CheckReport:
    """f(x, y) >= 0 implies f(y, x) <= 0 on sampled pairs (tolerance 1e-10).

    Every 16th pair is diagonal (y = x) so violations of f(x, x) = 0 surface
    here as well.
    """
    K = f.domain if K is None else K
    d = K.dim

    def block(start, U):
        X = K.from_unit(U[:, :d], radius)
        Y = K.from_unit(U[:, d:], radius)
        diag = slice(-start % 16, None, 16)  # the rows whose global index is a multiple of 16
        Y[diag] = X[diag]
        fxy = f.fn(X, Y)
        fyx = f.fn(Y, X)
        premise = fxy >= 0.0

        def witness(i):
            return {"x": X[i].tolist(), "y": Y[i].tolist(), "f_xy": float(fxy[i]), "f_yx": float(fyx[i])}

        return np.where(premise, -fyx, np.inf), witness, np.count_nonzero(premise)

    return _fold_blocks("pseudomonotone", PSEUDO_TOL, seed, n_pairs, 2 * d, block)


def check_a4_sampled(
    f: Bifunction,
    K: FeasibleSet | None = None,
    n_x: int = 8,
    n_triples: int = 2000,
    seed: int = 0,
    radius: float | None = None,
) -> CheckReport:
    """Strong quasiconvexity of f(x, .) with the declared modulus, sampled over x.

    Slice ``j`` is ``check_sqc_sampled`` of ``f(x_j, .)`` with seed ``seed + j``,
    folded into one report in slice order; a witness keeps ``x_j`` as ``"x_slice"``.
    """
    K = f.domain if K is None else K
    Xs = K.sample(seed + 101, n_x, radius)
    fold = _Fold("a4_sqc", SQC_TOL)
    for j, x in enumerate(Xs):
        fy, _ = f.y_objective(x)
        block = _sqc_block(lambda Y: np.asarray(fy(Y), dtype=float), K, f.gamma, radius)
        for start, U in _unit_blocks(seed + j, n_triples, 2 * K.dim + 1):
            margins, witness_of, samples = block(start, U)
            fold.add(margins, lambda i: {"x_slice": x.tolist(), **witness_of(i)}, samples)
    return fold.report()


def certify_ep(f: Bifunction, K: FeasibleSet | None = None, seed: int = 0,
               radius: float | None = None) -> dict[str, CheckReport]:
    """The sampled assumption reports of EP(f, K): A0, pseudomonotonicity (A2), A4 and A5."""
    eta = estimate_eta(f, K, seed=seed + 3, radius=radius)
    ok = eta.estimate <= f.eta + 1e-8
    return {
        "A0": check_a0(f, K, seed=seed, radius=radius),
        "A2": check_pseudomonotone(f, K, seed=seed + 1, radius=radius),
        "A4": check_a4_sampled(f, K, seed=seed + 2, radius=radius),
        "A5": CheckReport(f"a5(eta={f.eta})", ok, eta.samples, f.eta - eta.estimate,
                          [] if ok else [{"eta_hat": eta.estimate}], eta.estimate),
    }


def check_grad(h: Objective, K: FeasibleSet, n: int, seed: int,
               radius: float | None) -> CheckReport:
    """``grad_check`` of a differentiable objective at up to 100 sampled points of K."""
    if not h.differentiable:
        raise ValueError("objective has no gradient to check")
    return grad_check(h, K.sample(seed, min(n, 100), radius))


def grad_check(h: Objective, points: np.ndarray) -> CheckReport:
    """Central finite-difference validation of ``h.grad`` (a subgradient at kinks, too).

    Point ``x`` steps by ``1e-6 (1 + ||x||)`` along each coordinate; the
    values at every stepped point are one ``value_many`` batch, and the
    gradients one ``grad_many`` batch.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    G = h.grad_many(P)
    m, n = P.shape
    step = 1e-6 * (1.0 + np.linalg.norm(P, axis=-1))
    E = step[:, None, None] * np.eye(n)  # E[i, j] is step i along coordinate j
    V = h.value_many(np.stack([P[:, None] + E, P[:, None] - E]).reshape(-1, n)).reshape(2, m, n)
    fd = (V[0] - V[1]) / (2.0 * step[:, None])
    rels = np.linalg.norm(fd - G, axis=-1) / (1.0 + np.linalg.norm(G, axis=-1))
    margins = GRAD_RTOL - rels

    def witness(i):
        return {"x": P[i].tolist(), "rel_error": float(rels[i])}

    return _Fold("grad_check", 0.0).add(margins, witness, P.shape[0]).report(float(np.max(rels)))
