"""Matrix symbol, contour spectral projections, branch splitting, graph map.

The symbol is E(z) = B + z A - z^2 K; at z = i/n the mode-n generator is
n^2 E(i/n).  For small |z| its spectrum splits into a "hyperbolic" group
near 0 (eigenvalues ~ mu z for mu in Sp(Aprime)) and a "parabolic" group
near Sp(D).  The splitting is realized by resolvent contour integrals on
the circle |zeta| = R with R = min|Sp(D)|/2, and the hyperbolic group is
further resolved per transport speed mu through the rescaled symbol
E1(z) = E(z) Ph(z) / z (Kato's reduction process).  The speeds are those
of SystemMatrices.transport_speeds, and they key every per-speed result
here.  Every contour integral is the trapezoidal rule, and its node sums
invert the d x d resolvents elementwise over the whole (matrix, node)
grid in one Gauss-Jordan sweep (_resolvent_sum), not one LAPACK call per
node.

Functions of z take a scalar or a 1-D array of z; build_branch_table
splits all modes n0 < |n| <= nmax at once into one stacked BranchTable.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import SystemMatrices

__all__ = [
    "BranchTable", "BranchConstants", "eval_symbol", "separation_radius",
    "projection_split", "hyperbolic_branches", "graph_map",
    "build_branch_table", "limit_projections",
]

CONTOUR_TOL = 1e-11
CONTOUR_NODES = 64
CONTOUR_MAX_NODES = 4096
# separation_radius refuses below this radius
RADIUS_FLOOR = 1e-6
# remainder_at_zero extrapolates from z = i/REMAINDER_N and i/(2 REMAINDER_N)
REMAINDER_N = 512


class ContourError(RuntimeError):
    """Contour quadrature failed to converge or hit an eigenvalue.

    `members` holds the stack indices of the matrices that failed."""

    def __init__(self, message, members=()):
        super().__init__(message)
        self.members = tuple(members)


def eval_symbol(sys: SystemMatrices, z) -> np.ndarray:
    """E(z) = B + z A - z^2 K; a 1-D array of z gives a (len(z), d, d)
    stack."""
    z = np.asarray(z)[..., None, None]
    return sys.B + z * sys.A - z * z * sys.K


def _resolvent_sum(N, xi):
    """sum_j xi_j (N_k - xi_j I)^-1 for a stack N (K, d, d) and nodes xi
    (m,), as a (K, d, d) stack.

    Gauss-Jordan with partial pivoting on [N_k - xi_j I | I], with each
    matrix entry held as one (K, m) array: every step is elementwise over
    the whole (matrix, node) grid, where a stacked LAPACK inverse pays a
    fixed cost per tiny matrix.  As in LAPACK's getrf, the pivot is the
    entry of largest |re| + |im| on or below the diagonal, and a row is
    scaled by the pivot's reciprocal.  Being elementwise, a matrix gets
    the same bits whatever stack it sits in.  An exactly zero pivot raises
    a ContourError whose `members` index the stack.
    """
    K, d, _ = N.shape
    # g[r, c]: entry (r, c) of [N - xi I | I] over the (K, m) grid
    g = np.zeros((d, 2 * d, K, xi.size), dtype=complex)
    g[:, :d] = np.moveaxis(N, 0, -1)[..., None]
    for r in range(d):
        g[r, r] -= xi
        g[r, d + r] = 1.0
    held = np.empty((2 * d, K, xi.size), dtype=complex)
    for c in range(d):
        for r in range(c + 1, d):
            # swap rows c and r where row r holds the larger entry in
            # column c; both rows are zero left of it
            a, b = g[c, c], g[r, c]
            swap = (np.abs(b.real) + np.abs(b.imag)
                    > np.abs(a.real) + np.abs(a.imag))
            np.copyto(held[c:], g[c, c:])
            np.copyto(g[c, c:], g[r, c:], where=swap)
            np.copyto(g[r, c:], held[c:], where=swap)
        if not np.all(g[c, c]):
            bad = np.flatnonzero(np.any(g[c, c] == 0, axis=1))
            raise ContourError("singular resolvent at a contour node "
                               f"(stack members {bad.tolist()})", bad)
        g[c, c + 1:] *= 1.0 / g[c, c]
        for r in range(d):
            if r != c:
                g[r, c + 1:] -= g[r, c] * g[c, c + 1:]
    out = np.empty((K, d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            out[:, r, c] = np.einsum("km,m->k", g[r, d + c], xi)
    return out


# relative slack on both sides of a bracketed norm test: far above the
# rounding of a computed 2-norm or Frobenius norm of a small matrix, far
# below the sqrt(rank) width of the bracket
NORM_SLACK = 1e-12


def _frobenius(X):
    """Frobenius norms of a stack (K, p, q), each member scaled by its
    largest |re| or |im| so that squaring cannot overflow."""
    s = np.max(np.maximum(np.abs(X.real), np.abs(X.imag)), axis=(1, 2))
    s = np.where(s > 0, s, 1.0)
    Y = X / s[:, None, None]
    return s * np.sqrt(np.sum(Y.real ** 2 + Y.imag ** 2, axis=(1, 2)))


def _norm2_below(X, tol, Y=None):
    """Per member of stacks X, Y of one shape (..., p, q): is
    ||X||_2 < tol * max(1, ||Y||_2) (tol alone when Y is None)?

    The bracket ||X||_F / sqrt(r) <= ||X||_2 <= ||X||_F, r = min(p, q),
    settles every member whose answer it fixes with NORM_SLACK to spare;
    only the members left in between take a stacked SVD.  The answers are
    those of the SVD 2-norms for every member.
    """
    shape = np.shape(X)[:-2]
    X = np.reshape(X, (-1,) + np.shape(X)[-2:])
    r = np.sqrt(min(X.shape[1:]))
    fx = _frobenius(X)
    lo_b = hi_b = tol
    if Y is not None:
        Y = np.reshape(Y, X.shape)
        fy = _frobenius(Y)
        lo_b = tol * np.maximum(1.0, fy / r)
        hi_b = tol * np.maximum(1.0, fy)
    below = fx * (1.0 + NORM_SLACK) < lo_b * (1.0 - NORM_SLACK)
    above = fx / r * (1.0 - NORM_SLACK) > hi_b * (1.0 + NORM_SLACK)
    amb = np.flatnonzero(~(below | above))
    if amb.size:
        bound = (tol if Y is None else
                 tol * np.maximum(1.0, np.linalg.norm(Y[amb], ord=2,
                                                      axis=(1, 2))))
        below[amb] = np.linalg.norm(X[amb], ord=2, axis=(1, 2)) < bound
    return below.reshape(shape)


def _resolvent_projection(mats, center, radius):
    """Riesz projections -(1/2 pi i) oint (M - zeta I)^-1 d zeta over the
    circle |zeta - center| = radius for every M in a stack (..., d, d), by
    the trapezoidal rule; `members` of a ContourError index the flattened
    stack.

    With N = M - center I and zeta = center + xi, the node sum
    sum_j (N - xi_j I)^-1 xi_j is one _resolvent_sum over the live
    matrices and the new nodes, with no LAPACK call per node.  Each
    doubling keeps the previous node sum and adds only the odd nodes of
    the new resolution.  Matrix k stops at the first resolution where
    ||cur_k - prev_k||_2 < CONTOUR_TOL * max(1, ||cur_k||_2); the others go
    on, up to CONTOUR_MAX_NODES nodes; _norm2_below settles that test from
    Frobenius norms where it can, with the decisions of the 2-norms.
    """
    shape = np.shape(mats)
    mats = np.asarray(mats, dtype=complex).reshape(-1, *shape[-2:])
    K, d, _ = mats.shape
    gap = np.abs(np.abs(np.linalg.eigvals(mats) - center) - radius)
    bad = np.flatnonzero(np.min(gap, axis=-1) < 1e-12 * max(1.0, radius))
    if bad.size:
        raise ContourError("eigenvalue on the integration contour "
                           f"(stack members {bad.tolist()})", bad)
    shifted = mats - center * np.eye(d)

    def node_sum(live, j, m):
        # sum_j (M - zeta_j I)^-1 (zeta_j - center), zeta_j on m nodes
        xi = radius * np.exp(1j * (2.0 * np.pi * j / m))
        try:
            return _resolvent_sum(shifted[live], xi)
        except ContourError as exc:
            bad = live[list(exc.members)]
            raise ContourError("singular resolvent at a contour node "
                               f"(stack members {bad.tolist()})", bad) from exc

    out = np.empty_like(mats)
    live = np.arange(K)
    m = CONTOUR_NODES
    acc = node_sum(live, np.arange(m), m)
    # -(1/2 pi i) * i * (2 pi / m) * sum R(zeta) (zeta - center)
    prev = -acc / m
    while live.size and m < CONTOUR_MAX_NODES:
        acc = acc + node_sum(live, np.arange(1, 2 * m, 2), 2 * m)
        m *= 2
        cur = -acc / m
        done = _norm2_below(cur - prev, CONTOUR_TOL, cur)
        out[live[done]] = cur[done]
        live, acc, prev = live[~done], acc[~done], cur[~done]
    if live.size:
        raise ContourError(
            f"contour quadrature did not converge below {CONTOUR_TOL} "
            f"(relative) at {m} nodes (stack members {live.tolist()})", live)
    return out.reshape(shape)


@dataclass(frozen=True)
class BranchConstants:
    """Global branch-splitting data: separation radius r, frequency cutoff
    n0 (1/n0 < r) and contour radius R."""

    r: float
    n0: int
    R: float


@dataclass(frozen=True, eq=False)
class BranchTable:
    """Branch data at z = i/n for the modes n0 < |n| <= nmax, row k for
    mode modes[k]: projections Ph, Pp (K, d, d), graph map G (K, d1, d2),
    the transport speeds (S,) of SystemMatrices.transport_speeds, and per
    speed Phmu, Rhmu (S, K, d, d) with
    E(i/n) Phmu = mu (i/n) Phmu + (i/n)^2 Rhmu.
    """

    modes: np.ndarray
    Ph: np.ndarray
    Pp: np.ndarray
    G: np.ndarray
    speeds: np.ndarray
    Phmu: np.ndarray
    Rhmu: np.ndarray

    def __len__(self):
        return len(self.modes)

    def rows(self, ns):
        """Row indices of the modes ns, an int or an array of them; a
        KeyError names every mode the table lacks."""
        hit = np.asarray(ns, dtype=int)[..., None] == self.modes
        missing = np.unique(np.asarray(ns)[~hit.any(axis=-1)]).tolist()
        if missing:
            raise KeyError(f"branch table missing modes {missing}")
        # each row of hit holds exactly one True; an empty table has none
        return hit @ np.arange(len(self.modes))


def separation_radius(sys: SystemMatrices,
                      n0_override=None) -> BranchConstants:
    """Find (r, n0, R): R = min|Sp(D)|/2; r is the largest radius in a
    geometric grid such that on a sampled disk |z| <= r every eigenvalue
    of E(z) keeps distance >= R/10 from the circle |zeta| = R."""
    specD = np.linalg.eigvals(sys.D)
    if np.any(specD.real <= 0):
        raise ValueError("H.3 violated: Sp(D) not in the right half plane")
    R = 0.5 * float(np.min(np.abs(specD)))
    margin = R / 10.0
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False))
    radii_frac = np.linspace(0.05, 1.0, 12)

    def clears(r):
        zs = ((r * radii_frac)[:, None] * phases).ravel()
        w = np.linalg.eigvals(eval_symbol(sys, zs))
        return not np.any(np.abs(np.abs(w) - R) < margin)

    r = 1.0
    while r >= RADIUS_FLOOR:
        if clears(r):
            break
        r *= 0.7
    else:
        raise ValueError(
            f"no separation radius above {RADIUS_FLOOR}: eigenvalues of E(z) "
            f"approach the circle |zeta| = {R} at |z| = {r / 0.7}")
    n0 = int(np.ceil(1.0 / r))
    if n0_override is not None:
        if n0_override < n0:
            raise ValueError(f"n0 override {n0_override} below certified {n0}")
        n0 = int(n0_override)
    return BranchConstants(r=r, n0=n0, R=R)


def projection_split(sys: SystemMatrices, z, R: float):
    """Hyperbolic/parabolic projection pair at z.

    Ph is the Riesz projection of E(z) for the eigenvalue group inside
    |zeta| < R; Pp = I - Ph.  A 1-D array of z gives (len(z), d, d)
    stacks, all from one stacked quadrature.
    """
    Ph = _resolvent_projection(eval_symbol(sys, z), 0.0, R)
    return Ph, np.eye(sys.d) - Ph


def hyperbolic_branches(sys: SystemMatrices, z, Ph: np.ndarray):
    """Split Ph into per-speed projections: mu -> (Phmu, Rhmu), one per
    transport speed (SystemMatrices.transport_speeds), in its order.

    Works on the shifted, rescaled symbol E1(z) = (E(z) + alpha z I) Ph(z)
    / z, alpha = 1 + max|mu|, whose spectrum on the range of Ph approaches
    mu + alpha >= 1: the contours around the shifted speeds, of radius a
    third of the least gap between speeds and at most half the least
    shifted speed, stay away from the zero eigenvalues E1 carries on the
    range of Pp.  The shift keeps the invariant subspaces.  The remainder
    satisfies E(z) Phmu = mu z Phmu + z^2 Rhmu.  With one speed Phmu is
    Ph itself: no contour runs, and the check that the projections sum to
    Ph, which could not fail, is skipped.  A 1-D array of z with the
    stack Ph gives stacks, one contour per speed; a ContourError then
    carries the stack indices that failed.
    """
    z = np.asarray(z)
    if np.any(z == 0):
        raise ValueError("z must be nonzero (use limit_projections for z=0)")
    zz = z[..., None, None]
    E = eval_symbol(sys, z)
    mus = sys.transport_speeds()
    if len(mus) == 1:
        mu = float(mus[0])
        return {mu: (Ph.copy(), (E @ Ph - mu * zz * Ph) / (zz * zz))}
    alpha = 1.0 + np.max(np.abs(mus))
    shifted = mus + alpha
    E1 = ((E + alpha * zz * np.eye(sys.d)) @ Ph) / zz
    radius = min(np.min(np.diff(mus)) / 3.0, 0.5 * shifted[0])
    out = {}
    for mu, center in zip(mus.tolist(), shifted):
        try:
            Phmu = _resolvent_projection(E1, center, radius)
        except ContourError as exc:
            at = np.abs(np.ravel(z))[list(exc.members)].round(4).tolist()
            raise ContourError(f"mu-groups not separated at |z| = {at}; "
                               "increase n0", exc.members) from exc
        Rhmu = (E @ Phmu - mu * zz * Phmu) / (zz * zz)
        out[mu] = (Phmu, Rhmu)
    total = sum(P for P, _ in out.values())
    bad = np.flatnonzero(~_norm2_below(total - Ph, 1e-8, Ph))
    if bad.size:
        raise ContourError("mu-group projections do not sum to Ph (stack "
                           f"members {bad.tolist()}); increase n0", bad)
    return out


def graph_map(sys: SystemMatrices, z, Pp: np.ndarray) -> np.ndarray:
    """G(z) with phi in range(Pp(z)*) iff phi_1 = G(z) phi_2.

    G(z) = (I - p11)^-1 p12 where p11, p12 are the top blocks of Pp(z)*;
    a 1-D array of z with the stack Pp gives the (len(z), d1, d2) stack.
    """
    d1 = sys.d1
    top = np.swapaxes(Pp, -1, -2).conj()[..., :d1, :]
    p11, p12 = top[..., :d1], top[..., d1:]
    bad = np.flatnonzero(~_norm2_below(p11, 1.0))
    if bad.size:
        raise ValueError("graph map undefined: ||p11(z)|| >= 1 at z = "
                         f"{np.ravel(z)[bad].tolist()}")
    return np.linalg.solve(np.eye(d1) - p11, p12)


def limit_projections(sys: SystemMatrices):
    """z -> 0 limits: Ph(0) = (I 0; 0 0) and, per transport speed, the
    blocks Phmu(0) = (proj_mu(Aprime) 0; 0 0)."""
    d, d1 = sys.d, sys.d1
    Ph0 = np.zeros((d, d), dtype=complex)
    Ph0[:d1, :d1] = np.eye(d1)
    mus = sys.transport_speeds()
    out = {}
    if len(mus) == 1:
        proj = {float(mus[0]): np.eye(d1, dtype=complex)}
    else:
        radius = np.min(np.diff(mus)) / 3.0
        proj = {mu: _resolvent_projection(sys.Aprime, mu, radius)
                for mu in mus.tolist()}
    for mu, pm in proj.items():
        block = np.zeros((d, d), dtype=complex)
        block[:d1, :d1] = pm
        out[mu] = block
    return Ph0, out


def remainder_at_zero(sys: SystemMatrices, R: float):
    """Richardson-extrapolated limits mu -> (Phmu(0), Rhmu(0)) from
    z = i/REMAINDER_N and i/(2 REMAINDER_N); the branch data is first
    order in z so the extrapolant is O(1/n^2) accurate."""
    zs = 1j / (REMAINDER_N * np.array([1.0, 2.0]))
    Ph, _ = projection_split(sys, zs, R)
    return {mu: (2.0 * P[1] - P[0], 2.0 * Rm[1] - Rm[0])
            for mu, (P, Rm) in hyperbolic_branches(sys, zs, Ph).items()}


def build_branch_table(sys: SystemMatrices, consts: BranchConstants,
                       nmax: int) -> BranchTable:
    """The branch split at z = i/n for every mode n0 < |n| <= nmax, as one
    BranchTable with rows n0+1, -(n0+1), n0+2, ...: one stacked call each
    of projection_split, hyperbolic_branches and graph_map.  A
    ContourError names the modes that failed.
    """
    ns = np.outer(np.arange(consts.n0 + 1, nmax + 1), [1, -1]).ravel()
    zs = 1j / ns
    try:
        Ph, Pp = projection_split(sys, zs, consts.R)
        per_speed = hyperbolic_branches(sys, zs, Ph)
    except ContourError as exc:
        modes = ns[list(exc.members)].tolist()
        raise ContourError(f"modes n = {modes}: {exc}", exc.members) from exc
    return BranchTable(modes=ns, Ph=Ph, Pp=Pp, G=graph_map(sys, zs, Pp),
                       speeds=np.array(list(per_speed)),
                       Phmu=np.array([P for P, _ in per_speed.values()]),
                       Rhmu=np.array([Rm for _, Rm in per_speed.values()]))
