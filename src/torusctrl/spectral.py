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
splits the modes n0 < |n| <= nmax into one stacked BranchTable.  The
split depends on the system and the mode, never on a horizon or a datum,
so each system keeps, in an OwnerMemo that dies with it, one table per
BranchConstants, grown to the largest nmax asked for, and one
remainder_at_zero per contour radius, with each speed's witness start.
A call hands out new containers of the kept arrays, which are
read-only.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import SystemMatrices, PreconditionError, OwnerMemo

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

    `members` holds the stack indices of the matrices that failed.  The
    message is `reason` with "{members}" filled in from them, so that a
    caller which re-indexes the stack re-raises the same reason."""

    def __init__(self, reason, members=()):
        self.reason = reason
        self.members = tuple(int(k) for k in members)
        super().__init__(reason.format(members=list(self.members)))


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
                               "(stack members {members})", bad)
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
                           "(stack members {members})", bad)
    shifted = mats - center * np.eye(d)

    def node_sum(live, j, m):
        # sum_j (M - zeta_j I)^-1 (zeta_j - center), zeta_j on m nodes
        xi = radius * np.exp(1j * (2.0 * np.pi * j / m))
        try:
            return _resolvent_sum(shifted[live], xi)
        except ContourError as exc:
            raise ContourError(exc.reason,
                               live[list(exc.members)]) from exc

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
            f"(relative) at {m} nodes (stack members {{members}})", live)
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

    build_branch_table returns a new table on every call, of read-only
    views into the table its system keeps: caches keyed by a table's
    identity (the joint operators) live as long as that call's table.
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
        KeyError names every mode the table lacks.

        The rows are in build_branch_table's order n0+1, -(n0+1), n0+2,
        ..., with n0 + 1 the first row's |mode|, so mode n sits at row
        2 (|n| - n0 - 1) + (n < 0).  That closed form is checked against
        modes: a mode whose row is past the table or holds another mode
        is missing.  A row below 0 reads row 0, which holds n0 + 1 and so
        never matches."""
        ns = np.asarray(ns, dtype=int)
        size = len(self.modes)
        first = abs(int(self.modes[0])) if size else 0
        row = 2 * (np.abs(ns) - first) + (ns < 0)
        found = row < size
        if size:
            found &= self.modes.take(row, mode="clip") == ns
        if not found.all():
            missing = np.unique(ns[~found]).tolist()
            raise KeyError(f"branch table missing modes {missing}")
        return row[()]


def separation_radius(sys: SystemMatrices,
                      n0_override=None) -> BranchConstants:
    """Find (r, n0 = ceil(1/r), R): R = min|Sp(D)|/2; r is the largest
    radius in a geometric grid such that on a sampled disk |z| <= r every
    eigenvalue of E(z) keeps distance >= R/10 from the circle |zeta| = R
    and, with two or more speeds, at sampled z = +-i s, s <= r, each one
    inside it, divided by z, stays within 0.9 times hyperbolic_branches'
    contour radius of the nearest speed.  A smaller n0_override raises
    PreconditionError."""
    specD = np.linalg.eigvals(sys.D)
    if np.any(specD.real <= 0):
        raise ValueError("H.3 violated: Sp(D) not in the right half plane")
    R = 0.5 * float(np.min(np.abs(specD)))
    margin = R / 10.0
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False))
    radii_frac = np.linspace(0.05, 1.0, 12)
    mus = sys.transport_speeds()
    axis = 1j * np.concatenate([radii_frac, -radii_frac])

    def clears(r):
        zs = ((r * radii_frac)[:, None] * phases).ravel()
        w = np.linalg.eigvals(eval_symbol(sys, zs))
        if np.any(np.abs(np.abs(w) - R) < margin):
            return False
        if len(mus) == 1:
            return True
        z = r * axis
        w = np.linalg.eigvals(eval_symbol(sys, z))
        off = np.abs(w[..., None] / z[:, None, None] - mus).min(axis=-1)
        return np.all(off[np.abs(w) < R] < 0.9 * _speed_contours(mus)[1])

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
            raise PreconditionError(
                f"n0 override {n0_override} below certified {n0}")
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
    alpha, radius = _speed_contours(mus)
    shifted = mus + alpha
    E1 = ((E + alpha * zz * np.eye(sys.d)) @ Ph) / zz
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
                           "members {members}); increase n0", bad)
    return out


def _speed_contours(mus):
    """hyperbolic_branches' shift alpha and contour radius for speeds mus."""
    alpha = 1.0 + np.max(np.abs(mus))
    return alpha, min(np.min(np.diff(mus)) / 3.0, 0.5 * (mus[0] + alpha))


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


# remainder_at_zero's limits per system and contour radius
_REMAINDERS = OwnerMemo()


def remainder_at_zero(sys: SystemMatrices, R: float):
    """Richardson-extrapolated limits mu -> (Phmu(0), Rhmu(0), phi0) from
    z = i/REMAINDER_N and i/(2 REMAINDER_N); the branch data is first
    order in z so the extrapolant is O(1/n^2) accurate.  phi0, the
    leading left singular vector of Phmu(0)*, starts an obstruction
    witness.  They depend on sys and R alone: computed once per pair and
    kept while sys lives, so a witness takes no svd.  Each call returns a
    new dict of the kept arrays, which are read-only."""
    def build():
        zs = 1j / (REMAINDER_N * np.array([1.0, 2.0]))
        Ph, _ = projection_split(sys, zs, R)
        out = {}
        for mu, (P, Rm) in hyperbolic_branches(sys, zs, Ph).items():
            P0 = _read_only(2.0 * P[1] - P[0])
            u, _, _ = np.linalg.svd(P0.conj().T)
            out[mu] = (P0, _read_only(2.0 * Rm[1] - Rm[0]),
                       _read_only(u)[:, 0])
        return out

    return dict(_REMAINDERS.get(sys, float(R), build))


# branch tables per system and BranchConstants, each held at the largest
# nmax asked for
_BRANCH_TABLES = OwnerMemo()
# axis of the rows in each per-mode field of a BranchTable
_ROW_AXES = {"modes": 0, "Ph": 0, "Pp": 0, "G": 0, "Phmu": 1, "Rhmu": 1}


def build_branch_table(sys: SystemMatrices, consts: BranchConstants,
                       nmax: int) -> BranchTable:
    """The branch split at z = i/n for every mode n0 < |n| <= nmax, as one
    BranchTable with rows n0+1, -(n0+1), n0+2, ...

    The split depends on sys and the mode alone, so one table per sys and
    consts is kept while sys lives, at the largest nmax asked for.  A
    larger nmax splits only the modes above it, with one stacked call
    each of projection_split, hyperbolic_branches and graph_map, and
    appends their rows; a smaller one reads the first 2 (nmax - n0).
    Every contour and norm test acts per mode, so the rows hold the bits
    of a fresh split of their modes alone.  Each call returns a new
    BranchTable of views of the kept arrays, which are read-only.  A
    ContourError names the modes that failed, its members are their rows
    in the full table, and the kept table stays as it was.
    """
    n0 = consts.n0
    held = _BRANCH_TABLES.get(sys, consts,
                              lambda: _split_modes(sys, consts, n0, nmax))
    top = n0 + len(held) // 2
    if nmax > top:
        new = _split_modes(sys, consts, top, nmax)
        held = _BRANCH_TABLES.put(sys, consts, BranchTable(
            speeds=held.speeds, **{
                f: _read_only(np.concatenate([getattr(held, f),
                                              getattr(new, f)], axis=ax))
                for f, ax in _ROW_AXES.items()}))
    k = 2 * max(nmax - n0, 0)
    return BranchTable(speeds=held.speeds, **{
        f: getattr(held, f)[(slice(None),) * ax + (slice(k),)]
        for f, ax in _ROW_AXES.items()})


def _split_modes(sys, consts, lo, nmax) -> BranchTable:
    """The branch split of the modes lo < |n| <= nmax (rows n, -n in
    order of n) with read-only arrays.  A ContourError names the modes
    that failed; its members are their rows in a table from n0 on."""
    ns = np.outer(np.arange(lo + 1, nmax + 1), [1, -1]).ravel()
    zs = 1j / ns
    try:
        Ph, Pp = projection_split(sys, zs, consts.R)
        per_speed = hyperbolic_branches(sys, zs, Ph)
    except ContourError as exc:
        modes = ns[list(exc.members)].tolist()
        rows = 2 * (lo - consts.n0) + np.array(exc.members, dtype=int)
        raise ContourError(f"modes n = {modes}: {exc.reason}", rows) from exc
    return BranchTable(*map(_read_only, (
        ns, Ph, Pp, graph_map(sys, zs, Pp), np.array(list(per_speed)),
        np.array([P for P, _ in per_speed.values()]),
        np.array([Rm for _, Rm in per_speed.values()]))))


def _read_only(a):
    """a, made read-only: the memos here hand it to every caller."""
    a.setflags(write=False)
    return a
