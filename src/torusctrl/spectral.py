"""Matrix symbol, spectral projections, branch splitting, graph map.

The symbol is E(z) = B + z A - z^2 K; at z = i/n the mode-n generator is
n^2 E(i/n).  For small |z| its spectrum splits into a "hyperbolic" group
of d1 eigenvalues inside the split radius |zeta| < R, R = min|Sp(D)|/2
(eigenvalues ~ mu z for mu in Sp(Aprime)), and a "parabolic" group near
Sp(D).  Each group's Riesz projection (Kato) is V diag(group) V^-1 from
one stacked eigendecomposition E(z) = V diag(w) V^-1, and the hyperbolic
group splits further per transport speed mu into the eigenvalues w whose
w/z lies nearest mu, from an eigendecomposition of its own when there
are two or more speeds.  _projections is the one projector.  The speeds
are those of SystemMatrices.transport_speeds, and key every per-speed
result here.  A ContourError refuses the members of a stack whose
eigenvector matrix is ill-conditioned or whose eigenvalue counts do not
fit the split; separation_radius certifies both on the lattice
z = +-i/n, with the tables' own split.

Functions of z take a scalar or a 1-D array of z; build_branch_table
splits the modes n0 < |n| <= nmax into one stacked BranchTable.  The
split depends on the system and the mode, never on a horizon or a datum,
so each system keeps, in an OwnerMemo that dies with it, one table per
BranchConstants, grown to the largest nmax asked for, and one
remainder_at_zero per split radius, with each speed's witness start.
The certificate is the table: the lattice rows separation_radius split
start the table kept for the constants it returns, so a table up to
floor(20/r) splits no mode twice.  A call hands out new containers of
the kept arrays, which are read-only.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (SystemMatrices, PreconditionError, OwnerMemo,
                      DIAG_COND_MAX)

__all__ = [
    "BranchTable", "BranchConstants", "eval_symbol", "separation_radius",
    "projection_split", "hyperbolic_branches", "graph_map",
    "build_branch_table", "limit_projections",
]

# separation_radius refuses below this radius
RADIUS_FLOOR = 1e-6
# remainder_at_zero extrapolates from z = i/REMAINDER_N and i/(2 REMAINDER_N)
REMAINDER_N = 512


class ContourError(RuntimeError):
    """The eigendecomposition split refused members of a stack: an
    eigenvector matrix with cond(V) >= DIAG_COND_MAX, or eigenvalue
    counts that do not fit the split radius or the transport speeds.

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


def _projections(V, groups):
    """Spectral projections V diag(g) V^-1, one per boolean mask g (...,
    d) of the stack groups (G, ..., d), from the eigenvectors V (..., d,
    d) of a stacked np.linalg.eig: a (G, ..., d, d) stack.  A member with
    cond(V) >= DIAG_COND_MAX raises a ContourError whose `members` index
    the flattened stack."""
    bad = np.flatnonzero(~(np.linalg.cond(V) < DIAG_COND_MAX))
    if bad.size:
        raise ContourError("eigenvector condition >= "
                           f"{DIAG_COND_MAX:.0e} (stack members "
                           "{members})", bad)
    return (V * groups[..., None, :]) @ np.linalg.inv(V)


def _speed_of(x, mus):
    """Index of the transport speed in mus nearest each entry of x."""
    return np.argmin(np.abs(np.asarray(x)[..., None] - mus), axis=-1)


@dataclass(frozen=True)
class BranchConstants:
    """Global branch-splitting data: separation radius r, frequency cutoff
    n0 (1/n0 < r) and split radius R, inside which E(i/n) has its d1
    hyperbolic eigenvalues."""

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
    eigenvalue of E(z) keeps distance >= R/10 from the circle |zeta| = R,
    and the tables' own split (_split_modes) refuses no point of the
    lattice z = +-i/n in the sampled annulus r/20 <= |z| <= r.  The disk
    is tested outer ring first, where most refused radii fail, and the
    lattice 512 modes a block, so that a refusal costs one block.  A
    smaller n0_override raises PreconditionError.

    The certificate is the table: the rows n0 < |n| of the lattice's
    first block seed build_branch_table's kept table for the returned
    constants, unless sys holds one already or their graph map is
    undefined (build_branch_table then raises it)."""
    specD = np.linalg.eigvals(sys.D)
    if np.any(specD.real <= 0):
        raise ValueError("H.3 violated: Sp(D) not in the right half plane")
    R = 0.5 * float(np.min(np.abs(specD)))
    margin = R / 10.0
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False))
    radii_frac = np.linspace(0.05, 1.0, 12)

    def lattice_split(r):
        """The split of the lattice's first block of modes, or None where
        the disk or the lattice refuses r."""
        zs = ((r * radii_frac)[:, None] * phases).ravel()
        for ring in (zs[-len(phases):], zs[:-len(phases)]):
            w = np.linalg.eigvals(eval_symbol(sys, ring))
            if np.any(np.abs(np.abs(w) - R) < margin):
                return None
        ns = np.arange(np.ceil(1.0 / r), np.floor(1.0 / (r * radii_frac[0]))
                       + 1.0).astype(int)
        consts = BranchConstants(r=r, n0=int(ns[0]) - 1, R=R)
        first = None
        try:
            for block in np.array_split(ns, ns.size // 512 + 1):
                split = _split_modes(sys, consts, block[0] - 1, block[-1])
                first = first or split
        except ContourError:
            return None
        return first

    r = 1.0
    while r >= RADIUS_FLOOR:
        first = lattice_split(r)
        if first is not None:
            break
        r *= 0.7
    else:
        raise ValueError(
            f"no separation radius above {RADIUS_FLOOR}: E(z) is not split "
            f"by the circle |zeta| = {R} at |z| = {r / 0.7}")
    n0 = int(np.ceil(1.0 / r))
    if n0_override is not None:
        if n0_override < n0:
            raise PreconditionError(
                f"n0 override {n0_override} below certified {n0}")
        n0 = int(n0_override)
    consts = BranchConstants(r=r, n0=n0, R=R)
    # the first block's rows of the modes above n0
    k = 2 * (n0 + 1 - first[0][0])
    if k < len(first[0]):
        try:
            _BRANCH_TABLES.get(sys, consts, lambda: _table(sys, first, k))
        except ValueError:
            pass  # graph map undefined: build_branch_table raises it
    return consts


def projection_split(sys: SystemMatrices, z, R: float):
    """Hyperbolic/parabolic projection pair (Ph, Pp) at z.

    Ph is the spectral projection of E(z) onto its eigenvalues inside the
    split radius, |zeta| < R, from one eigendecomposition; Pp = I - Ph.
    A 1-D array of z gives (len(z), d, d) stacks, from one stacked
    eigendecomposition.  A ContourError names the members where not
    exactly d1 eigenvalues lie inside or one lies within R/10 of the
    circle, or where _projections refuses the eigenvectors.
    """
    w, V = np.linalg.eig(eval_symbol(sys, z))
    size = np.abs(w)
    inside = size < R
    bad = np.flatnonzero((inside.sum(axis=-1) != sys.d1)
                         | np.any(np.abs(size - R) < R / 10.0, axis=-1))
    if bad.size:
        raise ContourError(f"eigenvalues not split by |zeta| = {R:.6g} "
                           "(stack members {members})", bad)
    Ph = _projections(V, inside[None])[0]
    return Ph, np.eye(sys.d) - Ph


def hyperbolic_branches(sys: SystemMatrices, z, Ph: np.ndarray):
    """Split Ph into per-speed projections: mu -> (Phmu, Rhmu), one per
    transport speed (SystemMatrices.transport_speeds), in its order.

    The eigen-directions of E(z) that Ph keeps split by the speed nearest
    their w/z, and Phmu projects onto those of mu.  A ContourError names
    the members where a speed holds another number of them than its
    multiplicity in Sp(Aprime), or where _projections refuses the
    eigenvectors.  The remainder satisfies E(z) Phmu = mu z Phmu + z^2
    Rhmu.  With one speed Phmu is Ph itself and no eigendecomposition
    runs; with more, it runs its own eigendecomposition of E(z).  A 1-D
    array of z with the stack Ph gives stacks.
    """
    z = np.asarray(z)
    if np.any(z == 0):
        raise ValueError("z must be nonzero (use limit_projections for z=0)")
    zz = z[..., None, None]
    E = eval_symbol(sys, z)
    mus = sys.transport_speeds()
    if len(mus) == 1:
        Phmu = [Ph.copy()]
    else:
        w, V = np.linalg.eig(E)
        # eig's columns have unit norm: Ph keeps its own, zeroes the others
        kept = np.linalg.norm(Ph @ V, axis=-2) > 0.5
        speed = np.where(kept, _speed_of(w / z[..., None], mus), -1)
        # onehot[..., j, s]: eigen-direction j belongs to speed s
        onehot = speed[..., None] == np.arange(len(mus))
        mult = np.bincount(_speed_of(np.linalg.eigvals(sys.Aprime).real,
                                     mus), minlength=len(mus))
        bad = np.flatnonzero(np.any(onehot.sum(axis=-2) != mult, axis=-1))
        if bad.size:
            at = np.abs(np.ravel(z))[bad].round(4).tolist()
            raise ContourError(f"mu-groups not separated at |z| = {at}; "
                               "increase n0", bad)
        Phmu = _projections(V, np.moveaxis(onehot, -1, 0))
    return {mu: (P, (E @ P - mu * zz * P) / (zz * zz))
            for mu, P in zip(mus.tolist(), Phmu)}


def graph_map(sys: SystemMatrices, z, Pp: np.ndarray) -> np.ndarray:
    """G(z) with phi in range(Pp(z)*) iff phi_1 = G(z) phi_2.

    G(z) = (I - p11)^-1 p12 where p11, p12 are the top blocks of Pp(z)*;
    a 1-D array of z with the stack Pp gives the (len(z), d1, d2) stack.
    """
    d1 = sys.d1
    top = np.swapaxes(Pp, -1, -2).conj()[..., :d1, :]
    p11, p12 = top[..., :d1], top[..., d1:]
    bad = np.flatnonzero(~(np.linalg.norm(p11, 2, axis=(-2, -1)) < 1.0))
    if bad.size:
        raise ValueError("graph map undefined: ||p11(z)|| >= 1 at z = "
                         f"{np.ravel(z)[bad].tolist()}")
    return np.linalg.solve(np.eye(d1) - p11, p12)


def limit_projections(sys: SystemMatrices):
    """z -> 0 limits: Ph(0) = (I 0; 0 0) and, per transport speed, the
    blocks Phmu(0) = (proj_mu(Aprime) 0; 0 0), with proj_mu the spectral
    projection of Aprime onto its eigenvalues nearest mu."""
    d, d1 = sys.d, sys.d1
    Ph0 = np.zeros((d, d), dtype=complex)
    Ph0[:d1, :d1] = np.eye(d1)
    mus = sys.transport_speeds()
    w, V = np.linalg.eig(sys.Aprime)
    groups = _speed_of(w.real, mus) == np.arange(len(mus))[:, None]
    out = {}
    for mu, pm in zip(mus.tolist(), _projections(V, groups)):
        block = np.zeros((d, d), dtype=complex)
        block[:d1, :d1] = pm
        out[mu] = block
    return Ph0, out


# remainder_at_zero's limits per system and split radius
_REMAINDERS = OwnerMemo()


def remainder_at_zero(sys: SystemMatrices, R: float):
    """Richardson-extrapolated limits mu -> (Phmu(0), Rhmu(0), phi0) from
    z = i/REMAINDER_N and i/(2 REMAINDER_N); the branch data is first
    order in z so the extrapolant is O(1/n^2) accurate.  phi0, the
    leading left singular vector of Phmu(0)*, starts an obstruction
    witness.  They are computed once per sys and split radius R and kept
    while sys lives, so a witness takes no svd.  Each call returns a
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
    consts is kept while sys lives, at the largest nmax asked for; for the
    constants separation_radius returned, it starts as the certificate's
    rows, up to floor(20/r) (at most a 512-mode block).  A larger nmax
    splits only the modes above it, with one stacked call each of
    projection_split, hyperbolic_branches and graph_map, and appends
    their rows; a smaller one reads the first 2 (nmax - n0).  Every
    eigendecomposition and test acts per mode, so the rows hold the bits
    of a fresh split of their modes alone.  Each call returns a new
    BranchTable of views of the kept arrays, which are read-only.  A
    ContourError names the modes that failed, its members are their rows
    in the full table, and the kept table stays as it was.
    """
    n0 = consts.n0
    held = _BRANCH_TABLES.get(
        sys, consts, lambda: _table(sys, _split_modes(sys, consts, n0, nmax)))
    top = n0 + len(held) // 2
    if nmax > top:
        new = _table(sys, _split_modes(sys, consts, top, nmax))
        held = _BRANCH_TABLES.put(sys, consts, BranchTable(
            speeds=held.speeds, **{
                f: _read_only(np.concatenate([getattr(held, f),
                                              getattr(new, f)], axis=ax))
                for f, ax in _ROW_AXES.items()}))
    k = 2 * max(nmax - n0, 0)
    return BranchTable(speeds=held.speeds, **{
        f: getattr(held, f)[(slice(None),) * ax + (slice(k),)]
        for f, ax in _ROW_AXES.items()})


def _split_modes(sys, consts, lo, nmax):
    """The branch split of the modes lo < |n| <= nmax, rows n, -n in order
    of n: the modes, projection_split's pair and hyperbolic_branches' dict.
    A ContourError names the modes that failed; its members are their
    rows in a table from consts.n0 on."""
    ns = np.outer(np.arange(lo + 1, nmax + 1), [1, -1]).ravel()
    zs = 1j / ns
    try:
        pair = projection_split(sys, zs, consts.R)
        return ns, pair, hyperbolic_branches(sys, zs, pair[0])
    except ContourError as exc:
        modes = ns[list(exc.members)].tolist()
        rows = 2 * (lo - consts.n0) + np.array(exc.members, dtype=int)
        raise ContourError(f"modes n = {modes}: {exc.reason}", rows) from exc


def _table(sys, split, k=0) -> BranchTable:
    """The BranchTable of a _split_modes result's rows from k on, in new
    read-only arrays, with their graph map (whose ValueError it raises)."""
    ns, (Ph, Pp), per_speed = split
    ns, Ph, Pp = (a[k:].copy() for a in (ns, Ph, Pp))
    return BranchTable(*map(_read_only, (
        ns, Ph, Pp, graph_map(sys, 1j / ns, Pp), np.array(list(per_speed)),
        np.array([P[k:] for P, _ in per_speed.values()]),
        np.array([Rm[k:] for _, Rm in per_speed.values()]))))


def _read_only(a):
    """a, made read-only: the memos here hand it to every caller."""
    a.setflags(write=False)
    return a
