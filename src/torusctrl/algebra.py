"""System matrices, hypothesis checks, minimal time, Kalman rank, cascade forms.

The model is a coupled transport/diffusion system on the circle,

    d_t f - B d_xx f + A d_x f + K f = M u 1_omega,

with B block-diagonal: a zero (d1 x d1) block stacked over a diffusion
block D whose spectrum has positive real part.  The upper-left block of A
(written Aprime here) drives the transport branches and must be
diagonalizable with real spectrum.
"""

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemMatrices", "TorusSubset", "CascadeForm", "ValidationReport",
    "validate_system", "minimal_time", "kalman_rank", "cascade_transform",
    "numerical_rank", "PreconditionError",
]

TWO_PI = 2.0 * np.pi

# eigenvector-matrix condition bound for the diagonalizability check
DIAG_COND_MAX = 1e8
REAL_SPEC_TOL = 1e-9
# sorted speeds closer than this (relative) to their neighbour count as one
SPEED_MERGE_TOL = 1e-8
# values an OwnerMemo keeps per owner, least recently used dropped first
MEMO_SIZE = 8


class PreconditionError(ValueError):
    """Inputs outside a hypothesis of the computation, raised where the
    condition is decided: the CLI exits 2 on it, 1 on other errors."""


class OwnerMemo:
    """Values built for an owner object and freed with it: a weakly keyed
    map from each owner to its MEMO_SIZE most recently used values.  The
    owner must hash by identity, and no value may reference it, or its
    weak entry never dies."""

    def __init__(self):
        self._owners = weakref.WeakKeyDictionary()

    def get(self, owner, key, build):
        """The value under key for owner, made by build() on a miss."""
        memo = self._owners.get(owner, {})
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        return self.put(owner, key, build())

    def put(self, owner, key, value):
        """Keep value under key for owner, in place of any held one."""
        memo = self._owners.setdefault(owner, OrderedDict())
        memo[key] = value
        memo.move_to_end(key)
        if len(memo) > MEMO_SIZE:
            memo.popitem(last=False)
        return value


def _as_complex(a, name, shape=None):
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if shape is not None and m.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    """The tuple (d1, d2, A, D, K, M) defining the system.

    A and K are (d x d) with d = d1 + d2; D is the (d2 x d2) diffusion
    block; M is (d x m).  Block views follow the d1/d2 split.  The arrays
    are read-only and a system compares and hashes by identity, so caches
    can key on it.
    """

    d1: int
    d2: int
    A: np.ndarray
    D: np.ndarray
    K: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("need d1 >= 1 and d2 >= 1")
        d = self.d1 + self.d2
        object.__setattr__(self, "A", _as_complex(self.A, "A", (d, d)))
        object.__setattr__(self, "D", _as_complex(self.D, "D", (self.d2, self.d2)))
        object.__setattr__(self, "K", _as_complex(self.K, "K", (d, d)))
        M = _as_complex(self.M, "M")
        if M.shape[0] != d:
            raise ValueError(f"M: expected {d} rows, got {M.shape[0]}")
        object.__setattr__(self, "M", M)
        for name in ("A", "D", "K", "M"):
            getattr(self, name).setflags(write=False)

    @property
    def d(self):
        return self.d1 + self.d2

    @property
    def m(self):
        return self.M.shape[1]

    @property
    def B(self):
        B = np.zeros((self.d, self.d), dtype=complex)
        B[self.d1:, self.d1:] = self.D
        return B

    # block views
    @property
    def Aprime(self):
        return self.A[:self.d1, :self.d1]

    @property
    def A12(self):
        return self.A[:self.d1, self.d1:]

    @property
    def A22(self):
        return self.A[self.d1:, self.d1:]

    @property
    def K12(self):
        return self.K[:self.d1, self.d1:]

    @property
    def K21(self):
        return self.K[self.d1:, :self.d1]

    @property
    def K22(self):
        return self.K[self.d1:, self.d1:]

    def transport_speeds(self):
        """The distinct transport speeds mu in Sp(Aprime), increasing: the
        real parts of the eigenvalues (real up to tolerance when H.4
        holds), a run of them each within SPEED_MERGE_TOL (1 + |mu|) of
        the one before counting as one speed, its smallest.  Every module
        reads its speeds from here."""
        w = np.sort(np.linalg.eigvals(self.Aprime).real)
        step = np.diff(w) > SPEED_MERGE_TOL * (1.0 + np.abs(w[1:]))
        return w[np.concatenate(([True], step))]


@dataclass(frozen=True)
class TorusSubset:
    """An open subset omega of the circle [0, 2*pi), a union of disjoint arcs.

    Arcs are (start, end) with end > start; an arc may wrap past 2*pi
    (e.g. (5.0, 7.0) covers [5, 2*pi) and [0, 7 - 2*pi)).
    """

    arcs: tuple = field(default=())

    def __post_init__(self):
        if len(self.arcs) == 0:
            raise ValueError("omega must contain at least one arc")
        norm = []
        for (a, b) in self.arcs:
            a, b = float(a), float(b)
            if not b > a:
                raise ValueError(f"arc ({a}, {b}) has nonpositive length")
            if b - a > TWO_PI:
                raise ValueError(f"arc ({a}, {b}) longer than the circle")
            norm.append((a % TWO_PI, a % TWO_PI + (b - a)))
        norm.sort()
        # disjointness on the circle
        for i in range(len(norm) - 1):
            if norm[i][1] > norm[i + 1][0] + 1e-14:
                raise ValueError("arcs overlap")
        if len(norm) > 1 and norm[-1][1] - TWO_PI > norm[0][0] + 1e-14:
            raise ValueError("arcs overlap around 0")
        object.__setattr__(self, "arcs", tuple(norm))

    @property
    def total_length(self):
        return min(sum(b - a for a, b in self.arcs), TWO_PI)

    def largest_gap(self):
        """Length of the largest connected component of the complement."""
        gaps = self.gap_intervals()
        if not gaps:
            return 0.0
        return max(b - a for a, b in gaps)

    def gap_intervals(self):
        """Complement components as (start, end) with end > start (may wrap)."""
        if self.total_length >= TWO_PI - 1e-14:
            return []
        out = []
        n = len(self.arcs)
        for i in range(n):
            end = self.arcs[i][1]
            nxt = self.arcs[(i + 1) % n][0] + (TWO_PI if i == n - 1 else 0.0)
            if nxt - end > 1e-14:
                out.append((end, nxt))
        return out

    def indicator(self, x):
        """1_omega sampled at points x (array-friendly)."""
        x = np.asarray(x, dtype=float) % TWO_PI
        ind = np.zeros_like(x)
        for (a, b) in self.arcs:
            ind = np.maximum(ind, ((x >= a) & (x < b)).astype(float))
            if b > TWO_PI:
                ind = np.maximum(ind, (x < b - TWO_PI).astype(float))
        return ind

    def shrunk(self, fraction):
        """Shrink every arc by `fraction` of its length on each side."""
        arcs = []
        for (a, b) in self.arcs:
            pad = fraction * (b - a)
            arcs.append((a + pad, b - pad))
        return TorusSubset(tuple(arcs))


@dataclass(frozen=True)
class ValidationReport:
    h1: bool
    h2: bool
    h3: bool
    h4: bool
    diagnostics: dict

    @property
    def ok(self):
        return self.h1 and self.h2 and self.h3 and self.h4


def validate_system(sys: SystemMatrices) -> ValidationReport:
    """Check hypotheses H.1-H.4 and report per-hypothesis diagnostics.

    H.1: 1 <= d1 and 1 <= d2.  H.2: B is (0 0; 0 D), structural here since
    B is assembled from D.  H.3: Re Sp(D) > 0.  H.4: the upper-left block
    of A is diagonalizable (eigenvector condition < 1e8) with real
    spectrum.
    """
    diag = {}
    h1 = sys.d1 >= 1 and sys.d2 >= 1
    h2 = True  # structural: B assembled as ((0, 0), (0, D))
    specD = np.linalg.eigvals(sys.D)
    diag["spec_D"] = specD
    h3 = bool(np.all(specD.real > 0))
    w, V = np.linalg.eig(sys.Aprime)
    cond = np.linalg.cond(V)
    diag["spec_Aprime"] = w
    diag["eigvec_cond"] = cond
    max_imag = float(np.max(np.abs(w.imag))) if w.size else 0.0
    diag["max_imag_Aprime"] = max_imag
    scale = 1.0 + float(np.max(np.abs(w))) if w.size else 1.0
    h4 = bool(cond < DIAG_COND_MAX and max_imag <= REAL_SPEC_TOL * scale)
    if not h4:
        diag["h4_reason"] = (
            "eigenvector condition too large" if cond >= DIAG_COND_MAX
            else "spectrum not real")
    return ValidationReport(h1=h1, h2=h2, h3=h3, h4=h4, diagnostics=diag)


def minimal_time(sys: SystemMatrices, omega: TorusSubset) -> float:
    """Geometric minimal control time: largest_gap(omega) / min |mu| over
    the transport speeds (SystemMatrices.transport_speeds).

    Returns +inf when the slowest transport speed is zero (|mu| <=
    REAL_SPEC_TOL), and 0.0 when omega covers the whole circle.
    """
    ell = omega.largest_gap()
    if ell == 0.0:
        return 0.0
    mu_star = float(np.min(np.abs(sys.transport_speeds())))
    if mu_star <= REAL_SPEC_TOL:
        return np.inf
    return ell / mu_star


def numerical_rank(mat, dim_hint=None):
    """Rank by singular values with the relative threshold
    max(shape_hint) * sigma_max * 1e-10."""
    mat = np.atleast_2d(mat)
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    hint = dim_hint if dim_hint is not None else max(mat.shape)
    return int(np.sum(s > hint * s[0] * 1e-10))


def kalman_rank(M22, M21):
    """Rank of the Krylov matrix (M21 | M22 M21 | ... | M22^{d2-1} M21).

    Returns (rank, satisfied) with satisfied iff rank == d2.
    """
    M22 = np.atleast_2d(np.asarray(M22, dtype=complex))
    M21 = np.atleast_2d(np.asarray(M21, dtype=complex))
    d2 = M22.shape[0]
    if M22.shape != (d2, d2) or M21.shape[0] != d2:
        raise ValueError("inconsistent dimensions for the Kalman test")
    blocks = [M21]
    for _ in range(d2 - 1):
        blocks.append(M22 @ blocks[-1])
    krylov = np.hstack(blocks)
    rank = numerical_rank(krylov, dim_hint=max(d2, M21.shape[1]))
    return rank, rank == d2


@dataclass(frozen=True)
class CascadeForm:
    """Adapted-basis (companion/cascade) form of a coupling pair (K22, K21).

    P is the change of basis with K22 P = P Khat22; column_indices are the
    K21 columns seeding each Krylov chain and block_sizes their lengths.
    """

    P: np.ndarray
    Khat22: np.ndarray
    Khat21: np.ndarray
    column_indices: tuple
    block_sizes: tuple


def cascade_transform(M22, M21) -> CascadeForm:
    """Build the cascade form of (M22, M21).

    Single-input case (one column, full chain): P = (M21 | M22 M21 | ...),
    Khat22 the companion matrix carrying the Hamilton-Cayley coefficients
    of M22 in its last column (ones on the subdiagonal), Khat21 = e1.

    Multi-input case: greedy adapted basis.  Columns of M21 are scanned
    left to right; each column's Krylov chain under M22 is extended
    maximally (while it stays independent of everything kept so far)
    before the next column is considered.  This scan order is one of the
    valid choices; it is fixed for reproducibility.
    """
    M22 = np.atleast_2d(np.asarray(M22, dtype=complex))
    M21 = np.atleast_2d(np.asarray(M21, dtype=complex))
    d2 = M22.shape[0]
    rank, ok = kalman_rank(M22, M21)
    if not ok:
        raise PreconditionError(
            f"Kalman rank {rank} < {d2}: cascade basis would be singular")

    cols = []
    col_indices = []
    block_sizes = []
    for j in range(M21.shape[1]):
        v = M21[:, j]
        size = 0
        while len(cols) < d2:
            cand = np.column_stack(cols + [v]) if cols else v[:, None]
            if numerical_rank(cand, dim_hint=d2) < len(cols) + 1:
                break
            cols.append(v.copy())
            size += 1
            v = M22 @ v
        if size > 0:
            col_indices.append(j)
            block_sizes.append(size)
        if len(cols) == d2:
            break
    P = np.column_stack(cols)
    if M21.shape[1] > 1:
        Khat22 = np.linalg.solve(P, M22 @ P)
        Khat21 = np.linalg.solve(P, M21)
    else:
        # exact companion structure from the Hamilton-Cayley coefficients
        powers = np.column_stack(
            [np.linalg.matrix_power(M22, i).reshape(-1) for i in range(d2)])
        c = np.linalg.lstsq(powers, np.linalg.matrix_power(M22, d2).reshape(-1),
                            rcond=None)[0]
        comp = np.zeros((d2, d2), dtype=complex)
        if d2 > 1:
            comp[1:, :-1] = np.eye(d2 - 1)
        comp[:, -1] = c
        Khat22 = comp
        e1 = np.zeros((d2, 1), dtype=complex)
        e1[0, 0] = 1.0
        Khat21 = e1
    return CascadeForm(P=P, Khat22=Khat22, Khat21=Khat21,
                       column_indices=tuple(col_indices),
                       block_sizes=tuple(block_sizes))
