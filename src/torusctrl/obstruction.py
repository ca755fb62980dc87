"""High-frequency approximate-transport witnesses against observability.

For T below the geometric minimal time, a cut-off profile chi riding the
slowest transport characteristic misses the observation set.  Highpassing
chi with the polynomial P_N(X) = prod_{|j|<=N} (X - j) and dressing it
with the slow-branch projection data produces an exact adjoint solution
g_N whose mass over (0,T) x omega vanishes like 1/N^2 relative to its
terminal mass, which kills any uniform observability constant.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (SystemMatrices, TorusSubset, TWO_PI, REAL_SPEC_TOL,
                      PreconditionError, OwnerMemo, kalman_rank)
from . import spectral, dynamics

__all__ = [
    "ObstructionWitness", "highpass_profile", "gaussian_profile",
    "witness_track", "build_witness", "witness_nmax",
    "observability_ratio", "pure_transport_space",
]

# clearance between the swept witness profile and omega
WITNESS_MARGIN = 0.05 * TWO_PI
# the highpassed witness profile peaks near PEAK_FACTOR * N
PEAK_FACTOR = 2.5
# time samples of the observability ratio's trapezoid over (0, T)
RATIO_TIMES = 33
# eigenvalue match of pure_transport_space: |lambda - i mu| below this
# times 1 + |n|
TRANSPORT_TOL = 1e-8
# the witness semigroups of each system (see ObstructionWitness)
_SEMIGROUPS = OwnerMemo()


@functools.lru_cache(maxsize=64)
def _highpass_table(nmax, N):
    """log |P_N(n)| and its sign over the modes -nmax..nmax, read-only."""
    diffs = np.arange(-nmax, nmax + 1)[:, None] - np.arange(-N, N + 1)
    with np.errstate(divide="ignore"):
        table = np.log(np.abs(diffs)).sum(axis=1)
    signs = np.where((diffs < 0).sum(axis=1) % 2 == 0, 1.0, -1.0)
    table.flags.writeable = signs.flags.writeable = False
    return table, signs


def highpass_profile(profile, N: int) -> dynamics.FourierState:
    """Apply the highpass polynomial to a profile given in closed form:
    a_n -> P_N(n) a_n (zero for |n| <= N), rescaled to unit L2 norm
    (every quoted bound is scale invariant).

    profile is the pair (log |a_n|, a_n / |a_n|) of arrays over the modes
    -nmax..nmax (see gaussian_profile); the product is evaluated in log
    magnitude with sign tracking, so coefficients far below the float
    range still enter exactly.  The table of log |P_N(n)| (-inf for
    |n| <= N) and its signs is kept per (nmax, N), as it is profile-free.
    """
    log_abs, phase = profile
    nmax = (len(log_abs) - 1) // 2
    table, signs = _highpass_table(nmax, N)
    logs = table + log_abs
    out = dynamics.FourierState.zeros(nmax, 1)
    finite = np.isfinite(logs)
    if not np.any(finite):
        return out
    out.coeffs[finite, 0] = (phase[finite] * signs[finite]
                             * np.exp(logs[finite] - np.max(logs[finite])))
    return out * (1.0 / out.norm())


def gaussian_profile(nmax, center, sigma):
    """Periodized-Gaussian profile in closed form: the pair (log |a_n|,
    a_n / |a_n|) over the modes -nmax..nmax of
    a_n = (sigma / (2 sqrt(pi))) e^{-sigma^2 n^2 / 4} e^{-i n center}.

    Unlike grid analysis of a compactly supported bump, these coefficients
    are exact at any magnitude, so the highpass product can be evaluated
    in log space without a floating-point noise floor.  The spatial tails
    e^{-(d/sigma)^2} are controlled by the placement margin.
    """
    ns = np.arange(-nmax, nmax + 1).astype(float)
    log_abs = (np.log(sigma / (2.0 * np.sqrt(np.pi)))
               - 0.25 * sigma ** 2 * ns ** 2)
    return log_abs, np.exp(-1j * ns * center)


@dataclass
class ObstructionWitness:
    """Witness pair at highpass order N: g_N(t) has the mode-n coefficient
    a_n e^{i mu n t} e^{t Rhmu(i/n)*} Phmu(i/n)* phi0 (a_n from chiN),
    gtilde_N(t) has a_n e^{i mu n t} e^{t Rhmu(0)*} phi0; both semigroups
    run on dynamics.ModeBasis.  The pair carries its own support (chiN
    rides the slowest characteristic outside omega); nothing masks it.
    The semigroups depend on Rhmu, Phmu, Rhmu0 and phi0 alone, not on T
    or chiN's center: each system keeps them, read-only, while it lives,
    under the bytes of those four arrays, so a hit returns what a cold
    build returns and a horizon sweep builds them once per N.  gN_stack
    gives g_N on a batch of times as one (L, Q, d) array of its L live
    rows, the array the observability ratio reads; gN_coeffs and
    gNtilde_coeffs build FourierStates from the same product."""

    N: int
    mu: float
    chiN: dynamics.FourierState
    phi0: np.ndarray
    sys: SystemMatrices
    Rhmu0: np.ndarray
    Phmu: np.ndarray  # (L, d, d): Phmu(i/n) for the chosen mu, n live
    Rhmu: np.ndarray  # (L, d, d): Rhmu(i/n) likewise

    def __post_init__(self):
        # the L live modes of chiN (a_n != 0, n != 0), in order, and the
        # maps e^{t Rhmu(i/n)*} Phmu(i/n)* phi0 on them and e^{t Rhmu(0)*} phi0
        self._live = _live_rows(self.chiN)
        inputs = (self.Rhmu, self.Phmu, self.Rhmu0, self.phi0)
        key = tuple((a.dtype.str, a.shape, a.tobytes()) for a in inputs)
        self._gN, self._gNtilde = _SEMIGROUPS.get(self.sys, key, lambda: (
            dynamics.ModeBasis(-np.swapaxes(self.Rhmu, -1, -2).conj())
            .action(np.swapaxes(self.Phmu, -1, -2).conj() @ self.phi0),
            dynamics.ModeBasis([-self.Rhmu0.conj().T]).action([self.phi0])))

    def gN_stack(self, ts):
        """g_N's live rows at the 1-D array of times ts: (L, Q, d)."""
        return self._stack(ts, self._live, self._gN)

    def _stack(self, ts, rows, semigroup):
        amp = self.chiN.coeffs[rows, 0] * np.exp(
            1j * self.mu * np.outer(ts, self.chiN.modes[rows]))
        return amp.T[..., None] * semigroup(ts)

    def _states(self, t, rows, semigroup):
        # a state per time of a 1-D array t, a single one for a float
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        coeffs = np.zeros((len(ts), len(self.chiN.modes), self.sys.d),
                          dtype=complex)
        coeffs[:, rows] = self._stack(ts, rows, semigroup).swapaxes(0, 1)
        states = [dynamics.FourierState(self.chiN.nmax, c) for c in coeffs]
        return states if np.ndim(t) else states[0]

    def gN_coeffs(self, t):
        """Exact adjoint-solution coefficients at time t: a FourierState
        for a float t, a list of them for a 1-D array of times."""
        return self._states(t, self._live, self._gN)

    def gNtilde_coeffs(self, t):
        """Pure-transport comparison profile at time t, with the
        gN_coeffs contract."""
        return self._states(t, np.flatnonzero(self.chiN.coeffs[:, 0]),
                            self._gNtilde)


def _live_rows(chiN):
    return np.flatnonzero((chiN.coeffs[:, 0] != 0) & (chiN.modes != 0))


def _witness_sigma(N):
    """Width of the Gaussian whose highpass at order N peaks near
    PEAK_FACTOR * N."""
    return np.sqrt(2.0 * (2 * N + 1)) / (PEAK_FACTOR * N)


def witness_nmax(N: int) -> int:
    """Truncation order large enough to hold the highpassed witness
    profile at order N (peak modes near PEAK_FACTOR*N plus the Gaussian
    envelope width)."""
    return int(np.ceil(PEAK_FACTOR * N + 6.0 / _witness_sigma(N))) + 4


def witness_track(sys: SystemMatrices, omega: TorusSubset, T: float):
    """(k, mu, center): the slowest speed mu = transport_speeds()[k], the
    one minimal_time divides by, and a profile center in the largest gap
    of omega that stays WITNESS_MARGIN clear of omega while swept over
    [0, T].  PreconditionError when mu vanishes, omega covers the torus
    or T leaves no room."""
    speeds = sys.transport_speeds()
    k = int(np.argmin(np.abs(speeds)))
    mu = float(speeds[k])
    if abs(mu) <= REAL_SPEC_TOL:
        raise PreconditionError("one of the transport speeds vanishes: "
                                "minimal time is infinite, no witness exists")
    gaps = omega.gap_intervals()
    if not gaps:
        raise PreconditionError("omega covers the torus: minimal time is "
                                "zero, no obstruction witness exists")
    a, b = max(gaps, key=lambda g: g[1] - g[0])
    bound = (b - a - 2.0 * WITNESS_MARGIN) / abs(mu)
    if T >= bound:
        raise PreconditionError(
            f"no room for a witness at T = {T:.6g}: need T < {bound:.6g} "
            f"(T* = {(b - a) / abs(mu):.6g})")
    # support of chi(. + mu t) at time t is supp(chi) - mu t
    lo = a + WITNESS_MARGIN + max(mu, 0.0) * T
    hi = b - WITNESS_MARGIN - max(-mu, 0.0) * T
    return k, mu, 0.5 * (lo + hi)


def build_witness(sys: SystemMatrices, branches: spectral.BranchTable,
                  omega: TorusSubset, T: float, N: int,
                  consts=None) -> ObstructionWitness:
    """Construct the witness pair (g_N, gtilde_N) for T below minimal time.

    The profile chi is a periodized Gaussian at witness_track's center,
    which refuses (PreconditionError) a T that leaves it no room; its
    width is tied to N so the highpassed profile peaks near
    PEAK_FACTOR*N (keeping the per-mode branch deviation, hence the
    approximation error, of order 1/N).  Its coefficients enter the
    highpass in closed form.  phi0 is the leading left singular vector
    of Phmu(0)*, kept with the system's remainder_at_zero limits, so a
    call takes no svd.  The live rows N < |n| <= nmax do not depend on
    the center, so a horizon sweep at one N on one table reads the
    witness semigroups its system keeps (see ObstructionWitness) past its
    first horizon.
    """
    k, mu, center = witness_track(sys, omega, T)
    if not branches:
        raise ValueError("empty branch table")
    nmax = int(np.max(np.abs(branches.modes)))
    chiN = highpass_profile(
        gaussian_profile(nmax, center, _witness_sigma(N)), N)

    if consts is None:
        consts = spectral.separation_radius(sys)
    # the branch data is keyed and ordered by the transport speeds
    _, Rm0, phi0 = spectral.remainder_at_zero(sys, consts.R)[mu]

    # a KeyError here means the highpass order N is below the cutoff n0
    rows = branches.rows(chiN.modes[_live_rows(chiN)])
    return ObstructionWitness(N=N, mu=mu, chiN=chiN, phi0=phi0, sys=sys,
                              Rhmu0=Rm0, Phmu=branches.Phmu[k, rows],
                              Rhmu=branches.Rhmu[k, rows])


def observability_ratio(witness: ObstructionWitness, omega: TorusSubset,
                        T: float) -> float:
    """||g_N||^2 over (0,T) x omega divided by ||g_N(T)||^2 over the torus,
    both read off one gN_stack on RATIO_TIMES times."""
    ts = np.linspace(0.0, T, RATIO_TIMES)
    stack = witness.gN_stack(ts)
    # the norm of g_N(T) on all 2 nmax + 1 rows: its sum runs in the order
    # of gN_coeffs(T).norm(), so the ratio keeps that norm's bits
    last = dynamics.FourierState.zeros(witness.chiN.nmax, witness.sys.d)
    last.coeffs[witness._live] = stack[:, -1]
    den = last.norm() ** 2
    if den == 0:
        raise ZeroDivisionError("degenerate witness: ||g_N(T)|| = 0")
    return dynamics.windowed_l2_norm(
        ts, stack, witness.chiN.modes[witness._live], witness.chiN.nmax,
        (0.0, T), omega) ** 2 / den


def pure_transport_space(sys: SystemMatrices, mu: float, nmax: int):
    """Scan for modes carrying exact speed-mu transport solutions.

    For each 0 < |n| <= nmax, tests whether i*mu is an eigenvalue of
    n E(i/n)* within |lambda - i mu| < TRANSPORT_TOL*(1+|n|), all modes
    in one stacked eig; matches come in order of n, then of eigenvalue
    index.  Also evaluates the rank of (B | AB | ... | A^{d-1} B)
    (kalman_rank), whose fullness predicts the matched set stays finite.
    """
    ns = np.concatenate([np.arange(-nmax, 0), np.arange(1, nmax + 1)])
    mats = ns[:, None, None] * spectral.eval_symbol(sys, 1j / ns)
    w, V = np.linalg.eig(np.swapaxes(mats, -1, -2).conj())
    hit = np.abs(w - 1j * mu) < TRANSPORT_TOL * (1.0 + np.abs(ns))[:, None]
    matches = [(int(ns[k]), V[k, :, h]) for k, h in zip(*np.nonzero(hit))]
    rank, full = kalman_rank(sys.A, sys.B)
    return {
        "matches": matches,
        "count": len(matches),
        "kalman_rank_AB": rank,
        "finite_dimensional_expected": full,
    }
