"""High-frequency approximate-transport witnesses against observability.

For T below the geometric minimal time, a cut-off profile chi riding the
slowest transport characteristic misses the observation set.  Highpassing
chi with the polynomial P_N(X) = prod_{|j|<=N} (X - j) and dressing it
with the slow-branch projection data produces an exact adjoint solution
g_N whose mass over (0,T) x omega vanishes like 1/N^2 relative to its
terminal mass, which kills any uniform observability constant.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (SystemMatrices, TorusSubset, TWO_PI, REAL_SPEC_TOL,
                      numerical_rank)
from . import spectral, dynamics

__all__ = [
    "ObstructionWitness", "highpass_profile", "gaussian_profile",
    "build_witness", "witness_nmax",
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


def highpass_profile(profile, N: int) -> dynamics.FourierState:
    """Apply the highpass polynomial to a profile given in closed form:
    a_n -> P_N(n) a_n (zero for |n| <= N), rescaled to unit L2 norm
    (every quoted bound is scale invariant).

    profile is the pair (log |a_n|, a_n / |a_n|) of arrays over the modes
    -nmax..nmax (see gaussian_profile); the product is evaluated in log
    magnitude with sign tracking, so coefficients far below the float
    range still enter exactly.
    """
    log_abs, phase = profile
    nmax = (len(log_abs) - 1) // 2
    # log |P_N(n)| and its sign over all modes at once: -inf for |n| <= N
    diffs = np.arange(-nmax, nmax + 1)[:, None] - np.arange(-N, N + 1)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(diffs)).sum(axis=1) + log_abs
    signs = np.where((diffs < 0).sum(axis=1) % 2 == 0, 1.0, -1.0)
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
    rides the slowest characteristic outside omega); nothing masks it."""

    N: int
    mu: float
    chiN: dynamics.FourierState
    phi0: np.ndarray
    sys: SystemMatrices
    Rhmu0: np.ndarray
    Phmu: np.ndarray  # (L, d, d): Phmu(i/n) for the chosen mu, n live
    Rhmu: np.ndarray  # (L, d, d): Rhmu(i/n) likewise

    def __post_init__(self):
        # the L live modes of chiN (a_n != 0, n != 0), in order, stacked
        # once: the semigroup of Rhmu(i/n)* and its start Phmu(i/n)* phi0
        self._live = _live_rows(self.chiN)
        Rstar = np.swapaxes(self.Rhmu, -1, -2).conj()
        start = np.swapaxes(self.Phmu, -1, -2).conj() @ self.phi0
        self._gN = dynamics.ModeBasis(-Rstar).action(start)
        self._gNtilde = dynamics.ModeBasis(
            -self.Rhmu0.conj().T[None]).action(self.phi0[None])

    def _states(self, t, rows, vecs):
        """FourierStates a_n e^{i mu n t} v_n(t) on the given rows of chiN,
        with vecs(ts) the (Q, len(rows), d) stack of the v_n: one state
        per time of a 1-D array t, a single one for a float."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        amp = self.chiN.coeffs[rows, 0] * np.exp(
            1j * self.mu * np.outer(ts, self.chiN.modes[rows]))
        coeffs = np.zeros((len(ts), len(self.chiN.modes), self.sys.d),
                          dtype=complex)
        coeffs[:, rows] = amp[..., None] * vecs(ts)
        states = [dynamics.FourierState(self.chiN.nmax, c) for c in coeffs]
        return states if np.ndim(t) else states[0]

    def gN_coeffs(self, t):
        """Exact adjoint-solution coefficients at time t: a FourierState
        for a float t, a list of them for a 1-D array of times."""
        return self._states(t, self._live,
                            lambda ts: self._gN(ts).transpose(1, 0, 2))

    def gNtilde_coeffs(self, t):
        """Pure-transport comparison profile at time t, with the
        gN_coeffs contract."""
        return self._states(t, np.flatnonzero(self.chiN.coeffs[:, 0]),
                            lambda ts: self._gNtilde(ts)[0][:, None])


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


def build_witness(sys: SystemMatrices, branches: spectral.BranchTable,
                  omega: TorusSubset, T: float, N: int,
                  consts=None) -> ObstructionWitness:
    """Construct the witness pair (g_N, gtilde_N) for T below minimal time.

    The profile chi is a periodized Gaussian placed in the largest
    complement gap so that its transport over [0, T] misses omega by
    WITNESS_MARGIN; its width is tied to N so the highpassed profile peaks
    near PEAK_FACTOR*N (keeping the per-mode branch deviation, hence the
    approximation error, of order 1/N).  Its coefficients enter the
    highpass in closed form.  It rides the slowest transport speed, the
    one minimal_time divides by, and a vanishing one (T* infinite) is
    refused.  phi0 is the leading right-singular vector of Phmu(0)*.
    """
    speeds = sys.transport_speeds()
    k = int(np.argmin(np.abs(speeds)))
    mu = float(speeds[k])
    if abs(mu) <= REAL_SPEC_TOL:
        raise ValueError("one of the transport speeds vanishes: minimal "
                         "time is infinite and no witness exists")
    gaps = omega.gap_intervals()
    if not gaps:
        raise ValueError("omega covers the torus: minimal time is zero, "
                         "no obstruction witness exists")
    a, b = max(gaps, key=lambda g: g[1] - g[0])
    ell = b - a
    swept = abs(mu) * T
    free = ell - swept - 2.0 * WITNESS_MARGIN
    if free <= 0:
        raise ValueError(
            f"T >= T* for this geometry: gap {ell:.3f} cannot hide a "
            f"profile swept over {swept:.3f}")
    # support of chi(. + mu t) at time t is supp(chi) - mu t
    if mu > 0:
        lo = a + WITNESS_MARGIN + swept
        hi = b - WITNESS_MARGIN
    else:
        lo = a + WITNESS_MARGIN
        hi = b - WITNESS_MARGIN - swept
    if not branches:
        raise ValueError("empty branch table")
    nmax = int(np.max(np.abs(branches.modes)))
    chiN = highpass_profile(
        gaussian_profile(nmax, 0.5 * (lo + hi), _witness_sigma(N)), N)

    if consts is None:
        consts = spectral.separation_radius(sys)
    # the branch data is keyed and ordered by the transport speeds
    Pm0, Rm0 = spectral.remainder_at_zero(sys, consts.R)[mu]
    u, s, vh = np.linalg.svd(Pm0.conj().T)
    phi0 = u[:, 0]

    # a KeyError here means the highpass order N is below the cutoff n0
    rows = branches.rows(chiN.modes[_live_rows(chiN)])
    return ObstructionWitness(N=N, mu=mu, chiN=chiN, phi0=phi0, sys=sys,
                              Rhmu0=Rm0, Phmu=branches.Phmu[k, rows],
                              Rhmu=branches.Rhmu[k, rows])


def observability_ratio(witness: ObstructionWitness, omega: TorusSubset,
                        T: float) -> float:
    """||g_N||^2 over (0,T) x omega divided by ||g_N(T)||^2 over the torus."""
    ts = np.linspace(0.0, T, RATIO_TIMES)
    states = witness.gN_coeffs(ts)
    num = dynamics.windowed_l2_norm(ts, states, (0.0, T), omega) ** 2
    den = states[-1].norm() ** 2
    if den == 0:
        raise ZeroDivisionError("degenerate witness: ||g_N(T)|| = 0")
    return num / den


def pure_transport_space(sys: SystemMatrices, mu: float, nmax: int):
    """Scan for modes carrying exact speed-mu transport solutions.

    For each 0 < |n| <= nmax, tests whether i*mu is an eigenvalue of
    n E(i/n)* within |lambda - i mu| < TRANSPORT_TOL*(1+|n|), all modes
    in one stacked eig; matches come in order of n, then of eigenvalue
    index.  Also evaluates the rank of (B | AB | ... | A^{d-1} B), whose
    fullness predicts the matched set stays finite.
    """
    d = sys.d
    ns = np.concatenate([np.arange(-nmax, 0), np.arange(1, nmax + 1)])
    mats = ns[:, None, None] * spectral.eval_symbol(sys, 1j / ns)
    w, V = np.linalg.eig(np.swapaxes(mats, -1, -2).conj())
    hit = np.abs(w - 1j * mu) < TRANSPORT_TOL * (1.0 + np.abs(ns))[:, None]
    matches = [(int(ns[k]), V[k, :, h]) for k, h in zip(*np.nonzero(hit))]
    blocks = [sys.B]
    for _ in range(d - 1):
        blocks.append(sys.A @ blocks[-1])
    rank = numerical_rank(np.hstack(blocks), dim_hint=d)
    return {
        "matches": matches,
        "count": len(matches),
        "kalman_rank_AB": rank,
        "finite_dimensional_expected": rank == d,
    }
