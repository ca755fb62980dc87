"""Observability diagnostics and boundary-of-theory probes.

Three independent tools: the spectral-inequality constant for
band-limited functions observed on a sub-arc (smallest eigenvalue of the
arc-restricted Fourier Gram matrix), the explicit moment-method control
for the transport + heat model showing that H1 regularity of the first
component is exactly the price of an L2 control, and a surrogate check
of the level-by-level cascade elimination argument.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import SystemMatrices, TorusSubset, TWO_PI
from .dynamics import (FourierState, ControlSignal, evolve_adjoint,
                       gauss_legendre, synth_grid, analyze_grid)
from .control import plateau_weight

__all__ = [
    "spectral_inequality_constant", "memory_counterexample_control",
    "counterexample_energy_sums", "cascade_elimination_check",
    "arc_gram_matrix",
]


def arc_gram_matrix(N, omegahat: TorusSubset):
    """Hermitian (2N+1)x(2N+1) matrix M_{nk} = int_{omegahat} e^{i(k-n)x} dx
    with closed-form arc integrals."""
    ns = np.arange(-N, N + 1)
    M = np.zeros((2 * N + 1, 2 * N + 1), dtype=complex)
    length = sum(b - a for a, b in omegahat.arcs)
    for i, n in enumerate(ns):
        for j, k in enumerate(ns):
            d = k - n
            if d == 0:
                M[i, j] = length
            else:
                M[i, j] = sum((np.exp(1j * d * b) - np.exp(1j * d * a))
                              / (1j * d) for a, b in omegahat.arcs)
    return M


def spectral_inequality_constant(N, omegahat: TorusSubset, gridsize=None):
    """Smallest eigenvalue of the arc Gram matrix and the implied
    exponential constant.

    lambda_min bounds int_omegahat |p|^2 >= lambda_min sum |a_n|^2 for
    trigonometric polynomials p of degree N; the constant estimate comes
    from fitting log(1/lambda_min) ~ C1*N + log(C1) over a sweep of
    degrees up to N.  gridsize only sets the resolution of a quadrature
    cross-check of the closed-form entries.
    """
    if gridsize is None:
        gridsize = 8 * N
    if gridsize < 8 * N:
        raise ValueError(f"gridsize {gridsize} < 8N = {8 * N}")
    M = arc_gram_matrix(N, omegahat)
    # quadrature cross-check of a couple of entries (row n = 0)
    xs = TWO_PI * np.arange(gridsize) / gridsize
    ind = omegahat.indicator(xs)
    for d in (1, N):
        quad = np.sum(ind * np.exp(1j * d * xs)) * TWO_PI / gridsize
        # rectangle rule on a sharp indicator is only O(h) accurate
        if abs(quad - M[N, N + d]) > 4.0 * TWO_PI / gridsize:
            raise AssertionError("closed-form arc integral mismatch")
    lam = float(np.linalg.eigvalsh(M)[0])

    degrees = sorted({max(1, N // 8), max(2, N // 4), max(3, N // 2),
                      max(4, 3 * N // 4), N})
    lams = [float(np.linalg.eigvalsh(arc_gram_matrix(d, omegahat))[0])
            for d in degrees]
    # the eigensolver floor is eps * lambda_max; degrees whose true
    # minimum sits below it carry no slope information
    floor = 1e3 * np.finfo(float).eps * TWO_PI
    keep = [i for i, v in enumerate(lams) if v > floor]
    if len(keep) >= 2:
        ds = [degrees[i] for i in keep]
        logs = [np.log(1.0 / lams[i]) for i in keep]
        slope, intercept = np.polyfit(ds, logs, 1)
    else:
        slope, intercept = np.nan, np.nan
    return lam, {
        "degrees": degrees, "lambda_min": lams,
        "slope": float(slope), "C1_estimate": float(max(slope, 0.0)),
        "intercept": float(intercept), "floor": float(floor),
    }


def _memory_gram(n, T):
    """Closed-form Gram of (w1, w2), w1 = n e^{-n^2(T-tau)}, w2 = 1."""
    n2 = float(n) ** 2
    g11 = n2 * (1.0 - np.exp(-2.0 * n2 * T)) / (2.0 * n2)
    g12 = (1.0 - np.exp(-n2 * T)) / float(n)
    return np.array([[g11, g12], [g12, T]])


def _memory_rhs(n, T, f01n, f02n):
    return np.array([-n * f02n * np.exp(-float(n) ** 2 * T),
                     1j * n * f01n - f02n])


def memory_counterexample_control(f0, T, Nmax):
    """Explicit control nulling the transport + heat pair
    d_t f1 = d_x f2, d_t f2 = d_xx f2 + u, from mode-wise 2x2 moment
    problems with closed-form Gram matrices.

    f0 = (f01, f02) as coefficient arrays of length 2*Nmax+1 (or
    FourierStates with one component); f01 must have zero mean.  Returns
    (ControlSignal, report) where the report certifies both moment
    equations per mode by independent graded quadrature and carries the
    per-mode control energies e_n = rhs_n^H G_n^{-1} rhs_n, whose sum is
    ||u||^2 minus the mode-0 term.  Convergence of sum e_n as Nmax grows
    is exactly the H1 condition on f01.
    """
    def coeffs(f):
        if isinstance(f, FourierState):
            return f.coeffs[:, 0]
        return np.asarray(f, dtype=complex)

    c01, c02 = coeffs(f0[0]), coeffs(f0[1])
    if len(c01) != 2 * Nmax + 1 or len(c02) != 2 * Nmax + 1:
        raise ValueError("coefficient arrays must have length 2*Nmax+1")
    if abs(c01[Nmax]) > 1e-12 * (1.0 + np.max(np.abs(c01))):
        raise ValueError("f01 must have zero mean")

    alpha = np.zeros(2 * Nmax + 1, dtype=complex)
    beta = np.zeros(2 * Nmax + 1, dtype=complex)
    energies = np.zeros(2 * Nmax + 1)
    for n in range(-Nmax, Nmax + 1):
        if n == 0:
            continue
        G = _memory_gram(n, T)
        rhs = _memory_rhs(n, T, c01[n + Nmax], c02[n + Nmax])
        ab = np.linalg.solve(G, rhs)
        alpha[n + Nmax], beta[n + Nmax] = ab
        energies[n + Nmax] = float(np.real(np.vdot(ab, rhs)))
    u0 = -c02[Nmax] / T

    def uhat(t):
        ns = np.arange(-Nmax, Nmax + 1).astype(float)
        ts = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
        w1 = ns * np.exp(-ns ** 2 * (T - ts))
        out = (alpha * w1 + beta)[..., None]
        out[:, Nmax, 0] = u0
        return out if np.ndim(t) else out[0]

    # nodes graded toward t = T where w1 peaks at scale 1/Nmax^2
    back = np.geomspace(0.25 * T, T / (8.0 * Nmax ** 2), 120)
    nodes = np.concatenate((np.linspace(0.0, 0.75 * T, 60),
                            T - back, [T]))
    nodes = np.unique(nodes)
    u = ControlSignal.from_func(uhat, nodes, Nmax, 1, t_window=(0.0, T))

    # independent certificate: graded Gauss-Legendre quadrature of both
    # moment integrals against the closed-form targets
    edges = np.unique(np.concatenate(
        (np.linspace(0.0, 0.75 * T, 30), T - back, [T])))
    taus, wq = gauss_legendre(edges, order=10)
    residuals = np.zeros(2 * Nmax + 1)
    for n in range(-Nmax, Nmax + 1):
        i = n + Nmax
        un = alpha[i] * n * np.exp(-float(n) ** 2 * (T - taus)) + beta[i]
        if n == 0:
            un = np.full_like(taus, u0, dtype=complex)
            r = abs(np.sum(wq * un) + c02[Nmax])
        else:
            m1 = np.sum(wq * np.exp(-float(n) ** 2 * (T - taus)) * un)
            m2 = np.sum(wq * un)
            r = max(abs(m1 + c02[i] * np.exp(-float(n) ** 2 * T)),
                    abs(m2 - (1j * n * c01[i] - c02[i])))
        residuals[i] = r

    energy = float(np.sum(energies) + T * abs(u0) ** 2)
    h1_bound = float(np.sum(np.abs(
        1j * np.arange(-Nmax, Nmax + 1) * c01 - c02) ** 2) / T)
    report = {
        "moment_residuals": residuals,
        "max_moment_residual": float(np.max(residuals)),
        "mode_energies": energies,
        "energy": energy,
        "h1_lower_bound": h1_bound,
        "alpha": alpha, "beta": beta, "u0": u0,
    }
    return u, report


def counterexample_energy_sums(f01_coeff, f02_coeff, T, nmax_list):
    """Partial sums of the per-mode control energies for coefficient
    laws given as vectorized callables n -> value, evaluated in closed
    form (no simulation), for divergence monitoring across Nmax
    doublings.  Chunked so Nmax in the tens of millions stays cheap."""
    def seg_energy(lo, hi):
        total = 0.0
        chunk = 1 << 20
        for start in range(lo, hi + 1, chunk):
            ns = np.arange(start, min(start + chunk, hi + 1)).astype(float)
            for sgn in (1.0, -1.0):
                n = sgn * ns
                c01 = np.asarray(f01_coeff(n), dtype=complex)
                c02 = np.asarray(f02_coeff(n), dtype=complex)
                # G_n^{-1} quadratic form; the e^{-n^2 T} terms underflow
                # exactly to 0 at large n
                exp1 = np.exp(-np.minimum(n ** 2 * T, 700.0))
                g11 = (1.0 - exp1 ** 2) / 2.0
                g12 = (1.0 - exp1) / n
                det = g11 * T - g12 ** 2
                r1 = -n * c02 * exp1
                r2 = 1j * n * c01 - c02
                total += float(np.sum(
                    (T * np.abs(r1) ** 2
                     - 2.0 * g12 * np.real(np.conj(r1) * r2)
                     + g11 * np.abs(r2) ** 2) / det))
        return total

    out = []
    running, prev = 0.0, 0
    for N in sorted(nmax_list):
        running += seg_energy(prev + 1, N)
        prev = N
        out.append(running)
    order = np.argsort(np.argsort(nmax_list))
    return [out[i] for i in order]


def _mollified_level_norm(traj, times, component, weight, s):
    """Surrogate window norm (int_0^T || (g_c * rho) ||_{H^{-s}}^2 dt)^{1/2}
    with a fixed smooth mollifier rho of the observation set.

    This replaces the space-time negative norm of the eliminated levels;
    it is a surrogate, not the dual norm itself.
    """
    nmax = traj[0].nmax
    ns = np.arange(-nmax, nmax + 1).astype(float)
    wts = (1.0 + ns ** 2) ** (-s)
    vals = []
    for st in traj:
        xs, v = synth_grid(st, ngrid=max(4 * nmax, 256))
        masked = (v[:, component] * weight(xs))[:, None]
        coeffs = analyze_grid(masked, xs, nmax)[:, 0]
        vals.append(float(np.sum(wts * np.abs(coeffs) ** 2)))
    return float(np.sqrt(np.trapezoid(vals, times)))


def cascade_elimination_check(sys: SystemMatrices, g0: FourierState,
                              T: float, omega: TorusSubset, nt=65):
    """Empirical check of the level-by-level elimination chain on the
    adjoint of a cascade-structured system.

    Evolves the homogeneous adjoint and computes surrogate window norms
    (see _mollified_level_norm) for the observed component block g1 (L2
    weight) and each cascade level g2^i (H^{-(2i-1)} weight), then
    reports the constants linking consecutive levels.  A level whose
    constant exceeds 1e12 is flagged as broken (its denominator vanishes
    when the coupling into the observed chain is absent, which is the
    Kalman-violating signature).
    """
    d1 = sys.d1
    times = np.linspace(0.0, T, nt)
    _, traj = evolve_adjoint(sys, g0, T, sample_times=times)
    weight = plateau_weight(omega, shrink=0.05,
                            bandwidth=min(4 * g0.nmax, 256))
    level_norms = []
    # observed block: plain L2 surrogate, combined over the d1 components
    g1 = float(np.sqrt(sum(
        _mollified_level_norm(traj, times, c, weight, 0.0) ** 2
        for c in range(d1))))
    level_norms.append(("g1", g1))
    for i in range(1, sys.d2 + 1):
        s = 2 * i - 1
        v = _mollified_level_norm(traj, times, d1 + i - 1, weight, s)
        level_norms.append((f"g2^{i}", v))
    constants = []
    for i in range(1, len(level_norms)):
        num = level_norms[i][1]
        den = max(level_norms[i - 1][1], 1e-300)
        constants.append(num / den)
    return {
        "level_norms": level_norms,
        "chain_constants": constants,
        "flagged": [i + 1 for i, c in enumerate(constants) if c > 1e12],
        "norm_kind": "mollified windowed Sobolev surrogate (not the "
                     "space-time dual norm)",
    }
