"""The transport + heat counterexample at the H1 regularity threshold.

memory_counterexample_control builds the explicit moment-method control
for d_t f1 = d_x f2, d_t f2 = d_xx f2 + u, showing that H1 regularity of
the first component is exactly the price of an L2 control;
counterexample_energy_sums gives the closed-form partial sums of its
per-mode control energies for monitoring their divergence.
"""

import numpy as np

from .dynamics import FourierState, ControlSignal, gauss_legendre

__all__ = ["memory_counterexample_control", "counterexample_energy_sums"]


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
