"""Constructive control synthesis.

Four mechanisms:

* transport_control: exact steering of the scalar transport equation
  through a space-time cut-off eta and the characteristic integrals Q_x;
* parabolic_moment_control: moment solve nulling the parabolic-branch
  band n0 < |n| <= N at the end of a window, posed as one parabolic
  dual block of the shared dual-pairing solve;
* lebeau_robbiano: dyadic active/passive schedule of moment controls
  with dissipation absorbing the cost;
* hum_gramian_control: finite controllability Gramian on a declared
  target subspace (hyperbolic band or low modes).

Everything runs on the mode-truncated (Galerkin) system: states and
control coefficients live on |n| <= nmax.  Synthesized controls are
products of a smooth plateau cut-off rho2 supported in omega with
band-limited mode sums, so each signal carries its own support: its
exact spatial form (ControlSignal.spatial) vanishes outside omega
identically, and its coefficients, that control's band restriction, are
what evolve integrates.

Stage contributions are all expressed at the common final time: the
per-mode generators commute with the branch projections, so free
evolution never mixes the low/parabolic/hyperbolic blocks and only the
controls' spectral leakage couples them.  full_pipeline removes that
coupling with sweeps of one joint dual-pairing solve over the three
families; its parabolic block is the pipeline's only parabolic
mechanism, and lebeau_robbiano stands alone.
_joint_solve is the one Gram assembly, conditioning check and solve:
the moment method, the HUM Gramian and the pipeline sweeps each pose
their families as DualBlocks and call it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import SystemMatrices, TorusSubset, TWO_PI
from .dynamics import (FourierState, ControlSignal, ModeBasis, evolve,
                       gauss_legendre, mode_generator, project_branch,
                       project_low, analyze_grid, _small_matmul)
from .spectral import BranchTable
from . import kernels

__all__ = [
    "MomentProblem", "LRSchedule", "cutoff_eta", "transport_control",
    "parabolic_moment_control", "lebeau_robbiano", "hum_gramian_control",
    "full_pipeline", "plateau_weight", "rho1", "smoothstep",
]


# ---------------------------------------------------------------- smooth bits

def _f_exp(u):
    """e^{-1/u} for u > 0, 0 otherwise (flat C-infinity junction at 0)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    pos = u > 1e-12
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def smoothstep(u):
    """C-infinity transition: 0 for u <= 0, 1 for u >= 1."""
    a = _f_exp(np.asarray(u, dtype=float))
    b = _f_exp(1.0 - np.asarray(u, dtype=float))
    return a / (a + b)


def window_fn(x, lo, hi, ramp):
    """Smooth window: 0 outside (lo, hi), 1 on (lo+ramp, hi-ramp)."""
    x = np.asarray(x, dtype=float)
    return smoothstep((x - lo) / ramp) * smoothstep((hi - x) / ramp)


def rho1(tau):
    """Symmetric C-infinity time profile on (0,1): e^{-1/tau} near 0,
    mirrored near 1, blended by a smooth partition on (1/4, 3/4)."""
    tau = np.asarray(tau, dtype=float)
    w = smoothstep((0.75 - tau) / 0.5)
    return _f_exp(tau) * w + _f_exp(1.0 - tau) * (1.0 - w)


@dataclass
class SpatialWeight:
    """Smooth plateau cut-off rho2: 1 on omegahat, 0 outside omega, with
    transitions filling the removed margins."""

    omega: TorusSubset
    omegahat: TorusSubset
    coeffs: np.ndarray  # Fourier coefficients, |n| <= bandwidth
    bandwidth: int

    def __call__(self, x):
        x = np.asarray(x, dtype=float) % TWO_PI
        out = np.zeros(x.shape)
        for (a, b), (ah, bh) in zip(self.omega.arcs, self.omegahat.arcs):
            ramp = ah - a
            for off in (0.0, TWO_PI, -TWO_PI):
                out = np.maximum(out, window_fn(x + off, a, b, ramp))
        return out

    def toeplitz(self, rows, cols):
        """W[i, j] = rho2hat(rows[i] - cols[j]), zero beyond the bandwidth:
        multiplication by rho2 from the modes cols to the modes rows."""
        diff = np.subtract.outer(np.asarray(rows, dtype=int),
                                 np.asarray(cols, dtype=int))
        inside = np.abs(diff) <= self.bandwidth
        return np.where(inside,
                        self.coeffs[np.where(inside, diff, 0)
                                    + self.bandwidth], 0.0)


def plateau_weight(omega: TorusSubset, shrink=0.1,
                   bandwidth=256) -> SpatialWeight:
    """Build rho2 for omega; omegahat has each arc shrunk by `shrink` of
    its length per side."""
    omegahat = omega.shrunk(shrink)
    w = SpatialWeight(omega=omega, omegahat=omegahat,
                      coeffs=np.zeros(2 * bandwidth + 1, dtype=complex),
                      bandwidth=bandwidth)
    ngrid = max(16 * bandwidth, 4096)
    xs = TWO_PI * np.arange(ngrid) / ngrid
    vals = w(xs).astype(complex)[:, None]
    w.coeffs = analyze_grid(vals, xs, bandwidth)[:, 0]
    return w


# ------------------------------------------------------- transport (cut-off)

@dataclass
class CutoffEta:
    """Space-time cut-off eta on (delta, T'-delta) x (a+delta, b-delta)
    with its characteristic integrals Q_x = int_0^{T'} eta(s, x+mu s) ds."""

    a: float
    b: float
    Tprime: float
    mu: float
    delta: float
    min_Q: float = 0.0

    def eta(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float) % TWO_PI
        ramp_t = 0.25 * (self.Tprime - 2.0 * self.delta)
        wt = window_fn(t, self.delta, self.Tprime - self.delta, ramp_t)
        ramp_x = 0.25 * (self.b - self.a - 2.0 * self.delta)
        wx = np.zeros(x.shape)
        for off in (0.0, TWO_PI, -TWO_PI):
            wx = np.maximum(wx, window_fn(
                x + off, self.a + self.delta, self.b - self.delta, ramp_x))
        return wt * wx

    def _Q_exact(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape)
        for t, wq in zip(*gauss_legendre(np.linspace(0.0, self.Tprime, 81))):
            out += wq * self.eta(t, x + self.mu * t)
        return out

    def Q(self, x):
        # Q is smooth on the ramp scale; a dense periodic spline replaces
        # the per-call time quadrature
        if getattr(self, "_Qspline", None) is None:
            from scipy.interpolate import CubicSpline
            ngrid = 4096
            xs = TWO_PI * np.arange(ngrid + 1) / ngrid
            self._Qspline = CubicSpline(xs, self._Q_exact(xs),
                                        bc_type="periodic")
        return self._Qspline(np.asarray(x, dtype=float) % TWO_PI)


def cutoff_eta(omega_arc, Tprime, mu, delta) -> CutoffEta:
    """Build eta for a single observation arc (a, b).

    Requires T' > (2 pi - (b-a)) / |mu| so every characteristic crosses
    the cut-off box; min_x |Q_x| is certified on a 720-point grid.
    """
    a, b = omega_arc
    if not 0 < b - a < TWO_PI:
        raise ValueError("need a single strict arc (a, b)")
    if mu == 0:
        raise ValueError("transport speed must be nonzero")
    need = (TWO_PI - (b - a)) / abs(mu)
    if Tprime <= need:
        raise ValueError(f"T' = {Tprime:.4f} too short: need > {need:.4f}")
    if 2.0 * delta >= min(Tprime, b - a):
        raise ValueError("delta too large for the box")
    eta = CutoffEta(a=a, b=b, Tprime=Tprime, mu=mu, delta=delta)
    xs = TWO_PI * np.arange(720) / 720
    eta.min_Q = float(np.min(np.abs(eta.Q(xs))))
    if eta.min_Q < 1e-8:
        raise ValueError(
            f"min |Q_x| = {eta.min_Q:.2e} too small; decrease delta")
    return eta


@dataclass
class TransportControl:
    """u(t, x) = eta(t, x) Q^{-1}_{x - mu t}
    (fT((x - mu t) + mu T') - f0(x - mu t)).

    Along the characteristic x = y + mu t the bracket is constant, so
    integrating eta/Q_y deposits exactly the required increment and
    d_t f + mu d_x f = u steers f0 to fT.
    """

    eta: CutoffEta
    f0: object
    fT: object
    mu: float
    Tprime: float

    def __call__(self, t, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        e = self.eta.eta(t, x)
        out = np.zeros(x.shape, dtype=complex)
        nz = e != 0.0
        if np.any(nz):
            y = x[nz] - self.mu * float(t)
            q = self.eta.Q(y)
            out[nz] = e[nz] / q * (
                np.asarray(self.fT(y + self.mu * self.Tprime), dtype=complex)
                - np.asarray(self.f0(y), dtype=complex))
        return out


def transport_control(f0, fT, mu, omega: TorusSubset, Tprime,
                      eta: CutoffEta) -> TransportControl:
    """Exact control for d_t f + mu d_x f = u 1_omega reaching f(T') = fT.

    f0, fT are callables on the torus (scalar; apply componentwise for
    vector data).  The control vanishes outside the eta box.
    """
    if eta is None:
        raise ValueError("eta/Q tables missing: build them with cutoff_eta")
    return TransportControl(eta=eta, f0=f0, fT=fT, mu=mu, Tprime=Tprime)


# ------------------------------------------- shared reduced-dual machinery

def build_E2(sys: SystemMatrices, branches: BranchTable, modes):
    """Reduced parabolic dual generators, a (K, d2, d2) stack over modes n:
    E2(n) = D* - (i/n) A22* + (1/n^2) K22*
            - ((i/n) A12* - (1/n^2) K12*) G(i/n).

    The range of Pp(i/n)* is the graph {(G(i/n) phi2, phi2)} and
    E(i/n)* acts on it through E2(n) in the phi2 coordinate.  The
    conjugate transposes reduce to plain transposes for real systems.
    """
    n = np.asarray(modes, dtype=float)[:, None, None]
    z = 1j / n
    G = branches.G[branches.rows(modes)]
    return (sys.D.conj().T - z * sys.A22.conj().T
            + (1.0 / n ** 2) * sys.K22.conj().T
            - (z * sys.A12.conj().T - (1.0 / n ** 2) * sys.K12.conj().T) @ G)


def observation_matrix(sys: SystemMatrices, branches: BranchTable, modes):
    """C(n) = M1* G(i/n) + M2* at the modes n, a (K, m, d2) stack: the
    reduced parabolic dual observation, mapping the phi2 coordinate to
    the control space (M* applied to the graph vector (G phi2, phi2))."""
    d1 = sys.d1
    Mh = sys.M.conj().T
    return Mh[:, :d1] @ branches.G[branches.rows(modes)] + Mh[:, d1:]


def _emit_modes(modes, basis, obs, rates, vecs, T, window, nodes, weight,
                nmax, profile=None, mask=None):
    """Lazy control u(t, x) = r(T-t) rho2(x) sum_k (mask v_k(T-t)) e^{ikx}
    on the window, zero outside it, where
    v_k(s) = obs[k] e^{-s rates[k] G_k} vecs[k]
    and G_k is the generator of mode k in the ModeBasis basis.

    The coefficients on |n'| <= nmax are W @ V(t), with V(t) the stacked
    (K, m) per-mode vectors and W[n', k] = rho2hat(n' - k) built once.
    r is the time profile (1 when None), evaluated at the time to go
    clipped to [0, T].  The coefficients take a float or a 1-D array of
    times (the ControlSignal.at contract).
    """
    m = obs.shape[1]
    observe = basis.action(vecs, obs)
    keep = np.ones(m) if mask is None else np.asarray(mask, dtype=float)
    W = weight.toeplitz(np.arange(-nmax, nmax + 1), modes)
    t0, t1 = window

    def stacked(ts):
        """(Q, K, m) per-mode vectors at the 1-D times ts, zero off the
        window and where the profile vanishes."""
        s = T - ts
        r = (np.ones(len(ts)) if profile is None
             else profile(np.clip(s, 0.0, T)))
        r = np.where((ts >= t0 - 1e-12) & (ts <= t1 + 1e-12), r, 0.0)
        on = np.flatnonzero(r)
        out = np.zeros((len(ts), len(modes), m), dtype=complex)
        if len(on):
            vs = observe(s[None, on] * rates[:, None]).transpose(1, 0, 2)
            out[on] = vs * (r[on, None, None] * keep)
        return out

    def coeff_fn(t):
        out = W @ stacked(np.atleast_1d(np.asarray(t, dtype=float)))
        return out if np.ndim(t) else out[0]

    def spatial(t, xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        vs = stacked(np.array([t], dtype=float))[0]
        return kernels.synthesize(vs, modes, xs) * weight(xs)[:, None]

    return ControlSignal.from_func(coeff_fn, nodes, nmax, m,
                                   t_window=window, spatial=spatial)


# ------------------------------------------------------------- moment method

@dataclass
class MomentProblem:
    N: int
    T: float
    modes: np.ndarray
    E2: np.ndarray  # (K, d2, d2), row k for modes[k]
    gram: np.ndarray
    rhs: np.ndarray
    weight: SpatialWeight
    cond: float
    min_eig: float
    cond_scaled: float = np.nan


def parabolic_moment_control(sys: SystemMatrices, branches: BranchTable,
                             f0p: FourierState, T: float, N: int,
                             omega: TorusSubset, n0: int,
                             weight: SpatialWeight = None, cond_max=1e14):
    """Moment-method control nulling the parabolic band n0 < |n| <= N.

    One parabolic DualBlock, entries (n, e_j) on the window (0, T) with
    profile rho1(s/T) of the time to go s, solved by _joint_solve:
    A_{n,k} = rho2hat(n-k) int_0^T rho1(s/T) e^{-s n^2 E2(n)*} C(n)*
              C(k) e^{-s k^2 E2(k)} ds,
    F_n = -e^{-n^2 T E2(n)*} (G(i/n)* f01hat(n) + f02hat(n)) (the dual
    pairings of the freely evolved data), and the emitted control is
    u(t, x) = rho1((T-t)/T) rho2(x) sum_k C(k) e^{-k^2 (T-t) E2(k)} V_k
    e^{ikx}.  Returns (ControlSignal, MomentProblem).
    """
    kind, entries = _target_entries(sys, branches, n0, f0p.nmax,
                                    ("parabolic", N))
    if weight is None:
        weight = plateau_weight(omega)
    blk = DualBlock(kind=kind, entries=entries, window=(0.0, T),
                    mask=np.ones(sys.m, dtype=bool), time_panels=128,
                    profile=lambda s: rho1(s / T))
    rhs = -_pairings(sys, branches, blk, evolve(sys, f0p, None, T))
    (u,), gram, _, eigs, cond = _joint_solve(
        sys, branches, [blk], [rhs], T, weight, f0p.nmax, cond_max=cond_max)
    modes = np.setdiff1d(np.arange(-N, N + 1), np.arange(-n0, n0 + 1))
    return u, MomentProblem(N=N, T=T, modes=modes,
                            E2=build_E2(sys, branches, modes), gram=gram,
                            rhs=rhs, weight=weight,
                            cond=float(eigs[-1] / max(eigs[0], 1e-300)),
                            min_eig=float(eigs[0]), cond_scaled=cond)


# ---------------------------------------------------------- Lebeau-Robbiano

@dataclass
class LRSchedule:
    T: float
    delta: float
    rho: float
    A_const: float
    stages: list  # (level, N_level, T_level, a_start)

    @classmethod
    def build(cls, T, delta, rho, nmax):
        if not 0 < delta < T / 2:
            raise ValueError("need 0 < delta < T/2")
        if not 0 < rho < 1:
            raise ValueError("need 0 < rho < 1")
        # full-series normalization 2 sum_{l>=1} A 2^{-rho l} = T - 2 delta
        s = 2.0 ** (-rho) / (1.0 - 2.0 ** (-rho))
        A = (T - 2.0 * delta) / (2.0 * s)
        stages = []
        a = delta
        level = 1
        while 2 ** level <= nmax:
            Tl = A * 2.0 ** (-rho * level)
            stages.append((level, 2 ** level, Tl, a))
            a += 2.0 * Tl
            level += 1
        if not stages:
            raise ValueError("nmax < 2: empty schedule")
        return cls(T=T, delta=delta, rho=rho, A_const=A, stages=stages)


def lebeau_robbiano(sys: SystemMatrices, branches: BranchTable,
                    f0p: FourierState, T: float, delta: float, rho: float,
                    nmax: int, n0: int, omega: TorusSubset,
                    weight: SpatialWeight = None):
    """Dyadic active/passive parabolic control on (0, T).

    Stage l solves the moment problem for the band n0 < |n| <= 2^l on a
    window of length T_l, then lets dissipation act for another T_l.
    The concatenated control vanishes outside (delta, T-delta) x omega.
    Returns (controls in global time, report with the stage norm chain
    and the final state).
    """
    if weight is None:
        weight = plateau_weight(omega)
    sched = LRSchedule.build(T, delta, rho, nmax)
    state = evolve(sys, f0p, None, delta)
    controls = []

    def pnorm(st):
        # the iteration lives on the parabolic branch; the controls also
        # deposit hyperbolic leakage, which is out of scope here and
        # shows up in the certificate's total norm instead
        return project_branch(st, branches, n0, "p").norm()

    norms = [pnorm(state)]
    stage_reports = []
    t_reached = delta
    for (level, Nl, Tl, a_start) in sched.stages:
        if Nl <= n0:
            state = evolve(sys, state, None, 2.0 * Tl)
            t_reached += 2.0 * Tl
            norms.append(pnorm(state))
            continue
        try:
            u, prob = parabolic_moment_control(
                sys, branches, state, Tl, min(Nl, nmax), omega, n0,
                weight=weight)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"stage {level} (N = {Nl}): {exc}") from exc
        controls.append(_shift_control(u, a_start))
        state = evolve(sys, state, u, Tl)
        state = evolve(sys, state, None, Tl)
        t_reached += 2.0 * Tl
        norms.append(pnorm(state))
        stage_reports.append({"level": level, "N": Nl, "T": Tl,
                              "cond": prob.cond,
                              "cond_scaled": prob.cond_scaled,
                              "min_eig": prob.min_eig,
                              "norm_after": norms[-1],
                              "total_norm": state.norm()})
    if T - t_reached > 1e-12:
        state = evolve(sys, state, None, T - t_reached)
    report = {
        "schedule": sched, "norms": norms, "stages": stage_reports,
        "final_state": state,
        "final_parabolic_norm": project_branch(state, branches, n0,
                                               "p").norm(),
    }
    return controls, report


def _shift_control(u: ControlSignal, t0: float) -> ControlSignal:
    """u delayed by t0; its func sees t - t0 for a float or an array t."""
    func = spatial = None
    if u.func is not None:
        func = lambda t, _f=u.func, _t0=t0: _f(t - _t0)  # noqa: E731
    if u.spatial is not None:
        spatial = lambda t, xs, _f=u.spatial, _t0=t0: _f(t - _t0, xs)  # noqa: E731
    window = None
    if u.t_window is not None:
        window = (u.t_window[0] + t0, u.t_window[1] + t0)
    return ControlSignal(time_nodes=u.time_nodes + t0, nmax=u.nmax,
                         values=u.values, t_window=window, func=func,
                         spatial=spatial)


# ------------------------------------------------------------- HUM Gramians

@dataclass
class DualBlock:
    """One family of dual vectors with its control window and channel mask.

    kind "full": entries (n, psi in C^d), observation
    M* e^{-(T-tau) gen(n)*} psi.  kind "parabolic": entries
    (n, phi2 in C^d2), observation C(n) e^{-(T-tau) n^2 E2(n)} phi2
    (the same object written in the graph coordinate of Ima Pp*).
    profile, a function of the time to go T - tau, weights the block's
    Gram quadrature and its emitted control (None for weight 1).
    """

    kind: str
    entries: list
    window: tuple
    mask: np.ndarray
    time_panels: int = 32
    profile: object = None


@dataclass
class HUMReport:
    gram: np.ndarray
    eigs: np.ndarray
    cond: float
    energy: float
    target_dim: int


def _block_modes(sys, branches, block: DualBlock):
    """(modes, basis, obs, rates) of a dual block: its distinct modes in
    increasing order, the ModeBasis of their generators G_k, and the
    observation matrices (K, m, dg) and time rates for which an entry
    (modes[k], vec) observes obs[k] e^{-s rates[k] G_k} vec at time to
    go s."""
    modes = np.array(sorted({n for n, _ in block.entries}), dtype=int)
    if block.kind == "full":
        gens = mode_generator(sys, modes, adjoint=True)
        obs = np.broadcast_to(sys.M.conj().T, (len(modes), sys.m, sys.d))
        rates = np.ones(len(modes))
    elif block.kind == "parabolic":
        gens = build_E2(sys, branches, modes)
        obs = observation_matrix(sys, branches, modes)
        rates = modes.astype(float) ** 2
    else:
        raise ValueError(f"unknown dual kind {block.kind!r}")
    return modes, ModeBasis(gens), obs, rates


def _block_observations(block: DualBlock, setup, T, taus):
    """Unmasked observations v_j(tau_q) in C^m: array (J, Q, m).  The
    observed propagators obs[k] e^{-s rates[k] G_k} are formed per mode;
    entries are linear in their vectors."""
    modes, basis, obs, rates = setup
    per_mode = basis.expm(np.outer(rates, T - taus), obs)
    k = np.searchsorted(modes, [n for n, _ in block.entries])
    vecs = np.array([vec for _, vec in block.entries])
    return _small_matmul(per_mode[k], vecs[:, None, :, None])[..., 0]


def _pairings(sys, branches, block: DualBlock, state: FourierState):
    """c_j = <dual_j, fhat(n_j)> (phi2 pairs with G(i/n)* fhat_1 + fhat_2)."""
    ns = np.array([n for n, _ in block.entries], dtype=int)
    vecs = np.array([vec for _, vec in block.entries])
    fn = state.coeffs[ns + state.nmax]
    if block.kind != "full":
        G = branches.G[branches.rows(ns)]
        fn = np.einsum("kab,ka->kb", G.conj(), fn[:, :sys.d1]) + fn[:, sys.d1:]
    return np.einsum("ka,ka->k", vecs.conj(), fn)


def _joint_solve(sys, branches, blocks, targets, T, weight, nmax,
                 cond_max=1e14, refuse=True):
    """Choose controls u_b = rho2 sum_k lambda_k (mask v_k) e^{i n_k x}
    on the blocks' windows so the summed contribution at time T matches
    the prescribed dual pairings.

    The pairing matrix J_{jk} = rho2hat(n_j - n_k) int_{W_k} r_k(T - tau)
    v_j* mask_k v_k dtau, with r_k the column block's profile; for a
    single block it is the Gram matrix of the weighted observations
    (Hermitian positive semidefinite).
    """
    setups = [_block_modes(sys, branches, blk) for blk in blocks]
    edges = [np.linspace(*blk.window, blk.time_panels + 1) for blk in blocks]
    quad = []
    for blk, e in zip(blocks, edges):
        taus, wts = gauss_legendre(e)
        if blk.profile is not None:
            wts = wts * blk.profile(T - taus)
        quad.append((taus, wts))
    obs_col = [_block_observations(blk, setup, T, taus)
               for blk, setup, (taus, _) in zip(blocks, setups, quad)]

    sizes = [len(b.entries) for b in blocks]
    offs = np.concatenate(([0], np.cumsum(sizes)))
    J = np.zeros((offs[-1], offs[-1]), dtype=complex)
    for bj, blk_col in enumerate(blocks):
        taus, wts = quad[bj]
        Vc = obs_col[bj] * blk_col.mask[None, None, :]
        cols = [n for n, _ in blk_col.entries]
        for bi, blk_row in enumerate(blocks):
            # a row block on the same quadrature nodes observes there
            # what its own column already holds
            Vr = (obs_col[bi] if np.array_equal(quad[bi][0], taus)
                  else _block_observations(blk_row, setups[bi], T, taus))
            tint = np.einsum("q,jqa,kqa->jk", wts, Vr.conj(), Vc)
            rows = [n for n, _ in blk_row.entries]
            J[offs[bi]:offs[bi + 1], offs[bj]:offs[bj + 1]] = (
                weight.toeplitz(rows, cols) * tint)

    c = np.concatenate(targets)
    eigs = np.linalg.eigvalsh(0.5 * (J + J.conj().T))
    # solve and refusal run in the diagonally normalized basis (the raw
    # diagonal range only reflects the per-entry dissipation scales)
    dscale = np.sqrt(np.abs(np.diagonal(J)).clip(1e-300))
    Js = J / np.outer(dscale, dscale)
    sv = np.linalg.svd(Js, compute_uv=False)
    cond = float(sv[0] / max(sv[-1], 1e-300))
    if refuse and not 0.0 < cond <= cond_max:
        raise np.linalg.LinAlgError(
            f"Gram condition {cond:.2e} beyond {cond_max:.0e}: target too "
            f"high-dimensional for this (T, omega)")
    lam = np.linalg.solve(Js, c / dscale) / dscale

    controls = [
        _emit_block(blk, setups[b], lam[offs[b]:offs[b + 1]], T, weight,
                    nmax, edges[b])
        for b, blk in enumerate(blocks)]
    return controls, J, lam, eigs, cond


def _emit_block(blk: DualBlock, setup, lam, T, weight, nmax, edges):
    """u = rho2 sum_j lambda_j (mask v_j) e^{i n_j x} on the block's
    window, for the block's _block_modes setup; entries sharing a mode
    are summed before propagation."""
    modes, basis, obs, rates = setup
    vecs = np.zeros((len(modes), obs.shape[2]), dtype=complex)
    for (n, vec), lj in zip(blk.entries, lam):
        vecs[np.searchsorted(modes, n)] += lj * vec
    return _emit_modes(modes, basis, obs, rates, vecs, T, blk.window,
                       np.asarray(edges, dtype=float), weight, nmax,
                       profile=blk.profile, mask=blk.mask)


def _target_entries(sys, branches, n0, nmax, target):
    """Dual entries for a declared target subspace.

    ("low",): canonical basis of C^d on |n| <= n0 (pairings zero iff the
    low block vanishes).  ("hyperbolic", nband): orthonormal basis of
    Ima Ph(i/n)* for n0 < |n| <= nband (pairings zero iff
    Ph(i/n) fhat(n) = 0).  ("parabolic", nband): canonical basis of the
    phi2 coordinate of Ima Pp(i/n)* for n0 < |n| <= nband.  nband
    defaults to nmax, the state's truncation; a band that holds no mode
    or reaches past nmax is refused.
    """
    kind = target[0]
    if kind not in ("low", "hyperbolic", "parabolic"):
        raise ValueError(f"unknown target kind {kind!r}")
    top = n0 if kind == "low" else (target[1] if len(target) > 1 else nmax)
    band = f"|n| <= {n0}" if kind == "low" else f"{n0} < |n| <= {top}"
    if kind != "low" and top <= n0:
        raise ValueError(f"{kind} target band {band} holds no mode")
    if top > nmax:
        raise ValueError(f"{kind} target band {band} reaches past the "
                         f"state's nmax = {nmax}")
    if kind == "low":
        eye = np.eye(sys.d, dtype=complex)
        return "full", [(n, eye[:, j].copy())
                        for n in range(-n0, n0 + 1) for j in range(sys.d)]
    ns = np.setdiff1d(np.arange(-top, top + 1), np.arange(-n0, n0 + 1))
    if kind == "hyperbolic":
        U, s, _ = np.linalg.svd(
            np.swapaxes(branches.Ph[branches.rows(ns)], -1, -2).conj())
        # singular values decrease: each mode keeps a leading run of U
        return "full", [(int(ns[k]), U[k, :, j])
                        for k, j in zip(*np.nonzero(s > 1e-8))]
    eye = np.eye(sys.d2, dtype=complex)
    return "parabolic", [(int(n), eye[:, j].copy())
                         for n in ns for j in range(sys.d2)]


def hum_gramian_control(sys: SystemMatrices, branches: BranchTable, n0: int,
                        target, fstar: FourierState, T: float,
                        omega: TorusSubset, window=None,
                        weight: SpatialWeight = None, Tstar=None,
                        cond_max=1e14, refuse=True):
    """Minimum-energy control whose contribution at time T has the same
    dual pairings as fstar on the declared target subspace.

    Solves the weighted controllability Gramian against
    c_j = <psi_j, fstar> and emits u = rho2 sum_k lambda_k (mask v_k)
    e^{i n_k x} on the window.  A hyperbolic-target window shorter than
    the minimal time is allowed but warned about: the Gramian is then
    expected near-singular (pass refuse=False to inspect it).
    """
    nmax = fstar.nmax
    if window is None:
        window = (0.0, T)
    if weight is None:
        weight = plateau_weight(omega)
    if (target[0] == "hyperbolic" and Tstar is not None
            and window[1] - window[0] <= Tstar):
        warnings.warn(
            f"window length {window[1] - window[0]:.3f} <= minimal time "
            f"{Tstar:.3f}: hyperbolic Gramian expected near-singular",
            stacklevel=2)
    kind, entries = _target_entries(sys, branches, n0, nmax, target)
    blk = DualBlock(kind=kind, entries=entries, window=window,
                    mask=np.ones(sys.m, dtype=bool))
    targets = [_pairings(sys, branches, blk, fstar)]
    controls, J, lam, eigs, cond = _joint_solve(
        sys, branches, [blk], targets, T, weight, nmax,
        cond_max=cond_max, refuse=refuse)
    report = HUMReport(gram=J, eigs=eigs, cond=cond,
                       energy=float(np.real(np.vdot(lam, targets[0]))),
                       target_dim=len(entries))
    return controls[0], report


# ------------------------------------------------------------- combination

def merge_controls(controls, nmax, m, T) -> ControlSignal:
    """Sum additive ControlSignals into one signal covering [0, T]."""
    items = [(u, u.t_window or (u.time_nodes[0], u.time_nodes[-1]))
             for u in controls]

    def coeff_fn(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((len(ts), 2 * nmax + 1, m), dtype=complex)
        for u, (a, b) in items:
            on = (ts >= a - 1e-12) & (ts <= b + 1e-12)
            if np.any(on):
                out[on] += u.at(ts[on])
        return out if np.ndim(t) else out[0]

    def spatial(t, xs):
        out = np.zeros((len(np.atleast_1d(xs)), m), dtype=complex)
        for u, (a, b) in items:
            if u.spatial is not None and a - 1e-12 <= t <= b + 1e-12:
                out += u.spatial(t, xs)
        return out

    edges = {0.0, T}
    for u, _ in items:
        edges.update(np.clip(u.time_nodes, 0.0, T).tolist())
    nodes = np.array(sorted(edges))
    nodes = nodes[np.concatenate(([True], np.diff(nodes) > 1e-13))]
    return ControlSignal.from_func(coeff_fn, nodes, nmax, m,
                                   t_window=(0.0, T), spatial=spatial)


def full_pipeline(sys: SystemMatrices, branches: BranchTable, n0: int,
                  f0: FourierState, T: float, Tprime: float,
                  omega: TorusSubset, Tstar: float = None,
                  max_sweeps=5):
    """Null control on (0, T) from sweeps of one joint dual-pairing solve.

    Each sweep evolves f0 under the controls found so far and solves one
    joint problem over three families, the projections of the dynamics
    on the hyperbolic, low-frequency and parabolic eigenspaces:
    hyperbolic duals controlled on (0, T') through the first d1 control
    channels, low modes over a trailing window near T, and parabolic
    duals over the same trailing window through the remaining channels
    (all channels when the control space is not C^d).  No block carries
    a time profile.  Every control leaks into every band through its
    omega cut-off; the next sweep removes that coupling.  Sweeps stop at
    relative residual 1e-9, on a stall, or after max_sweeps.  The
    certificate reports the path, the sweep residual chain, the last
    joint condition and the final relative norm, the last sweep's unless
    max_sweeps ran out.
    """
    if Tstar is not None and not (Tstar < Tprime < T):
        raise ValueError(
            f"need T* < T' < T, got T* = {Tstar}, T' = {Tprime}, T = {T}")
    nmax = f0.nmax
    if nmax <= n0:
        raise ValueError(f"need nmax > n0 = {n0}, got nmax = {nmax}")
    d1, m = sys.d1, sys.m
    split = m == sys.d
    weight = plateau_weight(omega)
    Tlow = min(0.1 * T, T - Tprime) / 2.0

    blocks = []
    for target, window, mask in (
            (("hyperbolic", nmax), (0.0, Tprime),
             np.arange(m) < d1 if split else np.ones(m, dtype=bool)),
            (("low",), (T - Tlow, T), np.ones(m, dtype=bool)),
            (("parabolic", nmax), (T - Tlow, T),
             np.arange(m) >= d1 if split else np.ones(m, dtype=bool))):
        kind, entries = _target_entries(sys, branches, n0, nmax, target)
        blocks.append(DualBlock(kind=kind, entries=entries, window=window,
                                mask=mask))

    controls = []
    sweep_log = []
    path = "joint-sweeps"
    joint_cond = None
    f0norm = max(f0.norm(), 1e-300)
    for sweep in range(max_sweeps):
        u_total = merge_controls(controls, nmax, m, T) if controls else None
        fT = evolve(sys, f0, u_total, T)
        res = fT.norm() / f0norm
        sweep_log.append({"sweep": sweep, "relative_residual": res,
                          "h": project_branch(fT, branches, n0, "h").norm(),
                          "p": project_branch(fT, branches, n0, "p").norm(),
                          "low": project_low(fT, n0).norm()})
        if res <= 1e-9:
            break
        if sweep >= 2 and res > 0.5 * sweep_log[-2]["relative_residual"]:
            path = "joint-sweeps (stalled)"
            break
        targets = [-_pairings(sys, branches, blk, fT) for blk in blocks]
        corr, J, lam, eigs, joint_cond = _joint_solve(
            sys, branches, blocks, targets, T, weight, nmax)
        controls.extend(corr)
    else:
        # max_sweeps ran out: the last sweep's controls are not yet checked
        u_total = merge_controls(controls, nmax, m, T) if controls else None
        fT = evolve(sys, f0, u_total, T)
    cert = {
        "path": path,
        "sweeps": sweep_log,
        "joint_cond": joint_cond,
        "final_norm": fT.norm(),
        "relative": fT.norm() / f0norm,
        "final_state": fT,
    }
    return u_total, cert
