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
per-mode generators commute with the branch projections, so only the
controls' spectral leakage couples the low/parabolic/hyperbolic blocks.
full_pipeline removes that coupling with sweeps of one joint
dual-pairing solve over the three families (its only parabolic
mechanism; lebeau_robbiano stands alone).  Every solve specifies its
families as DualBlocks (target, window, channels).  The joint dual
operator depends on the problem, never on the datum: each public solve
asks _joint_operator for it once (assembled on the first request and
kept in the branch table's memo).  It keeps one _Block per block, with
the entries observed once on the union of all blocks' nodes, the stack
on the block's own nodes and its emission weights, the pairing matrix
(one weighted GEMM per block pair) conditioned once, and the merged
panel edges of the controls it emits.  _joint_multipliers refuses by
its own cond_max and solves for the multipliers lambda; _emit_block
builds one lazy control from (operator, lambda).  A datum f0 reaches
F f0 + L lambda at T (_reached): F f0 its free evolution and L the
operator's control-to-state map, built on the first request that has a
lambda and kept, so a moment or HUM solve alone never builds it.
full_pipeline certifies its sweeps this way, solving each for lambda
alone and emitting one control from the summed lambda at the end, and
lebeau_robbiano reaches each active stage's state so: neither evolves a
control.  evolve of a returned control is the reference that L lambda
is tested against.
"""

import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (SystemMatrices, TorusSubset, TWO_PI, PreconditionError,
                      OwnerMemo, MEMO_SIZE)
from .dynamics import (FourierState, ControlSignal, ModeBasis, evolve,
                       gauss_legendre, duhamel_panels, mode_generator,
                       project_branch, project_low, analyze_grid,
                       _small_matmul, _state_basis)
from .spectral import BranchTable
from . import kernels

__all__ = [
    "MomentProblem", "LRSchedule", "cutoff_eta", "transport_control",
    "parabolic_moment_control", "lebeau_robbiano", "hum_gramian_control",
    "full_pipeline", "check_horizons", "check_band", "plateau_weight",
    "rho1", "smoothstep",
]

# omegahat trims this fraction of each arc of omega per side
PLATEAU_SHRINK = 0.1
# rho2's Fourier coefficients are kept on |n| <= PLATEAU_BANDWIDTH
PLATEAU_BANDWIDTH = 256
# scaled Gram condition beyond which a dual solve refuses by default
COND_MAX = 1e14


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


def _periodic_window(x, lo, hi, ramp):
    """window_fn on the torus, for x already reduced mod 2 pi: the
    pointwise maximum over the shifts x and x +- 2 pi."""
    out = np.zeros(x.shape)
    for off in (0.0, TWO_PI, -TWO_PI):
        out = np.maximum(out, window_fn(x + off, lo, hi, ramp))
    return out


def rho1(tau):
    """Symmetric C-infinity time profile on (0,1): e^{-1/tau} near 0,
    mirrored near 1, blended by a smooth partition on (1/4, 3/4)."""
    tau = np.asarray(tau, dtype=float)
    w = smoothstep((0.75 - tau) / 0.5)
    return _f_exp(tau) * w + _f_exp(1.0 - tau) * (1.0 - w)


def cond_headroom(cond):
    """log10(COND_MAX / cond): the decades a solve of condition cond left
    to the default refusal bound."""
    return float(np.log10(COND_MAX / cond))


@dataclass(frozen=True, eq=False)
class SpatialWeight:
    """Smooth plateau cut-off rho2: 1 on omegahat, 0 outside omega, with
    transitions filling the removed margins.  plateau_weight builds one
    per omega, so it compares and hashes by identity; its coefficients
    are read-only."""

    omega: TorusSubset
    omegahat: TorusSubset
    coeffs: np.ndarray  # Fourier coefficients, |n| <= bandwidth
    bandwidth: int

    def __call__(self, x):
        x = np.asarray(x, dtype=float) % TWO_PI
        out = np.zeros(x.shape)
        for (a, b), (ah, bh) in zip(self.omega.arcs, self.omegahat.arcs):
            out = np.maximum(out, _periodic_window(x, a, b, ah - a))
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


@functools.lru_cache(maxsize=MEMO_SIZE)
def plateau_weight(omega: TorusSubset) -> SpatialWeight:
    """rho2 for omega, built once per omega: omegahat has each arc shrunk
    by PLATEAU_SHRINK of its length per side, and the coefficients stop
    at PLATEAU_BANDWIDTH."""
    omegahat = omega.shrunk(PLATEAU_SHRINK)
    ngrid = max(16 * PLATEAU_BANDWIDTH, 4096)
    xs = TWO_PI * np.arange(ngrid) / ngrid
    shape = SpatialWeight(omega, omegahat, None, PLATEAU_BANDWIDTH)
    vals = shape(xs).astype(complex)[:, None]
    coeffs = analyze_grid(vals, xs, PLATEAU_BANDWIDTH)[:, 0]
    coeffs.flags.writeable = False
    return SpatialWeight(omega, omegahat, coeffs, PLATEAU_BANDWIDTH)


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
        wx = _periodic_window(x, self.a + self.delta, self.b - self.delta,
                              ramp_x)
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

    Requires a single strict arc, mu != 0, T' > (2 pi - (b-a)) / |mu| so
    every characteristic crosses the cut-off box, and
    2 delta < min(T', b - a); an input that breaks one raises
    PreconditionError.  min_x |Q_x| is certified on a 720-point grid, and
    a minimum below 1e-8 raises ValueError.
    """
    a, b = omega_arc
    if not 0 < b - a < TWO_PI:
        raise PreconditionError("need a single strict arc (a, b)")
    if mu == 0:
        raise PreconditionError("transport speed must be nonzero")
    need = (TWO_PI - (b - a)) / abs(mu)
    if Tprime <= need:
        raise PreconditionError(
            f"T' = {Tprime:.4f} too short: need > {need:.4f}")
    if 2.0 * delta >= min(Tprime, b - a):
        raise PreconditionError("delta too large for the box")
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


# ------------------------------------------------------------- moment method

@dataclass
class MomentProblem:
    """A moment solve: the band's modes and reduced generators E2, the
    Gram matrix and right-hand side, the multipliers lam, the datum's free
    evolution over the window, the DualBlock posed (_moment_block), rho2,
    the Gram condition and least eigenvalue, and the condition of its
    diagonal scaling.  free and lam give the state the control reaches,
    free + L lam (_reached), with L the block's control-to-state map."""

    N: int
    T: float
    modes: np.ndarray
    E2: np.ndarray  # (K, d2, d2), row k for modes[k]
    gram: np.ndarray
    rhs: np.ndarray
    lam: np.ndarray
    free: FourierState
    block: "DualBlock"
    weight: SpatialWeight
    cond: float
    min_eig: float
    cond_scaled: float


def _moment_block(sys: SystemMatrices, N, T) -> "DualBlock":
    """The moment method's dual block: the parabolic band up to N on the
    window (0, T), every channel, 128 panels and the profile rho1(s / T)
    of the time to go s."""
    return DualBlock(("parabolic", N), (0.0, T), (True,) * sys.m,
                     time_panels=128, rho1_length=T)


def parabolic_moment_control(sys: SystemMatrices, branches: BranchTable,
                             f0p: FourierState, T: float, N: int,
                             omega: TorusSubset, n0: int,
                             weight: SpatialWeight = None,
                             cond_max=COND_MAX):
    """Moment-method control nulling the parabolic band n0 < |n| <= N.

    One _moment_block on the window (0, T) with profile rho1(s/T) of the
    time to go s, solved by _joint_solve:
    A_{n,k} = rho2hat(n-k) int_0^T rho1(s/T) e^{-s n^2 E2(n)*} C(n)*
              C(k) e^{-s k^2 E2(k)} ds,
    F_n = -e^{-n^2 T E2(n)*} (G(i/n)* f01hat(n) + f02hat(n)) (the dual
    pairings of the freely evolved data, negated), and the emitted
    control is u(t, x) = rho1((T-t)/T) rho2(x) sum_k C(k)
    e^{-k^2 (T-t) E2(k)} V_k e^{ikx}.  Returns (ControlSignal,
    MomentProblem); the problem keeps the multipliers, the free evolution
    and the block, so a caller reaches the controlled state by linearity
    without evolving the control.  The solve builds no control-to-state
    map.
    """
    if weight is None:
        weight = plateau_weight(omega)
    blk = _moment_block(sys, N, T)
    free = evolve(sys, f0p, None, T)
    op = _joint_operator(sys, branches, n0, [blk], T, weight, f0p.nmax)
    u, gram, lam, rhs, cond = _joint_solve(op, -free, cond_max=cond_max)
    setup = op.blocks[0].setup
    return u, MomentProblem(N=N, T=T, modes=setup.modes,
                            E2=setup.basis.gens, gram=gram, rhs=rhs,
                            lam=lam, free=free, block=blk, weight=weight,
                            cond=float(op.eigs[-1] / max(op.eigs[0], 1e-300)),
                            min_eig=float(op.eigs[0]), cond_scaled=cond)


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
        """The stages 2^l <= nmax of lengths A 2^{-rho l}, each followed by
        as long a passive stage, from delta on.  PreconditionError unless
        0 < delta < T/2, 0 < rho < 1 and nmax >= 2."""
        if not 0 < delta < T / 2:
            raise PreconditionError("need 0 < delta < T/2")
        if not 0 < rho < 1:
            raise PreconditionError("need 0 < rho < 1")
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
            raise PreconditionError("nmax < 2: empty schedule")
        return cls(T=T, delta=delta, rho=rho, A_const=A, stages=stages)


def lebeau_robbiano(sys: SystemMatrices, branches: BranchTable,
                    f0p: FourierState, T: float, delta: float, rho: float,
                    nmax: int, n0: int, omega: TorusSubset,
                    weight: SpatialWeight = None):
    """Dyadic active/passive parabolic control on (0, T).

    Stage l solves the moment problem for the band n0 < |n| <= 2^l on a
    window of length T_l, then lets dissipation act for another T_l.
    The concatenated control vanishes outside (delta, T-delta) x omega.
    An active stage reaches F s + L lambda at the end of its window: F s
    the stage state's free evolution, which the moment solve took for its
    goal, and L the stage block's control-to-state map, built once and
    kept with its operator; evolve of the stage's control is the
    reference it agrees with to roundoff.  No evolve here carries a
    control.  A widest band past f0p's truncation raises
    PreconditionError before the first stage.  Returns (controls in
    global time, report with the stage norm chain, each stage's condition
    and its headroom log10(COND_MAX / cond_scaled) to refusal, and the
    final state).
    """
    if weight is None:
        weight = plateau_weight(omega)
    sched = LRSchedule.build(T, delta, rho, nmax)
    # the widest band (2^l <= nmax), refused before any stage runs
    top = sched.stages[-1][1]
    if top > n0:
        check_band(("parabolic", top), n0, f0p.nmax)
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
        op = _joint_operator(sys, branches, n0, [prob.block], Tl, weight,
                             state.nmax)
        state = evolve(sys, _reached(prob.free, op, prob.lam), None, Tl)
        t_reached += 2.0 * Tl
        norms.append(pnorm(state))
        stage_reports.append({"level": level, "N": Nl, "T": Tl,
                              "cond": prob.cond,
                              "cond_scaled": prob.cond_scaled,
                              "cond_headroom_log10": cond_headroom(
                                  prob.cond_scaled),
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
    """An emitted control u (_emit_block) delayed by t0; its func sees
    t - t0 for a float or an array t."""
    return ControlSignal(time_nodes=u.time_nodes + t0, nmax=u.nmax,
                         values=u.values,
                         t_window=(u.t_window[0] + t0, u.t_window[1] + t0),
                         func=lambda t: u.func(t - t0),
                         spatial=lambda t, xs: u.spatial(t - t0, xs))


# ------------------------------------------------------------- HUM Gramians

@dataclass(frozen=True)
class DualBlock:
    """One family of dual vectors, by its specification: the target
    ("low",), ("hyperbolic", nband) or ("parabolic", nband) (see
    _target_entries), the control window (t0, t1) inside [0, T], the
    channel mask (a tuple of bools), the panels on the window, and
    rho1_length for the time profile rho1(s / rho1_length) of the time to
    go s that weights the Gram quadrature and the emitted control (None:
    weight 1).  It compares and hashes by value, so blocks key the
    joint-operator memo.

    Low and hyperbolic entries (n, psi in C^d) observe
    M* e^{-(T-tau) gen(n)*} psi; parabolic entries (n, phi2 in C^d2)
    observe C(n) e^{-(T-tau) n^2 E2(n)} phi2 (the graph coordinate of
    Ima Pp*).
    """

    target: tuple
    window: tuple
    mask: tuple
    time_panels: int = 32
    rho1_length: float = None


@dataclass
class HUMReport:
    gram: np.ndarray
    eigs: np.ndarray
    cond: float
    energy: float
    target_dim: int
    cond_headroom_log10: float


class _BlockSetup(NamedTuple):
    """A dual block's entries (ns[j], vecs[j]); graph, G(i/n_j) per entry
    of a parabolic block (None otherwise); its distinct modes in
    increasing order, the ModeBasis of their generators G_k, and the
    observation matrices (K, m, dg) and time rates for which an entry
    (modes[k], vec) observes obs[k] e^{-s rates[k] G_k} vec at time to
    go s."""

    ns: np.ndarray
    vecs: np.ndarray
    graph: object
    modes: np.ndarray
    basis: ModeBasis
    obs: np.ndarray
    rates: np.ndarray


def _block_setup(sys, branches, n0, nmax, blk: DualBlock) -> _BlockSetup:
    """The _BlockSetup of blk's target for a state truncated at nmax."""
    ns, vecs = _target_entries(sys, branches, n0, nmax, blk.target)
    modes = np.unique(ns)
    if blk.target[0] == "parabolic":
        return _BlockSetup(ns, vecs, branches.G[branches.rows(ns)], modes,
                           ModeBasis(build_E2(sys, branches, modes)),
                           observation_matrix(sys, branches, modes),
                           modes.astype(float) ** 2)
    obs = np.broadcast_to(sys.M.conj().T, (len(modes), sys.m, sys.d))
    return _BlockSetup(ns, vecs, None, modes,
                       ModeBasis(mode_generator(sys, modes, adjoint=True)),
                       obs, np.ones(len(modes)))


def _block_observations(setup: _BlockSetup, T, taus):
    """Unmasked observations v_j(tau_q) in C^m: array (J, Q, m).  The
    observed propagators obs[k] e^{-s rates[k] G_k} are formed per mode;
    entries are linear in their vectors."""
    per_mode = setup.basis.expm(np.outer(setup.rates, T - taus), setup.obs)
    k = np.searchsorted(setup.modes, setup.ns)
    return _small_matmul(per_mode[k], setup.vecs[:, None, :, None])[..., 0]


def _pairings(setup: _BlockSetup, state: FourierState):
    """c_j = <dual_j, fhat(n_j)> (phi2 pairs with G(i/n)* fhat_1 + fhat_2)."""
    fn = state.coeffs[setup.ns + state.nmax]
    if setup.graph is not None:
        d1 = setup.graph.shape[1]
        fn = (np.einsum("kab,ka->kb", setup.graph.conj(), fn[:, :d1])
              + fn[:, d1:])
    return np.einsum("ka,ka->k", setup.vecs.conj(), fn)


class _Block(NamedTuple):
    """One dual block of a joint operator: its DualBlock spec, its
    _BlockSetup, its panel edges, its own quadrature nodes taus with the
    entries' (J, Q, m) observation stack on them, and its emission
    weights W[n', j] = rho2hat(n' - n_j) from its entries to the modes
    |n'| <= nmax.  With no nodes, every time asked for is observed anew."""

    spec: DualBlock
    setup: _BlockSetup
    edges: np.ndarray
    taus: np.ndarray
    stack: np.ndarray
    weights: np.ndarray


@dataclass
class _JointOperator:
    """The datum-independent part of a joint solve of sys at horizon T,
    with rho2 weight, for states truncated at nmax: one _Block per block,
    their edges' _merged_nodes (the panels of its controls and of L), the
    offsets offs into the pairing matrix J, its Hermitian part's eigs,
    the diagonal scaling dscale, the scaled matrix Js and its condition
    cond.  The arrays are read-only; nothing references the branch table."""

    sys: SystemMatrices
    T: float
    weight: SpatialWeight
    nmax: int
    blocks: list
    nodes: np.ndarray
    offs: np.ndarray
    J: np.ndarray
    eigs: np.ndarray
    dscale: np.ndarray
    Js: np.ndarray
    cond: float

    @functools.cached_property
    def control_map(self):
        """L, the control-to-state map at T (_assemble_control_map),
        built once per operator and only when asked for: moment and HUM
        solves never pay for it."""
        return _assemble_control_map(self)


# joint operators kept per branch table, by the value of the problem
_JOINT_OPERATORS = OwnerMemo()


def _joint_operator(sys, branches, n0, blocks, T, weight,
                    nmax) -> _JointOperator:
    """The joint operator of the blocks, the one handle each solve asks
    for and passes on: assembled once per problem and kept in branches's
    memo, keyed on the system, T, rho2, n0, the state's nmax and the
    blocks.  A block window outside [0, T] raises ValueError first."""
    outside = [blk.window for blk in blocks
               if not 0.0 <= blk.window[0] < blk.window[1] <= T]
    if outside:
        raise ValueError(f"block windows {outside} do not satisfy "
                         f"0 <= t0 < t1 <= T = {T}")
    key = (sys, float(T), weight, n0, nmax, tuple(blocks))
    return _JOINT_OPERATORS.get(
        branches, key,
        lambda: _assemble_joint(sys, branches, n0, blocks, T, weight, nmax))


def _assemble_joint(sys, branches, n0, blocks, T, weight,
                    nmax) -> _JointOperator:
    """The pairing matrix J_{jk} = rho2hat(n_j - n_k) int_{W_k}
    r_k(T - tau) v_j* mask_k v_k dtau, with r_k the column block's
    profile; for a single block it is the Gram matrix of the weighted
    observations (Hermitian positive semidefinite).  Each block's entries
    are derived once, here, and observed once, on the union of all
    blocks' quadrature nodes; the block pair (i, j) is one weighted GEMM
    over block j's nodes, V_i* (w_j mask_j V_j)^T with the (node,
    channel) pairs flattened.  The propagators are elementwise per scale,
    so each slice holds the bits of observing there alone.  Each _Block
    keeps its stack on its own nodes for the controls it emits."""
    setups = [_block_setup(sys, branches, n0, nmax, blk) for blk in blocks]
    edges = [np.linspace(*blk.window, blk.time_panels + 1) for blk in blocks]
    quad = [gauss_legendre(e) for e in edges]
    union = np.unique(np.concatenate([taus for taus, _ in quad]))
    at = [np.searchsorted(union, taus) for taus, _ in quad]
    obs = [_block_observations(setup, T, union) for setup in setups]
    # each block's stack on its own nodes; one observed on the union
    # alone (a single block, or blocks sharing their nodes) needs no copy
    own = [v if len(i) == len(union) else v[:, i] for v, i in zip(obs, at)]

    sizes = [len(setup.ns) for setup in setups]
    offs = np.concatenate(([0], np.cumsum(sizes)))
    J = np.zeros((offs[-1], offs[-1]), dtype=complex)
    for bj, blk_col in enumerate(blocks):
        taus, wts = quad[bj]
        if blk_col.rho1_length is not None:
            wts = wts * rho1((T - taus) / blk_col.rho1_length)
        Vc = (own[bj] * (wts[:, None] * blk_col.mask)).reshape(sizes[bj],
                                                                 -1)
        for bi in range(len(blocks)):
            Vr = (own[bj] if bi == bj else obs[bi][:, at[bj]]).conj()
            Vr = Vr.reshape(sizes[bi], -1)
            J[offs[bi]:offs[bi + 1], offs[bj]:offs[bj + 1]] = (
                weight.toeplitz(setups[bi].ns, setups[bj].ns) * (Vr @ Vc.T))

    eigs = np.linalg.eigvalsh(0.5 * (J + J.conj().T))
    # solve and refusal run in the diagonally normalized basis (the raw
    # diagonal range only reflects the per-entry dissipation scales)
    dscale = np.sqrt(np.abs(np.diagonal(J)).clip(1e-300))
    Js = J / np.outer(dscale, dscale)
    sv = np.linalg.svd(Js, compute_uv=False)
    nodes = _merged_nodes(edges, T)
    kept = [_Block(blk, setup, e, taus, v,
                   weight.toeplitz(np.arange(-nmax, nmax + 1), setup.ns))
            for blk, setup, e, (taus, _), v in zip(blocks, setups, edges,
                                                    quad, own)]
    for a in [a for b in kept for a in (
            b.edges, b.taus, b.stack, b.weights, b.setup.ns, b.setup.vecs,
            b.setup.modes)] + [nodes, offs, J, eigs, dscale, Js]:
        a.flags.writeable = False
    return _JointOperator(sys, float(T), weight, nmax, kept, nodes, offs, J,
                          eigs, dscale, Js,
                          float(sv[0] / max(sv[-1], 1e-300)))


def _assemble_control_map(op: _JointOperator):
    """L, the (K d, J) control-to-state map at T of the operator's
    entries: column j is the state at T on |n| <= nmax, from zero, under
    entry j's unit control rho2 (mask v_j) e^{i n_j x} with its block's
    profile, and row k d + a holds mode k - nmax, component a.  A control
    of multipliers lambda therefore reaches L lambda, and a datum f0
    reaches F f0 + L lambda.

    It is evolve's Duhamel integral of those controls on the panels of
    the operator's nodes, reordered by linearity, so each block reads its
    stack on its own nodes.  All columns go through one ModeBasis.duhamel
    with sources shared by the modes, and rho2hat(n - n_j), the blocks'
    emission weights side by side, scales mode n after the integral."""
    sys, T = op.sys, op.T
    taus, wts = duhamel_panels(op.nodes, T, [T])
    # srcs[q, :, j]: entry j's unit control at taus[q], shared by all modes
    srcs = np.zeros((len(taus), sys.m, op.offs[-1]), dtype=complex)
    for block, lo, hi in zip(op.blocks, op.offs, op.offs[1:]):
        on = _on_window(taus, block.spec.window)
        srcs[on, :, lo:hi] = _entry_stack(block, T, taus[on]).transpose(
            0, 2, 1)
    per_mode = _state_basis(sys, op.nmax).duhamel(
        srcs[None], sys.M, T - taus, wts)
    L = (per_mode * np.hstack([b.weights for b in op.blocks])[:, None, :]
         ).reshape(-1, op.offs[-1])
    L.flags.writeable = False
    return L


def _reached(free: FourierState, op: _JointOperator, lam) -> FourierState:
    """F f0 + L lam: the state a control of multipliers lam reaches from
    the datum whose free evolution is free, L the control map of the
    operator that emitted it; free itself when lam is None (no control
    yet), without asking for L."""
    if lam is None:
        return free
    return FourierState(free.nmax, free.coeffs + (
        op.control_map @ lam).reshape(free.coeffs.shape))


def _joint_multipliers(op: _JointOperator, goal, cond_max=COND_MAX,
                       refuse=True):
    """(lambda, rhs): the multipliers of the controls on op's blocks whose
    summed contribution at T has the dual pairings rhs of the state goal
    (the negated free evolution to null, or the state to reach).  Refuses
    unless 0 < op.cond <= cond_max or refuse is False; emits nothing."""
    if refuse and not 0.0 < op.cond <= cond_max:
        raise np.linalg.LinAlgError(
            f"Gram condition {op.cond:.2e} beyond {cond_max:.0e}: target "
            f"too high-dimensional for this (T, omega)")
    c = np.concatenate([_pairings(b.setup, goal) for b in op.blocks])
    return np.linalg.solve(op.Js, c / op.dscale) / op.dscale, c


def _joint_solve(op: _JointOperator, goal, cond_max=COND_MAX, refuse=True):
    """(control, J, lambda, rhs, cond) for the moment and HUM solves:
    _joint_multipliers, the control _emit_block builds from them, op's
    read-only pairing matrix J and its scaled condition cond."""
    lam, c = _joint_multipliers(op, goal, cond_max, refuse)
    return _emit_block(op, lam), op.J, lam, c, op.cond


def _emit_block(op: _JointOperator, lam):
    """One lazy control u = rho2 sum_j lambda_j (mask v_j) e^{i n_j x}
    over op's blocks, lam holding each block's slice at its offset: entry
    j carries r(T-t) mask v_j(t) on its block's window and 0 off it
    (_entry_stack).  at(ts) sums, block by block, (W diag lambda) @ V(ts),
    W the block's emission weights and V zero off its window, one product
    per time, so a batch gives the bits of its times one at a time.  The
    spatial form synthesizes the lambda-weighted stacks.  The nodes are
    op.nodes, and the window spans the blocks' windows."""
    # the closures hold the blocks, not op: a control outlives its memo
    lam = np.asarray(lam, dtype=complex)
    blocks, T, weight = op.blocks, op.T, op.weight
    m = len(blocks[0].spec.mask)
    parts = [(block, block.weights * lam[lo:hi])
             for block, lo, hi in zip(blocks, op.offs, op.offs[1:])]

    def coeff_fn(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        (block, W), *rest = parts
        out = W @ _entry_stack(block, T, ts)
        for block, W in rest:
            out += W @ _entry_stack(block, T, ts)
        return out if np.ndim(t) else out[0]

    def spatial(t, xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ts = np.array([t], dtype=float)
        vs = np.concatenate([_entry_stack(b, T, ts)[0] for b in blocks])
        ns = np.concatenate([b.setup.ns for b in blocks])
        return (kernels.synthesize(lam[:, None] * vs, ns, xs)
                * weight(xs)[:, None])

    window = (min(b.spec.window[0] for b in blocks),
              max(b.spec.window[1] for b in blocks))
    return ControlSignal.from_func(coeff_fn, op.nodes, op.nmax, m,
                                   t_window=window, spatial=spatial)


def _entry_stack(block: _Block, T, ts):
    """(Q, J, m) per-entry r(T - t) mask v_j(t) at the 1-D times ts for
    the block, zero off the window and where the profile r vanishes (r is
    1 when the block has none, and is taken at the time to go clipped to
    [0, T]).  Times equal to the block's nodes read its stack; any others
    observe the entries anew, with the same bits."""
    spec = block.spec
    r = (np.ones(len(ts)) if spec.rho1_length is None
         else rho1(np.clip(T - ts, 0.0, T) / spec.rho1_length))
    r = np.where(_on_window(ts, spec.window), r, 0.0)
    on = np.flatnonzero(r)
    out = np.zeros((len(ts), len(block.setup.ns), len(spec.mask)),
                   dtype=complex)
    if len(on):
        if np.array_equal(ts, block.taus):
            vs = block.stack[:, on]
        else:
            vs = _block_observations(block.setup, T, ts[on])
        out[on] = vs.transpose(1, 0, 2) * (
            r[on, None, None] * np.asarray(spec.mask, dtype=float))
    return out


def check_band(target, n0, nmax):
    """The top |n| of a declared target's band (see _target_entries),
    for a state truncated at nmax: raises PreconditionError when the band
    holds no mode or reaches past nmax, and ValueError for an unknown
    target kind."""
    kind = target[0]
    if kind not in ("low", "hyperbolic", "parabolic"):
        raise ValueError(f"unknown target kind {kind!r}")
    top = n0 if kind == "low" else target[1]
    band = f"|n| <= {n0}" if kind == "low" else f"{n0} < |n| <= {top}"
    if kind != "low" and top <= n0:
        raise PreconditionError(f"{kind} target band {band} holds no mode")
    if top > nmax:
        raise PreconditionError(f"{kind} target band {band} reaches past "
                                f"the state's nmax = {nmax}")
    return top


def _target_entries(sys, branches, n0, nmax, target):
    """Dual entries (ns, vecs), entry j being (ns[j], vecs[j]), for a
    declared target subspace.

    ("low",): canonical basis of C^d on |n| <= n0 (pairings zero iff the
    low block vanishes).  ("hyperbolic", nband): orthonormal basis of
    Ima Ph(i/n)* for n0 < |n| <= nband (pairings zero iff
    Ph(i/n) fhat(n) = 0).  ("parabolic", nband): canonical basis of the
    phi2 coordinate of Ima Pp(i/n)* for n0 < |n| <= nband.  The band
    must pass check_band.
    """
    top = check_band(target, n0, nmax)
    kind = target[0]
    if kind == "low":
        ns, dim = np.arange(-n0, n0 + 1), sys.d
    else:
        ns = np.setdiff1d(np.arange(-top, top + 1), np.arange(-n0, n0 + 1))
        dim = sys.d2
    if kind == "hyperbolic":
        U, s, _ = np.linalg.svd(
            np.swapaxes(branches.Ph[branches.rows(ns)], -1, -2).conj())
        # singular values decrease: each mode keeps a leading run of U
        k, j = np.nonzero(s > 1e-8)
        return ns[k], U[k, :, j]
    return (np.repeat(ns, dim),
            np.tile(np.eye(dim, dtype=complex), (len(ns), 1)))


def hum_gramian_control(sys: SystemMatrices, branches: BranchTable, n0: int,
                        target, fstar: FourierState, T: float,
                        omega: TorusSubset, window=None, Tstar=None,
                        cond_max=COND_MAX, refuse=True):
    """Minimum-energy control whose contribution at time T has the same
    dual pairings as fstar on the declared target subspace.

    Solves the weighted controllability Gramian against
    c_j = <psi_j, fstar> and emits u = rho2 sum_k lambda_k (mask v_k)
    e^{i n_k x} on the window, which must lie inside [0, T].  A
    hyperbolic-target window shorter than the minimal time is allowed but
    warned about: the Gramian is then expected near-singular (pass
    refuse=False to inspect it).
    """
    window = (0.0, T) if window is None else tuple(window)
    if (target[0] == "hyperbolic" and Tstar is not None
            and window[1] - window[0] <= Tstar):
        warnings.warn(
            f"window length {window[1] - window[0]:.3f} <= minimal time "
            f"{Tstar:.3f}: hyperbolic Gramian expected near-singular",
            stacklevel=2)
    weight = plateau_weight(omega)
    blk = DualBlock(tuple(target), window, (True,) * sys.m)
    op = _joint_operator(sys, branches, n0, [blk], T, weight, fstar.nmax)
    u, J, lam, rhs, cond = _joint_solve(op, fstar, cond_max=cond_max,
                                         refuse=refuse)
    report = HUMReport(gram=J, eigs=op.eigs, cond=cond,
                       energy=float(np.real(np.vdot(lam, rhs))),
                       target_dim=len(rhs),
                       cond_headroom_log10=cond_headroom(cond))
    return u, report


# ------------------------------------------------------------- combination

def merge_controls(controls, nmax, m, T) -> ControlSignal:
    """Sum additive ControlSignals into one signal covering [0, T]: for
    lebeau_robbiano's stage controls, which no one operator emits."""
    items = [(u, u.t_window or (u.time_nodes[0], u.time_nodes[-1]))
             for u in controls]

    def coeff_fn(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((len(ts), 2 * nmax + 1, m), dtype=complex)
        for u, window in items:
            on = _on_window(ts, window)
            if np.any(on):
                out[on] += u.at(ts[on])
        return out if np.ndim(t) else out[0]

    def spatial(t, xs):
        out = np.zeros((len(np.atleast_1d(xs)), m), dtype=complex)
        for u, window in items:
            if u.spatial is not None and _on_window(t, window):
                out += u.spatial(t, xs)
        return out

    nodes = _merged_nodes([u.time_nodes for u in controls], T)
    return ControlSignal.from_func(coeff_fn, nodes, nmax, m,
                                   t_window=(0.0, T), spatial=spatial)


def _on_window(ts, window):
    """Whether the times ts lie in the window (t0, t1), to 1e-12."""
    return (ts >= window[0] - 1e-12) & (ts <= window[1] + 1e-12)


def _merged_nodes(node_sets, T):
    """0, T and every set's nodes clipped to [0, T], in increasing order,
    a node within 1e-13 of the one before it dropped: merge_controls'
    nodes, and a joint operator's from its blocks' edges."""
    edges = {0.0, T}
    for nodes in node_sets:
        edges.update(np.clip(nodes, 0.0, T).tolist())
    nodes = np.array(sorted(edges))
    return nodes[np.concatenate(([True], np.diff(nodes) > 1e-13))]


def check_horizons(T, Tprime, Tstar=None):
    """full_pipeline's horizon condition max(0, T*) < T' < T, T* taken as
    0 when not given: raises PreconditionError unless it holds."""
    lower = 0.0 if Tstar is None else max(Tstar, 0.0)
    if not lower < Tprime < T:
        raise PreconditionError(
            f"need max(0, T*) < T' < T, got max(0, T*) = {lower:.6g}, "
            f"T' = {Tprime:.6g}, T = {T:.6g}")


def full_pipeline(sys: SystemMatrices, branches: BranchTable, n0: int,
                  f0: FourierState, T: float, Tprime: float,
                  omega: TorusSubset, Tstar: float = None,
                  max_sweeps=5):
    """Null control on (0, T) from sweeps of one joint dual-pairing solve.

    Each sweep solves one joint problem over three families, the
    projections of the dynamics on the hyperbolic, low-frequency and
    parabolic eigenspaces: hyperbolic duals controlled on (0, T') through
    the first d1 control channels, low modes over a trailing window near
    T, and parabolic duals over the same trailing window through the
    remaining channels (all channels when the control space is not C^d).
    No block carries a time profile.  Every control leaks into every band
    through its omega cut-off; the next sweep removes that coupling.

    The sweeps pose the same blocks, so the datum asks for their joint
    operator once, and each sweep solves with it for its multipliers
    alone (_joint_multipliers).  A sweep checks F f0 + L lambda, with
    lambda the summed multipliers, F f0 the datum's one free evolution
    and L the operator's control-to-state map at T.  The returned control
    is emitted once, from the operator and lambda (_emit_block), or is
    None when no solve ran; L lambda is evolve's Duhamel integral of it
    on the operator's nodes, reordered by linearity, so evolve of it is
    the reference L lambda agrees with to roundoff.  Each sweep logs the
    norms of the checked state's hyperbolic projection h, its low modes
    and its parabolic part, which is the one array fT - h - low since
    Pp = I - Ph on the band.  Sweeps stop at relative residual 1e-9, on
    a stall, or after max_sweeps.  The certificate reports the path, the
    sweep residual chain, the last joint condition and its cond_headroom
    (both None when no solve ran), and the final relative norm, the last
    sweep's unless max_sweeps ran out.  T' must pass check_horizons and
    f0's nmax must exceed n0, or PreconditionError is raised.
    """
    check_horizons(T, Tprime, Tstar)
    nmax = f0.nmax
    if nmax <= n0:
        raise PreconditionError(f"need nmax > n0 = {n0}, got nmax = {nmax}")
    d1, m = sys.d1, sys.m
    split = m == sys.d
    weight = plateau_weight(omega)
    trailing = (T - min(0.1 * T, T - Tprime) / 2.0, T)
    blocks = [
        DualBlock(("hyperbolic", nmax), (0.0, Tprime),
                  tuple(c < d1 or not split for c in range(m))),
        DualBlock(("low",), trailing, (True,) * m),
        DualBlock(("parabolic", nmax), trailing,
                  tuple(c >= d1 or not split for c in range(m)))]
    free = evolve(sys, f0, None, T)
    op = _joint_operator(sys, branches, n0, blocks, T, weight, nmax)
    lam = None
    sweep_log = []
    path = "joint-sweeps"
    f0norm = max(f0.norm(), 1e-300)
    for sweep in range(max_sweeps):
        fT = _reached(free, op, lam)
        res = fT.norm() / f0norm
        # Pp = I - Ph on the band, so fT - h - low is the parabolic part
        h, low = project_branch(fT, branches, n0, "h"), project_low(fT, n0)
        p = FourierState(nmax, fT.coeffs - h.coeffs - low.coeffs)
        sweep_log.append({"sweep": sweep, "relative_residual": res,
                          "h": h.norm(), "p": p.norm(), "low": low.norm()})
        if res <= 1e-9:
            break
        if sweep >= 2 and res > 0.5 * sweep_log[-2]["relative_residual"]:
            path = "joint-sweeps (stalled)"
            break
        dlam, _ = _joint_multipliers(op, -fT)
        lam = dlam if lam is None else lam + dlam
    else:
        # max_sweeps ran out: the last multipliers are not yet checked
        fT = _reached(free, op, lam)
    joint_cond = None if lam is None else op.cond
    cert = {
        "path": path,
        "sweeps": sweep_log,
        "joint_cond": joint_cond,
        "joint_cond_headroom_log10": (
            None if joint_cond is None else cond_headroom(joint_cond)),
        "final_norm": fT.norm(),
        "relative": fT.norm() / f0norm,
        "final_state": fT,
    }
    return (None if lam is None else _emit_block(op, lam)), cert
