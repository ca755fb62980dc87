"""Truncated Fourier states, exact per-mode evolution, norms, projections.

Conventions: f(x) = sum_n fhat(n) e^{inx} and ||f||^2_{L2} = 2 pi
sum_n |fhat(n)|^2.  The mode-n generator is n^2 E(i/n) for n != 0 and K
for n = 0 (the formal limit).  Every per-mode semigroup e^{-s G_n} is
evaluated by ModeBasis, the one matrix exponential of the package.  Its
d x d products, and those of the Pade exponential behind it, are d-term
broadcast contractions (_small_matmul) over the whole stack of modes and
times in place of one matmul per matrix; being elementwise, they give a
batch of times the same bits as one time at a time.  Emission relies on
it: the joint dual solve observes each block once on all blocks' nodes,
and a control it emits reads that stack on its own nodes and observes
anew elsewhere, with the same bits either way.  Time
integrals in the Duhamel formula use per-panel Gauss-Legendre of order 8
(gauss_legendre) with panels aligned to the control's time nodes
(duhamel_panels), and their node sums run in each mode's
eigen-coordinates (ModeBasis.duhamel), so V_k^{-1} M and V_k apply once
per mode, not once per node.  The same contraction, over a batch of
source columns shared by the modes, builds the joint dual operator's
control-to-state map.  evolve and that map share one ModeBasis per
system and truncation, kept in an OwnerMemo: a bounded memo that lives
and dies with its owner.  A basis in turn keeps the expm-path
propagators it formed, per array of scales, so an evolution to a
horizon it has met runs no Pade exponential.  A control enters through
its coefficients as they stand: a signal carries its own support (the
emitters build the spatial cut-off into them), and evolve applies no
mask of its own.  Solves check their states at every stage and sweep,
so a check is one array operation: evolve to one horizon returns its
trajectory's one column, and project_branch keeps each band's mask and
projector stack per branch table.
States go to and from the uniform grid 2 pi j / ngrid by FFT
(synth_grid, analyze_grid), the inverse FFT in place on the binned
spectrum; the windowed observation norm reads one (modes, times, d)
coefficient stack, with no per-time state, as one such spectrum.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import SystemMatrices, TorusSubset, TWO_PI, OwnerMemo
from .spectral import BranchTable, eval_symbol, _read_only

__all__ = [
    "FourierState", "ControlSignal", "ModeBasis", "gauss_legendre",
    "duhamel_panels", "evolve", "windowed_l2_norm",
    "project_branch", "project_low", "synth_grid",
]

# eigendecomposition error scales like eps * cond(V); keep the fast eig
# path well below the accuracy floor of the dual-pairing solves (exactly
# defective generators occur at isolated modes, e.g. symbol discriminant
# zeros, and take the expm path)
EIG_COND_MAX = 1e6
GL_ORDER = 8
# degree-13 Pade coefficients b_0..b_13, and the 1-norm up to which the
# unscaled approximant's backward error stays below the unit roundoff
# (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3)
PADE13_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)
THETA13 = 5.371920351148152


@dataclass
class FourierState:
    """Truncated vector-valued Fourier coefficients, |n| <= nmax.

    coeffs has shape (2*nmax+1, d); row i holds fhat(i - nmax).
    """

    nmax: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.shape[0] != 2 * self.nmax + 1:
            raise ValueError("coeffs must have 2*nmax+1 rows")

    @classmethod
    def zeros(cls, nmax, d):
        return cls(nmax, np.zeros((2 * nmax + 1, d), dtype=complex))

    @property
    def d(self):
        return self.coeffs.shape[1]

    @property
    def modes(self):
        return np.arange(-self.nmax, self.nmax + 1)

    def get(self, n):
        return self.coeffs[n + self.nmax]

    def norm(self):
        """L2 norm: sqrt(2 pi sum |fhat(n)|^2)."""
        return float(np.sqrt(TWO_PI) * np.linalg.norm(self.coeffs))

    def __add__(self, other):
        if other.nmax != self.nmax:
            raise ValueError("truncation orders differ")
        return FourierState(self.nmax, self.coeffs + other.coeffs)

    def __neg__(self):
        return FourierState(self.nmax, -self.coeffs)

    def __sub__(self, other):
        if other.nmax != self.nmax:
            raise ValueError("truncation orders differ")
        return FourierState(self.nmax, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return FourierState(self.nmax, self.coeffs * scalar)

    __rmul__ = __mul__


def _synth_uniform(coeffs, modes, ngrid):
    """sum_a coeffs[a] e^{i modes[a] x} at x_j = 2 pi j / ngrid, along
    axis 0: ngrid * ifft of the coefficients binned at modes mod ngrid,
    where modes sharing a bin add up, and the inverse FFT and scaling
    overwrite the binned spectrum.  The modes increase, each run of ngrid
    of them spanning less than ngrid, so the run adds into distinct bins
    by one indexed +=: every bin sums 0 + c1 (+ c2) in mode order,
    np.add.at's bits.  analyze_grid's DFT inverts it on the modes that
    keep a bin of their own.
    """
    spec = np.zeros((ngrid,) + coeffs.shape[1:], dtype=complex)
    bins = np.asarray(modes) % ngrid
    for s in range(0, len(bins), ngrid):
        spec[bins[s:s + ngrid]] += coeffs[s:s + ngrid]
    np.fft.ifft(spec, axis=0, out=spec)
    spec *= ngrid
    return spec


def synth_grid(state: FourierState, ngrid=None):
    """(xs, values) with values[j] = sum_n fhat(n) e^{i n xs[j]} on the
    uniform grid xs[j] = 2 pi j / ngrid, by inverse FFT; ngrid defaults
    to max(4*nmax, 16) and must be at least 2*nmax, where the modes -nmax
    and nmax share a bin."""
    if ngrid is None:
        ngrid = max(4 * state.nmax, 16)
    if ngrid < 2 * state.nmax:
        raise ValueError(f"grid of {ngrid} points under Nyquist "
                         f"(need >= {2 * state.nmax})")
    xs = TWO_PI * np.arange(ngrid) / ngrid
    return xs, _synth_uniform(state.coeffs, state.modes, ngrid)


def analyze_grid(values, xs, nmax):
    """Inverse of synth_grid on the uniform grid xs[j] = 2 pi j / ngrid:
    trapezoidal (= exact DFT) Fourier coefficients along axis 0, truncated
    to |n| <= nmax.  Modes beyond the grid's Nyquist band alias onto the
    grid frequency n mod ngrid."""
    ngrid = len(xs)
    if not np.allclose(xs, TWO_PI * np.arange(ngrid) / ngrid):
        raise ValueError("analyze_grid needs the uniform grid "
                         "2 pi j / ngrid, j = 0..ngrid-1")
    spec = np.fft.fft(values, axis=0) / ngrid
    return spec[np.arange(-nmax, nmax + 1) % ngrid]


@dataclass
class ControlSignal:
    """Space-time control: sampled at strictly increasing time nodes, or
    given by an exact evaluator.

    at(t) takes a float or a 1-D array of times: a float gives the
    (2*nmax+1, m) coefficient array of u(t, .), an array of Q times the
    (Q, 2*nmax+1, m) stack.
    Interpolated signals: values[i] is the (2*nmax+1, m) coefficient
    array of u(t_i, .), and at() interpolates linearly between nodes.
    Signals carrying func are lazy: at(t) returns func(t), so func keeps
    the same float-or-array contract, and values holds no samples, only
    the shape (0, 2*nmax+1, m) that records m; the time nodes still mark
    the panel edges Duhamel quadratures align with.
    Build them with ControlSignal.from_func (control._emit_block: one
    from a joint operator and its multipliers).  A signal carries its own
    support: its coefficients vanish where it is off; t_window, when set,
    records the declared window (merge_controls skips a signal off it).
    """

    time_nodes: np.ndarray
    nmax: int
    values: np.ndarray
    t_window: tuple = None
    # optional exact evaluator with the contract of at(); when set it
    # supersedes interpolation (moment/transport controls are analytic in t)
    func: object = None
    # optional exact spatial evaluator (t, xs) -> (len(xs), m); synthesized
    # controls carry this so support checks do not see the mode truncation
    spatial: object = None

    def __post_init__(self):
        self.time_nodes = np.asarray(self.time_nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if (np.diff(self.time_nodes) <= 0).any():
            raise ValueError("time nodes must be strictly increasing")
        if self.func is None and len(self.time_nodes) < 2:
            raise ValueError("an interpolated signal needs at least two "
                             "time nodes")
        rows = 0 if self.func is not None else len(self.time_nodes)
        if (self.values.ndim != 3
                or self.values.shape[:2] != (rows, 2 * self.nmax + 1)):
            raise ValueError("values shape mismatch with nodes/nmax "
                             "(signals with func hold no samples)")

    @classmethod
    def from_func(cls, func, time_nodes, nmax, m, **support):
        """Lazy signal evaluated exactly by func; t_window and spatial
        keywords as for the constructor.  func(t) must take a float, giving a
        (2*nmax+1, m) array, and a 1-D array of Q times, giving a
        (Q, 2*nmax+1, m) stack."""
        return cls(time_nodes=time_nodes, nmax=nmax,
                   values=np.zeros((0, 2 * nmax + 1, m), dtype=complex),
                   func=func, **support)

    @property
    def m(self):
        return self.values.shape[2]

    def at(self, t):
        """u(t) for a float t, or the stack over a 1-D array of times.
        Interpolated signals interpolate linearly between nodes and hold
        the end values outside them; controls are built smooth in t and
        sampled densely, and quadrature panels align with the nodes."""
        if self.func is not None:
            return np.asarray(self.func(t), dtype=complex)
        # fractional node index: np.interp clamps it to [0, len - 1]
        # outside the nodes and returns it exactly on them
        n = len(self.time_nodes)
        x = np.interp(t, self.time_nodes, np.arange(n, dtype=float))
        i = np.minimum(np.asarray(x, dtype=int), n - 2)
        lam = np.asarray(x - i)[..., None, None]
        return (1.0 - lam) * self.values[i] + lam * self.values[i + 1]


@functools.lru_cache(maxsize=None)
def _legendre_rule(order):
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(edges, order=GL_ORDER):
    """Composite Gauss-Legendre rule of the given order on the panels
    between consecutive edges: (taus, wts), panel by panel."""
    x, w = _legendre_rule(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _small_matmul(a, b):
    """a @ b for stacks of small matrices, (..., p, d) by (..., d, r): the
    d-term sum of the broadcast products a[..., :, j] b[..., j, :], taken
    in the order j = 0..d-1.  NumPy's matmul pays a fixed cost per matrix
    of a stack, which dominates at d <= 4 (2x2 complex: about four times
    this sum).  The sum is elementwise, so each matrix of a stack gets the
    same arithmetic whatever stack it sits in."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def _expm_pade13(A):
    """e^A for a stack A of shape (..., d, d): scaling and squaring with
    the degree-13 Pade approximant r = (V - U)^{-1} (V + U) (Higham 2005).

    Each matrix gets its own scaling 2^-s, s = max(0, ceil(log2(|A|_1 /
    THETA13))), and the j-th squaring pass squares only the matrices with
    s > j.  The passes square R = X + c I through X <- X^2 + 2c X,
    starting from X = r - I = (V - U)^{-1} 2U (one batched solve).  With
    c = 1 the entries of R near 1 keep the accuracy of their small
    increments, where squaring R itself loses about 2^s ulps; a matrix
    whose R has decayed below 1-norm 1/2 goes on with c = 0, because
    R - I would cancel.  Every product is _small_matmul's.
    """
    A = np.asarray(A, dtype=complex)
    norm1 = np.abs(A).sum(axis=-2).max(axis=-1, initial=0.0)
    with np.errstate(divide="ignore"):
        s = np.maximum(0.0, np.ceil(np.log2(norm1 / THETA13))).astype(int)
    A = A * np.ldexp(1.0, -s)[..., None, None]
    b = PADE13_B
    eye = np.eye(A.shape[-1])
    A2 = _small_matmul(A, A)
    A4 = _small_matmul(A2, A2)
    A6 = _small_matmul(A4, A2)
    U = _small_matmul(A, _small_matmul(A6, b[13] * A6 + b[11] * A4
                                       + b[9] * A2)
                      + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (_small_matmul(A6, b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    X = np.linalg.solve(V - U, 2.0 * U)
    c = np.ones(s.shape + (1, 1))
    for j in range(s.max(initial=0)):
        sq = s > j
        w, cw = X[sq], c[sq]
        decayed = cw * (np.abs(w + eye).sum(axis=-2).max(axis=-1)
                        < 0.5)[:, None, None]
        w += decayed * eye
        cw -= decayed
        X[sq] = _small_matmul(w, w) + 2.0 * cw * w
        c[sq] = cw
    return X + c * eye


# the expm-path propagators of each ModeBasis, per array of scales
_PROPAGATORS = OwnerMemo()


class ModeBasis:
    """The semigroups e^{-s G_k} of a stack of generators G, shape (K, d, d).

    One stacked eigendecomposition is taken at construction.  Mode k takes
    the eig path V_k e^{-s w_k} V_k^{-1} when cond(V_k) < EIG_COND_MAX, and
    the scaling-and-squaring Pade-13 exponential _expm_pade13 otherwise;
    eig[k] records the path.  On the eig path the factors that do not
    depend on the scale (V_k, V_k^{-1}, and obs_k V_k or V_k^{-1} vecs_k)
    are formed once, and each scale costs the d-term contraction
    sum_j e^{-s w_kj} (factor_kj), taken by _small_matmul as elementwise
    products over the whole (K, Q) grid; the exponentials e^{-s w_kj} are
    real ones when every eig-path eigenvalue has a zero imaginary part
    (decoupled heat, for one).  All expm-path modes at all their
    scales go through one _expm_pade13 call.  No product couples two
    scales, so a (K, Q) call gives, bit for bit, the columns of Q
    single-scale calls.  Scales are (K, Q) arrays, or anything that
    broadcasts to one: (Q,) shares the scales across modes, (K, 1) gives
    one scale per mode.  A basis is read-only once built, so one can
    serve every evolution of its system.  It keeps its generators, the
    eig-path factors -w_k, V_k and V_k^{-1}, and, in an OwnerMemo that
    dies with it, the expm-path propagators of its MEMO_SIZE most recent
    scale arrays (_expm_slow), all read-only.
    """

    def __init__(self, gens):
        self.gens = np.array(gens, dtype=complex)
        w, V = np.linalg.eig(self.gens)
        self.eig = np.linalg.cond(V) < EIG_COND_MAX
        self._fast = np.flatnonzero(self.eig)
        self._slow = np.flatnonzero(~self.eig)
        self._negw, self._V = -w[self._fast], V[self._fast]
        if not np.any(self._negw.imag):
            # a real spectrum decays through real exponentials, which cost
            # a tenth of complex ones
            self._negw = self._negw.real.copy()
        self._Vinv = np.linalg.inv(self._V)
        for a in (self.gens, self.eig, self._fast, self._slow, self._negw,
                  self._V, self._Vinv):
            a.flags.writeable = False

    def _scales(self, scales):
        return np.zeros((len(self.gens), 1)) + scales

    def _decay(self, s):
        """e^{-s w} of the eig-path modes: (Ke, Q, d), real when their
        spectrum is."""
        return np.exp(s[self._fast, :, None] * self._negw[:, None, :])

    def _expm_slow(self, s):
        """e^{-s G} of the expm-path modes: (Ks, Q, d, d), read-only.  The
        basis keeps them under the shape and bytes of the slow rows'
        scales, so a repeated scale array (evolve to the same horizon)
        reads what the Pade call returned the first time."""
        slow = s[self._slow]
        return _PROPAGATORS.get(
            self, (slow.shape, slow.tobytes()), lambda: _read_only(
                _expm_pade13(-slow[..., None, None]
                             * self.gens[self._slow, None])))

    def expm(self, scales, obs=None):
        """obs[k] e^{-scales[k, q] G_k}: array (K, Q, m, d), for
        observations obs of shape (K, m, d) (the identity when None).  An
        eig-path mode sums the d rank-one terms (obs_k V_k)[:, j]
        V_k^{-1}[j, :], each weighted by its e^{-s w_kj}."""
        d = self.gens.shape[1]
        m = d if obs is None else obs.shape[1]
        s = self._scales(scales)
        out = np.empty(s.shape + (m, d), dtype=complex)
        if len(self._fast):
            lead = (self._V if obs is None
                    else _small_matmul(obs[self._fast], self._V))
            terms = (lead.swapaxes(1, 2)[..., None]
                     * self._Vinv[:, :, None, :]).reshape(-1, 1, d, m * d)
            out[self._fast] = _small_matmul(
                self._decay(s)[..., None, :], terms).reshape(-1, s.shape[1],
                                                             m, d)
        if len(self._slow):
            P = self._expm_slow(s)
            out[self._slow] = (P if obs is None
                               else _small_matmul(obs[self._slow, None], P))
        return out

    def action(self, vecs):
        """The map scales -> e^{-scales[k, q] G_k} vecs[k], an array
        (K, Q, d), for vecs of shape (K, d).  The factors that do not
        depend on the scales, V_k and V_k^{-1} vecs_k, are formed once,
        read-only: a map can be kept."""
        vecs = np.asarray(vecs, dtype=complex)[:, None, :, None]
        lead = self._V[:, None]
        coef = _small_matmul(self._Vinv[:, None], vecs[self._fast])
        slow_vecs = vecs[self._slow]
        coef.flags.writeable = slow_vecs.flags.writeable = False

        def at(scales):
            s = self._scales(scales)
            out = np.empty(s.shape + (self.gens.shape[1],), dtype=complex)
            if len(self._fast):
                out[self._fast] = _small_matmul(
                    lead, self._decay(s)[..., None] * coef)[..., 0]
            if len(self._slow):
                out[self._slow] = _small_matmul(self._expm_slow(s),
                                                slow_vecs)[..., 0]
            return out

        return at

    def duhamel(self, srcs, lift, scales, wts):
        """sum_q wts[q] e^{-scales[k, q] G_k} lift srcs[k, q]: array
        (K, d, ...), for sources srcs of shape (K, Q, m, ...) and a lift of
        shape (d, m).  Sources of shape (1, Q, m, ...) are shared by every
        mode.  Trailing axes are a batch of source columns, each summed
        alone: evolve passes one control's coefficients, the joint
        operator's control-to-state map one column per dual entry.

        An eig-path mode takes the sum in its eigen-coordinates, where
        e^{-s G_k} is the diagonal e^{-s w_k}: one (d, Q) @ (Q, m ...)
        product sums the sources against the weights wts[q]
        e^{-scales[k, q] w_kj}, the rows of V_k^{-1} lift map the result
        into eigen-coordinates, and V_k applies once, not once per node.
        An expm-path mode weights its Pade-13 propagators times lift and
        sums them against the sources over the (node, channel) pairs in
        one product.
        """
        srcs = np.asarray(srcs, dtype=complex)
        nsrc, nq, m = srcs.shape[:3]
        nb = int(np.prod(srcs.shape[3:]))
        s = self._scales(scales)
        d = self.gens.shape[1]
        out = np.empty((len(self.gens), d, nb), dtype=complex)

        def sources(modes, *shape):
            # a selected copy is used once and freed at once: one held to
            # the end of the call makes the allocator fault in fresh pages
            # on every call
            if nsrc == 1:
                return srcs.reshape((1,) + shape)
            return srcs[modes].reshape((len(modes),) + shape)

        if len(self._fast):
            decayed = (self._decay(s) * wts[:, None]).swapaxes(1, 2)
            summed = decayed @ sources(self._fast, nq, m * nb)
            coef = (_small_matmul(self._Vinv, lift)[..., None]
                    * summed.reshape(len(self._fast), d, m, nb)).sum(axis=2)
            out[self._fast] = _small_matmul(self._V, coef)
        if len(self._slow):
            P = _small_matmul(self._expm_slow(s), lift) * wts[:, None, None]
            out[self._slow] = (
                P.transpose(0, 2, 1, 3).reshape(len(self._slow), d, nq * m)
                @ sources(self._slow, nq * m, nb))
        return out.reshape((len(self.gens), d) + srcs.shape[3:])


def mode_generator(sys: SystemMatrices, n, adjoint=False):
    """n^2 E(i/n) for n != 0, K for n = 0; conjugate-transposed when
    adjoint.  An int n gives one (d, d) matrix, a 1-D array of modes the
    (len(n), d, d) stack."""
    ns = np.atleast_1d(np.asarray(n, dtype=int))
    G = np.empty((len(ns), sys.d, sys.d), dtype=complex)
    G[ns == 0] = sys.K
    nz = ns != 0
    G[nz] = (ns[nz] ** 2)[:, None, None] * eval_symbol(sys, 1j / ns[nz])
    if adjoint:
        G = G.conj().swapaxes(1, 2)
    return G if np.ndim(n) else G[0]


_STATE_BASES = OwnerMemo()


def _state_basis(sys: SystemMatrices, nmax):
    """The ModeBasis of sys's generators on |n| <= nmax, built once per
    system and kept while it lives: a solve evolves the same system many
    times, and each build is a stacked eig, cond and inv."""
    return _STATE_BASES.get(sys, nmax, lambda: ModeBasis(
        mode_generator(sys, np.arange(-nmax, nmax + 1))))


def duhamel_panels(time_nodes, T, times):
    """Gauss-Legendre nodes and weights (taus, wts) of evolve's Duhamel
    integrals for a control with these time nodes: panels between the
    nodes clipped to [0, T] and the sample times, so that every sample
    time is a panel edge."""
    return gauss_legendre(np.unique(np.concatenate(
        [np.clip(time_nodes, 0.0, T), times])))


def evolve(sys: SystemMatrices, f0: FourierState, u: ControlSignal,
           T: float, sample_times=None):
    """Exact per-mode evolution with Duhamel source term; u None is free.

    The control's coefficients enter the mode ODEs through M as they
    stand (the signal carries its own support).  Duhamel integrals use
    Gauss-Legendre panels between control time nodes and sample times
    (duhamel_panels); the control is asked for all of them in one
    u.at(taus) call, so a lazy signal's func must accept a 1-D array of
    times (see ControlSignal).  Each sample time's integral, over whole
    panels, is one ModeBasis.duhamel contraction of the raw coefficients,
    summed over the nodes in each mode's eigen-coordinates.
    Returns the state at T >= 0, the trajectory's one column (the bits
    of sample_times=[T]), or (times, states) at sample_times in [0, T].
    """
    nmax = f0.nmax
    if sample_times is None:
        times, outside = np.array([T]), T < 0
    else:
        times = np.asarray(sample_times, dtype=float)
        outside = np.any(times < 0) or np.any(times > T)
    if outside:
        raise ValueError(f"sample times must lie in [0, T = {T}]")
    if u is not None:
        if u.time_nodes[0] > 1e-12 or u.time_nodes[-1] < T - 1e-12:
            raise ValueError("control nodes do not cover [0, T]")
        if u.nmax != nmax:
            raise ValueError("control truncation differs from state")

    basis = _state_basis(sys, nmax)
    traj = basis.action(f0.coeffs)(times)
    if u is not None:
        taus, wts = duhamel_panels(u.time_nodes, T, times)
        # src[k, q] is the mode-k control coefficient at taus[q]
        src = u.at(taus).transpose(1, 0, 2)
        for k, t in enumerate(times):
            sel = taus <= t + 1e-14
            traj[:, k] += basis.duhamel(src[:, sel], sys.M, t - taus[sel],
                                        wts[sel])
    if sample_times is None:
        # traj is (K, 1, d): its one column is a C-ordered (K, d) state
        return FourierState(nmax, traj[:, 0])
    return times, [FourierState(nmax, c)
                   for c in traj.transpose(1, 0, 2).copy()]


# project_branch's band masks and projector stacks, per branch table
_BAND_PROJECTORS = OwnerMemo()


def project_branch(state: FourierState, branches: BranchTable, n0: int,
                   which, nband=None):
    """Projection onto the parabolic ("p") or hyperbolic ("h") part of a
    BranchTable, optionally restricted to n0 < |n| <= nband.

    The band mask and its modes' projector stack depend on the table and
    (which, n0, nmax, nband), not on the state: they are kept, read-only,
    in an OwnerMemo that dies with the table.  A table missing band modes
    raises KeyError and keeps nothing, so every call raises."""
    nmax = state.nmax

    def gather():
        n = np.abs(np.arange(-nmax, nmax + 1))
        band = (n > n0) & (n <= (nmax if nband is None else nband))
        P = (branches.Pp if which == "p" else branches.Ph)[
            branches.rows(np.flatnonzero(band) - nmax)]
        return _read_only(band), _read_only(P)

    band, P = _BAND_PROJECTORS.get(branches, (which, n0, nmax, nband),
                                   gather)
    out = FourierState.zeros(nmax, state.d)
    out.coeffs[band] = np.einsum("kab,kb->ka", P, state.coeffs[band])
    return out


def project_low(state: FourierState, n0: int):
    out = FourierState.zeros(state.nmax, state.d)
    k = min(n0, state.nmax)
    low = slice(state.nmax - k, state.nmax + k + 1)
    out.coeffs[low] = state.coeffs[low]
    return out


def windowed_l2_norm(times, coeffs, modes, nmax, window,
                     omega: TorusSubset) -> float:
    """L2 norm over (time window) x omega of a state truncated at |n| <=
    nmax, given as the (L, Q, d) stack coeffs[a, q] of its coefficients on
    the increasing modes[a] at times[q] (zero on the modes not listed).
    The times in the window go straight into one (ngrid, Q d) spectrum,
    synthesized in place on the grid of ngrid = max(4*nmax, 64) points;
    then the moduli squared in place, a rectangle rule over omega and the
    composite trapezoid in time."""
    times = np.asarray(times, dtype=float)
    sel = (times >= window[0] - 1e-14) & (times <= window[1] + 1e-14)
    if np.count_nonzero(sel) < 2:
        raise ValueError("trajectory too sparse over the window")
    kept = coeffs if sel.all() else coeffs[:, sel]
    ngrid = max(4 * nmax, 64)
    dens = np.abs(_synth_uniform(kept.reshape(len(kept), -1), modes, ngrid))
    dens **= 2
    dens = np.sum(dens.reshape(ngrid, kept.shape[1], -1), axis=2)
    ind = omega.indicator(TWO_PI * np.arange(ngrid) / ngrid)
    vals = ind @ dens * TWO_PI / ngrid
    return float(np.sqrt(np.trapezoid(vals, times[sel])))
