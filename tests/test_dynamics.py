import ast
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusctrl.algebra import TWO_PI
from torusctrl import dynamics
from torusctrl.harness import load_scenario
from torusctrl.spectral import (build_branch_table, projection_split,
                                separation_radius)
from torusctrl.dynamics import (ControlSignal, ModeBasis,
                                gauss_legendre, synth_grid,
                                analyze_grid, mode_generator,
                                evolve,
                                project_branch, project_low,
                                windowed_l2_norm)
from conftest import (nscl_system, moving_wave_system, damped_wave_system,
                      decoupled_heat_system, two_speed_system, random_state)

import mpmath
import scipy.linalg


def _flat_state(rng, nmax, d):
    """Standard complex normal coefficients on every mode |n| <= nmax."""
    shape = (2 * nmax + 1, d)
    return dynamics.FourierState(nmax, rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape))


@given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_synth_analyze_roundtrip(nmax, d, seed):
    rng = np.random.default_rng(seed)
    st_ = _flat_state(rng, nmax, d)
    xs, vals = synth_grid(st_)
    back = analyze_grid(vals, xs, nmax)
    assert back == pytest.approx(st_.coeffs, abs=1e-10)


def test_norm_is_grid_l2():
    rng = np.random.default_rng(0)
    st_ = random_state(rng, 16, 2)
    xs, vals = synth_grid(st_, ngrid=512)
    grid = np.sqrt(np.sum(np.abs(vals) ** 2) * TWO_PI / 512)
    assert st_.norm() == pytest.approx(grid, rel=1e-12)


@pytest.mark.parametrize("nmax", [1, 5, 16])
@pytest.mark.parametrize("factor", [2, 4])
def test_fft_synthesis_matches_arbitrary_point_synthesis(nmax, factor):
    # at ngrid = 2 nmax the modes -nmax and nmax share a bin: both
    # coefficients must add into it
    from torusctrl import kernels
    rng = np.random.default_rng(nmax)
    st_ = _flat_state(rng, nmax, 3)
    assert np.all(st_.get(nmax) != 0) and np.all(st_.get(-nmax) != 0)
    xs, got = synth_grid(st_, ngrid=factor * nmax)
    want = kernels.synthesize(st_.coeffs, st_.modes, xs)
    scale = np.abs(st_.coeffs).sum()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("nmax", [1, 5, 16])
@pytest.mark.parametrize("grid", ["shared", "odd", "4x", "window"])
def test_synth_uniform_bins_as_add_at(monkeypatch, nmax, grid):
    """_synth_uniform bins consecutive modes bit for bit as np.add.at
    does, on a batch of columns with -0.0 parts: also at ngrid = 2 nmax,
    where the modes -nmax and nmax share a bin, and at windowed_l2_norm's
    max(4 nmax, 64)."""
    ngrid = {"shared": 2 * nmax, "odd": 2 * nmax + 1, "4x": 4 * nmax,
             "window": max(4 * nmax, 64)}[grid]
    rng = np.random.default_rng(nmax)
    shape = (2 * nmax + 1, 3, 2)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs.real[rng.random(shape) < 0.3] = -0.0
    coeffs.imag[rng.random(shape) < 0.3] = -0.0
    coeffs[0, 0, 0] = coeffs[-1, 0, 0] = complex(-0.0, -0.0)
    modes = np.arange(-nmax, nmax + 1)
    spec = np.zeros((ngrid,) + shape[1:], dtype=complex)
    np.add.at(spec, modes % ngrid, coeffs)
    want = ngrid * np.fft.ifft(spec, axis=0)
    assert (dynamics._synth_uniform(coeffs, modes, ngrid).tobytes()
            == want.tobytes())
    # the binned spectrum itself, signed zeros and all, through an
    # identity in place of the inverse FFT
    monkeypatch.setattr(np.fft, "ifft", lambda a, axis: a)
    assert (dynamics._synth_uniform(coeffs, modes, ngrid).tobytes()
            == (ngrid * spec).tobytes())


def test_windowed_l2_norm_makes_no_arbitrary_point_synthesis(monkeypatch):
    from torusctrl import kernels
    from torusctrl.algebra import TorusSubset
    calls = []
    real = kernels.synthesize

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "synthesize", spy)
    rng = np.random.default_rng(6)
    ts = np.linspace(0.0, 1.0, 5)
    states = [random_state(rng, 20, 2) for _ in ts]
    got = windowed_l2_norm(ts, states, (0.0, 1.0),
                           TorusSubset(((0.5, 2.0),)))
    assert calls == [] and got > 0


def test_mode_generator_matches_symbol():
    sys = nscl_system()
    for n in (1, -3, 7):
        G = mode_generator(sys, n)
        E = sys.B + (1j / n) * sys.A - (1j / n) ** 2 * sys.K
        assert G == pytest.approx(n ** 2 * E)
    assert mode_generator(sys, 0) == pytest.approx(sys.K)


def test_mode_basis_defective_generator_uses_expm():
    # the moving-wave generator at |n| = 1, b = 1 is a Jordan block:
    # eigendecomposition would lose half the digits there
    sys = moving_wave_system(c=1.0, b=1.0)
    for n in (1, -1):
        G = mode_generator(sys, n)
        w, V = np.linalg.eig(G)
        assert np.linalg.cond(V) > dynamics.EIG_COND_MAX
        P = ModeBasis([G]).expm(0.7)[0, 0]
        assert P == pytest.approx(scipy.linalg.expm(-0.7 * G),
                                  abs=1e-12)


def _close(got, ref, rel=1e-12):
    return np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def _dense(gens, scales):
    return np.array([[scipy.linalg.expm(-s * G) for s in row]
                     for G, row in zip(gens, scales)])


def test_mode_basis_eig_path_matches_dense_expm():
    rng = np.random.default_rng(21)
    gens = (rng.standard_normal((6, 3, 3))
            + 1j * rng.standard_normal((6, 3, 3)))
    basis = ModeBasis(gens)
    assert basis.eig.all()
    scales = rng.uniform(0.0, 1.5, (6, 4))
    ref = _dense(gens, scales)
    assert _close(basis.expm(scales), ref)
    vecs = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    assert _close(basis.action(vecs)(scales),
                  np.einsum("kqij,kj->kqi", ref, vecs))


def test_mode_basis_jordan_modes_take_expm_path():
    # moving-wave |n| = 1 and nscl |n| = 2 are (near-)Jordan blocks
    mw, nscl = moving_wave_system(), nscl_system()
    gens = [mode_generator(mw, -1), mode_generator(mw, 1),
            mode_generator(nscl, -2), mode_generator(nscl, 2),
            mode_generator(nscl, 3)]
    basis = ModeBasis(gens)
    assert basis.eig.tolist() == [False, False, False, False, True]
    scales = np.array([0.0, 0.3, 1.7])
    ref = _dense(gens, np.broadcast_to(scales, (5, 3)))
    assert _close(basis.expm(scales), ref)
    vecs = np.arange(10.0).reshape(5, 2) + 1j
    assert _close(basis.action(vecs)(scales),
                  np.einsum("kqij,kj->kqi", ref, vecs))


def _mixed_basis():
    """nscl's generators at |n| <= 5: modes +-2 take the expm path, the
    other nine the eig path."""
    sys = nscl_system()
    basis = ModeBasis(mode_generator(sys, np.arange(-5, 6)))
    assert np.flatnonzero(~basis.eig).tolist() == [3, 7]
    return sys, basis


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_small_matmul_matches_matmul(d):
    """The d-term broadcast sum against NumPy's matmul, normwise per
    matrix, over square and rectangular stacks, (K, Q) leading dimensions
    that broadcast against each other, and empty stacks."""
    rng = np.random.default_rng(40 + d)

    def rand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for a, b in [(rand(5, 7, d, d), rand(5, 7, d, d)),
                 (rand(5, 1, 3, d), rand(5, 7, d, 1)),
                 (rand(7, d, d), rand(d, 2)),
                 (rand(0, d, d), rand(0, d, d)),
                 (rand(2, 0, d, d), rand(2, 0, d, d))]:
        got, ref = dynamics._small_matmul(a, b), a @ b
        assert got.shape == ref.shape
        if ref.size:
            assert _rel_errors(got, ref).max() <= 1e-15


def test_mode_basis_batches_bit_for_bit():
    """A (K, Q) call to expm or action gives exactly the columns of Q
    single-scale calls, on both paths: the joint solve slices its block
    observations from one stack over all blocks' nodes, and emission
    reads them there or observes anew, so both rely on it."""
    sys, basis = _mixed_basis()
    rng = np.random.default_rng(44)
    scales = rng.uniform(0.0, 2.0, (11, 6))
    obs = rng.standard_normal((11, 3, 2)) + 1j * rng.standard_normal(
        (11, 3, 2))
    vecs = rng.standard_normal((11, 2)) + 1j * rng.standard_normal((11, 2))
    calls = [basis.expm, lambda s: basis.expm(s, obs), basis.action(vecs)]
    for call in calls:
        whole = call(scales)
        for q in range(scales.shape[1]):
            assert np.array_equal(whole[:, q], call(scales[:, q:q + 1])[:, 0])


def test_mode_basis_real_spectrum_decays_in_reals():
    """Decoupled heat's generators have eigenvalues with exactly zero
    imaginary parts: their exponentials are taken in reals, within an
    ulp of the complex ones, and the semigroup still matches the dense
    expm.  A complex spectrum keeps complex exponentials."""
    basis = ModeBasis(mode_generator(decoupled_heat_system(),
                                     np.arange(-6, 7)))
    assert basis.eig.all() and basis._negw.dtype == float
    scales = np.linspace(0.0, 2.0, 9)
    s = basis._scales(scales)
    real = basis._decay(s)
    cplx = np.exp(s[:, :, None] * (basis._negw + 0j)[:, None, :])
    assert real.dtype == float
    assert np.all(np.abs(real - cplx) <= np.spacing(np.abs(cplx)))
    assert _close(basis.expm(scales),
                  _dense(basis.gens, np.broadcast_to(scales, (13, 9))),
                  rel=1e-14)
    _, mixed = _mixed_basis()
    assert np.iscomplexobj(mixed._decay(mixed._scales(scales)))


def test_mode_basis_observed_forms_match_products():
    """The obs argument of expm against obs @ expm(...), on both paths,
    to 1e-14."""
    sys, basis = _mixed_basis()
    rng = np.random.default_rng(45)
    scales = rng.uniform(0.0, 2.0, (11, 5))
    obs = rng.standard_normal((11, 3, 2)) + 1j * rng.standard_normal(
        (11, 3, 2))
    ref = obs[:, None] @ basis.expm(scales)
    assert _close(basis.expm(scales, obs), ref, rel=1e-14)
    # the M* observation of the hyperbolic dual block, a broadcast view
    Mh = np.broadcast_to(sys.M.conj().T, (11, sys.m, sys.d))
    assert _close(basis.expm(scales, Mh), Mh[:, None] @ basis.expm(scales),
                  rel=1e-14)


@pytest.mark.parametrize("m", [1, 2])
def test_mode_basis_duhamel_matches_dense_reference(m):
    """duhamel's weighted sum against sum_q w_q e^{-s_q G_k} lift src[k, q]
    built from expm and from scipy's expm, on both paths, for a lift
    with m < d (M = (1; 0)) and one with m = d, with shared (Q,) and
    per-mode (K, Q) scales, to 1e-12."""
    _, basis = _mixed_basis()
    rng = np.random.default_rng(46 + m)
    lift = (np.array([[1.0], [0.0]]) if m == 1
            else rng.standard_normal((2, 2)) + 1j * rng.standard_normal(
                (2, 2)))
    srcs = rng.standard_normal((11, 7, m)) + 1j * rng.standard_normal(
        (11, 7, m))
    wts = rng.uniform(0.0, 0.3, 7)
    for scales in (rng.uniform(0.0, 1.5, 7), rng.uniform(0.0, 1.5, (11, 7))):
        full = np.broadcast_to(scales, (11, 7))
        lifted = srcs @ lift.T
        ref = np.einsum("q,kqij,kqj->ki", wts, basis.expm(full), lifted)
        dense = np.einsum("q,kqij,kqj->ki", wts, _dense(basis.gens, full),
                          lifted)
        got = basis.duhamel(srcs, lift, scales, wts)
        assert _close(got, ref) and _close(got, dense)


def test_mode_basis_duhamel_batches_source_columns():
    """Trailing batch axes of the sources are columns summed alone, and
    sources of leading size 1 are shared by every mode: both against one
    per-mode call per column, the shared sources broadcast to every
    mode, on both paths, to 1e-14."""
    _, basis = _mixed_basis()
    rng = np.random.default_rng(48)
    lift = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    scales, wts = rng.uniform(0.0, 1.5, 7), rng.uniform(0.0, 0.3, 7)
    for lead in (1, 11):
        srcs = (rng.standard_normal((lead, 7, 2, 3, 2))
                + 1j * rng.standard_normal((lead, 7, 2, 3, 2)))
        got = basis.duhamel(srcs, lift, scales, wts)
        assert got.shape == (11, 2, 3, 2)
        for col in np.ndindex(3, 2):
            per_mode = np.broadcast_to(srcs[(...,) + col], (11, 7, 2))
            ref = basis.duhamel(per_mode, lift, scales, wts)
            assert _close(got[(...,) + col], ref, rel=1e-14)


def test_state_basis_is_built_once_per_system(monkeypatch):
    """Evolutions of one system at one truncation share one ModeBasis; a
    system that differs only in D gets its own, and evolves as a freshly
    built basis of its generators does."""
    built = []

    class Counting(ModeBasis):
        def __init__(self, gens):
            built.append(len(gens))
            super().__init__(gens)

    monkeypatch.setattr(dynamics, "ModeBasis", Counting)
    sys = nscl_system()
    rng = np.random.default_rng(47)
    f0 = random_state(rng, 6, 2)
    first = evolve(sys, f0, None, 0.7)
    assert np.array_equal(evolve(sys, f0, None, 0.7).coeffs, first.coeffs)
    assert built == [13]
    other = nscl_system(mu=3.0)
    assert np.array_equal(other.A, sys.A) and not np.array_equal(other.D,
                                                                 sys.D)
    got = evolve(other, f0, None, 0.7)
    assert built == [13, 13]
    fresh = ModeBasis(mode_generator(other, f0.modes)).action(f0.coeffs)(0.7)
    assert np.array_equal(got.coeffs, fresh[:, 0])
    assert not np.allclose(got.coeffs, first.coeffs)


def _kept_propagators(basis):
    """The expm-path propagators a basis keeps, in memo order."""
    return list(dynamics._PROPAGATORS._owners.get(basis, {}).values())


@pytest.mark.parametrize("system, slow", [(nscl_system, [-2, 2]),
                                          (moving_wave_system, [-1, 1])],
                         ids=["nscl", "moving-wave"])
def test_kept_propagators_give_the_bits_of_a_cold_basis(monkeypatch, system,
                                                        slow):
    """evolve at a repeated horizon reads the propagators its basis kept,
    with no Pade call, free and with a control, and gives the bits of the
    same evolution on a fresh system object (a cold basis).  Another
    horizon of the same shape builds its own, also bit for bit."""
    nmax = 6
    sys = system()
    assert np.arange(-nmax, nmax + 1)[
        ~dynamics._state_basis(sys, nmax).eig].tolist() == slow
    rng = np.random.default_rng(53)
    f0 = random_state(rng, nmax, sys.d)
    nodes = np.linspace(0.0, 0.9, 5)
    vals = (rng.standard_normal((5, 2 * nmax + 1, sys.m))
            + 1j * rng.standard_normal((5, 2 * nmax + 1, sys.m)))
    u = ControlSignal(time_nodes=nodes, nmax=nmax, values=vals)
    runs = [(None, 0.9, None), (u, 0.9, None), (None, 0.9, [0.3, 0.9]),
            (u, 0.9, [0.3, 0.9]), (None, 0.7, None), (u, 0.9, [0.4, 0.9])]

    def coeffs(system_obj, ctl, T, times):
        out = evolve(system_obj, f0, ctl, T, sample_times=times)
        return [out.coeffs] if times is None else [s.coeffs for s in out[1]]

    pade, calls = dynamics._expm_pade13, []
    monkeypatch.setattr(dynamics, "_expm_pade13",
                        lambda A: calls.append(A.shape) or pade(A))
    for ctl, T, times in runs:
        first = coeffs(sys, ctl, T, times)
        built = len(calls)
        again = coeffs(sys, ctl, T, times)
        assert len(calls) == built, (ctl is None, T, times)
        cold = coeffs(system(), ctl, T, times)
        for a, b, c in zip(first, again, cold):
            assert np.array_equal(a, b) and np.array_equal(a, c)
    assert all(shape[0] == len(slow) for shape in calls)


def test_kept_propagators_are_read_only():
    sys = moving_wave_system()
    rng = np.random.default_rng(59)
    f0 = random_state(rng, 4, sys.d)
    u = ControlSignal(time_nodes=np.linspace(0.0, 0.5, 3), nmax=4,
                      values=np.ones((3, 9, sys.m), dtype=complex))
    evolve(sys, f0, u, 0.5, sample_times=[0.2, 0.5])
    kept = _kept_propagators(dynamics._state_basis(sys, 4))
    assert len(kept) >= 3
    for P in kept:
        with pytest.raises(ValueError, match="read-only"):
            P[0] = 0.0


def test_kept_propagators_die_with_their_basis():
    import gc
    import weakref

    basis = ModeBasis(mode_generator(moving_wave_system(), [-1, 0, 1]))
    basis.expm(np.array([0.2, 0.5]))
    basis.action(np.ones((3, 2)))(0.3)
    kept = [weakref.ref(P) for P in _kept_propagators(basis)]
    assert len(kept) == 2
    kept.append(weakref.ref(dynamics._PROPAGATORS._owners[basis]))
    alive = weakref.ref(basis)
    del basis
    gc.collect()
    assert alive() is None
    assert all(ref() is None for ref in kept)


def test_gauss_legendre_panels_exact_on_polynomials():
    edges = np.array([0.0, 0.1, 0.5, 2.0])
    taus, wts = gauss_legendre(edges, order=4)
    assert taus.shape == wts.shape == (12,)
    assert np.all(np.diff(taus) > 0)
    # order 4 integrates degree 7 exactly on every panel
    assert np.sum(wts * taus ** 7) == pytest.approx(2.0 ** 8 / 8, rel=1e-14)


def test_evolve_free_semigroup_property():
    sys = nscl_system()
    rng = np.random.default_rng(3)
    f0 = random_state(rng, 10, 2)
    one = evolve(sys, f0, None, 0.9)
    two = evolve(sys, evolve(sys, f0, None, 0.4), None, 0.5)
    assert one.coeffs == pytest.approx(two.coeffs, abs=1e-12)


def test_evolve_against_rk4_oracle():
    sys = moving_wave_system()
    rng = np.random.default_rng(7)
    nmax = 8
    f0 = random_state(rng, nmax, 2)
    nodes = np.linspace(0.0, 0.5, 33)
    vals = rng.standard_normal((33, 2 * nmax + 1, 1)) \
        + 1j * rng.standard_normal((33, 2 * nmax + 1, 1))
    u = ControlSignal(time_nodes=nodes, nmax=nmax, values=vals,
                      t_window=(0.0, 0.5))
    times, traj = evolve(sys, f0, u, 0.5, sample_times=[0.25, 0.5])

    # every mode's generator, stacked once; one u.at per RK4 stage
    gens = mode_generator(sys, np.arange(-nmax, nmax + 1))

    def rhs(t, c):
        return -np.einsum("kab,kb->ka", gens, c) + u.at(t) @ sys.M.T

    c = f0.coeffs.copy()
    # step count divisible by the node count so no RK4 step straddles a
    # kink of the piecewise-linear control
    nsteps = 2048
    dt = 0.5 / nsteps
    for k in range(nsteps):
        if k == nsteps // 2:
            c_mid = c
        t = k * dt
        k1 = rhs(t, c)
        k2 = rhs(t + dt / 2, c + dt / 2 * k1)
        k3 = rhs(t + dt / 2, c + dt / 2 * k2)
        k4 = rhs(t + dt, c + dt * k3)
        c = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    for st_, ref in zip(traj, (c_mid, c)):
        assert np.linalg.norm(st_.coeffs - ref) / np.linalg.norm(ref) < 1e-7


@pytest.mark.parametrize("t", [0.25, 0.3])
def test_evolve_sample_time_inside_a_control_panel(t):
    # nodes 0, 0.125, ..., 0.5: t = 0.3 falls inside a panel, 0.25 on an
    # edge; either sample is the evolution stopped at t
    sys = nscl_system()
    rng = np.random.default_rng(0)
    nmax = 6
    f0 = random_state(rng, nmax, 2)
    vals = rng.standard_normal((5, 2 * nmax + 1, 2)) \
        + 1j * rng.standard_normal((5, 2 * nmax + 1, 2))
    u = ControlSignal(time_nodes=np.linspace(0.0, 0.5, 5), nmax=nmax,
                      values=vals, t_window=(0.0, 0.5))
    _, (sampled,) = evolve(sys, f0, u, 0.5, sample_times=[t])
    ref = evolve(sys, f0, u, t)
    assert (np.linalg.norm(sampled.coeffs - ref.coeffs)
            < 1e-13 * np.linalg.norm(ref.coeffs))


def test_evolve_refuses_sample_times_outside_horizon():
    sys = load_scenario("heat-memory").sys
    rng = np.random.default_rng(5)
    f0 = random_state(rng, 6, sys.d)
    # backward in time the heat component blows up instead of failing
    with pytest.raises(ValueError, match=r"\[0, T"):
        evolve(sys, f0, None, 1.0, sample_times=[-1.0, 0.0, 1.0])
    # after T the Duhamel nodes stop at T and would drop the source
    nodes = np.linspace(0.0, 2.0, 9)
    u = ControlSignal(time_nodes=nodes, nmax=6,
                      values=np.ones((9, 13, sys.m), dtype=complex))
    with pytest.raises(ValueError, match=r"\[0, T"):
        evolve(sys, f0, u, 1.0, sample_times=[0.5, 1.5])
    # both ends of the horizon are legal
    _, states = evolve(sys, f0, u, 1.0, sample_times=[0.0, 1.0])
    assert _close(states[0].coeffs, f0.coeffs)
    assert _close(states[1].coeffs, evolve(sys, f0, u, 1.0).coeffs)


def _rel_errors(got, ref):
    """Normwise (Frobenius) relative error of each matrix of a stack."""
    return (np.linalg.norm(got - ref, axis=(-2, -1))
            / np.linalg.norm(ref, axis=(-2, -1)))


def _scipy_expm(stack):
    return np.array([scipy.linalg.expm(a) for a in stack.reshape(
        (-1,) + stack.shape[-2:])]).reshape(stack.shape)


def _jordan_stack():
    """e^{-s G} arguments of the generators that take ModeBasis's expm
    path: moving-wave |n| = 1 and nscl |n| = 2, at scales 0..3."""
    mw, nscl = moving_wave_system(), nscl_system()
    gens = np.array([mode_generator(mw, -1), mode_generator(mw, 1),
                     mode_generator(nscl, -2), mode_generator(nscl, 2)])
    return -np.linspace(0.0, 3.0, 7)[None, :, None, None] * gens[:, None]


def _dissipative_stack(systems):
    """-s n^2 E(i/n) for n in (1, 3, 10, 40, 120, 224) at three scales
    each, rescaled so that the largest 1-norm is 1e5: (K, 3, 2, 2)."""
    ns = np.array([1, 3, 10, 40, 120, 224])
    gens = np.concatenate([mode_generator(s_, ns) for s_ in systems])
    A = -np.array([0.01, 0.3, 2.0])[None, :, None, None] * gens[:, None]
    return A * (1e5 / np.abs(A).sum(axis=-2).max())


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_expm_pade13_random_stacks_match_scipy(d):
    rng = np.random.default_rng(30 + d)
    A = (rng.standard_normal((12, 3, d, d))
         + 1j * rng.standard_normal((12, 3, d, d)))
    # 1-norms from 1e-3 to 30: no squaring up to THETA13, up to three above
    A *= np.geomspace(1e-3, 30.0, 12)[:, None, None, None] / np.abs(
        A).sum(axis=-2).max(axis=-1)[..., None, None]
    got = dynamics._expm_pade13(A)
    assert got.shape == A.shape
    assert _rel_errors(got, _scipy_expm(A)).max() <= 1e-12


def test_expm_pade13_jordan_generators_match_scipy():
    A = _jordan_stack()
    assert _rel_errors(dynamics._expm_pade13(A),
                       _scipy_expm(A)).max() <= 1e-12


def test_expm_pade13_large_dissipative_norms():
    """n^2-scaled generators up to 1-norm 1e5, fifteen squarings: against
    scipy to 1e-12 on nscl, moving-wave and heat.  Damped-wave is left to
    the mpmath test: scipy's own error there is 1.8e-12."""
    A = _dissipative_stack([nscl_system(), moving_wave_system(),
                            decoupled_heat_system()])
    assert np.abs(A).sum(axis=-2).max() == pytest.approx(1e5)
    got = dynamics._expm_pade13(A)
    assert _rel_errors(got, _scipy_expm(A)).max() <= 1e-12
    # each matrix is scaled and squared on its own: stacking does not
    # change a single bit of its exponential
    single = np.array([dynamics._expm_pade13(a[None])[0]
                       for a in A.reshape(-1, 2, 2)])
    assert np.array_equal(got.reshape(-1, 2, 2), single)


def test_expm_pade13_zero_and_empty():
    assert np.array_equal(dynamics._expm_pade13(np.zeros((3, 4, 2, 2))),
                          np.broadcast_to(np.eye(2), (3, 4, 2, 2)))
    assert dynamics._expm_pade13(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    assert dynamics._expm_pade13(np.zeros((2, 0, 3, 3))).shape == (2, 0, 3, 3)
    # zero scales on the expm path give the identity exactly
    jordan = ModeBasis(_jordan_stack()[:, -1])
    assert not jordan.eig.any()
    assert np.array_equal(jordan.expm(np.zeros((4, 2))),
                          np.broadcast_to(np.eye(2), (4, 2, 2, 2)))
    # an all-eig basis has an empty expm-path set
    rng = np.random.default_rng(8)
    eig = ModeBasis(rng.standard_normal((3, 2, 2)))
    assert eig.eig.all()
    assert _close(eig.expm([0.0, 0.5]), _dense(eig.gens, np.broadcast_to(
        [0.0, 0.5], (3, 2))))


def _mp_expm(a):
    """e^a to 40 significant digits, rounded to complex128."""
    with mpmath.workdps(40):
        E = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array([[complex(E[i, j]) for j in range(a.shape[1])]
                         for i in range(a.shape[0])])


def test_expm_pade13_against_mpmath():
    """30 matrices against a 40-digit reference: the n^2-scaled stack at
    its largest scale (1-norms up to 1e5), the Jordan generators decayed
    to |e^{-30 G}| ~ 1e-24, and two random ones.  The error is at most
    twice scipy's, and below 1e-13 on the dissipative stack."""
    rng = np.random.default_rng(12)
    mats = list(_dissipative_stack([
        nscl_system(), moving_wave_system(), damped_wave_system(),
        decoupled_heat_system()])[:, -1])
    mats += list(10.0 * _jordan_stack()[:, -1])
    mats += [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
             for d in (3, 4)]
    assert len(mats) == 30
    exact = [_mp_expm(a) for a in mats]
    ours = [_rel_errors(dynamics._expm_pade13(a), e)
            for a, e in zip(mats, exact)]
    ref = [_rel_errors(scipy.linalg.expm(a), e) for a, e in zip(mats, exact)]
    assert max(ours) <= 2.0 * max(ref) + 1e-15
    assert max(ours[:24]) <= 1e-13


def _expm_references(path):
    """(qualified scope, line) of every reference to scipy.linalg.expm in
    the module at path: the attribute through any alias of scipy.linalg,
    or expm imported by name."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    linalg = {"scipy.linalg"}
    found = []

    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Import):
            linalg.update(a.asname for a in node.names
                          if a.name == "scipy.linalg" and a.asname)
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if node.module == "scipy" and a.name == "linalg":
                    linalg.add(a.asname or "linalg")
                elif node.module == "scipy.linalg" and a.name == "expm":
                    found.append((scope, node.lineno))
        elif (isinstance(node, ast.Attribute) and node.attr == "expm"
              and dotted(node.value) in linalg):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_no_scipy_expm_in_src():
    """ModeBasis, through _expm_pade13, is the package's one matrix
    exponential: any scipy.linalg.expm in src/torusctrl fails here."""
    src = os.path.dirname(dynamics.__file__)
    refs = {(name[:-3], scope)
            for name in sorted(os.listdir(src)) if name.endswith(".py")
            for scope, _ in _expm_references(os.path.join(src, name))}
    assert refs == set()


def test_adjoint_duality_free():
    sys = nscl_system()
    rng = np.random.default_rng(9)
    f0 = random_state(rng, 10, 2)
    g0 = random_state(rng, 10, 2)
    fT = evolve(sys, f0, None, 0.8)
    # the adjoint semigroup e^{-t G_n*}, as the witnesses run it
    gT = ModeBasis(mode_generator(sys, g0.modes, adjoint=True)).action(
        g0.coeffs)(0.8)[:, 0]
    lhs = np.vdot(g0.coeffs, fT.coeffs)
    rhs = np.vdot(gT, f0.coeffs)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_decompose_partition(nscl_branches24):
    """The low, parabolic and hyperbolic projections split a state:
    they sum back to it, and the branch projections are idempotent."""
    sys, consts, branches = nscl_branches24
    rng = np.random.default_rng(1)
    st_ = random_state(rng, 24, 2)
    low = project_low(st_, consts.n0)
    par = project_branch(st_, branches, consts.n0, "p")
    hyp = project_branch(st_, branches, consts.n0, "h")
    assert (low.coeffs + par.coeffs + hyp.coeffs) == \
        pytest.approx(st_.coeffs, abs=1e-10)
    again = project_branch(par, branches, consts.n0, "p")
    assert again.coeffs == pytest.approx(par.coeffs, abs=1e-10)


def test_project_branch_matches_per_mode_loop():
    # a non-normal symbol: its projections are not complex symmetric
    sys = two_speed_system()
    consts = separation_radius(sys)
    branches = build_branch_table(sys, consts, 12)
    st_ = random_state(np.random.default_rng(21), 12, sys.d)
    for which, part in (("h", 0), ("p", 1)):
        for nband in (None, 9):
            got = project_branch(st_, branches, consts.n0, which, nband)
            ref = np.zeros_like(st_.coeffs)
            for n in range(-(nband or 12), (nband or 12) + 1):
                if abs(n) > consts.n0:
                    P = projection_split(sys, 1j / n, consts.R)[part]
                    ref[n + 12] = P @ st_.get(n)
            np.testing.assert_allclose(got.coeffs, ref, rtol=0, atol=1e-13)


def test_windowed_l2_norm_full_torus_matches_parseval():
    sys = decoupled_heat_system()
    rng = np.random.default_rng(2)
    st_ = random_state(rng, 8, 2)
    from torusctrl.algebra import TorusSubset
    full = TorusSubset(((0.0, TWO_PI),))
    ts = np.linspace(0.0, 1.0, 9)
    states = [st_] * 9
    got = windowed_l2_norm(ts, states, (0.0, 1.0), full)
    assert got == pytest.approx(st_.norm(), rel=1e-10)


def test_windowed_l2_norm_subset_matches_per_state_loop():
    from torusctrl import kernels
    from torusctrl.algebra import TorusSubset
    rng = np.random.default_rng(4)
    omega = TorusSubset(((0.3, 1.1), (2.0, 4.5)))
    ts = np.linspace(0.0, 2.0, 11)
    states = [random_state(rng, 6, 2) for _ in ts]
    window = (0.4, 1.6)
    got = windowed_l2_norm(ts, states, window, omega)
    # reference: one synthesis per state kept by the window
    xs = TWO_PI * np.arange(64) / 64
    ind = omega.indicator(xs)
    keep = (ts >= window[0]) & (ts <= window[1])
    vals = [np.sum(ind * np.sum(np.abs(kernels.synthesize(
        s.coeffs, s.modes, xs)) ** 2, axis=1)) * TWO_PI / 64
        for s, k in zip(states, keep) if k]
    want = np.sqrt(np.trapezoid(vals, ts[keep]))
    assert keep.sum() == 7
    assert got == pytest.approx(want, rel=1e-13)


def test_control_signal_interpolation():
    nodes = np.array([0.0, 1.0])
    vals = np.zeros((2, 3, 1), dtype=complex)
    vals[1, :, 0] = 2.0
    u = ControlSignal(time_nodes=nodes, nmax=1, values=vals,
                      t_window=(0.0, 1.0))
    assert u.at(0.5) == pytest.approx(np.full((3, 1), 1.0 + 0j))
    assert u.at(-5.0) == pytest.approx(vals[0])
    assert u.at(7.0) == pytest.approx(vals[1])


def test_lazy_signal_holds_no_samples():
    calls = []

    def func(t):
        calls.append(t)
        return np.full((3, 2), t, dtype=complex)

    nodes = np.linspace(0.0, 1.0, 5)
    u = ControlSignal.from_func(func, nodes, 1, 2, t_window=(0.0, 1.0))
    assert u.values.shape == (0, 3, 2) and u.m == 2 and not calls
    assert np.array_equal(u.at(0.3), func(0.3))
    # a func signal with samples, or an interpolated one without a row
    # per node, is malformed
    with pytest.raises(ValueError, match="shape"):
        ControlSignal(time_nodes=nodes, nmax=1,
                      values=np.zeros((5, 3, 2)), func=func)
    with pytest.raises(ValueError, match="shape"):
        ControlSignal(time_nodes=nodes, nmax=1, values=np.zeros((4, 3, 2)))


def test_mode_generator_stack_matches_per_mode_loop():
    """The stacked generators against n^2 E(i/n) and K written out mode
    by mode; an int still gives one matrix."""
    modes = np.arange(-9, 10)
    for sys in (nscl_system(), moving_wave_system(), damped_wave_system()):
        for adjoint in (False, True):
            stack = mode_generator(sys, modes, adjoint=adjoint)
            assert stack.shape == (len(modes), 2, 2)
            for n, G in zip(modes, stack):
                z = 1j / n if n else 0.0
                ref = (n * n * (sys.B + z * sys.A - z * z * sys.K) if n
                       else sys.K.astype(complex))
                if adjoint:
                    ref = ref.conj().T
                assert np.max(np.abs(G - ref)) <= 1e-15 * np.max(np.abs(ref))
                assert np.array_equal(
                    mode_generator(sys, int(n), adjoint=adjoint), G)


def test_interpolated_signal_batched_matches_scalar():
    rng = np.random.default_rng(21)
    nodes = np.array([0.0, 0.1, 0.35, 0.4, 1.0])
    vals = (rng.standard_normal((5, 7, 2))
            + 1j * rng.standard_normal((5, 7, 2)))
    u = ControlSignal(time_nodes=nodes, nmax=3, values=vals)
    ts = np.concatenate(([-1.0, -1e-15], nodes, [0.05, 0.2, 0.399, 0.7],
                         [1.0 + 1e-15, 3.0]))
    batched = u.at(ts)
    assert batched.shape == (len(ts), 7, 2)
    for t, row in zip(ts, batched):
        ref = u.at(t)
        assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref)), t
    # clamped before the first node and after the last, exact on nodes
    assert np.array_equal(batched[:2], vals[[0, 0]])
    assert np.array_equal(batched[2:7], vals)
    assert np.array_equal(batched[-2:], vals[[-1, -1]])
    # one node spans no panel to interpolate over
    with pytest.raises(ValueError, match="at least two time nodes"):
        ControlSignal(time_nodes=[0.0], nmax=3, values=vals[:1])
