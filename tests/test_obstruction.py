import warnings

import numpy as np
import pytest
import scipy.linalg

from torusctrl.algebra import (SystemMatrices, TorusSubset, TWO_PI,
                              minimal_time)
from torusctrl import spectral, obstruction
from torusctrl.obstruction import (highpass_profile, gaussian_profile,
                                   build_witness, observability_ratio,
                                   witness_nmax, pure_transport_space)
from torusctrl.dynamics import FourierState, synth_grid
from conftest import (nscl_system, damped_wave_system, moving_wave_system,
                      decoupled_heat_system, two_speed_system, HALF_TORUS)


def test_highpass_zeroes_low_modes():
    chi = gaussian_profile(12, np.pi, 0.5)
    out = highpass_profile(chi, 4, normalize=True)
    for n in range(-4, 5):
        assert out.get(n) == pytest.approx(np.zeros(1))
    assert out.norm() == pytest.approx(1.0)


def test_highpass_matches_direct_product():
    chi = gaussian_profile(6, 1.0, 1.0)
    out = highpass_profile(chi, 2)
    for n in (3, -5, 6):
        poly = np.prod([float(n - j) for j in range(-2, 3)])
        assert out.get(n)[0] == pytest.approx(poly * chi.get(n)[0],
                                              rel=1e-12)


def _highpass_loop(chi, N, log_abs, phase):
    """Per-mode reference: log |P_N(n)| and its sign one mode at a time,
    then the normalized output."""
    logs = np.full(len(chi.modes), -np.inf)
    signs = np.ones(len(chi.modes))
    for i, n in enumerate(chi.modes):
        diffs = n - np.arange(-N, N + 1)
        if np.any(diffs == 0) or not np.isfinite(log_abs[i]):
            continue
        logs[i] = np.sum(np.log(np.abs(diffs).astype(float))) + log_abs[i]
        signs[i] = -1.0 if np.sum(diffs < 0) % 2 else 1.0
    shift = np.max(logs[np.isfinite(logs)])
    ref = FourierState.zeros(chi.nmax, 1)
    for i in np.flatnonzero(np.isfinite(logs)):
        ref.coeffs[i, 0] = phase[i] * signs[i] * np.exp(logs[i] - shift)
    return ref * (1.0 / ref.norm())


@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_highpass_matches_per_mode_loop(N):
    # the witness's path: analytic log magnitudes, one zero coefficient
    nmax = witness_nmax(N)
    chi = gaussian_profile(nmax, 1.0, 0.3)
    ns = chi.modes.astype(float)
    log_abs = np.log(0.3 / (2.0 * np.sqrt(np.pi))) - 0.0225 * ns ** 2
    log_abs[-1] = -np.inf
    phase = np.exp(-1j * ns)
    out = highpass_profile(chi, N, normalize=True, log_abs=log_abs,
                           phase=phase)
    assert np.array_equal(out.coeffs,
                          _highpass_loop(chi, N, log_abs, phase).coeffs)


def test_highpass_float_path_subnormal_coefficients():
    # at N = 64 the stored Gaussian coefficients reach the subnormal
    # range: no warning, no NaN, and the analytic path's output wherever
    # the stored coefficients are normal
    nmax = witness_nmax(64)
    chi = gaussian_profile(nmax, 1.0, 0.3)
    mags = np.abs(chi.coeffs[:, 0])
    assert np.any((mags > 0) & (mags < np.finfo(float).tiny))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = highpass_profile(chi, 64, normalize=True)
    assert np.all(np.isfinite(out.coeffs))
    assert out.norm() == pytest.approx(1.0, rel=1e-13)
    ns = chi.modes.astype(float)
    ref = highpass_profile(
        chi, 64, normalize=True,
        log_abs=np.log(0.3 / (2.0 * np.sqrt(np.pi))) - 0.0225 * ns ** 2,
        phase=np.exp(-1j * ns))
    normal = mags >= np.finfo(float).tiny
    assert np.max(np.abs(out.coeffs[normal] - ref.coeffs[normal])) <= 1e-12


def test_highpass_overflow_raises_without_normalize():
    chi = gaussian_profile(300, np.pi, 0.05)
    with pytest.raises(OverflowError):
        highpass_profile(chi, 128)


def test_gaussian_profile_matches_periodized_gaussian():
    # a_n = (sigma / (2 sqrt(pi))) e^{-sigma^2 n^2/4} e^{-inc} are the
    # Fourier coefficients of sum_k e^{-((x - c + 2 pi k)/sigma)^2}
    chi = gaussian_profile(16, 2.0, 0.8)
    xs, vals = synth_grid(chi, ngrid=256)
    direct = np.zeros(256)
    for k in range(-4, 5):
        direct += np.exp(-((xs - 2.0 + TWO_PI * k) / 0.8) ** 2)
    assert vals[:, 0] == pytest.approx(direct, abs=1e-10)


def test_build_witness_rejects_large_T():
    sys = nscl_system()
    consts = spectral.separation_radius(sys)
    branches = spectral.build_branch_table(sys, consts, 30)
    with pytest.raises(ValueError):
        build_witness(sys, branches, HALF_TORUS, T=10.0, N=8,
                      consts=consts)


def test_build_witness_rejects_zero_speed():
    sys = damped_wave_system(1.0)
    consts = spectral.separation_radius(sys)
    branches = spectral.build_branch_table(sys, consts, 30)
    with pytest.raises(ValueError):
        build_witness(sys, branches, HALF_TORUS, T=1.0, N=8,
                      consts=consts)


def test_build_witness_rejects_speed_below_minimal_time_tolerance():
    """A speed that minimal_time counts as zero (T* infinite) leaves no
    witness either."""
    sys = SystemMatrices(1, 1, A=np.array([[1e-10, 1.0], [1.0, 0.0]]),
                         D=np.array([[1.0]]), K=np.zeros((2, 2)),
                         M=np.eye(2))
    assert minimal_time(sys, HALF_TORUS) == np.inf
    consts = spectral.separation_radius(sys)
    branches = spectral.build_branch_table(sys, consts, 30)
    with pytest.raises(ValueError, match="speeds vanish"):
        build_witness(sys, branches, HALF_TORUS, T=1.0, N=8,
                      consts=consts)


def test_observability_ratio_decays(nscl_branches24):
    sys, consts, _ = nscl_branches24
    T = 0.5 * np.pi  # half the minimal time for omega = (0, pi)
    ratios = []
    for N in (8, 16):
        wn = witness_nmax(N)
        branches = spectral.build_branch_table(sys, consts, wn)
        wit = build_witness(sys, branches, HALF_TORUS, T, N,
                            consts=consts)
        ratios.append(observability_ratio(wit, HALF_TORUS, T))
    assert ratios[1] < 0.5 * ratios[0]
    assert ratios[0] < 1e-2


@pytest.mark.parametrize("N", [8, 32])
def test_witness_coeffs_batched_and_match_dense_expm(N):
    """gN_coeffs and gNtilde_coeffs on an array of times against their
    float calls, and against a dense per-mode scipy.linalg.expm of
    Rhmu(i/n)* and Rhmu(0)*."""
    sys = nscl_system()
    consts = spectral.separation_radius(sys)
    T = 0.5 * np.pi
    branches = spectral.build_branch_table(sys, consts, witness_nmax(N))
    wit = build_witness(sys, branches, HALF_TORUS, T, N, consts=consts)
    s = int(np.argmin(np.abs(branches.speeds - wit.mu)))
    ts = np.linspace(0.0, T, 5)
    a = wit.chiN.coeffs[:, 0]
    for method, rate in ((wit.gN_coeffs, None),
                         (wit.gNtilde_coeffs, wit.Rhmu0)):
        batched = method(ts)
        assert len(batched) == len(ts)
        for t, st_ in zip(ts, batched):
            one = method(t)
            assert isinstance(one, FourierState)
            assert _close(st_.coeffs, one.coeffs, 1e-14)
            ref = np.zeros_like(one.coeffs)
            for i, n in enumerate(wit.chiN.modes):
                if a[i] == 0 or (rate is None and n == 0):
                    continue
                P, R = ((np.eye(sys.d), rate) if rate is not None
                        else (branches.Phmu[s, branches.rows(n)],
                              branches.Rhmu[s, branches.rows(n)]))
                ref[i] = (a[i] * np.exp(1j * wit.mu * n * t)
                          * scipy.linalg.expm(t * R.conj().T)
                          @ P.conj().T @ wit.phi0)
            assert _close(one.coeffs, ref, 1e-13), (method.__name__, t)


def _close(got, ref, rel):
    return np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def test_pure_transport_space_rank_dichotomy():
    nscl = pure_transport_space(nscl_system(), 1.0, 16)
    assert nscl["kalman_rank_AB"] == 2
    assert nscl["finite_dimensional_expected"]
    dw = pure_transport_space(damped_wave_system(0.5), 0.0, 16)
    assert dw["kalman_rank_AB"] == 1
    assert not dw["finite_dimensional_expected"]


def _pure_transport_matches_loop(sys, mu, nmax, tol_scale=1e-8):
    """The per-mode reference: one eig of n E(i/n)* per mode."""
    matches = []
    for n in range(-nmax, nmax + 1):
        if n == 0:
            continue
        mat = n * spectral.eval_symbol(sys, 1j / n)
        w, V = np.linalg.eig(mat.conj().T)
        hits = np.where(np.abs(w - 1j * mu) < tol_scale * (1.0 + abs(n)))[0]
        for h in hits:
            matches.append((n, V[:, h]))
    return matches


@pytest.mark.parametrize("system, mu", [
    (decoupled_heat_system, 0.0), (nscl_system, 1.0),
    (moving_wave_system, -1.0), (two_speed_system, -2.0)])
def test_pure_transport_space_matches_per_mode_loop(system, mu):
    sys = system()
    got = pure_transport_space(sys, mu, 32)["matches"]
    ref = _pure_transport_matches_loop(sys, mu, 32)
    assert [n for n, _ in got] == [n for n, _ in ref]
    for (_, v), (_, v_ref) in zip(got, ref):
        np.testing.assert_array_equal(v, v_ref)
    # decoupled heat carries a transport solution on every mode
    if system is decoupled_heat_system:
        assert len(got) == 64
    assert pure_transport_space(sys, mu, 0)["count"] == 0


def test_pure_transport_counts_stable():
    sys = moving_wave_system()
    c16 = pure_transport_space(sys, -1.0, 16)["count"]
    c32 = pure_transport_space(sys, -1.0, 32)["count"]
    assert c16 == c32
