import gc
import weakref

import numpy as np
import pytest
import scipy.linalg

from torusctrl.algebra import (SystemMatrices, TorusSubset, TWO_PI,
                              minimal_time)
from torusctrl import spectral, obstruction, dynamics
from torusctrl.obstruction import (highpass_profile, gaussian_profile,
                                   build_witness, observability_ratio,
                                   witness_nmax, pure_transport_space)
from torusctrl.dynamics import FourierState, synth_grid
from conftest import (nscl_system, damped_wave_system, moving_wave_system,
                      decoupled_heat_system, two_speed_system, HALF_TORUS)


def test_highpass_zeroes_low_modes():
    out = highpass_profile(gaussian_profile(12, np.pi, 0.5), 4)
    for n in range(-4, 5):
        assert out.get(n) == pytest.approx(np.zeros(1))
    assert out.norm() == pytest.approx(1.0)


def test_highpass_matches_direct_product():
    # P_N(n) a_n, rescaled to unit norm
    log_abs, phase = gaussian_profile(6, 1.0, 1.0)
    out = highpass_profile((log_abs, phase), 2)
    poly = [np.prod([float(n - j) for j in range(-2, 3)])
            for n in range(-6, 7)]
    direct = FourierState(6, (poly * np.exp(log_abs) * phase)[:, None])
    direct = direct * (1.0 / direct.norm())
    for n in (3, -5, 6):
        assert out.get(n)[0] == pytest.approx(direct.get(n)[0], rel=1e-12)


def _highpass_loop(nmax, N, log_abs, phase):
    """Per-mode reference: log |P_N(n)| and its sign one mode at a time,
    then the normalized output."""
    modes = np.arange(-nmax, nmax + 1)
    logs = np.full(len(modes), -np.inf)
    signs = np.ones(len(modes))
    for i, n in enumerate(modes):
        diffs = n - np.arange(-N, N + 1)
        if np.any(diffs == 0) or not np.isfinite(log_abs[i]):
            continue
        logs[i] = np.sum(np.log(np.abs(diffs).astype(float))) + log_abs[i]
        signs[i] = -1.0 if np.sum(diffs < 0) % 2 else 1.0
    shift = np.max(logs[np.isfinite(logs)])
    ref = FourierState.zeros(nmax, 1)
    for i in np.flatnonzero(np.isfinite(logs)):
        ref.coeffs[i, 0] = phase[i] * signs[i] * np.exp(logs[i] - shift)
    return ref * (1.0 / ref.norm())


@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_highpass_matches_per_mode_loop(N):
    # the witness's closed form, with one zero coefficient
    nmax = witness_nmax(N)
    log_abs, phase = gaussian_profile(nmax, 1.0, 0.3)
    log_abs[-1] = -np.inf
    out = highpass_profile((log_abs, phase), N)
    assert np.array_equal(out.coeffs,
                          _highpass_loop(nmax, N, log_abs, phase).coeffs)


def test_gaussian_profile_matches_periodized_gaussian():
    # a_n = (sigma / (2 sqrt(pi))) e^{-sigma^2 n^2/4} e^{-inc} are the
    # Fourier coefficients of sum_k e^{-((x - c + 2 pi k)/sigma)^2}
    log_abs, phase = gaussian_profile(16, 2.0, 0.8)
    chi = FourierState(16, (np.exp(log_abs) * phase)[:, None])
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


def _table(sys, N, **override):
    consts = spectral.separation_radius(sys, **override)
    return consts, spectral.build_branch_table(sys, consts, witness_nmax(N))


def _count_mode_bases(monkeypatch):
    built = []
    init = dynamics.ModeBasis.__init__

    def spy(self, gens):
        built.append(len(gens))
        init(self, gens)

    monkeypatch.setattr(dynamics.ModeBasis, "__init__", spy)
    return built


def test_horizon_sweep_builds_the_witness_semigroups_once(monkeypatch):
    """A 10-horizon sweep at N = 32 builds the two ModeBasis objects of
    its witnesses on the first horizon only, and every ratio is
    bit-identical to a cold build on a fresh system object."""
    built = _count_mode_bases(monkeypatch)
    N = 32
    sys = nscl_system()
    consts, branches = _table(sys, N)
    Ts = minimal_time(sys, HALF_TORUS) * np.linspace(0.4, 0.6, 10)
    ratios = []
    for T in Ts:
        wit = build_witness(sys, branches, HALF_TORUS, T, N, consts=consts)
        ratios.append(observability_ratio(wit, HALF_TORUS, T))
        assert built == [len(wit._live), 1]
    for T, ratio in zip(Ts, ratios):
        # a fresh system object: its memos hold nothing yet
        cold = nscl_system()
        wit = build_witness(cold, _table(cold, N)[1], HALF_TORUS, T, N)
        assert observability_ratio(wit, HALF_TORUS, T) == ratio
    assert len(built) == 2 + 2 * len(Ts)


def test_witness_semigroups_die_with_their_system():
    sys = nscl_system()
    consts, branches = _table(sys, 8)
    wit = build_witness(sys, branches, HALF_TORUS, 1.0, 8, consts=consts)
    kept = weakref.ref(wit._gN)
    del wit
    gc.collect()
    assert kept() is not None
    del sys, consts, branches
    gc.collect()
    assert kept() is None


def test_kept_witness_arrays_are_read_only():
    sys = nscl_system()
    consts, branches = _table(sys, 8)
    wit = build_witness(sys, branches, HALF_TORUS, 1.0, 8, consts=consts)
    held = [c.cell_contents for f in (wit._gN, wit._gNtilde)
            for c in f.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    arrays += [a for b in held if isinstance(b, dynamics.ModeBasis)
               for a in vars(b).values() if isinstance(a, np.ndarray)]
    # per map: lead, coef and slow_vecs, and the seven of its basis
    assert len(arrays) == 2 * (3 + 7)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_witness_start_is_kept_with_remainder_at_zero(monkeypatch):
    """phi0 is split once per system and split radius, with
    remainder_at_zero's limits: the leading left singular vector of
    Phmu(0)* bit for bit, read-only, and a witness takes no svd."""
    sys = two_speed_system()
    consts, branches = _table(sys, 8)
    svds, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: svds.append(1) or svd(*a, **k))
    kept = spectral.remainder_at_zero(sys, consts.R)
    assert len(svds) == len(kept) == 2
    for P0, _, phi0 in kept.values():
        assert np.array_equal(phi0, svd(P0.conj().T)[0][:, 0])
    T = 0.3 * minimal_time(sys, HALF_TORUS)
    wit = build_witness(sys, branches, HALF_TORUS, T, 8, consts=consts)
    assert len(svds) == 2 and wit.phi0 is kept[wit.mu][2]


def _witness_bits(wit, T):
    """The bytes of both coefficient paths at five times, and the ratio."""
    ts = np.linspace(0.0, T, 5)
    states = wit.gN_coeffs(ts) + wit.gNtilde_coeffs(ts)
    return (np.stack([st_.coeffs for st_ in states]).tobytes(),
            observability_ratio(wit, HALF_TORUS, T))


@pytest.mark.parametrize("case", ["n0_override", "table_radius",
                                  "consts_radius", "Rhmu", "Phmu", "Rhmu0",
                                  "phi0"])
def test_other_branch_data_is_built_cold_not_read_stale(monkeypatch, case):
    """A witness of a system that keeps another witness at the same N and
    speed gets what a cold build on a fresh system object returns.  The
    n0 override the obstruct experiment passes gives the kept rows bit
    for bit, a hit.  So do a table of another split radius under the
    first constants and the first table under constants of another
    radius: the projections depend on R only through the grouping of the
    eigenvalues, which both radii share, so Rhmu0 and phi0 keep their
    bits too.  Each of the four inputs perturbed alone is built anew."""
    N, T = 16, 1.2
    sys = nscl_system()
    consts, branches = _table(sys, N)
    first = build_witness(sys, branches, HALF_TORUS, T, N, consts=consts)

    def other_radius(c):
        return spectral.BranchConstants(r=c.r, n0=c.n0, R=0.8 * c.R)

    def build(s):
        c = spectral.separation_radius(s)
        if case == "n0_override":
            c, b = _table(s, N, n0_override=consts.n0 + 3)
        elif case == "table_radius":
            b = spectral.build_branch_table(s, other_radius(c),
                                            witness_nmax(N))
        elif case == "consts_radius":
            b, c = _table(s, N)[1], other_radius(c)
        else:
            inputs = {name: getattr(first, name)
                      for name in ("Rhmu", "Phmu", "Rhmu0", "phi0")}
            a = inputs[case]
            inputs[case] = a * np.linspace(1.0, 1.001, a.shape[-1])
            return obstruction.ObstructionWitness(
                N=N, mu=first.mu, chiN=first.chiN, sys=s, **inputs)
        return build_witness(s, b, HALF_TORUS, T, N, consts=c)

    hit = case in ("n0_override", "table_radius", "consts_radius")
    built = _count_mode_bases(monkeypatch)
    warm = build(sys)
    assert len(built) == (0 if hit else 2)
    assert (warm._gN is first._gN) == hit
    assert _witness_bits(warm, T) == _witness_bits(build(nscl_system()), T)
    # the first witness's entry is still kept
    again = build_witness(sys, branches, HALF_TORUS, T, N, consts=consts)
    assert again._gN is first._gN and again._gNtilde is first._gNtilde


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
