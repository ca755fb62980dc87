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
                                evolve, evolve_adjoint,
                                project_branch, project_low,
                                windowed_l2_norm)
from conftest import (nscl_system, moving_wave_system, damped_wave_system,
                      decoupled_heat_system, two_speed_system, random_state)

import mpmath
import scipy.linalg


@given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_synth_analyze_roundtrip(nmax, d, seed):
    rng = np.random.default_rng(seed)
    st_ = random_state(rng, nmax, d, decay=0.0)
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
    st_ = random_state(rng, nmax, 3, decay=0.0)
    assert np.all(st_.get(nmax) != 0) and np.all(st_.get(-nmax) != 0)
    xs, got = synth_grid(st_, ngrid=factor * nmax)
    want = kernels.synthesize(st_.coeffs, st_.modes, xs)
    scale = np.abs(st_.coeffs).sum()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)


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
    per_scale = rng.standard_normal((6, 4, 3))
    assert _close(basis.action(per_scale)(scales),
                  np.einsum("kqij,kqj->kqi", ref, per_scale))


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
    single-scale calls, on both paths: emission relies on it, so at(ts)
    and at(t) agree bit for bit."""
    sys, basis = _mixed_basis()
    rng = np.random.default_rng(44)
    scales = rng.uniform(0.0, 2.0, (11, 6))
    obs = rng.standard_normal((11, 3, 2)) + 1j * rng.standard_normal(
        (11, 3, 2))
    vecs = rng.standard_normal((11, 2)) + 1j * rng.standard_normal((11, 2))
    per_scale = rng.standard_normal((11, 6, 2)) + 0.5j
    calls = [lambda s, q: basis.expm(s),
             lambda s, q: basis.expm(s, obs),
             lambda s, q: basis.action(vecs)(s),
             lambda s, q: basis.action(vecs, obs)(s),
             lambda s, q: basis.action(per_scale[:, q])(s)]
    for call in calls:
        whole = call(scales, slice(None))
        for q in range(scales.shape[1]):
            assert np.array_equal(whole[:, q],
                                  call(scales[:, q:q + 1], slice(q, q + 1))[:, 0])


def test_mode_basis_observed_forms_match_products():
    """The obs arguments of expm and action against obs @ expm(...) (and
    its product with the vectors), on both paths, to 1e-14."""
    sys, basis = _mixed_basis()
    rng = np.random.default_rng(45)
    scales = rng.uniform(0.0, 2.0, (11, 5))
    obs = rng.standard_normal((11, 3, 2)) + 1j * rng.standard_normal(
        (11, 3, 2))
    vecs = rng.standard_normal((11, 2)) + 1j * rng.standard_normal((11, 2))
    ref = obs[:, None] @ basis.expm(scales)
    assert _close(basis.expm(scales, obs), ref, rel=1e-14)
    assert _close(basis.action(vecs, obs)(scales),
                  (ref @ vecs[:, None, :, None])[..., 0], rel=1e-14)
    # the M* observation of the hyperbolic dual block, a broadcast view
    Mh = np.broadcast_to(sys.M.conj().T, (11, sys.m, sys.d))
    assert _close(basis.expm(scales, Mh), Mh[:, None] @ basis.expm(scales),
                  rel=1e-14)


def test_evolve_adjoint_matches_dense_expm():
    sys = nscl_system()  # modes +-2 on the expm path
    rng = np.random.default_rng(22)
    g0 = random_state(rng, 6, 2)
    times = [0.0, 0.3, 1.1]
    _, traj = evolve_adjoint(sys, g0, 1.1, sample_times=times)
    for t, st_ in zip(times, traj):
        ref = np.array([scipy.linalg.expm(
            -t * mode_generator(sys, n, adjoint=True)) @ g0.get(n)
            for n in g0.modes])
        assert _close(st_.coeffs, ref), t


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


def test_evolve_adjoint_refuses_sample_times_outside_horizon():
    sys = load_scenario("heat-memory").sys
    rng = np.random.default_rng(6)
    g0 = random_state(rng, 6, sys.d)
    for times in ([0.5, 3.0], [-0.5, 1.0]):
        with pytest.raises(ValueError, match=r"\[0, T"):
            evolve_adjoint(sys, g0, 1.0, sample_times=times)
    _, states = evolve_adjoint(sys, g0, 1.0, sample_times=[0.0, 1.0])
    assert _close(states[0].coeffs, g0.coeffs)
    assert _close(states[1].coeffs, evolve_adjoint(sys, g0, 1.0).coeffs)


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
    gT = evolve_adjoint(sys, g0, 0.8)
    lhs = np.vdot(g0.coeffs, fT.coeffs)
    rhs = np.vdot(gT.coeffs, f0.coeffs)
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
