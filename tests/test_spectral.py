import re
import warnings

import numpy as np
import pytest

from torusctrl import spectral
from torusctrl.algebra import SystemMatrices, minimal_time, validate_system
from torusctrl.dynamics import project_branch
from torusctrl.harness import Scenario, load_scenario, run_experiment
from torusctrl.obstruction import build_witness, witness_nmax
from torusctrl.spectral import (eval_symbol, projection_split,
                                hyperbolic_branches, graph_map,
                                limit_projections, separation_radius,
                                build_branch_table)
from conftest import (nscl_system, damped_wave_system, moving_wave_system,
                      decoupled_heat_system, two_speed_system, random_state,
                      HALF_TORUS)


SYSTEMS = {
    "nscl": nscl_system(),
    "damped-wave": damped_wave_system(0.5),
    "moving-wave": moving_wave_system(),
    "two-speed": two_speed_system(),
    "zero-speed": two_speed_system((0.0, 1.5)),
}


def test_eval_symbol_quadratic_in_z():
    sys = nscl_system()
    z = 0.1 + 0.05j
    assert eval_symbol(sys, z) == pytest.approx(
        sys.B + z * sys.A - z ** 2 * sys.K)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_projection_identities(name):
    sys = SYSTEMS[name]
    consts = separation_radius(sys)
    rng = np.random.default_rng(11)
    for _ in range(25):
        z = (rng.uniform(0, 1.0 / consts.n0)
             * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        Ph, Pp = projection_split(sys, z, consts.R)
        E = eval_symbol(sys, z)
        assert Ph @ Ph == pytest.approx(Ph, abs=1e-10)
        assert Ph + Pp == pytest.approx(np.eye(sys.d), abs=1e-10)
        assert Ph @ E == pytest.approx(E @ Ph, abs=1e-10)
        assert np.trace(Ph).real == pytest.approx(sys.d1, abs=1e-8)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_hyperbolic_branch_equation(name):
    sys = SYSTEMS[name]
    consts = separation_radius(sys)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = (rng.uniform(1e-3, 1.0 / consts.n0)
             * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        Ph, _ = projection_split(sys, z, consts.R)
        E = eval_symbol(sys, z)
        branches = hyperbolic_branches(sys, z, Ph)
        assert sum(P for P, _ in branches.values()) == \
            pytest.approx(Ph, abs=1e-9)
        for mu, (P, R) in branches.items():
            assert E @ P == pytest.approx(mu * z * P + z ** 2 * R,
                                          abs=1e-9)


def test_limit_projections_block_structure():
    for sys in SYSTEMS.values():
        Ph0, per_speed = limit_projections(sys)
        expect = np.zeros((sys.d, sys.d))
        expect[:sys.d1, :sys.d1] = np.eye(sys.d1)
        assert Ph0 == pytest.approx(expect, abs=1e-12)
        assert sum(per_speed.values()) == pytest.approx(Ph0, abs=1e-10)


def test_graph_map_limit_is_zero():
    for sys in SYSTEMS.values():
        consts = separation_radius(sys)
        _, Pp0 = projection_split(sys, 0.0, consts.R)
        G0 = graph_map(sys, 0.0, Pp0)
        assert G0 == pytest.approx(np.zeros_like(G0), abs=1e-12)


def test_certified_cutoffs_frozen():
    # independent of the sampling internals, these certified cutoffs were
    # cross-checked by hand against the eigenvalue gap of E(z)
    assert separation_radius(nscl_system()).n0 == 3
    assert separation_radius(moving_wave_system()).n0 == 5


def test_n0_override():
    consts = separation_radius(decoupled_heat_system(), n0_override=1)
    assert consts.n0 == 1


def test_branch_table_keys_and_graph_map(nscl_branches24):
    sys, consts, branches = nscl_branches24
    keys = sorted(branches.modes)
    assert len(branches) == 2 * (24 - consts.n0)
    assert keys[0] == -24 and keys[-1] == 24
    assert all(abs(n) > consts.n0 for n in keys)
    k = branches.rows([consts.n0 + 1, 24, -7])
    assert branches.modes[k].tolist() == [consts.n0 + 1, 24, -7]
    Ph, Pp = branches.Ph[k], branches.Pp[k]
    assert Pp @ Pp == pytest.approx(Pp, abs=1e-10)
    assert Ph @ Pp == pytest.approx(np.zeros((3, sys.d, sys.d)), abs=1e-10)
    assert np.all(np.isfinite(branches.G[k]))
    with pytest.raises(KeyError, match=r"missing modes \[0, 25\]"):
        branches.rows([25, 4, 0, 25])
    assert branches.rows([]).shape == (0,)
    # nscl with vbar = 5 has n0 = 13: at nmax 12 the table has no row
    sys5 = nscl_system(vbar=5.0)
    consts5 = separation_radius(sys5)
    empty = build_branch_table(sys5, consts5, 12)
    assert consts5.n0 == 13 and len(empty) == 0
    rows = empty.rows([])
    assert rows.shape == (0,) and rows.dtype.kind == "i"
    for ns, named in (([5], "[5]"), (-14, "[-14]"), ([2, 0, 2], "[0, 2]")):
        with pytest.raises(KeyError, match=re.escape(named)):
            empty.rows(ns)
    f = random_state(np.random.default_rng(1), 12, 2)
    for which in ("p", "h"):
        assert project_branch(f, empty, consts5.n0, which).norm() == 0.0


def _brute_rows(table, ns):
    """BranchTable.rows by comparing every mode with every row."""
    hit = np.asarray(ns, dtype=int)[..., None] == table.modes
    missing = np.unique(np.asarray(ns)[~hit.any(axis=-1)]).tolist()
    if missing:
        raise KeyError(f"branch table missing modes {missing}")
    return hit @ np.arange(len(table.modes))


def _rows_tables():
    """Tables built at several nmax, grown in place, read back smaller,
    and built on an n0 override."""
    sys = nscl_system()
    consts = separation_radius(sys)
    tables = [build_branch_table(sys, consts, nmax) for nmax in (4, 9, 6)]
    tables.append(build_branch_table(sys, consts, 14))
    tables.append(build_branch_table(sys, separation_radius(
        sys, n0_override=consts.n0 + 2), 11))
    assert [len(t) for t in tables] == [2, 12, 6, 22, 12]
    return tables


def test_table_rows_closed_form_matches_brute_force():
    rng = np.random.default_rng(61)
    for table in _rows_tables():
        modes = table.modes
        for ns in (modes, modes[::-1], rng.permutation(modes),
                   rng.choice(modes, size=3 * len(modes)),
                   np.repeat(modes[:2], 3), modes[:0]):
            got = table.rows(ns)
            assert got.dtype == np.int64 and got.shape == ns.shape
            assert np.array_equal(got, _brute_rows(table, ns))
            assert np.array_equal(modes[got], ns)
        for n in modes[[0, -1]]:
            assert table.rows(int(n)) == _brute_rows(table, int(n))
        assert np.array_equal(table.rows(modes.reshape(2, -1)),
                              _brute_rows(table, modes.reshape(2, -1)))


def test_table_rows_key_error_names_exactly_the_missing_modes():
    sys5 = nscl_system(vbar=5.0)
    empty = build_branch_table(sys5, separation_radius(sys5), 12)
    assert len(empty) == 0
    for table in _rows_tables() + [empty]:
        n0 = abs(int(table.modes[0])) - 1 if len(table) else 13
        top = n0 + len(table) // 2
        present = table.modes[:1].tolist()
        for ns in ([0], [n0], [-n0, 1, -1], [top + 1], [-(top + 1), -top - 7],
                   present + [0, top + 3, 0, -n0] + present,
                   0, -(top + 1)):
            with pytest.raises(KeyError) as brute:
                _brute_rows(table, ns)
            with pytest.raises(KeyError) as got:
                table.rows(ns)
            assert str(got.value) == str(brute.value), (len(table), ns)


def test_graph_map_vanishes_with_coupling():
    # decoupled system: parabolic branch is exactly the second component,
    # so the hyperbolic components of parabolic data vanish identically
    sys = decoupled_heat_system()
    consts = separation_radius(sys, n0_override=1)
    for n in (2, 5, -9):
        z = 1j / n
        _, Pp = projection_split(sys, z, consts.R)
        G = graph_map(sys, z, Pp)
        assert G == pytest.approx(np.zeros_like(G), abs=1e-12)


def test_remainder_at_zero_extrapolation():
    sys = moving_wave_system()
    consts = separation_radius(sys)
    rz = spectral.remainder_at_zero(sys, consts.R)
    mus = sorted(rz)
    assert mus == pytest.approx([-1.0], abs=1e-6)
    Pm0 = rz[mus[0]][0]
    Ph0, _ = limit_projections(sys)
    # Richardson from z = i/512, i/1024 leaves an O(1/n^2)-scale tail
    assert Pm0 == pytest.approx(Ph0, abs=1e-5)


# ------------------------------------------------- stacked contour rule

BUILTINS = ("damped-wave(0.5)", "moving-wave(1, 1)", "heat-memory",
            "nscl(1, 1, 1, 2, 1)")


def _separation_radius_loop(sys):
    """The per-point reference for separation_radius: one eigvals per z,
    in the same grid order, stopping at the first point inside the
    margin."""
    R = 0.5 * float(np.min(np.abs(np.linalg.eigvals(sys.D))))
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False))
    radii_frac = np.linspace(0.05, 1.0, 12)

    def clears(r):
        for fr in radii_frac:
            for ph in phases:
                w = np.linalg.eigvals(eval_symbol(sys, r * fr * ph))
                if np.min(np.abs(np.abs(w) - R)) < R / 10.0:
                    return False
        return True

    r = 1.0
    while not clears(r):
        r *= 0.7
    return r, int(np.ceil(1.0 / r)), R


@pytest.mark.parametrize("name", BUILTINS)
def test_separation_radius_matches_per_point_loop(name):
    sys = load_scenario(name).sys
    consts = separation_radius(sys)
    assert (consts.r, consts.n0, consts.R) == _separation_radius_loop(sys)


def test_eval_symbol_stack_matches_scalar_calls():
    sys = nscl_system()
    zs = np.array([0.1 + 0.05j, -0.3j, 0.02])
    got = eval_symbol(sys, zs)
    assert got.shape == (3, sys.d, sys.d)
    for z, E in zip(zs, got):
        np.testing.assert_array_equal(E, eval_symbol(sys, z))


def _random_stack(rng, k, d, scale=0.6):
    return scale * (rng.standard_normal((k, d, d))
                    + 1j * rng.standard_normal((k, d, d)))


def test_stacked_projection_matches_per_matrix_calls():
    rng = np.random.default_rng(3)
    mats = _random_stack(rng, 12, 3)
    got = spectral._resolvent_projection(mats, 0.1, 0.9)
    for M, P in zip(mats, got):
        np.testing.assert_allclose(
            P, spectral._resolvent_projection(M[None], 0.1, 0.9)[0],
            rtol=0, atol=1e-13)
        # the Riesz projection commutes with M and is idempotent
        assert P @ P == pytest.approx(P, abs=1e-10)
        assert P @ M == pytest.approx(M @ P, abs=1e-10)


def test_mixed_stack_members_stop_on_their_own(monkeypatch):
    # eigenvalue 1.02 sits just outside the unit contour, so the trapezoid
    # rule needs thousands of nodes there; the diagonal 0.2/3 needs few
    slow = np.array([[0.0, 1.0], [0.0, 1.02]], dtype=complex)
    fast = np.diag([0.2, 3.0]).astype(complex)
    kernel, inv = spectral._resolvent_sum, np.linalg.inv
    stacks, inverses = [], []

    def spy(N, xi):
        stacks.append(N.shape[0])
        return kernel(N, xi)

    def inv_spy(a):
        inverses.append(a.shape)
        return inv(a)

    monkeypatch.setattr(spectral, "_resolvent_sum", spy)
    monkeypatch.setattr(np.linalg, "inv", inv_spy)
    got = spectral._resolvent_projection(np.stack([fast, slow]), 0.0, 1.0)
    monkeypatch.undo()
    # both members at the first resolutions, then the slow one alone
    assert stacks[:2] == [2, 2] and set(stacks[2:]) == {1}
    assert len(stacks) > 6
    # the node sums make no LAPACK inverse
    assert inverses == []
    assert got[0] == pytest.approx(np.diag([1.0, 0.0]), abs=1e-13)
    # projection onto the eigenvalue 0 of slow: v = e1, w = (1, -1/1.02)
    expect = np.array([[1.0, -1.0 / 1.02], [0.0, 0.0]])
    assert got[1] == pytest.approx(expect, abs=1e-10)
    np.testing.assert_allclose(
        got[0], spectral._resolvent_projection(fast[None], 0.0, 1.0)[0],
        rtol=0, atol=1e-15)


@pytest.mark.parametrize("c", [1e7, 1e12])
def test_contour_stop_is_relative_to_the_projection_norm(c):
    # ||P|| = c/2: an absolute 1e-11 stop falls below the roundoff of the
    # node sum (at c = 1e7 the per-node solve loop ran past the node cap
    # and raised; the stacked sum needs c = 1e12 for that)
    A = np.array([[1.0, c], [0.0, 3.0]], dtype=complex)
    P = spectral._resolvent_projection(A[None], 1.0, 1.0)[0]
    exact = np.array([[1.0, -c / 2.0], [0.0, 0.0]])
    assert np.linalg.norm(P - exact, 2) <= 1e-10 * np.linalg.norm(exact, 2)


def test_contour_gives_up_at_the_node_cap():
    # eigenvalue 1.0005 needs about 60k nodes at tol 1e-11
    near = np.array([[0.0, 0.0], [0.0, 1.0005]], dtype=complex)
    fast = np.diag([0.2, 3.0]).astype(complex)
    with pytest.raises(spectral.ContourError, match="4096 nodes") as exc:
        spectral._resolvent_projection(np.stack([fast, near, fast]),
                                       0.0, 1.0)
    assert exc.value.members == (1,)


def test_on_contour_eigenvalue_in_any_member_raises():
    rng = np.random.default_rng(8)
    mats = _random_stack(rng, 5, 2, scale=0.2)
    mats[3] = np.diag([0.5, 1.0 + 0.0j])
    with pytest.raises(spectral.ContourError, match="on the integration"
                       ) as exc:
        spectral._resolvent_projection(mats, 0.0, 1.0)
    assert exc.value.members == (3,)


def test_branch_table_matches_per_mode_projection_split(nscl_branches24):
    sys, consts, branches = nscl_branches24
    for k, n in enumerate(branches.modes):
        Ph, Pp = projection_split(sys, 1j / n, consts.R)
        np.testing.assert_allclose(branches.Ph[k], Ph, rtol=0, atol=1e-13)
        np.testing.assert_allclose(branches.Pp[k], Pp, rtol=0, atol=1e-13)
        np.testing.assert_allclose(branches.G[k], graph_map(sys, 1j / n, Pp),
                                   rtol=0, atol=1e-13)


def test_branch_table_names_the_failing_mode():
    # a contour radius equal to |lambda| of an eigenvalue of E(i/5) puts
    # that eigenvalue (and its conjugate at n = -5) on the contour
    sys = nscl_system()
    consts = separation_radius(sys)
    w = np.linalg.eigvals(eval_symbol(sys, 1j / 5))
    R = float(np.abs(w[np.argmax(np.abs(w))]))
    bad = spectral.BranchConstants(r=consts.r, n0=consts.n0, R=R)
    with pytest.raises(spectral.ContourError, match=r"modes n = \[5, -5\]"):
        build_branch_table(sys, bad, 8)


# ------------------------------------------------- kept branch tables

TABLE_FIELDS = ("modes", "Ph", "Pp", "G", "speeds", "Phmu", "Rhmu")


def _assert_same_table(got, want):
    for field in TABLE_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and np.array_equal(a, b), field


def _count_splits(monkeypatch):
    """The z stacks of every projection_split call from here on."""
    calls, split = [], spectral.projection_split

    def spy(sys, z, R):
        calls.append(np.atleast_1d(z))
        return split(sys, z, R)

    monkeypatch.setattr(spectral, "projection_split", spy)
    return calls


@pytest.mark.parametrize("system", [nscl_system, two_speed_system],
                         ids=["nscl", "two-speed"])
def test_grown_and_read_tables_are_bit_identical_to_fresh_builds(
        system, monkeypatch):
    sys = system()
    consts = separation_radius(sys)
    calls = _count_splits(monkeypatch)
    grown = (build_branch_table(sys, consts, 12),
             build_branch_table(sys, consts, 30))
    # the growth split only the modes 13..30
    assert [np.abs(1 / z.imag).round().min() for z in calls] == \
        [consts.n0 + 1, 13]
    shrunk = build_branch_table(sys, consts, 12)
    assert len(calls) == 2
    for nmax, got in ((12, grown[0]), (30, grown[1]), (12, shrunk)):
        _assert_same_table(got, build_branch_table(system(), consts, nmax))
    # a new table object on every call
    assert shrunk is not grown[0] and shrunk is not build_branch_table(
        sys, consts, 12)


def test_kept_arrays_are_read_only():
    sys = two_speed_system()
    consts = separation_radius(sys)
    build_branch_table(sys, consts, 8)
    for nmax in (8, 12, 6):
        table = build_branch_table(sys, consts, nmax)
        for field in TABLE_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, field).flat[0] = 0
    rz = spectral.remainder_at_zero(sys, consts.R)
    for arrays in rz.values():
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0
    # the dict is the caller's own
    rz.clear()
    assert len(spectral.remainder_at_zero(sys, consts.R)) == 2


def test_kept_table_and_remainder_die_with_their_system():
    import gc
    import weakref
    sys = nscl_system()
    consts = separation_radius(sys)
    table = build_branch_table(sys, consts, 8)
    spectral.remainder_at_zero(sys, consts.R)
    alive = weakref.ref(sys)
    kept = [weakref.ref(d) for d in (spectral._BRANCH_TABLES._owners[sys],
                                     spectral._REMAINDERS._owners[sys])]
    del sys
    gc.collect()
    # a returned table does not hold its system
    assert alive() is None and all(k() is None for k in kept)
    assert len(table) == 2 * (8 - consts.n0)


def test_failed_growth_matches_a_fresh_build_and_keeps_the_table(
        monkeypatch):
    # the radius of test_branch_table_names_the_failing_mode: modes +-5
    # sit on the contour, +-4 split
    sys = nscl_system()
    consts = separation_radius(sys)
    w = np.linalg.eigvals(eval_symbol(sys, 1j / 5))
    R = float(np.abs(w[np.argmax(np.abs(w))]))
    bad = spectral.BranchConstants(r=consts.r, n0=consts.n0, R=R)
    with pytest.raises(spectral.ContourError) as fresh:
        build_branch_table(nscl_system(), bad, 8)
    held = build_branch_table(sys, bad, 4)
    with pytest.raises(spectral.ContourError) as grown:
        build_branch_table(sys, bad, 8)
    assert str(grown.value) == str(fresh.value)
    assert str(fresh.value).startswith("modes n = [5, -5]: ")
    assert grown.value.members == fresh.value.members == (2, 3)
    calls = _count_splits(monkeypatch)
    _assert_same_table(build_branch_table(sys, bad, 4), held)
    assert calls == []


def test_remainder_at_zero_is_split_once_per_system_and_radius(
        monkeypatch):
    sys = two_speed_system()
    consts = separation_radius(sys)
    calls = _count_splits(monkeypatch)
    first = spectral.remainder_at_zero(sys, consts.R)
    again = spectral.remainder_at_zero(sys, consts.R)
    assert len(calls) == 1
    for mu in first:
        assert first[mu][0] is again[mu][0] and first[mu][1] is again[mu][1]
    spectral.remainder_at_zero(sys, 0.9 * consts.R)
    other = spectral.remainder_at_zero(two_speed_system(), consts.R)
    assert len(calls) == 3
    for mu in first:
        assert np.array_equal(first[mu][0], other[mu][0])
        assert np.array_equal(first[mu][1], other[mu][1])


# ------------------------------------------------- elementwise node sums

def _lapack_node_sum(N, xi):
    """The node sum the contour made before _resolvent_sum: one stacked
    LAPACK inverse over every (matrix, node) pair."""
    res = np.linalg.inv(N[:, None] - xi[:, None, None] * np.eye(N.shape[-1]))
    return np.einsum("kjab,j->kab", res, xi)


def _lapack_projection(mats, center, radius):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_resolvent_sum", _lapack_node_sum)
        return spectral._resolvent_projection(mats, center, radius)


def _rel_err(P, ref):
    """||P - ref||_2 / max(1, ||ref||_2) per member: the contour's stop."""
    return (np.linalg.norm(P - ref, ord=2, axis=(-2, -1))
            / np.maximum(1.0, np.linalg.norm(ref, ord=2, axis=(-2, -1))))


def _nonnormal_stack(rng, k, d, scale, center, radius):
    """Q T Q* + center I: T upper triangular with eigenvalues inside
    radius/2 or beyond 2 radius and complex off-diagonal entries of size
    scale, Q unitary."""
    inside = rng.random((k, d)) < 0.5
    dist = np.where(inside, rng.uniform(0.0, 0.5, (k, d)),
                    rng.uniform(2.0, 3.0, (k, d))) * radius
    T = np.triu(_random_stack(rng, k, d, scale), 1)
    T[:, np.arange(d), np.arange(d)] = dist * np.exp(
        2j * np.pi * rng.random((k, d)))
    Q, _ = np.linalg.qr(_random_stack(rng, k, d, 1.0))
    return Q @ T @ Q.conj().swapaxes(-1, -2) + center * np.eye(d)


def _nodes(radius, m):
    return radius * np.exp(1j * (2.0 * np.pi * np.arange(m) / m))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_resolvent_sum_matches_lapack_node_sum(d):
    # P_m = -S / m is the contour's projection at m nodes.  Where the
    # resolvents are well conditioned the two routes agree to 1e-13
    # relative; at scale 30 cond(N - xi I) reaches 1e8, and no two
    # inversions agree better than the roundoff model
    # eps * radius * mean_j cond_j ||R_j||, which bounds the difference
    center, radius, m = 0.3 - 0.2j, 0.8, 64
    xi = _nodes(radius, m)
    rng = np.random.default_rng(40 + d)
    mats = np.concatenate([_nonnormal_stack(rng, 20, d, scale, center,
                                            radius)
                           for scale in (1.0, 10.0, 30.0)])
    N = mats - center * np.eye(d)
    got = -spectral._resolvent_sum(N, xi) / m
    ref = -_lapack_node_sum(N, xi) / m
    shifted = N[:, None] - xi[:, None, None] * np.eye(d)
    model = (np.finfo(float).eps * radius
             * np.mean(np.linalg.cond(shifted)
                       * np.linalg.norm(np.linalg.inv(shifted), ord=2,
                                        axis=(-2, -1)), axis=1)
             / np.maximum(1.0, np.linalg.norm(ref, ord=2, axis=(1, 2))))
    err = _rel_err(got, ref)
    assert np.all(err <= np.maximum(1e-13, model))
    # the well-conditioned scale-1 members meet the plain bound
    assert np.all(err[:20] <= 1e-13)


def test_resolvent_sum_against_mpmath():
    # 40-digit Riesz projections from mp.eig: V[:, in] V^-1[in, :].  At
    # 512 nodes the trapezoid error is far below roundoff, so the two
    # routes differ only in their inversions.  Their roundoff is random,
    # so the worst member of each route is compared, not member by member
    import mpmath
    center, radius, m = 0.3 - 0.2j, 0.8, 512
    xi = _nodes(radius, m)
    rng = np.random.default_rng(29)
    errs = []
    for d in (2, 3, 4):
        mats = _nonnormal_stack(rng, 4 if d == 4 else 3, d, 30.0, center,
                                radius)
        with mpmath.workdps(40):
            exact = []
            for M in mats:
                w, V = mpmath.eig(mpmath.matrix(M.tolist()))
                Vi = mpmath.inverse(V)
                P = mpmath.zeros(d, d)
                for j in range(d):
                    if abs(w[j] - center) < radius:
                        P += V[:, j] * Vi[j, :]
                exact.append([[complex(P[a, b]) for b in range(d)]
                              for a in range(d)])
        N = mats - center * np.eye(d)
        errs.append([_rel_err(-f(N, xi) / m, np.array(exact))
                     for f in (spectral._resolvent_sum, _lapack_node_sum)])
    new = max(e[0].max() for e in errs)
    lapack = max(e[1].max() for e in errs)
    assert new <= 2.0 * lapack


@pytest.mark.parametrize("spread", [1e3, 1e5])
def test_contour_on_spread_diffusion_symbols(spread):
    # d2 = 2 with D = diag(1, spread): the parabolic eigenvalues of E(z)
    # spread over five decades outside the contour
    sys = SystemMatrices(
        1, 2, A=np.array([[1.0, 0.5, -0.4], [0.3, 0.2, 0.6],
                          [-0.5, 0.1, 0.4]]),
        D=np.diag([1.0, spread]),
        K=np.array([[0.0, 0.2, 0.1], [0.1, 0.0, 0.3], [-0.2, 0.4, 0.0]]),
        M=np.eye(3))
    consts = separation_radius(sys)
    ns = np.outer(np.arange(consts.n0 + 1, 129), [1, -1]).ravel()
    mats = eval_symbol(sys, 1j / ns)
    got = spectral._resolvent_projection(mats, 0.0, consts.R)
    assert np.all(_rel_err(got, _lapack_projection(mats, 0.0, consts.R))
                  <= 1e-13)
    np.testing.assert_allclose(np.trace(got, axis1=1, axis2=2), 1.0,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("c", [1e50, 1e100, 1e160])
def test_contour_with_huge_entries(c):
    # ||P|| = c / 2, exact
    A = np.array([[1.0, c], [0.0, 3.0]], dtype=complex)
    P = spectral._resolvent_projection(A[None], 1.0, 1.0)
    assert np.all(np.isfinite(P))
    assert _rel_err(P[0], np.array([[1.0, -c / 2.0], [0.0, 0.0]])) <= 1e-13
    # dense: every eigenvalue is far outside the contour, so P = 0
    mats = _random_stack(np.random.default_rng(5), 3, 4, c)
    P = spectral._resolvent_projection(mats, 0.0, 1.0)
    assert np.all(np.isfinite(P)) and np.abs(P).max() <= 1e-13


def test_contour_with_huge_triangular_entries_at_d4():
    # off-diagonal entries of size 1e50: P holds products of three
    rng = np.random.default_rng(5)
    T = np.triu(1e50 * np.exp(2j * np.pi * rng.random((4, 4))), 1)
    T += np.diag([0.2, -0.3j, 2.5, -3.0])
    P = spectral._resolvent_projection(T[None], 0.0, 1.0)
    assert np.all(np.isfinite(P)) and np.abs(P).max() > 1e140
    assert _rel_err(P, _lapack_projection(T[None], 0.0, 1.0)) <= 1e-13
    assert _rel_err(P[0] @ P[0], P[0]) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_resolvent_sum_stack_is_bit_identical_to_single_calls(d):
    rng = np.random.default_rng(d)
    N = _random_stack(rng, 9, d, 2.0)
    xi = _nodes(0.9, 64)
    got = spectral._resolvent_sum(N, xi)
    for k in range(len(N)):
        np.testing.assert_array_equal(
            got[k], spectral._resolvent_sum(N[k:k + 1], xi)[0])


def test_resolvent_sum_zero_pivot_raises():
    # N_1 - xi_0 I = diag(0, 4): column 0 has no nonzero pivot
    N = np.stack([np.diag([0.2, 3.0]), np.diag([1.0, 5.0])]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(spectral.ContourError, match=r"singular resolvent"
                           r" at a contour node \(stack members \[1\]\)"
                           ) as exc:
            spectral._resolvent_sum(N, _nodes(1.0, 8))
    assert exc.value.members == (1,)


def test_resolvent_sum_pivots_past_a_zero_diagonal():
    # at xi_0 = 1, N - xi_0 I = [[0, 1], [1, 4]]: column 0 pivots on row 1
    N = np.array([[[1.0, 1.0], [1.0, 5.0]]], dtype=complex)
    xi = _nodes(1.0, 8)
    assert _rel_err(spectral._resolvent_sum(N, xi),
                    _lapack_node_sum(N, xi)) <= 1e-15


def test_singular_node_names_the_flattened_member(monkeypatch):
    # an eigenvalue exactly on the first odd node at 256 nodes, with the
    # on-contour check blinded: by then member 0 has stopped, and the
    # error names member 1 of the stack, not of the live set
    node = 1.0 * np.exp(1j * (2.0 * np.pi * 1 / 256))
    mats = np.stack([np.diag([0.2, 3.0]), np.diag([node, 3.0])])
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: np.full(a.shape[:-1], 5.0))
    with pytest.raises(spectral.ContourError, match=r"stack members \[1\]"
                       ) as exc:
        spectral._resolvent_projection(mats, 0.0, 1.0)
    assert exc.value.members == (1,)


# ------------------------------------------------- several transport speeds

@pytest.mark.parametrize("speeds", [(1.0, -2.0), (0.0, 1.5)])
def test_multi_speed_table_matches_scalar_split(speeds):
    # (0, 1.5) takes the alpha shift of hyperbolic_branches
    sys = two_speed_system(speeds)
    consts = separation_radius(sys)
    table = build_branch_table(sys, consts, 16)
    K = len(table)
    assert table.speeds == pytest.approx(sorted(speeds), abs=1e-12)
    assert table.Phmu.shape == table.Rhmu.shape == (2, K, 3, 3)
    assert table.G.shape == (K, 2, 1)
    for k, n in enumerate(table.modes):
        z = 1j / n
        Ph, Pp = projection_split(sys, z, consts.R)
        per_speed = hyperbolic_branches(sys, z, Ph)
        assert list(per_speed) == table.speeds.tolist()
        for s, (P, R) in enumerate(per_speed.values()):
            np.testing.assert_allclose(table.Phmu[s, k], P, rtol=0,
                                       atol=1e-13)
            np.testing.assert_allclose(table.Rhmu[s, k], R, rtol=0,
                                       atol=1e-13)
        np.testing.assert_allclose(table.G[k], graph_map(sys, z, Pp),
                                   rtol=0, atol=1e-13)
    # identities over the whole stack: the speeds split Ph into rank-one
    # spectral projections of E(i/n), and the remainder closes the
    # branch equation
    zs = 1j / table.modes
    z = zs[:, None, None]
    E = eval_symbol(sys, zs)
    np.testing.assert_allclose(table.Phmu.sum(axis=0), table.Ph, rtol=0,
                               atol=1e-12)
    for mu, P, R in zip(table.speeds, table.Phmu, table.Rhmu):
        np.testing.assert_allclose(P @ P, P, rtol=0, atol=1e-11)
        np.testing.assert_allclose(P @ E, E @ P, rtol=0, atol=1e-11)
        np.testing.assert_allclose(np.trace(P, axis1=1, axis2=2), 1.0,
                                   rtol=0, atol=1e-11)
        np.testing.assert_allclose(E @ P, mu * z * P + z ** 2 * R, rtol=0,
                                   atol=1e-12)


@pytest.mark.parametrize("gap, match", [
    # the speed contours (radius gap/3) lose an eigenvalue at |n| <= 6
    (0.1, r"modes n = \[4, -4, 5, -5, 6, -6\]: mu-group projections do "
          r"not sum to Ph"),
    # an eigenvalue of E1(i/8) sits next to a speed contour
    (0.05, r"modes n = \[8, -8\]: mu-groups not separated at "
           r"\|z\| = \[0.125, 0.125\]")])
def test_branch_table_names_the_modes_of_a_speed_split_failure(gap, match):
    sys = two_speed_system((1.0, 1.0 + gap))
    consts = separation_radius(sys)
    # n0 = 3 clears only the hyperbolic/parabolic split; the smallest
    # cutoff that builds is 6 (gap 0.1) and 21 (gap 0.05)
    below = spectral.BranchConstants(r=consts.r, n0=3, R=consts.R)
    with pytest.raises(spectral.ContourError, match=match):
        build_branch_table(sys, below, 12)
    # the certified cutoff (9 and 25) also clears the per-speed split
    table = build_branch_table(sys, consts, consts.n0 + 12)
    assert len(table) == 24


def _near_pair_system():
    # Aprime = diag(1, 1 + 1e-10): diagonalizable (H.4 holds) with two
    # eigenvalues that count as one transport speed
    base = two_speed_system((1.0, 1.0 + 1e-10))
    A = base.A.copy()
    A[0, 1] = 0.0
    return SystemMatrices(2, 1, A=A, D=base.D, K=base.K, M=base.M)


ONE_MODEL_SYSTEMS = {
    **{name: (lambda name=name: load_scenario(name).sys)
       for name in BUILTINS},
    "two-speed": two_speed_system,
    "zero-speed": lambda: two_speed_system((0.0, 1.5)),
    "near-pair": _near_pair_system,
}


@pytest.mark.parametrize("name", sorted(ONE_MODEL_SYSTEMS))
def test_every_module_reads_the_transport_speeds(name, tmp_path):
    sys = ONE_MODEL_SYSTEMS[name]()
    assert validate_system(sys).ok
    speeds = sys.transport_speeds()
    assert len(speeds) == (2 if name in ("two-speed", "zero-speed") else 1)
    assert np.all(np.diff(speeds) > 0)
    consts = separation_radius(sys)
    table = build_branch_table(sys, consts, witness_nmax(8))
    assert np.array_equal(table.speeds, speeds)
    assert list(spectral.remainder_at_zero(sys, consts.R)) == speeds.tolist()
    assert list(limit_projections(sys)[1]) == speeds.tolist()
    # the appendix-A scan: one row per nmax and speed
    scn = Scenario(name, sys, HALF_TORUS, nmax=4, experiment="appendixA")
    assert run_experiment(scn, str(tmp_path))[0] == 0
    scan = np.loadtxt(tmp_path / "appendix_a_scan.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert np.array_equal(scan[:, 0], np.repeat([4, 8], len(speeds)))
    assert np.array_equal(scan[:, 1], np.tile(speeds, 2))
    # a witness exists exactly when the minimal time is finite
    Tstar = minimal_time(sys, HALF_TORUS)
    if np.isfinite(Tstar):
        wit = build_witness(sys, table, HALF_TORUS, 0.5 * Tstar, 8,
                            consts=consts)
        assert wit.mu == speeds[np.argmin(np.abs(speeds))]
    else:
        with pytest.raises(ValueError, match="transport speeds vanishes"):
            build_witness(sys, table, HALF_TORUS, 1.0, 8, consts=consts)


# ------------------------------------------ Frobenius-bracketed norm tests

def _svd_rule(X, tol, Y=None):
    """The stop rule with 2-norms taken by SVD on every member."""
    bound = tol if Y is None else tol * np.maximum(
        1.0, np.linalg.norm(Y, ord=2, axis=(-2, -1)))
    return np.linalg.norm(X, ord=2, axis=(-2, -1)) < bound


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("scale", [1e-300, 1e-11, 1.0, 1e160])
def test_bracketed_norm_test_matches_svd_rule(d, scale):
    # ||X||_2 placed at ratios to the bound from far below to far above,
    # through the ambiguous band and the slack next to equality
    rng = np.random.default_rng(d)
    ratios = np.concatenate([np.logspace(-3, 3, 61),
                             1.0 + np.linspace(-1e-11, 1e-11, 41)])
    Y = scale * _random_stack(rng, ratios.size, d, 1.0)
    X = _random_stack(rng, ratios.size, d, 1.0)
    X /= np.linalg.norm(X, ord=2, axis=(1, 2))[:, None, None]
    bound = 1e-11 * np.maximum(1.0, np.linalg.norm(Y, ord=2, axis=(1, 2)))
    X *= (ratios * bound)[:, None, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spectral._norm2_below(X, 1e-11, Y)
        solo = spectral._norm2_below(X / bound[:, None, None], 1.0)
    np.testing.assert_array_equal(got, _svd_rule(X, 1e-11, Y))
    np.testing.assert_array_equal(
        solo, _svd_rule(X / bound[:, None, None], 1.0))
    assert got[ratios < 0.5].all() and not got[ratios > 2.0].any()


@pytest.mark.parametrize("system", [
    nscl_system, moving_wave_system, two_speed_system,
    lambda: two_speed_system((0.0, 1.5))])
def test_branch_table_is_bit_identical_to_the_svd_stop_rule(system,
                                                            monkeypatch):
    sys = system()
    consts = separation_radius(sys)
    got = build_branch_table(sys, consts, 64)
    monkeypatch.setattr(spectral, "_norm2_below", _svd_rule)
    # a new system object: sys's own table is kept and would be read back
    want = build_branch_table(system(), consts, 64)
    for field in ("modes", "Ph", "Pp", "G", "speeds", "Phmu", "Rhmu"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("c", [1e50, 1e100, 1e160])
def test_huge_entry_contours_are_bit_identical_to_the_svd_stop_rule(
        c, monkeypatch):
    A = np.array([[1.0, c], [0.0, 3.0]], dtype=complex)
    dense = _random_stack(np.random.default_rng(5), 3, 4, c)
    rng = np.random.default_rng(5)
    T = np.triu(1e50 * np.exp(2j * np.pi * rng.random((4, 4))), 1)
    T += np.diag([0.2, -0.3j, 2.5, -3.0])
    calls = [(A[None], 1.0, 1.0), (dense, 0.0, 1.0), (T[None], 0.0, 1.0)]
    got = [spectral._resolvent_projection(*a) for a in calls]
    monkeypatch.setattr(spectral, "_norm2_below", _svd_rule)
    for g, a in zip(got, calls):
        assert np.array_equal(g, spectral._resolvent_projection(*a))


def test_contour_and_graph_map_take_no_svd_on_a_builtin(monkeypatch):
    # every stop of the nscl table, and its d1 = 1 graph map, is settled
    # by the Frobenius bracket
    sys = nscl_system()
    consts = separation_radius(sys)
    norms = []
    real = np.linalg.norm

    def spy(x, *args, **kwargs):
        norms.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    build_branch_table(sys, consts, 128)
    assert norms == []


def test_one_speed_split_runs_no_contour_and_no_sum_check(monkeypatch):
    sys = nscl_system()
    consts = separation_radius(sys)
    zs = 1j / np.arange(consts.n0 + 1, 40)
    Ph, _ = projection_split(sys, zs, consts.R)
    called = []
    monkeypatch.setattr(spectral, "_resolvent_projection",
                        lambda *a: called.append("contour"))
    monkeypatch.setattr(spectral, "_norm2_below",
                        lambda *a: called.append("check"))
    (mu, (Phmu, Rhmu)), = hyperbolic_branches(sys, zs, Ph).items()
    assert called == []
    assert np.array_equal(Phmu, Ph) and Phmu is not Ph


def test_perturbed_speed_projection_trips_the_sum_check(monkeypatch):
    sys = two_speed_system()
    consts = separation_radius(sys)
    zs = 1j / np.arange(consts.n0 + 1, 20)
    Ph, _ = projection_split(sys, zs, consts.R)
    real = spectral._resolvent_projection

    def perturbed(mats, center, radius):
        P = real(mats, center, radius)
        P[4] += 1e-6 * np.eye(3)
        return P

    monkeypatch.setattr(spectral, "_resolvent_projection", perturbed)
    with pytest.raises(spectral.ContourError,
                       match=r"do not sum to Ph \(stack members \[4\]\)"):
        hyperbolic_branches(sys, zs, Ph)


def test_graph_map_refuses_where_p11_reaches_one():
    sys = two_speed_system()
    Pp = np.zeros((3, 3, 3), dtype=complex)
    Pp[:, :2, :2] = np.diag([0.5, 0.999])
    Pp[1, 1, 1] = 1.0
    Pp[2, :2, :2] = [[0.7, 0.7], [0.0, 0.2]]
    with pytest.raises(ValueError, match="graph map undefined") as exc:
        graph_map(sys, np.array([1j, 2j, 3j]), Pp)
    assert "[2j, 3j]" in str(exc.value)
