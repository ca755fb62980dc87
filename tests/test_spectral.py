import re

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


# ------------------------------------------------- stacked eigendecomposition

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


def test_ring_first_certificate_matches_per_point_loop(monkeypatch):
    """The disk test's outer ring first, then the other rings: the same
    radius as the per-point loop on two-speed and ten random systems, and
    a radius refused on the outer ring costs one 24-point eigvals."""
    rng = np.random.default_rng(7)
    for k, sys in enumerate([two_speed_system()] + [
            _random_system(rng) for _ in range(10)]):
        consts = separation_radius(sys)
        assert (consts.r, consts.n0, consts.R) == \
            _separation_radius_loop(sys), k
    calls, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: calls.append(len(a)) or eigvals(a))
    # nscl's radii 1 and 0.7 fail on the outer ring, 0.49 inside it;
    # 0.343 clears both (the first call is Sp(D))
    assert separation_radius(nscl_system()).r == pytest.approx(0.343)
    assert calls[:7] == [1, 24, 24, 24, 264, 24, 264]


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
    got = _split(mats, 0.1, 0.9)
    for M, P in zip(mats, got):
        np.testing.assert_allclose(P, _split(M[None], 0.1, 0.9)[0], rtol=0,
                                   atol=1e-13)
        # the Riesz projection commutes with M and is idempotent
        assert P @ P == pytest.approx(P, abs=1e-10)
        assert P @ M == pytest.approx(M @ P, abs=1e-10)


def test_on_contour_eigenvalue_in_any_member_raises():
    # a split radius at (or 5 % above) |w| of the hyperbolic eigenvalue of
    # E(i/5) puts that eigenvalue within R/10 of the circle, though at 5 %
    # it still counts as inside; the neighbours keep R/10 clear
    sys = nscl_system()
    ns = np.array([6, 7, 5, 8])
    w = np.linalg.eigvals(eval_symbol(sys, 1j / 5))
    for factor in (1.0, 1.05):
        R = factor * float(np.min(np.abs(w)))
        with pytest.raises(spectral.ContourError, match=r"not split by "
                           r"\|zeta\| = 0.2\d* \(stack members \[2\]\)"
                           ) as exc:
            projection_split(sys, 1j / ns, R)
        assert exc.value.members == (2,)
        Ph, _ = projection_split(sys, 1j / ns[[0, 1, 3]], R)
        assert np.trace(Ph, axis1=1, axis2=2) == pytest.approx(1.0,
                                                               abs=1e-12)


def test_branch_table_matches_per_mode_projection_split(nscl_branches24):
    sys, consts, branches = nscl_branches24
    for k, n in enumerate(branches.modes):
        Ph, Pp = projection_split(sys, 1j / n, consts.R)
        np.testing.assert_allclose(branches.Ph[k], Ph, rtol=0, atol=1e-13)
        np.testing.assert_allclose(branches.Pp[k], Pp, rtol=0, atol=1e-13)
        np.testing.assert_allclose(branches.G[k], graph_map(sys, 1j / n, Pp),
                                   rtol=0, atol=1e-13)


def test_branch_table_matches_a_stacked_split():
    """A two-speed table, built and grown, holds the bits of one stacked
    projection_split, hyperbolic_branches and graph_map on its modes."""
    consts = separation_radius(two_speed_system())
    sys = two_speed_system()
    build_branch_table(sys, consts, consts.n0 + 32)
    table = build_branch_table(sys, consts, consts.n0 + 40)
    zs = 1j / table.modes
    Ph, Pp = projection_split(sys, zs, consts.R)
    per_speed = hyperbolic_branches(sys, zs, Ph)
    want = spectral.BranchTable(
        table.modes, Ph, Pp, graph_map(sys, zs, Pp),
        np.array(list(per_speed)),
        np.array([P for P, _ in per_speed.values()]),
        np.array([Rm for _, Rm in per_speed.values()]))
    _assert_same_table(table, want)


def test_hyperbolic_branches_refuses_unseparated_speeds():
    """On the drifting pair, hyperbolic_branches' own decomposition
    refuses the members whose speeds are not separated, and splits the
    others."""
    sys = _drifting_pair_system(0.1)
    R = separation_radius(sys).R
    zs = 1j / np.array([9.0, 5.0, -5.0, 12.0])
    Ph, _ = projection_split(sys, zs, R)
    with pytest.raises(spectral.ContourError,
                       match=r"mu-groups not separated at \|z\| = "
                       r"\[0\.2, 0\.2\]; increase n0") as exc:
        hyperbolic_branches(sys, zs, Ph)
    assert exc.value.members == (1, 2)
    good, _ = projection_split(sys, zs[[0, 3]], R)
    assert len(hyperbolic_branches(sys, zs[[0, 3]], good)) == 2


def _exceptional_point_system():
    """d1 = 1, d2 = 2 with triangular A and K: the parabolic block of
    E(+-i/5) is [[2 + 0.14i, 1 + 0.08i], [0, 2 + 0.14i]] in floating point,
    a Jordan block, while E(i/n) keeps distinct eigenvalues at every other
    n.  So modes +-5 are refused for their eigenvectors alone."""
    A = np.array([[1.0, 0.5, 0.2], [0.0, 0.7, 0.4], [0.0, 0.0, 0.7]])
    K = np.zeros((3, 3))
    K[1, 1] = 25.0
    # 1 + 25 / 25 rounds to 2.0 exactly through eval_symbol's z * z
    return SystemMatrices(1, 2, A=A, D=np.array([[1.0, 1.0], [0.0, 2.0]]),
                          K=K, M=np.eye(3))


def _below_the_exceptional_point(sys):
    """The certified constants with n0 = 3, below the certified 9."""
    consts = separation_radius(sys)
    assert consts.n0 == 9
    return spectral.BranchConstants(r=consts.r, n0=3, R=consts.R)


def test_branch_table_names_the_failing_mode():
    sys = _exceptional_point_system()
    assert validate_system(sys).ok
    with pytest.raises(spectral.ContourError, match=r"modes n = \[5, -5\]: "
                       r"eigenvector condition >= 1e\+08 \(stack members "
                       r"\[2, 3\]\)"):
        build_branch_table(sys, _below_the_exceptional_point(sys), 8)
    # the certified cutoff steps over it
    table = build_branch_table(sys, separation_radius(sys), 24)
    assert len(table) == 30


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
    top = _lattice_top(consts)
    calls = _count_splits(monkeypatch)
    grown = (build_branch_table(sys, consts, 12),
             build_branch_table(sys, consts, top + 12))
    # the certificate's rows reach floor(20/r): the growth split only the
    # modes above it
    assert [np.abs(1 / z.imag).round().min() for z in calls] == [top + 1]
    shrunk = build_branch_table(sys, consts, 12)
    assert len(calls) == 1
    for nmax, got in ((12, grown[0]), (top + 12, grown[1]), (12, shrunk)):
        _assert_same_table(got, build_branch_table(system(), consts, nmax))
    # a new table object on every call
    assert shrunk is not grown[0] and shrunk is not build_branch_table(
        sys, consts, 12)


def _lattice_top(consts):
    """The top mode of separation_radius's lattice, floor(20/r)."""
    return int(np.floor(1.0 / (consts.r * 0.05)))


def _fresh(sys):
    """A new system object with the matrices of sys: it holds no table."""
    return SystemMatrices(sys.d1, sys.d2, A=sys.A, D=sys.D, K=sys.K,
                          M=sys.M)


def test_certificate_rows_are_a_fresh_split_bit_for_bit():
    """The rows separation_radius keeps, read and grown, hold the bits of
    a table split from n0 on a system that holds none, certified and with
    an override, below and above the lattice top."""
    rng = np.random.default_rng(7)
    systems = [nscl_system(), two_speed_system()] + [
        _random_system(rng) for _ in range(40)]
    for k, sys in enumerate(systems):
        certified = separation_radius(sys)
        top = _lattice_top(certified)
        for consts in (certified, separation_radius(
                sys, n0_override=certified.n0 + 2)):
            held = spectral._BRANCH_TABLES._owners[sys][consts]
            assert len(held) == 2 * (top - consts.n0), k
            for nmax in (consts.n0 + 4, top, top + 6):
                _assert_same_table(build_branch_table(sys, consts, nmax),
                                   build_branch_table(_fresh(sys), consts,
                                                      nmax))


@pytest.mark.parametrize("name, n0, top", [
    ("nscl(1, 1, 1, 2, 1)", None, 58), ("heat-memory", None, 40),
    ("heat-memory", 9, 40)])
def test_certified_table_splits_nothing_up_to_the_lattice_top(
        name, n0, top, monkeypatch):
    sys = load_scenario(name).sys
    consts = separation_radius(sys, n0_override=n0)
    assert _lattice_top(consts) == top
    calls = _count_splits(monkeypatch)
    for nmax in (consts.n0 + 1, 16, top, 12):
        assert len(build_branch_table(sys, consts, nmax)) == \
            2 * (nmax - consts.n0)
    assert calls == []
    build_branch_table(sys, consts, top + 3)
    assert [sorted(np.abs(1 / z.imag).round()) for z in calls] == [
        [top + 1, top + 1, top + 2, top + 2, top + 3, top + 3]]
    # a second certificate keeps the grown table it finds
    assert separation_radius(sys, n0_override=n0) == consts
    calls.clear()
    assert len(build_branch_table(sys, consts, top + 3)) == \
        2 * (top + 3 - consts.n0)
    assert calls == []


def test_certificate_splits_every_block_and_keeps_the_first(monkeypatch):
    """nscl with vbar = 15 has r = 0.7^10 and the lattice 36 <= n <= 708,
    two blocks of 337 and 336 modes: both are split, and the kept table
    holds the modes of the first above n0."""
    calls = _count_splits(monkeypatch)
    sys = nscl_system(vbar=15.0)
    consts = separation_radius(sys)
    assert consts.n0 == 36 and _lattice_top(consts) == 708
    last = [np.abs(1 / z.imag).round() for z in calls[-2:]]
    assert [(m.min(), m.max(), m.size) for m in last] == [
        (36, 372, 674), (373, 708, 672)]
    calls.clear()
    assert len(build_branch_table(sys, consts, 372)) == 2 * (372 - 36)
    assert calls == []
    build_branch_table(sys, consts, 373)
    assert len(calls) == 1


def test_certificate_seeds_nothing_past_its_lattice():
    sys = nscl_system()
    consts = separation_radius(sys, n0_override=58)
    assert consts not in spectral._BRANCH_TABLES._owners.get(sys, {})
    assert len(build_branch_table(sys, consts, 60)) == 4


def test_certificate_rows_are_read_only_and_die_with_their_system():
    import gc
    import weakref
    sys = two_speed_system()
    consts = separation_radius(sys)
    held = spectral._BRANCH_TABLES._owners[sys][consts]
    for field in TABLE_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(held, field).flat[0] = 0
    alive = weakref.ref(sys)
    kept = weakref.ref(spectral._BRANCH_TABLES._owners[sys])
    del sys
    gc.collect()
    assert alive() is None and kept() is None
    assert len(held) == 2 * (_lattice_top(consts) - consts.n0)


def test_undefined_graph_map_leaves_the_certificate_and_its_refusal(
        monkeypatch):
    """Where the graph map of the certificate's rows is undefined,
    separation_radius returns its constants and keeps no table, and
    build_branch_table raises the graph map's ValueError."""
    consts = separation_radius(nscl_system())

    def undefined(sys, z, Pp):
        raise ValueError("graph map undefined")

    monkeypatch.setattr(spectral, "graph_map", undefined)
    sys = nscl_system()
    assert separation_radius(sys) == consts
    assert sys not in spectral._BRANCH_TABLES._owners
    with pytest.raises(ValueError, match="graph map undefined"):
        build_branch_table(sys, consts, 8)


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
    # the system of test_branch_table_names_the_failing_mode: modes +-5
    # are refused, +-4 split
    sys = _exceptional_point_system()
    bad = _below_the_exceptional_point(sys)
    with pytest.raises(spectral.ContourError) as fresh:
        build_branch_table(_exceptional_point_system(), bad, 8)
    held = build_branch_table(sys, bad, 4)
    with pytest.raises(spectral.ContourError) as grown:
        build_branch_table(sys, bad, 8)
    assert str(grown.value) == str(fresh.value)
    assert str(fresh.value).startswith("modes n = [5, -5]: eigenvector ")
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


# ------------------------------------------------- projector robustness

def _split(mats, center, radius):
    """_projections of a stack onto its eigenvalues inside the circle
    |zeta - center| < radius."""
    w, V = np.linalg.eig(mats)
    return spectral._projections(V, (np.abs(w - center) < radius)[None])[0]


def _rel_err(P, ref):
    """||P - ref||_2 / max(1, ||ref||_2) per member."""
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


def _mp_projections(mats, keep, dps):
    """Riesz projections V[:, in] V^-1[in, :] from mpmath's eig at dps
    digits, onto the eigenvalues w with keep(w)."""
    import mpmath
    out = []
    with mpmath.workdps(dps):
        for M in mats:
            d = len(M)
            w, V = mpmath.eig(mpmath.matrix(M.tolist()))
            Vi = mpmath.inverse(V)
            P = mpmath.zeros(d, d)
            for j in range(d):
                if keep(complex(w[j])):
                    P += V[:, j] * Vi[j, :]
            out.append([[complex(P[a, b]) for b in range(d)]
                        for a in range(d)])
    return np.array(out)


def test_resolvent_sum_against_mpmath():
    # 40-digit Riesz projections of stacked non-normal members.  Each
    # factor of V diag(g) V^-1 carries a relative error of about
    # eps cond(V), so that bounds the error; the worst member sits at
    # 5 eps cond(V), with cond(V) up to 3e5
    center, radius = 0.3 - 0.2j, 0.8
    rng = np.random.default_rng(29)
    for d in (2, 3, 4):
        mats = _nonnormal_stack(rng, 4 if d == 4 else 3, d, 30.0, center,
                                radius)
        exact = _mp_projections(mats, lambda w: abs(w - center) < radius, 40)
        err = _rel_err(_split(mats, center, radius), exact)
        cond = np.linalg.cond(np.linalg.eig(mats)[1])
        assert np.all(err <= 16 * np.finfo(float).eps * cond)


@pytest.mark.parametrize("spread", [1e3, 1e5])
def test_contour_on_spread_diffusion_symbols(spread):
    # d2 = 2 with D = diag(1, spread): the parabolic eigenvalues of E(z)
    # spread over five decades outside the split circle.  Against 30
    # digits on every eighth mode the error stays below eps ||E(i/n)||_2
    # (0.16 of it at spread 1e5)
    sys = SystemMatrices(
        1, 2, A=np.array([[1.0, 0.5, -0.4], [0.3, 0.2, 0.6],
                          [-0.5, 0.1, 0.4]]),
        D=np.diag([1.0, spread]),
        K=np.array([[0.0, 0.2, 0.1], [0.1, 0.0, 0.3], [-0.2, 0.4, 0.0]]),
        M=np.eye(3))
    consts = separation_radius(sys)
    table = build_branch_table(sys, consts, 128)
    np.testing.assert_allclose(np.trace(table.Ph, axis1=1, axis2=2), 1.0,
                               rtol=0, atol=1e-12)
    rows = np.arange(0, len(table), 8)
    mats = eval_symbol(sys, 1j / table.modes[rows])
    exact = _mp_projections(mats, lambda w: abs(w) < consts.R, 30)
    assert np.all(_rel_err(table.Ph[rows], exact)
                  <= np.finfo(float).eps
                  * np.linalg.norm(mats, ord=2, axis=(1, 2)))


def _ill_conditioned_at(mats, member):
    """_split of mats raises a ContourError naming member alone."""
    with pytest.raises(spectral.ContourError, match=r"eigenvector condition"
                       ) as exc:
        _split(mats, 0.0, 1.0)
    assert exc.value.members == (member,)


@pytest.mark.parametrize("c", [1e50, 1e100, 1e160])
def test_contour_with_huge_entries(c):
    # [[1, c], [0, 3]] has cond(V) ~ c: refused, and only that member
    A = np.array([[1.0, c], [0.0, 3.0]], dtype=complex)
    fast = np.diag([0.2, 3.0]).astype(complex)
    _ill_conditioned_at(np.stack([fast, A, fast]), 1)
    P = _split(fast[None], 0.0, 1.0)
    assert np.array_equal(P[0], np.diag([1.0, 0.0]))
    # dense: every eigenvalue is far outside the circle, so P = 0
    mats = _random_stack(np.random.default_rng(5), 3, 4, c)
    P = _split(mats, 0.0, 1.0)
    assert np.all(np.isfinite(P)) and np.abs(P).max() == 0.0


def test_contour_with_huge_triangular_entries_at_d4():
    # off-diagonal entries of size 1e50 put cond(V) past any bound
    rng = np.random.default_rng(5)
    T = np.triu(1e50 * np.exp(2j * np.pi * rng.random((4, 4))), 1)
    T += np.diag([0.2, -0.3j, 2.5, -3.0])
    benign = np.diag([0.2, -0.3j, 2.5, -3.0]) + np.triu(np.ones((4, 4)), 1)
    _ill_conditioned_at(np.stack([benign, benign, T]), 2)
    P = _split(benign[None], 0.0, 1.0)[0]
    assert _rel_err(P @ P, P) <= 1e-13 and np.trace(P) == pytest.approx(2.0)


def test_mixed_stack_members_stop_on_their_own():
    # eigenvalue 1.02 sits just outside the unit circle and 0.2/3 far
    # from it: each member's projection is the one it gets alone
    slow = np.array([[0.0, 1.0], [0.0, 1.02]], dtype=complex)
    fast = np.diag([0.2, 3.0]).astype(complex)
    got = _split(np.stack([fast, slow]), 0.0, 1.0)
    assert got[0] == pytest.approx(np.diag([1.0, 0.0]), abs=1e-13)
    # projection onto the eigenvalue 0 of slow: v = e1, w = (1, -1/1.02)
    expect = np.array([[1.0, -1.0 / 1.02], [0.0, 0.0]])
    assert got[1] == pytest.approx(expect, abs=1e-10)
    np.testing.assert_allclose(got[0], _split(fast[None], 0.0, 1.0)[0],
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("c", [1e7, 1e12])
def test_contour_stop_is_relative_to_the_projection_norm(c):
    # ||P|| = c/2 and cond(V) ~ c: below DIAG_COND_MAX the error is
    # relative to ||P||; past it the member is refused
    A = np.array([[1.0, c], [0.0, 3.0]], dtype=complex)
    if c >= spectral.DIAG_COND_MAX:
        _ill_conditioned_at(A[None], 0)
        return
    P = _split(A[None], 1.0, 1.0)[0]
    exact = np.array([[1.0, -c / 2.0], [0.0, 0.0]])
    assert np.linalg.norm(P - exact, 2) <= 1e-10 * np.linalg.norm(exact, 2)


def test_singular_node_names_the_flattened_member():
    # a (2, 3) stack whose member [1, 0] has a defective eigenvalue pair:
    # the error names it by its flattened index 3
    mats = np.broadcast_to(np.diag([0.2, 3.0]).astype(complex),
                           (2, 3, 2, 2)).copy()
    mats[1, 0] = [[0.5, 1.0], [0.0, 0.5]]
    _ill_conditioned_at(mats, 3)
    P = _split(mats[0], 0.0, 1.0)
    assert np.array_equal(P, np.broadcast_to(np.diag([1.0, 0.0]), P.shape))


# ------------------------------------------------- several transport speeds

@pytest.mark.parametrize("speeds", [(1.0, -2.0), (0.0, 1.5)])
def test_multi_speed_table_matches_scalar_split(speeds):
    # (0, 1.5) has a zero speed: w/z, not w, picks the speed
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


def _drifting_pair_system(gap):
    """Speeds 1 and 1 + gap, with speed 1 coupled through the heat
    component: the real part of its w/z drifts up by about 2 / n^2, past
    the midpoint 1 + gap/2 at the lower modes."""
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0 + gap, 0.0],
                  [-4.0, 0.0, 3.0]])
    return SystemMatrices(2, 1, A=A, D=np.array([[2.0]]),
                          K=np.zeros((3, 3)), M=np.eye(3))


@pytest.mark.parametrize("gap, match, n0, rows", [
    # both eigenvalues nearest speed 1 + gap at |n| <= 6
    (0.1, r"modes n = \[4, -4, 5, -5, 6, -6\]: mu-groups not separated "
          r"at \|z\| = \[0.25, 0.25, 0.2, 0.2, 0.1667, 0.1667\]", 3, 6),
    # at gap 0.05 they are up to |n| = 8: a table from n0 = 7 names its
    # first rows
    (0.05, r"modes n = \[8, -8\]: mu-groups not separated at "
           r"\|z\| = \[0.125, 0.125\]; increase n0$", 7, 2)])
def test_branch_table_names_the_modes_of_a_speed_split_failure(gap, match, n0,
                                                               rows):
    sys = _drifting_pair_system(gap)
    assert validate_system(sys).ok
    consts = separation_radius(sys)
    # the split radius alone clears n0 = 3
    below = spectral.BranchConstants(r=consts.r, n0=n0, R=consts.R)
    projection_split(sys, 1j / np.arange(4, 13), consts.R)
    with pytest.raises(spectral.ContourError, match=match) as exc:
        build_branch_table(sys, below, 12)
    # the failing modes are the table's first rows
    assert exc.value.members == tuple(range(rows))
    # the certified cutoff (9 for both) also clears the per-speed split
    assert consts.n0 == 9
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


# ------------------------------------------------- random systems

def _random_system(rng):
    """A valid system after ROADMAP item 10's recipe: d1, d2 in {1, 2};
    speeds +-U[0.5, 2], gap above 0.2; Aprime = V diag(mu) V^-1 with
    V = I + 0.3 N, the rest of A 0.5 N and K 0.3 N; D = diag U[0.5, 2]
    plus a strictly upper 0.5 N; M = I (N standard normal)."""
    d1, d2 = (int(k) for k in rng.integers(1, 3, size=2))
    mus = rng.choice([-1.0, 1.0], d1) * rng.uniform(0.5, 2.0, d1)
    while d1 == 2 and abs(mus[0] - mus[1]) <= 0.2:
        mus = rng.choice([-1.0, 1.0], d1) * rng.uniform(0.5, 2.0, d1)
    d = d1 + d2
    V = np.eye(d1) + 0.3 * rng.standard_normal((d1, d1))
    A = 0.5 * rng.standard_normal((d, d))
    A[:d1, :d1] = V @ np.diag(mus) @ np.linalg.inv(V)
    D = (np.diag(rng.uniform(0.5, 2.0, d2))
         + np.triu(0.5 * rng.standard_normal((d2, d2)), 1))
    K = 0.3 * rng.standard_normal((d, d))
    return SystemMatrices(d1, d2, A=A, D=D, K=K, M=np.eye(d))


def test_random_systems_build_at_their_certified_cutoff():
    # every system builds n0 < |n| <= n0 + 32 with no ContourError, and
    # the stacked identities hold to 1e-12 (at most 1.6e-15 here)
    rng = np.random.default_rng(7)
    for k in range(40):
        sys = _random_system(rng)
        assert validate_system(sys).ok, k
        consts = separation_radius(sys)
        table = build_branch_table(sys, consts, consts.n0 + 32)
        zs = 1j / table.modes
        z = zs[:, None, None]
        E = eval_symbol(sys, zs)
        Ph = table.Ph
        close = dict(rtol=0, atol=1e-12, err_msg=str(k))
        np.testing.assert_allclose(Ph @ Ph, Ph, **close)
        np.testing.assert_allclose(Ph @ E, E @ Ph, **close)
        np.testing.assert_allclose(np.trace(Ph, axis1=1, axis2=2), sys.d1,
                                   **close)
        np.testing.assert_allclose(table.Phmu.sum(axis=0), Ph, **close)
        for mu, P, R in zip(table.speeds, table.Phmu, table.Rhmu):
            np.testing.assert_allclose(E @ P, mu * z * P + z * z * R,
                                       **close)


def test_lattice_certificate_clears_what_the_disk_misses():
    # system 62 of the random draw: its hyperbolic eigenvalue leaves the
    # circle |zeta| = R between two radial samples of the disk, which
    # alone certifies n0 = 1.  The lattice z = +-i/n raises n0 to 5
    rng = np.random.default_rng(7)
    sys = [_random_system(rng) for _ in range(63)][-1]
    r, n0, R = _separation_radius_loop(sys)
    assert n0 == 1
    with pytest.raises(spectral.ContourError, match=r"modes n = \[2, -2, 3, "
                       r"-3, 4, -4\]: eigenvalues not split"):
        build_branch_table(sys, spectral.BranchConstants(r, n0, R), 8)
    consts = separation_radius(sys)
    assert consts.n0 == 5
    assert len(build_branch_table(sys, consts, consts.n0 + 32)) == 64


# ------------------------------------------------- one transport speed

def test_one_speed_split_runs_no_contour_and_no_sum_check(monkeypatch):
    sys = nscl_system()
    consts = separation_radius(sys)
    zs = 1j / np.arange(consts.n0 + 1, 40)
    Ph, _ = projection_split(sys, zs, consts.R)
    called = []
    monkeypatch.setattr(np.linalg, "eig", lambda *a: called.append("eig"))
    monkeypatch.setattr(spectral, "_projections",
                        lambda *a: called.append("projections"))
    (mu, (Phmu, Rhmu)), = hyperbolic_branches(sys, zs, Ph).items()
    assert called == []
    assert np.array_equal(Phmu, Ph) and Phmu is not Ph


def test_graph_map_refuses_where_p11_reaches_one():
    sys = two_speed_system()
    Pp = np.zeros((3, 3, 3), dtype=complex)
    Pp[:, :2, :2] = np.diag([0.5, 0.999])
    Pp[1, 1, 1] = 1.0
    Pp[2, :2, :2] = [[0.7, 0.7], [0.0, 0.2]]
    with pytest.raises(ValueError, match="graph map undefined") as exc:
        graph_map(sys, np.array([1j, 2j, 3j]), Pp)
    assert "[2j, 3j]" in str(exc.value)
