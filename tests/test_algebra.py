import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusctrl.algebra import (SystemMatrices, TorusSubset, TWO_PI,
                               validate_system, minimal_time, kalman_rank,
                               cascade_transform, numerical_rank)
from torusctrl.dynamics import windowed_l2_norm
from conftest import (nscl_system, damped_wave_system, moving_wave_system,
                      random_state, state_stack, HALF_TORUS)


def _arcs_from_cuts(cuts):
    # pair sorted cut points into disjoint arcs
    cuts = sorted(cuts)
    return tuple((cuts[2 * i], cuts[2 * i + 1])
                 for i in range(len(cuts) // 2))


arcs_strategy = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.floats(0.0, TWO_PI - 1e-6), min_size=2 * k,
                       max_size=2 * k, unique=True).map(_arcs_from_cuts)
).filter(lambda arcs: all(b - a > 1e-6 for a, b in arcs))


class TestTorusSubset:

    def test_half_torus_geometry(self):
        assert HALF_TORUS.total_length == pytest.approx(np.pi)
        assert HALF_TORUS.largest_gap() == pytest.approx(np.pi)
        (a, b), = HALF_TORUS.gap_intervals()
        assert (a, b) == pytest.approx((np.pi, TWO_PI))

    def test_two_arcs_gap_wraps(self):
        om = TorusSubset(((0.5, 1.0), (4.0, 5.0)))
        # complement pieces: (1.0, 4.0) and (5.0, 2*pi + 0.5)
        assert om.largest_gap() == pytest.approx(3.0)

    @given(arcs_strategy)
    @settings(max_examples=50, deadline=None)
    def test_indicator_matches_arcs(self, arcs):
        om = TorusSubset(arcs)
        xs = TWO_PI * np.arange(512) / 512
        ind = om.indicator(xs)
        expect = np.zeros(512, dtype=bool)
        for a, b in om.arcs:
            expect |= (xs >= a) & (xs < b)
        # boundary points may land either way; interiors must agree
        interior = np.ones(512, dtype=bool)
        for a, b in om.arcs:
            interior &= (np.abs(xs - a) > 1e-9) & (np.abs(xs - b) > 1e-9)
        assert np.array_equal(ind.astype(bool)[interior], expect[interior])

    @given(arcs_strategy)
    @settings(max_examples=50, deadline=None)
    def test_gaps_complement_length(self, arcs):
        om = TorusSubset(arcs)
        gap_len = sum(b - a for a, b in om.gap_intervals())
        assert om.total_length + gap_len == pytest.approx(TWO_PI)

    def test_wrapped_arc_matches_its_split_form(self):
        """(5, 7) wraps past 2 pi: it is (0, 7 - 2 pi) and (5, 2 pi) for
        the indicator, the largest gap, nscl's minimal time and the
        windowed norm."""
        wrapped = TorusSubset(((5.0, 7.0),))
        split = TorusSubset(((0.0, 7.0 - TWO_PI), (5.0, TWO_PI)))
        assert wrapped.arcs == ((5.0, 7.0),)
        xs = TWO_PI * np.arange(1000) / 1000
        ind = wrapped.indicator(xs)
        assert np.array_equal(ind, split.indicator(xs))
        assert ind[xs < 7.0 - TWO_PI].all() and ind[xs >= 5.0].all()
        assert not ind[(xs >= 7.0 - TWO_PI) & (xs < 5.0)].any()
        assert wrapped.largest_gap() == pytest.approx(split.largest_gap(),
                                                      rel=1e-15)
        assert minimal_time(nscl_system(), wrapped) == pytest.approx(
            minimal_time(nscl_system(), split), rel=1e-15)
        rng = np.random.default_rng(5)
        ts = np.linspace(0.0, 1.0, 9)
        states = [random_state(rng, 8, 2) for _ in ts]
        stack = state_stack(states)
        assert windowed_l2_norm(ts, *stack, (0.0, 1.0), wrapped) == \
            windowed_l2_norm(ts, *stack, (0.0, 1.0), split)

    def test_shrunk_is_smaller_subset(self):
        small = HALF_TORUS.shrunk(0.2)
        assert small.total_length < HALF_TORUS.total_length
        xs = np.linspace(0, TWO_PI, 700, endpoint=False)
        inside = small.indicator(xs).astype(bool)
        assert np.all(HALF_TORUS.indicator(xs).astype(bool)[inside])

    def test_degenerate_arc_rejected(self):
        with pytest.raises(ValueError):
            TorusSubset(((1.0, 1.0),))


class TestSystemMatrices:

    def test_blocks(self):
        sys = nscl_system(vbar=2.0, rhobar=3.0, a=1.0, gamma=2.0, mu=6.0)
        assert sys.d == 2 and sys.m == 2
        assert sys.Aprime == pytest.approx(np.array([[2.0]]))
        assert sys.A12 == pytest.approx(np.array([[3.0]]))
        assert sys.B == pytest.approx(np.diag([0.0, 2.0]))

    def test_builtin_scenarios_validate(self):
        for sys in (nscl_system(), damped_wave_system(1.0),
                    moving_wave_system(1.0, 1.0)):
            assert validate_system(sys).ok

    def test_h3_violated_by_nonpositive_diffusion(self):
        sys = SystemMatrices(1, 1, A=np.zeros((2, 2)),
                             D=np.array([[-1.0]]),
                             K=np.zeros((2, 2)), M=np.eye(2))
        rep = validate_system(sys)
        assert not rep.h3 and not rep.ok

    def test_h4_violated_by_rotational_transport(self):
        sys = SystemMatrices(2, 1,
                             A=np.diag([0.0, 0.0, 1.0])
                             + np.diag([1.0], 2) - np.diag([1.0], -2)
                             * 0.0,
                             D=np.array([[1.0]]),
                             K=np.zeros((3, 3)), M=np.eye(3))
        # complex spectrum in the transport block
        A = np.zeros((3, 3))
        A[0, 1], A[1, 0] = 1.0, -1.0
        sys = SystemMatrices(2, 1, A=A, D=np.array([[1.0]]),
                             K=np.zeros((3, 3)), M=np.eye(3))
        rep = validate_system(sys)
        assert not rep.h4


class TestMinimalTime:

    def test_nscl_half_torus(self):
        assert minimal_time(nscl_system(vbar=2.0), HALF_TORUS) == \
            pytest.approx(np.pi / 2.0)

    def test_zero_speed_gives_infinity(self):
        assert minimal_time(damped_wave_system(1.0), HALF_TORUS) == np.inf

    def test_full_cover_gives_zero(self):
        om = TorusSubset(((0.0, TWO_PI),))
        assert minimal_time(nscl_system(), om) == 0.0


class TestKalman:

    def test_moving_wave_coupling_satisfied(self):
        sys = moving_wave_system()
        rank, ok = kalman_rank(sys.K22, sys.K21)
        assert ok and rank == 1

    def test_severed_coupling_violated(self):
        rank, ok = kalman_rank(np.array([[0.0]]), np.array([[0.0]]))
        assert not ok and rank == 0

    @given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rank_bounded_by_dimension(self, d2, d1, seed):
        rng = np.random.default_rng(seed)
        K22 = rng.standard_normal((d2, d2))
        K21 = rng.standard_normal((d2, d1))
        rank, ok = kalman_rank(K22, K21)
        assert 0 <= rank <= d2
        assert ok == (rank == d2)

    @given(st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_cascade_transform_defining_relations(self, d2, seed):
        rng = np.random.default_rng(seed)
        K22 = rng.standard_normal((d2, d2))
        K21 = rng.standard_normal((d2, 1))
        if not kalman_rank(K22, K21)[1]:
            return
        form = cascade_transform(K22, K21)
        assert numerical_rank(form.P) == d2
        assert K22 @ form.P == pytest.approx(form.P @ form.Khat22)
        assert sum(form.block_sizes) == d2

    def test_cascade_transform_multi_input(self):
        """Two input columns: the chain of column 0 has length 2 under
        diag(1, 2, 3), and column 1 completes the basis."""
        K22 = np.diag([1.0, 2.0, 3.0])
        K21 = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        form = cascade_transform(K22, K21)
        assert form.block_sizes == (2, 1)
        assert form.column_indices == (0, 1)
        assert np.array_equal(form.P, np.array([[1, 1, 1], [1, 2, 0],
                                                [0, 0, 1]]))
        assert K22 @ form.P == pytest.approx(form.P @ form.Khat22,
                                             abs=1e-14)
        assert form.P @ form.Khat21 == pytest.approx(K21, abs=1e-14)
