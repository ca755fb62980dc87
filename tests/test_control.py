import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from torusctrl.algebra import (PreconditionError, TorusSubset, TWO_PI,
                              minimal_time)
from torusctrl import control as ctl
from torusctrl.control import (smoothstep, window_fn, rho1, plateau_weight,
                               cutoff_eta, transport_control,
                               parabolic_moment_control, lebeau_robbiano,
                               hum_gramian_control, full_pipeline)
from torusctrl.dynamics import (evolve, project_branch, FourierState,
                                ControlSignal, mode_generator, synth_grid,
                                ModeBasis, EIG_COND_MAX, gauss_legendre)
from torusctrl import harness, spectral
from conftest import (nscl_system, moving_wave_system, two_speed_system,
                      decoupled_heat_system, random_state, HALF_TORUS)


class TestSmoothBits:

    @given(st.floats(-2.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_smoothstep_range_and_endpoints(self, u):
        v = smoothstep(np.array([u]))[0]
        assert 0.0 <= v <= 1.0
        if u <= 0:
            assert v == 0.0
        if u >= 1:
            assert v == 1.0

    def test_window_fn_plateau_and_support(self):
        xs = np.linspace(-1.0, 4.0, 400)
        v = window_fn(xs, 0.0, 3.0, 0.5)
        assert np.all(v[(xs >= 0.5) & (xs <= 2.5)] == 1.0)
        assert np.all(v[(xs <= 0.0) | (xs >= 3.0)] == 0.0)
        assert np.all((0.0 <= v) & (v <= 1.0))

    def test_rho1_vanishes_flat_at_ends(self):
        assert rho1(np.array([0.0]))[0] == 0.0
        assert rho1(np.array([1.0]))[0] == 0.0
        assert rho1(np.array([1e-4]))[0] < 1e-200
        assert rho1(np.array([0.5]))[0] > 0.1

    def test_plateau_weight_support_and_coeff(self):
        w = plateau_weight(HALF_TORUS)
        xs = np.linspace(0, TWO_PI, 2000, endpoint=False)
        vals = w(xs)
        # supported in omega, equal to 1 well inside
        assert np.all(vals[HALF_TORUS.indicator(xs) == 0.0] == 0.0)
        mid = (xs > 0.35 * np.pi) & (xs < 0.65 * np.pi)
        assert np.all(vals[mid] == 1.0)
        # coefficients use the (1/2 pi) Fourier normalization
        quad = np.sum(vals) / 2000
        assert w.toeplitz([0], [0])[0, 0] == pytest.approx(quad, rel=1e-6)

    def test_plateau_weight_built_once_per_omega(self):
        w = plateau_weight(HALF_TORUS)
        assert plateau_weight(TorusSubset(((0.0, np.pi),))) is w
        # a weight compares by identity, and nothing in it can change
        assert dataclasses.replace(w) != w
        with pytest.raises(ValueError, match="read-only"):
            w.coeffs[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.coeffs = np.zeros_like(w.coeffs)


class TestTransport:

    def test_cutoff_eta_rejects_short_horizon(self):
        with pytest.raises(ValueError):
            cutoff_eta((0.0, np.pi), Tprime=3.0, mu=1.0, delta=0.1)

    def test_cutoff_eta_rejects_zero_speed(self):
        with pytest.raises(ValueError):
            cutoff_eta((0.0, np.pi), Tprime=5.0, mu=0.0, delta=0.1)

    @pytest.mark.parametrize("arc, Tprime, mu, delta, match", [
        ((0.0, TWO_PI), 5.0, 1.0, 0.1, "single strict arc"),
        ((0.0, np.pi), 5.0, 0.0, 0.1, "nonzero"),
        ((0.0, np.pi), 3.0, 1.0, 0.1, "too short"),
        ((0.0, np.pi), 5.0, 1.0, 1.6, "delta too large")],
        ids=["not-one-arc", "zero-speed", "short-horizon", "large-delta"])
    def test_cutoff_eta_input_refusals_are_preconditions(self, arc, Tprime,
                                                         mu, delta, match):
        with pytest.raises(PreconditionError, match=match):
            cutoff_eta(arc, Tprime=Tprime, mu=mu, delta=delta)

    def test_cutoff_eta_small_q_is_a_numerical_refusal(self):
        # T' = 3.2 just covers the gap pi, but delta = 0.5 trims the box so
        # far that some characteristics miss it: Q_x vanishes there
        with pytest.raises(ValueError, match=r"min \|Q_x\|") as info:
            cutoff_eta((0.0, np.pi), Tprime=3.2, mu=1.0, delta=0.5)
        assert not isinstance(info.value, PreconditionError)

    def test_q_spline_matches_exact_integral(self):
        eta = cutoff_eta((0.0, np.pi), Tprime=5.0, mu=1.0, delta=0.1)
        xs = np.random.default_rng(0).uniform(0, TWO_PI, 40)
        assert eta.Q(xs) == pytest.approx(eta._Q_exact(xs), abs=1e-9)
        assert eta.min_Q > 1e-3

    def test_transport_steering_against_characteristics(self):
        rng = np.random.default_rng(1)
        mu, Tp = 1.0, 5.0
        eta = cutoff_eta((0.0, np.pi), Tprime=Tp, mu=mu, delta=0.1)
        ns = np.arange(-6, 7)
        a0 = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        aT = rng.standard_normal(13) + 1j * rng.standard_normal(13)

        def scal0(x):
            return np.exp(1j * np.outer(np.atleast_1d(x), ns)) @ a0

        def scalT(x):
            return np.exp(1j * np.outer(np.atleast_1d(x), ns)) @ aT

        u = transport_control(scal0, scalT, mu, HALF_TORUS, Tp, eta)
        # characteristics: f(T', x) = f0(x - mu T') + int u(s, x-mu(T'-s))
        gx, gw = np.polynomial.legendre.leggauss(10)
        edges = np.linspace(0.0, Tp, 65)
        xs = np.linspace(0, TWO_PI, 48, endpoint=False)
        reached = scal0(xs - mu * Tp)
        for a, b in zip(edges[:-1], edges[1:]):
            ss = 0.5 * (a + b) + 0.5 * (b - a) * gx
            for s, w in zip(ss, 0.5 * (b - a) * gw):
                reached = reached + w * u(s, xs - mu * (Tp - s))
        err = np.max(np.abs(reached - scalT(xs)))
        assert err < 1e-8
        # control vanishes outside the omega box
        out_x = np.array([3.5, 4.5, 6.0])
        assert np.max(np.abs(u(2.5, out_x))) == 0.0
        assert np.max(np.abs(u(-0.05, xs))) == 0.0
        assert np.max(np.abs(u(Tp + 0.05, xs))) == 0.0


class TestMomentControl:

    def test_decoupled_heat_nulls_parabolic_band(self):
        sys = decoupled_heat_system()
        consts = spectral.separation_radius(sys, n0_override=1)
        branches = spectral.build_branch_table(sys, consts, 8)
        rng = np.random.default_rng(2)
        f0 = random_state(rng, 8, 2)
        f0p = project_branch(f0, branches, 1, "p")
        u, mp = parabolic_moment_control(sys, branches, f0p, 1.0, 4,
                                         HALF_TORUS, 1)
        fT = evolve(sys, f0p, u, 1.0)
        fTp = project_branch(fT, branches, 1, "p", nband=4)
        assert fTp.norm() < 1e-8
        # Gram is Hermitian positive definite after scaling
        assert mp.gram == pytest.approx(mp.gram.conj().T, abs=1e-12)
        assert mp.min_eig > 0.0
        assert np.isfinite(mp.cond_scaled)

    def test_nscl_parabolic_band(self, nscl_branches24):
        sys, consts, branches = nscl_branches24
        rng = np.random.default_rng(3)
        f0 = random_state(rng, 24, 2)
        f0p = project_branch(f0, branches, consts.n0, "p")
        u, mp = parabolic_moment_control(sys, branches, f0p, 1.0, 8,
                                         HALF_TORUS, consts.n0)
        fT = evolve(sys, f0p, u, 1.0)
        fTp = project_branch(fT, branches, consts.n0, "p", nband=8)
        assert fTp.norm() < 1e-8

    def test_overconditioned_gram_refused(self, nscl_branches24):
        sys, consts, branches = nscl_branches24
        rng = np.random.default_rng(4)
        f0p = project_branch(random_state(rng, 24, 2), branches,
                             consts.n0, "p")
        with pytest.raises(np.linalg.LinAlgError,
                           match="Gram condition"):
            parabolic_moment_control(sys, branches, f0p, 1.0, 8,
                                     HALF_TORUS, consts.n0,
                                     cond_max=1e1)

    def test_band_past_the_state_refused(self, nscl_branches24):
        # a state at nmax 12 has no modes for the band 3 < |n| <= 40
        sys, consts, branches = nscl_branches24
        f0p = project_branch(random_state(np.random.default_rng(4), 12, 2),
                             branches, consts.n0, "p")
        with pytest.raises(PreconditionError, match=r"parabolic target band "
                           r"3 < \|n\| <= 40 reaches past the state's "
                           r"nmax = 12"):
            parabolic_moment_control(sys, branches, f0p, 1.0, 40,
                                     HALF_TORUS, consts.n0)

    def test_gram_and_rhs_match_entry_loop(self, nscl_branches24):
        # the moment block's Gram and right-hand side against their
        # definitions, one entry pair at a time with dense expm
        sys, consts, branches = nscl_branches24
        rng = np.random.default_rng(14)
        f0p = project_branch(random_state(rng, 24, 2), branches,
                             consts.n0, "p")
        T, N = 1.0, 6
        _, mp = parabolic_moment_control(sys, branches, f0p, T, N,
                                         HALF_TORUS, consts.n0)
        taus, wts = gauss_legendre(np.linspace(0.0, T, 129))
        ss = T - taus
        d1, d2 = sys.d1, sys.d2
        fam = {}  # (n, i) -> observations C(n) e^{-s n^2 E2(n)} e_i, (Q, m)
        for r, n in enumerate(int(k) for k in mp.modes):
            C = ctl.observation_matrix(sys, branches, [n])[0]
            for i in range(d2):
                fam[n, i] = np.array([
                    C @ scipy.linalg.expm(-s * n * n * mp.E2[r])[:, i]
                    for s in ss])
        keys = list(fam)
        ref = np.zeros((len(keys), len(keys)), dtype=complex)
        for a, (n, i) in enumerate(keys):
            for b, (k, j) in enumerate(keys):
                ref[a, b] = mp.weight.toeplitz([n], [k])[0, 0] * np.sum(
                    wts * rho1(ss / T)
                    * np.sum(fam[n, i].conj() * fam[k, j], axis=1))
        assert np.linalg.norm(mp.gram - ref) <= 1e-12 * np.linalg.norm(ref)

        rhs = np.concatenate([
            -scipy.linalg.expm(-T * n * n * mp.E2[r]).conj().T
            @ (branches.G[branches.rows(n)].conj().T @ f0p.get(n)[:d1]
               + f0p.get(n)[d1:])
            for r, n in enumerate(int(k) for k in mp.modes)])
        np.testing.assert_allclose(mp.rhs, rhs, rtol=1e-12, atol=0)


class TestLebeauRobbiano:

    def test_stage_chain_contracts(self):
        sys = decoupled_heat_system()
        consts = spectral.separation_radius(sys, n0_override=1)
        nmax = 8
        branches = spectral.build_branch_table(sys, consts, nmax)
        rng = np.random.default_rng(5)
        f0p = project_branch(random_state(rng, nmax, 2), branches, 1, "p")
        controls, report = lebeau_robbiano(
            sys, branches, f0p, T=2.0, delta=0.25, rho=0.5, nmax=nmax,
            n0=1, omega=HALF_TORUS)
        norms = [s["norm_after"] for s in report["stages"]]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert report["final_parabolic_norm"] < 1e-6
        assert controls

    @pytest.mark.parametrize("delta, rho, nmax, match", [
        (0.0, 0.5, 8, "delta"), (1.0, 0.5, 8, "delta"),
        (0.25, 0.0, 8, "rho"), (0.25, 1.0, 8, "rho"),
        (0.25, 0.5, 1, "empty schedule")],
        ids=["delta-zero", "delta-half-T", "rho-zero", "rho-one",
             "empty"])
    def test_schedule_refusals_are_preconditions(self, delta, rho, nmax,
                                                 match):
        with pytest.raises(PreconditionError, match=match):
            ctl.LRSchedule.build(2.0, delta, rho, nmax)

    def test_band_past_the_datum_is_refused_before_any_stage(
            self, monkeypatch):
        """An nmax-12 datum with nmax = 16: the last stage's band
        1 < |n| <= 16 reaches past the state, and the refusal comes
        before the first moment solve."""
        sys = decoupled_heat_system()
        consts = spectral.separation_radius(sys, n0_override=1)
        branches = spectral.build_branch_table(sys, consts, 16)
        f0p = project_branch(random_state(np.random.default_rng(3), 12, 2),
                             branches, 1, "p")
        calls = []
        monkeypatch.setattr(ctl, "parabolic_moment_control",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(PreconditionError,
                           match=r"1 < \|n\| <= 16 reaches past the "
                                 r"state's nmax = 12"):
            lebeau_robbiano(sys, branches, f0p, T=4.0, delta=0.5, rho=0.5,
                            nmax=16, n0=1, omega=HALF_TORUS)
        assert calls == []

    def test_passive_stage_below_the_cutoff(self):
        # nscl has n0 = 3: stage 1 (N = 2) controls nothing and only lets
        # the state decay; stages 2-4 solve moment problems
        sys = nscl_system()
        consts = spectral.separation_radius(sys)
        nmax, T, delta = 16, 4.0, 0.5
        branches = spectral.build_branch_table(sys, consts, nmax)
        f0p = project_branch(random_state(np.random.default_rng(4), nmax, 2),
                             branches, consts.n0, "p")
        controls, report = lebeau_robbiano(
            sys, branches, f0p, T=T, delta=delta, rho=0.5, nmax=nmax,
            n0=consts.n0, omega=HALF_TORUS)
        stages = report["schedule"].stages
        assert [s[1] for s in stages] == [2, 4, 8, 16]
        assert [s["N"] for s in report["stages"]] == [4, 8, 16]
        assert len(controls) == 3
        # norms: after the free decay to delta, then one per stage, the
        # passive one included
        norms = report["norms"]
        assert len(norms) == len(stages) + 1
        free = evolve(sys, f0p, None, delta + 2.0 * stages[0][2])
        assert norms[1] == pytest.approx(
            project_branch(free, branches, consts.n0, "p").norm(),
            rel=1e-10)
        assert norms[1] < norms[0]
        assert report["final_parabolic_norm"] < 1e-25

    @pytest.mark.parametrize("system", [decoupled_heat_system, nscl_system])
    def test_merged_controls_replay_the_final_state(self, system):
        """The returned controls, merged and replayed from the datum by
        evolve, reach the report's final state."""
        sys = system()
        consts = spectral.separation_radius(sys)
        nmax, T = 12, 4.0
        branches = spectral.build_branch_table(sys, consts, nmax)
        f0p = project_branch(random_state(np.random.default_rng(41), nmax,
                                          2), branches, consts.n0, "p")
        controls, report = lebeau_robbiano(
            sys, branches, f0p, T=T, delta=T / 8.0, rho=0.5, nmax=nmax,
            n0=consts.n0, omega=HALF_TORUS)
        u = ctl.merge_controls(controls, nmax, sys.m, T)
        fT = evolve(sys, f0p, u, T)
        assert ((fT - report["final_state"]).norm()
                <= 1e-12 * f0p.norm())

    def test_stage_refusal_names_the_stage(self, monkeypatch):
        """A moment solve that refuses is re-raised naming its stage's
        level and band, chained to the refusal."""
        monkeypatch.setattr(ctl, "parabolic_moment_control",
                            functools.partial(parabolic_moment_control,
                                              cond_max=1.0))
        sys = decoupled_heat_system()
        consts = spectral.separation_radius(sys, n0_override=1)
        branches = spectral.build_branch_table(sys, consts, 8)
        f0p = project_branch(random_state(np.random.default_rng(5), 8, 2),
                             branches, 1, "p")
        with pytest.raises(np.linalg.LinAlgError, match=r"^stage 1 "
                           r"\(N = 2\): Gram condition .* beyond 1e\+00"
                           ) as info:
            lebeau_robbiano(sys, branches, f0p, T=2.0, delta=0.25, rho=0.5,
                            nmax=8, n0=1, omega=HALF_TORUS)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert str(info.value).endswith(str(info.value.__cause__))

    @staticmethod
    def _stages(monkeypatch, system, nmax, n0_override=None, seed=41):
        """lebeau_robbiano at T = 4, delta = T/8 on the half torus, with
        each moment solve's (stage state, window, control, problem)."""
        sys = system()
        consts = spectral.separation_radius(sys, n0_override=n0_override)
        branches = spectral.build_branch_table(sys, consts, nmax)
        f0p = project_branch(random_state(np.random.default_rng(seed), nmax,
                                          2), branches, consts.n0, "p")
        solve, solves = ctl.parabolic_moment_control, []

        def spy(sys, branches, state, Tl, *args, **kwargs):
            u, prob = solve(sys, branches, state, Tl, *args, **kwargs)
            solves.append((state, Tl, u, prob))
            return u, prob

        monkeypatch.setattr(ctl, "parabolic_moment_control", spy)
        _, report = lebeau_robbiano(
            sys, branches, f0p, T=4.0, delta=0.5, rho=0.5, nmax=nmax,
            n0=consts.n0, omega=HALF_TORUS)
        return sys, branches, consts.n0, report, solves

    @pytest.mark.parametrize("system, nmax, n0, active", [
        (decoupled_heat_system, 12, 1, 3), (decoupled_heat_system, 32, 1, 5),
        (nscl_system, 16, None, 3)],
        ids=["heat-12", "heat-32", "nscl-16"])
    def test_stage_reaches_free_plus_map_of_its_multipliers(
            self, monkeypatch, system, nmax, n0, active):
        """Each active stage's state at the end of its window, F s + L lam,
        against evolve of the stage's own control from the stage state, to
        1e-14 of sum_j |lam_j| |L_j| (the cancellation roundoff of the
        sum).  nscl's first stage (N = 2 <= n0 = 3) is passive."""
        sys, branches, n0, report, solves = self._stages(
            monkeypatch, system, nmax, n0_override=n0)
        assert len(solves) == len(report["stages"]) == active
        for state, Tl, u, prob in solves:
            op = ctl._joint_operator(sys, branches, n0, [prob.block], Tl,
                                     prob.weight, state.nmax)
            reached = ctl._reached(prob.free, op, prob.lam)
            L = op.control_map
            ref = evolve(sys, state, u, Tl)
            scale = np.sum(np.abs(prob.lam) * np.linalg.norm(L, axis=0))
            assert (reached - ref).norm() <= 1e-14 * scale
            assert prob.block == ctl._moment_block(sys, prob.N, Tl)


class TestHUM:

    def test_short_window_warns(self, nscl_branches24):
        sys, consts, branches = nscl_branches24
        rng = np.random.default_rng(6)
        fstar = random_state(rng, 24, 2)
        Tstar = np.pi
        with pytest.warns(UserWarning, match="near-singular"):
            hum_gramian_control(sys, branches, consts.n0,
                                ("hyperbolic", 8), fstar, 1.5 * np.pi,
                                HALF_TORUS, window=(0.0, 0.5 * Tstar),
                                Tstar=Tstar, refuse=False)

    @pytest.mark.parametrize("kind", ["hyperbolic", "parabolic"])
    def test_empty_band_refused(self, nscl_branches24, kind):
        sys, consts, branches = nscl_branches24
        fstar = random_state(np.random.default_rng(7), 24, 2)
        with pytest.raises(ValueError, match=rf"{kind} target band "
                           r"3 < \|n\| <= 3 holds no mode"):
            hum_gramian_control(sys, branches, consts.n0,
                                (kind, consts.n0), fstar, 1.0, HALF_TORUS)

    def test_report_energy_nonnegative(self, nscl_branches24):
        sys, consts, branches = nscl_branches24
        rng = np.random.default_rng(7)
        fstar = random_state(rng, 24, 2)
        u, rep = hum_gramian_control(sys, branches, consts.n0, ("low",),
                                     fstar, 1.0, HALF_TORUS,
                                     window=(0.8, 1.0))
        assert rep.energy >= -1e-10
        assert rep.gram == pytest.approx(rep.gram.conj().T, abs=1e-10)
        assert rep.target_dim == 2 * (2 * consts.n0 + 1)

    def test_report_headroom(self, nscl_branches24):
        sys, consts, branches = nscl_branches24
        fstar = random_state(np.random.default_rng(7), 24, 2)
        _, rep = hum_gramian_control(sys, branches, consts.n0, ("low",),
                                     fstar, 1.0, HALF_TORUS,
                                     window=(0.8, 1.0))
        assert rep.cond_headroom_log10 == np.log10(ctl.COND_MAX / rep.cond)
        assert rep.cond_headroom_log10 > 0.0

    @pytest.mark.parametrize("window", [(0.8, 1.5), (-0.5, 1.0),
                                        (1.0, 0.5), (0.5, 0.5)])
    def test_window_outside_the_horizon_refused(self, nscl_branches24,
                                                window):
        # a window past T, before 0, reversed or empty: no control
        sys, consts, branches = nscl_branches24
        fstar = random_state(np.random.default_rng(7), 10, 2)
        with pytest.raises(ValueError, match=r"block windows .* do not "
                           r"satisfy 0 <= t0 < t1 <= T = 1.0"):
            hum_gramian_control(sys, branches, consts.n0, ("low",), fstar,
                                1.0, HALF_TORUS, window=window)


class TestPipeline:

    def test_nscl_null_control(self):
        sys = nscl_system()
        consts = spectral.separation_radius(sys)
        nmax = 12
        branches = spectral.build_branch_table(sys, consts, nmax)
        rng = np.random.default_rng(8)
        f0 = random_state(rng, nmax, 2)
        Tstar = np.pi
        u, cert = full_pipeline(sys, branches, consts.n0, f0,
                                1.5 * Tstar, 1.25 * Tstar, HALF_TORUS,
                                Tstar=Tstar)
        assert cert["relative"] < 1e-6
        assert "stalled" not in cert["path"]

    def test_bad_time_ordering_rejected(self, nscl_branches24):
        sys, consts, branches = nscl_branches24
        rng = np.random.default_rng(9)
        f0 = random_state(rng, 24, 2)
        with pytest.raises(ValueError):
            full_pipeline(sys, branches, consts.n0, f0, 1.0, 2.0,
                          HALF_TORUS, Tstar=np.pi)

    @staticmethod
    def _spy_pipeline(monkeypatch, max_sweeps):
        """full_pipeline on a datum of the benchmark's pipeline workload
        (nscl, nmax 10), counting its evolves that carry a control."""
        scn = harness.load_scenario("nscl(1, 1, 1, 2, 1)",
                                    experiment="pipeline", nmax=10)
        consts = spectral.separation_radius(scn.sys)
        branches = spectral.build_branch_table(scn.sys, consts, scn.nmax)
        f0 = random_state(np.random.default_rng(41), scn.nmax, scn.sys.d)
        controlled = []

        def spy(sys, f, u=None, *args, **kwargs):
            controlled.append(u is not None)
            return evolve(sys, f, u, *args, **kwargs)

        monkeypatch.setattr(ctl, "evolve", spy)
        _, cert = full_pipeline(scn.sys, branches, consts.n0, f0, scn.T,
                                scn.Tprime, scn.omega, Tstar=scn.Tstar,
                                max_sweeps=max_sweeps)
        return sum(controlled), cert

    def test_early_stop_certifies_last_sweep(self, monkeypatch):
        # one free sweep, one joint solve, and a second sweep that
        # converges, checked as F f0 + L lambda with no controlled
        # evolve: the certificate reuses that sweep's state
        n, cert = self._spy_pipeline(monkeypatch, 5)
        assert [s["sweep"] for s in cert["sweeps"]] == [0, 1]
        assert n == 0
        assert cert["relative"] == cert["sweeps"][-1]["relative_residual"]
        assert cert["relative"] <= 1e-9

    def test_exhausted_sweeps_check_last_correction(self, monkeypatch):
        # max_sweeps = 1: the joint solve's control is emitted after the
        # only sweep, so F f0 + L lambda must check it, again with no
        # controlled evolve
        n, cert = self._spy_pipeline(monkeypatch, 1)
        assert len(cert["sweeps"]) == 1 and n == 0
        assert cert["sweeps"][0]["relative_residual"] > 1e-6
        assert cert["relative"] <= 1e-9

    def test_sweep_log_splits_the_state_into_its_branches(self):
        # sweep 0 logs the free state at T: its parabolic norm, taken as
        # fT - h - low, is the Pp projection's to roundoff
        scn = harness.load_scenario("nscl(1, 1, 1, 2, 1)",
                                    experiment="pipeline", nmax=10)
        consts = spectral.separation_radius(scn.sys)
        n0 = consts.n0
        branches = spectral.build_branch_table(scn.sys, consts, scn.nmax)
        f0 = random_state(np.random.default_rng(41), scn.nmax, scn.sys.d)
        _, cert = full_pipeline(scn.sys, branches, n0, f0, scn.T,
                                scn.Tprime, scn.omega, Tstar=scn.Tstar)
        free = evolve(scn.sys, f0, None, scn.T)
        log = cert["sweeps"][0]
        assert log["p"] == pytest.approx(
            project_branch(free, branches, n0, "p").norm(), rel=1e-12)
        assert log["h"] == project_branch(free, branches, n0, "h").norm()

    @pytest.mark.parametrize("nmax, seed", [(10, 41), (12, 0)])
    def test_sweep_log_is_the_state_operations_formula(self, monkeypatch,
                                                       nmax, seed):
        # every logged norm, rebuilt from the state the sweep checked
        # with FourierState operations: p is the norm of the state
        # fT + h * (-1.0) + low * (-1.0); nscl at nmax 12, seed 0, logs
        # three sweeps
        scn = harness.load_scenario("nscl(1, 1, 1, 2, 1)",
                                    experiment="pipeline", nmax=nmax)
        consts = spectral.separation_radius(scn.sys)
        n0 = consts.n0
        branches = spectral.build_branch_table(scn.sys, consts, nmax)
        f0 = random_state(np.random.default_rng(seed), nmax, scn.sys.d)
        checked, reached = [], ctl._reached

        def spy(*args):
            checked.append(reached(*args))
            return checked[-1]

        monkeypatch.setattr(ctl, "_reached", spy)
        _, cert = full_pipeline(scn.sys, branches, n0, f0, scn.T,
                                scn.Tprime, scn.omega, Tstar=scn.Tstar)
        assert len(cert["sweeps"]) == (2 if nmax == 10 else 3)
        for log, fT in zip(cert["sweeps"], checked):
            h = project_branch(fT, branches, n0, "h")
            low = ctl.project_low(fT, n0)
            assert log["h"] == h.norm() and log["low"] == low.norm()
            assert log["p"] == (fT + h * (-1.0) + low * (-1.0)).norm()
            assert log["relative_residual"] == fT.norm() / f0.norm()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_near_full_torus_is_one_joint_mechanism(self, monkeypatch,
                                                    seed):
        # omega = (0, 6.0) leaves a parabolic mass at T' far above
        # roundoff; the joint parabolic block alone removes it
        omega = TorusSubset(((0.0, 6.0),))
        scn = harness.Scenario("nscl", nscl_system(), omega, nmax=12,
                               experiment="pipeline")
        assert (scn.T, scn.Tprime) == (1.5 * scn.Tstar, 1.25 * scn.Tstar)
        consts = spectral.separation_radius(scn.sys)
        branches = spectral.build_branch_table(scn.sys, consts, scn.nmax)
        f0 = random_state(np.random.default_rng(seed), scn.nmax, 2)
        calls = {"evolve": 0, "lebeau_robbiano": 0}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(ctl, name, wrapped)

        spy("evolve", evolve)
        spy("lebeau_robbiano", lebeau_robbiano)
        _, cert = full_pipeline(scn.sys, branches, consts.n0, f0, scn.T,
                                scn.Tprime, omega, Tstar=scn.Tstar)
        # one free evolution; the sweeps are checked through L
        assert calls == {"evolve": 1, "lebeau_robbiano": 0}
        assert len(cert["sweeps"]) == 2
        assert cert["relative"] <= 1e-9
        assert cert["path"] == "joint-sweeps" and "lr" not in cert

    def test_control_vanishes_outside_omega(self):
        # the one returned control's spatial form is the exact
        # rho2-weighted mode sum of every block: exactly zero off
        # omega = (0, pi)
        scn = harness.load_scenario("nscl(1, 1, 1, 2, 1)",
                                    experiment="pipeline", nmax=10)
        consts = spectral.separation_radius(scn.sys)
        branches = spectral.build_branch_table(scn.sys, consts, scn.nmax)
        f0 = random_state(np.random.default_rng(41), scn.nmax, scn.sys.d)
        u, _ = full_pipeline(scn.sys, branches, consts.n0, f0, scn.T,
                             scn.Tprime, scn.omega, Tstar=scn.Tstar)
        xs = np.linspace(0.0, TWO_PI, 97, endpoint=False)
        off = ~scn.omega.indicator(xs).astype(bool)
        live = 0
        for t in np.linspace(0.0, scn.T, 41):
            vals = u.spatial(t, xs)
            assert vals.shape == (len(xs), scn.sys.m)
            assert not np.any(vals[off]), t
            live += bool(np.any(vals[~off]))
        # both windows emit: (0, T') and the trailing one near T
        assert live >= 30

    def test_omega_wrapping_past_two_pi(self):
        """omega = (5, 5 + pi) wraps past 2 pi: rho2 vanishes outside it,
        and the pipeline converges on nscl at nmax 12 (seed 1)."""
        omega = TorusSubset(((5.0, 5.0 + np.pi),))
        xs = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
        rho2 = plateau_weight(omega)(xs)
        assert not np.any(rho2[omega.indicator(xs) == 0.0])
        assert np.any(rho2[xs < 1.0] == 1.0)
        sys = nscl_system()
        consts = spectral.separation_radius(sys)
        branches = spectral.build_branch_table(sys, consts, 12)
        Tstar = minimal_time(sys, omega)
        f0 = random_state(np.random.default_rng(1), 12, 2)
        _, cert = full_pipeline(sys, branches, consts.n0, f0, 1.5 * Tstar,
                                1.25 * Tstar, omega, Tstar=Tstar)
        assert cert["path"] == "joint-sweeps" and cert["relative"] <= 1e-9

    def test_shared_nodes_observed_once(self, monkeypatch):
        """One joint operator observes each of its 3 blocks once, on the
        union of their nodes.  The pairing matrix is bit for bit the
        weighted GEMM of each block pair observed on the column block's
        own nodes alone, and the einsum pairing to roundoff."""
        scn = harness.load_scenario("nscl(1, 1, 1, 2, 1)",
                                    experiment="pipeline", nmax=10)
        consts = spectral.separation_radius(scn.sys)
        branches = spectral.build_branch_table(scn.sys, consts, scn.nmax)
        f0 = random_state(np.random.default_rng(41), scn.nmax, scn.sys.d)
        observe, operator = ctl._block_observations, ctl._joint_operator
        calls, ops = [], []

        def spy_observe(*args):
            calls.append(_kind(args[0]))
            return observe(*args)

        def spy_operator(*args):
            before = len(calls)
            op = operator(*args)
            ops.append((args, op.J, calls[before:]))
            return op

        monkeypatch.setattr(ctl, "_block_observations", spy_observe)
        monkeypatch.setattr(ctl, "_joint_operator", spy_operator)
        full_pipeline(scn.sys, branches, consts.n0, f0, scn.T, scn.Tprime,
                      scn.omega, Tstar=scn.Tstar)
        assert len(ops) == 1
        (sys, branches, n0, blocks, T, weight, nmax), J, inside = ops[0]
        assert inside == ["full", "full", "parabolic"]
        assert [b.target[0] for b in blocks] == ["hyperbolic", "low",
                                                 "parabolic"]
        assert blocks[1].window == blocks[2].window
        setups = [ctl._block_setup(sys, branches, n0, nmax, b)
                  for b in blocks]
        ref, loop = [], []
        for bc, sc in zip(blocks, setups):
            taus, wts = gauss_legendre(
                np.linspace(*bc.window, bc.time_panels + 1))
            Vc = observe(sc, T, taus) * (wts[:, None] * np.array(bc.mask))
            rows = [observe(sr, T, taus) for sr in setups]
            tw = [weight.toeplitz(sr.ns, sc.ns) for sr in setups]
            ref.append(np.vstack([
                w * (Vr.conj().reshape(len(Vr), -1)
                     @ Vc.reshape(len(Vc), -1).T)
                for w, Vr in zip(tw, rows)]))
            loop.append(np.vstack([
                w * np.einsum("jqa,kqa->jk", Vr.conj(), Vc)
                for w, Vr in zip(tw, rows)]))
        assert np.array_equal(J, np.hstack(ref))
        assert _close(J, np.hstack(loop), rel=1e-14)

    def test_one_observation_per_block(self, monkeypatch):
        """A one-sweep full_pipeline datum observes its 3 blocks 3 times
        in all: the control-to-state map that checks the sweep reads the
        blocks' stacks on their own nodes from the joint operator.  Each
        active LR stage observes its one block once."""
        observe = ctl._block_observations
        calls = []

        def spy_observe(*args):
            calls.append(_kind(args[0]))
            return observe(*args)

        monkeypatch.setattr(ctl, "_block_observations", spy_observe)
        scn = harness.load_scenario("nscl(1, 1, 1, 2, 1)",
                                    experiment="pipeline", nmax=10)
        consts = spectral.separation_radius(scn.sys)
        branches = spectral.build_branch_table(scn.sys, consts, scn.nmax)
        f0 = random_state(np.random.default_rng(41), scn.nmax, scn.sys.d)
        _, cert = full_pipeline(scn.sys, branches, consts.n0, f0, scn.T,
                                scn.Tprime, scn.omega, Tstar=scn.Tstar)
        assert len(cert["sweeps"]) == 2 and cert["relative"] <= 1e-9
        assert calls == ["full", "full", "parabolic"]

        calls.clear()
        sys = decoupled_heat_system()
        consts = spectral.separation_radius(sys, n0_override=1)
        branches = spectral.build_branch_table(sys, consts, 8)
        f0p = project_branch(random_state(np.random.default_rng(5), 8, 2),
                             branches, 1, "p")
        _, report = lebeau_robbiano(sys, branches, f0p, T=2.0, delta=0.25,
                                    rho=0.5, nmax=8, n0=1, omega=HALF_TORUS)
        assert len(report["stages"]) == 3
        assert calls == ["parabolic"] * 3

    @pytest.mark.parametrize("factor", [1.0, 1.1, -0.5])
    def test_tprime_checked_without_tstar(self, nscl_branches24, factor):
        # T' = T leaves no trailing window, T' > T no room after the
        # hyperbolic window, T' < 0 no hyperbolic window at all
        sys, consts, branches = nscl_branches24
        f0 = random_state(np.random.default_rng(10), 10, 2)
        T = 1.5 * np.pi
        with pytest.raises(ValueError, match=r"need max\(0, T\*\) < T' < T"):
            full_pipeline(sys, branches, consts.n0, f0, T, factor * T,
                          HALF_TORUS)

    def test_severed_coupling_refused(self):
        # moving-wave with K21 forced to zero: the second component is
        # unreachable from a first-component control
        sys_matrices = moving_wave_system(1.0, 1.0)
        import numpy as _np
        from torusctrl.algebra import SystemMatrices
        K = sys_matrices.K.copy()
        K[1, 0] = 0.0
        sys = SystemMatrices(1, 1, A=sys_matrices.A, D=sys_matrices.D,
                             K=K, M=sys_matrices.M)
        consts = spectral.separation_radius(sys)
        nmax = 10
        branches = spectral.build_branch_table(sys, consts, nmax)
        rng = np.random.default_rng(10)
        f0 = random_state(rng, nmax, 2)
        Tstar = np.pi
        with pytest.raises(np.linalg.LinAlgError):
            full_pipeline(sys, branches, consts.n0, f0, 1.5 * Tstar,
                          1.25 * Tstar, HALF_TORUS, Tstar=Tstar)


def _loop_coeffs(weight, nmax, m, vecs):
    """Reference emission: out[n'] = sum_k rho2hat(n' - k) v_k, one
    coefficient lookup at a time."""
    out = np.zeros((2 * nmax + 1, m), dtype=complex)
    for k, v in vecs:
        for nprime in range(-nmax, nmax + 1):
            out[nprime + nmax, :] += weight.toeplitz([nprime], [k])[0, 0] * v
    return out


def _standalone(blocks, T, weight, nmax):
    """A joint operator that only emits, of the (DualBlock, _BlockSetup,
    edges) triples blocks: its _Blocks have no nodes, so every time is
    observed anew, and the emission weights W[n', j] = rho2hat(n' - n_j)
    on |n'| <= nmax that the joint operator keeps.  It holds no pairing
    matrix."""
    kept = [ctl._Block(blk, setup, edges, np.empty(0),
                       np.empty((len(setup.ns), 0, len(blk.mask))),
                       weight.toeplitz(np.arange(-nmax, nmax + 1), setup.ns))
            for blk, setup, edges in blocks]
    offs = np.cumsum([0] + [len(b.setup.ns) for b in kept])
    nodes = ctl._merged_nodes([b.edges for b in kept], T)
    return ctl._JointOperator(None, T, weight, nmax, kept, nodes, offs,
                              None, None, None, None, None)


def _kind(setup):
    """The observation kind of a block setup: "parabolic" entries live in
    the graph coordinate, "full" ones in C^d."""
    return "full" if setup.graph is None else "parabolic"


def _block_vectors(sys, branches, setup, blk, lam, T, t):
    """Per-entry masked observations lambda_j (mask v_j(t)), by dense expm."""
    out = []
    for n, vec, lj in zip(setup.ns, setup.vecs, lam):
        if _kind(setup) == "full":
            v = sys.M.conj().T @ scipy.linalg.expm(
                -(T - t) * mode_generator(sys, n, adjoint=True)) @ vec
        else:
            v = ctl.observation_matrix(sys, branches, [n])[0] @ (
                scipy.linalg.expm(-(T - t) * n * n
                                  * ctl.build_E2(sys, branches, [n])[0])
                @ vec)
        out.append((n, lj * (np.array(blk.mask) * v)))
    return out


def _close(got, ref, rel=1e-13):
    return np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


class TestEmission:
    """Toeplitz emission over stacked mode vectors against the per-mode
    triple loop."""

    T = 1.5 * np.pi
    Tprime = 1.25 * np.pi

    def test_toeplitz_is_the_coefficient_lookup(self):
        w = plateau_weight(HALF_TORUS)
        bw = w.bandwidth
        # rows reach past the bandwidth from every column
        rows, cols = np.arange(-300, 301), np.array([-3, 0, 2, 9])
        W = w.toeplitz(rows, cols)
        assert np.array_equal(
            W, np.array([[w.coeffs[r - c + bw] if abs(r - c) <= bw else 0.0
                          for c in cols] for r in rows]))
        beyond = np.abs(np.subtract.outer(rows, cols)) > bw
        assert beyond.any(axis=0).all()
        assert np.all(W[beyond] == 0.0) and np.all(W[~beyond] != 0.0)

    def _blocks(self, nscl_branches24):
        """(sys, branches, block, setup) for a full hyperbolic block and a
        parabolic block of nscl at nmax 10, and a full low block of
        moving-wave whose modes +-1 are Jordan blocks."""
        sys, consts, branches = nscl_branches24
        nmax, n0 = 10, consts.n0
        hyp = ctl.DualBlock(("hyperbolic", nmax), (0.0, self.Tprime),
                            (True, False))
        par = ctl.DualBlock(("parabolic", nmax), (self.T - 0.3, self.T),
                            (False, True))
        mw = moving_wave_system()
        mw_branches = spectral.build_branch_table(
            mw, spectral.separation_radius(mw), 6)
        low = ctl.DualBlock(("low",), (self.T - 0.3, self.T), (True,))
        setups = [ctl._block_setup(sys, branches, n0, nmax, hyp),
                  ctl._block_setup(sys, branches, n0, nmax, par),
                  ctl._block_setup(mw, mw_branches, 5, 6, low)]
        # the parabolic entries are the canonical phi2 basis, d2 = 1
        assert np.array_equal(setups[1].vecs, np.ones((len(setups[1].ns), 1)))
        return [(sys, branches, hyp, setups[0]),
                (sys, branches, par, setups[1]),
                (mw, mw_branches, low, setups[2])]

    def test_blocks_match_loop(self, nscl_branches24):
        nmax = 10
        weight = plateau_weight(HALF_TORUS)
        rng = np.random.default_rng(11)
        for sys, branches, blk, setup in self._blocks(nscl_branches24):
            lam = (rng.standard_normal(len(setup.ns))
                   + 1j * rng.standard_normal(len(setup.ns)))
            t0, t1 = blk.window
            edges = np.linspace(t0, t1, 5)
            u = ctl._emit_block(
                _standalone([(blk, setup, edges)], self.T, weight, nmax), lam)
            assert u.values.shape == (0, 2 * nmax + 1, sys.m)
            for t in (t0, 0.3 * t0 + 0.7 * t1, t1):
                ref = _loop_coeffs(weight, nmax, sys.m, _block_vectors(
                    sys, branches, setup, blk, lam, self.T, t))
                assert _close(u.at(t), ref), (blk.target, t)
            assert not np.any(u.at(t0 - 0.01)) and not np.any(u.at(t1 + 0.01))

    def test_expm_fallback_mode_present(self):
        # the low block above reaches the expm branch of the emitter
        mw = moving_wave_system()
        gens = {n: mode_generator(mw, n, adjoint=True) for n in (-1, 0, 1)}
        basis = ModeBasis(list(gens.values()))
        paths = dict(zip(gens, np.where(basis.eig, "eig", "expm")))
        assert paths == {-1: "expm", 0: "eig", 1: "expm"}
        _, V = np.linalg.eig(gens[1])
        assert np.linalg.cond(V) >= EIG_COND_MAX

    def test_moment_control_matches_loop(self, nscl_branches24):
        sys, consts, branches = nscl_branches24
        rng = np.random.default_rng(12)
        f0p = project_branch(random_state(rng, 24, 2), branches,
                             consts.n0, "p")
        T, N = 1.0, 8
        u, mp = parabolic_moment_control(sys, branches, f0p, T, N,
                                         HALF_TORUS, consts.n0)
        assert u.values.shape == (0, 49, sys.m)
        dscale = np.sqrt(np.abs(np.diagonal(mp.gram)))
        V = np.linalg.solve(mp.gram / np.outer(dscale, dscale),
                            mp.rhs / dscale) / dscale
        for t in (0.0, 0.35, 0.8, T):
            s = T - t
            vecs = [(n, rho1(np.array([s / T]))[0]
                     * ctl.observation_matrix(sys, branches, [n])[0]
                     @ scipy.linalg.expm(-s * n * n * mp.E2[i])
                     @ V.reshape(len(mp.modes), -1)[i])
                    for i, n in enumerate(int(k) for k in mp.modes)]
            ref = _loop_coeffs(mp.weight, 24, sys.m, vecs)
            assert _close(u.at(t), ref), t

    def test_spatial_matches_synthesized_coefficients(self,
                                                      nscl_branches24):
        # with nmax above bandwidth + max|k| the coefficients keep every
        # product term, so synthesis differs from the exact spatial form
        # only by rho2's own truncation at its bandwidth
        weight = plateau_weight(HALF_TORUS)
        nmax = weight.bandwidth + 10
        xs = 2 * np.pi * np.arange(4 * nmax) / (4 * nmax)
        trunc = FourierState(weight.bandwidth, weight.coeffs[:, None])
        rho2_band = synth_grid(trunc, ngrid=4 * nmax)[1][:, 0]
        band_err = np.max(np.abs(rho2_band - weight(xs)))
        rng = np.random.default_rng(13)
        for sys, branches, blk, setup in self._blocks(nscl_branches24):
            lam = (rng.standard_normal(len(setup.ns))
                   + 1j * rng.standard_normal(len(setup.ns)))
            u = ctl._emit_block(_standalone([(blk, setup, blk.window)],
                                            self.T, weight, nmax), lam)
            t = 0.5 * sum(blk.window)
            coeffs = FourierState(nmax, u.at(t))
            synth = synth_grid(coeffs, ngrid=len(xs))[1]
            vecs = _block_vectors(sys, branches, setup, blk, lam, self.T, t)
            bound = band_err * sum(np.max(np.abs(v)) for _, v in vecs)
            assert np.max(np.abs(u.spatial(t, xs) - synth)) <= bound + 1e-12

    def _edge_times(self, t0, t1):
        """Times just inside and just outside the 1e-12 window slack, on
        the edges and inside the window."""
        return np.array([t0 - 2e-12, t0 - 5e-13, t0, t0 + 5e-13,
                         0.8 * t0 + 0.2 * t1, 0.3 * t0 + 0.7 * t1,
                         t1 - 5e-13, t1, t1 + 5e-13, t1 + 2e-12])

    def test_batched_at_matches_scalar_loop(self, nscl_branches24):
        """at(ts) on emitted blocks, with and without a time profile,
        against the scalar at(t) and against the dense-expm emission."""
        nmax = 10
        weight = plateau_weight(HALF_TORUS)
        rng = np.random.default_rng(31)
        blocks = [(sys, branches, blk, setup, None)
                  for sys, branches, blk, setup in self._blocks(
                      nscl_branches24)]
        sys, branches, par, setup = blocks[1][:4]
        L = par.window[1] - par.window[0]
        blocks.append((sys, branches, dataclasses.replace(par, rho1_length=L),
                       setup, lambda s: rho1(s / L)))
        for sys, branches, blk, setup, prof in blocks:
            lam = (rng.standard_normal(len(setup.ns))
                   + 1j * rng.standard_normal(len(setup.ns)))
            t0, t1 = blk.window
            u = ctl._emit_block(
                _standalone([(blk, setup, np.linspace(t0, t1, 5))], self.T,
                            weight, nmax), lam)
            ts = self._edge_times(t0, t1)
            if prof is not None:
                # the profile is exactly zero at both ends and where
                # e^{-1/tau} underflows
                ts = np.append(ts, t1 - 1e-4)
                assert not np.any(prof(self.T - ts[[2, 7, -1]]))
            batched = u.at(ts)
            assert batched.shape == (len(ts), 2 * nmax + 1, sys.m)
            for t, row in zip(ts, batched):
                ref = u.at(t)
                assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(
                    np.abs(ref)), (blk.target, t)
                r = 1.0 if prof is None else prof(np.clip(self.T - t, 0.0,
                                                          self.T))
                inside = t0 - 1e-12 <= t <= t1 + 1e-12
                if not inside or r == 0.0:
                    assert not np.any(row), (blk.target, t)
                    continue
                dense = r * _loop_coeffs(weight, nmax, sys.m, _block_vectors(
                    sys, branches, setup, blk, lam, self.T, t))
                assert _close(row, dense), (blk.target, t)

    def test_shifted_and_merged_batched(self, nscl_branches24):
        """_shift_control and merge_controls over overlapping windows:
        batched at(ts) against the per-time, per-item definition."""
        nmax = 10
        weight = plateau_weight(HALF_TORUS)
        rng = np.random.default_rng(32)
        sys, branches, hyp, setup = self._blocks(nscl_branches24)[0]
        lam = (rng.standard_normal(len(setup.ns))
               + 1j * rng.standard_normal(len(setup.ns)))
        u = ctl._emit_block(
            _standalone([(hyp, setup, np.linspace(*hyp.window, 5))], self.T,
                        weight, nmax), lam)
        shifted = ctl._shift_control(u, 0.5)
        ts = self._edge_times(0.5, 0.5 + self.Tprime)
        got = shifted.at(ts)
        for t, row in zip(ts, got):
            assert np.array_equal(row, shifted.at(t))
            assert np.array_equal(row, u.at(t - 0.5))
        # an interpolated item without t_window: its window is its node
        # range, outside which at() holds its end values
        nodes = np.linspace(1.0, 2.5, 4)
        vals = (rng.standard_normal((4, 2 * nmax + 1, sys.m))
                + 1j * rng.standard_normal((4, 2 * nmax + 1, sys.m)))
        sampled = ControlSignal(time_nodes=nodes, nmax=nmax, values=vals)
        items = [(u, hyp.window), (shifted, shifted.t_window),
                 (sampled, (1.0, 2.5))]
        T = self.T
        merged = ctl.merge_controls([it for it, _ in items], nmax, sys.m, T)
        ts = np.unique(np.concatenate(
            [self._edge_times(a, b) for _, (a, b) in items]
            + [np.linspace(0.0, T, 41)]))
        ts = ts[(ts >= 0.0) & (ts <= T)]
        got = merged.at(ts)
        overlap = 0
        for t, row in zip(ts, got):
            on = [it for it, (a, b) in items if a - 1e-12 <= t <= b + 1e-12]
            overlap += len(on) > 1
            ref = sum((it.at(t) for it in on),
                      np.zeros((2 * nmax + 1, sys.m), dtype=complex))
            scale = max(np.max(np.abs(ref)), 1e-300)
            assert np.max(np.abs(row - ref)) <= 1e-14 * scale, t
            assert np.max(np.abs(row - merged.at(t))) <= 1e-14 * scale, t
        assert overlap > 10

    def test_joint_emission_reads_its_stack_bit_for_bit(self, monkeypatch):
        """The pipeline's one control over its three blocks, emitted from
        the summed multipliers on the operator's nodes, and a moment
        control with its time profile: at(taus) on each block's own
        nodes, read from the operator's stacks, equals at(t) node by node
        and _emit_block of the same blocks with no nodes, bit for bit; so
        does the spatial form."""
        solve, solves = ctl._joint_multipliers, []

        def spy_solve(*args, **kwargs):
            out = solve(*args, **kwargs)
            solves.append((args[0], out[0]))
            return out

        monkeypatch.setattr(ctl, "_joint_multipliers", spy_solve)
        scn = harness.load_scenario("nscl(1, 1, 1, 2, 1)",
                                    experiment="pipeline", nmax=10)
        consts = spectral.separation_radius(scn.sys)
        branches = spectral.build_branch_table(scn.sys, consts, scn.nmax)
        f0 = random_state(np.random.default_rng(41), scn.nmax, scn.sys.d)
        u_pipe, cert = full_pipeline(scn.sys, branches, consts.n0, f0, scn.T,
                                     scn.Tprime, scn.omega, Tstar=scn.Tstar)
        # one joint solve, so its multipliers are the summed ones
        assert len(cert["sweeps"]) == 2 and len(solves) == 1
        f0p = project_branch(f0, branches, consts.n0, "p")
        u_mom, mp = parabolic_moment_control(scn.sys, branches, f0p, 1.0, 8,
                                             scn.omega, consts.n0)
        assert len(solves) == 2 and np.array_equal(solves[1][1], mp.lam)
        xs = np.linspace(0.0, TWO_PI, 29, endpoint=False)
        profiled = 0
        for (op, lam), u in zip(solves, (u_pipe, u_mom)):
            assert np.array_equal(u.time_nodes, op.nodes)
            specs = [b.spec for b in op.blocks]
            edges = [np.linspace(*blk.window, blk.time_panels + 1)
                     for blk in specs]
            fresh = ctl._emit_block(_standalone(
                [(blk, ctl._block_setup(op.sys, branches, consts.n0,
                                        op.nmax, blk), e)
                 for blk, e in zip(specs, edges)],
                op.T, op.weight, op.nmax), lam)
            for blk, e in zip(specs, edges):
                taus, _ = gauss_legendre(e)
                batched = u.at(taus)
                assert np.any(batched)
                assert np.array_equal(batched, fresh.at(taus))
                for t, row in zip(taus, batched):
                    assert np.array_equal(row, u.at(t))
                for t in taus[[0, len(taus) // 2, -1]]:
                    assert np.array_equal(u.spatial(t, xs),
                                          fresh.spatial(t, xs))
                profiled += blk.rho1_length is not None
        assert profiled == 1


class TestJointOperatorMemo:
    """The joint dual operator depends on the system, T, rho2 and the
    blocks, never on the datum: it is assembled once per problem and kept
    in the branch table's memo, and a call only refuses, solves and
    emits; a pipeline datum emits once, after its sweeps."""

    @staticmethod
    def _pipeline(nmax):
        scn = harness.load_scenario("nscl(1, 1, 1, 2, 1)",
                                    experiment="pipeline", nmax=nmax)
        consts = spectral.separation_radius(scn.sys)
        branches = spectral.build_branch_table(scn.sys, consts, scn.nmax)

        def run(branches, seed):
            f0 = random_state(np.random.default_rng(seed), nmax, 2)
            return full_pipeline(scn.sys, branches, consts.n0, f0, scn.T,
                                 scn.Tprime, scn.omega, Tstar=scn.Tstar)

        return scn, consts, branches, run

    @staticmethod
    def _spy(monkeypatch, *names):
        """The results of every call of the named control functions."""
        calls = {name: [] for name in names}
        for name in names:
            def wrapped(*args, _fn=getattr(ctl, name), _out=calls[name],
                        **kwargs):
                _out.append(_fn(*args, **kwargs))
                return _out[-1]
            monkeypatch.setattr(ctl, name, wrapped)
        return calls

    def test_second_datum_reuses_the_operator_bit_for_bit(self,
                                                           monkeypatch):
        scn, consts, warm, run = self._pipeline(10)
        run(warm, 41)
        calls = self._spy(monkeypatch, "_block_observations", "_block_setup",
                          "_joint_multipliers", "_joint_operator")
        u, cert = run(warm, 42)
        assert calls["_block_observations"] == []
        assert calls["_block_setup"] == []
        cold = spectral.build_branch_table(scn.sys, consts, scn.nmax)
        u_cold, cert_cold = run(cold, 42)
        assert len(calls["_block_setup"]) == 3
        (lam, rhs), (lam_cold, rhs_cold) = calls["_joint_multipliers"]
        op, op_cold = calls["_joint_operator"]
        J, eigs, cond = op.J, op.eigs, op.cond
        J_cold, eigs_cold, cond_cold = op_cold.J, op_cold.eigs, op_cold.cond
        assert cert["joint_cond"] == cond
        assert np.array_equal(J, J_cold) and np.array_equal(lam, lam_cold)
        assert np.array_equal(rhs, rhs_cold)
        assert np.array_equal(eigs, eigs_cold) and cond == cond_cold
        assert np.array_equal(cert["final_state"].coeffs,
                              cert_cold["final_state"].coeffs)
        assert cert["relative"] == cert_cold["relative"] <= 1e-9
        ts = np.linspace(0.0, scn.T, 37)
        assert np.array_equal(u.at(ts), u_cold.at(ts))
        assert cert["joint_cond_headroom_log10"] == np.log10(
            ctl.COND_MAX / cond)

    @pytest.mark.parametrize("system", [nscl_system, two_speed_system],
                             ids=["nscl", "two-speed"])
    def test_consecutive_data_give_the_bits_of_each_datum_solved_first(
            self, system):
        """Eight data solved in a row on one system (its kept table,
        operator, L, emission weights and propagators) give the bits of
        each datum solved first on a fresh system object (nmax 10)."""
        nmax = 10
        Tstar = minimal_time(system(), HALF_TORUS)
        T, Tprime = 1.5 * Tstar, 1.25 * Tstar
        ts = np.linspace(0.0, T, 41)

        def solve(sys, f0):
            consts = spectral.separation_radius(sys)
            branches = spectral.build_branch_table(sys, consts, nmax)
            u, cert = full_pipeline(sys, branches, consts.n0, f0, T, Tprime,
                                    HALF_TORUS, Tstar=Tstar)
            return (cert["final_state"].coeffs, u.at(ts), u.at(u.time_nodes),
                    [tuple(s.values()) for s in cert["sweeps"]],
                    cert["joint_cond"])

        rng = np.random.default_rng(67)
        sys = system()
        data = [random_state(rng, nmax, sys.d) for _ in range(8)]
        warm = [solve(sys, f0) for f0 in data]
        for f0, got in zip(data, warm):
            want = solve(system(), f0)
            for a, b in zip(got[:3], want[:3]):
                assert np.array_equal(a, b)
            assert got[3:] == want[3:]

    def test_kept_emission_weights_are_the_toeplitz_lookup(self):
        scn, consts, branches, run = self._pipeline(8)
        run(branches, 3)
        (op,) = ctl._JOINT_OPERATORS._owners[branches].values()
        weight = plateau_weight(scn.omega)
        assert len(op.blocks) == 3
        for block in op.blocks:
            W = block.weights
            assert W.shape == (17, len(block.setup.ns))
            assert np.array_equal(W, weight.toeplitz(np.arange(-8, 9),
                                                     block.setup.ns))
            with pytest.raises(ValueError, match="read-only"):
                W[0, 0] = 0.0

    def test_warm_datum_reads_the_kept_control_map(self, monkeypatch):
        """The first datum on a table builds L once with its operator; a
        warm second datum observes no block, builds nothing and evolves
        no control: its one evolve is the free evolution of f0."""
        _, _, branches, run = self._pipeline(10)
        calls = self._spy(monkeypatch, "_assemble_joint",
                          "_assemble_control_map")
        run(branches, 41)
        assert len(calls["_assemble_joint"]) == 1
        assert len(calls["_assemble_control_map"]) == 1
        observed = self._spy(monkeypatch, "_block_observations")
        controlled = []

        def spy(sys, f, u=None, *args, **kwargs):
            controlled.append(u is not None)
            return evolve(sys, f, u, *args, **kwargs)

        monkeypatch.setattr(ctl, "evolve", spy)
        _, cert = run(branches, 42)
        assert observed["_block_observations"] == []
        assert controlled == [False]
        assert len(calls["_assemble_joint"]) == 1
        assert len(calls["_assemble_control_map"]) == 1
        assert len(cert["sweeps"]) == 2 and cert["relative"] <= 1e-9

    def test_warm_datum_emits_one_control(self, monkeypatch):
        """A warm one-solve datum constructs one ControlSignal, the one it
        returns, merges none and observes no block: the sweep solves for
        lambda alone, and the control is emitted once from (op, lambda)."""
        _, _, branches, run = self._pipeline(10)
        run(branches, 41)
        calls = self._spy(monkeypatch, "merge_controls",
                          "_block_observations")
        built, init = [], ControlSignal.__post_init__

        def spy_init(signal):
            built.append(signal)
            init(signal)

        monkeypatch.setattr(ControlSignal, "__post_init__", spy_init)
        u, cert = run(branches, 42)
        assert len(cert["sweeps"]) == 2 and cert["relative"] <= 1e-9
        assert len(built) == 1 and built[0] is u
        assert calls == {"merge_controls": [], "_block_observations": []}

    def test_moment_and_hum_solves_build_no_control_map(self, monkeypatch,
                                                         nscl_branches24):
        sys, consts, branches = nscl_branches24
        calls = self._spy(monkeypatch, "_assemble_control_map")
        fstar = random_state(np.random.default_rng(4), 24, 2)
        hum_gramian_control(sys, branches, consts.n0, ("low",), fstar, 1.0,
                            HALF_TORUS, window=(0.8, 1.0))
        parabolic_moment_control(
            sys, branches, project_branch(fstar, branches, consts.n0, "p"),
            1.0, 8, HALF_TORUS, consts.n0)
        assert calls["_assemble_control_map"] == []

    def test_entries_derived_once_per_table(self, monkeypatch):
        """The first pipeline datum on a table derives its 3 blocks'
        entries once each, the second none; neither rebuilds rho2."""
        scn, _, branches, run = self._pipeline(10)
        plateau_weight(scn.omega)
        calls = self._spy(monkeypatch, "_target_entries", "analyze_grid")
        run(branches, 41)
        assert len(calls["_target_entries"]) == 3
        run(branches, 42)
        assert len(calls["_target_entries"]) == 3
        assert calls["analyze_grid"] == []

    def test_sweeps_share_one_operator(self, monkeypatch):
        # this nmax 12 datum needs two joint solves (three sweep entries)
        _, _, branches, run = self._pipeline(12)
        calls = self._spy(monkeypatch, "_assemble_joint",
                          "_joint_multipliers")
        _, cert = run(branches, 0)
        assert len(cert["sweeps"]) == 3 and cert["relative"] <= 1e-9
        assert len(calls["_joint_multipliers"]) == 2
        assert len(calls["_assemble_joint"]) == 1

    def test_each_solve_asks_for_its_operator_once(self, monkeypatch,
                                                   nscl_branches24):
        """One _joint_operator lookup per pipeline datum whatever its
        sweep count, one per moment or HUM call, and two per active LR
        stage (its moment solve, then its control map).  A datum that
        needs no solve builds no control map."""
        scn, consts, branches, run = self._pipeline(12)
        calls = self._spy(monkeypatch, "_joint_operator",
                          "_joint_multipliers", "_assemble_control_map")
        _, cert = full_pipeline(scn.sys, branches, consts.n0,
                                FourierState.zeros(12, 2), scn.T,
                                scn.Tprime, scn.omega, Tstar=scn.Tstar)
        assert cert["relative"] == 0.0 and cert["joint_cond"] is None
        assert len(calls["_joint_operator"]) == 1
        assert calls["_assemble_control_map"] == []
        _, cert = run(branches, 0)
        assert len(cert["sweeps"]) == 3
        assert len(calls["_joint_multipliers"]) == 2
        assert len(calls["_joint_operator"]) == 2
        assert len(calls["_assemble_control_map"]) == 1

        sys, consts, branches = nscl_branches24
        fstar = random_state(np.random.default_rng(4), 24, 2)
        for name in calls:
            calls[name].clear()
        hum_gramian_control(sys, branches, consts.n0, ("low",), fstar, 1.0,
                            HALF_TORUS, window=(0.8, 1.0))
        assert len(calls["_joint_operator"]) == 1
        parabolic_moment_control(
            sys, branches, project_branch(fstar, branches, consts.n0, "p"),
            1.0, 8, HALF_TORUS, consts.n0)
        assert len(calls["_joint_operator"]) == 2

        calls["_joint_operator"].clear()
        report = self._lr_heat(8)(5)
        assert len(report["stages"]) == 3
        assert len(calls["_joint_operator"]) == 2 * 3

    def test_lr_stages_reuse_their_operators(self, monkeypatch):
        sys = decoupled_heat_system()
        consts = spectral.separation_radius(sys, n0_override=1)
        branches = spectral.build_branch_table(sys, consts, 8)
        calls = self._spy(monkeypatch, "_assemble_joint", "build_E2",
                          "_assemble_control_map")
        for seed, built in ((5, 3), (6, 0)):
            f0p = project_branch(random_state(np.random.default_rng(seed),
                                              8, 2), branches, 1, "p")
            _, report = lebeau_robbiano(sys, branches, f0p, T=2.0,
                                        delta=0.25, rho=0.5, nmax=8, n0=1,
                                        omega=HALF_TORUS)
            assert len(calls["_assemble_joint"]) == built
            # MomentProblem.E2 reads the block basis: one build per stage
            assert len(calls["build_E2"]) == built
            # each stage's L is kept with its operator
            assert len(calls["_assemble_control_map"]) == built
            for name in calls:
                calls[name].clear()
            assert len(report["stages"]) == 3
            for stage in report["stages"]:
                assert stage["cond_headroom_log10"] == np.log10(
                    ctl.COND_MAX / stage["cond_scaled"]) > 0.0

    @staticmethod
    def _lr_heat(nmax):
        """lebeau_robbiano on decoupled heat at T = 4, delta = T/8 on a
        fresh table: run(seed) returns the report."""
        sys = decoupled_heat_system()
        consts = spectral.separation_radius(sys, n0_override=1)
        branches = spectral.build_branch_table(sys, consts, nmax)

        def run(seed):
            f0p = project_branch(random_state(np.random.default_rng(seed),
                                              nmax, 2), branches, 1, "p")
            return lebeau_robbiano(sys, branches, f0p, T=4.0, delta=0.5,
                                   rho=0.5, nmax=nmax, n0=1,
                                   omega=HALF_TORUS)[1]

        return run

    def test_lr_evolves_no_control(self, monkeypatch):
        """Every evolve of an LR solve, the moment solves' included, is a
        free one: per active stage one to the end of its window and one
        passive, then the initial and the trailing decay."""
        run = self._lr_heat(12)
        controlled = []

        def spy(sys, f, u=None, *args, **kwargs):
            controlled.append(u is not None)
            return evolve(sys, f, u, *args, **kwargs)

        monkeypatch.setattr(ctl, "evolve", spy)
        report = run(41)
        assert len(report["stages"]) == 3
        assert controlled == [False] * 8

    def test_lr_cold_and_warm_runs_agree_bit_for_bit(self):
        run = self._lr_heat(12)
        cold, warm = run(41), run(41)
        assert np.array_equal(cold["final_state"].coeffs,
                              warm["final_state"].coeffs)
        assert cold["norms"] == warm["norms"]

    def test_moment_E2_is_the_block_basis(self, nscl_branches24):
        sys, consts, branches = nscl_branches24
        f0p = project_branch(random_state(np.random.default_rng(3), 24, 2),
                             branches, consts.n0, "p")
        _, mp = parabolic_moment_control(sys, branches, f0p, 1.0, 8,
                                         HALF_TORUS, consts.n0)
        assert np.array_equal(mp.E2, ctl.build_E2(sys, branches, mp.modes))

    def test_refusal_is_per_call(self, monkeypatch, nscl_branches24):
        sys, consts, branches = nscl_branches24
        fstar = random_state(np.random.default_rng(7), 24, 2)
        calls = self._spy(monkeypatch, "_assemble_joint")

        def hum(**kwargs):
            return hum_gramian_control(sys, branches, consts.n0, ("low",),
                                       fstar, 1.0, HALF_TORUS,
                                       window=(0.8, 1.0), **kwargs)

        _, rep = hum(cond_max=1.0, refuse=False)
        assert rep.cond > 1.0
        with pytest.raises(np.linalg.LinAlgError, match="Gram condition"):
            hum(cond_max=1.0)
        _, again = hum(cond_max=rep.cond)
        assert again.cond == rep.cond
        with pytest.raises(np.linalg.LinAlgError, match="Gram condition"):
            hum(cond_max=0.5 * rep.cond)
        # one problem: built at most once here (the session table may
        # already hold it)
        assert len(calls["_assemble_joint"]) <= 1

    def test_band_checked_against_each_state(self, nscl_branches24):
        """The operator is kept per state truncation: after a state at
        nmax 24 built the problem, one at nmax 12 is still refused."""
        sys, consts, branches = nscl_branches24
        rng = np.random.default_rng(7)

        def hum(nmax):
            return hum_gramian_control(sys, branches, consts.n0,
                                       ("hyperbolic", 16),
                                       random_state(rng, nmax, 2),
                                       1.5 * np.pi, HALF_TORUS)

        hum(24)
        with pytest.raises(ValueError, match="reaches past the state's "
                           "nmax = 12"):
            hum(12)

    def test_returned_operator_is_read_only(self, nscl_branches24):
        sys, consts, branches = nscl_branches24
        fstar = random_state(np.random.default_rng(7), 24, 2)
        _, rep = hum_gramian_control(sys, branches, consts.n0, ("low",),
                                     fstar, 1.0, HALF_TORUS,
                                     window=(0.8, 1.0))
        for a in (rep.gram, rep.eigs):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_short_window_warns_on_every_call(self, nscl_branches24):
        sys, consts, branches = nscl_branches24
        fstar = random_state(np.random.default_rng(6), 24, 2)
        for _ in range(2):
            with pytest.warns(UserWarning, match="near-singular"):
                hum_gramian_control(sys, branches, consts.n0,
                                    ("hyperbolic", 8), fstar, 1.5 * np.pi,
                                    HALF_TORUS, window=(0.0, 0.5 * np.pi),
                                    Tstar=np.pi, refuse=False)

    def test_memo_keeps_at_most_eight_per_table(self, monkeypatch):
        sys = decoupled_heat_system()
        consts = spectral.separation_radius(sys, n0_override=1)
        branches = spectral.build_branch_table(sys, consts, 4)
        fstar = random_state(np.random.default_rng(8), 4, 2)
        calls = self._spy(monkeypatch, "_assemble_joint")

        def hum(T):
            hum_gramian_control(sys, branches, 1, ("low",), fstar, T,
                                HALF_TORUS, window=(0.5, 1.0))

        Ts = [1.0 + 0.1 * k for k in range(10)]
        for T in Ts:
            hum(T)
        assert len(calls["_assemble_joint"]) == 10
        # the 8 most recent are kept, and using them keeps them
        for T in Ts[2:]:
            hum(T)
        assert len(calls["_assemble_joint"]) == 10
        # a ninth would have been the next most recent
        hum(Ts[1])
        assert len(calls["_assemble_joint"]) == 11

    def test_memos_die_with_their_owner(self, monkeypatch):
        """A state basis is freed with its system, a joint operator with
        its branch table, even while the emitted control lives."""
        import gc
        import weakref
        from torusctrl import dynamics
        sys = decoupled_heat_system()
        consts = spectral.separation_radius(sys, n0_override=1)
        branches = spectral.build_branch_table(sys, consts, 4)
        fstar = random_state(np.random.default_rng(9), 4, 2)
        built, assemble = [], ctl._assemble_joint

        def spy(*args):
            op = assemble(*args)
            built.append(weakref.ref(op))
            return op

        monkeypatch.setattr(ctl, "_assemble_joint", spy)
        u, _ = hum_gramian_control(sys, branches, 1, ("low",), fstar, 1.0,
                                   HALF_TORUS)
        basis = weakref.ref(dynamics._state_basis(sys, 4))
        (op,) = built
        gc.collect()
        assert op() is not None and basis() is not None
        del sys, consts, branches, fstar
        gc.collect()
        assert op() is None and basis() is None
        assert np.any(u.at(0.5))


class TestControlMap:
    """L, the joint operator's control-to-state map at T, is evolve's
    Duhamel integral of the emitted controls on evolve's own panels,
    reordered by linearity; evolve stays the reference it is pinned
    against.  nscl's modes +-2 take the expm path of the state basis;
    two-speed has d = m = 3."""

    @staticmethod
    def _pipeline(monkeypatch, sys, nmax, seed):
        """full_pipeline on the half torus at T = 1.5 T*, T' = 1.25 T*:
        (u, cert, f0, op, L, lam), with op the joint operator every sweep
        solved with and lam the summed multipliers."""
        scn = harness.Scenario("oracle", sys, HALF_TORUS, nmax=nmax,
                               experiment="pipeline")
        consts = spectral.separation_radius(sys)
        branches = spectral.build_branch_table(sys, consts, nmax)
        f0 = random_state(np.random.default_rng(seed), nmax, sys.d)
        solve, solves = ctl._joint_multipliers, []

        def spy(*args, **kwargs):
            solves.append((args, solve(*args, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(ctl, "_joint_multipliers", spy)
        u, cert = full_pipeline(sys, branches, consts.n0, f0, scn.T,
                                scn.Tprime, HALF_TORUS, Tstar=scn.Tstar)
        op = solves[0][0][0]
        assert all(args[0] is op for args, _ in solves)
        lam = sum(out[0] for _, out in solves)
        return u, cert, f0, op, op.control_map, lam

    @staticmethod
    def _check_against_evolve(sys, u, cert, f0, op, L, lam):
        """L lam against evolve of the returned control from zero, to
        1e-14 of sum_j |lam_j| |L_j|, and the certificate against
        F f0 + L lam, bit for bit."""
        ref = evolve(sys, FourierState.zeros(op.nmax, sys.d), u, op.T)
        scale = np.sum(np.abs(lam) * np.linalg.norm(L, axis=0))
        gap = np.linalg.norm(L @ lam - ref.coeffs.ravel())
        assert gap <= 1e-14 * scale
        free = evolve(sys, f0, None, op.T)
        assert np.array_equal(cert["final_state"].coeffs,
                              free.coeffs + (L @ lam).reshape(-1, sys.d))

    @pytest.mark.parametrize("system, nmax", [
        (nscl_system, 10), (nscl_system, 24), (two_speed_system, 12)],
        ids=["nscl-10", "nscl-24", "two-speed-12"])
    def test_map_matches_evolve_of_the_control(self, monkeypatch, system,
                                               nmax):
        """L lam against evolve of the returned control from zero, to
        1e-14 of sum_j |lam_j| |L_j|: |lam| reaches 1e7-1e8, so the gap
        is the cancellation roundoff of the sum, not a relative one.  The
        certificate is F f0 + L lam, bit for bit."""
        sys = system()
        u, cert, f0, op, L, lam = self._pipeline(monkeypatch, sys, nmax, 3)
        assert L.shape == (sys.d * (2 * nmax + 1), len(lam))
        assert cert["relative"] <= 1e-9
        self._check_against_evolve(sys, u, cert, f0, op, L, lam)

    def test_summed_multipliers_match_evolve_of_the_control(self,
                                                            monkeypatch):
        """nscl at nmax 12, seed 0, takes two joint solves: the one
        control, emitted from lam = dlam_1 + dlam_2, evolves to L lam, and
        the certificate is F f0 + L lam (the same bounds as above)."""
        sys = nscl_system()
        u, cert, f0, op, L, lam = self._pipeline(monkeypatch, sys, 12, 0)
        assert len(cert["sweeps"]) == 3 and cert["relative"] <= 1e-9
        self._check_against_evolve(sys, u, cert, f0, op, L, lam)

    @pytest.mark.parametrize("system", [nscl_system, two_speed_system],
                             ids=["nscl", "two-speed"])
    def test_columns_match_one_evolve_per_entry(self, monkeypatch, system):
        """Column j of L against evolve of entry j's unit control, the
        one control _emit_block builds from (op, e_j) as full_pipeline
        emits it, to 1e-13 of max |L| (nmax 8)."""
        nmax = 8
        sys = system()
        _, _, _, op, L, _ = self._pipeline(monkeypatch, sys, nmax, 4)
        zero = FourierState.zeros(nmax, sys.d)
        worst = 0.0
        for j in range(L.shape[1]):
            unit = np.zeros(L.shape[1])
            unit[j] = 1.0
            u = ctl._emit_block(op, unit)
            col = evolve(sys, zero, u, op.T).coeffs.ravel()
            worst = max(worst, np.max(np.abs(L[:, j] - col)))
        assert worst <= 1e-13 * np.max(np.abs(L))
