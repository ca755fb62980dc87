"""Acceptance gate: one test per shipped guarantee, each printing a
single pass/fail line (run with -s to see them on success)."""

import os
import re
import time
import warnings

import numpy as np
import pytest

from torusctrl.algebra import SystemMatrices, TorusSubset, TWO_PI
from torusctrl import spectral, obstruction, control, analysis, harness
from torusctrl.dynamics import (FourierState, ControlSignal, evolve,
                                mode_generator, project_branch)
from conftest import (nscl_system, damped_wave_system, moving_wave_system,
                      decoupled_heat_system, random_state, HALF_TORUS)


BUILTIN_SPECS = ("damped-wave(0.5)", "moving-wave(1, 1)", "heat-memory",
                 "nscl(1, 1, 1, 2, 1)")


def _report(num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {label}: {verdict} ({detail})")
    assert ok, f"{label}: {detail}"


def _builtin_systems():
    return [(s, harness.load_scenario(s).sys) for s in BUILTIN_SPECS]


def test_acceptance_01_spectral_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _, sys in _builtin_systems():
        consts = spectral.separation_radius(sys)
        for _ in range(200):
            z = (rng.uniform(0, 1.0 / consts.n0)
                 * np.exp(1j * rng.uniform(0, TWO_PI)))
            Ph, Pp = spectral.projection_split(sys, z, consts.R)
            E = spectral.eval_symbol(sys, z)
            scale = max(1.0, np.linalg.norm(Ph))
            worst = max(worst,
                        np.linalg.norm(Ph @ Ph - Ph) / scale,
                        np.linalg.norm(Ph @ E - E @ Ph)
                        / max(1.0, np.linalg.norm(E) * scale),
                        abs(np.trace(Ph).real - sys.d1) * 1e-1)
            if abs(z) > 1e-3:
                br = spectral.hyperbolic_branches(sys, z, Ph)
                worst = max(worst, np.linalg.norm(
                    sum(P for P, _ in br.values()) - Ph) / scale)
                for mu, (P, R) in br.items():
                    worst = max(worst, np.linalg.norm(
                        E @ P - mu * z * P - z ** 2 * R)
                        / max(1.0, np.linalg.norm(E)
                              * np.linalg.norm(P)))
    dt = time.monotonic() - t0
    _report(1, "branch projection identities",
            worst <= 1e-9 and dt < 10.0,
            f"max residual {worst:.2e}, {dt:.1f} s")


def test_acceptance_02_zero_frequency_limits():
    worst = 0.0
    for _, sys in _builtin_systems():
        consts = spectral.separation_radius(sys)
        Ph0, per_speed = spectral.limit_projections(sys)
        expect = np.zeros((sys.d, sys.d))
        expect[:sys.d1, :sys.d1] = np.eye(sys.d1)
        _, Pp0 = spectral.projection_split(sys, 0.0, consts.R)
        G0 = spectral.graph_map(sys, 0.0, Pp0)
        worst = max(worst, np.max(np.abs(Ph0 - expect)),
                    np.max(np.abs(G0)))
    _report(2, "transport projection and graph map at frequency zero",
            worst <= 1e-12, f"max deviation {worst:.2e}")


def test_acceptance_03_semigroup_vs_rk4():
    t0 = time.monotonic()
    worst = 0.0
    nmax, T, nsteps = 32, 1.0, 4096
    for sys in (damped_wave_system(0.5), nscl_system()):
        rng = np.random.default_rng(1)
        f0 = random_state(rng, nmax, 2)
        nodes = np.linspace(0.0, T, 33)
        env = np.exp(-0.02 * np.arange(-nmax, nmax + 1) ** 2)
        m = sys.M.shape[1]
        vals = (rng.standard_normal((33, 2 * nmax + 1, m))
                + 1j * rng.standard_normal((33, 2 * nmax + 1, m)))
        vals *= env[None, :, None]
        u = ControlSignal(time_nodes=nodes, nmax=nmax, values=vals,
                          t_window=(0.0, T))
        fT = evolve(sys, f0, u, T)

        G = np.stack([mode_generator(sys, n)
                      for n in range(-nmax, nmax + 1)])

        def rhs(t, c):
            return (-np.einsum("nij,nj->ni", G, c)
                    + u.at(t) @ sys.M.T)

        c = f0.coeffs.copy()
        dt_ = T / nsteps
        for k in range(nsteps):
            t = k * dt_
            k1 = rhs(t, c)
            k2 = rhs(t + dt_ / 2, c + dt_ / 2 * k1)
            k3 = rhs(t + dt_ / 2, c + dt_ / 2 * k2)
            k4 = rhs(t + dt_, c + dt_ * k3)
            c = c + dt_ / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        worst = max(worst, float(np.linalg.norm(fT.coeffs - c)
                                 / np.linalg.norm(c)))
    dt = time.monotonic() - t0
    _report(3, "mode semigroup vs RK4 oracle",
            worst <= 1e-7 and dt < 30.0,
            f"max relative error {worst:.2e}, {dt:.1f} s")


def test_acceptance_04_observability_decay_below_minimal_time():
    t0 = time.monotonic()
    sys = nscl_system()
    consts = spectral.separation_radius(sys)
    T = 0.5 * np.pi  # half the minimal time for omega = (0, pi)
    Ns = [8, 16, 32, 64, 128]
    ratios, approx = [], []
    for N in Ns:
        wn = obstruction.witness_nmax(N)
        branches = spectral.build_branch_table(sys, consts, wn)
        wit = obstruction.build_witness(sys, branches, HALF_TORUS, T, N,
                                        consts=consts)
        ratios.append(obstruction.observability_ratio(wit, HALF_TORUS, T))
        errs = [(wit.gN_coeffs(t).coeffs - wit.gNtilde_coeffs(t).coeffs)
                for t in np.linspace(0.0, T, 17)]
        approx.append(max(np.linalg.norm(e) * np.sqrt(TWO_PI)
                          for e in errs) / wit.chiN.norm())
    slope_ratio = float(np.polyfit(np.log(Ns), np.log(ratios), 1)[0])
    slope_approx = float(np.polyfit(np.log(Ns), np.log(approx), 1)[0])
    dt = time.monotonic() - t0
    _report(4, "high-frequency observability collapse",
            slope_ratio <= -1.5 and slope_approx <= -0.8 and dt < 120.0,
            f"ratio slope {slope_ratio:.2f}, approximation slope "
            f"{slope_approx:.4f}, {dt:.1f} s")


def test_acceptance_05_transport_steering():
    rng = np.random.default_rng(2)
    mu, Tp = 1.0, 5.0
    eta = control.cutoff_eta((0.0, np.pi), Tprime=Tp, mu=mu, delta=0.1)
    ns = np.arange(-4, 5)
    gx, gw = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(0.0, Tp, 65)
    xs = np.linspace(0, TWO_PI, 24, endpoint=False)
    out_x = np.array([3.5, 4.5, 6.0])
    worst, worst_sup = 0.0, 0.0
    for _ in range(10):
        a0 = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        aT = rng.standard_normal(9) + 1j * rng.standard_normal(9)

        def scal0(x, a0=a0):
            return np.exp(1j * np.outer(np.atleast_1d(x), ns)) @ a0

        def scalT(x, aT=aT):
            return np.exp(1j * np.outer(np.atleast_1d(x), ns)) @ aT

        u = control.transport_control(scal0, scalT, mu, HALF_TORUS, Tp,
                                      eta)
        reached = scal0(xs - mu * Tp)
        for a, b in zip(edges[:-1], edges[1:]):
            ss = 0.5 * (a + b) + 0.5 * (b - a) * gx
            for s, w in zip(ss, 0.5 * (b - a) * gw):
                reached = reached + w * u(s, xs - mu * (Tp - s))
        worst = max(worst, float(np.max(np.abs(reached - scalT(xs)))))
        worst_sup = max(worst_sup,
                        float(np.max(np.abs(u(2.5, out_x)))),
                        float(np.max(np.abs(u(-0.05, xs)))),
                        float(np.max(np.abs(u(Tp + 0.05, xs)))))
    _report(5, "exact transport steering",
            worst <= 1e-6 and worst_sup <= 1e-10,
            f"max steering error {worst:.2e}, max leakage outside the "
            f"box {worst_sup:.2e}")


def test_acceptance_06_parabolic_moment_control():
    worst = 0.0
    min_eig = np.inf
    conds = {}
    cases = [("decoupled heat", decoupled_heat_system(), 1),
             ("coupled flow", nscl_system(), None)]
    for label, sys, n0o in cases:
        consts = spectral.separation_radius(sys, n0_override=n0o)
        branches = spectral.build_branch_table(sys, consts, 24)
        rng = np.random.default_rng(3)
        f0p = project_branch(random_state(rng, 24, 2), branches,
                             consts.n0, "p")
        conds[label] = []
        for N in (4, 8, 12):
            u, mp = control.parabolic_moment_control(
                sys, branches, f0p, 1.0, N, HALF_TORUS, consts.n0)
            fT = evolve(sys, f0p, u, 1.0)
            res = project_branch(fT, branches, consts.n0, "p",
                                 nband=N).norm()
            worst = max(worst, float(res))
            min_eig = min(min_eig, mp.min_eig)
            conds[label].append(mp.cond)
    slopes = {k: float(np.polyfit((4, 8, 12), np.log(v), 1)[0])
              for k, v in conds.items()}
    ok = worst <= 1e-8 and min_eig > 0.0 \
        and all(np.isfinite(s) for s in slopes.values())
    _report(6, "moment-method parabolic band control", ok,
            f"max band residual {worst:.2e}, Gram min eig "
            f"{min_eig:.2e}, log-cond growth per mode "
            + ", ".join(f"{k} {s:.2f}" for k, s in slopes.items()))


def test_acceptance_07_frequency_splitting_stages():
    t0 = time.monotonic()
    sys = decoupled_heat_system()
    consts = spectral.separation_radius(sys, n0_override=1)
    nmax, T = 32, 4.0
    branches = spectral.build_branch_table(sys, consts, nmax)
    rng = np.random.default_rng(4)
    f0p = project_branch(random_state(rng, nmax, 2), branches, 1, "p")
    _, rep = control.lebeau_robbiano(sys, branches, f0p, T=T,
                                     delta=T / 8.0, rho=0.5, nmax=nmax,
                                     n0=1, omega=HALF_TORUS)
    norms = [f0p.norm()] + [s["norm_after"] for s in rep["stages"]]
    logs = np.log(norms)
    decreasing = all(b < a for a, b in zip(norms, norms[1:]))
    incr = np.diff(logs)[:4]
    concave = all(b < a + 1e-9 for a, b in zip(incr, incr[1:]))
    final = rep["final_parabolic_norm"]
    dt = time.monotonic() - t0
    _report(7, "dyadic frequency-splitting control", decreasing
            and concave and final <= 1e-6 and dt < 120.0,
            f"stage norms decreasing={decreasing}, log-concave over "
            f"first stages={concave}, final residual {final:.2e}, "
            f"{dt:.1f} s")


def test_acceptance_08_pipeline_above_minimal_time():
    t0 = time.monotonic()
    sys = nscl_system()
    consts = spectral.separation_radius(sys)
    nmax = 24
    branches = spectral.build_branch_table(sys, consts, nmax)
    Tstar = np.pi
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        f0 = random_state(rng, nmax, 2)
        _, cert = control.full_pipeline(sys, branches, consts.n0, f0,
                                        1.5 * Tstar, 1.25 * Tstar,
                                        HALF_TORUS, Tstar=Tstar)
        worst = max(worst, cert["relative"])
    # dichotomy: the hyperbolic Gramian degenerates below minimal time
    fstar = random_state(rng, nmax, 2)
    eig = {}
    for fac in (0.5, 1.5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, rep = control.hum_gramian_control(
                sys, branches, consts.n0, ("hyperbolic", nmax), fstar,
                fac * Tstar, HALF_TORUS, window=(0.0, fac * Tstar),
                Tstar=Tstar, refuse=False)
        eig[fac] = float(np.min(rep.eigs))
    gap = eig[1.5] / max(eig[0.5], 1e-300)
    dt = time.monotonic() - t0
    _report(8, "composed null control above minimal time",
            worst <= 1e-4 and gap >= 1e4,
            f"max relative terminal norm {worst:.2e}, Gramian min-eig "
            f"contrast {gap:.1e}, {dt:.1f} s")


def test_acceptance_09_cascade_dichotomy():
    sys = moving_wave_system(1.0, 1.0)
    consts = spectral.separation_radius(sys)
    nmax = 12
    branches = spectral.build_branch_table(sys, consts, nmax)
    Tstar = np.pi
    rng = np.random.default_rng(6)
    f0 = random_state(rng, nmax, 2)
    _, cert = control.full_pipeline(sys, branches, consts.n0, f0,
                                    1.5 * Tstar, 1.25 * Tstar,
                                    HALF_TORUS, Tstar=Tstar)
    rel = cert["relative"]

    K = sys.K.copy()
    K[1, 0] = 0.0
    severed = SystemMatrices(1, 1, A=sys.A, D=sys.D, K=K, M=sys.M)
    sconsts = spectral.separation_radius(severed)
    sbranches = spectral.build_branch_table(severed, sconsts, nmax)
    cond = None
    try:
        control.full_pipeline(severed, sbranches, sconsts.n0, f0,
                              1.5 * Tstar, 1.25 * Tstar, HALF_TORUS,
                              Tstar=Tstar)
        refused = False
    except np.linalg.LinAlgError as exc:
        refused = True
        m = re.search(r"(\d+\.?\d*e[+-]?\d+)", str(exc))
        cond = float(m.group(1)) if m else None
    ok = rel <= 1e-3 and refused and (cond is None or cond > 1e12)
    _report(9, "coupling-chain controllability dichotomy", ok,
            f"coupled relative norm {rel:.2e}, severed coupling refused "
            f"with condition {cond:.1e}" if cond is not None else
            f"coupled relative norm {rel:.2e}, refusal without "
            "reported condition")


def test_acceptance_10_memory_counterexample():
    rng = np.random.default_rng(7)
    Nmax = 64
    ns = np.arange(-Nmax, Nmax + 1)
    env = 1.0 / (1.0 + np.abs(ns)) ** 2
    c01 = env * (rng.standard_normal(2 * Nmax + 1)
                 + 1j * rng.standard_normal(2 * Nmax + 1))
    c01[Nmax] = 0.0
    c02 = env * (rng.standard_normal(2 * Nmax + 1)
                 + 1j * rng.standard_normal(2 * Nmax + 1))
    _, rep = analysis.memory_counterexample_control((c01, c02), 1.0,
                                                    Nmax)
    res = rep["max_moment_residual"]

    bound_ok = True
    for _ in range(10):
        m = 16
        nn = np.arange(-m, m + 1)
        e = 1.0 / (1.0 + np.abs(nn)) ** 2
        a = e * (rng.standard_normal(2 * m + 1)
                 + 1j * rng.standard_normal(2 * m + 1))
        a[m] = 0.0
        b = e * (rng.standard_normal(2 * m + 1)
                 + 1j * rng.standard_normal(2 * m + 1))
        _, r = analysis.memory_counterexample_control((a, b), 1.0, m)
        bound_ok = bound_ok and r["energy"] >= r["h1_lower_bound"] - 1e-10

    def law01(n):
        an = np.abs(n)
        return 1.0 / (an * np.log(an + 1.0))

    def law02(n):
        return np.zeros_like(n)

    Ns = [1 << k for k in (13, 14, 15, 16)]
    sums = analysis.counterexample_energy_sums(law01, law02, 1.0, Ns)
    ratios = [b / a for a, b in zip(sums, sums[1:])]
    ok = res <= 1e-10 and bound_ok and all(r >= 1.5 for r in ratios)
    _report(10, "sharpness of the regularity threshold", ok,
            f"max moment residual {res:.2e}, energy bound held on 10 "
            f"random inputs={bound_ok}, doubling ratios "
            + "/".join(f"{r:.2f}" for r in ratios))


def test_acceptance_11_pure_transport_finiteness():
    sys = nscl_system()
    rep16 = obstruction.pure_transport_space(sys, 1.0, 16)
    rep32 = obstruction.pure_transport_space(sys, 1.0, 32)
    ok = (rep16["kalman_rank_AB"] == sys.d
          and rep16["finite_dimensional_expected"]
          and rep16["count"] == rep32["count"])
    _report(11, "pure transport solutions finite-dimensional", ok,
            f"rank(B|AB) = {rep16['kalman_rank_AB']} = d, scan count "
            f"{rep16['count']} stable under truncation doubling")


def test_acceptance_12_deterministic_reruns(tmp_path):
    mismatched = []
    for kind, spec in (("spectrum", "nscl(1, 1, 1, 2, 1)"),
                       ("control", "moving-wave(1, 1)")):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / f"{kind}-{sub}"
            scn = harness.load_scenario(spec, experiment=kind, nmax=10)
            code, _ = harness.run_experiment(scn, d, seed=1)
            assert code == 0
            outs.append({f: (d / f).read_bytes()
                         for f in sorted(os.listdir(d))})
        if outs[0] != outs[1]:
            mismatched.append(kind)
    _report(12, "byte-identical reruns", not mismatched,
            "all emitted files identical across reruns" if not mismatched
            else f"mismatch in {mismatched}")
