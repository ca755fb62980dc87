"""Scenario registry, plain-text configuration, and experiment runners.

Scenarios bundle a validated system with a geometry and experiment
parameters; run_experiment dispatches to the computational modules and
emits a manifest, CSV data files, a gnuplot stub, and a text summary.
Runs are deterministic given the manifest (fixed seed, fixed solver
paths), so reruns produce bit-identical CSVs.
"""

import configparser
import hashlib
import json
import os
import re

import numpy as np
import scipy

from . import __version__
from .algebra import (SystemMatrices, TorusSubset, TWO_PI, PreconditionError,
                      validate_system, minimal_time, cascade_transform)
from . import spectral, dynamics, obstruction, control, analysis
from .dynamics import FourierState, evolve, project_branch, project_low

__all__ = [
    "Scenario", "ScenarioError", "PreconditionError", "load_scenario",
    "run_experiment", "BUILTIN_NAMES", "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = ("simulate", "spectrum", "obstruct", "control",
                    "pipeline", "kalman", "counterexample", "appendixA")

BUILTIN_NAMES = ("damped-wave(b)", "moving-wave(c,b)", "heat-memory",
                 "nscl(rhobar,vbar,a,gamma,mu)")
# seeded data carry the envelope e^{-RANDOM_STATE_DECAY n^2}
RANDOM_STATE_DECAY = 0.05


class ScenarioError(ValueError):
    """Configuration parse or validation failure."""


class Scenario:
    """Resolved experiment description.

    n0 = None means "use the certified frequency cutoff from the branch
    separation analysis"; a positive integer overrides it.
    """

    def __init__(self, name, sys, omega, T=None, Tprime=None, nmax=24,
                 n0=None, experiment="simulate"):
        if experiment not in EXPERIMENT_KINDS:
            raise ScenarioError(
                f"unknown experiment kind {experiment!r}; "
                f"expected one of {EXPERIMENT_KINDS}")
        if int(nmax) < 1:
            raise ScenarioError(f"nmax must be at least 1, got {nmax}")
        report = validate_system(sys)
        if not report.ok:
            failed = [h for h in ("h1", "h2", "h3", "h4")
                      if not getattr(report, h)]
            raise ScenarioError(
                f"scenario {name!r}: system hypotheses failed: {failed} "
                f"({report.diagnostics.get('h4_reason', '')})")
        self.name = name
        self.sys = sys
        self.omega = omega
        self.validation = report
        self.Tstar = minimal_time(sys, omega)
        # the default horizons scale with a finite, positive T*
        scaled = 0.0 < self.Tstar < np.inf
        if T is None:
            T = 1.5 * self.Tstar if scaled else 1.0
        if Tprime is None:
            Tprime = 1.25 * self.Tstar if scaled else 0.75 * T
        for key, val in (("T", T), ("Tprime", Tprime)):
            if not (np.isfinite(val) and val > 0):
                raise ScenarioError(
                    f"{key} must be finite and positive, got {val}")
        self.T = float(T)
        self.Tprime = float(Tprime)
        self.nmax = int(nmax)
        self.n0 = None if n0 is None else int(n0)
        self.experiment = experiment

    def serialize(self):
        """Row-major [re, im] serialization used by configs and manifests."""
        def mat(a):
            return [[[float(v.real), float(v.imag)] for v in row]
                    for row in np.atleast_2d(a)]
        return {
            "name": self.name,
            "d1": self.sys.d1, "d2": self.sys.d2,
            "A": mat(self.sys.A), "D": mat(self.sys.D),
            "K": mat(self.sys.K), "M": mat(self.sys.M),
            "omega": [[float(a), float(b)] for a, b in self.omega.arcs],
            "T": self.T, "Tprime": self.Tprime,
            "nmax": self.nmax, "n0": self.n0,
            "experiment": self.experiment,
            "Tstar": self.Tstar if np.isfinite(self.Tstar) else "inf",
        }


# ------------------------------------------------------------- builtins

def _damped_wave(b):
    return SystemMatrices(
        1, 1,
        A=np.zeros((2, 2)),
        D=np.array([[1.0]]),
        K=np.array([[1.0, 1.0 - b], [-1.0, b - 1.0]]),
        M=np.array([[1.0], [0.0]]))


def _moving_wave(c, b):
    return SystemMatrices(
        1, 1,
        A=np.array([[-c, 0.0], [0.0, -c]]),
        D=np.array([[1.0]]),
        K=np.array([[1.0, 1.0 - b], [-1.0, b - 1.0]]),
        M=np.array([[1.0], [0.0]]))


def _heat_memory():
    return SystemMatrices(
        1, 1,
        A=np.array([[0.0, 1.0], [1.0, 0.0]]),
        D=np.array([[1.0]]),
        K=np.zeros((2, 2)),
        M=np.array([[0.0], [1.0]]))


def _nscl(rhobar, vbar, a, gamma, mu):
    if min(rhobar, a, gamma, mu) <= 0:
        raise ScenarioError("nscl parameters rhobar, a, gamma, mu "
                            "must be positive")
    return SystemMatrices(
        1, 1,
        A=np.array([[vbar, rhobar], [a * rhobar ** (gamma - 2.0), vbar]]),
        D=np.array([[mu / rhobar]]),
        K=np.zeros((2, 2)),
        M=np.eye(2))


_BUILTINS = {
    "damped-wave": (_damped_wave, 1),
    "moving-wave": (_moving_wave, 2),
    "heat-memory": (_heat_memory, 0),
    "nscl": (_nscl, 5),
}

_DEFAULT_OMEGA = TorusSubset(((0.0, np.pi),))


def _parse_builtin(spec_str):
    """The system of a builtin spec, None if spec_str names no builtin."""
    m = re.fullmatch(r"\s*([a-z-]+)\s*(?:\((.*)\))?\s*", spec_str)
    if not m or m.group(1) not in _BUILTINS:
        return None
    name, argstr = m.group(1), m.group(2)
    factory, nargs = _BUILTINS[name]
    args = []
    if argstr and argstr.strip():
        try:
            args = [float(a) for a in argstr.split(",")]
        except ValueError as e:
            raise ScenarioError(f"builtin {name!r}: bad argument ({e})")
    if len(args) != nargs:
        raise ScenarioError(
            f"builtin {name!r} takes {nargs} argument(s), got {len(args)}")
    return factory(*args)


# -------------------------------------------------------------- configs

def _parse_complex_matrix(section, key, text):
    """Row-major list of rows of [re, im] pairs."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"[{section}] {key}: not valid JSON ({e.msg}, "
                            f"line {e.lineno})")
    try:
        out = np.array([[complex(p[0], p[1]) for p in row] for row in rows])
    except (TypeError, IndexError):
        raise ScenarioError(
            f"[{section}] {key}: entries must be [re, im] pairs")
    if out.ndim != 2:
        raise ScenarioError(f"[{section}] {key}: expected a matrix")
    return out


def _load_config(path):
    """(name, system, omega, Scenario keywords) parsed from a config."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as e:
        raise ScenarioError(f"{path}: {e}")
    for sec in ("system", "geometry", "experiment"):
        if sec not in cp:
            raise ScenarioError(f"{path}: missing section [{sec}]")
    sysec = cp["system"]
    try:
        d1, d2 = int(sysec["d1"]), int(sysec["d2"])
    except KeyError as e:
        raise ScenarioError(f"[system]: missing field {e}")
    except ValueError:
        raise ScenarioError("[system] d1, d2: not integers")
    mats = {k: _parse_complex_matrix("system", k, sysec[k])
            for k in ("A", "D", "K", "M") if k in sysec}
    for k in ("A", "D", "K", "M"):
        if k not in mats:
            raise ScenarioError(f"[system]: missing matrix {k}")
    try:
        sys = SystemMatrices(d1, d2, A=mats["A"], D=mats["D"],
                             K=mats["K"], M=mats["M"])
    except ValueError as e:
        raise ScenarioError(f"[system]: {e}")
    geo = cp["geometry"]
    try:
        arcs = json.loads(geo.get("omega", "[[0, 3.141592653589793]]"))
        omega = TorusSubset(tuple((float(a), float(b)) for a, b in arcs))
    except (json.JSONDecodeError, ValueError, TypeError) as e:
        raise ScenarioError(f"[geometry] omega: {e}")
    exp = cp["experiment"]
    kw = {}
    for key, cast in (("T", float), ("Tprime", float),
                      ("nmax", int), ("n0", int)):
        if key in exp:
            try:
                kw[key] = cast(exp[key])
            except ValueError:
                raise ScenarioError(f"[experiment] {key}: not a number")
    kw["experiment"] = exp.get("kind", "simulate")
    return exp.get("name", os.path.basename(path)), sys, omega, kw


def load_scenario(spec_str, experiment=None, nmax=None, T=None,
                  Tprime=None, n0=None):
    """Resolve a builtin name like "nscl(1,1,1,1.4,0.1)" or a config path.

    Keyword arguments override the scenario's stored parameters (the CLI
    routes --nmax etc. through here).
    """
    overrides = {"T": T, "Tprime": Tprime, "nmax": nmax, "n0": n0,
                 "experiment": experiment}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    sys = _parse_builtin(spec_str)
    if sys is not None:
        return Scenario(spec_str.strip(), sys, _DEFAULT_OMEGA, **overrides)
    if os.path.exists(spec_str):
        name, sys, omega, kw = _load_config(spec_str)
        return Scenario(name, sys, omega, **{**kw, **overrides})
    raise ScenarioError(
        f"{spec_str!r} is neither a builtin ({', '.join(BUILTIN_NAMES)}) "
        "nor an existing config file")


# ------------------------------------------------------------ emission

def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, complex):
        return f"{v.real:.17e}{v.imag:+.17e}j"
    return f"{float(v):.17e}"


def _write_csv(out_dir, fname, header, rows):
    path = os.path.join(out_dir, fname)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _write_manifest(out_dir, scenario, seed, csv_names):
    ser = scenario.serialize()
    blob = json.dumps(ser, sort_keys=True).encode()
    manifest = {
        "scenario": ser,
        "inputs_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": int(seed),
        "versions": {"torusctrl": __version__,
                     "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "outputs": csv_names,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _write_gnuplot_stub(out_dir, csv_name, xlabel, ylabel, logscale=False):
    lines = [
        "# gnuplot stub; run: gnuplot plot.gp",
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
    ]
    if logscale:
        lines.append("set logscale xy")
    lines += [
        "set terminal pngcairo size 900,600",
        "set output 'plot.png'",
        f"plot '{csv_name}' using 1:2 with linespoints",
    ]
    with open(os.path.join(out_dir, "plot.gp"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_summary(out_dir, lines):
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(text)
    return text


def _random_state(rng, nmax, d):
    st = FourierState.zeros(nmax, d)
    env = np.exp(-RANDOM_STATE_DECAY
                 * np.arange(-nmax, nmax + 1) ** 2)[:, None]
    st.coeffs[:] = env * (rng.standard_normal((2 * nmax + 1, d))
                          + 1j * rng.standard_normal((2 * nmax + 1, d)))
    return st


# --------------------------------------------------------- experiments

def _exp_simulate(scn, rng, out_dir):
    f0 = _random_state(rng, scn.nmax, scn.sys.d)
    ts = np.linspace(0.0, scn.T, 65)
    _, traj = evolve(scn.sys, f0, None, scn.T, sample_times=ts)
    rows = []
    for t, st in zip(ts, traj):
        comp = np.sqrt(TWO_PI) * np.linalg.norm(st.coeffs, axis=0)
        rows.append([t, st.norm()] + list(comp))
    header = ["t", "norm"] + [f"norm_f{c + 1}" for c in range(scn.sys.d)]
    csv = _write_csv(out_dir, "simulate_norms.csv", header, rows)
    sup = max(r[1] for r in rows)
    lines = [f"simulate: {scn.name}, T = {scn.T:.6g}, nmax = {scn.nmax}",
             f"||f0|| = {f0.norm():.6e}",
             f"sup_t ||f(t)|| = {sup:.6e} "
             f"(well-posedness ratio {sup / f0.norm():.6e})",
             f"||f(T)|| = {rows[-1][1]:.6e}"]
    _write_gnuplot_stub(out_dir, os.path.basename(csv), "t", "norm")
    return lines


def _exp_spectrum(scn, rng, out_dir):
    consts = spectral.separation_radius(scn.sys, n0_override=scn.n0)
    sys = scn.sys
    size, phase = rng.uniform([0, 0], [1.0 / consts.n0, TWO_PI],
                              size=(200, 2)).T
    zs = size * np.exp(1j * phase)
    Ph, _ = spectral.projection_split(sys, zs, consts.R)
    per_speed = spectral.hyperbolic_branches(sys, zs, Ph)
    E = spectral.eval_symbol(sys, zs)
    zz = zs[:, None, None]
    fro = lambda a: np.linalg.norm(a, axis=(1, 2))  # noqa: E731
    scale = np.maximum(fro(E), 1.0)
    res = np.column_stack([
        fro(Ph @ Ph - Ph), fro(Ph @ E - E @ Ph) / scale,
        fro(sum(P for P, _ in per_speed.values()) - Ph),
        np.max([fro(E @ P - mu * zz * P - zz ** 2 * R) / scale
                for mu, (P, R) in per_speed.items()], axis=0)])
    worst = res.max(axis=0)
    rows = np.column_stack([zs.real, zs.imag, res]).tolist()
    csv = _write_csv(out_dir, "spectrum_residuals.csv",
                     ["re_z", "im_z", "idempotent", "commutator",
                      "branch_sum", "branch_eq"], rows)
    lines = [f"spectrum: {scn.name}, 200 samples with |z| <= 1/n0",
             f"separation radius r = {consts.r:.6g}, n0 = {consts.n0}, "
             f"split radius R = {consts.R:.6g}",
             f"max residuals: idempotent {worst[0]:.3e}, commutator "
             f"{worst[1]:.3e}, branch sum {worst[2]:.3e}, branch "
             f"equation {worst[3]:.3e}"]
    _write_gnuplot_stub(out_dir, os.path.basename(csv), "Re z", "residual")
    return lines


def _exp_obstruct(scn, rng, out_dir):
    # build_witness's refusals, before any branch table is built
    obstruction.witness_track(scn.sys, scn.omega, scn.T)
    consts = spectral.separation_radius(scn.sys, n0_override=scn.n0)
    # highpass order must clear the frequency cutoff so the witness only
    # carries branch-resolved modes
    lo = 8
    while lo <= consts.n0:
        lo *= 2
    Ns = [lo]
    while Ns[-1] * 2 <= max(scn.nmax, 2 * lo):
        Ns.append(Ns[-1] * 2)
    rows = []
    for N in Ns:
        wn = obstruction.witness_nmax(N)
        branches = spectral.build_branch_table(scn.sys, consts, wn)
        wit = obstruction.build_witness(scn.sys, branches, scn.omega,
                                        scn.T, N, consts=consts)
        ratio = obstruction.observability_ratio(wit, scn.omega, scn.T)
        rows.append([N, ratio])
    slope = float(np.polyfit(np.log([r[0] for r in rows]),
                             np.log([r[1] for r in rows]), 1)[0])
    csv = _write_csv(out_dir, "obstruct_ratios.csv", ["N", "ratio"], rows)
    lines = [f"obstruct: {scn.name}, T = {scn.T:.6g} < T* = "
             f"{scn.Tstar:.6g}",
             f"N sweep {Ns}",
             f"fitted log-log slope of the observability ratio: "
             f"{slope:.4f} (decay kills any uniform constant)"]
    _write_gnuplot_stub(out_dir, os.path.basename(csv), "N", "ratio",
                        logscale=True)
    if not slope < 0:
        raise ArithmeticError("observability ratio does not decay: "
                              f"fitted slope {slope:.4f} over N sweep {Ns}")
    return lines


def _exp_control(scn, rng, out_dir):
    consts = spectral.separation_radius(scn.sys, n0_override=scn.n0)
    N = min(scn.nmax, 12)
    # the moment block's band refusal, before the branch table is built
    control.check_band(("parabolic", N), consts.n0, scn.nmax)
    branches = spectral.build_branch_table(scn.sys, consts, scn.nmax)
    f0 = _random_state(rng, scn.nmax, scn.sys.d)
    f0p = project_branch(f0, branches, consts.n0, "p")
    u, mp = control.parabolic_moment_control(
        scn.sys, branches, f0p, scn.T, N, scn.omega, consts.n0)
    fT = evolve(scn.sys, f0p, u, scn.T)
    fTp = project_branch(fT, branches, consts.n0, "p")
    rows = [[int(n), float(np.linalg.norm(fTp.get(n)))] for n in mp.modes]
    res = max(r[1] for r in rows)
    csv = _write_csv(out_dir, "control_residuals.csv",
                     ["mode", "parabolic_residual"], rows)
    lines = [f"control: {scn.name}, parabolic moment control, "
             f"N = {N}, T = {scn.T:.6g}",
             f"Gram condition (scaled) {mp.cond_scaled:.3e}, "
             f"min eigenvalue {mp.min_eig:.3e}",
             f"headroom to refusal: log10(cond_max / cond) = "
             f"{control.cond_headroom(mp.cond_scaled):.2f}",
             f"max per-mode parabolic residual at T: {res:.3e}"]
    _write_gnuplot_stub(out_dir, os.path.basename(csv), "mode", "residual")
    return lines


def _exp_pipeline(scn, rng, out_dir):
    # full_pipeline's horizon refusal, before the branch table is built
    control.check_horizons(scn.T, scn.Tprime, scn.Tstar)
    consts = spectral.separation_radius(scn.sys, n0_override=scn.n0)
    branches = spectral.build_branch_table(scn.sys, consts, scn.nmax)
    f0 = _random_state(rng, scn.nmax, scn.sys.d)
    _, cert = control.full_pipeline(
        scn.sys, branches, consts.n0, f0, scn.T, scn.Tprime, scn.omega,
        Tstar=scn.Tstar)
    rows = [[s["sweep"], s["relative_residual"], s["h"], s["p"], s["low"]]
            for s in cert["sweeps"]]
    csv = _write_csv(out_dir, "pipeline_sweeps.csv",
                     ["sweep", "relative_residual", "hyperbolic",
                      "parabolic", "low"], rows)
    lines = [f"pipeline: {scn.name}, T = {scn.T:.6g} > T* = "
             f"{scn.Tstar:.6g}, Tprime = {scn.Tprime:.6g}",
             f"path: {cert['path']}",
             f"final relative norm ||f(T)||/||f0|| = "
             f"{cert['relative']:.6e}"]
    if cert["joint_cond"] is not None:
        lines.append(f"joint Gramian condition (scaled): "
                     f"{cert['joint_cond']:.3e}")
        lines.append(f"headroom to refusal: log10(cond_max / cond) = "
                     f"{cert['joint_cond_headroom_log10']:.2f}")
    _write_gnuplot_stub(out_dir, os.path.basename(csv), "sweep",
                        "relative residual")
    if cert["relative"] > 1e-3:
        raise ArithmeticError(
            f"pipeline failed to converge: final relative norm "
            f"{cert['relative']:.3e} (path {cert['path']})")
    return lines


def _exp_kalman(scn, rng, out_dir):
    sys = scn.sys
    # cascade_transform refuses a Kalman rank below d2: here it is d2
    form = cascade_transform(sys.K22, sys.K21)
    rows = []
    for i in range(sys.d2):
        rows.append([i] + [form.Khat22[i, j].real for j in range(sys.d2)]
                    + [form.Khat21[i, j].real for j in range(sys.d1)])
    header = (["row"] + [f"Khat22_{j}" for j in range(sys.d2)]
              + [f"Khat21_{j}" for j in range(sys.d1)])
    csv = _write_csv(out_dir, "kalman_cascade.csv", header, rows)
    lines = [f"kalman: {scn.name}",
             f"(K22, K21) Kalman rank {sys.d2} of {sys.d2}: satisfied",
             f"cascade block sizes {form.block_sizes} from columns "
             f"{form.column_indices}"]
    _write_gnuplot_stub(out_dir, os.path.basename(csv), "row", "entry")
    return lines


def _exp_counterexample(scn, rng, out_dir):
    # fixed transport + heat pair (the scenario supplies T, nmax, seed)
    Nmax = max(scn.nmax, 16)
    env = 1.0 / (1.0 + np.arange(-Nmax, Nmax + 1) ** 2).astype(float)
    c01 = env * (rng.standard_normal(2 * Nmax + 1)
                 + 1j * rng.standard_normal(2 * Nmax + 1))
    c01[Nmax] = 0.0
    c02 = env * (rng.standard_normal(2 * Nmax + 1)
                 + 1j * rng.standard_normal(2 * Nmax + 1))
    u, rep = analysis.memory_counterexample_control(
        (c01, c02), scn.T, Nmax)
    rows = [[n, rep["moment_residuals"][n + Nmax],
             rep["mode_energies"][n + Nmax]]
            for n in range(-Nmax, Nmax + 1)]
    csv = _write_csv(out_dir, "counterexample_modes.csv",
                     ["mode", "moment_residual", "energy"], rows)

    def law01(n):
        return 1.0 / (np.abs(n) * np.log(np.abs(n) + 1.0))

    def law02(n):
        return np.zeros_like(n)

    Ns = [1 << k for k in range(13, 17)]
    sums = analysis.counterexample_energy_sums(law01, law02, scn.T, Ns)
    ratios = [sums[i + 1] / sums[i] for i in range(len(sums) - 1)]
    _write_csv(out_dir, "counterexample_divergence.csv",
               ["nmax", "energy_sum"],
               [[N, s] for N, s in zip(Ns, sums)])
    lines = [f"counterexample: transport + heat pair, T = {scn.T:.6g}, "
             f"Nmax = {Nmax}",
             f"max moment residual {rep['max_moment_residual']:.3e}",
             f"control energy {rep['energy']:.6e} >= H1 lower bound "
             f"{rep['h1_lower_bound']:.6e}",
             f"non-H1 law energy-sum doubling ratios "
             f"{[f'{r:.3f}' for r in ratios]} (divergence)"]
    _write_gnuplot_stub(out_dir, os.path.basename(csv), "mode", "residual")
    return lines


def _exp_appendix_a(scn, rng, out_dir):
    sys = scn.sys
    speeds = sys.transport_speeds().tolist()
    rows = []
    counts = {}
    for nmax in (scn.nmax, 2 * scn.nmax):
        for mu in speeds:
            rep = obstruction.pure_transport_space(sys, mu, nmax)
            rows.append([nmax, mu, rep["count"], rep["kalman_rank_AB"]])
            counts.setdefault(mu, []).append(rep["count"])
    csv = _write_csv(out_dir, "appendix_a_scan.csv",
                     ["nmax", "mu", "match_count", "rank_B_AB"], rows)
    stable = all(v[0] == v[1] for v in counts.values())
    rank = rows[0][3]
    lines = [f"appendix-a: {scn.name}, pure-transport space scan at "
             f"nmax = {scn.nmax} and {2 * scn.nmax}",
             f"rank (B | AB | ...) = {rank} of d = {sys.d}",
             f"match counts per speed: "
             + "; ".join(f"mu={mu:.4g}: {v}" for mu, v in counts.items()),
             f"count stable under nmax doubling: {stable} "
             f"(finite-dimensionality surrogate)"]
    _write_gnuplot_stub(out_dir, os.path.basename(csv), "nmax", "count")
    return lines


_DISPATCH = {
    "simulate": (_exp_simulate, ["simulate_norms.csv"]),
    "spectrum": (_exp_spectrum, ["spectrum_residuals.csv"]),
    "obstruct": (_exp_obstruct, ["obstruct_ratios.csv"]),
    "control": (_exp_control, ["control_residuals.csv"]),
    "pipeline": (_exp_pipeline, ["pipeline_sweeps.csv"]),
    "kalman": (_exp_kalman, ["kalman_cascade.csv"]),
    "counterexample": (_exp_counterexample,
                       ["counterexample_modes.csv",
                        "counterexample_divergence.csv"]),
    "appendixA": (_exp_appendix_a, ["appendix_a_scan.csv"]),
}


def run_experiment(scenario: Scenario, out_dir, seed=0):
    """Run the scenario's experiment into out_dir.

    The manifest is written before any computation starts; on failure
    the summary flags the partial outputs.  Returns (exit_code, summary
    text): 0 success; 2 a refusal, a PreconditionError raised where the
    library decides the condition; 1 any other ValueError (LinAlgError
    included), ArithmeticError or ContourError, a numerical failure or
    an internal error.
    """
    os.makedirs(out_dir, exist_ok=True)
    runner, csv_names = _DISPATCH[scenario.experiment]
    _write_manifest(out_dir, scenario, seed, csv_names)
    rng = np.random.default_rng(seed)
    try:
        lines = runner(scenario, rng, out_dir)
        code = 0
    except PreconditionError as e:
        code, verdict = 2, f"REFUSED (precondition): {e}"
    except (ValueError, ArithmeticError, spectral.ContourError) as e:
        code, verdict = 1, f"NUMERICAL FAILURE: {e}"
    if code:
        lines = [f"{scenario.experiment}: {scenario.name}", verdict,
                 "outputs in this directory are partial"]
    text = _write_summary(out_dir, lines)
    return code, text
