"""The benchmark's workloads, written against torusctrl's public functions.

Each workload is a class whose constructor is the set-up (the work every
solve reuses: scenario resolution, separation radius, branch table, spatial
weight, and the seeded inputs) and whose `solve(i, pause)` runs one unit of
user work on input i and checks it.  `solve` returns (ok, detail); the
checks follow the acceptance bounds, so a fast wrong answer counts as a
failure.  A solve made of several steps calls `pause()` between them, where
the benchmark times its reference kernel: the machine's speed changes
within a solve of several seconds, and a reference timing next to each
step tracks it.

Problem sizes are smaller than the acceptance tests where a full-size solve
would not fit several times into one measured run (see perfbench/README.md).
"""

import contextlib
import io
import json
import os
import shutil

import numpy as np

from torusctrl import cli, control, harness, obstruction, spectral
from torusctrl.algebra import SystemMatrices, TorusSubset
from torusctrl.dynamics import project_branch

POOL = 64  # inputs generated in set-up; solves cycle through them
HALF_TORUS = TorusSubset(((0.0, np.pi),))
NSCL = "nscl(1, 1, 1, 2, 1)"


class Pipeline:
    """full_pipeline on nscl above the minimal time, one datum per solve.

    Free decay to T' leaves the parabolic part below 1e-12, so the solve
    is the joint dual solve, its emission and the evolutions that check
    it; lebeau_robbiano is never called.
    """

    NMAX = 10

    def __init__(self, seed, out_dir):
        self.scn = harness.load_scenario(NSCL, experiment="pipeline",
                                         nmax=self.NMAX)
        self.consts = spectral.separation_radius(self.scn.sys)
        self.branches = spectral.build_branch_table(
            self.scn.sys, self.consts, self.scn.nmax)
        rng = np.random.default_rng(seed)
        self.inputs = [harness._random_state(rng, self.scn.nmax,
                                             self.scn.sys.d)
                       for _ in range(POOL)]

    def solve(self, i, pause):
        scn = self.scn
        _, cert = control.full_pipeline(
            scn.sys, self.branches, self.consts.n0, self.inputs[i % POOL],
            scn.T, scn.Tprime, scn.omega, Tstar=scn.Tstar)
        rel = cert["relative"]
        return rel <= 1e-4, f"relative terminal norm {rel:.3e}"


class LRHeat:
    """lebeau_robbiano on the decoupled heat system, one datum per solve:
    the workload whose moment/Gram assembly carries real work."""

    NMAX = 12
    T = 4.0

    def __init__(self, seed, out_dir):
        zero = np.zeros((2, 2))
        sys_ = SystemMatrices(1, 1, A=zero, D=np.array([[1.0]]), K=zero,
                              M=np.eye(2))
        self.scn = harness.Scenario("decoupled heat", sys_, HALF_TORUS,
                                    T=self.T, nmax=self.NMAX, n0=1,
                                    experiment="control")
        consts = spectral.separation_radius(sys_, n0_override=self.scn.n0)
        self.n0 = consts.n0
        self.branches = spectral.build_branch_table(sys_, consts,
                                                    self.scn.nmax)
        self.weight = control.plateau_weight(self.scn.omega)
        rng = np.random.default_rng(seed)
        self.inputs = [project_branch(
                           harness._random_state(rng, self.scn.nmax, 2),
                           self.branches, self.n0, "p")
                       for _ in range(POOL)]

    def solve(self, i, pause):
        scn = self.scn
        f0p = self.inputs[i % POOL]
        _, rep = control.lebeau_robbiano(
            scn.sys, self.branches, f0p, T=scn.T, delta=scn.T / 8.0,
            rho=0.5, nmax=scn.nmax, n0=self.n0, omega=scn.omega,
            weight=self.weight)
        norms = [f0p.norm()] + [s["norm_after"] for s in rep["stages"]]
        decreasing = all(b < a for a, b in zip(norms, norms[1:]))
        final = rep["final_parabolic_norm"]
        return (decreasing and final <= 1e-6,
                f"final parabolic norm {final:.3e}, stage norms "
                f"decreasing={decreasing}")


class Witness:
    """The obstruction sweep below the minimal time: per N a branch table,
    a witness and its observability ratio.  The seed draws the horizon."""

    NS = (8, 16, 32)

    def __init__(self, seed, out_dir):
        self.scn = harness.load_scenario(NSCL, experiment="obstruct")
        self.consts = spectral.separation_radius(self.scn.sys)
        rng = np.random.default_rng(seed)
        self.inputs = list(self.scn.Tstar * rng.uniform(0.4, 0.6, POOL))

    def solve(self, i, pause):
        scn, T = self.scn, self.inputs[i % POOL]
        ratios = []
        for N in self.NS:
            branches = spectral.build_branch_table(
                scn.sys, self.consts, obstruction.witness_nmax(N))
            wit = obstruction.build_witness(scn.sys, branches, scn.omega, T,
                                            N, consts=self.consts)
            ratios.append(obstruction.observability_ratio(wit, scn.omega, T))
        ratios = np.array(ratios)
        if not np.all(np.isfinite(ratios) & (ratios > 0)):
            return False, f"ratios {ratios}"
        slope = float(np.polyfit(np.log(self.NS), np.log(ratios), 1)[0])
        return slope <= -1.5, f"T = {T:.4f}, ratio slope {slope:.2f}"


class Cli:
    """cli.main in-process over the README's invocations plus one refusal;
    one solve is one pass over the list.  The seed is passed as --seed."""

    # (argv, expected exit code): the README's eight runs, the three costly
    # ones at smaller --nmax, and one refusal
    INVOCATIONS = (
        (["simulate", "--scenario", "damped-wave(0.5)"], 0),
        (["spectrum", "--scenario", NSCL, "--nmax", "16"], 0),
        (["obstruct", "--scenario", NSCL, "--T", "1.5", "--nmax", "16"], 0),
        (["pipeline", "--scenario", NSCL, "--nmax", "10"], 0),
        (["kalman", "--scenario", "moving-wave(1, 1)"], 0),
        (["control", "--scenario", "heat-memory", "--nmax", "8"], 0),
        (["counterexample", "--scenario", "heat-memory"], 0),
        (["appendix-a", "--scenario", "moving-wave(1, 1)"], 0),
        (["pipeline", "--scenario", "heat-memory"], 2),
    )

    def __init__(self, seed, out_dir):
        self.out_dir = os.path.join(out_dir, "cli")
        self.argvs = [(argv + ["--seed", str(seed), "--out-dir",
                               os.path.join(self.out_dir, f"{k}-{argv[0]}")],
                       code) for k, (argv, code) in
                      enumerate(self.INVOCATIONS)]

    def solve(self, i, pause):
        bad = []
        for k, (argv, want) in enumerate(self.argvs):
            if k:
                pause()
            out = argv[-1]
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            missing = [f for f in self._expected_files(out, code)
                       if not os.path.isfile(os.path.join(out, f))]
            if code != want or missing:
                bad.append(f"{argv[0]}: exit {code} (want {want}), "
                           f"missing {missing}")
        return not bad, "; ".join(bad) or "all exit codes and files as expected"

    @staticmethod
    def _expected_files(out, code):
        files = ["summary.txt", "manifest.json"]
        if code == 0:
            with open(os.path.join(out, "manifest.json")) as fh:
                files += json.load(fh)["outputs"]
        return files


WORKLOADS = {"pipeline": Pipeline, "lr_heat": LRHeat, "witness": Witness,
             "cli": Cli}
