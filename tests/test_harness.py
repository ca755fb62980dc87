import json
import os
import re

import numpy as np
import pytest

from torusctrl import cli, harness, spectral
from torusctrl.algebra import TorusSubset
from torusctrl.harness import (Scenario, ScenarioError, load_scenario,
                               run_experiment)


GOOD_CONFIG = """\
[system]
d1 = 1
d2 = 1
A = [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]
D = [[[1, 0]]]
K = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
M = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]

[geometry]
omega = [[0, 3.141592653589793]]

[experiment]
kind = simulate
name = coupled-transport-heat
T = 2.0
nmax = 10
"""


class TestBuiltinParsing:

    def test_known_builtins_resolve(self):
        for spec in ("damped-wave(0.5)", "moving-wave(1, 1)",
                     "heat-memory", "nscl(1, 1, 1, 2, 1)"):
            scn = load_scenario(spec)
            assert scn.sys.d1 + scn.sys.d2 == 2

    def test_wrong_arity_rejected(self):
        with pytest.raises(ScenarioError, match="argument"):
            load_scenario("damped-wave(0.5, 1.0)")
        with pytest.raises(ScenarioError, match="argument"):
            load_scenario("nscl(1, 1)")

    def test_non_numeric_argument_rejected(self):
        with pytest.raises(ScenarioError, match="bad argument"):
            load_scenario("damped-wave(abc)")

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioError, match="neither a builtin"):
            load_scenario("quasi-geostrophic")

    def test_horizon_defaults_track_minimal_time(self):
        scn = load_scenario("nscl(1, 1, 1, 2, 1)")
        assert scn.Tstar == pytest.approx(np.pi)
        assert scn.T == pytest.approx(1.5 * np.pi)
        assert scn.Tprime == pytest.approx(1.25 * np.pi)
        dw = load_scenario("damped-wave(0.5)")
        assert not np.isfinite(dw.Tstar)
        assert dw.T == 1.0

    def test_overrides_win(self):
        scn = load_scenario("nscl(1, 1, 1, 2, 1)", T=7.0, nmax=12, n0=4)
        assert scn.T == 7.0 and scn.nmax == 12 and scn.n0 == 4

    def test_unknown_experiment_kind_rejected(self):
        with pytest.raises(ScenarioError, match="experiment kind"):
            load_scenario("heat-memory", experiment="quadrature")


class TestConfigFiles:

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "scn.ini"
        p.write_text(GOOD_CONFIG)
        scn = load_scenario(str(p))
        assert scn.name == "coupled-transport-heat"
        assert scn.T == 2.0 and scn.nmax == 10
        assert scn.sys.A == pytest.approx(np.ones((2, 2)))
        ser = scn.serialize()
        assert ser["A"] == [[[1.0, 0.0], [1.0, 0.0]],
                            [[1.0, 0.0], [1.0, 0.0]]]
        assert ser["omega"] == [[0.0, np.pi]]

    def test_parse_error_names_the_field(self, tmp_path):
        p = tmp_path / "scn.ini"
        p.write_text(GOOD_CONFIG.replace("K = [[[0, 0], [0, 0]], "
                                         "[[0, 0], [0, 0]]]",
                                         "K = [[0, not-json]]"))
        with pytest.raises(ScenarioError, match=r"\[system\] K"):
            load_scenario(str(p))

    def test_missing_section_rejected(self, tmp_path):
        p = tmp_path / "scn.ini"
        p.write_text(GOOD_CONFIG.replace("[geometry]\n"
                                         "omega = [[0, "
                                         "3.141592653589793]]\n", ""))
        with pytest.raises(ScenarioError, match=r"\[geometry\]"):
            load_scenario(str(p))

    def test_cli_overrides_config(self, tmp_path):
        p = tmp_path / "scn.ini"
        p.write_text(GOOD_CONFIG)
        scn = load_scenario(str(p), nmax=6, experiment="kalman")
        assert scn.nmax == 6 and scn.experiment == "kalman"

    @pytest.mark.parametrize("text, match", [
        ("garbage\n", "no section headers"),
        (None, r"\[system\] d1, d2: not integers")])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, match):
        p = tmp_path / "scn.ini"
        p.write_text(text if text is not None
                     else GOOD_CONFIG.replace("d1 = 1", "d1 = x"))
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--scenario", str(p),
                       "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(match, err)
        assert not out.exists()


class TestNmax:

    def test_zero_rejected_not_defaulted(self):
        with pytest.raises(ScenarioError, match="nmax must be at least 1"):
            load_scenario("heat-memory", nmax=0)
        assert load_scenario("heat-memory").nmax == 24

    def test_negative_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["control", "--scenario", "heat-memory",
                       "--nmax", "-2", "--out-dir", str(out)])
        assert rc == 2
        assert "nmax must be at least 1, got -2" in capsys.readouterr().err
        assert not out.exists()


class TestHorizon:

    @pytest.mark.parametrize("flag, value", [
        ("--T", "-1"), ("--T", "0"), ("--T", "nan"), ("--Tprime", "-1")])
    def test_bad_horizon_refused_before_any_output(self, tmp_path, capsys,
                                                   flag, value):
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--scenario", "heat-memory", flag, value,
                       "--nmax", "4", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} must be finite and "
                              "positive")
        assert not out.exists()

    def test_full_torus_defaults_to_unit_horizon(self):
        # T* = 0 when omega is the whole circle; 1.5 T* would be no
        # horizon at all
        scn = Scenario("full", load_scenario("heat-memory").sys,
                       TorusSubset(((0.0, 2 * np.pi),)))
        assert scn.Tstar == 0.0 and (scn.T, scn.Tprime) == (1.0, 0.75)


class TestRunExperiment:

    def test_simulate_emits_csv_and_manifest(self, tmp_path):
        scn = load_scenario("damped-wave(0.5)", nmax=8)
        code, text = run_experiment(scn, tmp_path, seed=3)
        assert code == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["seed"] == 3
        assert man["scenario"]["name"] == "damped-wave(0.5)"
        assert "timestamp" not in man
        for fname in man["outputs"]:
            assert (tmp_path / fname).exists()
        assert "simulate" in text

    def test_kalman_on_cascade_system(self, tmp_path):
        scn = load_scenario("moving-wave(1, 1)", experiment="kalman",
                            nmax=8)
        code, text = run_experiment(scn, tmp_path)
        assert code == 0
        assert "satisfied" in text

    def test_refusal_still_writes_manifest(self, tmp_path):
        # zero transport speed: no finite minimal time, the pipeline
        # must refuse before doing any work
        scn = load_scenario("damped-wave(1)", experiment="pipeline",
                            nmax=8)
        code, text = run_experiment(scn, tmp_path)
        assert code == 2
        assert "REFUSED" in text
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "summary.txt").read_text() == text

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            scn = load_scenario("nscl(1, 1, 1, 2, 1)",
                                experiment="spectrum", nmax=8)
            code, _ = run_experiment(scn, d, seed=1)
            assert code == 0
            outs.append({f: (d / f).read_bytes()
                         for f in os.listdir(d)})
        assert outs[0].keys() == outs[1].keys()
        for f in outs[0]:
            assert outs[0][f] == outs[1][f], f


class TestCli:

    def test_exit_codes_and_outputs(self, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--scenario", "heat-memory",
                       "--nmax", "6", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv, line", [
        (["obstruct", "--scenario", "nscl(1, 1, 1, 2, 1)", "--T", "1.5",
          "--nmax", "16"],
         r"fitted log-log slope of the observability ratio: -\d+\.\d{4} "),
        (["pipeline", "--scenario", "nscl(1, 1, 1, 2, 1)", "--nmax", "10"],
         r"path: joint-sweeps$"),
        (["counterexample", "--scenario", "heat-memory"],
         r"non-H1 law energy-sum doubling ratios .* \(divergence\)$"),
        (["appendix-a", "--scenario", "moving-wave(1, 1)"],
         r"count stable under nmax doubling: True ")],
        ids=["obstruct", "pipeline", "counterexample", "appendixA"])
    def test_experiment_succeeds(self, tmp_path, capsys, argv, line):
        out = tmp_path / "run"
        rc = cli.main(argv + ["--out-dir", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert re.search(line, text, re.MULTILINE), text
        man = json.loads((out / "manifest.json").read_text())
        assert man["outputs"]
        for fname in man["outputs"]:
            assert (out / fname).exists(), fname
        assert (out / "summary.txt").read_text() == text

    def test_scenario_error_exits_2(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--scenario", "no-such-model",
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "neither a builtin" in capsys.readouterr().err

    def test_precondition_refusal_exits_2(self, tmp_path):
        rc = cli.main(["obstruct", "--scenario", "nscl(1, 1, 1, 2, 1)",
                       "--T", "10.0", "--nmax", "8",
                       "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_pipeline_without_transport_exits_2(self, tmp_path, capsys):
        rc = cli.main(["pipeline", "--scenario", "heat-memory",
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "REFUSED (precondition)" in capsys.readouterr().out

    @pytest.mark.parametrize("nmax", ["2", "3"])
    def test_pipeline_at_or_below_cutoff_exits_2(self, tmp_path, capsys,
                                                 nmax):
        # nscl has n0 = 3: no branch-resolved mode to control
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--scenario", "nscl(1, 1, 1, 2, 1)",
                       "--nmax", nmax, "--out-dir", str(out)])
        assert rc == 2
        text = capsys.readouterr().out
        assert "REFUSED (precondition)" in text
        assert f"need nmax > n0 = 3, got nmax = {nmax}" in text
        assert (out / "summary.txt").exists()

    @pytest.mark.parametrize("error", [
        np.linalg.LinAlgError("Gramian condition 2.41e+300"),
        spectral.ContourError("contour quadrature did not converge")])
    def test_numerical_failure_exits_1(self, tmp_path, monkeypatch, capsys,
                                       error):
        # LinAlgError subclasses ValueError, which alone means refusal
        def runner(scn, rng, out_dir):
            raise error

        monkeypatch.setitem(harness._DISPATCH, "pipeline",
                            (runner, ["pipeline_sweeps.csv"]))
        rc = cli.main(["pipeline", "--scenario", "nscl(1, 1, 1, 2, 1)",
                       "--nmax", "8", "--out-dir", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "NUMERICAL FAILURE" in out and str(error) in out


class TestParser:

    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_options_do_not_leak_between_calls(self, monkeypatch, capsys):
        seen = []

        def loader(name, **kwargs):
            seen.append(kwargs)
            return name

        def runner(scenario, out_dir, seed):
            seen[-1].update(out_dir=out_dir, seed=seed)
            return 0, ""

        monkeypatch.setattr(cli, "load_scenario", loader)
        monkeypatch.setattr(cli, "run_experiment", runner)
        assert cli.main(["obstruct", "--scenario", "heat-memory",
                         "--T", "2.5", "--nmax", "6", "--seed", "7",
                         "--out-dir", "elsewhere"]) == 0
        assert cli.main(["simulate", "--scenario", "heat-memory"]) == 0
        assert seen[0] == dict(experiment="obstruct", nmax=6, T=2.5,
                               Tprime=None, n0=None, out_dir="elsewhere",
                               seed=7)
        assert seen[1] == dict(experiment="simulate", nmax=None, T=None,
                               Tprime=None, n0=None,
                               out_dir="runs/simulate", seed=0)

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["simulate"],
        ["simulate", "--scenario", "heat-memory", "--nmax", "x"]])
    def test_bad_argv_exits_2_after_a_good_call(self, tmp_path, capsys,
                                                argv):
        assert cli.main(["kalman", "--scenario", "moving-wave(1, 1)",
                         "--out-dir", str(tmp_path)]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage: torusctrl" in capsys.readouterr().err
