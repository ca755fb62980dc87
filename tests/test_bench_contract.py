"""What perfbench/tracer.py needs from the package.

The tracer wraps functions by name from outside the package and reads
some of their parameters and results.  A refactor that renames a traced
function, drops a default it reads or hides a function where no wrapper
reaches it would make traced benchmark runs report `correct: false`;
these tests fail first.  The tracer is loaded by path and not changed.
"""

import importlib.util
import inspect
import math
import os

import numpy as np
import pytest

import torusctrl
# the tracer looks every traced module up in sys.modules
from torusctrl import (analysis, control, dynamics, harness,  # noqa: F401
                       kernels, obstruction, spectral)
from conftest import decoupled_heat_system, random_state, HALF_TORUS

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _package_functions():
    return {(name, key): val
            for name, mod in vars(torusctrl).items()
            if inspect.ismodule(mod)
            for key, val in vars(mod).items() if callable(val)}


def test_every_layer_patched_and_restored(tracing):
    before = _package_functions()
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    missing = [f"{mod}.{attr}"
               for mod, attr in tracing.LAYERS + tracing.COUNTED
               if not tracer.patched_namespaces.get(f"{mod}.{attr}")]
    assert missing == []
    assert _package_functions() == before


def test_no_traced_function_escapes(tracing):
    assert tracing.Tracer()._escapes() == []


def test_parameters_the_tracer_reads_have_defaults():
    for fn, name in ((control.parabolic_moment_control, "cond_max"),
                     (control._joint_solve, "cond_max"),
                     (control.full_pipeline, "max_sweeps")):
        param = inspect.signature(fn).parameters[name]
        assert param.default is not inspect.Parameter.empty, (fn, name)
    assert isinstance(kernels.USING_NUMBA, bool)


def test_traced_moment_solve_records_headroom(tracing):
    sys = decoupled_heat_system()
    consts = spectral.separation_radius(sys, n0_override=1)
    branches = spectral.build_branch_table(sys, consts, 8)
    f0p = dynamics.project_branch(
        random_state(np.random.default_rng(15), 8, 2), branches, 1, "p")
    tracer = tracing.Tracer()
    with tracer.solving(0):
        control.parabolic_moment_control(sys, branches, f0p, 1.0, 4,
                                         HALF_TORUS, 1)
    for name in tracing.HEADROOM:
        assert math.isfinite(tracer.minima[name]), name
    assert tracer.counters[0, "control._joint_solve.size"] == 6


def test_traced_branch_table_counts_modes_and_splits_inside(tracing):
    """The tracer reads len() of the table as its mode count, and the
    stacked split still runs through the module's hyperbolic_branches."""
    sys = decoupled_heat_system()
    consts = spectral.separation_radius(sys, n0_override=1)
    tracer = tracing.Tracer()
    with tracer.solving(0):
        spectral.build_branch_table(sys, consts, 8)
    assert tracer.counters[0, "spectral.build_branch_table.modes"] == \
        2 * (8 - consts.n0)
    names = [rec[0] for rec in tracer.spans]
    table = names.index("spectral.build_branch_table")
    inside = [rec[0] for rec in tracer.spans if rec[3] == table]
    assert inside.count("spectral.projection_split") == 1
    assert inside.count("spectral.hyperbolic_branches") == 1


def test_scalar_at_keeps_its_shape(tracing):
    """A float time gives one (2*nmax+1, m) coefficient array, on an
    interpolated and on a lazy signal, also through the tracer's wrapper:
    the RK4 oracles call at(t) that way."""
    nmax, m = 3, 2
    nodes = np.linspace(0.0, 1.0, 5)
    vals = np.arange(5 * (2 * nmax + 1) * m, dtype=complex).reshape(
        5, 2 * nmax + 1, m)
    sampled = dynamics.ControlSignal(time_nodes=nodes, nmax=nmax,
                                     values=vals)
    merged = control.merge_controls([sampled], nmax, m, 1.0)
    tracer = tracing.Tracer()
    with tracer.solving(0):
        for u in (sampled, merged):
            assert u.at(0.3).shape == (2 * nmax + 1, m)
            assert u.at(np.float64(0.3)).shape == (2 * nmax + 1, m)
            assert u.at(np.array([0.3, 0.6])).shape == (2, 2 * nmax + 1, m)
    # three calls on each signal, and merged's three reach sampled's at
    spans = [rec for rec in tracer.spans
             if rec[0] == "dynamics.ControlSignal.at"]
    assert len(spans) == 9
