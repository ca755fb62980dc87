"""Span tracing of torusctrl's layers, installed from outside the package.

Each traced entry point is replaced by a wrapper that records one span:
(name, start, end, parent span, solve id).  Spans stay in memory and are
written once, when the run ends.  A layer's self time is its span's
duration minus the durations of its direct child spans.

Wrappers go on every module namespace that bound the function, not only
on the defining module: `control` does `from .dynamics import evolve`, so
patching `dynamics.evolve` alone would silently drop the pipeline's calls.
Methods (`ControlSignal.at`, `ObstructionWitness.gN_coeffs`) are patched
on the class.
"""

import contextlib
import functools
import inspect
import json
import math
import statistics
import sys
import time

PACKAGE = "torusctrl"
SETUP = "setup"   # solve id of the spans recorded during set-up
ROOT = "bench."   # prefix of the spans the benchmark opens itself
# a solve's spans may exceed the benchmark's own timing of it by the
# bookkeeping between the two clock reads; more than this is a fault
SLACK_S = 0.05
SLACK_REL = 0.02

# (module, attribute) of every traced entry point; a dotted attribute is a
# method patched on its class
LAYERS = (
    ("spectral", "separation_radius"),
    ("spectral", "build_branch_table"),
    ("spectral", "projection_split"),
    ("spectral", "hyperbolic_branches"),
    ("dynamics", "ControlSignal.at"),
    ("dynamics", "evolve"),
    ("dynamics", "windowed_l2_norm"),
    ("control", "plateau_weight"),
    ("control", "parabolic_moment_control"),
    ("control", "lebeau_robbiano"),
    ("control", "_joint_solve"),
    ("control", "_emit_block"),
    ("control", "merge_controls"),
    ("control", "full_pipeline"),
    ("obstruction", "build_witness"),
    ("obstruction", "observability_ratio"),
    ("obstruction", "ObstructionWitness.gN_coeffs"),
    ("kernels", "synthesize"),
    ("analysis", "memory_counterexample_control"),
    ("analysis", "counterexample_energy_sums"),
    ("harness", "run_experiment"),
)

# counted but not timed: a span per dataclass construction would only
# measure the tracer
COUNTED = (("dynamics", "ControlSignal.__post_init__"),)

# (metric, unit, better); the names are the layer's span name plus a suffix
PER_LAYER = (
    ("spectral.projection_split.self_s", "s", "lower"),
    ("spectral.projection_split.calls", "count", "lower"),
    ("spectral.hyperbolic_branches.self_s", "s", "lower"),
    ("spectral.build_branch_table.self_s", "s", "lower"),
    ("spectral.build_branch_table.modes", "count", "lower"),
    ("spectral.separation_radius.self_s", "s", "lower"),
    ("dynamics.ControlSignal.at.self_s", "s", "lower"),
    ("dynamics.ControlSignal.at.calls", "count", "lower"),
    ("dynamics.ControlSignal.eager_samples", "count", "lower"),
    ("dynamics.evolve.self_s", "s", "lower"),
    ("dynamics.evolve.calls", "count", "lower"),
    ("dynamics.windowed_l2_norm.self_s", "s", "lower"),
    ("control.parabolic_moment_control.self_s", "s", "lower"),
    ("control.parabolic_moment_control.calls", "count", "lower"),
    ("control.parabolic_moment_control.cond_headroom_log10", "log10",
     "higher"),
    ("control._joint_solve.self_s", "s", "lower"),
    ("control._joint_solve.size", "count", "lower"),
    ("control._joint_solve.cond_headroom_log10", "log10", "higher"),
    ("control._emit_block.self_s", "s", "lower"),
    ("control.merge_controls.self_s", "s", "lower"),
    ("control.lebeau_robbiano.self_s", "s", "lower"),
    ("control.full_pipeline.self_s", "s", "lower"),
    ("control.full_pipeline.sweeps", "fraction", "lower"),
    ("control.plateau_weight.self_s", "s", "lower"),
    ("obstruction.build_witness.self_s", "s", "lower"),
    ("obstruction.observability_ratio.self_s", "s", "lower"),
    ("obstruction.ObstructionWitness.gN_coeffs.self_s", "s", "lower"),
    ("obstruction.ObstructionWitness.gN_coeffs.calls", "count", "lower"),
    ("kernels.synthesize.self_s", "s", "lower"),
    ("kernels.synthesize.calls", "count", "lower"),
    ("kernels.synthesize.cmacs", "cmac_computed", "lower"),
    ("kernels.synthesize.bytes", "B_computed", "lower"),
    ("analysis.memory_counterexample_control.self_s", "s", "lower"),
    ("analysis.counterexample_energy_sums.self_s", "s", "lower"),
    ("harness.run_experiment.self_s", "s", "lower"),
    ("trace.untraced_remainder_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# metrics that are the minimum over the run rather than set-up plus median
# solve; a layer that never ran reports log10(cond_max), as for a solve of
# condition 1
HEADROOM = ("control.parabolic_moment_control.cond_headroom_log10",
            "control._joint_solve.cond_headroom_log10")


def _bound(fn, args, kwargs):
    """Arguments of a call by name, defaults applied (rare calls only)."""
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _headroom(tracer, name, fn, args, kwargs, cond):
    cond_max = _bound(fn, args, kwargs)["cond_max"]
    tracer.minimum(name + ".cond_headroom_log10",
                   math.log10(cond_max / cond))


def _observe_moment(tracer, fn, args, kwargs, result):
    _headroom(tracer, "control.parabolic_moment_control", fn, args, kwargs,
              result[1].cond_scaled)


def _observe_joint(tracer, fn, args, kwargs, result):
    _, J, _, _, cond = result
    tracer.add("control._joint_solve.size", J.shape[0])
    _headroom(tracer, "control._joint_solve", fn, args, kwargs, cond)


def _observe_pipeline(tracer, fn, args, kwargs, result):
    used = len(result[1]["sweeps"])
    tracer.add("control.full_pipeline.sweeps",
               used / _bound(fn, args, kwargs)["max_sweeps"])


def _observe_table(tracer, fn, args, kwargs, result):
    tracer.add("spectral.build_branch_table.modes", len(result))


def _observe_synthesize(tracer, fn, args, kwargs, result):
    coeffs = args[0] if args else kwargs["coeffs"]
    xs = args[2] if len(args) > 2 else kwargs["xs"]
    modes, d = coeffs.shape
    grid = len(xs)
    # the numpy path materializes the (grid, modes) phase matrix
    tracer.add("kernels.synthesize.cmacs", grid * modes * d)
    tracer.add("kernels.synthesize.bytes",
               16 * (modes * d + grid * d + grid * modes)
               + 8 * (modes + grid))


def _observe_signal(tracer, fn, args, kwargs, result):
    sig = args[0]
    # rows sampled into `values` although `at()` reads `func`; shifted
    # copies share the array of the signal they copy, so count it once
    if sig.func is not None and id(sig.values) not in tracer.seen_values:
        tracer.seen_values[id(sig.values)] = sig.values
        tracer.add("dynamics.ControlSignal.eager_samples",
                   sig.values.shape[0])


OBSERVERS = {
    "control.parabolic_moment_control": _observe_moment,
    "control._joint_solve": _observe_joint,
    "control.full_pipeline": _observe_pipeline,
    "spectral.build_branch_table": _observe_table,
    "kernels.synthesize": _observe_synthesize,
    "dynamics.ControlSignal.__post_init__": _observe_signal,
}


class Tracer:
    """In-memory span recorder with reversible wrappers."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, solve id]
        self.stack = []
        self.solve = SETUP
        self.counters = {}    # (solve id, metric) -> sum
        self.minima = {}      # metric -> minimum over the run
        self.seen_values = {}
        self._patches = []    # (owner, attribute, original)
        self.patched_namespaces = {}

    # ------------------------------------------------------ recording

    def add(self, metric, value):
        key = (self.solve, metric)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def minimum(self, metric, value):
        self.minima[metric] = min(self.minima.get(metric, math.inf), value)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (set-up, solve)."""
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else -1, self.solve]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    @contextlib.contextmanager
    def solving(self, solve_id):
        """Trace one solve: wrappers installed only inside the block."""
        self.solve = solve_id
        self.seen_values = {}
        self.install()
        try:
            with self.span("bench.solve"):
                yield
        finally:
            self.uninstall()

    def _wrap(self, name, fn, timed):
        spans, stack = self.spans, self.stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        if timed:
            # span() inlined: a generator context manager per call would
            # cost more than the rest of the wrapper
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = [name, clock(), None, stack[-1] if stack else -1,
                       tracer.solve]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if observe is not None:
                    observe(tracer, fn, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(tracer, fn, args, kwargs, result)
                return result
        return wrapper

    # -------------------------------------------------------- install

    def _namespaces(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = self._namespaces()
        for timed, table in ((True, LAYERS), (False, COUNTED)):
            for mod_name, attr in table:
                module = sys.modules[f"{PACKAGE}.{mod_name}"]
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    self._patch(owner, meth, original,
                                self._wrap(name, original, timed))
                    self.patched_namespaces[name] = [owner.__qualname__]
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, timed)
                bound_in = []
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is original:
                            self._patch(ns, key, original, wrapper)
                            bound_in.append(ns.__name__)
                self.patched_namespaces[name] = bound_in

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # ------------------------------------------------------- analysis

    def self_times(self):
        """Self time of every span: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, child)]

    def check(self, measured):
        """Problems with the traced split, against what the spans did not
        produce themselves.  `measured` maps the set-up and every traced
        solve id to the seconds the benchmark timed around that work.

        - every layer was patched somewhere, and no module keeps a traced
          function where a wrapper cannot replace it (in a module-level
          container or as a default argument), where its calls would
          escape the split;
        - each measured piece of work has exactly one benchmark root span,
          and its spans' self times sum to the measured seconds, within
          the clock-read slack: a span mislinked to another parent or
          solve, or a root span that misses part of the work, breaks
          the sum.
        Call it with the wrappers uninstalled."""
        problems = [f"{name} was patched in no namespace"
                    for name, where in self.patched_namespaces.items()
                    if not where]
        problems += self._escapes()
        totals, roots = {}, {}
        for (name, _, _, parent, solve), self_s in zip(self.spans,
                                                       self.self_times()):
            totals.setdefault(solve, []).append(self_s)
            if parent < 0:
                roots.setdefault(solve, []).append(name)
        for solve in totals.keys() - measured.keys():
            problems.append(f"spans of solve {solve}, which was not timed")
        for solve, seconds in measured.items():
            names = roots.get(solve, [])
            if len(names) != 1 or not names[0].startswith(ROOT):
                problems.append(f"solve {solve}: {len(names)} root spans, "
                                f"first {names[:3]}")
            total = math.fsum(totals.get(solve, ()))
            if not (seconds - 1e-9 <= total
                    <= seconds * (1 + SLACK_REL) + SLACK_S):
                problems.append(f"solve {solve}: spans account for "
                                f"{total:.6f} s of {seconds:.6f} s timed")
        return problems

    def _escapes(self):
        traced = {}
        for mod_name, attr in LAYERS:
            if "." not in attr:
                fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
                traced[id(fn)] = f"{mod_name}.{attr}"
        problems = []
        for ns in self._namespaces():
            for key, val in vars(ns).items():
                if isinstance(val, dict):
                    held = list(val.values())
                elif isinstance(val, (list, tuple, set, frozenset)):
                    held = list(val)
                elif inspect.isfunction(val):
                    held = list(val.__defaults__ or ()) + list(
                        (val.__kwdefaults__ or {}).values())
                else:
                    continue
                # one level down too: a dispatch table of tuples
                for item in held + [y for x in held
                                    if isinstance(x, (list, tuple))
                                    for y in x]:
                    if id(item) in traced:
                        problems.append(
                            f"{ns.__name__}.{key} holds {traced[id(item)]}"
                            " where no wrapper reaches it")
        return problems

    def per_layer(self, traced_solves, overhead_s):
        """Per-layer metrics: the set-up total plus the median over the
        traced solves of each solve's total (counts and seconds alike)."""
        totals = {}   # (solve id, metric) -> value
        for (name, _, _, _, solve), self_s in zip(self.spans,
                                                  self.self_times()):
            key = ("trace.untraced_remainder_s" if name.startswith(ROOT)
                   else name + ".self_s")
            totals[(solve, key)] = totals.get((solve, key), 0.0) + self_s
            if not name.startswith(ROOT):
                ckey = (solve, name + ".calls")
                totals[ckey] = totals.get(ckey, 0.0) + 1
        totals.update(self.counters)

        def value(metric):
            per_solve = [totals.get((s, metric), 0.0) for s in traced_solves]
            return (totals.get((SETUP, metric), 0.0)
                    + (statistics.median(per_solve) if per_solve else 0.0))

        out = {}
        for metric, unit, _ in PER_LAYER:
            if metric == "trace.overhead_s":
                v = overhead_s
            elif metric in HEADROOM:
                mod, attr = metric.split(".")[:2]
                fn = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
                cond_max = inspect.signature(fn).parameters["cond_max"]
                v = self.minima.get(metric, math.log10(cond_max.default))
            else:
                v = value(metric)
            out[metric] = {"value": v, "unit": unit}
        return out

    def dump(self, path):
        """Write the spans once, as columns with a name table."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "solve": [s[4] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(cols, fh, separators=(",", ":"))
            fh.write("\n")

