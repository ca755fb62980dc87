"""End-to-end and per-layer benchmark of torusctrl.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 24 \
        --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  One process runs one workload as a closed loop: set-up, then one
solve at a time until --seconds have passed (at least MIN_SOLVES solves),
checking every solve.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  setup_s      median over SETUP_SAMPLES fresh interpreters of the time to
               import torusctrl and build the workload's reused state, in
               seconds at the nominal machine speed: each sample divided
               by a reference timing right after it, times REF_NOMINAL_S
               (the raw seconds are printed)
  solve_ref    median over the run's solves of the solve's wall time
               divided by the mean of the two reference-kernel timings
               around it, summed over the solve's steps where it has
               several (raw seconds and the solve count are printed)
  wall_ref     median set-up in reference units (each sample divided by
               a reference timing right after it) + solve_ref: a fresh
               interpreter to one finished solve
  peak_rss_mb  peak resident memory of the workload process
  pass_frac    share of solves that returned and passed their check
               (1 - failed_frac; the result's "failed" field counts them)
--trace 1 alternates untraced and traced solves and reports the per-layer
metrics of perfbench/tracer.py, including the tracing overhead (traced
wall time minus untraced wall time).

Why solve times are divided by a reference kernel: on the small virtual
machine this was written on, the speed of the CPU itself changes by up to
2x as other tenants load the host, in episodes from seconds to minutes
(no steal time is reported).  Raw per-run solve times then spread by
30-40 % between runs; the ratio to a fixed kernel timed around each solve
cancels most of that (see perfbench/README.md).  The kernel is benchmark
code, so a change to torusctrl moves only the numerator.

Results, provenance and the span dump go to .perfbench_out/ in the
checkout.  BLAS runs single-threaded: the solves are dominated by tiny
matrices, where BLAS threads add contention noise on a small machine.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("pipeline", "lr_heat", "witness", "cli")
SETUP_SAMPLES = 3
MIN_SOLVES = 3
MIN_TRACED = 2      # per half (untraced/traced) of a --trace 1 run
REF_ITERATIONS = 4000  # about 0.07 s of reference kernel per solve
# the reference kernel's seconds at the nominal speed of the machine the
# benchmark was written on; converts set-up time in reference units back
# to seconds
REF_NOMINAL_S = 0.065
PROBE_TIMEOUT = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def set_up(workload, seed, traced=False):
    """Import the package from the checkout and build the workload.
    Returns (workload, seconds, tracer or None, seconds of the workload
    construction alone); with `traced` the tracer is installed between
    the import and the set-up work."""
    if not os.path.isfile(os.path.join(SRC, "torusctrl", "__init__.py")):
        fail(f"no torusctrl sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    import torusctrl
    import workloads
    if not os.path.abspath(torusctrl.__file__).startswith(SRC + os.sep):
        fail(f"imported torusctrl from {torusctrl.__file__}, not {SRC}")
    tracer = None
    phase = contextlib.nullcontext()
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        phase = tracer.span("bench.setup")
    os.makedirs(OUT, exist_ok=True)
    with phase:
        t1 = time.perf_counter()
        wl = workloads.WORKLOADS[workload](seed, OUT)
        work = time.perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()
    return wl, time.perf_counter() - t0, tracer, work


def setup_ratio(seconds):
    """Set-up seconds in reference-kernel units, timed right after it."""
    reference()  # warm-up, as in run_solves
    return seconds / reference()


def probe_setup(workload, seed):
    """(set-up seconds, set-up in reference units) in a fresh interpreter
    (a child process)."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"set-up probe exceeded {PROBE_TIMEOUT} s")
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    seconds, ratio = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(ratio)


def reference():
    """Seconds taken by a fixed kernel shaped like the solves: small numpy
    operations and 2x2 LAPACK solves driven from a Python loop."""
    import numpy as np
    a = np.eye(2) * 3.0 + 0.5
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        m = a + i * 1e-3
        acc += np.linalg.solve(m, m[0])[0] + float(np.exp(-m).sum())
    return time.perf_counter() - t0


def run_solves(wl, seconds, minimum, context=None, pausing=True):
    """Closed loop: solve until `seconds` have passed and at least
    `minimum` solves ran, solve i inside `context(i)` when given.

    The reference kernel runs between solves and, with `pausing`, also
    where a solve calls its `pause` argument between two of its steps.
    A solve's ratio is the sum over its steps of the step's seconds
    divided by the mean of the reference timings before and after it.

    Returns ([(seconds, ok, detail, ratio)], list of reference seconds)."""
    results = []
    reference()  # warm-up: the first call pays for lazy numpy set-up
    refs = [reference()]

    def pause():
        nonlocal t0
        if pausing:
            steps.append(time.perf_counter() - t0)
            refs.append(reference())
            t0 = time.perf_counter()

    t_start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - t_start < seconds:
        # every solve starts from a collected heap, not from its
        # predecessor's garbage
        gc.collect()
        steps = []
        with context(i) if context else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                ok, detail = wl.solve(i, pause)
            except Exception as exc:  # a raising solve is a failed solve
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            steps.append(time.perf_counter() - t0)
        refs.append(reference())
        around = refs[-len(steps) - 1:]
        ratio = sum(dt / (0.5 * (a + b))
                    for dt, a, b in zip(steps, around, around[1:]))
        results.append((sum(steps), ok, detail, ratio))
        i += 1
    return results, refs


def provenance(seed):
    import numpy as np
    import scipy
    from torusctrl import kernels
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernels_path": "numba" if kernels.USING_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the setting."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def git_commit():
    """HEAD of the checkout, or 'unknown' when it is not a git work tree
    (the search for .git stops at the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "torusctrl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failed_frac(results):
    return sum(not r[1] for r in results) / len(results)


def summarize(label, results, refs):
    times = sorted(r[0] for r in results)
    print(f"{label}: {len(times)} solves, min {times[0]:.4f} s, median "
          f"{statistics.median(times):.4f} s, max {times[-1]:.4f} s; "
          f"reference kernel median {statistics.median(refs):.4f} s")
    for k, (dt, ok, detail, rel) in enumerate(results):
        print(f"  solve {k}: {dt:.4f} s = {rel:.3f} ref "
              f"{'ok' if ok else 'FAILED'}: {detail}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # before numpy loads; the set-up probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if args.setup_probe:
        seconds = set_up(args.workload, args.seed)[1]
        print(repr(seconds), repr(setup_ratio(seconds)))
        return 0

    wl, setup_main, tracer, setup_work = set_up(args.workload, args.seed,
                                                args.trace)
    samples = [(setup_main, setup_ratio(setup_main))] + [
        probe_setup(args.workload, args.seed)
        for _ in range(SETUP_SAMPLES - 1)]
    probes = [sample[0] for sample in samples[1:]]

    if tracer is None:
        results, refs = run_solves(wl, args.seconds, MIN_SOLVES)
        summarize("solves", results, refs)
        print("set-up samples: " + ", ".join(
            f"{sec:.4f} s = {rel:.3f} ref" for sec, rel in samples))
        setup_ref = statistics.median(sample[1] for sample in samples)
        solve_ref = statistics.median(r[3] for r in results)
        problems = []
        metrics = {
            "setup_s": {"value": REF_NOMINAL_S * setup_ref, "unit": "s"},
            "solve_ref": {"value": solve_ref, "unit": "ref_kernel"},
            "wall_ref": {"value": setup_ref + solve_ref,
                         "unit": "ref_kernel"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "pass_frac": {"value": 1.0 - failed_frac(results),
                          "unit": "fraction"},
        }
        extra = {"setup_samples": samples}
    else:
        # odd solves traced, even ones not: the two halves interleave, so
        # drift on the machine hits both alike
        # no reference timings inside a solve: they would sit in the
        # traced split
        results, refs = run_solves(
            wl, args.seconds, 2 * MIN_TRACED,
            lambda i: tracer.solving(i) if i % 2 else
            contextlib.nullcontext(), pausing=False)
        untraced, traced = results[0::2], results[1::2]
        summarize("untraced solves", untraced, refs)
        summarize("traced solves", traced, refs)
        overhead = (setup_main - statistics.median(probes)
                    + statistics.median(refs)
                    * (statistics.median(r[3] for r in traced)
                       - statistics.median(r[3] for r in untraced)))
        import tracer as tracing
        traced_ids = range(1, len(results), 2)
        measured = {i: results[i][0] for i in traced_ids}
        measured[tracing.SETUP] = setup_work
        problems = tracer.check(measured)
        metrics = tracer.per_layer(traced_ids, overhead)
        print("traced namespaces: " + "; ".join(
            f"{k} in {', '.join(v)}"
            for k, v in tracer.patched_namespaces.items() if v))
        extra = {"setup_traced_s": setup_main, "setup_untraced_s": probes,
                 "spans": len(tracer.spans)}
        tracer.dump(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    for name, m in metrics.items():
        print(f"  {name:55s} {m['value']:.6g} {m['unit']}")
    for msg in problems:
        print(f"trace self-check FAILED: {msg}")
    if args.trace and not problems:
        print("trace self-check passed")
    attempted = len(results)
    failed = sum(not r[1] for r in results)
    print(f"failed_frac {failed_frac(results)} ({failed} of {attempted} "
          "solves raised or failed their check)")

    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds,
              "provenance": provenance(args.seed),
              "solve_times_s": [r[0] for r in results],
              "reference_s": refs,
              "checks": [r[2] for r in results],
              "failed_frac": failed_frac(results), "metrics": metrics}
    record.update(extra)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print("provenance: " + json.dumps(record["provenance"]))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
