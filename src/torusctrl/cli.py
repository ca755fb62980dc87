"""Command-line entry point: one subcommand per experiment kind.

Exit codes: 0 success, 2 a bad scenario or a precondition refusal, 1 a
numerical failure or an internal error.
"""

import argparse
import functools
import sys as _sys

from .harness import (load_scenario, run_experiment, ScenarioError,
                      BUILTIN_NAMES)

_SUBCOMMANDS = {
    "simulate": ("simulate", "free evolution norm history"),
    "spectrum": ("spectrum", "branch projection identity residuals"),
    "obstruct": ("obstruct", "observability-ratio decay for T < T*"),
    "control": ("control", "parabolic moment control residuals"),
    "pipeline": ("pipeline", "full null-control synthesis for T > T*"),
    "kalman": ("kalman", "(K22, K21) rank and cascade form"),
    "counterexample": ("counterexample",
                       "transport + heat moment controls and divergence"),
    "appendix-a": ("appendixA", "pure-transport solution space scan"),
}


@functools.lru_cache(maxsize=None)
def build_parser():
    """The parser, built once per process: parse_args keeps no state
    between calls."""
    p = argparse.ArgumentParser(
        prog="torusctrl",
        description="experiments on transport-diffusion control systems "
                    "posed on the one-dimensional torus")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--scenario", required=True,
                        help="builtin name, e.g. "
                             f"{', '.join(BUILTIN_NAMES)}, or a config "
                             "file path")
        sp.add_argument("--out-dir", default=None,
                        help="output directory (default runs/<command>)")
        sp.add_argument("--nmax", type=int, default=None,
                        help="Fourier truncation override")
        sp.add_argument("--seed", type=int, default=0,
                        help="RNG seed recorded in the manifest")
        sp.add_argument("--T", type=float, default=None,
                        help="horizon override")
        sp.add_argument("--Tprime", type=float, default=None,
                        help="hyperbolic-stage horizon override")
        sp.add_argument("--n0", type=int, default=None,
                        help="frequency cutoff override")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    kind = _SUBCOMMANDS[args.command][0]
    try:
        scenario = load_scenario(args.scenario, experiment=kind,
                                 nmax=args.nmax, T=args.T,
                                 Tprime=args.Tprime, n0=args.n0)
    except ScenarioError as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    out_dir = args.out_dir or f"runs/{args.command}"
    code, summary = run_experiment(scenario, out_dir, seed=args.seed)
    print(summary, end="")
    return code


if __name__ == "__main__":
    _sys.exit(main())
