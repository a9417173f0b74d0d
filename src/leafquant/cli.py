"""Command line front end.

Subcommands: `run` executes a scenario file, `verify` runs a named
self-check suite, `preset` materializes one of the bundled configs.
Exit codes: 0 success, 1 validation or usage error, 2 numerical
failure during a run, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .runner import RunError, run
from .scenarios import (ScenarioError, load_scenario, preset_names,
                        preset_text)
from .verify import SUITE_NAMES, format_results, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafquant",
        description="Quantize parameter-driven mechanical systems and "
                    "propagate their evolution operators.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: <config stem>_out)")
    p_run.add_argument("--steps", type=int, default=None, metavar="N",
                       help="override the integrator step count")
    p_run.add_argument("--dump-unitary", action="store_true",
                       help="write the final unitary as unitary.bin")

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument("suite",
                          help=f"{', '.join(SUITE_NAMES)}, or all")

    p_preset = sub.add_parser("preset", help="write a bundled preset config")
    p_preset.add_argument("name", help="preset name (or 'list')")
    p_preset.add_argument("--out", default=".", metavar="DIR",
                          help="directory to write <name>.json into")
    return parser


def _cmd_run(args) -> int:
    if args.steps is not None and args.steps < 1:
        print("error: --steps must be a positive integer", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        config = load_scenario(args.config)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out_dir = args.out or f"{Path(args.config).stem}_out"
    try:
        report = run(config, out_dir, dump_unitary=args.dump_unitary,
                     steps=args.steps)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: cannot write the output directory: {exc}",
              file=sys.stderr)
        return EXIT_VALIDATION
    print(f"scenario {report.scenario}: {report.rows} rows, "
          f"unitarity defect {report.unitarity_defect:.3e}")
    print(f"  phase total {report.phases['total']:+.6f}  "
          f"geometric {report.phases['geometric']:+.6f}  "
          f"dynamic {report.phases['dynamic']:+.6f}")
    if report.ehrenfest is not None:
        print(f"  classical gaps: q {report.ehrenfest['max_position_gap']:.3e}"
              f"  p {report.ehrenfest['max_momentum_gap']:.3e}")
    if report.split is not None:
        tag = "commuting" if report.split["commuting"] else "non-commuting"
        print(f"  split ({tag}): defect "
              f"{report.split['factorization_defect']:.3e}")
    if report.convergence is not None:
        gaps = ", ".join(f"{g:.3e}" for g in report.convergence["gaps"])
        print(f"  geometric convergence gaps: {gaps}")
    if report.reparametrization is not None:
        print(f"  reparametrization difference: "
              f"{report.reparametrization['difference']:.3e}")
    print(f"  wrote {', '.join(sorted(report.artifacts.values()))} "
          f"to {out_dir} in {report.wall_clock_seconds:.1f}s")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(format_results(results))
    if any(not r.passed for r in results):
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_preset(args) -> int:
    if args.name == "list":
        for name in preset_names():
            print(name)
        return EXIT_OK
    try:
        text = preset_text(args.name)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    target = Path(args.out) / f"{args.name}.json"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        print(f"error: cannot write the output directory: {exc}",
              file=sys.stderr)
        return EXIT_VALIDATION
    print(f"wrote {target}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_VALIDATION
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_preset(args)


if __name__ == "__main__":
    sys.exit(main())
