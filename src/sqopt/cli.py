"""Command-line entry point.

Subcommands: ``verify | minimize | solve-ep | dynamics | sweep``, each driven
by a JSON config (see harness module for the schema).

Exit codes:
  0  run converged / checks executed
  1  usage error, or config schema violation (including a hard parameter
     range a variant's validator rejects before the first iteration)
  2  iteration cap reached without convergence
  3  guard abort during a run
Every nonzero exit writes one diagnostic line to stderr; a minimize or
solve-ep run that ends at its cap or diverges still prints its summary on
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_SCHEMA,
    SchemaError,
    run_dynamics,
    run_from_config,
    run_verify,
    strict_json,
    sweep_compare,
)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _end_line(summary) -> str:
    """The stderr line of a run that did not converge."""
    if summary.terminated_by == "max_iters":
        return (f"stopped: max_iters reached after {summary.iterations} iterations, "
                f"residual {summary.final_residual:.6g}")
    return f"aborted: {summary.terminated_by} at iteration {summary.iterations}"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of printing usage and exiting 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(prog="sqopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "minimize", "solve-ep", "dynamics", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=".", help="output directory")
        if name == "verify":
            sp.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "sweep":
            sp.add_argument("--workers", type=int, default=1,
                            help="accepted and ignored: a sweep runs its cells in lockstep")
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_SCHEMA

    try:
        cfg = _load(args.config)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed

    try:
        if args.command in ("minimize", "solve-ep"):
            summary, code, paths = run_from_config(cfg, args.out)
            print(summary.to_json())
            if code != EXIT_OK:
                print(_end_line(summary), file=sys.stderr)
            return code
        if args.command == "verify":
            reports = run_verify(cfg, args.out)
            print(strict_json(reports))
            return EXIT_OK
        if args.command == "dynamics":
            info = run_dynamics(cfg, args.out)
            print(strict_json(info))
            return EXIT_OK
        if args.command == "sweep":
            table = sweep_compare(cfg, args.out)
            print(strict_json(table))
            return EXIT_OK
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValueError, RuntimeError, FloatingPointError) as e:
        print(f"aborted: {e}", file=sys.stderr)
        return EXIT_GUARD
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
