"""Command-line entry point.

Subcommands: ``verify | minimize | solve-ep | dynamics | sweep``, each driven
by a JSON config (see harness module for the schema).

Exit codes:
  0  run converged / checks executed
  1  config schema violation (diagnostic on stderr)
  2  iteration cap reached without convergence
  3  guard or validator abort
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sqopt", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "minimize", "solve-ep", "dynamics", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--workers", type=int, default=1, help="sweep worker limit")
    args = parser.parse_args(argv)

    try:
        cfg = _load(args.config)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    if args.seed is not None:
        cfg["seed"] = args.seed

    try:
        if args.command in ("minimize", "solve-ep"):
            summary, code, paths = run_from_config(cfg, args.out)
            print(summary.to_json())
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
            table = sweep_compare(cfg, args.out, workers=args.workers)
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
