"""Command-line interface.

    deepo run <scenario> [--out DIR] [--seed N] [--csv/--no-csv] [--json/--no-json]
    deepo adapt <scenario> [--out DIR] [--seed N] ...
    deepo accept [--seed N] [--report FILE]
    deepo scenarios

``<scenario>`` is a JSON file path or the name of a bundled scenario.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .acceptance import run_acceptance
from .errors import ConfigInvalid, DeepoError
from .harness import (
    bundled_scenarios,
    load_scenario,
    run_adaptation_scenario,
    run_scenario,
)


def _add_run_args(parser):
    parser.add_argument("scenario", help="scenario JSON path or bundled scenario name")
    parser.add_argument("--out", default=None, metavar="DIR", help="directory for trace/summary files")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario rng_seed")
    parser.add_argument(
        "--csv", action=argparse.BooleanOptionalAction, default=True, help="write the trace CSV"
    )
    parser.add_argument(
        "--json", action=argparse.BooleanOptionalAction, default=True, help="write the summary JSON"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepo",
        description="Direct adaptive LQR from input-output data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and print its summary")
    _add_run_args(run_p)

    adapt_p = sub.add_parser(
        "adapt", help="run a scenario twice (frozen vs adaptive gain) and compare"
    )
    _add_run_args(adapt_p)

    accept_p = sub.add_parser("accept", help="run the acceptance checks")
    accept_p.add_argument("--seed", type=int, default=0, help="base seed for the checks")
    accept_p.add_argument("--report", default=None, metavar="FILE", help="write a JSON report")
    accept_p.add_argument(
        "--only",
        default=None,
        metavar="IDS",
        help="comma-separated criterion numbers to run (default: all)",
    )

    sub.add_parser("scenarios", help="list the bundled scenarios")
    return parser


def _load(args):
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, rng_seed=args.seed)
    return config


def _cmd_run(args) -> int:
    config = _load(args)
    summary = run_scenario(config, out_dir=args.out, write_csv_flag=args.csv, write_json_flag=args.json)
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_adapt(args) -> int:
    config = _load(args)
    summary = run_adaptation_scenario(
        config, out_dir=args.out, write_csv_flag=args.csv, write_json_flag=args.json
    )
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_accept(args) -> int:
    only = None
    if args.only:
        try:
            only = sorted({int(tok) for tok in args.only.split(",")})
        except ValueError:
            print(f"error: --only expects comma-separated integers, got {args.only!r}", file=sys.stderr)
            return 2
    results = run_acceptance(seed=args.seed, report_path=args.report, only=only)
    return 0 if all(res.passed for res in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigInvalid(f"--seed: must be >= 0, got {args.seed}")
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "adapt":
            return _cmd_adapt(args)
        if args.command == "accept":
            return _cmd_accept(args)
        if args.command == "scenarios":
            for name in bundled_scenarios():
                print(name)
            return 0
    except DeepoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
