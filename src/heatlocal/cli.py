"""Command-line entry point.

Subcommands either run the claim suite (verify and its spectral / gram /
moments subsets, emitting one report row per claim) or produce aggregate
tables (simulate, localtime).  Output goes to --out or stdout as CSV or
JSON; a human-readable status summary goes to stderr.

Exit codes: 0 success, 1 at least one failed claim, 2 configuration or
output error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

import numpy as np

from ._version import __version__
from .errors import ConfigError, HeatLocalError
from .local_time import local_time_replicate, path_values, process_interval
from .mc import DEFAULT_EPSILON_SCHEDULE, PROCESSES, RunConfig, config_dict, run_replicates
from .reports import (
    FAIL,
    AggregateTable,
    reports_to_csv,
    reports_to_json,
    table_to_csv,
    table_to_json,
)
from .verify import (
    first_failure,
    gram_reports,
    moment_reports,
    spectral_reports,
    verify_all,
)

_REPORT_COMMANDS = {
    "verify": verify_all,
    "spectral": spectral_reports,
    "gram": gram_reports,
    "moments": moment_reports,
}


def _eps_schedule(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--interval", nargs=2, type=float, default=(0.0, 2.0), metavar=("A", "B"),
        help="heat-process parameter interval (bridge and motion pin to (0, 1))",
    )
    common.add_argument("--grid", type=int, default=8192, help="uniform grid points per path")
    common.add_argument(
        "--eps", type=_eps_schedule, default=DEFAULT_EPSILON_SCHEDULE,
        metavar="E1,E2,...", help="decreasing smoothing bandwidths",
    )
    common.add_argument("--reps", type=int, default=50_000, help="Monte Carlo replicates")
    common.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    common.add_argument("--jobs", type=int, default=1, help="worker processes")
    common.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--z", type=float, default=0.0, help="local-time level (verify needs 0)")
    common.add_argument("--process", choices=PROCESSES, default="heat")

    parser = argparse.ArgumentParser(
        prog="heatlocal",
        description="Simulation and claim verification for the fixed-time "
        "heat-equation field and kernel-smoothed local times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="aggregate path statistics per grid point")
    sub.add_parser("localtime", parents=[common], help="smoothed local-time aggregates per bandwidth")
    sub.add_parser("moments", parents=[common], help="moment and density identity claims")
    sub.add_parser("spectral", parents=[common], help="quadratic-form and bound claims")
    sub.add_parser("gram", parents=[common], help="Gram determinant claims")
    sub.add_parser("verify", parents=[common], help="the full claim suite")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        interval=tuple(args.interval),
        grid_points=args.grid,
        epsilon_schedule=args.eps,
        replicates=args.reps,
        master_seed=args.seed,
        jobs=args.jobs,
        output_path=args.out,
        output_format=args.format,
        z=args.z,
        process=args.process,
    )


def _simulate_table(config: RunConfig) -> AggregateTable:
    interval = process_interval(config.process, config.interval)
    task = partial(path_values, config.process, n=config.grid_points, interval=interval)
    res = run_replicates(task, config)
    points = np.linspace(interval[0], interval[1], config.grid_points)
    rows = tuple(
        (
            float(points[i]),
            float(res.mean[i]),
            float(res.stderr[i]),
            float(res.m2[i]),
            float(res.m3[i]),
            float(res.m4[i]),
        )
        for i in range(config.grid_points)
    )
    return AggregateTable(("u", "mean", "stderr", "m2", "m3", "m4"), rows)


def _localtime_table(config: RunConfig) -> AggregateTable:
    interval = process_interval(config.process, config.interval)
    sched = config.epsilon_schedule
    task = partial(
        local_time_replicate,
        process_tag=config.process,
        n=config.grid_points,
        interval=interval,
        z=config.z,
        schedule=sched,
    )
    res = run_replicates(task, config)
    k = len(sched)
    rows = []
    # one row per bandwidth: the smoothed value V_eps
    for i, eps in enumerate(sched):
        rows.append(
            (
                eps,
                None,
                float(res.mean[i]),
                float(res.stderr[i]),
                float(res.m2[i]),
                float(res.m3[i]),
                float(res.m4[i]),
            )
        )
    # one row per consecutive pair: the squared gap (V_hi - V_lo)^2
    for j in range(k - 1):
        i = k + j
        rows.append(
            (
                sched[j],
                sched[j + 1],
                float(res.mean[i]),
                float(res.stderr[i]),
                float(res.m2[i]),
                float(res.m3[i]),
                float(res.m4[i]),
            )
        )
    return AggregateTable(
        ("eps", "eps_pair_low", "mean", "stderr", "m2", "m3", "m4"), tuple(rows)
    )


def _emit(text: str, config: RunConfig) -> None:
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w") as fh:
            fh.write(text)


def _out_problem(path: str | None) -> str | None:
    """Why ``--out`` cannot be written, checked before any work; None if it can."""
    if path is None:
        return None
    out_dir = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(out_dir):
        return f"no directory {out_dir} for --out"
    if os.path.isdir(path):
        return f"--out {path} is a directory"
    # an existing file is overwritten in place; a new one needs the directory
    target = path if os.path.exists(path) else out_dir
    if not os.access(target, os.W_OK):
        return f"{target} is not writable for --out"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    problem = _out_problem(config.output_path)
    if problem is not None:
        print(f"output error: {problem}", file=sys.stderr)
        return 2

    reports = []
    try:
        if config.command in _REPORT_COMMANDS:
            reports = _REPORT_COMMANDS[config.command](config)
            body, to_csv, to_json = reports, reports_to_csv, reports_to_json
        else:
            build = _simulate_table if config.command == "simulate" else _localtime_table
            body, to_csv, to_json = build(config), table_to_csv, table_to_json
        if config.output_format == "csv":
            text = to_csv(body)
        else:
            text = to_json(body, config_dict(config), __version__)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HeatLocalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        _emit(text, config)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for r in reports:
        print(f"{r.status:20s} {r.claim_id}", file=sys.stderr)
    if any(r.status == FAIL for r in reports):
        print(f"first failing claim: {first_failure(reports)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
