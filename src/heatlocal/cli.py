"""Command-line entry point.

One subcommand per kind of output: verify runs the claim suite and emits
one report row per claim; simulate and localtime produce aggregate tables.
Output goes to --out or stdout as CSV or JSON; a human-readable status
summary goes to stderr.

Exit codes: 0 success, 1 at least one failed claim, 2 configuration or
output error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import re
import shutil
import sys
import uuid
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np

from ._version import __version__
from .errors import ConfigError, HeatLocalError
from .local_time import local_time_replicate, path_values, process_interval, require_resolvable
from .mc import PROCESSES, RunConfig, run_replicates
from .reports import (
    AggregateTable,
    reports_to_csv,
    reports_to_json,
    table_to_csv,
    table_to_json,
)
from .verify import exit_code, first_failure, verify_all


def _eps_schedule(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}") from exc


# the run flags each subcommand takes, besides --out and --format: exactly
# those its code reads.  A RunConfig field no flag sets keeps its default
# and is left out of the JSON config.
COMMAND_FLAGS = {
    "simulate": ("interval", "grid", "reps", "seed", "jobs", "process"),
    "localtime": ("interval", "grid", "eps", "reps", "seed", "jobs", "z", "process"),
    "verify": ("interval", "grid", "eps", "reps", "seed", "jobs"),
}

# the add_argument options of each run flag; its dest is the RunConfig field it sets
_FLAG_OPTIONS = {
    "interval": dict(nargs=2, type=float, metavar=("A", "B"),
                     help="heat-process parameter interval (bridge and motion run on (0, 1))"),
    "grid": dict(dest="grid_points", type=int, help="uniform grid points per path"),
    "eps": dict(dest="epsilon_schedule", type=_eps_schedule, metavar="E1,E2,...",
                help="decreasing smoothing bandwidths"),
    "reps": dict(dest="replicates", type=int, help="Monte Carlo replicates"),
    "seed": dict(dest="master_seed", type=int, help="64-bit master seed"),
    "jobs": dict(type=int, help="worker processes"),
    "z": dict(type=float, help="local-time level"),
    "process": dict(choices=PROCESSES),
}

_HELP = {
    "simulate": "aggregate path statistics per grid point",
    "localtime": "smoothed local-time aggregates per bandwidth",
    "verify": "the full claim suite",
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which refuses a flag it does not take itself.

    Left to the top-level parser, the refusal would print the top-level
    usage, which does not list the subcommand's flags.  A negative float
    literal in any spelling, -inf and -nan among them, is a value:
    argparse's own pattern reads -0.1 as a value but -1e-1 as a flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )

    def parse_known_args(self, args, namespace):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatlocal",
        description="Simulation and claim verification for the fixed-time "
        "heat-equation field and kernel-smoothed local times.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, help_text in _HELP.items():
        # an omitted run flag sets no attribute, so RunConfig's default holds
        cmd = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in COMMAND_FLAGS[command]:
            cmd.add_argument(f"--{flag}", **_FLAG_OPTIONS[flag])
        cmd.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    run_flags = {k: v for k, v in vars(args).items() if k not in ("command", "out", "format")}
    process = run_flags.get("process")
    if process in ("bridge", "motion"):
        # the interval is fixed for these processes, so the config records it
        if "interval" in run_flags:
            raise ConfigError(f"--interval is for the heat process; {process} runs on (0, 1)")
        run_flags["interval"] = process_interval(process)
    return RunConfig(**run_flags)


def config_fields(command: str) -> set[str]:
    """The RunConfig fields the flags of ``command`` set."""
    return {_FLAG_OPTIONS[flag].get("dest", flag) for flag in COMMAND_FLAGS[command]}


def _moments(res, i: int) -> tuple[float, ...]:
    """(mean, stderr, m2, m3, m4) of output coordinate i of an MCResult."""
    return tuple(float(col[i]) for col in (res.mean, res.stderr, res.m2, res.m3, res.m4))


def _simulate_table(config: RunConfig) -> AggregateTable:
    interval = process_interval(config.process, config.interval)
    task = partial(
        path_values, process_tag=config.process, n=config.grid_points, interval=interval
    )
    res = run_replicates(task, config)
    points = np.linspace(interval[0], interval[1], config.grid_points)
    rows = tuple((float(points[i]), *_moments(res, i)) for i in range(config.grid_points))
    return AggregateTable(("u", "mean", "stderr", "m2", "m3", "m4"), rows)


def _localtime_table(config: RunConfig) -> AggregateTable:
    interval = process_interval(config.process, config.interval)
    sched = config.epsilon_schedule
    # a replicate's own check would end the run as a ReplicateFailure
    require_resolvable(min(sched), interval, config.grid_points)
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
    # one row per bandwidth: the smoothed value V_eps
    rows = [(eps, None, *_moments(res, i)) for i, eps in enumerate(sched)]
    # one row per consecutive pair: the squared gap (V_hi - V_lo)^2
    rows += [(sched[j], sched[j + 1], *_moments(res, k + j)) for j in range(k - 1)]
    return AggregateTable(
        ("eps", "eps_pair_low", "mean", "stderr", "m2", "m3", "m4"), tuple(rows)
    )


def _emit(text: str, path: str | None) -> None:
    """Write to stdout, or to ``path`` whole or not at all.

    The text goes to a new file beside the target, which is then renamed
    over it; on any error the new file is removed and an existing target
    is left as it was.
    """
    if path is None:
        sys.stdout.write(text)
        return
    path = os.path.realpath(path)  # through a symlink, as open(path, "w") writes
    out_dir, name = os.path.split(path)
    tmp = os.path.join(out_dir, f".{name}.{uuid.uuid4().hex}.tmp")
    # "x" gives the new file the mode open(path, "w") gives a new file; an
    # existing target keeps its own mode, as it would under open(path, "w")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _out_problem(path: str | None) -> str | None:
    """Why ``--out`` cannot be written, checked before any work; None if it can."""
    if path is None:
        return None
    # resolved as _emit resolves it: "" is the working directory
    resolved = os.path.realpath(path)
    out_dir = os.path.dirname(resolved)
    if not os.path.isdir(out_dir):
        return f"no directory {out_dir} for --out"
    if os.path.isdir(resolved):
        return f"--out {path!r} is the directory {resolved}"
    # realpath drops a trailing separator, which names a directory
    if path.endswith(tuple(sep for sep in (os.sep, os.altsep) if sep)):
        return f"--out {path!r} ends in a separator but names no directory"
    # the output is renamed into the directory; an existing file must
    # also be writable itself
    for target in (out_dir, resolved) if os.path.exists(resolved) else (out_dir,):
        if not os.access(target, os.W_OK):
            return f"{target} is not writable for --out"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _out_problem(args.out)
    if problem is not None:
        print(f"output error: {problem}", file=sys.stderr)
        return 2

    reports = []
    try:
        config = config_from_args(args)
        if args.command == "verify":
            reports = verify_all(config)
            body, to_csv, to_json = reports, reports_to_csv, reports_to_json
        else:
            build = _simulate_table if args.command == "simulate" else _localtime_table
            body, to_csv, to_json = build(config), table_to_csv, table_to_json
        if args.format == "csv":
            text = to_csv(body)
        else:
            # the fields the command's flags set, in field order; never jobs,
            # so runs that differ only in worker count emit the same bytes
            taken = config_fields(args.command) - {"jobs"}
            fields = [f.name for f in dataclasses.fields(config) if f.name in taken]
            recorded = {name: getattr(config, name) for name in fields}
            text = to_json(body, {"command": args.command, **recorded}, __version__)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HeatLocalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BrokenProcessPool, MemoryError) as exc:
        # the run could not finish, which is not a failed claim
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for r in reports:
        print(f"{r.status:20s} {r.claim_id}", file=sys.stderr)
    code = exit_code(reports)
    if code:
        print(f"first failing claim: {first_failure(reports)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
