"""heatlocal benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; heatlocal is imported from its ``src``.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, and the metrics and the span
list are also written to ``perfbench-out/``.  Workloads, inputs and
metrics are described in perfbench/README.md.

Exit status: 0 when every check held, 1 when a check failed (the result
line says ``"correct": false``), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "perfbench-out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
SE_RULE = 4.0  # the suite's own Monte Carlo acceptance rule


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run runner.py in its own session; return its JSON and its wall time."""
    with tempfile.NamedTemporaryFile(dir=OUT_DIR, suffix=".json", delete=False) as fh:
        out = Path(fh.name)
    cmd = [sys.executable, str(HERE / "runner.py"), *args, "--out", str(out)]
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
            wall = time.perf_counter() - t0
        except subprocess.TimeoutExpired:
            raise BenchError(f"runner {args[0]} did not finish in {timeout:.0f} s") from None
        finally:
            # pool workers share the runner's session; none may outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"runner {args[0]} exited {proc.returncode}:\n{err[-3000:]}")
        return json.loads(out.read_text()), wall
    finally:
        out.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# correctness checks


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        """One operation of the program: it either produced a result or failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"operation failed: {what}")

    def check(self, ok: bool, what: str) -> None:
        """A property the output of an operation that did not fail must have."""
        if not ok:
            self.problems.append(f"wrong output: {what}")

    @property
    def correct(self) -> bool:
        return not any(p.startswith("wrong output") for p in self.problems)


def _floats(cell: str) -> list[float]:
    return [float(p) for p in cell.split("|")] if cell else []


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def suite_references() -> dict:
    eps = W.SCHEDULE[-1]
    return {
        "local-time-mean-bridge": oracle.bridge_smoothed_mean(eps, W.LEVEL),
        "local-time-mean-heat-short": oracle.heat_smoothed_mean(W.SUITE_SHORT, eps, W.LEVEL),
        "local-time-mean-heat-long": oracle.heat_smoothed_mean(W.SUITE_LONG, eps, W.LEVEL),
        **{f"bridge-moment-simplex-k{k}": oracle.bridge_moment(k) for k in (1, 2, 3)},
    }


def check_suite(rnd: dict, refs: dict, tally: Tally) -> None:
    rows = list(csv.DictReader(io.StringIO(rnd["csv"])))
    ids = tuple(r["claim_id"] for r in rows)
    tally.check(ids == W.CLAIM_IDS, f"claim ids {ids} not the 33 in fixed order")
    for row in rows:
        passed = row["status"] == "pass"
        tally.op(passed, f"claim {row['claim_id']} status {row['status']}")
        if not passed:
            continue
        cid = row["claim_id"]
        observed, expected = _floats(row["observed"]), _floats(row["expected"])
        if cid in refs:
            tally.check(_close(expected[0], refs[cid], 1e-9),
                        f"{cid} expected {expected[0]!r}, reference {refs[cid]!r}")
        if cid.startswith("local-time-mean-"):
            se = float(row["standard_error"])
            tally.check(abs(observed[0] - refs[cid]) <= SE_RULE * se,
                        f"{cid} mean {observed[0]!r} off the reference by over 4 se")
        if cid.startswith("cauchy-monotone-"):
            tally.check(all(s > 0.0 for s in observed), f"{cid} slack {observed} not positive")
    all_pass = all(r["status"] == "pass" for r in rows)
    tally.check(rnd["exit_code"] == (0 if all_pass else 1),
                f"exit code {rnd['exit_code']} with all_pass={all_pass}")


def localtime_references() -> list[float]:
    return [oracle.heat_smoothed_mean(W.LOCALTIME_INTERVAL, e, W.LEVEL) for e in W.SCHEDULE]


def check_localtime(rnd: dict, refs: list[float], tally: Tally) -> None:
    tally.check(rnd["exit_code"] == 0, f"exit code {rnd['exit_code']}")
    payload = json.loads(rnd["json"])
    agg = payload["aggregate"]
    rows = [dict(zip(agg["columns"], row)) for row in agg["rows"]]
    k = len(W.SCHEDULE)
    tally.check(len(rows) == 2 * k - 1, f"{len(rows)} rows, expected {2 * k - 1}")
    tally.check(payload["config"].get("replicates") == W.LOCALTIME_REPS,
                "config does not echo the replicate count")
    for eps, row, ref in zip(W.SCHEDULE, rows[:k], refs):
        tally.check(float(row["eps"]) == eps, f"row eps {row['eps']} != {eps}")
        mean, se = float(row["mean"]), float(row["stderr"])
        tally.op(abs(mean - ref) <= SE_RULE * se,
                 f"eps {eps}: mean {mean!r}, quadrature {ref!r}, se {se!r}")
    gaps = [float(r["mean"]) for r in rows[k:]]
    for j in range(len(gaps) - 1):
        tally.op(gaps[j] > gaps[j + 1], f"squared gap {j + 1} ({gaps[j + 1]!r}) not below gap {j}")


def increment_references() -> tuple:
    exact = oracle.increment_covariance(W.INC_POINTS, W.INC_INTERVAL[0])
    bias = oracle.sheet_cutoff_bias(W.SHEET_TIME_CUTOFF)
    # the sheet loses `bias` on each lag-0 term R(0) of
    # R(u - v) - R(u - base) - R(v - base) + R(0): once off the diagonal,
    # twice on it
    sheet = exact - bias * (1.0 + np.eye(len(W.INC_POINTS)))
    return exact, sheet


def _check_moments(route: str, summary: dict, cov_ref, tally: Tally) -> None:
    dim = len(W.INC_POINTS)
    for i in range(dim):
        mean, se = summary["mean"][i], summary["mean_se"][i]
        tally.op(abs(mean) <= SE_RULE * se, f"{route} mean[{i}] {mean!r}, se {se!r}")
    for i in range(dim):
        for j in range(i, dim):
            c, se = summary["cov"][i][j], summary["cov_se"][i][j]
            tally.op(abs(c - cov_ref[i, j]) <= SE_RULE * se,
                     f"{route} cov[{i},{j}] {c!r}, reference {cov_ref[i, j]!r}, se {se!r}")


def check_increments(rnd: dict, refs: tuple, serial_sha: str, tally: Tally) -> None:
    exact, sheet = refs
    for route, ref in (("cholesky", exact), ("sheet", sheet)):
        summary = rnd[route]
        tally.check(summary["n"] == (W.CHOLESKY_REPS if route == "cholesky" else W.SHEET_REPS),
                    f"{route} returned {summary['n']} rows")
        _check_moments(route, summary, ref, tally)
    tally.op(rnd["cholesky"]["sha256"] == serial_sha,
             "Cholesky family at jobs=nproc differs from the jobs=1 run")


def check(workload: str, result: dict) -> Tally:
    tally = Tally()
    rounds = result["rounds"]
    if workload == "suite":
        refs = suite_references()
        for rnd in rounds:
            check_suite(rnd, refs, tally)
    elif workload == "localtime-heat":
        refs = localtime_references()
        for rnd in rounds:
            check_localtime(rnd, refs, tally)
    else:
        refs = increment_references()
        for rnd in rounds:
            check_increments(rnd, refs, result["cholesky_serial_sha256"], tally)
    # every round ran the same operations on the same inputs
    outputs = [_output(workload, r) for r in rounds]
    tally.check(all(o == outputs[0] for o in outputs), "rounds on the same inputs disagree")
    return tally


def _output(workload: str, rnd: dict):
    if workload == "suite":  # the runtime column aside
        return [row[:-1] for row in csv.reader(io.StringIO(rnd["csv"]))]
    if workload == "localtime-heat":
        return rnd["json"]
    return rnd["cholesky"]["sha256"], rnd["sheet"]["sha256"]


# ---------------------------------------------------------------------------
# metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_walls: list[float], result: dict) -> dict:
    rounds = result["rounds"]
    return {
        "setup_s": _metric(statistics.median(setup_walls), "s"),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in rounds), "s"),
        "cpu_s": _metric(statistics.median(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        "replicates_per_s": _metric(
            statistics.median(r["replicates"] / r["wall_s"] for r in rounds), "1/s"),
    }


def tail_percentile(n: int) -> int | None:
    """Highest of p90/p95/p99 with at least ten samples beyond it."""
    if n < 40:
        return None
    return max(p for p in (90, 95, 99) if n * (100 - p) / 100 >= 10)


def _quantile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def per_call_metrics(name: str, samples: list[float], unit: str) -> dict:
    out = {name: _metric(statistics.median(samples), unit)}
    p = tail_percentile(len(samples))
    if p is not None:
        out[f"{name}.p{p}"] = _metric(_quantile(samples, p), unit)
    out[f"{name}.n"] = _metric(len(samples), "count")
    return out


SUITE_BLOCKS = ("spectral", "gram", "moments", "covariance", "localtime")
SPAN_TOTALS = ("local_time.quadrature", "heat_model.covariance_quadrature",
               "spectral.sweep", "spectral.dual_route", "gram.simplex_k3")


def span_metrics(spans: list[dict]) -> dict:
    def dur(s):
        return s["end"] - s["start"]

    by_id = {s["id"]: s for s in spans}

    def total(name):
        # a span nested in one of its own name is already counted
        return sum(dur(s) for s in spans if s["name"] == name
                   and (s["parent"] is None or by_id[s["parent"]]["name"] != name))

    out = {}
    for block in SUITE_BLOCKS:
        out[f"verify.{block}_s"] = _metric(total(f"verify.{block}"), "s")
    for block in ("covariance", "localtime"):
        inner = sum(dur(s) for s in spans if s["name"].startswith("mc.family.")
                    and s["parent"] is not None
                    and by_id[s["parent"]]["name"] == f"verify.{block}")
        out[f"verify.{block}.self_s"] = _metric(total(f"verify.{block}") - inner, "s")
    for tag in W.suite_family_replicates(W.SUITE_REPS):
        out[f"mc.family.{tag}_s"] = _metric(total(f"mc.family.{tag}"), "s")
    for name in SPAN_TOTALS:
        out[f"{name}_s"] = _metric(total(name), "s")
    for route, tag in (("cholesky", "sim-path"), ("sheet", "sim-sheet")):
        fam = [s for s in spans if s["name"] == f"mc.family.{tag}"]
        rate = sum(s["replicates"] for s in fam) / sum(map(dur, fam)) if fam else 0.0
        out[f"{route}_replicates_per_s"] = _metric(rate, "1/s")
    roots = [s for s in spans if s["parent"] is None]
    covered = sum(dur(s) for s in spans if s["parent"] is not None
                  and by_id[s["parent"]]["parent"] is None)
    out["trace.coverage_pct"] = _metric(100.0 * covered / sum(map(dur, roots)), "%")
    out["trace.spans"] = _metric(len(spans), "count")
    return out


def per_layer(setup: list[dict], result: dict) -> dict:
    untraced, traced = result["rounds"]
    micro = result["micro"]
    out = {"cli.import_s": _metric(statistics.median(p["import_s"] for p in setup), "s")}
    out.update(span_metrics(result["spans"]))
    attributed = 0.0
    if "csv" in untraced:
        attributed = sum(float(r["runtime_ms"]) for r in
                         csv.DictReader(io.StringIO(untraced["csv"]))) / 1e3
    out["verify.attributed_s"] = _metric(attributed, "s")
    out["trace.overhead_s"] = _metric(traced["wall_s"] - untraced["wall_s"], "s")
    serial, pooled = micro.pop("mc.serial_noop_s"), micro.pop("mc.pooled_noop_s")
    out["mc.pool_start_s"] = _metric(statistics.median(pooled) - statistics.median(serial), "s")
    out["mc.overhead_us_per_replicate"] = _metric(statistics.median(serial) / 2048 * 1e6, "us")
    for name, samples in micro.items():
        unit = "ms" if "_ms" in name else "us"
        out.update(per_call_metrics(name, samples, unit))
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")

    if not (ROOT / "src" / "heatlocal" / "cli.py").is_file():
        print(f"benchmark: no heatlocal source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # a stop request unwinds through _run_child, which kills the child's session
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        setup, setup_walls = [], []
        for _ in range(SETUP_PROBES):
            probe, wall = _run_child(["setup", "--workload", args.workload], 20.0)
            setup.append(probe)
            setup_walls.append(wall)
        result, _ = _run_child(
            ["rounds", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            CHILD_TIMEOUT_S)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    tally = check(args.workload, result)
    for problem in tally.problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(setup, result)
        stem = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
        stem.with_suffix(".json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "provenance": result["provenance"], "metrics": metrics,
        }, indent=1) + "\n")
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics = end_to_end(setup_walls, result)
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"benchmark: non-finite metrics {bad}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
