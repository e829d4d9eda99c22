"""Child process of the benchmark; imports heatlocal and times it.

``run.py`` starts it with the checkout's ``src`` on PYTHONPATH and BLAS
threads pinned to 1.  It writes one JSON document to ``--out``.

    runner.py setup  --workload W --out F
        import heatlocal.cli and fill the caches the workload builds on
        first call (embedding weights, increment Cholesky factors, sheet
        operator)
    runner.py rounds --workload W --seed S --seconds T --trace 0|1 --out F
        set up as above, then time whole rounds of the workload; with
        --trace 1, one untraced and one traced round, then the per-call
        microbenchmarks

Every round of a run repeats the same operations on the same inputs, so
its outputs are identical from round to round.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

# heatlocal is imported first, so IMPORT_S includes numpy and scipy as a
# user's first `import heatlocal.cli` does
T_START = time.perf_counter()
import heatlocal.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from heatlocal import cli, verify  # noqa: E402
from heatlocal.grids import SpatialGrid  # noqa: E402
from heatlocal.heat_model import (  # noqa: E402
    build_sheet_operator,
    covariance_R,
    path_increment_replicate,
    sheet_increment_replicate,
)
from heatlocal.local_time import (  # noqa: E402
    bridge_values,
    heat_values,
    local_time_replicate,
    motion_values,
    smoothed_values,
)
from heatlocal.mc import run_replicates  # noqa: E402
from heatlocal.reports import (  # noqa: E402
    bound_report,
    reports_from_csv,
    reports_to_csv,
    two_sided_report,
)
from heatlocal.sampling import (  # noqa: E402
    SeedSpec,
    circulant_embedding_weights,
    sample_stationary_values,
)

import oracle  # noqa: E402
import workloads as W  # noqa: E402


def fill_caches(workload: str) -> None:
    """Call each task the workload runs once, so its per-process caches fill."""
    seed = SeedSpec(0)
    if workload in ("suite", "localtime-heat"):
        heat_values(seed, W.GRID, *W.LOCALTIME_INTERVAL)
    if workload == "suite":
        heat_values(seed, W.GRID, *W.SUITE_SHORT)
        path_increment_replicate(seed, W.QF_POINTS, W.SUITE_SHORT)
    if workload in ("suite", "increments"):
        path_increment_replicate(seed, W.INC_POINTS, W.INC_INTERVAL)
        sheet_increment_replicate(seed, W.INC_POINTS, W.INC_INTERVAL)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the peak of
    # the largest reaped child, here the largest pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024.0


# ---------------------------------------------------------------------------
# tracing: spans kept in memory, recorded around calls into heatlocal


class Tracer:
    """Span recorder: name, start, end and parent of each call it wraps."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - T_START,
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - T_START
            self._stack.pop()

    def wrap(self, module, attr: str, name) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``name`` is a span name or a function of (args, kwargs) returning
        (name, attrs).
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label, attrs = name(args, kwargs) if callable(name) else (name, {})
            with self.span(label, **attrs):
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


class NoTracer:
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None


def install_suite_spans(tracer: Tracer, seed: int) -> None:
    """Wrap what ``heatlocal.verify`` calls, at its module attributes."""
    for block in ("spectral", "gram", "moment", "covariance", "localtime"):
        label = "verify.moments" if block == "moment" else f"verify.{block}"
        tracer.wrap(verify, f"{block}_reports", label)
    families = {
        verify.derive_master(seed, tag): tag
        for tag in W.suite_family_replicates(W.SUITE_REPS)
    }

    def family(args, kwargs):
        tag = families.get(kwargs.get("master_seed"), "unknown")
        return f"mc.family.{tag}", {"replicates": kwargs.get("replicates")}

    tracer.wrap(verify, "run_replicates", family)
    for fn in (
        "expected_smoothed_local_time",
        "second_moment_via_density",
        "expected_motion_local_time_in_window",
    ):
        tracer.wrap(verify, fn, "local_time.quadrature")
    tracer.wrap(verify, "covariance_R_quadrature", "heat_model.covariance_quadrature")
    tracer.wrap(verify, "random_step_function", "spectral.sweep")
    tracer.wrap(verify, "smoothed_norm_sq", "spectral.sweep")
    tracer.wrap(verify, "quadratic_form_Q", "spectral.dual_route")
    tracer.wrap(verify, "quadratic_form_Q_spectral", "spectral.dual_route")
    tracer.wrap(
        verify, "dirichlet_simplex_integral", lambda a, kw: (f"gram.simplex_k{a[0]}", {})
    )


def install_localtime_spans(tracer: Tracer) -> None:
    tracer.wrap(
        cli,
        "run_replicates",
        lambda a, kw: ("mc.run_replicates", {"replicates": a[1].replicates}),
    )


# ---------------------------------------------------------------------------
# one round of each workload


def _timed(fn):
    c0 = _cpu_s()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall, _cpu_s() - c0


def _cli_round(argv: list[str], out_path: Path, tracer) -> tuple[int, str, float, float]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), tracer.span("cli.main"):
        code, wall, cpu = _timed(lambda: cli.main(argv + ["--out", str(out_path)]))
    text = out_path.read_text() if out_path.exists() else ""
    out_path.unlink(missing_ok=True)
    if code not in (0, 1):
        raise RuntimeError(f"heatlocal {argv[0]} exited {code}: {err.getvalue()}")
    return code, text, wall, cpu


def suite_round(seed: int, scratch: Path, tracer) -> dict:
    argv = ["verify", "--seed", str(seed), "--reps", str(W.SUITE_REPS),
            "--jobs", str(W.nproc())]
    code, text, wall, cpu = _cli_round(argv, scratch / f"suite-{seed}.csv", tracer)
    reps = sum(W.suite_family_replicates(W.SUITE_REPS).values())
    return {"wall_s": wall, "cpu_s": cpu, "replicates": reps, "exit_code": code, "csv": text}


def localtime_round(seed: int, scratch: Path, tracer) -> dict:
    lo, hi = W.LOCALTIME_INTERVAL
    argv = ["localtime", "--process", "heat", "--interval", repr(lo), repr(hi),
            "--grid", str(W.GRID), "--jobs", "1", "--format", "json",
            "--reps", str(W.LOCALTIME_REPS), "--seed", str(seed)]
    code, text, wall, cpu = _cli_round(argv, scratch / f"localtime-{seed}.json", tracer)
    return {"wall_s": wall, "cpu_s": cpu, "replicates": W.LOCALTIME_REPS,
            "exit_code": code, "json": text}


def _increment_tasks():
    kw = {"points": W.INC_POINTS, "interval": W.INC_INTERVAL}
    return (functools.partial(path_increment_replicate, **kw),
            functools.partial(sheet_increment_replicate, **kw))


def _family(task, reps: int, master: int, jobs: int):
    return run_replicates(task, replicates=reps, master_seed=master, jobs=jobs,
                          return_raw=True)


def _summary(raw: np.ndarray) -> dict:
    out = oracle.sample_moments(raw)
    out["sha256"] = hashlib.sha256(np.ascontiguousarray(raw).tobytes()).hexdigest()
    return out


def increments_round(seed: int, scratch: Path, tracer) -> dict:
    chol, sheet = _increment_tasks()
    jobs = W.nproc()
    with tracer.span("increments.round"):
        with tracer.span("mc.family.sim-path", replicates=W.CHOLESKY_REPS):
            res_c, wall_c, cpu_c = _timed(lambda: _family(
                chol, W.CHOLESKY_REPS, verify.derive_master(seed, "sim-path"), jobs))
        with tracer.span("mc.family.sim-sheet", replicates=W.SHEET_REPS):
            res_s, wall_s, cpu_s = _timed(lambda: _family(
                sheet, W.SHEET_REPS, verify.derive_master(seed, "sim-sheet"), jobs))
    return {
        "wall_s": wall_c + wall_s,
        "cpu_s": cpu_c + cpu_s,
        "replicates": W.CHOLESKY_REPS + W.SHEET_REPS,
        "cholesky_wall_s": wall_c,
        "sheet_wall_s": wall_s,
        "cholesky": _summary(res_c.raw),
        "sheet": _summary(res_s.raw),
    }


ROUNDS = {"suite": suite_round, "localtime-heat": localtime_round,
          "increments": increments_round}


# ---------------------------------------------------------------------------
# per-call microbenchmarks


def _per_call(fn, n: int, warm: int = 3, scale: float = 1e6) -> list[float]:
    for i in range(warm):
        fn(i)
    samples = []
    for i in range(n):
        t0 = time.perf_counter()
        fn(i)
        samples.append((time.perf_counter() - t0) * scale)
    return samples


def noop_task(seed) -> np.ndarray:
    return np.zeros(1)


def _synthetic_reports(rng: np.random.Generator) -> list:
    reports = []
    for i, cid in enumerate(W.CLAIM_IDS):
        width = 1 + i % 4
        if i % 3 == 0:
            reports.append(bound_report(cid, rng.random(width), 1e-8))
        else:
            reports.append(two_sided_report(
                cid, rng.normal(size=width), rng.normal(size=width), 1e-6,
                standard_error=float(rng.random())))
        reports[-1].runtime_ms = float(rng.random() * 1e3)
    return reports


def microbenchmarks(seed: int) -> dict[str, list[float]]:
    specs = [SeedSpec(seed, i) for i in range(4000)]
    lo, hi = W.LOCALTIME_INTERVAL
    spacing = (hi - lo) / (W.GRID - 1)
    m = 1
    while m < 2 * (W.GRID - 1):
        m *= 2
    lags = np.arange(m // 2 + 1) * spacing
    weights = circulant_embedding_weights(covariance_R(lags))
    trap_w = np.full(W.GRID, spacing)
    trap_w[[0, -1]] *= 0.5
    paths = [heat_values(specs[i], W.GRID, lo, hi) for i in range(8)]
    inc = {"points": W.INC_POINTS, "interval": W.INC_INTERVAL}
    grid = SpatialGrid(np.array(W.INC_POINTS), W.INC_INTERVAL)

    out = {
        "sampling.rng_us": _per_call(lambda i: specs[i].rng(), 2000),
        "sampling.stationary_values_us": _per_call(
            lambda i: sample_stationary_values(weights, specs[i], W.GRID), 200),
        "sampling.embedding_weights_ms": _per_call(
            lambda i: circulant_embedding_weights(covariance_R(lags)), 20, scale=1e3),
        "local_time.heat_values_us.short": _per_call(
            lambda i: heat_values(specs[i], W.GRID, *W.SUITE_SHORT), 200),
        "local_time.heat_values_us.long": _per_call(
            lambda i: heat_values(specs[i], W.GRID, lo, hi), 200),
        "local_time.bridge_values_us": _per_call(
            lambda i: bridge_values(specs[i], W.GRID), 200),
        "local_time.motion_values_us": _per_call(
            lambda i: motion_values(specs[i], W.GRID), 200),
        "local_time.smoothed_values_us": _per_call(
            lambda i: smoothed_values(paths[i % 8], trap_w, W.LEVEL, W.SCHEDULE), 200),
        "local_time.replicate_us": _per_call(
            lambda i: local_time_replicate(
                specs[i], "heat", W.GRID, W.LOCALTIME_INTERVAL, W.LEVEL, W.SCHEDULE), 200),
        "heat_model.path_increment_us": _per_call(
            lambda i: path_increment_replicate(specs[i], **inc), 2000),
        "heat_model.sheet_increment_us": _per_call(
            lambda i: sheet_increment_replicate(specs[i], **inc), 100),
        "heat_model.sheet_build_ms": _per_call(
            lambda i: build_sheet_operator(grid), 5, warm=1, scale=1e3),
    }

    # engine overhead: a task that does no work, on one and on all cores
    def engine(jobs: int) -> float:
        t0 = time.perf_counter()
        run_replicates(noop_task, replicates=2048, master_seed=seed, jobs=jobs)
        return time.perf_counter() - t0

    serial = [engine(1) for _ in range(5)]
    pooled = [engine(W.nproc()) for _ in range(5)]
    out["mc.serial_noop_s"] = serial
    out["mc.pooled_noop_s"] = pooled

    reports = _synthetic_reports(np.random.default_rng(seed))

    def roundtrip(i):
        if reports_from_csv(reports_to_csv(reports)) != reports:
            raise AssertionError("report CSV round trip changed a report")

    out["reports.csv_roundtrip_ms"] = _per_call(roundtrip, 100, scale=1e3)
    return out


# ---------------------------------------------------------------------------


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    round_fn = ROUNDS[workload]
    rounds = []
    result: dict = {}
    if trace:
        rounds.append(round_fn(seed, scratch, NoTracer()))
        tracer = Tracer()
        if workload == "suite":
            install_suite_spans(tracer, seed)
        elif workload == "localtime-heat":
            install_localtime_spans(tracer)
        try:
            rounds.append(round_fn(seed, scratch, tracer))
        finally:
            tracer.restore()
        result["spans"] = tracer.spans
    else:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(round_fn(seed, scratch, NoTracer()))
            last = time.perf_counter() - t0
            # whole rounds only: start another only if it should end in time
            if time.perf_counter() - start + last > seconds:
                break
    result["peak_rss_mb"] = _peak_rss_mb()
    result["rounds"] = rounds
    if workload == "increments":
        chol, _ = _increment_tasks()
        ref = _family(chol, W.CHOLESKY_REPS, verify.derive_master(seed, "sim-path"), 1)
        result["cholesky_serial_sha256"] = _summary(ref.raw)["sha256"]
    if trace:
        result["micro"] = microbenchmarks(seed)
    return result


def _provenance() -> dict:
    return {
        "cores": W.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "rounds"))
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    fill_caches(args.workload)
    result = {"import_s": IMPORT_S}
    if args.mode == "rounds":
        result.update(run_rounds(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.out.parent))
        result["provenance"] = _provenance()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
