"""Monte Carlo engine determinism, codecs, config validation, CLI."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
import platform
import re
import subprocess
import sys
import time
from concurrent.futures.process import _RemoteTraceback
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatlocal import cli, mc, verify
from heatlocal.cli import main
from heatlocal.errors import ConfigError, ReplicateFailure
from heatlocal.heat_model import (
    path_increment_replicate,
    sheet_increment_replicate,
    weighted_increment_square,
)
from heatlocal.local_time import (
    bandwidth_floor,
    bridge_motion_replicate,
    heat_replicate,
    local_time_replicate,
    require_resolvable,
)
from heatlocal.mc import CHUNK, PROCESSES, MCResult, RunConfig, run_replicates
from heatlocal.reports import (
    AggregateTable,
    SuiteReport,
    bound_report,
    provenance,
    reports_from_csv,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
    two_sided_report,
)
from heatlocal.verify import derive_master


def constant_task(seed):
    return np.array([1.0])


def echo_seed_task(seed):
    return np.array([float(seed.rng().standard_normal())])


def index_task(seed):
    return np.array([float(seed.replicate_index), 1.0])


def failing_task(seed, at=7):
    if seed.replicate_index == at:
        raise ValueError("boom")
    return np.array([0.0])


def failing_rows(master_seed, start, stop, at):
    if start <= at < stop:
        raise ValueError("boom")
    return np.zeros((stop - start, 1))


def failing_block_task(seed, at):
    i = seed.replicate_index
    return failing_rows(seed.master_seed, i, i + 1, at)[0]


failing_block_task.rows = failing_rows


def chunk_marking_task(seed, marks):
    # each chunk leaves a marker as it starts, then takes a while
    i = seed.replicate_index
    if i % CHUNK == 0:
        Path(marks, f"chunk-{i // CHUNK}").touch()
        if i == 0:
            raise ValueError("boom")
        time.sleep(0.2)
    return np.array([0.0])


def dying_task(seed, **kwargs):
    os._exit(3)


def no_sampling(*args, **kwargs):
    raise AssertionError("must not sample")


def test_constant_task_has_unit_mean_zero_stderr():
    res = run_replicates(constant_task, replicates=100, master_seed=0)
    assert res.mean[0] == 1.0
    assert res.stderr[0] == 0.0
    assert res.n == 100


def test_single_replicate_zero_stderr():
    res = run_replicates(echo_seed_task, replicates=1, master_seed=3)
    assert res.stderr[0] == 0.0


def test_results_identical_across_worker_counts():
    kwargs = dict(replicates=2500, master_seed=17)
    serial = run_replicates(echo_seed_task, **kwargs)
    parallel = run_replicates(echo_seed_task, jobs=4, **kwargs)
    for field in ("mean", "stderr", "m2", "m3", "m4"):
        assert np.array_equal(getattr(serial, field), getattr(parallel, field))


_INCREMENTS = dict(points=(0.6, 0.9, 1.2, 1.5, 1.8, 2.0), interval=(0.0, 2.0))
_QUADRATIC_FORM = dict(
    points=(0.3, 0.8, 1.1, 1.7, 2.0), coeffs=(1.2, -0.7, 2.0, 0.4, -1.5), interval=(0.0, 2.0)
)
# a 257-point grid resolves the schedule on (0, 1) and (0, 2), not on (0, 5),
# and the extra bandwidth on (0, 1)
_PATHS = dict(n=257, z=0.0, schedule=(0.08, 0.04))
# below the floor of the 257-point grid on (0, 1) and (0, 2)
_UNRESOLVED = dict(_PATHS, schedule=(0.08, 1e-3))


@pytest.mark.parametrize("replicates", (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1))
@pytest.mark.parametrize(
    "route",
    (
        partial(path_increment_replicate, **_INCREMENTS),
        partial(sheet_increment_replicate, **_INCREMENTS),
        partial(local_time_replicate, process_tag="heat", interval=(0.0, 2.0), **_PATHS),
        partial(local_time_replicate, process_tag="bridge", interval=(0.0, 1.0), **_PATHS),
        partial(local_time_replicate, process_tag="motion", interval=(0.0, 1.0), **_PATHS),
        partial(bridge_motion_replicate, extra_eps=0.02, **_PATHS),
        partial(heat_replicate, intervals=((0.0, 1.0), (0.0, 2.0)), **_PATHS),
        partial(weighted_increment_square, **_QUADRATIC_FORM),
    ),
)
def test_increment_routes_raw_bytes_identical_across_jobs(route, replicates):
    kwargs = dict(replicates=replicates, master_seed=29, return_raw=True)
    serial = run_replicates(route, jobs=1, **kwargs)
    parallel = run_replicates(route, jobs=2, **kwargs)
    assert serial.raw.shape[0] == replicates
    assert serial.raw.tobytes() == parallel.raw.tobytes()


@pytest.mark.parametrize(
    "route, digest",
    (
        (
            partial(path_increment_replicate, **_INCREMENTS),
            "60c7efbea76aa338bf76cb08c5d19d823075026950be43114c89ea679578c365",
        ),
        (
            partial(sheet_increment_replicate, **_INCREMENTS),
            "7519bc14dd9fc928f50e43fe16b5562682a4589d63051987c3b8fc82bcdbaeaf",
        ),
        (
            partial(weighted_increment_square, **_QUADRATIC_FORM),
            "0748c11b914da4f23d025ea02c6f099705f350f71a01d49c1cb0c1531d293ab4",
        ),
    ),
)
def test_increment_routes_emit_golden_raw_bytes(route, digest):
    # the bytes of the fixed-width rows; any change of the row scheme,
    # the block forms or the engine's fold changes them
    res = run_replicates(route, replicates=2 * CHUNK + 1, master_seed=29, return_raw=True)
    assert hashlib.sha256(res.raw.tobytes()).hexdigest() == digest


def test_engine_calls_a_block_form_once_per_chunk():
    calls = []

    def rows(master_seed, start, stop, scale):
        calls.append((start, stop))
        return np.full((stop - start, 1), scale)

    # each per-replicate form reads 1 more than its block form, so the
    # mean tells which form ran
    def task(seed, scale):
        return np.array([scale + 1.0])

    def scale_first_task(scale, seed):
        return np.array([scale + 1.0])

    task.rows = scale_first_task.rows = rows
    res = run_replicates(partial(task, scale=2.0), replicates=2 * CHUNK + 1, master_seed=3)
    assert calls == [(0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 2 * CHUNK + 1)]
    assert res.mean[0] == 2.0
    # a positional partial binds an argument the block form cannot take
    res = run_replicates(partial(scale_first_task, 2.0), replicates=CHUNK + 1, master_seed=3)
    assert len(calls) == 3
    assert res.mean[0] == 3.0

    # a task without a block form is called once per replicate
    seen = []

    def per_replicate(seed):
        seen.append(seed.replicate_index)
        return np.ones(1)

    run_replicates(per_replicate, replicates=2 * CHUNK + 1, master_seed=3)
    assert seen == list(range(2 * CHUNK + 1))

    # a block form that raises is replayed in one-row calls up to the raising index
    at = CHUNK + 5

    def raising_rows(master_seed, start, stop):
        calls.append((start, stop))
        if start <= at < stop:
            raise ValueError("boom")
        return np.zeros((stop - start, 1))

    calls.clear()
    with pytest.raises(ReplicateFailure) as exc_info:
        run_replicates(mc.Task(raising_rows), replicates=2 * CHUNK + 1, master_seed=3)
    assert exc_info.value.replicate_index == at
    assert "ValueError: boom" in str(exc_info.value)
    assert calls == [(0, CHUNK), (CHUNK, 2 * CHUNK)] + [(i, i + 1) for i in range(CHUNK, at + 1)]


_BLAS_SCRIPT = """
import ctypes, glob, hashlib, os
from functools import partial
import numpy as np
from heatlocal.heat_model import path_increment_replicate, weighted_increment_square
from heatlocal.mc import run_replicates
for task, kw in ((path_increment_replicate, {inc!r}), (weighted_increment_square, {qf!r})):
    res = run_replicates(partial(task, **kw), replicates={n}, master_seed=29, return_raw=True)
    print(hashlib.sha256(res.raw.tobytes()).hexdigest())
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
get = [getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None) for lib in libs]
print(next((f() for f in get if f), "unknown"))
"""


@pytest.mark.parametrize("threads", ("1", "2"))
def test_blas_routes_keep_their_golden_bytes_at_one_and_two_blas_threads(threads):
    # the stacked matmul products of the Cholesky and quadratic-form routes
    # reach OpenBLAS, whose thread count is fixed when numpy loads, so each
    # count runs in a fresh interpreter; a 2-core host can test only 1 and 2
    script = _BLAS_SCRIPT.format(inc=_INCREMENTS, qf=_QUADRATIC_FORM, n=2 * CHUNK + 1)
    src = str(Path(mc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    *digests, blas_threads = proc.stdout.split()
    # the digests of test_increment_routes_emit_golden_raw_bytes
    assert digests == [
        "60c7efbea76aa338bf76cb08c5d19d823075026950be43114c89ea679578c365",
        "0748c11b914da4f23d025ea02c6f099705f350f71a01d49c1cb0c1531d293ab4",
    ]
    # where the bundled OpenBLAS can be asked, it runs the requested threads
    assert blas_threads in (threads, "unknown")


@pytest.mark.parametrize("jobs", (1, 2))
def test_raw_rows_sit_at_their_replicate_index(jobs):
    n = 2 * CHUNK + 1
    res = run_replicates(index_task, replicates=n, master_seed=5, jobs=jobs, return_raw=True)
    assert np.array_equal(res.raw, np.column_stack([np.arange(n), np.ones(n)]))


def test_raw_collection_matches_stream():
    res = run_replicates(echo_seed_task, replicates=50, master_seed=5, return_raw=True)
    from heatlocal.sampling import SeedSpec

    direct = np.array([echo_seed_task(SeedSpec(5, i))[0] for i in range(50)])
    assert np.array_equal(res.raw[:, 0], direct)


def test_replicate_failure_carries_index():
    with pytest.raises(ReplicateFailure) as exc_info:
        run_replicates(failing_task, replicates=20, master_seed=0)
    assert exc_info.value.replicate_index == 7


def test_replicate_failure_crosses_process_boundary():
    # three chunks at two jobs run in a pool; the third chunk fails
    at = 2 * CHUNK + 7
    with pytest.raises(ReplicateFailure) as exc_info:
        run_replicates(partial(failing_task, at=at), replicates=3 * CHUNK, master_seed=0, jobs=2)
    assert exc_info.value.replicate_index == at
    assert isinstance(exc_info.value.__cause__, _RemoteTraceback)
    rt = pickle.loads(pickle.dumps(exc_info.value))
    assert rt.replicate_index == at


def test_block_form_must_return_one_row_per_replicate():
    def rows(master_seed, start, stop):
        return np.zeros((stop - start - 1, 1))

    def task(seed):
        return np.zeros(1)

    task.rows = rows
    with pytest.raises(ReplicateFailure) as exc_info:
        run_replicates(task, replicates=CHUNK + 5, master_seed=0)
    assert exc_info.value.replicate_index == 0


def test_block_form_failure_crosses_process_boundary_with_its_index():
    # the third chunk's block form raises; the replay names the replicate
    at = 2 * CHUNK + 7
    task = partial(failing_block_task, at=at)
    with pytest.raises(ReplicateFailure) as exc_info:
        run_replicates(task, replicates=3 * CHUNK, master_seed=0, jobs=2)
    assert exc_info.value.replicate_index == at
    assert isinstance(exc_info.value.__cause__, _RemoteTraceback)
    assert pickle.loads(pickle.dumps(exc_info.value)).replicate_index == at


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize(
    "task",
    (
        partial(heat_replicate, intervals=((0.0, 2.0),), **_UNRESOLVED),
        partial(local_time_replicate, process_tag="bridge", interval=(0.0, 1.0), **_UNRESOLVED),
        partial(bridge_motion_replicate, extra_eps=0.02, **_UNRESOLVED),
    ),
    ids=("heat", "local-time", "bridge-motion"),
)
def test_local_time_block_form_failure_names_the_chunks_first_index(task, jobs):
    # the schedule passes no check before the run: the block form raises,
    # and so does the replay's first replicate
    assert mc._block_form(task) is not None
    with pytest.raises(ReplicateFailure) as exc_info:
        run_replicates(task, replicates=2 * CHUNK + 1, master_seed=0, jobs=jobs)
    assert exc_info.value.replicate_index == 0
    assert "BandwidthTooSmall" in str(exc_info.value)
    assert isinstance(exc_info.value.__cause__, _RemoteTraceback) == (jobs > 1)


def test_pooled_failure_cancels_the_queued_chunks(tmp_path):
    chunks = 16
    task = partial(chunk_marking_task, marks=str(tmp_path))
    with pytest.raises(ReplicateFailure) as exc_info:
        run_replicates(task, replicates=chunks * CHUNK, master_seed=0, jobs=2)
    assert exc_info.value.replicate_index == 0
    ran = {p.name for p in tmp_path.iterdir()}
    assert "chunk-0" in ran
    assert len(ran) < chunks


def per_replicate_increments(seed):
    # the Cholesky route without its block form, so the engine calls it once
    # per replicate
    return path_increment_replicate(seed, **_INCREMENTS)


# counts at chunk boundaries, where batches begin and end, or anywhere
_REPLICATE_COUNTS = st.one_of(
    st.builds(lambda k, d: k * CHUNK + d, st.integers(1, 20), st.sampled_from((-1, 0, 1))),
    st.integers(1, 20 * CHUNK + 1),
)


@pytest.mark.parametrize(
    "route",
    (partial(path_increment_replicate, **_INCREMENTS), per_replicate_increments),
    ids=("block-form", "per-replicate"),
)
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(replicates=_REPLICATE_COUNTS)
@example(replicates=20 * CHUNK + 1)
def test_bytes_depend_on_neither_batching_nor_jobs(route, replicates):
    runs = [
        run_replicates(route, replicates=replicates, master_seed=31, jobs=jobs, return_raw=True)
        for jobs in (1, 2, 3)
    ]
    for field in ("raw", "mean", "stderr", "m2", "m3", "m4"):
        serial, *pooled = (getattr(res, field).tobytes() for res in runs)
        assert all(b == serial for b in pooled), field


def test_guided_batches_partition_the_chunks_and_end_on_single_chunks():
    for chunks in range(2, 200):
        starts = range(0, chunks * CHUNK - 5, CHUNK)
        for workers in range(2, min(chunks, 16) + 1):
            batches = mc._guided_batches(starts, workers)
            assert [start for batch in batches for start in batch] == list(starts)
            assert all(1 <= len(batch) <= mc.CAP for batch in batches)
            assert all(len(batch) == 1 for batch in batches[-workers:])
    sizes = [len(batch) for batch in mc._guided_batches(range(0, 128 * CHUNK, CHUNK), 2)]
    assert sizes == [8] * 13 + [6, 4, 3, 2, 2] + [1] * 7


def test_pool_sends_cheap_chunks_in_few_items(monkeypatch):
    items = []

    class RecordingExecutor(mc.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            items.append(len(iterables[0]))
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingExecutor)
    route = partial(path_increment_replicate, **_INCREMENTS)
    pooled = run_replicates(route, replicates=128 * CHUNK, master_seed=0, jobs=2)
    assert len(items) == 1 and items[0] <= 32
    serial = run_replicates(route, replicates=128 * CHUNK, master_seed=0)
    assert pooled.mean.tobytes() == serial.mean.tobytes()


@pytest.mark.parametrize(
    "task", (failing_task, failing_block_task), ids=("per-replicate", "block-form")
)
def test_failure_inside_a_pooled_batch_names_its_replicate(task):
    # the second chunk of the first multi-chunk batch fails; a block form's
    # failure is replayed one replicate at a time
    n = 16 * CHUNK
    first = next(b for b in mc._guided_batches(range(0, n, CHUNK), 2) if len(b) > 1)
    at = first[1] + 7
    with pytest.raises(ReplicateFailure) as exc_info:
        run_replicates(partial(task, at=at), replicates=n, master_seed=0, jobs=2)
    assert exc_info.value.replicate_index == at
    assert isinstance(exc_info.value.__cause__, _RemoteTraceback)


def test_bridge_mean_task_matches_quadrature_small_scale():
    from heatlocal.local_time import expected_smoothed_local_time

    task = partial(
        local_time_replicate,
        process_tag="bridge",
        n=2048,
        interval=(0.0, 1.0),
        z=0.0,
        schedule=(0.02,),
    )
    res = run_replicates(task, replicates=1500, master_seed=8)
    expected = expected_smoothed_local_time("bridge", 0.0, 0.02)
    assert abs(res.mean[0] - expected) < 4.0 * res.stderr[0]


@pytest.mark.parametrize(
    "overrides",
    [
        dict(interval=(1.0, 1.0)),
        dict(interval=(2.0, 0.0)),
        dict(grid_points=1),
        dict(replicates=0),
        dict(jobs=0),
        dict(master_seed=-1),
        dict(epsilon_schedule=()),
        dict(epsilon_schedule=(0.1, 0.1)),
        dict(epsilon_schedule=(0.01, 0.05)),
        dict(epsilon_schedule=(-0.1,)),
        dict(epsilon_schedule=(0.1, 0.0)),
        dict(epsilon_schedule=(float("nan"),)),
        dict(process="poisson"),
        dict(epsilon_schedule=(float("inf"), 0.5)),
        dict(interval=(0.0, float("inf"))),
        dict(interval=(float("nan"), 1.0)),
        dict(z=float("nan")),
        dict(z=float("inf")),
    ],
)
def test_config_rejections(overrides):
    with pytest.raises(ConfigError):
        RunConfig(**overrides)


def test_bandwidth_floor_scales_with_interval():
    assert bandwidth_floor(2.0, 8192) == pytest.approx(8.0 / 8191)
    require_resolvable(0.005, (0.0, 2.0), 8192)
    for bandwidth, interval in ((0.005, (0.0, 60.0)), (1e-7, (0.0, 2.0))):
        with pytest.raises(ConfigError, match="floor"):
            require_resolvable(bandwidth, interval, 8192)


def test_config_dict_excludes_execution_only_fields(monkeypatch, capsys):
    # localtime takes every run flag, so its JSON config is the widest
    table = AggregateTable(("eps",), ((0.5,),))
    monkeypatch.setattr(cli, "_localtime_table", lambda config: table)
    assert main(["localtime", "--jobs", "8", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)["config"]
    assert list(d) == [
        "command", "interval", "grid_points", "epsilon_schedule", "replicates", "master_seed", "z",
        "process",
    ]
    assert d["replicates"] == 50_000
    assert tuple(d["epsilon_schedule"]) == RunConfig().epsilon_schedule


def test_derive_master_is_stable_and_tag_sensitive():
    a = derive_master(0, "alpha")
    assert a == derive_master(0, "alpha")
    assert a != derive_master(0, "beta")
    assert a != derive_master(1, "alpha")
    assert 0 <= a < 2**64


def test_report_csv_roundtrip_exact():
    reports = [
        two_sided_report("claim-a", 1.234567890123456789, 1.2, 0.1, standard_error=0.01),
        bound_report("claim-b", [0.5, -1e-12, 2.0], 1e-9),
    ]
    reports[1].runtime_ms = 3.25
    text = reports_to_csv(reports)
    back = reports_from_csv(text)
    assert back == reports


def test_report_json_roundtrip_with_config():
    config = {"interval": [0.0, 2.0], "epsilon_schedule": [0.08, 0.04], "master_seed": 0}
    reports = [two_sided_report("claim-c", (1.0, 2.0), (1.0, 2.0), 1e-6)]
    text = reports_to_json(reports, config, "9.9.9")
    back, cfg_d, version = reports_from_json(text)
    assert back == reports
    assert version == "9.9.9"
    assert cfg_d == config


def test_table_roundtrips_preserve_none_cells():
    table = AggregateTable(
        ("eps", "eps_pair_low", "mean"),
        ((0.08, None, 1.5), (0.08, 0.04, 0.25)),
    )
    assert table_from_csv(table_to_csv(table)) == table
    back, _, _ = table_from_json(table_to_json(table, {"k": 1}, "v"))
    assert back == table


GOLDEN_TABLE_CSV = """\
eps,eps_pair_low,mean
0.080000000000000002,,1.5
0.040000000000000001,0.02,0.30000000000000004
"""

GOLDEN_TABLE_JSON = """\
{
  "config": {
    "k": 1
  },
  "aggregate": {
    "columns": [
      "eps",
      "eps_pair_low",
      "mean"
    ],
    "rows": [
      [
        "0.080000000000000002",
        null,
        "1.5"
      ],
      [
        "0.040000000000000001",
        "0.02",
        "0.30000000000000004"
      ]
    ]
  },
  "provenance": {
    "stream": "@stream@",
    "chunk": 1024,
    "numpy": "@numpy@",
    "scipy": "@scipy@",
    "python": "@python@"
  },
  "version": "v"
}
"""

GOLDEN_REPORTS_CSV = """\
claim_id,status,observed,expected,tolerance,standard_error,runtime_ms
claim-a,pass,0.33333333333333331,0.25,0.10000000000000001,0.01,2.5
claim-b,fail,-9.9999999999999998e-13|2,0|0,1.0000000000000001e-09,,0
"""

GOLDEN_REPORTS_JSON = """\
{
  "config": {
    "command": "verify"
  },
  "reports": [
    {
      "claim_id": "claim-a",
      "status": "pass",
      "observed": [
        "0.33333333333333331"
      ],
      "expected": [
        "0.25"
      ],
      "tolerance": "0.10000000000000001",
      "standard_error": "0.01",
      "runtime_ms": "2.5"
    },
    {
      "claim_id": "claim-b",
      "status": "fail",
      "observed": [
        "-9.9999999999999998e-13",
        "2"
      ],
      "expected": [
        "0",
        "0"
      ],
      "tolerance": "1.0000000000000001e-09",
      "standard_error": null,
      "runtime_ms": "0"
    }
  ],
  "provenance": {
    "stream": "@stream@",
    "chunk": 1024,
    "numpy": "@numpy@",
    "scipy": "@scipy@",
    "python": "@python@"
  },
  "version": "9.9.9"
}
"""


# the stream scheme of the golden envelopes, too long for one of their lines
GOLDEN_STREAM = (
    "philox4x64-10 key=SeedSequence(master).generate_state(2); "
    "path: counter=[0, 0, index, 0], ziggurat normals; "
    "fixed-width row of s normals: the first s words w of the blocks after "
    "counter=[B*index mod 2^64, B*index div 2^64, 0, 1], B=ceil(s/4), "
    "each ndtri(((w >> 11) + 0.5) * 2^-53)"
)


def _with_versions(golden: str) -> str:
    """The golden envelope with the stream scheme and this interpreter's
    library versions filled in."""
    golden = golden.replace('"@stream@"', json.dumps(GOLDEN_STREAM))
    for name, version in (
        ("numpy", np.__version__),
        ("scipy", scipy.__version__),
        ("python", platform.python_version()),
    ):
        golden = golden.replace(f'"@{name}@"', f'"{version}"')
    return golden


def test_codecs_emit_golden_bytes():
    # pins the emitted byte format, not just the round trip
    table = AggregateTable(
        ("eps", "eps_pair_low", "mean"), ((0.08, None, 1.5), (0.04, 0.02, 0.1 + 0.2))
    )
    reports = [
        SuiteReport("claim-a", "pass", (1.0 / 3.0,), (0.25,), 0.1, 0.01, 2.5),
        SuiteReport("claim-b", "fail", (-1e-12, 2.0), (0.0, 0.0), 1e-9),
    ]
    assert table_to_csv(table) == GOLDEN_TABLE_CSV
    assert table_to_json(table, {"k": 1}, "v") == _with_versions(GOLDEN_TABLE_JSON)
    assert reports_to_csv(reports) == GOLDEN_REPORTS_CSV
    golden_reports = _with_versions(GOLDEN_REPORTS_JSON)
    assert reports_to_json(reports, {"command": "verify"}, "9.9.9") == golden_reports


def test_report_status_logic():
    assert two_sided_report("x", 1.0, 1.05, 0.1).status == "pass"
    assert two_sided_report("x", 1.0, 1.5, 0.1).status == "fail"
    assert two_sided_report("x", 1.0, 1.5, 0.1, standard_error=0.2).status == "pass"
    assert two_sided_report("x", 1.0, 1.5, 0.1, insufficient=True).status == (
        "insufficient-power"
    )
    assert bound_report("x", -1e-12, 1e-9).status == "pass"
    assert bound_report("x", -1e-6, 1e-9).status == "fail"
    # a bound with no slack checks nothing, so it is no pass
    empty = bound_report("x", (), 1e-9)
    assert empty.status == "insufficient-power"
    assert empty.observed == empty.expected == ()


def test_cli_config_error_exit_code(capsys):
    rc = main(["verify", "--eps", "0.1,0.2"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_bad_flag_exits_two(capsys):
    bad = (["verify", "--format", "xml"], ["explode"], ["localtime", "--process", "poisson"])
    # the block commands are gone; their rows are rows of verify
    unknown = (["spectral", "--reps", "50"], ["gram"], ["moments", "--reps", "50"])
    # a flag the command does not read is refused, not ignored
    removed = (
        ["simulate", "--eps", "0.5"],
        ["verify", "--z", "0"],
        ["verify", "--process", "bridge"],
    )
    for argv in bad + unknown + removed:
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        # the usage printed is the one that lists the flags the command takes
        usage = capsys.readouterr().err.splitlines()[0]
        command = argv[0] if argv[0] in cli.COMMAND_FLAGS else "[-h] {"
        assert usage.startswith(f"usage: heatlocal {command}")


def _verify_only(monkeypatch, block: str) -> list[str]:
    """Leave the claims of ``block`` the only ones verify runs; return their ids."""
    claims = tuple(c for c in verify.CLAIMS if c.block == block)
    monkeypatch.setattr(verify, "CLAIMS", claims)
    return [c.claim_id for c in claims]


def test_cli_moments_subset_csv(monkeypatch, capsys):
    ids = _verify_only(monkeypatch, "moments")
    rc = main(["verify", "--reps", "50"])
    captured = capsys.readouterr()
    assert rc == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0][0] == "claim_id"
    assert [r[0] for r in rows[1:]] == ids
    assert "conditional-moment-identity" in ids
    assert all(r[1] in ("pass", "insufficient-power") for r in rows[1:])


def test_cli_writes_json_file(tmp_path, monkeypatch):
    ids = _verify_only(monkeypatch, "gram")
    out = tmp_path / "gram.json"
    rc = main(["verify", "--format", "json", "--out", str(out)])
    assert rc == 0
    reports, cfg, version = reports_from_json(out.read_text())
    assert [r.claim_id for r in reports] == ids
    assert len(reports) == 5
    # every flag verify takes, at its default, but --jobs
    assert cfg == {
        "command": "verify",
        "interval": [0.0, 2.0],
        "grid_points": 8192,
        "epsilon_schedule": [0.08, 0.04, 0.02, 0.01, 0.005],
        "replicates": 50_000,
        "master_seed": 0,
    }
    assert version


def _forbid_verify_all(monkeypatch) -> list:
    calls = []

    def suite(config):
        calls.append(config)
        raise AssertionError("the suite must not run")

    monkeypatch.setattr(cli, "verify_all", suite)
    return calls


def _assert_one_line_output_error(capsys) -> None:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("output error")


def test_cli_out_into_missing_directory_exits_two_before_any_work(
    tmp_path, monkeypatch, capsys
):
    calls = _forbid_verify_all(monkeypatch)
    out = tmp_path / "missing" / "x.csv"
    rc = main(["verify", "--out", str(out)])
    assert rc == 2
    assert calls == []
    _assert_one_line_output_error(capsys)
    assert not out.parent.exists()


def test_cli_unwritable_out_exits_two(tmp_path, monkeypatch, capsys):
    # the directory exists, but the path itself is a directory
    calls = _forbid_verify_all(monkeypatch)
    rc = main(["verify", "--out", str(tmp_path)])
    assert rc == 2
    assert calls == []
    _assert_one_line_output_error(capsys)


def test_cli_empty_out_exits_two_before_any_work(tmp_path, monkeypatch, capsys):
    # "" resolves to the working directory, which cannot be renamed over
    calls = _forbid_verify_all(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--out", ""]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.splitlines() == [f"output error: --out '' is the directory {os.getcwd()}"]
    assert os.listdir(tmp_path) == []


def test_cli_out_in_unwritable_directory_exits_two_before_any_work(
    tmp_path, monkeypatch, capsys
):
    calls = _forbid_verify_all(monkeypatch)
    # permission bits do not bind every user, so deny the directory directly;
    # the output is renamed into it, so an existing writable file is refused too
    monkeypatch.setattr(cli.os, "access", lambda path, mode: path != str(tmp_path))
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("old\n")
    for out in (new, old):
        rc = main(["verify", "--out", str(out)])
        assert rc == 2
        assert calls == []
        _assert_one_line_output_error(capsys)
    assert not new.exists()
    assert old.read_text() == "old\n"


_SMALL_SIMULATE = ["simulate", "--process", "bridge", "--reps", "4", "--grid", "64"]


def test_cli_failed_write_keeps_the_old_file_and_leaves_no_temp_file(
    tmp_path, monkeypatch, capsys
):
    out = tmp_path / "x.csv"
    out.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    rc = main(_SMALL_SIMULATE + ["--out", str(out)])
    assert rc == 2
    _assert_one_line_output_error(capsys)
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["x.csv"]


@pytest.mark.parametrize(
    "argv, builder",
    ((["verify"], "verify_all"), (_SMALL_SIMULATE, "_simulate_table")),
    ids=("verify", "simulate"),
)
def test_cli_out_with_a_trailing_separator_exits_two_before_any_work(
    argv, builder, tmp_path, monkeypatch, capsys
):
    # "newdir/" names a directory that is not there; it must not become a
    # file called newdir
    monkeypatch.setattr(cli, builder, no_sampling)
    rc = main(argv + ["--out", str(tmp_path / "newdir") + os.sep])
    assert rc == 2
    _assert_one_line_output_error(capsys)
    assert os.listdir(tmp_path) == []


def test_cli_out_replaces_a_file_with_a_plain_open_mode(tmp_path, capsys):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    with open(tmp_path / "plain", "w"):
        pass
    old.write_text("old\n")
    old.chmod(0o640)
    for out in (new, old):
        assert main(_SMALL_SIMULATE + ["--out", str(out)]) == 0
        assert out.read_text().startswith("u,mean,")
    assert new.stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert old.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["new.csv", "old.csv", "plain"]


def test_cli_simulate_table(capsys):
    rc = main(
        [
            "simulate",
            "--process",
            "motion",
            "--reps",
            "400",
            "--grid",
            "64",
            "--seed",
            "2",
        ]
    )
    assert rc == 0
    table = table_from_csv(capsys.readouterr().out)
    assert table.columns == ("u", "mean", "stderr", "m2", "m3", "m4")
    us = [r[0] for r in table.rows]
    assert us[0] == 0.0 and us[-1] == 1.0
    # second moment of w(u) tracks u; SE of m2 is about u*sqrt(2/n)
    for row in table.rows[1:]:
        u, m2 = row[0], row[3]
        assert abs(m2 - u) < 5.0 * u * np.sqrt(2.0 / 400.0)


def test_cli_json_is_byte_identical_across_jobs_and_records_provenance(tmp_path):
    # more than one chunk, so jobs 2 runs a pool
    argv = ["localtime", "--process", "bridge", "--reps", str(2 * CHUNK + 1), "--grid", "1024",
            "--eps", "0.08,0.04", "--format", "json"]
    texts = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.json"
        assert main(argv + ["--jobs", str(jobs), "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    payload = json.loads(texts[0])
    assert payload["provenance"] == provenance()


@st.composite
def _table_argv(draw):
    """A simulate or localtime run: process, interval, grid, schedule, replicates, z."""
    command = draw(st.sampled_from(("simulate", "localtime")))
    process = draw(st.sampled_from(mc.PROCESSES))
    n = draw(st.integers(65, 1025))
    # up to three chunks, so the pool folds chunks that finish in any order
    reps = draw(st.one_of(st.integers(1, 2100), st.integers(2 * CHUNK + 1, 2100)))
    argv = [command, "--process", process, "--grid", str(n), "--reps", str(reps),
            "--seed", str(draw(st.integers(0, 2**64 - 1))), "--format", "json"]
    lo, hi = 0.0, 1.0
    if process == "heat":
        lo = draw(st.floats(-3.0, 3.0))
        hi = lo + draw(st.floats(0.1, 5.0))
        argv += ["--interval", repr(lo), repr(hi)]
    if command == "localtime":
        # the smallest bandwidth 1 to 4 floors up; each larger one is twice
        # the next (dyadic) or a drawn multiple of it
        eps = [bandwidth_floor(hi - lo, n) * draw(st.floats(1.0, 4.0))]
        dyadic = draw(st.booleans())
        for _ in range(draw(st.integers(0, 3))):
            eps.insert(0, eps[0] * (2.0 if dyadic else draw(st.floats(1.1, 4.0))))
        argv += ["--eps", ",".join(map(repr, eps)), "--z", repr(draw(st.floats(-1.0, 1.0)))]
    return argv


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(argv=_table_argv())
def test_cli_table_json_is_byte_identical_at_one_and_two_jobs(argv):
    texts = []
    for jobs in (1, 2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv + ["--jobs", str(jobs)]) == 0, err.getvalue()
        texts.append(out.getvalue())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("spelling", ("-1e-1", "-1E-1", "-0.01e+1", "-0.01E+1"))
@pytest.mark.parametrize(
    "argv",
    (
        ["localtime", "--process", "bridge", "--grid", "64", "--eps", "0.5", "--z", "{}"],
        ["simulate", "--grid", "64", "--interval", "{}", "2"],
    ),
    ids=("z", "interval"),
)
def test_cli_reads_a_negative_float_in_exponent_notation_as_a_value(argv, spelling, capsys):
    texts = []
    for value in ("-0.1", spelling):
        run = [value if a == "{}" else a for a in argv] + ["--reps", "4", "--format", "json"]
        assert main(run) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


def test_cli_localtime_table(tmp_path, capsys):
    rc = main(
        [
            "localtime",
            "--process",
            "bridge",
            "--reps",
            "40",
            "--grid",
            "1024",
            "--eps",
            "0.08,0.04",
        ]
    )
    assert rc == 0
    table = table_from_csv(capsys.readouterr().out)
    assert table.columns[0] == "eps"
    assert len(table.rows) == 3  # two bandwidths plus one gap row
    assert table.rows[0][1] is None
    assert table.rows[2][1] == 0.04


# sha256 of the `aggregate` object of `localtime --format json` at grid 1024,
# seed 3 and 1100 replicates (a whole chunk, then a partial one that ends in
# a partial batch), recorded before the local-time tasks had block forms
_LOCALTIME_DIGESTS = {
    ("heat", "--eps", "0.08,0.04,0.02,0.01"):
        "8e9997ef7ee4f51239343ed2c9bb99d8d22e44d67e20d80ab18ae66a87ef6242",
    ("bridge",): "9a515bf3d174310a8ad28df00b07e03f8ddd285a34c690a14dbf700645e19219",
    ("motion",): "ddab25df36309749bb68eb9e24b5387c7f2829ee232649a34b2731d8d05a14fd",
    ("motion", "--z", "0.3"):
        "51f6d81878b406284135d2637fa0f75858401130ed1e8f7b7dfed72ad633841c",
}


@pytest.mark.parametrize("flags", _LOCALTIME_DIGESTS, ids=" ".join)
def test_cli_localtime_aggregate_keeps_its_golden_bytes(flags, capsys):
    argv = ["localtime", "--process", *flags, "--grid", "1024", "--reps", "1100",
            "--seed", "3", "--format", "json"]
    assert main(argv) == 0
    aggregate = json.loads(capsys.readouterr().out)["aggregate"]
    digest = hashlib.sha256(json.dumps(aggregate, sort_keys=True).encode()).hexdigest()
    assert digest == _LOCALTIME_DIGESTS[flags]


def test_every_local_time_task_has_a_block_form(monkeypatch, tmp_path):
    # a task without one would run one replicate per call: the same bytes,
    # more slowly, so only a test can tell; every task that simulate,
    # localtime and verify build is checked
    tasks = []

    def recording_run(task, *args, **kwargs):
        tasks.append(task)
        return run_replicates(task, *args, **kwargs)

    monkeypatch.setattr(cli, "run_replicates", recording_run)
    monkeypatch.setattr(verify, "run_replicates", recording_run)
    for command in ("simulate", "localtime"):
        for process in PROCESSES:
            argv = [command, "--process", process, "--reps", "4", "--grid", "256",
                    "--out", str(tmp_path / "out.csv")]
            assert main(argv + (["--eps", "0.5,0.25"] if command == "localtime" else [])) == 0
    cfg = RunConfig(replicates=4, grid_points=1024, epsilon_schedule=(0.08, 0.04))
    verify.verify_all(cfg)
    # qf-mc, sim-path, sim-sheet and the bridge and heat families; the
    # heat family's two levels are each a task
    assert len(tasks) == 2 * len(PROCESSES) + 5
    tasks = [t for task in tasks for t in getattr(task, "tasks", (task,))]
    assert len(tasks) == 2 * len(PROCESSES) + 6
    assert all(mc._block_form(task) is not None for task in tasks)


def test_cli_fault_injection_fails_integrator(inflated_quadratic_form, monkeypatch, capsys):
    ids = _verify_only(monkeypatch, "spectral")
    rc = main(["verify", "--reps", "50"])
    captured = capsys.readouterr()
    assert rc == 1
    rows = list(csv.reader(io.StringIO(captured.out)))
    by_id = {r[0]: r[1] for r in rows[1:]}
    assert list(by_id) == ids
    assert by_id["integrator-upper-bound-sweep"] == "fail"
    assert by_id["convolution-upper-bound-sweep"] == "pass"
    assert "first failing claim: integrator-upper-bound-sweep" in captured.err


def test_cli_verify_nonzero_level_exits_two_before_any_work(forbid_in_verify, capsys):
    # verify checks level 0 only, so it takes no --z
    forbid_in_verify("run_replicates", "spectral_reports", "localtime_reports")
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--z", "0.5", "--reps", "50", "--grid", "4096"])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err.strip().endswith("unrecognized arguments: --z 0.5")


_LOCALTIME_ARGV = ["localtime", "--process", "bridge", "--reps", "2048", "--grid", "256",
                   "--eps", "0.08", "--jobs", "2"]


def _assert_one_line_error(capsys, name: str) -> None:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {name}")


def test_cli_dead_worker_exits_two(monkeypatch, capsys):
    # a worker that dies takes the pool down: a run error, not a failed claim
    monkeypatch.setattr(cli, "local_time_replicate", dying_task)
    assert main(_LOCALTIME_ARGV) == 2
    _assert_one_line_error(capsys, "BrokenProcessPool")


def test_cli_parent_memory_error_exits_two(monkeypatch, capsys):
    def out_of_memory(task, config):
        raise MemoryError("cannot allocate the aggregate")

    monkeypatch.setattr(cli, "run_replicates", out_of_memory)
    assert main(_LOCALTIME_ARGV) == 2
    _assert_one_line_error(capsys, "MemoryError")


@pytest.mark.parametrize(
    "argv",
    (
        ["verify", "--eps", "nan", "--reps", "2", "--grid", "1024"],
        ["localtime", "--process", "bridge", "--eps", "nan"],
        ["localtime", "--eps", "inf,0.5"],
        ["simulate", "--interval", "0", "inf"],
        ["localtime", "--z", "-inf"],
        ["localtime", "--z", "-Infinity"],
        ["localtime", "--z", "-NaN"],
        ["simulate", "--interval", "-INF", "1"],
        ["simulate", "--process", "heat", "--interval", "-1e308", "1e308", "--grid", "64",
         "--reps", "3"],
    ),
)
def test_cli_non_finite_input_is_a_configuration_error(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_replicates", no_sampling)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("configuration error:")


def test_cli_non_finite_aggregate_is_an_error(tmp_path, capsys):
    # every V is near 4e149 at this bandwidth, so its third and fourth
    # power sums overflow: a run error, not a table of inf moments
    out = tmp_path / "lt.csv"
    argv = ["localtime", "--process", "heat", "--interval", "0", "1e300", "--grid", "64",
            "--reps", "3", "--eps", "1e300", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: the aggregate of 3 replicates is not finite")
    assert not out.exists() and list(tmp_path.iterdir()) == []


def test_cli_huge_heat_interval_runs_without_runtime_warnings():
    # lags near 3e299 reach covariance_R, whose Gaussian term reads them clamped
    src = str(Path(mc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = ["simulate", "--process", "heat", "--interval", "0", "1e300", "--grid", "4",
            "--reps", "3"]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "heatlocal.cli", *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 5


def _small_run(command: str, process: str) -> list[str]:
    # a bandwidth above the floor of 64 points, so only the tested flag can refuse
    argv = [command, "--process", process, "--grid", "64", "--reps", "4"]
    return argv + (["--eps", "0.5"] if command == "localtime" else [])


@pytest.mark.parametrize("command", ("simulate", "localtime"))
@pytest.mark.parametrize("process", ("bridge", "motion"))
def test_cli_interval_of_bridge_or_motion_is_a_configuration_error(
    command, process, monkeypatch, capsys
):
    # both run on (0, 1) whatever --interval says, so the flag is refused
    monkeypatch.setattr(cli, "run_replicates", no_sampling)
    assert main(_small_run(command, process) + ["--interval", "0", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("configuration error:")


@pytest.mark.parametrize("command", ("simulate", "localtime"))
@pytest.mark.parametrize("process", ("bridge", "motion"))
def test_cli_json_records_the_interval_bridge_and_motion_run_on(command, process, capsys):
    assert main(_small_run(command, process) + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["interval"] == [0.0, 1.0]


def test_cli_simulate_smooths_nothing_so_has_no_bandwidth_floor(capsys):
    # the default schedule's 0.005 is below the floor 0.127 of 64 points on
    # (0, 2), which simulate never reads
    assert main(["simulate", "--process", "bridge", "--grid", "64", "--reps", "4"]) == 0
    assert capsys.readouterr().out.startswith("u,mean,")


def test_cli_localtime_below_the_floor_exits_two_before_sampling(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_replicates", no_sampling)
    assert main(["localtime", "--grid", "64", "--reps", "4"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("configuration error:")
    assert "floor" in err


# a value of every RunConfig field other than the base config's
_OTHER_FIELDS = dict(
    interval=(0.0, 3.0),
    grid_points=2048,
    epsilon_schedule=(0.5, 0.25),
    replicates=8,
    master_seed=4,
    jobs=2,
    z=0.25,
    process="motion",
)


def _command_output_digest(command: str, config: RunConfig) -> str:
    # a digest, since a failed comparison of two long texts is slow to explain
    if command == "simulate":
        text = table_to_csv(cli._simulate_table(config))
    else:
        reports = cli.verify_all(config)
        for r in reports:
            r.runtime_ms = 0.0
        text = reports_to_csv(reports)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", ("simulate", "verify"))
def test_fields_without_a_flag_leave_the_command_output_unchanged(command):
    # localtime takes every flag; verify refuses a nonzero z rather than
    # ignoring it, so its z stays at 0
    taken = cli.config_fields(command)
    other = {k: v for k, v in _OTHER_FIELDS.items() if k not in taken}
    if command == "verify":
        del other["z"]
    assert other
    base = dict(replicates=4, grid_points=4096, master_seed=3)
    changed = {**base, **other}
    first = _command_output_digest(command, RunConfig(**base))
    assert _command_output_digest(command, RunConfig(**changed)) == first


def test_readme_flag_table_matches_the_parser():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            command, flags = line.split("|")[1:3]
            documented[command.strip(" `")] = set(re.findall(r"--[a-z]+", flags))
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    common = {"-h", "--help", "--out", "--format"}
    taken = {
        command: {s for a in p._actions for s in a.option_strings} - common
        for command, p in sub.choices.items()
    }
    assert documented == taken
