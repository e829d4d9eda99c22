"""Monte Carlo engine determinism, codecs, config validation, CLI."""

import csv
import io
import os
import pickle
from functools import partial

import numpy as np
import pytest

from heatlocal import cli
from heatlocal.cli import main
from heatlocal.errors import ConfigError, ReplicateFailure
from heatlocal.heat_model import path_increment_replicate, sheet_increment_replicate
from heatlocal.local_time import local_time_replicate, motion_endpoint_replicate
from heatlocal.mc import CHUNK, MCResult, RunConfig, config_dict, run_replicates
from heatlocal.reports import (
    AggregateTable,
    SuiteReport,
    bound_report,
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


def failing_task(seed):
    if seed.replicate_index == 7:
        raise ValueError("boom")
    return np.array([0.0])


def dying_task(seed, **kwargs):
    os._exit(3)


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
# a 257-point grid resolves the schedule on (0, 2) and the extra bandwidth on (0, 1)
_PATHS = dict(n=257, z=0.0, schedule=(0.08, 0.04))


@pytest.mark.parametrize("replicates", (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1))
@pytest.mark.parametrize(
    "route",
    (
        partial(path_increment_replicate, **_INCREMENTS),
        partial(sheet_increment_replicate, **_INCREMENTS),
        partial(local_time_replicate, process_tag="heat", interval=(0.0, 2.0), **_PATHS),
        partial(local_time_replicate, process_tag="bridge", interval=(0.0, 1.0), **_PATHS),
        partial(local_time_replicate, process_tag="motion", interval=(0.0, 1.0), **_PATHS),
        partial(motion_endpoint_replicate, n=257, z=0.0, extra_eps=0.02),
    ),
)
def test_increment_routes_raw_bytes_identical_across_jobs(route, replicates):
    kwargs = dict(replicates=replicates, master_seed=29, return_raw=True)
    serial = run_replicates(route, jobs=1, **kwargs)
    parallel = run_replicates(route, jobs=2, **kwargs)
    assert serial.raw.shape[0] == replicates
    assert serial.raw.tobytes() == parallel.raw.tobytes()


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
    with pytest.raises(ReplicateFailure) as exc_info:
        run_replicates(failing_task, replicates=20, master_seed=0, jobs=2)
    assert exc_info.value.replicate_index == 7
    rt = pickle.loads(pickle.dumps(exc_info.value))
    assert rt.replicate_index == 7


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
        dict(command="explode"),
        dict(interval=(1.0, 1.0)),
        dict(grid_points=1),
        dict(replicates=0),
        dict(jobs=0),
        dict(master_seed=-1),
        dict(epsilon_schedule=()),
        dict(epsilon_schedule=(0.1, 0.1)),
        dict(epsilon_schedule=(0.01, 0.05)),
        dict(epsilon_schedule=(-0.1,)),
        dict(epsilon_schedule=(1e-7,)),
        dict(output_format="yaml"),
        dict(process="poisson"),
    ],
)
def test_config_rejections(overrides):
    with pytest.raises(ConfigError):
        RunConfig(**overrides)


def test_bandwidth_floor_scales_with_interval():
    ok = RunConfig(interval=(0.0, 2.0), grid_points=8192)
    assert ok.bandwidth_floor == pytest.approx(8.0 / 8191)
    with pytest.raises(ConfigError):
        RunConfig(interval=(0.0, 60.0))


def test_config_dict_excludes_execution_only_fields():
    cfg = RunConfig(jobs=8, output_path="x.csv", output_format="json")
    d = config_dict(cfg)
    assert "jobs" not in d and "output_path" not in d and "output_format" not in d
    assert d["replicates"] == 50_000
    assert tuple(d["epsilon_schedule"]) == cfg.epsilon_schedule


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
    cfg = RunConfig()
    reports = [two_sided_report("claim-c", (1.0, 2.0), (1.0, 2.0), 1e-6)]
    text = reports_to_json(reports, config_dict(cfg), "9.9.9")
    back, cfg_d, version = reports_from_json(text)
    assert back == reports
    assert version == "9.9.9"
    assert cfg_d["command"] == "verify"


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
  "version": "9.9.9"
}
"""


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
    assert table_to_json(table, {"k": 1}, "v") == GOLDEN_TABLE_JSON
    assert reports_to_csv(reports) == GOLDEN_REPORTS_CSV
    assert reports_to_json(reports, {"command": "verify"}, "9.9.9") == GOLDEN_REPORTS_JSON


def test_report_status_logic():
    assert two_sided_report("x", 1.0, 1.05, 0.1).status == "pass"
    assert two_sided_report("x", 1.0, 1.5, 0.1).status == "fail"
    assert two_sided_report("x", 1.0, 1.5, 0.1, standard_error=0.2).status == "pass"
    assert two_sided_report("x", 1.0, 1.5, 0.1, insufficient=True).status == (
        "insufficient-power"
    )
    assert bound_report("x", -1e-12, 1e-9).status == "pass"
    assert bound_report("x", -1e-6, 1e-9).status == "fail"


def test_cli_config_error_exit_code(capsys):
    rc = main(["verify", "--eps", "0.1,0.2"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_bad_flag_exits_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--format", "xml"])
    assert exc_info.value.code == 2


def test_cli_moments_subset_csv(capsys):
    rc = main(["moments", "--reps", "50", "--grid", "4096"])
    captured = capsys.readouterr()
    assert rc == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0][0] == "claim_id"
    ids = [r[0] for r in rows[1:]]
    assert "conditional-moment-identity" in ids
    assert all(r[1] in ("pass", "insufficient-power") for r in rows[1:])


def test_cli_writes_json_file(tmp_path):
    out = tmp_path / "gram.json"
    rc = main(
        ["gram", "--reps", "50", "--grid", "4096", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    reports, cfg, version = reports_from_json(out.read_text())
    assert len(reports) == 5
    assert cfg["command"] == "gram"
    assert version


def _forbid_gram_block(monkeypatch) -> list:
    calls = []

    def block(config):
        calls.append(config)
        raise AssertionError("the block must not run")

    monkeypatch.setitem(cli._REPORT_COMMANDS, "gram", block)
    return calls


def _assert_one_line_output_error(capsys) -> None:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("output error")


def test_cli_out_into_missing_directory_exits_two_before_any_work(
    tmp_path, monkeypatch, capsys
):
    calls = _forbid_gram_block(monkeypatch)
    out = tmp_path / "missing" / "x.csv"
    rc = main(["gram", "--reps", "50", "--grid", "4096", "--out", str(out)])
    assert rc == 2
    assert calls == []
    _assert_one_line_output_error(capsys)
    assert not out.parent.exists()


def test_cli_unwritable_out_exits_two(tmp_path, monkeypatch, capsys):
    # the directory exists, but the path itself is a directory
    calls = _forbid_gram_block(monkeypatch)
    rc = main(["gram", "--reps", "50", "--grid", "4096", "--out", str(tmp_path)])
    assert rc == 2
    assert calls == []
    _assert_one_line_output_error(capsys)


def test_cli_out_in_unwritable_directory_exits_two_before_any_work(
    tmp_path, monkeypatch, capsys
):
    calls = _forbid_gram_block(monkeypatch)
    # permission bits do not bind every user, so deny access directly
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / "x.csv"
    rc = main(["gram", "--reps", "50", "--grid", "4096", "--out", str(out)])
    assert rc == 2
    assert calls == []
    _assert_one_line_output_error(capsys)
    assert not out.exists()


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
            "--eps",
            "0.08",
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


def test_cli_fault_injection_fails_integrator(inflated_quadratic_form, capsys):
    rc = main(["spectral", "--reps", "50", "--grid", "4096"])
    captured = capsys.readouterr()
    assert rc == 1
    rows = list(csv.reader(io.StringIO(captured.out)))
    by_id = {r[0]: r[1] for r in rows[1:]}
    assert by_id["integrator-upper-bound-sweep"] == "fail"
    assert by_id["convolution-upper-bound-sweep"] == "pass"
    assert "first failing claim: integrator-upper-bound-sweep" in captured.err


def test_cli_verify_nonzero_level_exits_two_before_any_work(forbid_in_verify, capsys):
    forbid_in_verify("run_replicates", "spectral_reports", "localtime_reports")
    rc = main(["verify", "--z", "0.5", "--reps", "50", "--grid", "4096"])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("configuration error:")


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
