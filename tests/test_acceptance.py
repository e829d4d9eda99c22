"""Full-scale acceptance gate.

Runs the complete claim suite through the CLI at production scale
(50k replicates, grid 8192, seed 42), once serially and once with 16
workers, then checks each acceptance property against the emitted
reports: exact formulas, inequality sweeps, dual-route agreements,
standard-error bands, strict Cauchy monotonicity, and byte-identical
reproducibility across worker counts.  Every test here reads real
emitted output; nothing is mocked and no tolerance is looser than the
one stated with the property.
"""

import csv
import io
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from heatlocal.local_time import (
    bridge_moment_exact,
    conditional_moment,
    levy_density_normalization,
)
from heatlocal.mc import RunConfig
from heatlocal.reports import reports_from_csv

pytestmark = pytest.mark.acceptance

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

# quadrature oracles for the smoothed means at eps = 0.005, frozen from
# an independent integration of (2 pi (var(s) + eps))^(-1/2)
BRIDGE_MEAN = 1.1412195733345734
HEAT_SHORT_MEAN = 1.2045249930389397
HEAT_LONG_MEAN = 2.338453125812679
BRIDGE_SECOND_MOMENT = 1.56580217204479


@dataclass
class GateRun:
    returncode: int
    csv_text: str
    elapsed: float


def _run_verify(jobs: int, out_path) -> GateRun:
    cmd = [
        sys.executable,
        "-m",
        "heatlocal.cli",
        "verify",
        "--seed",
        "42",
        "--jobs",
        str(jobs),
        "--out",
        str(out_path),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, f"verify --jobs {jobs} failed:\n{proc.stderr[-2000:]}"
    return GateRun(proc.returncode, out_path.read_text(), elapsed)


@pytest.fixture(scope="module")
def gate(tmp_path_factory):
    base = tmp_path_factory.mktemp("gate")
    serial = _run_verify(1, base / "serial.csv")
    parallel = _run_verify(16, base / "parallel.csv")
    reports = {r.claim_id: r for r in reports_from_csv(serial.csv_text)}
    return serial, parallel, reports


def _dev(report) -> float:
    return max(abs(o - e) for o, e in zip(report.observed, report.expected))


def test_exact_formula_suite_is_fast_and_tight(gate):
    t0 = time.perf_counter()
    for k in range(1, 13):
        exact = bridge_moment_exact(k)
        assert abs(conditional_moment(k) - exact) <= 1e-6 * exact
    assert abs(levy_density_normalization() - 1.0) <= 1e-8
    assert time.perf_counter() - t0 < 1.0
    _, _, reports = gate
    assert reports["conditional-moment-identity"].status == "pass"
    assert reports["levy-density-normalization"].status == "pass"


def test_integrator_bound_sweeps_hold(gate):
    _, _, reports = gate
    for claim in ("integrator-upper-bound-sweep", "coercivity-lower-bound-sweep"):
        r = reports[claim]
        assert r.status == "pass"
        assert min(r.observed) >= -1e-8, claim


def test_gram_identities_and_margins(gate):
    _, _, reports = gate
    r = reports["gram-projection-sweep"]
    assert r.status == "pass" and _dev(r) <= 1e-8
    r = reports["invertible-gram-sweep"]
    assert r.status == "pass" and min(r.observed) >= -1e-10
    r = reports["gram-indicator-discretization"]
    assert r.status == "pass" and _dev(r) <= 1e-6


def test_simplex_route_reproduces_bridge_moments(gate):
    _, _, reports = gate
    for k, rel in ((1, 1e-6), (2, 1e-4)):
        r = reports[f"bridge-moment-simplex-k{k}"]
        assert r.status == "pass"
        assert _dev(r) <= rel * bridge_moment_exact(k)
    r = reports["bridge-moment-simplex-k3"]
    assert r.status == "pass"
    assert _dev(r) <= 3.0 * r.standard_error


def test_covariance_dual_route_and_simulator_agreement(gate):
    _, _, reports = gate
    assert RunConfig().replicates == 50_000  # 4x paths, 1/5 sheets
    r = reports["covariance-closed-form"]
    assert r.status == "pass" and r.observed[0] <= 1e-8
    r = reports["simulator-agreement"]
    assert r.status == "pass" and r.observed[0] <= 4.0


def test_smoothed_mean_identities_both_processes(gate):
    _, _, reports = gate
    cfg = RunConfig()
    assert cfg.grid_points == 8192 and cfg.epsilon_schedule[-1] == 0.005

    r = reports["local-time-mean-bridge"]
    assert r.expected[0] == pytest.approx(BRIDGE_MEAN, rel=1e-10)
    assert _dev(r) <= 3.0 * r.standard_error

    r = reports["bridge-mean-value"]
    assert r.expected[0] == pytest.approx(SQRT_HALF_PI, rel=1e-12)
    assert _dev(r) <= 0.05 * SQRT_HALF_PI

    r = reports["local-time-mean-heat-short"]
    assert r.expected[0] == pytest.approx(HEAT_SHORT_MEAN, rel=1e-10)
    assert _dev(r) <= 3.0 * r.standard_error

    r = reports["local-time-mean-heat-long"]
    assert r.expected[0] == pytest.approx(HEAT_LONG_MEAN, rel=1e-10)
    assert _dev(r) <= 3.0 * r.standard_error


def test_second_moment_band_and_value(gate):
    _, _, reports = gate
    r = reports["bridge-second-moment"]
    assert r.expected[0] == pytest.approx(BRIDGE_SECOND_MOMENT, rel=1e-10)
    assert _dev(r) <= 4.0 * r.standard_error
    r = reports["bridge-second-moment-value"]
    assert r.expected[0] == pytest.approx(2.0, rel=1e-12)
    assert _dev(r) <= 0.10 * 2.0


def test_bandwidth_gaps_strictly_decreasing(gate):
    _, _, reports = gate
    for claim in (
        "cauchy-monotone-bridge",
        "cauchy-monotone-heat-short",
        "cauchy-monotone-heat-long",
    ):
        r = reports[claim]
        assert r.status == "pass"
        assert all(s > 0.0 for s in r.observed), claim


def test_reports_byte_identical_across_jobs_and_in_budget(gate):
    serial, parallel, reports = gate
    rows_s = list(csv.reader(io.StringIO(serial.csv_text)))
    rows_p = list(csv.reader(io.StringIO(parallel.csv_text)))
    assert rows_s[0] == rows_p[0]
    assert rows_s[0][-1] == "runtime_ms"
    # identical to the byte once the timing column is dropped
    assert [r[:-1] for r in rows_s] == [r[:-1] for r in rows_p]
    assert all(r.status == "pass" for r in reports.values())

    # stated wall budget assumes 8 cores; scale it when fewer are present
    cores = os.cpu_count() or 1
    budget = 900.0 if cores >= 8 else 900.0 * 8.0 / cores
    assert min(serial.elapsed, parallel.elapsed) < budget
