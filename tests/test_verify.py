"""End-to-end checks of the claim suite at reduced replicate counts."""

import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from heatlocal import cli, heat_model, local_time, verify
from heatlocal.errors import ConfigError
from heatlocal.grids import SpatialGrid
from heatlocal.gram import bridge_moment_from_simplex, gram_det
from heatlocal.heat_model import build_sheet_operator, covariance_R, sheet_variance_bias
from heatlocal.mc import RunConfig
from heatlocal.verify import (
    CLAIMS,
    covariance_reports,
    exit_code,
    first_failure,
    gram_reports,
    localtime_reports,
    moment_reports,
    spectral_reports,
    verify_all,
)

CLAIM_ORDER = (
    "integrator-upper-bound-sweep",
    "coercivity-lower-bound-sweep",
    "convolution-upper-bound-sweep",
    "spectral-dual-route",
    "form-eigenvalue-floor",
    "form-eigenvalue-monotone",
    "quadratic-form-mc",
    "gram-projection-sweep",
    "invertible-gram-sweep",
    "gram-indicator-discretization",
    "basis-extension-ratio",
    "simplex-partition-additivity",
    "bridge-moment-simplex-k1",
    "bridge-moment-simplex-k2",
    "bridge-moment-simplex-k3",
    "conditional-moment-identity",
    "levy-density-normalization",
    "covariance-closed-form",
    "simulator-agreement",
    "sheet-variance-bias",
    "local-time-mean-bridge",
    "bridge-mean-value",
    "local-time-mean-heat-short",
    "local-time-mean-heat-long",
    "bridge-second-moment",
    "bridge-second-moment-value",
    "second-moment-monotone",
    "motion-endpoint-moments",
    "levy-conditional-mean",
    "levy-conditional-value",
    "cauchy-monotone-bridge",
    "cauchy-monotone-heat-short",
    "cauchy-monotone-heat-long",
)

# claims whose outcome does not depend on sampled replicates
DETERMINISTIC_CLAIMS = frozenset(
    (
        "integrator-upper-bound-sweep",
        "coercivity-lower-bound-sweep",
        "convolution-upper-bound-sweep",
        "spectral-dual-route",
        "form-eigenvalue-floor",
        "form-eigenvalue-monotone",
        "gram-projection-sweep",
        "invertible-gram-sweep",
        "gram-indicator-discretization",
        "basis-extension-ratio",
        "simplex-partition-additivity",
        "bridge-moment-simplex-k1",
        "bridge-moment-simplex-k2",
        "bridge-moment-simplex-k3",
        "conditional-moment-identity",
        "levy-density-normalization",
        "covariance-closed-form",
        "sheet-variance-bias",
        "second-moment-monotone",
    )
)


@pytest.fixture(scope="module")
def timed_small_suite():
    cfg = RunConfig(replicates=400, grid_points=4096, master_seed=42)
    t0 = time.perf_counter()
    reports = verify_all(cfg)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def small_suite(timed_small_suite):
    return timed_small_suite[0]


def test_claim_ids_and_order(small_suite):
    assert tuple(r.claim_id for r in small_suite) == CLAIM_ORDER


def test_small_scale_suite_all_pass(small_suite):
    failures = [r.claim_id for r in small_suite if r.status != "pass"]
    assert failures == []
    assert exit_code(small_suite) == 0
    assert first_failure(small_suite) is None


def test_reports_carry_runtimes(small_suite):
    assert all(r.runtime_ms >= 0.0 for r in small_suite)
    assert any(r.runtime_ms > 0.0 for r in small_suite)


def test_runtimes_account_for_the_wall_time(timed_small_suite):
    # every Monte Carlo family and quadrature runs inside some claim's timer
    reports, wall_s = timed_small_suite
    attributed_s = sum(r.runtime_ms for r in reports) / 1e3
    assert attributed_s >= 0.9 * wall_s


def test_failed_reports_are_out_of_tolerance(small_suite):
    # structural invariant: a pass status certifies the stated tolerance
    for r in small_suite:
        if r.standard_error is None:
            band = r.tolerance
        else:
            band = max(r.tolerance, 4.0 * r.standard_error)
        if r.status == "pass" and not np.all(np.asarray(r.expected) == 0.0):
            dev = max(abs(o - e) for o, e in zip(r.observed, r.expected))
            assert dev <= band + 1e-15


def test_single_replicate_marks_sampled_claims_insufficient():
    cfg = RunConfig(replicates=1, grid_points=4096, master_seed=7)
    reports = verify_all(cfg)
    for r in reports:
        if r.claim_id in DETERMINISTIC_CLAIMS:
            assert r.status == "pass", r.claim_id
        else:
            assert r.status == "insufficient-power", r.claim_id


def test_fault_injection_flips_only_the_integrator_claim(inflated_quadratic_form):
    cfg = RunConfig(replicates=50, grid_points=4096, master_seed=42)
    reports = spectral_reports(cfg)
    by_id = {r.claim_id: r.status for r in reports}
    assert by_id["integrator-upper-bound-sweep"] == "fail"
    del by_id["integrator-upper-bound-sweep"]
    assert set(by_id.values()) == {"pass"}
    assert exit_code(reports) == 1
    assert first_failure(reports) == "integrator-upper-bound-sweep"


def _failing_covariance_claims() -> set:
    cfg = RunConfig(replicates=4000, grid_points=4096, master_seed=42)
    reports = covariance_reports(cfg)
    assert [r.claim_id for r in reports] == list(CLAIM_ORDER[17:20])
    return {r.claim_id for r in reports if r.status != "pass"}


def test_doubled_sheet_bias_flips_only_the_bias_claim(monkeypatch):
    monkeypatch.setattr(verify, "sheet_variance_bias", lambda: 2.0 * sheet_variance_bias())
    assert _failing_covariance_claims() == {"sheet-variance-bias"}


def test_inflated_sheet_factor_flips_only_the_agreement_claim(monkeypatch):
    def inflated(points, interval):
        # a fresh operator, so the per-process cache is never corrupted
        op = build_sheet_operator(SpatialGrid(np.array(points), interval))
        op.factor = 1.2 * op.factor
        return op

    monkeypatch.setattr(heat_model, "_sheet_operator_cached", inflated)
    assert _failing_covariance_claims() == {"simulator-agreement"}


def _failing_claims(block, monkeypatch, name, corrupted) -> set:
    monkeypatch.setattr(verify, name, corrupted)
    reports = block(RunConfig(replicates=50, grid_points=4096, master_seed=42))
    return {r.claim_id for r in reports if r.status != "pass"}


def test_scaled_gram_determinant_flips_only_the_discretization_claim(monkeypatch):
    failing = _failing_claims(
        gram_reports, monkeypatch, "gram_det", lambda family: 1.01 * gram_det(family)
    )
    assert failing == {"gram-indicator-discretization"}


def test_scaled_simplex_moments_flip_only_the_simplex_claims(monkeypatch):
    def scaled(k, simplex_value):
        return 1.05 * bridge_moment_from_simplex(k, simplex_value)

    failing = _failing_claims(moment_reports, monkeypatch, "bridge_moment_from_simplex", scaled)
    assert failing == {f"bridge-moment-simplex-k{k}" for k in (1, 2, 3)}


def test_moment_rows_do_not_depend_on_the_replicates_or_the_seed():
    # the simplex integrals, k = 3 included, are quadratures, not samples
    rows = [
        [
            (r.claim_id, r.observed, r.expected, r.standard_error)
            for r in moment_reports(RunConfig(replicates=reps, grid_points=4096, master_seed=seed))
        ]
        for reps, seed in ((1, 7), (4000, 42))
    ]
    assert [row[0] for row in rows[0]] == list(CLAIM_ORDER[12:17])
    assert rows[0] == rows[1]


def _failing_localtime_claims(monkeypatch, name, corrupted) -> set:
    monkeypatch.setattr(local_time, name, corrupted)
    reports = localtime_reports(RunConfig(replicates=1000, grid_points=4096, master_seed=42))
    assert [r.claim_id for r in reports] == list(CLAIM_ORDER[20:])
    return {r.claim_id for r in reports if r.status != "pass"}


def test_misnormalised_kernel_flips_the_level_claims_only(monkeypatch):
    # a kernel normalised by 1/sqrt(pi eps) instead of 1/sqrt(2 pi eps)
    # scales every V by sqrt 2: the means, the second moments and the
    # windowed motion means fail.  The endpoint moments never read V, the
    # monotone second moments are quadrature only, and the squared gaps
    # all double, so their order holds.
    smoothed = local_time.smoothed_values
    failing = _failing_localtime_claims(
        monkeypatch, "smoothed_values", lambda *args: np.sqrt(2.0) * smoothed(*args)
    )
    assert failing == {
        "local-time-mean-bridge",
        "bridge-mean-value",
        "local-time-mean-heat-short",
        "local-time-mean-heat-long",
        "bridge-second-moment",
        "bridge-second-moment-value",
        "levy-conditional-mean",
        "levy-conditional-value",
    }


def test_unit_span_trapezoid_weights_flip_only_the_heat_means(monkeypatch):
    # weights spaced as on [0, 1] whatever the interval: bridge and motion
    # run on [0, 1] and are untouched, the heat V shrink by the span (2 and
    # 5), and the heat gaps shrink alike, keeping their order
    weights = local_time._trapezoid_weights
    failing = _failing_localtime_claims(
        monkeypatch, "_trapezoid_weights", lambda lo, hi, n: weights(0.0, 1.0, n)
    )
    assert failing == {"local-time-mean-heat-short", "local-time-mean-heat-long"}


def test_nonzero_level_rejected_before_any_sampling(forbid_in_verify):
    blocks = ("spectral_reports", "gram_reports", "moment_reports", "covariance_reports")
    forbid_in_verify("run_replicates", *blocks)
    cfg = RunConfig(replicates=50, grid_points=4096, z=0.5)
    with pytest.raises(ConfigError, match="level 0"):
        verify_all(cfg)
    with pytest.raises(ConfigError, match="level 0"):
        localtime_reports(cfg)


_CAUCHY = {"cauchy-monotone-bridge", "cauchy-monotone-heat-short", "cauchy-monotone-heat-long"}


@pytest.mark.parametrize(
    "schedule, empty",
    (((0.08, 0.04), _CAUCHY), ((0.08,), _CAUCHY | {"second-moment-monotone"})),
)
def test_bound_claims_with_nothing_to_compare_report_insufficient_power(schedule, empty):
    # two bandwidths give one Cauchy gap and so no pair of gaps, and one
    # bandwidth gives no pair of second moments.  Only these rows are
    # asserted: a sampled claim can fail on working code at 8 replicates.
    cfg = RunConfig(replicates=8, grid_points=1024, epsilon_schedule=schedule, master_seed=5)
    by_id = {r.claim_id: r for r in localtime_reports(cfg)}
    for claim_id in empty:
        assert by_id[claim_id].status == "insufficient-power", claim_id
        assert by_id[claim_id].observed == ()
    if "second-moment-monotone" not in empty:
        assert by_id["second-moment-monotone"].status == "pass"


def test_subcommand_blocks_partition_the_suite():
    cfg = RunConfig(replicates=2, grid_points=4096, master_seed=3)
    blocks = [
        spectral_reports(cfg),
        gram_reports(cfg),
        moment_reports(cfg),
        covariance_reports(cfg),
        localtime_reports(cfg),
    ]
    ids = tuple(r.claim_id for block in blocks for r in block)
    assert ids == CLAIM_ORDER


def test_coarse_grid_rejected_before_any_sampling():
    cfg = RunConfig(replicates=50_000, grid_points=2048)
    with pytest.raises(ConfigError, match="floor"):
        verify_all(cfg)


def test_unresolvable_heat_interval_rejected_before_any_sampling(forbid_in_verify, capsys):
    # --interval feeds the heat claims whatever --process is: a 20-unit span
    # at 8192 points has floor 9.8e-3, above the schedule's 0.005
    blocks = ("spectral_reports", "gram_reports", "moment_reports", "covariance_reports")
    forbid_in_verify("run_replicates", *blocks)
    cfg = RunConfig(replicates=10, process="bridge", interval=(0.0, 20.0))
    with pytest.raises(ConfigError, match=r"floor .* \(0, 20\)"):
        verify_all(cfg)
    with pytest.raises(ConfigError, match="floor"):
        localtime_reports(cfg)
    argv = ["verify", "--interval", "0", "20", "--reps", "10"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_verify_deterministic_across_jobs():
    kwargs = dict(replicates=120, grid_points=4096, master_seed=11)
    serial = verify_all(RunConfig(jobs=1, **kwargs))
    parallel = verify_all(RunConfig(jobs=3, **kwargs))
    for a, b in zip(serial, parallel):
        assert a.claim_id == b.claim_id
        assert a.observed == b.observed
        assert a.expected == b.expected
        assert a.standard_error == b.standard_error
        assert a.status == b.status


# one family serves both heat intervals, on the heat-short sub-seed
FAMILY_TAGS = ("qf-mc", "sim-path", "sim-sheet", "mc-bridge", "mc-heat-short")

# calls per run of each quadrature the suite reads through heatlocal.verify
QUADRATURE_CALLS = {
    "expected_smoothed_local_time": 3,
    "second_moment_via_density": 5,
    "expected_motion_local_time_in_window": 1,
    "covariance_R_quadrature": 20,
    "dirichlet_simplex_integral": 3,
}


def test_registry_runs_each_family_once_and_each_quadrature_as_needed(monkeypatch):
    calls = Counter()
    tags = {verify.derive_master(3, tag): tag for tag in FAMILY_TAGS}
    run = verify.run_replicates

    def counted_run(task, **kwargs):
        calls[tags[kwargs["master_seed"]]] += 1
        return run(task, **kwargs)

    def counted(name):
        original = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(verify, "run_replicates", counted_run)
    for name in QUADRATURE_CALLS:
        monkeypatch.setattr(verify, name, counted(name))
    reports = verify_all(RunConfig(replicates=2, grid_points=4096, master_seed=3))
    assert tuple(r.claim_id for r in reports) == CLAIM_ORDER
    assert calls == Counter({tag: 1 for tag in FAMILY_TAGS}) + Counter(QUADRATURE_CALLS)


def test_readme_claim_tables_list_the_registry_in_order():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    suite = text.split("## The claim suite", 1)[1].split("\n## ", 1)[0]
    tables, rows = [], []
    for line in suite.splitlines() + [""]:
        if line.startswith("| ") and not line.startswith(("| claim |", "| --- |")):
            rows.append(line.split("|")[1].strip())
        elif rows:
            tables.append(rows)
            rows = []
    blocks = list(dict.fromkeys(c.block for c in CLAIMS))
    assert tables == [[c.claim_id for c in CLAIMS if c.block == b] for b in blocks]


@pytest.fixture
def doubled_R(monkeypatch):
    """Double the covariance R as one module reads it; the heat_model caches are reset."""

    def clear():
        heat_model._embedding_weights.cache_clear()
        heat_model._increment_cholesky.cache_clear()

    def double(module):
        clear()
        monkeypatch.setattr(module, "covariance_R", lambda d: 2.0 * covariance_R(d))

    yield double
    monkeypatch.undo()
    clear()


# derived from which claims read R at each site, then observed
@pytest.mark.parametrize(
    "module, flipped",
    [
        (verify, {"covariance-closed-form", "sheet-variance-bias"}),
        (
            heat_model,
            {
                "quadratic-form-mc",
                "simulator-agreement",
                "local-time-mean-heat-short",
                "local-time-mean-heat-long",
            },
        ),
        (local_time, {"local-time-mean-heat-short", "local-time-mean-heat-long"}),
    ],
    ids=["verify", "heat_model", "local_time"],
)
def test_doubled_covariance_flips_exactly_its_readers(doubled_R, module, flipped):
    doubled_R(module)
    reports = verify_all(RunConfig(replicates=400, grid_points=4096, master_seed=42))
    assert {r.claim_id for r in reports if r.status != "pass"} == flipped


def test_projection_sweep_passes_at_ill_conditioned_seeds():
    # at these master seeds the sweep draws families with condition numbers
    # near 1e5, where a determinant from a factor of v v^T misses the 1e-8
    # tolerance of the projection identity
    claim = next(c for c in CLAIMS if c.claim_id == "gram-projection-sweep")
    seeds = (28, 45, 47, 116, 138, 181, 183, 225, 243, 261, 278, 280, 801)
    for seed in seeds:
        inputs = verify._Inputs(RunConfig(replicates=2, grid_points=4096, master_seed=seed))
        assert verify._report(claim, inputs).status == "pass", seed
