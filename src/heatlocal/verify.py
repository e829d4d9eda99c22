"""Claim-by-claim verification suite.

Every quantitative claim the package makes is exercised here and reported
as a :class:`SuiteReport`.  Deterministic identities carry absolute or
relative tolerances; Monte Carlo claims pass within
max(tolerance, 4 x standard error).  All randomness is derived from the
config's master seed through per-claim tags, so two runs with the same
seed produce byte-identical reports (runtimes aside) for any worker
count.
"""

from __future__ import annotations

import hashlib
import time
from functools import cache, partial

import numpy as np

from ._version import __version__
from .errors import ConfigError
from .gram import (
    CellGrid,
    VectorFamily,
    bridge_moment_from_simplex,
    check_simplex_partition,
    dirichlet_simplex_integral,
    gram_det,
    gram_indicators,
    invertible_gram_values,
    orthonormalize,
    probe_basis_extension_ratio,
    projection_identity_values,
)
from .grids import SpatialGrid
from .heat_model import (
    build_sheet_operator,
    covariance_R,
    covariance_R_quadrature,
    path_increment_replicate,
    sheet_increment_replicate,
    sheet_variance_bias,
    weighted_increment_square,
)
from .local_time import (
    bandwidth_floor,
    bridge_moment_exact,
    conditional_moment,
    expected_motion_local_time_in_window,
    expected_smoothed_local_time,
    levy_density_normalization,
    local_time_replicate,
    motion_endpoint_replicate,
    second_moment_via_density,
)
from .mc import RunConfig, run_replicates
from .reports import FAIL, SuiteReport, bound_report, two_sided_report
from .sampling import SeedSpec
from .spectral import (
    StepFunction,
    TWO_SQRT_PI,
    quadratic_form_Q,
    quadratic_form_Q_spectral,
    random_step_function,
    smallest_form_eigenvalue,
    smoothed_norm_sq,
)

# step function tying the spectral form to the path simulator
_QF_BREAKPOINTS = (0.0, 0.3, 0.8, 1.1, 1.7, 2.0)
_QF_COEFFS = (1.2, -0.7, 2.0, 0.4, -1.5)

# evaluation points of the cross-simulator agreement run; kept away from
# the interval base so the documented sheet cutoff bias stays well inside
# the covariance error bars
_AGREE_POINTS = (0.6, 0.9, 1.2, 1.5, 1.8, 2.0)

_SWEEP_SIZE = 1000
_GRAM_SWEEP = 500
_INDICATOR_SWEEP = 100
_EXTENSION_SWEEP = 200
_DUAL_ROUTE_SIZE = 40


# the suite always adds one heat run on an interval longer than 2 sqrt(pi)
LONG_INTERVAL = (0.0, 5.0)


def _check_suite_config(config: RunConfig) -> None:
    """Refuse, before any sampling, a config the local-time claims cannot use."""
    # the value claims compare against level-0 moments, and the windowed
    # motion reference takes no level at all
    if config.z != 0.0:
        raise ConfigError(f"the local-time claims check level 0 only, got z = {config.z}")
    floor = bandwidth_floor(LONG_INTERVAL[1] - LONG_INTERVAL[0], config.grid_points)
    if min(config.epsilon_schedule) < floor:
        raise ConfigError(
            f"epsilon schedule minimum {min(config.epsilon_schedule)} below the "
            f"bandwidth floor {floor:.3e} of the long-interval run at "
            f"{config.grid_points} grid points"
        )


def derive_master(master_seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for one named piece of the suite."""
    digest = hashlib.sha256(
        int(master_seed).to_bytes(8, "little") + tag.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def _timed(builder) -> SuiteReport:
    t0 = time.perf_counter()
    report = builder()
    report.runtime_ms = (time.perf_counter() - t0) * 1e3
    return report


# ---------------------------------------------------------------------------
# spectral block


def spectral_reports(config: RunConfig) -> list[SuiteReport]:
    reports: list[SuiteReport] = []
    t0 = time.perf_counter()
    rng = SeedSpec(derive_master(config.master_seed, "spectral-sweep")).rng()
    functions = [random_step_function(rng) for _ in range(_SWEEP_SIZE)]

    def sweeps():
        upper = np.empty(len(functions))
        lower = np.empty(len(functions))
        conv = np.empty(len(functions))
        for i, f in enumerate(functions):
            ns = f.norm_sq
            L = f.support_length
            sm = smoothed_norm_sq(f)
            q = ns - sm
            upper[i] = ns - q
            lower[i] = q - (1.0 - L / TWO_SQRT_PI) * ns
            conv[i] = ns * L / TWO_SQRT_PI - sm
        return upper, lower, conv

    upper, lower, conv = sweeps()
    sweep_ms = (time.perf_counter() - t0) * 1e3
    reports.append(
        bound_report(
            "integrator-upper-bound-sweep", float(np.min(upper)), 1e-8, runtime_ms=sweep_ms
        )
    )
    reports.append(
        bound_report("coercivity-lower-bound-sweep", float(np.min(lower)), 1e-8)
    )
    reports.append(
        bound_report("convolution-upper-bound-sweep", float(np.min(conv)), 1e-8)
    )

    def dual_route():
        sample = functions[:_DUAL_ROUTE_SIZE] + [
            StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        ]
        worst = 0.0
        for f in sample:
            a = quadratic_form_Q(f)
            b = quadratic_form_Q_spectral(f)
            worst = max(worst, abs(a - b) / max(abs(a), 1e-12))
        return two_sided_report("spectral-dual-route", worst, 0.0, 1e-6)

    reports.append(_timed(dual_route))

    def eigen_floor():
        lam = smallest_form_eigenvalue(SpatialGrid.uniform(0.0, 1.0, 17))
        floor = 1.0 - 1.0 / TWO_SQRT_PI
        return bound_report("form-eigenvalue-floor", lam - floor, 1e-10)

    reports.append(_timed(eigen_floor))

    def eigen_monotone():
        lams = [
            smallest_form_eigenvalue(SpatialGrid.uniform(0.0, L, 17))
            for L in (0.5, 1.0, 2.0, 3.0)
        ]
        slack = [a - b for a, b in zip(lams, lams[1:])]
        return bound_report("form-eigenvalue-monotone", slack, 1e-10)

    reports.append(_timed(eigen_monotone))

    def qf_mc():
        f = StepFunction(np.array(_QF_BREAKPOINTS), np.array(_QF_COEFFS))
        expected = quadratic_form_Q(f)
        task = partial(
            weighted_increment_square,
            points=_QF_BREAKPOINTS[1:],
            coeffs=_QF_COEFFS,
            interval=(0.0, 2.0),
        )
        res = run_replicates(
            task,
            replicates=min(100_000, 2 * config.replicates),
            master_seed=derive_master(config.master_seed, "qf-mc"),
            jobs=config.jobs,
        )
        return two_sided_report(
            "quadratic-form-mc",
            float(res.mean[0]),
            expected,
            0.0,
            standard_error=float(res.stderr[0]),
            insufficient=config.replicates < 2,
        )

    reports.append(_timed(qf_mc))
    return reports


# ---------------------------------------------------------------------------
# gram block


def gram_reports(config: RunConfig) -> list[SuiteReport]:
    reports: list[SuiteReport] = []
    rng = SeedSpec(derive_master(config.master_seed, "gram-sweep")).rng()

    def projection_sweep():
        worst = 0.0
        for _ in range(_GRAM_SWEEP):
            dim = int(rng.integers(2, 9))
            n_basis = int(rng.integers(1, min(5, dim - 1) + 1))
            # keep the appended family independent: k + n_basis <= dim
            k = int(rng.integers(1, min(6 - n_basis, dim - n_basis) + 1))
            basis = VectorFamily(
                orthonormalize(rng.standard_normal((n_basis, dim)))[:n_basis]
            )
            g = VectorFamily(rng.standard_normal((k, dim)))
            lhs, rhs = projection_identity_values(g, basis)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
        return two_sided_report("gram-projection-sweep", worst, 0.0, 1e-8)

    reports.append(_timed(projection_sweep))

    def invertible_sweep():
        worst = np.inf
        for _ in range(_GRAM_SWEEP):
            dim = int(rng.integers(1, 7))
            count = int(rng.integers(1, dim + 1))
            matrix = rng.standard_normal((dim, dim))
            while np.linalg.svd(matrix, compute_uv=False)[-1] <= 1e-8:
                matrix = rng.standard_normal((dim, dim))
            family = VectorFamily(rng.standard_normal((count, dim)))
            lhs, rhs = invertible_gram_values(matrix, family)
            worst = min(worst, lhs - rhs)
        return bound_report("invertible-gram-sweep", float(worst), 1e-10)

    reports.append(_timed(invertible_sweep))

    def indicator_discretization():
        cells = 1024
        grid = CellGrid(cells, (0.0, 1.0))
        worst = 0.0
        for _ in range(_INDICATOR_SWEEP):
            k = int(rng.integers(1, 6))
            # snap times to cell boundaries (the representation is exact
            # there) and keep gaps of at least 8 cells for conditioning
            while True:
                idx = np.sort(rng.choice(np.arange(8, cells + 1), size=k, replace=False))
                if k == 1 or int(np.min(np.diff(idx))) >= 8:
                    break
            times = idx / cells
            exact = gram_indicators(times, 0.0)
            rows = np.stack([grid.indicator(float(t)) for t in times])
            disc = gram_det(VectorFamily(rows))
            worst = max(worst, abs(disc - exact) / exact)
        return two_sided_report("gram-indicator-discretization", worst, 0.0, 1e-6)

    reports.append(_timed(indicator_discretization))

    def extension_probe():
        cells = 1024
        grid = CellGrid(cells, (0.0, 1.0))
        step_vec = grid.discretize(lambda u: np.where(u < 0.5, 1.0, -1.0))
        step_basis = VectorFamily(orthonormalize(step_vec[None, :]))
        s1 = step_basis.vectors[0]
        smooth_raw = grid.discretize(lambda u: u - 0.5)
        resid = smooth_raw - float(np.dot(smooth_raw, s1)) * s1
        smooth_basis = VectorFamily(orthonormalize(resid[None, :]))
        tuples = []
        for _ in range(_EXTENSION_SWEEP):
            k = int(rng.integers(1, 4))
            while True:
                times = np.sort(rng.uniform(0.05, 0.95, size=k))
                if k == 1 or float(np.min(np.diff(times))) >= 0.02:
                    break
            tuples.append(times)
        ratio = probe_basis_extension_ratio(step_basis, smooth_basis, tuples, grid)
        return bound_report("basis-extension-ratio", ratio - 1e-12, 0.0)

    reports.append(_timed(extension_probe))
    reports.append(_timed(check_simplex_partition))
    return reports


# ---------------------------------------------------------------------------
# moments block


def moment_reports(config: RunConfig) -> list[SuiteReport]:
    reports: list[SuiteReport] = []

    def simplex_k(k: int):
        if k <= 2:
            value, _ = dirichlet_simplex_integral(k)
            observed = bridge_moment_from_simplex(k, value)
            expected = bridge_moment_exact(k)
            tol = (1e-6 if k == 1 else 1e-4) * expected
            return two_sided_report(
                f"bridge-moment-simplex-k{k}", observed, expected, tol
            )
        samples = min(10_000_000, max(100_000, 200 * config.replicates))
        value, err = dirichlet_simplex_integral(k, samples=samples)
        observed = bridge_moment_from_simplex(k, value)
        scale = bridge_moment_from_simplex(k, 1.0)
        return two_sided_report(
            f"bridge-moment-simplex-k{k}",
            observed,
            bridge_moment_exact(k),
            0.0,
            standard_error=err * scale,
            insufficient=config.replicates < 2,
        )

    for k in (1, 2, 3):
        reports.append(_timed(partial(simplex_k, k)))

    def conditional_identity():
        worst = 0.0
        for k in range(1, 13):
            worst = max(
                worst, abs(conditional_moment(k) / bridge_moment_exact(k) - 1.0)
            )
        return two_sided_report("conditional-moment-identity", worst, 0.0, 1e-6)

    reports.append(_timed(conditional_identity))

    def levy_norm():
        return two_sided_report(
            "levy-density-normalization", levy_density_normalization(), 1.0, 1e-8
        )

    reports.append(_timed(levy_norm))
    return reports


# ---------------------------------------------------------------------------
# covariance block


def _cov_and_se(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance and elementwise standard errors of its entries."""
    n = raw.shape[0]
    centered = raw - np.mean(raw, axis=0)
    cov = centered.T @ centered / (n - 1)
    se = np.empty_like(cov)
    for i in range(cov.shape[0]):
        prod = centered[:, i, None] * centered
        se[i] = np.std(prod, axis=0, ddof=1) / np.sqrt(n)
    return cov, se


def covariance_reports(config: RunConfig) -> list[SuiteReport]:
    reports: list[SuiteReport] = []

    def closed_form():
        ds = np.linspace(0.0, 6.0, 20)
        worst = max(
            abs(covariance_R_quadrature(float(d)) - float(covariance_R(float(d))))
            for d in ds
        )
        return two_sided_report("covariance-closed-form", worst, 0.0, 1e-8)

    reports.append(_timed(closed_form))

    def agreement():
        interval = (0.0, 2.0)
        path_task = partial(
            path_increment_replicate, points=_AGREE_POINTS, interval=interval
        )
        sheet_task = partial(
            sheet_increment_replicate, points=_AGREE_POINTS, interval=interval
        )
        res_path = run_replicates(
            path_task,
            replicates=4 * config.replicates,
            master_seed=derive_master(config.master_seed, "sim-path"),
            jobs=config.jobs,
            return_raw=True,
        )
        res_sheet = run_replicates(
            sheet_task,
            replicates=max(2, config.replicates // 5),
            master_seed=derive_master(config.master_seed, "sim-sheet"),
            jobs=config.jobs,
            return_raw=True,
        )
        mean_z = np.abs(res_path.mean - res_sheet.mean) / np.sqrt(
            res_path.stderr**2 + res_sheet.stderr**2
        )
        cov_p, se_p = _cov_and_se(res_path.raw)
        cov_s, se_s = _cov_and_se(res_sheet.raw)
        cov_z = np.abs(cov_p - cov_s) / np.sqrt(se_p**2 + se_s**2)
        iu = np.triu_indices(len(_AGREE_POINTS))
        worst = max(float(np.max(mean_z)), float(np.max(cov_z[iu])))
        return two_sided_report(
            "simulator-agreement",
            worst,
            0.0,
            4.0,
            insufficient=config.replicates < 2,
        )

    reports.append(_timed(agreement))

    def sheet_bias():
        grid = SpatialGrid(np.array(_AGREE_POINTS), (0.0, 2.0))
        op = build_sheet_operator(grid)
        deficits = covariance_R(0.0) - op.field_variance()
        bias = sheet_variance_bias(op.delta)
        return two_sided_report(
            "sheet-variance-bias",
            tuple(float(d) for d in deficits),
            (bias,) * deficits.size,
            1e-9,
        )

    reports.append(_timed(sheet_bias))
    return reports


# ---------------------------------------------------------------------------
# local-time block


def _moment_se(res, index: int) -> float:
    """Standard error of the second raw moment of one output coordinate."""
    n = res.n
    if n < 2:
        return 0.0
    var = max(float(res.m4[index] - res.m2[index] ** 2), 0.0)
    return float(np.sqrt(var / n))


def localtime_reports(config: RunConfig) -> list[SuiteReport]:
    """Local-time claims.

    Each Monte Carlo family and each shared quadrature is computed on first
    use, inside the first claim that reads it, and cached for the later
    ones; so every claim's runtime includes the work it triggers.  Each
    family draws from its own derived seed, so the order they run in does
    not affect any value.
    """
    reports: list[SuiteReport] = []
    sched = config.epsilon_schedule
    k = len(sched)
    eps_star = sched[-1]
    z = config.z
    insuff = config.replicates < 2
    exact1 = bridge_moment_exact(1)
    _check_suite_config(config)
    long_interval = LONG_INTERVAL

    def family_run(tag: str, process_tag: str, interval: tuple):
        task = partial(
            local_time_replicate,
            process_tag=process_tag,
            n=config.grid_points,
            interval=interval,
            z=z,
            schedule=sched,
        )
        return run_replicates(
            task,
            replicates=config.replicates,
            master_seed=derive_master(config.master_seed, tag),
            jobs=config.jobs,
        )

    res_bridge = cache(partial(family_run, "mc-bridge", "bridge", (0.0, 1.0)))
    res_heat_short = cache(partial(family_run, "mc-heat-short", "heat", config.interval))
    res_heat_long = cache(partial(family_run, "mc-heat-long", "heat", long_interval))
    extra_eps = max(5e-4, bandwidth_floor(1.0, config.grid_points))

    @cache
    def res_motion():
        motion_task = partial(
            motion_endpoint_replicate,
            n=config.grid_points,
            z=z,
            extra_eps=extra_eps,
        )
        return run_replicates(
            motion_task,
            replicates=config.replicates,
            master_seed=derive_master(config.master_seed, "mc-motion"),
            jobs=config.jobs,
            return_raw=True,
        )

    exp_bridge = cache(partial(expected_smoothed_local_time, "bridge", z, eps_star))

    def mean_bridge():
        res = res_bridge()
        return two_sided_report(
            "local-time-mean-bridge",
            float(res.mean[k - 1]),
            exp_bridge(),
            0.0,
            standard_error=float(res.stderr[k - 1]),
            insufficient=insuff,
        )

    reports.append(_timed(mean_bridge))

    def mean_bridge_value():
        res = res_bridge()
        factor = exact1 / exp_bridge()
        return two_sided_report(
            "bridge-mean-value",
            float(res.mean[k - 1]) * factor,
            exact1,
            0.05 * exact1,
            standard_error=float(res.stderr[k - 1]) * factor,
            insufficient=insuff,
        )

    reports.append(_timed(mean_bridge_value))

    def mean_heat(tag: str, family, interval):
        res = family()
        expected = expected_smoothed_local_time("heat", z, eps_star, interval)
        return two_sided_report(
            tag,
            float(res.mean[k - 1]),
            expected,
            0.0,
            standard_error=float(res.stderr[k - 1]),
            insufficient=insuff,
        )

    reports.append(
        _timed(partial(mean_heat, "local-time-mean-heat-short", res_heat_short, config.interval))
    )
    reports.append(
        _timed(partial(mean_heat, "local-time-mean-heat-long", res_heat_long, (0.0, 5.0)))
    )

    def second_moment():
        res = res_bridge()
        return two_sided_report(
            "bridge-second-moment",
            float(res.m2[k - 1]),
            second_moment_via_density("bridge", z, eps_star, eps_star),
            0.0,
            standard_error=_moment_se(res, k - 1),
            insufficient=insuff,
        )

    reports.append(_timed(second_moment))

    def second_moment_value():
        res = res_bridge()
        factor = (exact1 / exp_bridge()) ** 2
        return two_sided_report(
            "bridge-second-moment-value",
            float(res.m2[k - 1]) * factor,
            bridge_moment_exact(2),
            0.10 * bridge_moment_exact(2),
            standard_error=_moment_se(res, k - 1) * factor,
            insufficient=insuff,
        )

    reports.append(_timed(second_moment_value))

    def second_moment_monotone():
        eps_grid = sched[: min(4, k)]
        values = [
            second_moment_via_density("bridge", z, e, e) for e in eps_grid
        ]
        # epsilon decreases along the schedule, so the values must rise
        slack = [b - a for a, b in zip(values, values[1:])]
        return bound_report("second-moment-monotone", slack, 1e-10)

    reports.append(_timed(second_moment_monotone))

    def endpoint_moments():
        w1 = res_motion().raw[:, 1]
        n = w1.size
        m1 = float(np.mean(w1))
        m2 = float(np.mean(w1**2))
        m4 = float(np.mean(w1**4))
        if n < 2:
            return two_sided_report(
                "motion-endpoint-moments", 0.0, 0.0, 4.0, insufficient=True
            )
        se1 = float(np.std(w1, ddof=1) / np.sqrt(n))
        se2 = float(np.std(w1**2, ddof=1) / np.sqrt(n))
        se4 = float(np.std(w1**4, ddof=1) / np.sqrt(n))
        worst = max(abs(m1) / se1, abs(m2 - 1.0) / se2, abs(m4 - 3.0) / se4)
        return two_sided_report(
            "motion-endpoint-moments", worst, 0.0, 4.0, insufficient=insuff
        )

    reports.append(_timed(endpoint_moments))

    window = 0.1
    exp_window = cache(partial(expected_motion_local_time_in_window, extra_eps, window))

    def windowed_sample():
        # V at extra_eps on the replicates whose endpoint lies in the window
        raw = res_motion().raw
        return raw[:, 0][np.abs(raw[:, 1]) < window]

    def conditional_mean():
        sample = windowed_sample()
        m = sample.size
        if m < 2:
            return two_sided_report(
                "levy-conditional-mean", 0.0, exp_window(), 0.0, insufficient=True
            )
        cmean = float(np.mean(sample))
        cse = float(np.std(sample, ddof=1) / np.sqrt(m))
        return two_sided_report(
            "levy-conditional-mean",
            cmean,
            exp_window(),
            0.0,
            standard_error=cse,
            insufficient=insuff,
        )

    reports.append(_timed(conditional_mean))

    def conditional_value():
        sample = windowed_sample()
        m = sample.size
        if m < 2:
            return two_sided_report(
                "levy-conditional-value", 0.0, exact1, 0.05 * exact1, insufficient=True
            )
        factor = exact1 / exp_window()
        cmean = float(np.mean(sample)) * factor
        cse = float(np.std(sample, ddof=1) / np.sqrt(m)) * factor
        return two_sided_report(
            "levy-conditional-value",
            cmean,
            exact1,
            0.05 * exact1,
            standard_error=cse,
            insufficient=insuff,
        )

    reports.append(_timed(conditional_value))

    def cauchy(tag: str, family):
        gaps = [float(g) for g in family().mean[k:]]
        slack = [a - b for a, b in zip(gaps, gaps[1:])]
        return bound_report(tag, slack, 0.0, insufficient=insuff)

    reports.append(_timed(partial(cauchy, "cauchy-monotone-bridge", res_bridge)))
    reports.append(_timed(partial(cauchy, "cauchy-monotone-heat-short", res_heat_short)))
    reports.append(_timed(partial(cauchy, "cauchy-monotone-heat-long", res_heat_long)))
    return reports


# ---------------------------------------------------------------------------


def verify_all(config: RunConfig) -> list[SuiteReport]:
    """Run the full suite in fixed claim order."""
    _check_suite_config(config)
    reports = []
    reports += spectral_reports(config)
    reports += gram_reports(config)
    reports += moment_reports(config)
    reports += covariance_reports(config)
    reports += localtime_reports(config)
    return reports


def exit_code(reports: list[SuiteReport]) -> int:
    return 1 if any(r.status == FAIL for r in reports) else 0


def first_failure(reports: list[SuiteReport]) -> str | None:
    for r in reports:
        if r.status == FAIL:
            return r.claim_id
    return None
