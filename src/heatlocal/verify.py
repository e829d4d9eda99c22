"""Claim-by-claim verification suite.

Every quantitative claim the package makes is one entry of :data:`CLAIMS`
and is reported as a :class:`SuiteReport`.  Deterministic identities carry
absolute or relative tolerances; Monte Carlo claims pass within
max(tolerance, 4 x standard error).  All randomness is derived from the
config's master seed through per-claim tags, so two runs with the same
seed produce byte-identical reports (runtimes aside) for any worker
count.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import ConfigError
from .gram import (
    CellGrid,
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
    bridge_motion_replicate,
    conditional_moment,
    expected_motion_local_time_in_window,
    expected_smoothed_local_time,
    heat_replicate,
    levy_density_normalization,
    require_resolvable,
    second_moment_via_density,
)
from .mc import MCResult, RunConfig, run_replicates
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

# endpoint window of the conditional (Levy) motion claims
_WINDOW = 0.1

# the suite always adds one heat run on an interval longer than 2 sqrt(pi)
LONG_INTERVAL = (0.0, 5.0)

TWO_SIDED = "two-sided"
BOUND = "bound"


def _check_suite_config(config: RunConfig) -> None:
    """Refuse, before any sampling, a config the local-time claims cannot use."""
    # the value claims compare against level-0 moments, and the windowed
    # motion reference takes no level at all
    if config.z != 0.0:
        raise ConfigError(f"the local-time claims check level 0 only, got z = {config.z}")
    # the heat claims run on --interval and on LONG_INTERVAL; the bridge's
    # (0, 1) is shorter than LONG_INTERVAL, so its floor is lower
    for interval in (config.interval, LONG_INTERVAL):
        require_resolvable(min(config.epsilon_schedule), interval, config.grid_points)


def derive_master(master_seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for one named piece of the suite."""
    digest = hashlib.sha256(
        int(master_seed).to_bytes(8, "little") + tag.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


class _TooFewDraws(Exception):
    """A claim's own sample has under two draws; ``args`` are its report numbers."""


class _Inputs:
    """The shared inputs of one block run, each computed on first read and kept.

    A shared input is a Monte Carlo family, the spectral sweep, the gram
    stream or a quadrature read by several claims.  The first claim that
    reads one is charged its time.  Each family draws from its own derived
    seed, so the order the claims read them in does not affect any value.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.k = len(config.epsilon_schedule)
        self.eps_star = config.epsilon_schedule[-1]
        self.extra_eps = max(5e-4, bandwidth_floor(1.0, config.grid_points))
        self.heat_intervals = (config.interval, LONG_INTERVAL)

    def run(self, tag: str, task, replicates: int, return_raw: bool = False) -> MCResult:
        return run_replicates(
            task,
            replicates=replicates,
            master_seed=derive_master(self.config.master_seed, tag),
            jobs=self.config.jobs,
            return_raw=return_raw,
        )

    @cached_property
    def step_functions(self) -> list[StepFunction]:
        rng = SeedSpec(derive_master(self.config.master_seed, "spectral-sweep")).rng()
        return [random_step_function(rng) for _ in range(_SWEEP_SIZE)]

    @cached_property
    def sweeps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slack of the upper, lower and convolution bounds per step function."""
        upper, lower, conv = (np.empty(_SWEEP_SIZE) for _ in range(3))
        for i, f in enumerate(self.step_functions):
            ns = f.norm_sq
            L = f.support_length
            sm = smoothed_norm_sq(f)
            q = ns - sm
            upper[i] = ns - q
            lower[i] = q - (1.0 - L / TWO_SQRT_PI) * ns
            conv[i] = ns * L / TWO_SQRT_PI - sm
        return upper, lower, conv

    @cached_property
    def gram_rng(self) -> np.random.Generator:
        # one stream, read by the gram sweeps in registry order
        return SeedSpec(derive_master(self.config.master_seed, "gram-sweep")).rng()

    @cached_property
    def bridge(self) -> MCResult:
        # one motion path per replicate: the bridge's V and gaps, then the
        # motion's V at extra_eps and w(1) in the last two columns
        task = partial(
            bridge_motion_replicate,
            n=self.config.grid_points,
            z=self.config.z,
            schedule=self.config.epsilon_schedule,
            extra_eps=self.extra_eps,
        )
        return self.run("mc-bridge", task, self.config.replicates, return_raw=True)

    @cached_property
    def heat(self) -> MCResult:
        # one heat draw per replicate for both intervals: the V and gaps on
        # --interval, then those on LONG_INTERVAL
        task = partial(
            heat_replicate,
            n=self.config.grid_points,
            intervals=self.heat_intervals,
            z=self.config.z,
            schedule=self.config.epsilon_schedule,
        )
        return self.run("mc-heat-short", task, self.config.replicates)

    @cached_property
    def exp_bridge(self) -> float:
        return expected_smoothed_local_time("bridge", self.config.z, self.eps_star)

    @cached_property
    def bridge_q2(self) -> float:
        return second_moment_via_density(self.eps_star, self.eps_star)

    @cached_property
    def exp_window(self) -> float:
        return expected_motion_local_time_in_window(self.extra_eps, _WINDOW)

    # estimates as (value, standard error); None for the error means too few draws

    @cached_property
    def bridge_mean(self) -> tuple[float, float]:
        return float(self.bridge.mean[self.k - 1]), float(self.bridge.stderr[self.k - 1])

    @cached_property
    def bridge_m2(self) -> tuple[float, float]:
        res, i = self.bridge, self.k - 1
        var = max(float(res.m4[i] - res.m2[i] ** 2), 0.0)
        return float(res.m2[i]), float(np.sqrt(var / res.n)) if res.n > 1 else 0.0

    @cached_property
    def window_mean(self) -> tuple[float, float | None]:
        # V at extra_eps on the replicates whose endpoint lies in the window
        raw = self.bridge.raw
        sample = raw[:, -2][np.abs(raw[:, -1]) < _WINDOW]
        if sample.size < 2:
            return 0.0, None
        return float(np.mean(sample)), float(np.std(sample, ddof=1) / np.sqrt(sample.size))


# ---------------------------------------------------------------------------
# builders: module-level functions from the inputs (and a claim's params) to
# the numbers of its report


def _sweep_bound(inputs: _Inputs, which: int):
    return float(np.min(inputs.sweeps[which])), 1e-8


def _dual_route(inputs: _Inputs):
    sample = inputs.step_functions[:_DUAL_ROUTE_SIZE] + [
        StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    ]
    worst = 0.0
    for f in sample:
        a = quadratic_form_Q(f)
        b = quadratic_form_Q_spectral(f)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-12))
    return worst, 0.0, 1e-6


def _eigen_floor(inputs: _Inputs):
    lam = smallest_form_eigenvalue(1.0, 16)
    return lam - (1.0 - 1.0 / TWO_SQRT_PI), 1e-10


def _eigen_monotone(inputs: _Inputs):
    lams = [smallest_form_eigenvalue(L, 16) for L in (0.5, 1.0, 2.0, 3.0)]
    return [a - b for a, b in zip(lams, lams[1:])], 1e-10


def _quadratic_form_mc(inputs: _Inputs):
    f = StepFunction(np.array(_QF_BREAKPOINTS), np.array(_QF_COEFFS))
    expected = quadratic_form_Q(f)
    task = partial(
        weighted_increment_square,
        points=_QF_BREAKPOINTS[1:],
        coeffs=_QF_COEFFS,
        interval=(0.0, 2.0),
    )
    res = inputs.run("qf-mc", task, min(100_000, 2 * inputs.config.replicates))
    return float(res.mean[0]), expected, 0.0, float(res.stderr[0])


def _projection_sweep(inputs: _Inputs):
    rng = inputs.gram_rng
    worst = 0.0
    for _ in range(_GRAM_SWEEP):
        dim = int(rng.integers(2, 9))
        n_basis = int(rng.integers(1, min(5, dim - 1) + 1))
        # keep the appended family independent: k + n_basis <= dim
        k = int(rng.integers(1, min(6 - n_basis, dim - n_basis) + 1))
        basis = orthonormalize(rng.standard_normal((n_basis, dim)))[:n_basis]
        g = rng.standard_normal((k, dim))
        lhs, rhs = projection_identity_values(g, basis)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
    return worst, 0.0, 1e-8


def _invertible_sweep(inputs: _Inputs):
    rng = inputs.gram_rng
    worst = np.inf
    for _ in range(_GRAM_SWEEP):
        dim = int(rng.integers(1, 7))
        count = int(rng.integers(1, dim + 1))
        matrix = rng.standard_normal((dim, dim))
        while np.linalg.svd(matrix, compute_uv=False)[-1] <= 1e-8:
            matrix = rng.standard_normal((dim, dim))
        family = rng.standard_normal((count, dim))
        lhs, rhs = invertible_gram_values(matrix, family)
        worst = min(worst, lhs - rhs)
    return float(worst), 1e-10


def _indicator_discretization(inputs: _Inputs):
    rng = inputs.gram_rng
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
        disc = gram_det(rows)
        worst = max(worst, abs(disc - exact) / exact)
    return worst, 0.0, 1e-6


def _extension_probe(inputs: _Inputs):
    rng = inputs.gram_rng
    grid = CellGrid(1024, (0.0, 1.0))
    step_vec = grid.discretize(lambda u: np.where(u < 0.5, 1.0, -1.0))
    step_basis = orthonormalize(step_vec[None, :])
    s1 = step_basis[0]
    smooth_raw = grid.discretize(lambda u: u - 0.5)
    resid = smooth_raw - float(np.dot(smooth_raw, s1)) * s1
    smooth_basis = orthonormalize(resid[None, :])
    tuples = []
    for _ in range(_EXTENSION_SWEEP):
        k = int(rng.integers(1, 4))
        while True:
            times = np.sort(rng.uniform(0.05, 0.95, size=k))
            if k == 1 or float(np.min(np.diff(times))) >= 0.02:
                break
        tuples.append(times)
    ratio = probe_basis_extension_ratio(step_basis, smooth_basis, tuples, grid)
    return ratio - 1e-12, 0.0


def _simplex_partition(inputs: _Inputs):
    blocks, whole = check_simplex_partition()
    return blocks, whole, 1e-5 * abs(whole)


def _simplex_moment(inputs: _Inputs, k: int):
    value, err = dirichlet_simplex_integral(k)
    observed = bridge_moment_from_simplex(k, value)
    expected = bridge_moment_exact(k)
    if k <= 2:
        return observed, expected, (1e-6 if k == 1 else 1e-4) * expected
    # k = 3 passes within 4 scaled quadrature error estimates
    return observed, expected, 0.0, err * bridge_moment_from_simplex(k, 1.0)


def _conditional_identity(inputs: _Inputs):
    worst = 0.0
    for k in range(1, 13):
        worst = max(worst, abs(conditional_moment(k) / bridge_moment_exact(k) - 1.0))
    return worst, 0.0, 1e-6


def _levy_normalization(inputs: _Inputs):
    return levy_density_normalization(), 1.0, 1e-8


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


def _closed_form(inputs: _Inputs):
    ds = np.linspace(0.0, 6.0, 20)
    worst = max(
        abs(covariance_R_quadrature(float(d)) - float(covariance_R(float(d)))) for d in ds
    )
    return worst, 0.0, 1e-8


def _agreement(inputs: _Inputs):
    kw = {"points": _AGREE_POINTS, "interval": (0.0, 2.0)}
    reps = inputs.config.replicates
    res_path = inputs.run(
        "sim-path", partial(path_increment_replicate, **kw), 4 * reps, return_raw=True
    )
    res_sheet = inputs.run(
        "sim-sheet", partial(sheet_increment_replicate, **kw), max(2, reps // 5), return_raw=True
    )
    mean_z = np.abs(res_path.mean - res_sheet.mean) / np.sqrt(
        res_path.stderr**2 + res_sheet.stderr**2
    )
    cov_p, se_p = _cov_and_se(res_path.raw)
    cov_s, se_s = _cov_and_se(res_sheet.raw)
    cov_z = np.abs(cov_p - cov_s) / np.sqrt(se_p**2 + se_s**2)
    iu = np.triu_indices(len(_AGREE_POINTS))
    return max(float(np.max(mean_z)), float(np.max(cov_z[iu]))), 0.0, 4.0


def _sheet_bias(inputs: _Inputs):
    op = build_sheet_operator(SpatialGrid(np.array(_AGREE_POINTS), (0.0, 2.0)))
    deficits = covariance_R(0.0) - np.diag(op.gram)
    bias = sheet_variance_bias()
    return tuple(float(d) for d in deficits), (bias,) * deficits.size, 1e-9


def _estimate(inputs: _Inputs, estimate: str, reference: str):
    """A sampled estimate against its quadrature reference."""
    value, se = getattr(inputs, estimate)
    expected = getattr(inputs, reference)
    if se is None:
        raise _TooFewDraws(0.0, expected, 0.0)
    return value, expected, 0.0, se


def _value(inputs: _Inputs, estimate: str, reference: str, order: int, rel_tol: float):
    """An estimate, bias-normalised by its reference, against the eps -> 0 moment."""
    value, se = getattr(inputs, estimate)
    exact = bridge_moment_exact(order)
    if se is None:
        raise _TooFewDraws(0.0, exact, rel_tol * exact)
    factor = (bridge_moment_exact(1) / getattr(inputs, reference)) ** order
    return value * factor, exact, rel_tol * exact, se * factor


def _heat_mean(inputs: _Inputs, block: int):
    interval = inputs.heat_intervals[block]
    expected = expected_smoothed_local_time("heat", inputs.config.z, inputs.eps_star, interval)
    i = block * (2 * inputs.k - 1) + inputs.k - 1
    return float(inputs.heat.mean[i]), expected, 0.0, float(inputs.heat.stderr[i])


def _second_moment_monotone(inputs: _Inputs):
    values = [second_moment_via_density(e, e) for e in inputs.config.epsilon_schedule[:4]]
    # epsilon decreases along the schedule, so the values must rise
    return [b - a for a, b in zip(values, values[1:])], 1e-10


def _endpoint_moments(inputs: _Inputs):
    w1 = inputs.bridge.raw[:, -1]
    n = w1.size
    if n < 2:
        return 0.0, 0.0, 4.0
    # z-scores of the first, second and fourth moments against 0, 1 and 3
    worst = max(
        abs(float(np.mean(w1**p)) - m) / float(np.std(w1**p, ddof=1) / np.sqrt(n))
        for p, m in ((1, 0.0), (2, 1.0), (4, 3.0))
    )
    return worst, 0.0, 4.0


def _cauchy(inputs: _Inputs, family: str, block: int = 0):
    # the family's columns run in blocks of k values and k - 1 gaps
    start = block * (2 * inputs.k - 1) + inputs.k
    gaps = [float(g) for g in getattr(inputs, family).mean[start : start + inputs.k - 1]]
    return [a - b for a, b in zip(gaps, gaps[1:])], 0.0


# ---------------------------------------------------------------------------
# the registry and its runner


@dataclass(frozen=True)
class Claim:
    """One claim: ``build(inputs, *params)`` returns the numbers of its report.

    A two-sided builder returns (observed, expected, tolerance) and, for a
    Monte Carlo claim, the standard error; a bound builder returns (slack,
    tolerance).  A sampled claim reports insufficient power below two
    replicates.
    """

    claim_id: str
    block: str
    kind: str
    sampled: bool
    build: Callable[..., tuple]
    params: tuple = ()


def _claims(block: str, *rows) -> tuple[Claim, ...]:
    """Claims of one block from (id, kind, sampled, builder, *params) rows."""
    return tuple(
        Claim(claim_id, block, kind, sampled, build, tuple(params))
        for claim_id, kind, sampled, build, *params in rows
    )


CLAIMS: tuple[Claim, ...] = (
    *_claims(
        "spectral",
        ("integrator-upper-bound-sweep", BOUND, False, _sweep_bound, 0),
        ("coercivity-lower-bound-sweep", BOUND, False, _sweep_bound, 1),
        ("convolution-upper-bound-sweep", BOUND, False, _sweep_bound, 2),
        ("spectral-dual-route", TWO_SIDED, False, _dual_route),
        ("form-eigenvalue-floor", BOUND, False, _eigen_floor),
        ("form-eigenvalue-monotone", BOUND, False, _eigen_monotone),
        ("quadratic-form-mc", TWO_SIDED, True, _quadratic_form_mc),
    ),
    *_claims(
        "gram",
        ("gram-projection-sweep", TWO_SIDED, False, _projection_sweep),
        ("invertible-gram-sweep", BOUND, False, _invertible_sweep),
        ("gram-indicator-discretization", TWO_SIDED, False, _indicator_discretization),
        ("basis-extension-ratio", BOUND, False, _extension_probe),
        ("simplex-partition-additivity", TWO_SIDED, False, _simplex_partition),
    ),
    *_claims(
        "moments",
        ("bridge-moment-simplex-k1", TWO_SIDED, False, _simplex_moment, 1),
        ("bridge-moment-simplex-k2", TWO_SIDED, False, _simplex_moment, 2),
        ("bridge-moment-simplex-k3", TWO_SIDED, False, _simplex_moment, 3),
        ("conditional-moment-identity", TWO_SIDED, False, _conditional_identity),
        ("levy-density-normalization", TWO_SIDED, False, _levy_normalization),
    ),
    *_claims(
        "covariance",
        ("covariance-closed-form", TWO_SIDED, False, _closed_form),
        ("simulator-agreement", TWO_SIDED, True, _agreement),
        ("sheet-variance-bias", TWO_SIDED, False, _sheet_bias),
    ),
    *_claims(
        "localtime",
        ("local-time-mean-bridge", TWO_SIDED, True, _estimate, "bridge_mean", "exp_bridge"),
        ("bridge-mean-value", TWO_SIDED, True, _value, "bridge_mean", "exp_bridge", 1, 0.05),
        ("local-time-mean-heat-short", TWO_SIDED, True, _heat_mean, 0),
        ("local-time-mean-heat-long", TWO_SIDED, True, _heat_mean, 1),
        ("bridge-second-moment", TWO_SIDED, True, _estimate, "bridge_m2", "bridge_q2"),
        ("bridge-second-moment-value", TWO_SIDED, True, _value, "bridge_m2", "exp_bridge", 2, 0.10),
        ("second-moment-monotone", BOUND, False, _second_moment_monotone),
        ("motion-endpoint-moments", TWO_SIDED, True, _endpoint_moments),
        ("levy-conditional-mean", TWO_SIDED, True, _estimate, "window_mean", "exp_window"),
        ("levy-conditional-value", TWO_SIDED, True, _value, "window_mean", "exp_window", 1, 0.05),
        ("cauchy-monotone-bridge", BOUND, True, _cauchy, "bridge"),
        ("cauchy-monotone-heat-short", BOUND, True, _cauchy, "heat", 0),
        ("cauchy-monotone-heat-long", BOUND, True, _cauchy, "heat", 1),
    ),
)


def _report(claim: Claim, inputs: _Inputs) -> SuiteReport:
    """Build, time and report one claim, applying the insufficient-power rule."""
    t0 = time.perf_counter()
    insufficient = claim.sampled and inputs.config.replicates < 2
    try:
        numbers = claim.build(inputs, *claim.params)
    except _TooFewDraws as short:
        numbers, insufficient = short.args, True
    make = two_sided_report if claim.kind == TWO_SIDED else bound_report
    report = make(claim.claim_id, *numbers, insufficient=insufficient)
    report.runtime_ms = (time.perf_counter() - t0) * 1e3
    return report


def _run_block(block: str, config: RunConfig) -> list[SuiteReport]:
    inputs = _Inputs(config)
    return [_report(claim, inputs) for claim in CLAIMS if claim.block == block]


def spectral_reports(config: RunConfig) -> list[SuiteReport]:
    return _run_block("spectral", config)


def gram_reports(config: RunConfig) -> list[SuiteReport]:
    return _run_block("gram", config)


def moment_reports(config: RunConfig) -> list[SuiteReport]:
    return _run_block("moments", config)


def covariance_reports(config: RunConfig) -> list[SuiteReport]:
    return _run_block("covariance", config)


def localtime_reports(config: RunConfig) -> list[SuiteReport]:
    _check_suite_config(config)
    return _run_block("localtime", config)


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
