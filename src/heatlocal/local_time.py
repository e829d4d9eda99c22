"""Kernel-smoothed local times and their exact moment identities.

The estimator replaces the occupation density of a path at level z by the
time integral of a Gaussian kernel of variance epsilon centred at the
path.  Its mean is available in closed quadrature form for every process
here (Brownian bridge, Brownian motion, and the heat-field increment
process), which is what the Monte Carlo identities test against.

Moment references:

* bridge local time at level 0 has k-th moment 2^(k/2) Gamma(k/2 + 1);
* the running-maximum pair (local time, endpoint) of Brownian motion has
  the joint density (2 pi)^(-1/2) (|b| + a) exp(-(|b| + a)^2 / 2), a > 0;
* conditioning the motion on a small terminal window reproduces the
  bridge moments.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .errors import (
    BandwidthTooSmall,
    NonPositiveA,
    SingularCovariance,
    UnknownProcess,
    UnsupportedOrder,
)
from .heat_model import _embedding_weights, covariance_R, increment_covariance
from .sampling import SeedSpec, sample_stationary_values


def bandwidth_floor(span: float, n: int) -> float:
    """Smallest bandwidth the n-point uniform grid of a span resolves.

    The kernel bandwidth (variance units) must cover several grid cells
    for the trapezoid occupation sum to resolve the path: 4 x spacing.
    """
    return 4.0 * span / (n - 1)


def marginal_variance(process_tag: str, s, interval: tuple[float, float]) -> np.ndarray:
    """Variance of the process at parameter s (vectorised)."""
    s = np.asarray(s, dtype=float)
    if process_tag == "bridge":
        return s * (1.0 - s)
    if process_tag == "motion":
        return s
    if process_tag == "heat":
        base = interval[0]
        return 2.0 * (covariance_R(0.0) - covariance_R(s - base))
    raise UnknownProcess(f"unknown process tag {process_tag!r}")


def pair_covariance(process_tag: str, s, t, interval: tuple[float, float]) -> float:
    if process_tag == "bridge":
        return float(min(s, t) * (1.0 - max(s, t)))
    if process_tag == "motion":
        return float(min(s, t))
    if process_tag == "heat":
        return float(increment_covariance(s, t, interval[0]))
    raise UnknownProcess(f"unknown process tag {process_tag!r}")


def process_interval(
    process_tag: str, interval: tuple[float, float] | None = None
) -> tuple[float, float]:
    """The parameter interval a process runs on.

    Bridge and motion always run on [0, 1] and ignore ``interval``; the
    heat process needs an explicit one.
    """
    if process_tag in ("bridge", "motion"):
        return (0.0, 1.0)
    if process_tag == "heat":
        if interval is None:
            raise ValueError("heat process needs an explicit interval")
        return (float(interval[0]), float(interval[1]))
    raise UnknownProcess(f"unknown process tag {process_tag!r}")


def expected_smoothed_local_time(
    process_tag: str,
    z: float = 0.0,
    eps: float = 0.0,
    interval: tuple[float, float] | None = None,
) -> float:
    """Mean of the smoothed estimator: integral of p_(var(s)+eps)(z) ds.

    eps = 0 gives the mean of the exact local time; the integrable
    square-root endpoint singularities are left to the adaptive rule.
    """
    if eps < 0.0:
        raise ValueError("bandwidth must be nonnegative")
    lo, hi = process_interval(process_tag, interval)

    def integrand(s: float) -> float:
        v = float(marginal_variance(process_tag, s, (lo, hi))) + eps
        if v <= 0.0:
            return 0.0
        return float(np.exp(-z * z / (2.0 * v)) / np.sqrt(2.0 * np.pi * v))

    val, _ = integrate.quad(integrand, lo, hi, limit=400)
    return float(val)


def bridge_moment_exact(k: int) -> float:
    """k-th moment of the bridge local time at level 0: 2^(k/2) Gamma(k/2+1)."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise UnsupportedOrder(f"moment order must be a positive integer, got {k}")
    return float(2.0 ** (k / 2.0) * special.gamma(k / 2.0 + 1.0))


def levy_joint_density(a, b) -> np.ndarray:
    """Joint density of (local time at 0 over [0,1], endpoint) for motion.

    p(a, b) = (2 pi)^{-1/2} (|b| + a) exp(-(|b| + a)^2 / 2) for a > 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0):
        raise NonPositiveA("local-time argument must be positive")
    s = np.abs(b) + a
    return s * np.exp(-s * s / 2.0) / np.sqrt(2.0 * np.pi)


def levy_density_normalization() -> float:
    """Total mass of the joint density, by nested quadrature (should be 1)."""

    def inner(a: float) -> float:
        val, _ = integrate.quad(
            lambda b: float(levy_joint_density(a, b)), 0.0, np.inf, limit=200
        )
        return 2.0 * val  # even in b

    val, _ = integrate.quad(inner, 1e-12, np.inf, limit=200)
    return float(val)


def conditional_moment(k: int) -> float:
    """k-th conditional moment of the motion's local time given a zero end.

    Evaluated by quadrature of the one-dimensional ratio
    int y^(k+1) e^(-y^2/2) dy / int y e^(-y^2/2) dy over (0, inf); agrees
    with bridge_moment_exact to quadrature accuracy.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise UnsupportedOrder(f"moment order must be a positive integer, got {k}")
    num, _ = integrate.quad(lambda y: y ** (k + 1) * np.exp(-y * y / 2.0), 0.0, np.inf)
    den, _ = integrate.quad(lambda y: y * np.exp(-y * y / 2.0), 0.0, np.inf)
    return float(num / den)


def second_moment_via_density(
    process_tag: str,
    z: float,
    eps1: float,
    eps2: float,
    interval: tuple[float, float] | None = None,
) -> float:
    """E[V_eps1 V_eps2] by 2-d quadrature of the smoothed pair density.

    The integrand is the bivariate normal density of the two smoothed
    marginals at (z, z); its covariance is the process pair covariance
    plus diag(eps1, eps2).  SingularCovariance is raised if the
    determinant degenerates below 1e-14 anywhere the rule evaluates.
    """
    lo, hi = process_interval(process_tag, interval)

    def density(v1: float, v2: float) -> float:
        s11 = float(marginal_variance(process_tag, v1, (lo, hi))) + eps1
        s22 = float(marginal_variance(process_tag, v2, (lo, hi))) + eps2
        s12 = pair_covariance(process_tag, v1, v2, (lo, hi))
        det = s11 * s22 - s12 * s12
        if det < 1e-14:
            raise SingularCovariance(
                f"two-point covariance determinant {det:.3e} at ({v1:.4f}, {v2:.4f})"
            )
        quad_form = (
            z * z * (s11 + s22 - 2.0 * s12) / det
        )  # [z, z] Sigma^{-1} [z, z]^T expanded
        return float(np.exp(-0.5 * quad_form) / (2.0 * np.pi * np.sqrt(det)))

    def inner(v2: float) -> float:
        left, _ = integrate.quad(lambda v1: density(v1, v2), lo, v2, limit=200)
        right, _ = integrate.quad(lambda v1: density(v1, v2), v2, hi, limit=200)
        return left + right

    val, _ = integrate.quad(inner, lo, hi, limit=200)
    return float(val)


def expected_cauchy_gap(
    process_tag: str,
    z: float,
    eps1: float,
    eps2: float,
    interval: tuple[float, float] | None = None,
) -> float:
    """E (V_eps1 - V_eps2)^2 from the three second moments."""
    return (
        second_moment_via_density(process_tag, z, eps1, eps1, interval)
        - 2.0 * second_moment_via_density(process_tag, z, eps1, eps2, interval)
        + second_moment_via_density(process_tag, z, eps2, eps2, interval)
    )


def expected_motion_local_time_in_window(eps: float, window: float) -> float:
    """E[V_eps | |w(1)| < window] for Brownian motion, by 2-d quadrature.

    Conditioned on the endpoint b, the motion at time s is N(s b, s(1-s)),
    so the smoothed mean is the bridge-variance kernel evaluated off-centre.
    """
    if window <= 0.0:
        raise ValueError("window must be positive")

    def mean_given_endpoint(b: float) -> float:
        def integrand(s: float) -> float:
            v = s * (1.0 - s) + eps
            if v <= 0.0:
                return 0.0
            return float(np.exp(-((s * b) ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v))

        val, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
        return val

    phi = lambda b: np.exp(-b * b / 2.0) / np.sqrt(2.0 * np.pi)
    num, _ = integrate.quad(lambda b: phi(b) * mean_given_endpoint(b), 0.0, window, limit=100)
    den, _ = integrate.quad(phi, 0.0, window, limit=100)
    return float(num / den)  # even integrands: the factor 2 cancels


# ---------------------------------------------------------------------------
# fast per-replicate path generators for the Monte Carlo engine


@lru_cache(maxsize=16)
def _uniform_points(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)


@lru_cache(maxsize=16)
def _trapezoid_weights(lo: float, hi: float, n: int) -> np.ndarray:
    w = np.full(n, (hi - lo) / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def motion_values(seed: SeedSpec, n: int) -> np.ndarray:
    """w on the uniform n-point grid of [0, 1] by exact increments."""
    pts = _uniform_points(0.0, 1.0, n)
    dt = pts[1] - pts[0]
    z = seed.rng().standard_normal(n - 1)
    w = np.empty(n)
    w[0] = 0.0
    np.cumsum(z * np.sqrt(dt), out=w[1:])
    return w


def bridge_values(seed: SeedSpec, n: int) -> np.ndarray:
    """w(t) - t w(1) on the uniform n-point grid of [0, 1]; exact in law."""
    pts = _uniform_points(0.0, 1.0, n)
    w = motion_values(seed, n)
    return w - pts * w[-1]


def heat_values(seed: SeedSpec, n: int, lo: float, hi: float) -> np.ndarray:
    """Increment field on the uniform n-point grid of [lo, hi], exact in law."""
    spacing = (hi - lo) / (n - 1)
    weights = _embedding_weights(n, spacing)
    x = sample_stationary_values(weights, seed, n)
    return x - x[0]


def path_values(
    process_tag: str, seed: SeedSpec, n: int, interval: tuple[float, float]
) -> np.ndarray:
    if process_tag == "bridge":
        return bridge_values(seed, n)
    if process_tag == "motion":
        return motion_values(seed, n)
    if process_tag == "heat":
        return heat_values(seed, n, interval[0], interval[1])
    raise UnknownProcess(f"unknown process tag {process_tag!r}")


def smoothed_values(
    values: np.ndarray, trap_w: np.ndarray, z: float, schedule: tuple[float, ...]
) -> np.ndarray:
    """V_eps for every eps in the schedule, sharing one path.

    V_eps = sum(trap_w exp(-(x - z)^2 / 2 eps)) / sqrt(2 pi eps).  When eps
    is exactly half the previous bandwidth its kernel is the square of the
    previous kernel, so a dyadic schedule pays for one exp; any other step
    computes its exp afresh.
    """
    neg_y2 = -((values - z) ** 2)
    kernel = np.empty_like(neg_y2)
    weighted = np.empty_like(neg_y2)
    out = np.empty(len(schedule))
    for i, eps in enumerate(schedule):
        if i > 0 and schedule[i - 1] == 2.0 * eps:
            np.multiply(kernel, kernel, out=kernel)
        else:
            np.exp(np.divide(neg_y2, 2.0 * eps, out=kernel), out=kernel)
        np.multiply(trap_w, kernel, out=weighted)
        out[i] = float(np.sum(weighted) / np.sqrt(2.0 * np.pi * eps))
    return out


def local_time_replicate(
    seed: SeedSpec,
    process_tag: str,
    n: int,
    interval: tuple[float, float],
    z: float,
    schedule: tuple[float, ...],
) -> np.ndarray:
    """One replicate for the local-time suite.

    Returns the schedule's V_eps values followed by the squared gaps of
    consecutive pairs (paired on this single path).
    """
    lo, hi = interval
    floor = bandwidth_floor(hi - lo, n)
    if min(schedule) < floor:
        raise BandwidthTooSmall(
            f"schedule minimum {min(schedule):.3e} below floor {floor:.3e}"
        )
    vals = path_values(process_tag, seed, n, interval)
    trap_w = _trapezoid_weights(lo, hi, n)
    v = smoothed_values(vals, trap_w, z, schedule)
    gaps = np.diff(v) ** 2
    return np.concatenate([v, gaps])


def motion_endpoint_replicate(
    seed: SeedSpec, n: int, z: float, extra_eps: float
) -> np.ndarray:
    """Motion replicate carrying the endpoint for conditional statistics.

    Returns (V at extra_eps, w(1)).
    """
    floor = bandwidth_floor(1.0, n)
    if extra_eps < floor:
        raise BandwidthTooSmall(
            f"bandwidth {extra_eps:.3e} below resolution floor {floor:.3e} for {n} grid points"
        )
    vals = motion_values(seed, n)
    trap_w = _trapezoid_weights(0.0, 1.0, n)
    v_extra = smoothed_values(vals, trap_w, z, (extra_eps,))
    return np.concatenate([v_extra, [vals[-1]]])
