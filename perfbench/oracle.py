"""Reference values the benchmark computes apart from heatlocal.

Nothing here imports the program.  The field covariance comes from its
defining integral R(d) = int_0^1 p_{2t}(d) dt, never from the closed form
in ``heat_model``; the substitution t = tau^2 turns it into
(1/sqrt(pi)) int_0^1 exp(-d^2 / (4 tau^2)) d tau, whose integrand is
smooth on [0, 1].
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate

_QUAD = {"epsabs": 1e-14, "epsrel": 1e-12, "limit": 200}


def _tau_integral(f, d: float) -> float:
    """int_0^1 f(tau) d tau for an integrand that turns over near tau = d/2.

    The breakpoints keep the adaptive rule from stepping over that turn
    when d is small.  The rule never evaluates an end point, so f need not
    be defined at tau = 0.
    """
    edges = [0.0] + [e for e in (d / 8.0, d / 2.0, 4.0 * d) if e < 1.0] + [1.0]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        val, _ = integrate.quad(f, a, b, **_QUAD)
        total += val
    return total


@lru_cache(maxsize=None)
def covariance(d: float) -> float:
    """R(d) by quadrature of its defining integral."""
    d = abs(float(d))
    if d == 0.0:
        return 1.0 / math.sqrt(math.pi)
    return _tau_integral(lambda tau: math.exp(-d * d / (4.0 * tau * tau)), d) / math.sqrt(math.pi)


@lru_cache(maxsize=None)
def increment_variance(s: float) -> float:
    """Var(x(s) - x(0)) = 2 (R(0) - R(s)), without cancellation for small s."""
    s = abs(float(s))
    if s == 0.0:
        return 0.0
    val = _tau_integral(lambda tau: -math.expm1(-s * s / (4.0 * tau * tau)), s)
    return 2.0 * val / math.sqrt(math.pi)


def _smoothed_mean(variance, lo: float, hi: float, eps: float, z: float) -> float:
    def integrand(s: float) -> float:
        v = variance(s) + eps
        return math.exp(-z * z / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)

    val, _ = integrate.quad(integrand, lo, hi, **_QUAD)
    return val


def heat_smoothed_mean(interval: tuple[float, float], eps: float, z: float = 0.0) -> float:
    """E V_eps of the heat increment field on ``interval`` (base = left end)."""
    lo, hi = interval
    return _smoothed_mean(lambda s: increment_variance(s - lo), lo, hi, eps, z)


def bridge_smoothed_mean(eps: float, z: float = 0.0) -> float:
    """E V_eps of the Brownian bridge on [0, 1]."""
    return _smoothed_mean(lambda s: s * (1.0 - s), 0.0, 1.0, eps, z)


def bridge_moment(k: int) -> float:
    """k-th moment of the bridge local time at 0: 2^(k/2) Gamma(k/2 + 1)."""
    return 2.0 ** (k / 2.0) * math.gamma(k / 2.0 + 1.0)


def increment_covariance(points, base: float) -> np.ndarray:
    """Cov(x(u) - x(base), x(v) - x(base)) for all pairs of ``points``."""
    pts = [float(p) for p in points]
    r0 = covariance(0.0)
    out = np.empty((len(pts), len(pts)))
    for i, u in enumerate(pts):
        for j, v in enumerate(pts):
            out[i, j] = covariance(u - v) - covariance(u - base) - covariance(v - base) + r0
    return out


def sheet_cutoff_bias(time_cutoff: float) -> float:
    """Variance the sheet route loses per lag-0 term: sqrt(delta)/sqrt(pi)."""
    return math.sqrt(time_cutoff) / math.sqrt(math.pi)


def sample_moments(raw: np.ndarray) -> dict:
    """Means, covariance and the standard errors of both, per coordinate."""
    n = raw.shape[0]
    mean = raw.mean(axis=0)
    centered = raw - mean
    cov = centered.T @ centered / (n - 1)
    dim = raw.shape[1]
    cov_se = np.empty((dim, dim))
    for i in range(dim):
        cov_se[i] = np.std(centered[:, i, None] * centered, axis=0, ddof=1) / math.sqrt(n)
    return {
        "n": n,
        "mean": mean.tolist(),
        "mean_se": (np.std(raw, axis=0, ddof=1) / math.sqrt(n)).tolist(),
        "cov": cov.tolist(),
        "cov_se": cov_se.tolist(),
    }
