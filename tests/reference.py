"""Reference routes the package's samplers and quadratures are tested against.

The package samples each process by one exact route: increments for the
motion and the bridge, circulant embedding for the heat field.  The
covariance route here draws a centred Gaussian vector as L z, for the
Cholesky factor L of its covariance matrix and the seed's fixed-width row
of standard normals z, as the package's Cholesky route does; the closed
form gives the simplex integrals that the quadratures in ``heatlocal.gram``
must hit; and a finite sum gives the exact mean of the smoothed local time
on a grid, which each multilevel heat level must hit.  pytest does not
collect this module; tests import from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from heatlocal.local_time import marginal_variance, process_interval
from heatlocal.sampling import SeedSpec, jittered_cholesky, normals_block


@dataclass
class CovarianceMatrix:
    """Symmetric PSD matrix, symmetrised on construction."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance must be square")
        scale = np.max(np.abs(m)) if m.size else 0.0
        if scale > 0 and np.max(np.abs(m - m.T)) > 1e-10 * scale:
            raise ValueError("covariance must be symmetric")
        self.entries = 0.5 * (m + m.T)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def sample_gaussian_vector(cov: CovarianceMatrix, seed: SeedSpec) -> np.ndarray:
    """Draw one centred Gaussian vector with the given covariance.

    The draw is ``L z`` for the (jittered) Cholesky factor ``L`` and the
    seed's fixed-width row ``z`` of standard normals.
    """
    L, _ = jittered_cholesky(cov.entries)
    i = int(seed.replicate_index)
    z = normals_block(seed.master_seed, i, i + 1, cov.dim)[0]
    return L @ z


def brownian_bridge_covariance(points) -> CovarianceMatrix:
    """Bridge covariance min(s, t) (1 - max(s, t)) on times in [0, 1]."""
    t = np.asarray(points, dtype=float)
    if t[0] < 0.0 or t[-1] > 1.0:
        raise ValueError("bridge grid must lie in [0, 1]")
    c = np.minimum.outer(t, t) * (1.0 - np.maximum.outer(t, t))
    return CovarianceMatrix(c)


def sample_brownian_bridge(points, seed: SeedSpec) -> np.ndarray:
    """Brownian bridge on [0, 1] via its covariance matrix.

    The reference route the fast ``local_time.bridge_values`` is tested
    against.  ``points`` must lie in [0, 1]; values at t = 0 and t = 1 are
    exactly zero, and interior points are drawn jointly from the s(1-t)
    covariance through :func:`sample_gaussian_vector`.
    """
    t = np.asarray(points, dtype=float)
    values = np.zeros(t.size)
    interior = (t != 0.0) & (t != 1.0)
    if np.any(interior):
        cov = brownian_bridge_covariance(t[interior])
        values[interior] = sample_gaussian_vector(cov, seed)
    return values


def simplex_integral_closed_form(k: int) -> float:
    """pi^((k+1)/2) / Gamma((k+1)/2); the value the quadratures must hit."""
    return float(np.pi ** ((k + 1) / 2.0) / special.gamma((k + 1) / 2.0))


def grid_smoothed_mean(process, interval, n: int, eps: float, z: float = 0.0) -> float:
    """Exact mean of the trapezoid estimator V_eps on the uniform n-point grid.

    The sum over the grid points t_j of w_j (2 pi (var(t_j) + eps))^(-1/2)
    exp(-z^2 / (2 (var(t_j) + eps))), with w the trapezoid weights: every
    simulated path is exact in law at its grid points, so this is the
    estimator's mean to rounding, where
    ``local_time.expected_smoothed_local_time`` is its grid-free limit.
    """
    lo, hi = process_interval(process, interval)
    w = np.full(n, (hi - lo) / (n - 1))
    w[[0, -1]] *= 0.5
    v = marginal_variance(process, np.linspace(lo, hi, n), (lo, hi)) + eps
    return float(np.sum(w * np.exp(-z * z / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)))
