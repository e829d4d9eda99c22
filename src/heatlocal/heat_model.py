"""The fixed-time solution field of the white-noise heat equation.

At observation time 1 the solution is a centred stationary Gaussian field
with covariance

    R(d) = exp(-d^2/4)/sqrt(pi) - (|d|/2) erfc(|d|/2),

obtained by integrating the squared heat kernel over the driving time.  The
objects of interest are increments of that field relative to the left
endpoint of an interval.  Two independent Monte Carlo tasks sample them at
a few points; each is a block form that draws a range of replicates in
one call, wrapped as :class:`heatlocal.mc.Task`.  A replicate's normals are
its fixed-width row of :func:`heatlocal.sampling.normals_block`, not the
head of its path stream, so a block reads them all in one call.  The
Cholesky route factors the increment covariance built from R.  The sheet
route never uses R: it discretises the driving sheet, sums the
heat-kernel Riemann sums into the exact covariance K K^T of the
discretised field, and samples that law through its Cholesky factor.
The circulant-embedding weights behind the uniform-grid heat paths of
:mod:`heatlocal.local_time` live here too.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np
from scipy import special

from .errors import CutoffTooCoarse, NonPositiveTime
from .grids import SpatialGrid
from .mc import Task
from .sampling import circulant_embedding_weights, jittered_cholesky, normals_block

SQRT_PI = np.sqrt(np.pi)

# the driving-sheet discretisation: (time rows, spatial columns), the
# spatial pad beyond the evaluation points, and how far short of the
# observation time the rows stop
_SHEET_RESOLUTION = (128, 2304)
_SPATIAL_CUTOFF = 6.0 * np.sqrt(2.0)
_TIME_CUTOFF = 1e-4

__all__ = [
    "SQRT_PI",
    "heat_kernel",
    "covariance_R",
    "covariance_R_quadrature",
    "increment_covariance",
    "SheetOperator",
    "build_sheet_operator",
    "sheet_variance_bias",
    "path_increment_rows",
    "path_increment_replicate",
    "weighted_increment_square_rows",
    "weighted_increment_square",
    "sheet_increment_rows",
    "sheet_increment_replicate",
]


def heat_kernel(t: float, u) -> np.ndarray:
    """Gaussian heat kernel p_t(u) = exp(-u^2/(2t)) / sqrt(2 pi t)."""
    if t <= 0.0:
        raise NonPositiveTime(f"heat kernel needs t > 0, got {t}")
    u = np.asarray(u, dtype=float)
    return np.exp(-u * u / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)


def covariance_R(d) -> np.ndarray:
    """Stationary covariance of the time-1 solution field at lag d.

    Closed form; its agreement with the brute-force double quadrature
    :func:`covariance_R_quadrature` is enforced by the test suite, not by a
    runtime branch.  R(0) = 1/sqrt(pi).  The Gaussian term reads the lag
    clamped at 64, where exp(-d^2/4) is already 0, so no lag squares past
    the float range.
    """
    d = np.abs(np.asarray(d, dtype=float))
    g = np.minimum(d, 64.0)
    return np.exp(-g * g / 4.0) / SQRT_PI - (d / 2.0) * special.erfc(d / 2.0)


@cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order.

    Each rule is an eigen-solve, so it is built on first use, not at import.
    """
    return np.polynomial.legendre.leggauss(order)


def covariance_R_quadrature(d: float) -> float:
    """Brute-force oracle for :func:`covariance_R`.

    Integrates p_{1-s}(u-v) p_{1-s}(u'-v) over v and s directly, with the
    substitution s = 1 - tau^2 to flatten the endpoint and a spatial window
    that tracks the kernel-product width 12 sqrt(t/2) around its centre.
    """
    d = float(abs(d))
    xt, wt = _gauss_legendre(240)
    tau = 0.5 * (xt + 1.0)
    wtau = 0.5 * wt
    xv, wv = _gauss_legendre(96)
    total = 0.0
    for t_, w_ in zip(tau, wtau):
        t = t_ * t_
        if t == 0.0:
            continue
        half = 12.0 * np.sqrt(t / 2.0)
        v = d / 2.0 + half * xv
        k1 = np.exp(-v * v / (2.0 * t))
        k2 = np.exp(-(d - v) ** 2 / (2.0 * t))
        inner = half * np.sum(wv * k1 * k2) / (2.0 * np.pi * t)
        total += w_ * 2.0 * t_ * inner
    return total


def increment_covariance(u, v, base: float) -> np.ndarray:
    """Covariance of field increments taken from the base point.

    Cov(x(u) - x(base), x(v) - x(base)) expressed through R; vanishes
    whenever u or v equals the base.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (
        covariance_R(u - v)
        - covariance_R(u - base)
        - covariance_R(v - base)
        + covariance_R(0.0)
    )


@lru_cache(maxsize=8)
def _embedding_weights(n: int, spacing: float) -> np.ndarray:
    # pad to a power of two: keeps the FFT fast and the first n x n block exact
    m = 1
    while m < 2 * (n - 1):
        m *= 2
    lags = np.arange(m // 2 + 1) * spacing
    return circulant_embedding_weights(covariance_R(lags))


class SheetOperator:
    """Exact-law sampler of the discretised driving-sheet field.

    Discretises the driving space-time white noise into rectangular cells
    (time rows refined toward the observation time by a square-root
    substitution) with the kernel weights

        K[g, cell] = p_{1-s}(u_g - v) sqrt(dv ds).

    The discretised field K z, z standard normal, is Gaussian with
    covariance G = K K^T: the Riemann-sum approximation of the field
    covariance truncated delta short of the observation time.  Only G is
    kept, accumulated one time row at a time, and a replicate is L z for
    the Cholesky factor L of G and one normal per evaluation point.  K
    itself is never stored.
    """

    def __init__(self, grid: SpatialGrid):
        n_time, n_space = _SHEET_RESOLUTION
        pts = grid.points
        base = grid.interval[0]
        eval_pts = pts if pts[0] == base else np.concatenate(([base], pts))
        delta = _TIME_CUTOFF

        # time rows: uniform in rho = sqrt(1 - s), midpoint evaluation
        rho = np.linspace(np.sqrt(delta), 1.0, n_time + 1)
        ds = rho[1:] ** 2 - rho[:-1] ** 2
        rho_mid = 0.5 * (rho[1:] + rho[:-1])
        t_mid = rho_mid**2  # time-to-observation of each row

        # spatial columns: uniform cells covering the grid plus the cutoff pad
        lo = eval_pts[0] - _SPATIAL_CUTOFF
        hi = eval_pts[-1] + _SPATIAL_CUTOFF
        edges = np.linspace(lo, hi, n_space + 1)
        dv = edges[1] - edges[0]
        v_mid = 0.5 * (edges[1:] + edges[:-1])

        # smallest kernel width must stay resolved by the spatial cells:
        # the Riemann-sum aliasing error of a row scales like
        # exp(-pi^2 t / dv^2), so dv <= sqrt(delta) keeps every row below
        # 1e-4 relative and the thin near-cutoff rows contribute ~1e-8
        min_width = np.sqrt(delta)
        if dv > min_width:
            raise CutoffTooCoarse(
                f"spatial cell {dv:.4g} too wide for kernel width {min_width:.4g}"
            )

        # G = K K^T, one time row of K at a time; einsum rather than BLAS
        # keeps G bit-identical whatever the process's BLAS thread count
        gram = np.zeros((eval_pts.size, eval_pts.size))
        for t, w in zip(t_mid, ds):
            block = heat_kernel(t, eval_pts[:, None] - v_mid[None, :]) * np.sqrt(dv * w)
            gram += np.einsum("ik,jk->ij", block, block)
        self.gram = gram
        self.factor, self.jitter = jittered_cholesky(gram)


@lru_cache(maxsize=8)
def _increment_cholesky(points: tuple, interval: tuple) -> np.ndarray:
    pts = np.array(points)
    base = interval[0]
    c = increment_covariance(pts[:, None], pts[None, :], base)
    L, _ = jittered_cholesky(0.5 * (c + c.T))
    return L


def path_increment_rows(
    master_seed: int, start: int, stop: int, points: tuple, interval: tuple
) -> np.ndarray:
    """Cholesky-route increment samples, one row per replicate index in start..stop-1.

    ``points`` must avoid the interval base, where the increment is
    identically zero; the factor is cached per process so large replicate
    counts do not refactor the same matrix.  The stacked product gives
    each row the bytes of ``L @ z``; ``z @ L.T`` would not.
    """
    L = _increment_cholesky(tuple(points), tuple(interval))
    z = normals_block(master_seed, start, stop, L.shape[0])
    return np.matmul(L, z[:, :, None])[:, :, 0]


path_increment_replicate = Task(path_increment_rows)


def weighted_increment_square_rows(
    master_seed: int, start: int, stop: int, points: tuple, coeffs: tuple, interval: tuple
) -> np.ndarray:
    """Squared weighted increment sums, one row per replicate index in start..stop-1.

    ``points`` are the step-function breakpoints above the interval base;
    the increment over the leading cell uses the exact zero at the base.
    The mean of this statistic is the quadratic form of the step function.
    Each row's sum is a vector-vector product, which gives it the bytes of
    ``np.dot``.
    """
    vals = path_increment_rows(master_seed, start, stop, points, interval)
    steps = np.diff(vals, axis=1, prepend=0.0)
    s = np.matmul(steps[:, None, :], np.asarray(coeffs, dtype=float))
    return s * s


weighted_increment_square = Task(weighted_increment_square_rows)


def build_sheet_operator(grid: SpatialGrid) -> SheetOperator:
    """Sheet operator for the grid at the package's fixed discretisation."""
    return SheetOperator(grid)


@lru_cache(maxsize=4)
def _sheet_operator_cached(points: tuple, interval: tuple) -> SheetOperator:
    return build_sheet_operator(SpatialGrid(np.array(points), interval))


def sheet_increment_rows(
    master_seed: int, start: int, stop: int, points: tuple, interval: tuple
) -> np.ndarray:
    """Sheet-route increment samples, one row per replicate index in start..stop-1.

    Independent of the covariance route: the only inputs are the heat
    kernel and cell noise.  The operator is built once per process and
    cached, so only the points travel with the task.  Each row is the
    field at the points minus the field at the interval base; a point at
    the base gets exactly zero.
    """
    op = _sheet_operator_cached(tuple(points), tuple(interval))
    z = normals_block(master_seed, start, stop, op.factor.shape[0])
    # einsum rather than BLAS, as for G: the rows do not depend on the
    # process's BLAS thread count; the field leads with the base value
    field = np.einsum("ij,bj->bi", op.factor, z)
    return field[:, -len(points) :] - field[:, :1]


sheet_increment_replicate = Task(sheet_increment_rows)


def sheet_variance_bias() -> float:
    """Field-variance deficit caused by stopping the sheet delta short in time.

    Equals the tail integral of the squared-kernel mass: sqrt(delta)/sqrt(pi).
    """
    return float(np.sqrt(_TIME_CUTOFF) / SQRT_PI)
