"""Gram determinants, projection identities, and the simplex integrals.

Families of Hilbert-space elements are represented as coordinate rows in a
finite orthonormal system; inner products are plain dot products.  Step
functions and indicators live on a shared fine cell grid (1024 cells by
default) with coordinates scaled by the root cell width so that dot
products equal L2 inner products.

The Dirichlet-type simplex integral

    int_{0 < v_1 < ... < v_k < 1} dv / sqrt(v_1 (v_2 - v_1) ... (1 - v_k))

ties the indicator Gram determinants to the moments of the bridge local
time; it is evaluated by weighted quadrature for k <= 2 and by importance
sampling for k = 3, 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import (
    BasisNotOrthonormal,
    DegenerateFamily,
    NearSingular,
    OrderViolation,
    UnsupportedOrder,
)
from .reports import SuiteReport, two_sided_report
from .sampling import SeedSpec, jittered_cholesky

DEFAULT_CELLS = 1024


@dataclass(frozen=True)
class VectorFamily:
    """Rows are coordinate vectors of equal dimension."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.size == 0:
            raise ValueError("vectors must form a nonempty 2-d array")
        object.__setattr__(self, "vectors", v)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def append(self, extra: np.ndarray) -> "VectorFamily":
        extra = np.atleast_2d(np.asarray(extra, dtype=float))
        return VectorFamily(np.vstack([self.vectors, extra]))


def gram_det(family: VectorFamily) -> float:
    """Gram determinant via jittered Cholesky with log accumulation.

    Exactly singular families come back as order-1e-14 values (the jitter
    floor), which the callers treat as zero.  Log accumulation keeps
    determinants of up to eight long vectors away from underflow.
    """
    v = family.vectors
    g = v @ v.T
    L, _ = jittered_cholesky(0.5 * (g + g.T))
    diag = np.diag(L)
    if np.any(diag <= 0.0):
        return 0.0
    return float(math.exp(2.0 * float(np.sum(np.log(diag)))))


def gram_indicators(times, base: float = 0.0) -> float:
    """Gram determinant of the running indicators 1_[base, t_i].

    Equals the product of consecutive gaps
    (t_1 - base)(t_2 - t_1) ... (t_k - t_{k-1}) exactly.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise OrderViolation("need at least one time point")
    gaps = np.diff(np.concatenate(([base], t)))
    if np.any(gaps <= 0.0):
        raise OrderViolation(f"times must be strictly increasing above base {base}")
    return float(np.prod(gaps))


class CellGrid:
    """Uniform cells on an interval with root-width coordinate scaling."""

    def __init__(self, n_cells: int = DEFAULT_CELLS, interval: tuple[float, float] = (0.0, 1.0)):
        if n_cells < 1:
            raise ValueError("need at least one cell")
        self.n_cells = int(n_cells)
        self.interval = (float(interval[0]), float(interval[1]))
        self.width = (self.interval[1] - self.interval[0]) / self.n_cells
        if self.width <= 0.0:
            raise ValueError("empty interval")

    def centers(self) -> np.ndarray:
        lo = self.interval[0]
        return lo + self.width * (np.arange(self.n_cells) + 0.5)

    def discretize(self, fn) -> np.ndarray:
        """Coordinates of the cell-averaged (midpoint) representation of fn."""
        return np.asarray(fn(self.centers()), dtype=float) * np.sqrt(self.width)

    def indicator(self, t: float) -> np.ndarray:
        """Coordinates of the projection of 1_[interval start, t] onto the cells."""
        lo, hi = self.interval
        if not lo < t <= hi + 1e-12:
            raise OrderViolation(f"indicator endpoint {t} outside {self.interval}")
        frac = np.clip((t - lo) / self.width - np.arange(self.n_cells), 0.0, 1.0)
        return frac * np.sqrt(self.width)


def orthonormalize(rows: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Gram-Schmidt rows; raises DegenerateFamily if a row collapses."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float)).copy()
    out = []
    for r in rows:
        for q in out:
            r = r - np.dot(r, q) * q
        nrm = np.linalg.norm(r)
        if nrm < tol:
            raise DegenerateFamily("row became numerically zero during orthonormalisation")
        out.append(r / nrm)
    return np.array(out)


def projection_identity_values(
    g_family: VectorFamily, basis: VectorFamily
) -> tuple[float, float]:
    """Both sides of the projection identity.

    Left: Gram determinant of the g's with their components along the
    orthonormal basis removed.  Right: Gram determinant of the g's and the
    basis elements together.  The two are equal in exact arithmetic.
    """
    E = basis.vectors
    gram_e = E @ E.T
    if np.max(np.abs(gram_e - np.eye(basis.count))) > 1e-10:
        raise BasisNotOrthonormal("basis Gram matrix deviates from identity above 1e-10")
    G = g_family.vectors
    projected = G - (G @ E.T) @ E
    lhs = gram_det(VectorFamily(projected))
    rhs = gram_det(g_family.append(E))
    return lhs, rhs


def invertible_gram_values(matrix: np.ndarray, family: VectorFamily) -> tuple[float, float]:
    """Transformed Gram determinant and its invertibility floor.

    Returns (G(A e_1, ..., A e_n), sigma_min(A)^(2n) G(e_1, ..., e_n));
    the first must dominate the second.  NearSingular is raised when the
    smallest singular value of A is at or below 1e-8.
    """
    A = np.asarray(matrix, dtype=float)
    sigma_min = float(np.linalg.svd(A, compute_uv=False)[-1])
    if sigma_min <= 1e-8:
        raise NearSingular(f"smallest singular value {sigma_min:.3e} <= 1e-8")
    transformed = VectorFamily(family.vectors @ A.T)
    lhs = gram_det(transformed)
    rhs = sigma_min ** (2 * family.count) * gram_det(family)
    return lhs, rhs


def probe_basis_extension_ratio(
    step_basis: VectorFamily,
    smooth_basis: VectorFamily,
    indicator_times,
    cell_grid: CellGrid | None = None,
) -> float:
    """Minimum Gram ratio when the smooth complement joins the family.

    For each tuple of times, forms the running indicators on the cell grid
    and returns the smallest value of

        G(indicators, steps, smooths) / G(indicators, steps)

    over the sample.  Qualitative positivity probe: no quantitative
    constant is claimed, only that the minimum stays strictly positive.
    """
    if cell_grid is None:
        cell_grid = CellGrid(step_basis.dim)
    if step_basis.dim != smooth_basis.dim or step_basis.dim != cell_grid.n_cells:
        raise ValueError("families and cell grid must share one dimension")
    best = np.inf
    for times in indicator_times:
        ind = np.array([cell_grid.indicator(float(t)) for t in np.sort(np.asarray(times))])
        fam_small = VectorFamily(np.vstack([ind, step_basis.vectors]))
        denom = gram_det(fam_small)
        if denom < 1e-14:
            raise DegenerateFamily(f"denominator Gram determinant {denom:.3e} < 1e-14")
        num = gram_det(VectorFamily(np.vstack([ind, step_basis.vectors, smooth_basis.vectors])))
        best = min(best, num / denom)
    if not np.isfinite(best):
        raise ValueError("empty sample of indicator tuples")
    return float(best)


def _quad_beta_half(lo: float, hi: float) -> float:
    # int_lo^hi ((x-lo)(hi-x))^{-1/2} dx, evaluated numerically
    val, _ = integrate.quad(lambda x: 1.0, lo, hi, weight="alg", wvar=(-0.5, -0.5))
    return val


def dirichlet_simplex_integral(
    k: int, samples: int = 10_000_000, seed: int = 20_240_817
) -> tuple[float, float]:
    """Simplex integral with inverse-root gap weights; returns (value, error).

    k <= 2 uses iterated adaptive quadrature with algebraic endpoint
    weights (error is the quadrature estimate); k = 3, 4 use importance
    sampling from a Dirichlet(3/4, ..., 3/4) proposal, which makes the
    weight square-integrable, with the reported error one standard error
    of the mean.  Orders outside 1..4 raise UnsupportedOrder.
    """
    if k not in (1, 2, 3, 4):
        raise UnsupportedOrder(f"order {k} outside 1..4")
    if k == 1:
        val, err = integrate.quad(lambda x: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.5, -0.5))
        return float(val), float(err)
    if k == 2:
        inner_cache: dict[float, float] = {}

        def inner(v2: float) -> float:
            if v2 not in inner_cache:
                inner_cache[v2] = _quad_beta_half(0.0, v2)
            return inner_cache[v2]

        val, err = integrate.quad(inner, 0.0, 1.0, weight="alg", wvar=(0.0, -0.5), limit=200)
        return float(val), float(err)

    # importance sampling on the increment simplex
    alpha = np.full(k + 1, 0.75)
    log_b = float((k + 1) * special.gammaln(0.75) - special.gammaln(0.75 * (k + 1)))
    rng = SeedSpec(seed).rng()
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 2_000_000
    while done < samples:
        m = min(chunk, samples - done)
        w = rng.dirichlet(alpha, size=m)
        x = np.exp(log_b - 0.25 * np.sum(np.log(w), axis=1))
        total += float(np.sum(x))
        total_sq += float(np.sum(x * x))
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, float(np.sqrt(var / samples))


def simplex_integral_closed_form(k: int) -> float:
    """pi^((k+1)/2) / Gamma((k+1)/2); the value the quadratures must hit."""
    return float(np.pi ** ((k + 1) / 2.0) / special.gamma((k + 1) / 2.0))


def bridge_moment_from_simplex(k: int, simplex_value: float) -> float:
    """Scale a simplex integral into the k-th bridge local-time moment.

    The moment equals k! (2 pi)^{-k/2} times the simplex integral: the
    multivariate density of the bridge at the level, integrated over
    ordered times, has the indicator Gram determinant under its root.
    """
    return float(math.factorial(k) * (2.0 * np.pi) ** (-k / 2.0) * simplex_value)


def _sorted_gap_integrand(a: float, s1: float):
    def h(v1: float, v2: float) -> float:
        m1, m2, m3 = sorted((v1, v2, s1))
        prod = (m1 - a) * (m2 - m1) * (m3 - m2)
        if prod <= 0.0:
            return 0.0
        return prod**-0.5

    return h


def check_simplex_partition(a: float = 0.0, b: float = 1.0, s1: float = 0.4) -> SuiteReport:
    """Partition additivity of the ordered-time integral at one split point.

    The two ordered times either both precede s1, straddle it, or both
    follow it; the three block integrals (each evaluated with weighted
    quadrature adapted to its fixed ordering) must sum to the direct
    nested quadrature over the whole simplex.
    """
    if not a < s1 < b:
        raise OrderViolation("need a < s1 < b")
    h = _sorted_gap_integrand(a, s1)

    # both before s1: [(v1-a)(v2-v1)(s1-v2)]^{-1/2}
    def block_before() -> float:
        val, _ = integrate.quad(
            lambda v2: _quad_beta_half(a, v2),
            a,
            s1,
            weight="alg",
            wvar=(0.0, -0.5),
            limit=200,
        )
        return val

    # straddling: [(v1-a)(s1-v1)]^{-1/2} (v2-s1)^{-1/2}
    def block_straddle() -> float:
        inner = _quad_beta_half(a, s1)
        val, _ = integrate.quad(
            lambda v2: inner, s1, b, weight="alg", wvar=(-0.5, 0.0), limit=200
        )
        return val

    # both after s1: (s1-a)^{-1/2} [(v1-s1)(v2-v1)]^{-1/2}
    def block_after() -> float:
        val, _ = integrate.quad(lambda v2: _quad_beta_half(s1, v2), s1, b, limit=200)
        return val / np.sqrt(s1 - a)

    blocks = block_before() + block_straddle() + block_after()

    def whole_inner(v2: float) -> float:
        pts = [s1] if a < s1 < v2 else None
        val, _ = integrate.quad(lambda v1: h(v1, v2), a, v2, points=pts, limit=200)
        return val

    whole, _ = integrate.quad(whole_inner, a, b, points=[s1], limit=200)

    return two_sided_report(
        "simplex-partition-additivity",
        blocks,
        whole,
        tolerance=1e-5 * abs(whole),
    )
