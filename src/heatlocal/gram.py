"""Gram determinants, projection identities, and the simplex integrals.

Families of Hilbert-space elements are the rows of a 2-d array of
coordinates in a finite orthonormal system; inner products are plain dot
products.  Step functions and indicators live on a shared fine cell grid
with coordinates scaled by the root cell width so that dot products equal
L2 inner products.

The Dirichlet-type simplex integral

    int_{0 < v_1 < ... < v_k < 1} dv / sqrt(v_1 (v_2 - v_1) ... (1 - v_k))

ties the indicator Gram determinants to the moments of the bridge local
time; for k = 1..3 it is evaluated by one nested weighted quadrature rule.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .errors import (
    BasisNotOrthonormal,
    DegenerateFamily,
    NearSingular,
    OrderViolation,
    UnsupportedOrder,
)


def gram_det(vectors) -> float:
    """Gram determinant of the rows, as the squared product of |diag R| of a QR.

    QR works on the vectors themselves, so it does not square their
    condition number as a factorisation of v v^T would (Higham 2002,
    ch. 19-20).  An exactly dependent family comes back at rounding level,
    about 1e-30 for unit-scale rows, and a family with more vectors than
    dimensions as 0.  Log accumulation keeps determinants of up to eight
    long vectors away from underflow.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.size == 0:
        raise ValueError("vectors must form a nonempty 2-d array")
    if v.shape[0] > v.shape[1]:
        return 0.0
    diag = np.abs(np.diag(np.linalg.qr(v.T, mode="r")))
    if np.any(diag == 0.0):
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

    def __init__(self, n_cells: int, interval: tuple[float, float]):
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


def orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Gram-Schmidt rows; raises DegenerateFamily if a row collapses."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float)).copy()
    out = []
    for r in rows:
        for q in out:
            r = r - np.dot(r, q) * q
        nrm = np.linalg.norm(r)
        if nrm < 1e-12:
            raise DegenerateFamily("row became numerically zero during orthonormalisation")
        out.append(r / nrm)
    return np.array(out)


def projection_identity_values(g: np.ndarray, basis: np.ndarray) -> tuple[float, float]:
    """Both sides of the projection identity.

    Left: Gram determinant of the g's with their components along the
    orthonormal basis removed.  Right: Gram determinant of the g's and the
    basis elements together.  The two are equal in exact arithmetic.
    """
    if np.max(np.abs(basis @ basis.T - np.eye(basis.shape[0]))) > 1e-10:
        raise BasisNotOrthonormal("basis Gram matrix deviates from identity above 1e-10")
    lhs = gram_det(g - (g @ basis.T) @ basis)
    rhs = gram_det(np.vstack([g, basis]))
    return lhs, rhs


def invertible_gram_values(matrix: np.ndarray, family: np.ndarray) -> tuple[float, float]:
    """Transformed Gram determinant and its invertibility floor.

    Returns (G(A e_1, ..., A e_n), sigma_min(A)^(2n) G(e_1, ..., e_n));
    the first must dominate the second.  NearSingular is raised when the
    smallest singular value of A is at or below 1e-8.
    """
    A = np.asarray(matrix, dtype=float)
    sigma_min = float(np.linalg.svd(A, compute_uv=False)[-1])
    if sigma_min <= 1e-8:
        raise NearSingular(f"smallest singular value {sigma_min:.3e} <= 1e-8")
    lhs = gram_det(family @ A.T)
    rhs = sigma_min ** (2 * family.shape[0]) * gram_det(family)
    return lhs, rhs


def probe_basis_extension_ratio(
    step_basis: np.ndarray, smooth_basis: np.ndarray, indicator_times, cell_grid: CellGrid
) -> float:
    """Minimum Gram ratio when the smooth complement joins the family.

    For each tuple of times, forms the running indicators on the cell grid
    and returns the smallest value of

        G(indicators, steps, smooths) / G(indicators, steps)

    over the sample.  Qualitative positivity probe: no quantitative
    constant is claimed, only that the minimum stays strictly positive.
    """
    dim = cell_grid.n_cells
    if step_basis.shape[1] != dim or smooth_basis.shape[1] != dim:
        raise ValueError("families and cell grid must share one dimension")
    best = np.inf
    for times in indicator_times:
        ind = np.array([cell_grid.indicator(float(t)) for t in np.sort(np.asarray(times))])
        denom = gram_det(np.vstack([ind, step_basis]))
        # an exactly dependent family comes back near 1e-30
        if denom < 1e-20:
            raise DegenerateFamily(f"denominator Gram determinant {denom:.3e} < 1e-20")
        num = gram_det(np.vstack([ind, step_basis, smooth_basis]))
        best = min(best, num / denom)
    if not np.isfinite(best):
        raise ValueError("empty sample of indicator tuples")
    return float(best)


def _ordered_integral(k: int, lo: float, hi: float) -> tuple[float, float]:
    """int over lo < v_1 < ... < v_k < hi of [(v_1-lo)(v_2-v_1)...(hi-v_k)]^{-1/2}.

    Returns (value, abserr).  One algebraic-weight QUADPACK rule per order
    (Piessens et al. 1983): order 1 weighs both ends; above it the outer
    variable v_k carries (hi - v_k)^{-1/2} and the integrand is the order
    k - 1 integral on (lo, v_k).  The error is the outer rule's estimate.
    """
    if k == 1:
        return integrate.quad(lambda x: 1.0, lo, hi, weight="alg", wvar=(-0.5, -0.5))
    inner = lambda v: _ordered_integral(k - 1, lo, v)[0]
    return integrate.quad(inner, lo, hi, weight="alg", wvar=(0.0, -0.5), limit=200)


def dirichlet_simplex_integral(k: int) -> tuple[float, float]:
    """Simplex integral with inverse-root gap weights; returns (value, error).

    One nested weighted quadrature rule serves k = 1..3; the error is the
    outer rule's estimate.  Orders outside 1..3 raise UnsupportedOrder.
    """
    if k not in (1, 2, 3):
        raise UnsupportedOrder(f"order {k} outside 1..3")
    val, err = _ordered_integral(k, 0.0, 1.0)
    return float(val), float(err)


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


def check_simplex_partition() -> tuple[float, float]:
    """Partition additivity of the ordered-time integral on (0, 1) split at 0.4.

    The two ordered times either both precede s1 = 0.4, straddle it, or
    both follow it; returns (sum of the three block integrals, each
    evaluated with weighted quadrature adapted to its fixed ordering; the
    direct nested quadrature over the whole simplex), which must agree.
    """
    a, b, s1 = 0.0, 1.0, 0.4
    h = _sorted_gap_integrand(a, s1)

    # both before s1: [(v1-a)(v2-v1)(s1-v2)]^{-1/2}
    before = _ordered_integral(2, a, s1)[0]

    # straddling: [(v1-a)(s1-v1)]^{-1/2} (v2-s1)^{-1/2}
    def block_straddle() -> float:
        inner = _ordered_integral(1, a, s1)[0]
        val, _ = integrate.quad(
            lambda v2: inner, s1, b, weight="alg", wvar=(-0.5, 0.0), limit=200
        )
        return val

    # both after s1: (s1-a)^{-1/2} [(v1-s1)(v2-v1)]^{-1/2}
    def block_after() -> float:
        val, _ = integrate.quad(lambda v2: _ordered_integral(1, s1, v2)[0], s1, b, limit=200)
        return val / np.sqrt(s1 - a)

    blocks = before + block_straddle() + block_after()

    def whole_inner(v2: float) -> float:
        pts = [s1] if s1 < v2 else None
        val, _ = integrate.quad(lambda v1: h(v1, v2), a, v2, points=pts, limit=200)
        return val

    whole, _ = integrate.quad(whole_inner, a, b, points=[s1], limit=200)
    return blocks, whole
