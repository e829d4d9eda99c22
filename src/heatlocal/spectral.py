"""Spectral quadratic form of the field's increment integrator.

For a step function f the mean-square of the stochastic increment sum is
the quadratic form

    Q(f) = integral |f_hat(lambda)|^2 (1 - exp(-lambda^2)) d lambda,

which never exceeds the squared L2 norm of f and, for supports shorter
than 2 sqrt(pi), is bounded below by (1 - L/(2 sqrt(pi))) ||f||^2.  Q is
computed through the smoothed-norm identity

    Q(f) = ||f||^2 - ||f * p_1||^2

with the convolution checked in closed form against the Gaussian CDF; the
direct lambda-side quadrature is kept as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .heat_model import SQRT_PI, _gauss_legendre

TWO_SQRT_PI = 2.0 * SQRT_PI

# window pad and panel layout for the u-side quadrature; a pad of 10
# standard deviations leaves convolution mass below 1e-20 outside
_WINDOW_PAD = 10.0
_PANEL = 0.5
_GL_ORDER = 16

# lambda-side oracle: dense panels to LAMBDA_MAX, exact cosine-integral tail
_LAMBDA_MAX = 50.0
_LAMBDA_PANEL = 0.25


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function: coefficients between sorted breakpoints."""

    breakpoints: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        bps = np.asarray(self.breakpoints, dtype=float)
        cfs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "coefficients", cfs)
        if bps.ndim != 1 or cfs.ndim != 1 or bps.size != cfs.size + 1:
            raise ValueError("need n+1 breakpoints for n coefficients")
        if cfs.size == 0:
            raise ValueError("need at least one piece")
        if np.any(np.diff(bps) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def support_length(self) -> float:
        return float(self.breakpoints[-1] - self.breakpoints[0])

    @property
    def norm_sq(self) -> float:
        return float(np.sum(self.coefficients**2 * np.diff(self.breakpoints)))

    @property
    def jumps(self) -> np.ndarray:
        """Jump of f at each breakpoint (left-to-right difference)."""
        padded = np.concatenate(([0.0], self.coefficients, [0.0]))
        return np.diff(padded)


def _panel_nodes(lo: float, hi: float, panel: float):
    x, w = _gauss_legendre(_GL_ORDER)
    n_panels = max(1, int(np.ceil((hi - lo) / panel)))
    edges = np.linspace(lo, hi, n_panels + 1)
    h = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + h[:, None] * x[None, :]).ravel()
    weights = (h[:, None] * w[None, :]).ravel()
    return nodes, weights


def convolve_heat(f: StepFunction, u) -> np.ndarray:
    """(f * p_1)(u): sum of Gaussian-CDF differences over the pieces."""
    u = np.asarray(u, dtype=float)
    bps, cfs = f.breakpoints, f.coefficients
    acc = np.zeros_like(np.atleast_1d(u))
    for a, c, d in zip(cfs, bps[:-1], bps[1:]):
        acc += a * (special.ndtr(u - c) - special.ndtr(u - d))
    return acc.reshape(u.shape) if u.ndim else float(acc[0])


def smoothed_norm_sq(f: StepFunction) -> float:
    """||f * p_1||^2 by composite Gauss-Legendre on a padded window."""
    lo = float(f.breakpoints[0]) - _WINDOW_PAD
    hi = float(f.breakpoints[-1]) + _WINDOW_PAD
    nodes, weights = _panel_nodes(lo, hi, _PANEL)
    conv = convolve_heat(f, nodes)
    return float(np.sum(weights * conv * conv))


def quadratic_form_Q(f: StepFunction) -> float:
    """Q(f) via the smoothed-norm identity ||f||^2 - ||f * p_1||^2."""
    return f.norm_sq - smoothed_norm_sq(f)


def quadratic_form_Q_spectral(f: StepFunction) -> float:
    """Independent oracle: direct quadrature of the spectral integrand.

    Integrates |f_hat|^2 (1 - exp(-lambda^2)) densely up to LAMBDA_MAX and
    closes the algebraic tail exactly with the sine integral (the Gaussian
    factor is already 1 there to machine precision).
    """
    b = -f.jumps
    u = f.breakpoints
    lam, w = _panel_nodes(1e-9, _LAMBDA_MAX, _LAMBDA_PANEL)
    s = np.exp(-1j * np.outer(lam, u)) @ b
    integrand = (s.real**2 + s.imag**2) * (1.0 - np.exp(-lam * lam)) / lam**2
    main = float(np.sum(w * integrand)) / np.pi
    tail = float(np.sum(b * b)) / _LAMBDA_MAX
    for j in range(u.size):
        for l in range(j + 1, u.size):
            delta = u[l] - u[j]
            si, _ = special.sici(delta * _LAMBDA_MAX)
            tail += (
                2.0
                * b[j]
                * b[l]
                * (np.cos(delta * _LAMBDA_MAX) / _LAMBDA_MAX - delta * (np.pi / 2.0 - si))
            )
    return main + tail / np.pi


def form_matrix(length: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Q-Gram matrix of the cell indicators and the diagonal mass matrix.

    The cells are the ``cells`` equal intervals of [0, length], 1 to 256 of
    them; entry (k, l) of the first matrix is the Q-inner product of cells
    k and l, computed as mass minus the smoothed cross terms on the shared
    quadrature window.
    """
    if not (1 <= cells <= 256 and length > 0.0):
        raise ValueError(f"need 1 to 256 cells on a positive length, got {cells} on {length}")
    pts = np.linspace(0.0, length, cells + 1)
    widths = np.diff(pts)
    nodes, weights = _panel_nodes(pts[0] - _WINDOW_PAD, pts[-1] + _WINDOW_PAD, _PANEL)
    # V[i, k] = (1_cell_k * p_1)(node_i)
    V = special.ndtr(nodes[:, None] - pts[None, :-1]) - special.ndtr(
        nodes[:, None] - pts[None, 1:]
    )
    C = (V * weights[:, None]).T @ V
    M = np.diag(widths)
    return M - C, M


def smallest_form_eigenvalue(length: float, cells: int) -> float:
    """Smallest generalized eigenvalue of Q against the L2 mass matrix.

    Equals the minimum of Q(f)/||f||^2 over step functions on the
    ``cells`` equal intervals of [0, length]; decreases weakly in the cell
    count and in the length, and stays above 1 - L/(2 sqrt(pi)) when that
    bound applies.
    """
    from scipy.linalg import eigh

    Qm, M = form_matrix(length, cells)
    vals = eigh(Qm, M, eigvals_only=True)
    return float(vals[0])


def random_step_function(rng: np.random.Generator) -> StepFunction:
    """Random test function for the inequality sweeps.

    Up to 12 pieces starting in (-3, 3), with coefficients in (-5, 5);
    piece count, breakpoint increments, and coefficients are uniform, and
    the increments are scaled so the total support stays below 3.4, under
    the 2 sqrt(pi) of the coercivity bound.
    """
    n = int(rng.integers(1, 13))
    incs = rng.uniform(0.05, 1.0, size=n)
    incs *= rng.uniform(0.3, 1.0) * 3.4 / np.sum(incs)
    start = rng.uniform(-3.0, 3.0)
    bps = start + np.concatenate(([0.0], np.cumsum(incs)))
    cfs = rng.uniform(-5.0, 5.0, size=n)
    # avoid the all-zero function: regenerate degenerate coefficient draws
    while np.max(np.abs(cfs)) < 1e-3:
        cfs = rng.uniform(-5.0, 5.0, size=n)
    return StepFunction(bps, cfs)
