"""Spatial grids.

A :class:`SpatialGrid` is a strictly increasing set of points inside a fixed
interval: the evaluation points of the sheet simulator.  Sampled paths are
plain arrays on uniform grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpatialGrid:
    """Strictly increasing evaluation points inside a closed interval.

    Parameters
    ----------
    points : array_like
        Grid points, strictly increasing.
    interval : tuple of float
        The ambient interval (left endpoint, right endpoint).  Points must
        lie inside it.
    """

    points: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError(f"empty interval {self.interval}")
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("points must be a nonempty 1-d array")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] < lo - 1e-12 or pts[-1] > hi + 1e-12:
            raise ValueError("grid points fall outside the interval")
