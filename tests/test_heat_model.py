"""Stationary covariance, the two simulators, and the sheet operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from heatlocal.errors import CutoffTooCoarse
from heatlocal.grids import SpatialGrid
from heatlocal.heat_model import (
    build_sheet_operator,
    covariance_R,
    covariance_R_quadrature,
    increment_covariance,
    path_increment_replicate,
    sheet_increment_replicate,
    sheet_variance_bias,
    weighted_increment_square,
)
from heatlocal.local_time import heat_values
from heatlocal.mc import CHUNK
from heatlocal.sampling import SeedSpec, normals_block
from heatlocal.verify import _AGREE_POINTS
from reference import CovarianceMatrix, sample_gaussian_vector

SQRT_PI = np.sqrt(np.pi)


def test_covariance_at_zero_is_inverse_root_pi():
    assert covariance_R(0.0) == pytest.approx(1.0 / SQRT_PI, rel=1e-15)
    assert covariance_R(0.0) == pytest.approx(0.5641895835477563, abs=1e-15)


def test_covariance_closed_form_spot_values():
    # e^{-d^2/4}/sqrt(pi) - (d/2) erfc(d/2), written out independently
    for d in (0.3, 1.0, 2.5):
        direct = np.exp(-d * d / 4.0) / SQRT_PI - (d / 2.0) * special.erfc(d / 2.0)
        assert covariance_R(d) == pytest.approx(direct, rel=1e-14)
    assert covariance_R(1.0) == pytest.approx(0.1996412283742457, rel=1e-12)


def test_covariance_is_even_and_decaying():
    d = np.linspace(0.0, 6.0, 40)
    vals = covariance_R(d)
    assert np.array_equal(vals, covariance_R(-d))
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] < 1e-5


def test_quadrature_oracle_matches_closed_form():
    for d in (0.0, 0.7, 1.9, 4.2):
        assert covariance_R_quadrature(d) == pytest.approx(
            float(covariance_R(d)), abs=1e-8
        )


def test_increment_covariance_reduces_to_R_combination():
    base = 0.0
    u, v = 0.8, 1.7
    expected = (
        covariance_R(u - v)
        - covariance_R(u - base)
        - covariance_R(v - base)
        + covariance_R(0.0)
    )
    assert increment_covariance(u, v, base) == pytest.approx(float(expected), rel=1e-14)


def test_increment_variance_positive_and_saturating():
    # far from the base the increment variance approaches 2 R(0)
    far = increment_covariance(40.0, 40.0, 0.0)
    assert far == pytest.approx(2.0 / SQRT_PI, rel=1e-10)


def test_cholesky_path_deterministic_and_shared_with_task():
    pts = np.array([0.5, 1.0, 1.5, 2.0])
    a = path_increment_replicate(SeedSpec(21), tuple(pts), (0.0, 2.0))
    b = path_increment_replicate(SeedSpec(21), tuple(pts), (0.0, 2.0))
    assert np.array_equal(a, b)
    # the task is one Gaussian draw from the increment covariance
    cov = CovarianceMatrix(increment_covariance(pts[:, None], pts[None, :], 0.0))
    c = sample_gaussian_vector(cov, SeedSpec(21))
    assert np.array_equal(a, c)


def test_fft_route_matches_cholesky_route_in_variance():
    pts = np.linspace(0.0, 2.0, 65)
    n = 3000
    idx = 48
    vals = np.array([heat_values(SeedSpec(4, i), 65, 0.0, 2.0)[idx] for i in range(n)])
    target = float(increment_covariance(pts[idx], pts[idx], 0.0))
    se = target * np.sqrt(2.0 / n)
    assert abs(np.var(vals, ddof=1) - target) < 5 * se


def test_sheet_field_variance_deficit_equals_tail_bias():
    grid = SpatialGrid(np.array([0.4, 0.7, 1.0]), (0.0, 1.0))
    op = build_sheet_operator(grid)
    deficit = float(covariance_R(0.0)) - np.diag(op.gram)
    assert np.all(np.abs(deficit - sheet_variance_bias()) < 1e-9)


def test_sheet_off_diagonal_covariance_close_to_R():
    grid = SpatialGrid(np.array([0.4, 0.7, 1.0]), (0.0, 1.0))
    op = build_sheet_operator(grid)
    # G = K K^T is the exact covariance of the discretised field
    cov = op.gram
    # eval points are base + grid; field covariance approximates R(u - v)
    pts = np.concatenate(([0.0], grid.points))
    for i in range(4):
        for j in range(i):
            assert cov[i, j] == pytest.approx(
                float(covariance_R(pts[i] - pts[j])), abs=1e-4
            )


def test_sheet_increment_covariance_matches_R_for_all_pairs():
    # deterministic: the differenced K K^T against the closed form of R,
    # less the cutoff bias on each lag-0 term (twice on the diagonal)
    pts = np.array(_AGREE_POINTS)
    op = build_sheet_operator(SpatialGrid(pts, (0.0, 2.0)))
    G = op.gram
    diff = G[1:, 1:] - G[1:, :1] - G[:1, 1:] + G[0, 0]
    bias = sheet_variance_bias()
    expected = increment_covariance(pts[:, None], pts[None, :], 0.0) - bias * (
        1.0 + np.eye(pts.size)
    )
    iu = np.triu_indices(pts.size)
    assert np.max(np.abs(diff - expected)[iu]) < 1e-5
    # G is well conditioned on these points: the factor needed no jitter
    assert op.jitter == 0.0
    assert np.allclose(op.factor @ op.factor.T, G, rtol=0.0, atol=1e-15)


def test_sheet_rejects_coarse_spatial_resolution():
    # a span of 7 spreads the fixed 2304 spatial cells 0.0104 apart, wider
    # than the root time cutoff 0.01
    grid = SpatialGrid(np.array([3.5, 7.0]), (0.0, 7.0))
    with pytest.raises(CutoffTooCoarse):
        build_sheet_operator(grid)


def test_sheet_sample_deterministic_and_base_free():
    s1 = sheet_increment_replicate(SeedSpec(77), (0.6, 1.2), (0.0, 2.0))
    s2 = sheet_increment_replicate(SeedSpec(77), (0.6, 1.2), (0.0, 2.0))
    assert np.array_equal(s1, s2)
    # the operator evaluates the base first; the task differences it away
    op = build_sheet_operator(SpatialGrid(np.array([0.6, 1.2]), (0.0, 2.0)))
    assert op.factor.shape == (3, 3)
    # one normal per evaluation point, the fixed-width row of index 0
    z = normals_block(77, 0, 1, 3)[0]
    field = np.einsum("ij,j->i", op.factor, z)
    assert np.array_equal(s1, field[1:] - field[0])


def test_sheet_increments_have_zero_at_base_grid():
    vals = sheet_increment_replicate(SeedSpec(13), (0.0, 0.8, 1.6), (0.0, 2.0))
    assert vals.shape == (3,)
    assert vals[0] == 0.0


@st.composite
def _block_cases(draw):
    """A covariance-route task, its keywords and a replicate range."""
    task = draw(
        st.sampled_from(
            (path_increment_replicate, sheet_increment_replicate, weighted_increment_square)
        )
    )
    lo = draw(st.floats(-2.0, 2.0))
    length = draw(st.floats(0.5, 4.0))
    # 2 to 8 distinct points above the base, at least length / 16 apart
    cells = sorted(draw(st.lists(st.integers(1, 16), min_size=2, max_size=8, unique=True)))
    kw = {"points": tuple(lo + length * k / 16 for k in cells), "interval": (lo, lo + length)}
    if task is weighted_increment_square:
        coeffs = st.floats(-3.0, 3.0, allow_nan=False)
        kw["coeffs"] = tuple(draw(st.lists(coeffs, min_size=len(cells), max_size=len(cells))))
    count = draw(st.integers(1, 2 * CHUNK + 1))
    start = draw(st.integers(0, 2**64 - count))
    return task, kw, draw(st.integers(0, 2**64 - 1)), start, start + count


@settings(max_examples=30, derandomize=True)
@given(_block_cases())
def test_block_forms_are_the_stacked_replicates_byte_for_byte(case):
    task, kw, master, start, stop = case
    block = task.rows(master, start, stop, **kw)
    rows = np.stack([task(SeedSpec(master, i), **kw) for i in range(start, stop)])
    assert block.tobytes() == rows.tobytes()
