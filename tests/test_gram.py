"""Gram determinants, projection identities, simplex integrals."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatlocal.errors import (
    BasisNotOrthonormal,
    DegenerateFamily,
    NearSingular,
    OrderViolation,
    UnsupportedOrder,
)
from heatlocal.gram import (
    CellGrid,
    VectorFamily,
    bridge_moment_from_simplex,
    check_simplex_partition,
    dirichlet_simplex_integral,
    gram_det,
    gram_indicators,
    invertible_gram_values,
    orthonormalize,
    probe_basis_extension_ratio,
    projection_identity_values,
    simplex_integral_closed_form,
)
from heatlocal.local_time import bridge_moment_exact


def test_gram_det_of_orthogonal_rows_is_product_of_norms():
    fam = VectorFamily(np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
    assert gram_det(fam) == pytest.approx(9.0 * 4.0, rel=1e-12)


def test_gram_det_dependent_rows_collapses():
    fam = VectorFamily(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert gram_det(fam) < 1e-9
    # more vectors than dimensions
    assert gram_det(VectorFamily(np.eye(3)[:, :2])) == 0.0


@given(st.integers(min_value=0, max_value=10_000))
def test_gram_det_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((4, 6))
    d1 = gram_det(VectorFamily(rows))
    d2 = gram_det(VectorFamily(rows[rng.permutation(4)]))
    assert d2 == pytest.approx(d1, rel=1e-8)


@given(st.integers(min_value=0, max_value=10_000))
def test_gram_det_hadamard_bound(seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, 5))
    bound = float(np.prod(np.sum(rows**2, axis=1)))
    assert gram_det(VectorFamily(rows)) <= bound * (1.0 + 1e-10)


def test_gram_indicators_is_product_of_gaps():
    times = np.array([0.2, 0.5, 0.9])
    assert gram_indicators(times, 0.0) == pytest.approx(0.2 * 0.3 * 0.4, rel=1e-14)
    with pytest.raises(OrderViolation):
        gram_indicators(np.array([0.5, 0.4]), 0.0)


def test_orthonormalize_produces_orthonormal_rows(rng):
    rows = rng.standard_normal((3, 7))
    q = orthonormalize(rows)
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)


def test_projection_identity_hand_example():
    # basis e1; projecting g onto its complement zeroes the first coordinate
    basis = VectorFamily(np.array([[1.0, 0.0, 0.0]]))
    g = VectorFamily(np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 3.0]]))
    lhs, rhs = projection_identity_values(g, basis)
    assert lhs == pytest.approx(9.0, rel=1e-12)  # G([0,1,0],[0,0,3])
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_projection_identity_rejects_skewed_basis():
    basis = VectorFamily(np.array([[1.0, 1.0, 0.0]]))  # not unit norm
    g = VectorFamily(np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(BasisNotOrthonormal):
        projection_identity_values(g, basis)


def test_invertible_gram_bound_hand_example():
    matrix = 2.0 * np.eye(2)  # singular values (2, 2)
    fam = VectorFamily(np.array([[1.0, 0.0]]))
    lhs, rhs = invertible_gram_values(matrix, fam)
    assert lhs == pytest.approx(4.0, rel=1e-12)  # |A v|^2
    assert rhs == pytest.approx(4.0, rel=1e-12)  # sigma_min^2 G(v)
    assert lhs >= rhs - 1e-12


def test_invertible_gram_bound_rejects_near_singular():
    matrix = np.diag([1.0, 1e-12])
    fam = VectorFamily(np.array([[1.0, 0.0]]))
    with pytest.raises(NearSingular):
        invertible_gram_values(matrix, fam)


def test_basis_extension_probe_positive_and_degenerate_guard():
    cells = 256
    grid = CellGrid(cells, (0.0, 1.0))
    step = orthonormalize(
        grid.discretize(lambda u: np.where(u < 0.5, 1.0, -1.0))[None, :]
    )
    step_basis = VectorFamily(step)
    raw = grid.discretize(lambda u: u - 0.5)
    resid = raw - float(np.dot(raw, step[0])) * step[0]
    smooth_basis = VectorFamily(orthonormalize(resid[None, :]))
    ratio = probe_basis_extension_ratio(
        step_basis, smooth_basis, [np.array([0.3, 0.7])], grid
    )
    assert ratio > 0.0
    for times in ([0.5, 0.5 + 1e-13], [0.5, 0.5]):
        with pytest.raises(DegenerateFamily):
            probe_basis_extension_ratio(step_basis, smooth_basis, [np.array(times)], grid)


def test_gram_det_of_an_exactly_dependent_family_is_at_rounding_level():
    # sets the DegenerateFamily threshold of probe_basis_extension_ratio,
    # 1e-20: far above this floor and far below any family the suite draws
    grid = CellGrid(1024, (0.0, 1.0))
    step = orthonormalize(grid.discretize(lambda u: np.where(u < 0.5, 1.0, -1.0))[None, :])
    for t in (0.3, 0.5, 0.9):
        rows = np.vstack([grid.indicator(t), grid.indicator(t), step])
        assert gram_det(VectorFamily(rows)) < 1e-28
    rows = np.vstack([grid.indicator(0.05), grid.indicator(0.07), step])
    assert gram_det(VectorFamily(rows)) > 1e-5


def test_simplex_closed_form_spot_values():
    assert simplex_integral_closed_form(1) == pytest.approx(np.pi, rel=1e-14)
    assert simplex_integral_closed_form(2) == pytest.approx(2.0 * np.pi, rel=1e-14)
    assert simplex_integral_closed_form(3) == pytest.approx(np.pi**2, rel=1e-14)


def test_simplex_quadrature_matches_closed_form():
    v1, _ = dirichlet_simplex_integral(1)
    assert v1 == pytest.approx(np.pi, rel=1e-9)
    v2, _ = dirichlet_simplex_integral(2)
    assert v2 == pytest.approx(2.0 * np.pi, rel=1e-6)


def test_simplex_monte_carlo_within_errors():
    v3, err = dirichlet_simplex_integral(3, samples=400_000)
    assert err > 0.0
    assert abs(v3 - np.pi**2) < 4.0 * err


def test_bridge_moment_scaling_chain():
    # scaling the exact simplex value must reproduce the exact moment
    for k in (1, 2, 3, 4):
        got = bridge_moment_from_simplex(k, simplex_integral_closed_form(k))
        assert got == pytest.approx(bridge_moment_exact(k), rel=1e-12)


def test_simplex_order_guard():
    with pytest.raises(UnsupportedOrder):
        dirichlet_simplex_integral(5)


def test_partition_additivity_report():
    blocks, whole = check_simplex_partition()
    assert abs(blocks - whole) <= 1e-5 * abs(whole)


def test_cell_grid_indicator_inner_products_exact_on_boundaries():
    grid = CellGrid(8, (0.0, 1.0))
    a = grid.indicator(0.25)
    b = grid.indicator(0.75)
    assert float(np.dot(a, b)) == pytest.approx(0.25, rel=1e-14)
    assert float(np.dot(a, a)) == pytest.approx(0.25, rel=1e-14)


def test_vector_family_validation():
    with pytest.raises(ValueError):
        VectorFamily(np.zeros((0, 3)))
    fam = VectorFamily(np.eye(2))
    grown = fam.append(np.array([1.0, 1.0]))
    assert grown.count == 3
