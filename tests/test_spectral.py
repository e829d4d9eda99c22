"""Quadratic form of the integrator, its two routes, and its bounds."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatlocal.spectral import (
    StepFunction,
    TWO_SQRT_PI,
    convolve_heat,
    form_matrix,
    quadratic_form_Q,
    quadratic_form_Q_spectral,
    random_step_function,
    smallest_form_eigenvalue,
    smoothed_norm_sq,
)

UNIT_INDICATOR = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))

# frozen two-route values for the unit indicator; the two halves sum to
# its exact squared norm, 1
Q_UNIT = 0.7290967103470213
SMOOTH_UNIT = 0.2709032896529787


def test_unit_indicator_frozen_values():
    assert quadratic_form_Q(UNIT_INDICATOR) == pytest.approx(Q_UNIT, abs=1e-12)
    assert smoothed_norm_sq(UNIT_INDICATOR) == pytest.approx(SMOOTH_UNIT, abs=1e-12)
    assert quadratic_form_Q(UNIT_INDICATOR) + smoothed_norm_sq(
        UNIT_INDICATOR
    ) == pytest.approx(UNIT_INDICATOR.norm_sq, abs=1e-14)


def test_spectral_route_agrees_on_unit_indicator():
    assert quadratic_form_Q_spectral(UNIT_INDICATOR) == pytest.approx(
        Q_UNIT, rel=1e-9
    )


def test_spectral_route_agrees_on_random_functions(rng):
    for _ in range(25):
        f = random_step_function(rng)
        a = quadratic_form_Q(f)
        b = quadratic_form_Q_spectral(f)
        assert b == pytest.approx(a, rel=1e-6, abs=1e-10)


def test_convolution_is_a_contraction_pointwise():
    u = np.linspace(-3.0, 4.0, 200)
    g = convolve_heat(UNIT_INDICATOR, u)
    assert np.all(g >= 0.0)
    assert np.all(g <= 1.0 + 1e-12)
    assert g[np.argmin(np.abs(u - 0.5))] > 0.3


@given(st.floats(min_value=-4.0, max_value=4.0).filter(lambda a: abs(a) > 1e-3))
def test_form_scales_quadratically(a):
    f = StepFunction(np.array([0.0, 0.6, 1.3]), np.array([1.0, -0.5]))
    g = StepFunction(f.breakpoints, a * f.coefficients)
    assert quadratic_form_Q(g) == pytest.approx(a * a * quadratic_form_Q(f), rel=1e-10)


@given(st.integers(min_value=0, max_value=10_000))
def test_sandwich_bounds_on_random_functions(seed):
    f = random_step_function(np.random.default_rng(seed))
    ns = f.norm_sq
    L = f.support_length
    q = quadratic_form_Q(f)
    assert q <= ns + 1e-8
    assert q >= (1.0 - L / TWO_SQRT_PI) * ns - 1e-8
    assert smoothed_norm_sq(f) <= ns * L / TWO_SQRT_PI + 1e-8


def test_eigenvalue_floor_on_unit_interval():
    lam = smallest_form_eigenvalue(1.0, 16)
    assert lam == pytest.approx(0.7290127585512421, rel=1e-10)
    assert lam >= 1.0 - 1.0 / TWO_SQRT_PI


def test_eigenvalue_decreases_with_interval_length():
    lams = [smallest_form_eigenvalue(L, 16) for L in (0.5, 1.0, 2.0, 3.0)]
    assert lams[0] == pytest.approx(0.8604007842728157, rel=1e-10)
    assert lams[3] == pytest.approx(0.36245918534272187, rel=1e-10)
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_form_matrix_mass_matrix_is_cell_widths():
    qmat, mass = form_matrix(1.0, 8)
    assert qmat.shape == (8, 8)
    assert np.allclose(np.diag(mass), 0.125)
    assert np.allclose(qmat, qmat.T)


@pytest.mark.parametrize("form", [form_matrix, smallest_form_eigenvalue])
def test_form_takes_one_to_256_cells(form):
    for length, cells in ((1.0, 0), (1.0, 257), (0.0, 8)):
        with pytest.raises(ValueError, match="1 to 256 cells on a positive length"):
            form(length, cells)
    form(1.0, 1)
    form(1.0, 256)
    # one cell: the Rayleigh quotient of the unit indicator
    assert smallest_form_eigenvalue(1.0, 1) == pytest.approx(Q_UNIT, abs=1e-12)


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        StepFunction(np.array([0.0, 1.0]), np.array([]))


def test_support_length_and_norm():
    f = StepFunction(np.array([-1.0, 0.5, 2.0]), np.array([2.0, -1.0]))
    assert f.support_length == 3.0
    assert f.norm_sq == pytest.approx(4.0 * 1.5 + 1.0 * 1.5)
