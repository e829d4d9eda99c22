import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from heatlocal import verify
from heatlocal.spectral import smoothed_norm_sq

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def inflated_quadratic_form(monkeypatch):
    """Make the spectral sweep see Q inflated by 1.25, and nothing else change.

    Q = ||f||^2 - sm, so returning 1.25 sm - 0.25 ||f||^2 for the smoothed
    norm sm turns the sweep's Q into 1.25 Q.
    """

    def inflated(f):
        return 1.25 * smoothed_norm_sq(f) - 0.25 * f.norm_sq

    monkeypatch.setattr(verify, "smoothed_norm_sq", inflated)


@pytest.fixture
def forbid_in_verify(monkeypatch):
    """A function that makes each named ``verify`` attribute raise if called."""

    def forbidden(*args, **kwargs):
        raise AssertionError("must not run")

    def forbid(*names):
        for name in names:
            monkeypatch.setattr(verify, name, forbidden)

    return forbid
