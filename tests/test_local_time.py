"""Smoothed occupation estimators, exact moments, and density oracles."""

import numpy as np
import pytest
from scipy import integrate

from heatlocal.errors import (
    BandwidthTooSmall,
    NonPositiveA,
    SingularCovariance,
    UnknownProcess,
    UnsupportedOrder,
)
from heatlocal.local_time import (
    BATCH,
    _bridge_pair_inner,
    bandwidth_floor,
    bridge_moment_exact,
    bridge_motion_replicate,
    bridge_values,
    conditional_moment,
    expected_motion_local_time_in_window,
    expected_smoothed_local_time,
    heat_replicate,
    heat_values,
    levy_density_normalization,
    levy_joint_density,
    local_time_replicate,
    marginal_variance,
    motion_values,
    _trapezoid_weights,
    path_values,
    second_moment_via_density,
    smoothed_values,
)
from heatlocal.mc import DEFAULT_EPSILON_SCHEDULE
from heatlocal.sampling import SeedSpec

ROOT_HALF_PI = float(np.sqrt(np.pi / 2.0))

# quadrature means of the smoothed estimator, frozen after one
# independent evaluation of the variance-kernel integral
BRIDGE_MEAN_EPS_005 = 1.1412195733345734
HEAT_SHORT_MEAN_EPS_005 = 1.2045249930389397
HEAT_LONG_MEAN_EPS_005 = 2.338453125812679

# pair-density quadrature values of E V_eps^2 on the bridge
BRIDGE_M2_EPS_005 = 1.56580217204479
BRIDGE_M2_SWEEP = {
    0.08: 0.7619087329011995,
    0.04: 1.0012721912427394,
    0.02: 1.2238222175081401,
    0.01: 1.4135720851636515,
}

# E V_eps^2 on the bridge from mpmath 1.3.0 at mp.dps = 40: the pair density
# 1 / (2 pi sqrt(det Sigma)) integrated over the triangles v1 < v2 and
# v1 > v2, each mapped onto the unit square, by 2-d tanh-sinh and by 2-d
# Gauss-Legendre (they agree to 25 digits), at the float bandwidths
BRIDGE_M2_MPMATH = {
    0.005: 1.5658021720447239027,
    0.08: 0.76190873290119627850,
}


def test_exact_bridge_moments():
    assert bridge_moment_exact(1) == pytest.approx(ROOT_HALF_PI, rel=1e-14)
    assert bridge_moment_exact(2) == pytest.approx(2.0, rel=1e-14)
    assert bridge_moment_exact(4) == pytest.approx(8.0, rel=1e-14)
    with pytest.raises(UnsupportedOrder):
        bridge_moment_exact(0)


def test_conditional_moments_match_closed_form():
    for k in range(1, 13):
        assert conditional_moment(k) == pytest.approx(
            bridge_moment_exact(k), rel=1e-6
        )


def test_levy_density_normalizes():
    assert levy_density_normalization() == pytest.approx(1.0, abs=1e-8)


def test_levy_density_positivity_domain():
    assert levy_joint_density(0.5, 0.3) > 0.0
    with pytest.raises(NonPositiveA):
        levy_joint_density(0.0, 0.3)
    with pytest.raises(NonPositiveA):
        levy_joint_density(-1.0, 0.3)


def test_expected_smoothed_mean_frozen_values():
    assert expected_smoothed_local_time("bridge", 0.0, 0.005) == pytest.approx(
        BRIDGE_MEAN_EPS_005, rel=1e-10
    )
    assert expected_smoothed_local_time("heat", 0.0, 0.005, (0.0, 2.0)) == pytest.approx(
        HEAT_SHORT_MEAN_EPS_005, rel=1e-10
    )
    assert expected_smoothed_local_time("heat", 0.0, 0.005, (0.0, 5.0)) == pytest.approx(
        HEAT_LONG_MEAN_EPS_005, rel=1e-10
    )


def test_smoothed_mean_limit_is_exact_mean():
    assert expected_smoothed_local_time("bridge", 0.0, 0.0) == pytest.approx(
        ROOT_HALF_PI, rel=1e-10
    )


def test_smoothed_mean_decreases_with_bandwidth_at_zero_level():
    vals = [
        expected_smoothed_local_time("bridge", 0.0, e) for e in (0.08, 0.02, 0.005, 0.0)
    ]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_second_moment_frozen_values():
    assert second_moment_via_density(0.005, 0.005) == pytest.approx(
        BRIDGE_M2_EPS_005, rel=1e-8
    )
    for eps, expected in BRIDGE_M2_SWEEP.items():
        assert second_moment_via_density(eps, eps) == pytest.approx(
            expected, rel=1e-8
        )


def test_second_moment_matches_high_precision_oracle():
    for eps, expected in BRIDGE_M2_MPMATH.items():
        assert second_moment_via_density(eps, eps) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(SingularCovariance):
        second_moment_via_density(0.0, 0.005)


def _pair_det(v1, v2, eps1, eps2):
    s12 = min(v1, v2) * (1.0 - max(v1, v2))
    return (v1 * (1.0 - v1) + eps1) * (v2 * (1.0 - v2) + eps2) - s12 * s12


@pytest.mark.parametrize("eps1, eps2", [(0.005, 0.005), (0.08, 0.08), (0.02, 0.005)])
@pytest.mark.parametrize("v2", [0.0, 1e-9, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0 - 1e-9, 1.0])
def test_pair_inner_integral_matches_adaptive_rule(eps1, eps2, v2):
    f = lambda v1: 1.0 / np.sqrt(_pair_det(v1, v2, eps1, eps2))
    left, _ = integrate.quad(f, 0.0, v2, epsabs=0.0, epsrel=1e-13, limit=200)
    right, _ = integrate.quad(f, v2, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    assert _bridge_pair_inner(eps1, eps2, v2) == pytest.approx(left + right, rel=1e-12)


def test_marginal_variances():
    assert float(marginal_variance("bridge", 0.25, (0.0, 1.0))) == pytest.approx(0.1875)
    assert float(marginal_variance("motion", 0.25, (0.0, 1.0))) == pytest.approx(0.25)
    heat_v = float(marginal_variance("heat", 1.0, (0.0, 2.0)))
    assert heat_v == pytest.approx(2.0 * (0.5641895835477563 - 0.1996412283742457), rel=1e-12)
    with pytest.raises(UnknownProcess):
        marginal_variance("poisson", 0.5, (0.0, 1.0))


def test_path_generators_pin_known_points():
    assert motion_values(SeedSpec(1), 64)[0] == 0.0
    b = bridge_values(SeedSpec(2), 64)
    assert b[0] == 0.0 and b[-1] == 0.0
    h = heat_values(SeedSpec(3), 64, 0.0, 2.0)
    assert h[0] == 0.0


def test_replicates_require_resolvable_bandwidth():
    # 64 points on [0, 1] resolve bandwidths down to 4/63
    with pytest.raises(BandwidthTooSmall, match="floor"):
        local_time_replicate(SeedSpec(5), "bridge", 64, (0.0, 1.0), 0.0, (1e-4,))
    # the joint task refuses a schedule and an extra bandwidth below the floor
    with pytest.raises(BandwidthTooSmall, match="floor"):
        bridge_motion_replicate(SeedSpec(5), 64, 0.0, (0.08, 1e-4), extra_eps=0.08)
    with pytest.raises(BandwidthTooSmall, match="floor"):
        bridge_motion_replicate(SeedSpec(5), 64, 0.0, (0.08,), extra_eps=1e-4)
    out = local_time_replicate(SeedSpec(5), "bridge", 64, (0.0, 1.0), 0.0, (0.08,))
    assert out.shape == (1,)
    assert out[0] > 0.0


def test_replicate_layout_and_gap_consistency():
    sched = (0.08, 0.04, 0.02)
    out = local_time_replicate(SeedSpec(9), "bridge", 512, (0.0, 1.0), 0.0, sched)
    assert out.shape == (5,)
    v, gaps = out[:3], out[3:]
    assert np.allclose(gaps, np.diff(v) ** 2)
    assert np.all(v > 0.0)


def test_bridge_motion_replicate_bridge_columns_match_bridge_task():
    sched = DEFAULT_EPSILON_SCHEDULE
    for index in (0, 1, 1025):
        seed = SeedSpec(4, index)
        out = bridge_motion_replicate(seed, 1024, 0.0, sched, extra_eps=0.02)
        bridge = local_time_replicate(seed, "bridge", 1024, (0.0, 1.0), 0.0, sched)
        assert out.shape == (2 * len(sched) + 1,)
        assert out[:-2].tobytes() == bridge.tobytes()


def test_heat_replicate_blocks_match_single_interval_task():
    sched = DEFAULT_EPSILON_SCHEDULE
    intervals = ((0.0, 2.0), (0.0, 5.0))
    for index in (0, 1, 1025):
        seed = SeedSpec(4, index)
        out = heat_replicate(seed, 8192, intervals, 0.0, sched)
        width = 2 * len(sched) - 1
        assert out.shape == (2 * width,)
        for block, interval in enumerate(intervals):
            single = local_time_replicate(seed, "heat", 8192, interval, 0.0, sched)
            assert out[block * width : (block + 1) * width].tobytes() == single.tobytes()


def test_heat_replicate_requires_every_interval_resolvable():
    # 257 points resolve 0.04 on (0, 2) (floor 1/32) but not on (0, 5) (floor 0.078)
    for intervals in (((0.0, 2.0), (0.0, 5.0)), ((0.0, 5.0), (0.0, 2.0))):
        with pytest.raises(BandwidthTooSmall, match="floor"):
            heat_replicate(SeedSpec(5), 257, intervals, 0.0, (0.08, 0.04))
    out = heat_replicate(SeedSpec(5), 257, ((0.0, 2.0), (0.0, 1.0)), 0.0, (0.08, 0.04))
    assert out.shape == (6,)


def test_motion_replicate_carries_endpoint():
    trap_w = _trapezoid_weights(0.0, 1.0, 512)
    for index in (0, 1, 1025):
        seed = SeedSpec(4, index)
        out = bridge_motion_replicate(seed, 512, 0.0, (0.08, 0.04), extra_eps=0.02)
        w = motion_values(seed, 512)
        # the last two columns are V of the motion path at extra_eps and w(1)
        assert out[-2] == smoothed_values(w, trap_w, 0.0, (0.02,))[0]
        assert out[-1] == w[-1]


def test_window_mean_approaches_conditional_moment():
    # small window: the conditioned mean approaches the zero-endpoint value
    tight = expected_motion_local_time_in_window(1e-4, 0.01)
    assert tight == pytest.approx(conditional_moment(1), rel=2e-2)


def test_path_values_unknown_process():
    with pytest.raises(UnknownProcess):
        path_values(SeedSpec(0), "levy", 16, (0.0, 1.0))


def _direct_smoothed(values, trap_w, z, schedule):
    # one fresh kernel per bandwidth: the reference for smoothed_values
    y2 = (values - z) ** 2
    return np.array(
        [
            float(np.sum(trap_w * np.exp(-y2 / (2.0 * eps))) / np.sqrt(2.0 * np.pi * eps))
            for eps in schedule
        ]
    )


@pytest.mark.parametrize("process_tag, interval", [("heat", (0.0, 5.0)), ("bridge", (0.0, 1.0))])
def test_dyadic_smoothing_matches_direct_kernels(process_tag, interval):
    n = 8192
    trap_w = _trapezoid_weights(*interval, n)
    non_dyadic = (0.08, 0.05, 0.01)
    for i in range(4):
        vals = path_values(SeedSpec(21, i), process_tag, n, interval)
        fast = smoothed_values(vals, trap_w, 0.0, DEFAULT_EPSILON_SCHEDULE)
        direct = _direct_smoothed(vals, trap_w, 0.0, DEFAULT_EPSILON_SCHEDULE)
        assert np.max(np.abs(fast / direct - 1.0)) <= 1e-14
        # no step halves the bandwidth, so every kernel is a fresh exp
        assert np.array_equal(
            smoothed_values(vals, trap_w, 0.0, non_dyadic),
            _direct_smoothed(vals, trap_w, 0.0, non_dyadic),
        )


def test_smoothing_underflow_gives_zeros_not_nan():
    n = 8192
    trap_w = _trapezoid_weights(0.0, 1.0, n)
    path = bridge_values(SeedSpec(5), n)
    # at distance about 11 the widest kernel runs from normal through
    # subnormal values to 0; at distance 40 every exp underflows to 0
    for shift in (11.0, 40.0):
        out = smoothed_values(path + shift, trap_w, 0.0, DEFAULT_EPSILON_SCHEDULE)
        assert not np.any(np.isnan(out))
        assert np.all(out >= 0.0)
        assert out[-1] == 0.0


def _local_time_tasks(n: int, z: float):
    """Each local-time task with keywords whose schedule the n-point grid resolves."""
    floor = bandwidth_floor(5.0, n)  # the widest interval below
    # a dyadic step, a fresh one, then a dyadic one again
    paths = dict(n=n, z=z, schedule=(8 * floor, 4 * floor, 3 * floor, 1.5 * floor))
    return {
        "heat-one": (heat_replicate, dict(intervals=((0.0, 5.0),), **paths)),
        "heat-two": (heat_replicate, dict(intervals=((0.0, 2.0), (0.0, 5.0)), **paths)),
        "local-heat": (
            local_time_replicate, dict(process_tag="heat", interval=(0.0, 2.0), **paths)
        ),
        "local-bridge": (
            local_time_replicate, dict(process_tag="bridge", interval=(0.0, 1.0), **paths)
        ),
        "local-motion": (
            local_time_replicate, dict(process_tag="motion", interval=(0.0, 1.0), **paths)
        ),
        "bridge-motion": (bridge_motion_replicate, dict(extra_eps=2 * floor, **paths)),
    }


@pytest.mark.parametrize("z", (0.0, 0.3))
@pytest.mark.parametrize("n", (64, 257, 1024, 8192))
def test_local_time_block_forms_are_the_stacked_replicates_byte_for_byte(n, z):
    # starts off the batch grid, a partial batch, one whole batch and one
    # and a bit, so batches split where the stacked one-row calls do not
    for name, (task, kw) in _local_time_tasks(n, z).items():
        for start, count in ((5, 1), (5, 3), (5, BATCH), (2**40 + 3, 13)):
            block = task.rows(7, start, start + count, **kw)
            rows = np.stack([task(SeedSpec(7, i), **kw) for i in range(start, start + count)])
            assert block.tobytes() == rows.tobytes(), (name, start, count)


@pytest.mark.parametrize("z", (0.0, 0.3))
def test_smoothed_values_of_a_block_are_its_rows_byte_for_byte(z):
    n = 1024
    block = np.stack([bridge_values(SeedSpec(3, i), n) for i in range(11)])
    trap_w = _trapezoid_weights(0.0, 1.0, n)
    for schedule in (DEFAULT_EPSILON_SCHEDULE, (0.08, 0.05, 0.025, 0.01)):
        rows = np.stack([smoothed_values(x, trap_w, z, schedule) for x in block])
        assert smoothed_values(block, trap_w, z, schedule).tobytes() == rows.tobytes()
