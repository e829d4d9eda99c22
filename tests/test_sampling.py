"""Seeded sampling primitives: streams, factorizations, embeddings."""

import sys
import threading

import numpy as np
import pytest

from heatlocal.local_time import bridge_values, motion_values
from heatlocal.mc import CHUNK
from heatlocal.sampling import (
    JITTER_CAP,
    SeedSpec,
    _half_spectrum,
    _weighted_synthesis,
    circulant_embedding_weights,
    jittered_cholesky,
    normals_block,
    sample_stationary_values,
)
from reference import (
    CovarianceMatrix,
    brownian_bridge_covariance,
    sample_brownian_bridge,
    sample_gaussian_vector,
)


def test_seed_spec_streams_are_reproducible():
    a = SeedSpec(7, 3).rng().standard_normal(16)
    b = SeedSpec(7, 3).rng().standard_normal(16)
    assert np.array_equal(a, b)


def test_seed_spec_streams_differ_across_replicates():
    a = SeedSpec(7, 0).rng().standard_normal(16)
    b = SeedSpec(7, 1).rng().standard_normal(16)
    assert not np.array_equal(a, b)


def test_stream_is_philox_keyed_by_master_and_countered_by_index():
    state = SeedSpec(42, 7).rng().bit_generator.state
    assert state["bit_generator"] == "Philox"
    key = np.random.SeedSequence(42).generate_state(2, np.uint64)
    assert np.array_equal(state["state"]["key"], key)
    assert state["state"]["counter"].tolist() == [0, 0, 7, 0]


@pytest.mark.parametrize("master", (0, 2**64 - 1))
@pytest.mark.parametrize("index", (0, 1023, 1024, 2**64 - 1))
def test_normals_are_the_head_of_the_rng_stream_bit_for_bit(master, index):
    # 37 is not a multiple of the 4-word Philox block
    a = SeedSpec(master, index).normals(37)
    b = SeedSpec(master, index).rng().standard_normal(37)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("size", (1, 6, 7, 16384))
@pytest.mark.parametrize(
    "master, start, stop",
    ((0, CHUNK - 3, CHUNK + 2), (42, 2 * CHUNK - 1, 2 * CHUNK + 1), (2**64 - 1, 2**64 - 2, 2**64)),
)
def test_normals_block_rows_are_the_heads_of_their_streams(size, master, start, stop):
    # a size off a multiple of 4 leaves words in the Philox buffer, which
    # the next row must not read
    block = normals_block(master, start, stop, size)
    rows = [SeedSpec(master, i).rng().standard_normal(size) for i in range(start, stop)]
    assert block.tobytes() == np.stack(rows).tobytes()


def test_interleaved_normals_restart_each_stream():
    a1 = SeedSpec(7, 3).normals(5)
    b = SeedSpec(7, 4).normals(9)
    a2 = SeedSpec(7, 3).normals(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b[:5])


def test_normals_leave_a_live_generator_alone():
    g = SeedSpec(3, 1).rng()
    head = g.standard_normal(3)
    SeedSpec(3, 1).normals(10)
    SeedSpec(4, 2).normals(7)
    tail = g.standard_normal(3)
    expected = SeedSpec(3, 1).rng().standard_normal(6)
    assert np.array_equal(np.concatenate([head, tail]), expected)


def test_normals_from_concurrent_threads_match_their_streams():
    # each thread reloads its own Philox; a shared one would let a thread
    # draw from the stream another thread just loaded
    specs = [SeedSpec(11, i) for i in range(64)]
    expected = [s.rng().standard_normal(6) for s in specs]
    mismatches = []

    def worker(offset):
        for _ in range(200):
            for k in range(offset, len(specs), 4):
                if not np.array_equal(specs[k].normals(6), expected[k]):
                    mismatches.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_same_index_differs_across_master_seeds():
    assert not np.array_equal(SeedSpec(1, 5).normals(8), SeedSpec(2, 5).normals(8))


@pytest.mark.parametrize(
    "spec, head",
    (
        (
            SeedSpec(0, 0),
            (-0.2059740286292238, -0.12884495093462758, -0.28978987549091256, -1.271943284573895),
        ),
        (
            SeedSpec(42, 7),
            (0.5974199306229917, -0.6097918849743518, 0.34604660515921365, 0.8755136426733224),
        ),
    ),
)
def test_stream_golden_values(spec, head):
    # any change of key, counter layout or generator changes these
    assert spec.normals(4).tolist() == list(head)


def test_seed_spec_rejects_negative_and_oversized():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)
    with pytest.raises(ValueError):
        SeedSpec(0, -2)
    with pytest.raises(ValueError):
        normals_block(2**64, 0, 1, 3)
    with pytest.raises(ValueError):
        normals_block(0, 2**64 - 1, 2**64 + 1, 3)


def test_jittered_cholesky_exact_on_pd_matrix(rng):
    a = rng.standard_normal((6, 6))
    m = a @ a.T + 6 * np.eye(6)
    L, jitter = jittered_cholesky(m)
    assert jitter == 0.0
    assert np.allclose(L @ L.T, m, atol=1e-12)


def test_jittered_cholesky_escalates_on_singular():
    m = np.ones((3, 3))  # rank one
    L, jitter = jittered_cholesky(m)
    assert 0.0 < jitter <= JITTER_CAP * 1.0
    assert np.allclose(L @ L.T, m, atol=10 * jitter)


def test_jittered_cholesky_refuses_indefinite():
    from heatlocal.errors import NonPSD

    m = np.diag([1.0, -0.5])
    with pytest.raises(NonPSD):
        jittered_cholesky(m)


def test_gaussian_vector_determinism():
    cov = CovarianceMatrix(np.diag([1.0, 4.0]))
    x = sample_gaussian_vector(cov, SeedSpec(5))
    y = sample_gaussian_vector(cov, SeedSpec(5))
    assert np.array_equal(x, y)


@pytest.mark.parametrize(
    "values, covariance",
    (
        (motion_values, lambda t: np.minimum.outer(t, t)),
        (bridge_values, lambda t: brownian_bridge_covariance(t).entries),
    ),
    ids=("motion", "bridge"),
)
def test_motion_starts_at_zero_and_matches_covariance(values, covariance):
    assert values(SeedSpec(11), 9)[0] == 0.0
    # empirical covariance of the path on the grid against the exact one
    n = 4000
    t = np.linspace(0.0, 1.0, 9)
    w = np.array([values(SeedSpec(11, i), 9) for i in range(n)])
    emp = w.T @ w / n
    assert np.max(np.abs(emp - covariance(t))) < 6.0 * np.sqrt(2.0 / n)


def test_bridge_endpoints_exactly_zero():
    t = np.linspace(0.0, 1.0, 17)
    for path in (sample_brownian_bridge(t, SeedSpec(3)), bridge_values(SeedSpec(3), 17)):
        assert path[0] == 0.0
        assert path[-1] == 0.0


def test_bridge_covariance_matches_formula():
    c = brownian_bridge_covariance(np.array([0.25, 0.5, 0.75])).entries
    assert c[0, 2] == pytest.approx(0.25 * 0.25)
    assert c[1, 1] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        brownian_bridge_covariance(np.array([0.5, 1.5]))


def test_bridge_sampler_routes_agree_in_moments():
    # the covariance route is the reference for the O(n) projection route
    # bridge_values; compare the variance at mid-span
    t = np.linspace(0.0, 1.0, 33)
    n = 4000
    mid = 16
    a = np.array([sample_brownian_bridge(t, SeedSpec(1, i))[mid] for i in range(n)])
    b = np.array([bridge_values(SeedSpec(2, i), 33)[mid] for i in range(n)])
    se = np.sqrt(np.var(a) / n + np.var(b) / n)
    assert abs(np.var(a, ddof=1) - 0.25) < 6 * np.sqrt(2.0 / n) * 0.25
    assert abs(np.var(b, ddof=1) - 0.25) < 6 * np.sqrt(2.0 / n) * 0.25
    assert abs(np.mean(a) - np.mean(b)) < 5 * se


def test_circulant_embedding_reproduces_stationary_covariance():
    # AR-like decaying sequence: exp(-lag/3) is PSD enough to embed
    lags = np.arange(9)
    cov_seq = np.exp(-lags / 3.0)
    w = circulant_embedding_weights(cov_seq)
    n_rep = 6000
    sims = np.array(
        [sample_stationary_values(w, SeedSpec(9, i), 9) for i in range(n_rep)]
    )
    emp = sims.T @ sims / n_rep
    assert abs(emp[0, 0] - 1.0) < 0.08
    assert abs(emp[0, 4] - cov_seq[4]) < 0.08
    assert abs(emp[2, 6] - cov_seq[4]) < 0.08


def test_stationary_block_length_guard():
    w = circulant_embedding_weights(np.exp(-np.arange(5) / 2.0))
    with pytest.raises(ValueError):
        sample_stationary_values(w, SeedSpec(0), 6)


def test_stationary_synthesis_is_an_exact_factor_of_the_toeplitz_block():
    # the synthesis is linear in the m normals; its matrix M on a small
    # embedding (m = 16) must reproduce the covariance exactly, not in law
    cov_seq = np.exp(-np.arange(9) / 3.0)
    w = circulant_embedding_weights(cov_seq)
    m, n = w.size, 9
    assert m == 16
    M = np.column_stack([_weighted_synthesis(w, _half_spectrum(e), n) for e in np.eye(m)])
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    assert np.max(np.abs(M @ M.T - cov_seq[lags])) < 1e-12


def test_stationary_sampler_draws_the_head_of_the_stream():
    w = circulant_embedding_weights(np.exp(-np.arange(9) / 3.0))
    for i in range(3):
        z = SeedSpec(9, i).rng().standard_normal(w.size)
        x = sample_stationary_values(w, SeedSpec(9, i), 9)
        assert np.array_equal(x, _weighted_synthesis(w, _half_spectrum(z), 9))
