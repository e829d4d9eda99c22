"""Seeded sampling primitives: streams, factorizations, embeddings."""

import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatlocal.local_time import bridge_values, motion_values
from heatlocal.mc import CHUNK
from heatlocal.sampling import (
    JITTER_CAP,
    SeedSpec,
    _half_spectrum,
    _normals_of_uniforms,
    _row_stream,
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


@st.composite
def _block_ranges(draw):
    """A master seed, a row size and a range of rows with a split point.

    Each range holds the index before an anchor and the anchor: a chunk
    boundary, the top of the index range, or the first index whose B i
    carries into the second counter word.
    """
    size = draw(st.sampled_from((1, 5, 6, 7, 16384)))
    blocks = -(-size // 4)
    count = draw(st.integers(2, 3 if size > 64 else 40))
    anchor = draw(st.sampled_from((CHUNK, 2 * CHUNK, 2**64, -(-(2**64) // blocks))))
    start = min(anchor - draw(st.integers(1, count - 1)), 2**64 - count)
    stop = start + count
    master = draw(st.sampled_from((0, 42, 2**64 - 1)) | st.integers(0, 2**64 - 1))
    return master, size, start, draw(st.integers(start, stop)), stop


@settings(max_examples=30, derandomize=True)
@given(_block_ranges())
@example((2**64 - 1, 6, 2**63 - 1, 2**63, 2**63 + 1))  # B = 2 carries at 2^63
@example((0, 16384, 2**52 - 1, 2**52 - 1, 2**52 + 1))  # B = 4096 carries at 2^52
@example((42, 7, CHUNK - 2, CHUNK, CHUNK + 3))
@example((5, 5, 2**64 - 3, 2**64 - 1, 2**64))
def test_normals_block_equals_its_rows_and_any_split(case):
    master, size, start, mid, stop = case
    block = normals_block(master, start, stop, size)
    assert block.shape == (stop - start, size)
    rows = np.stack([normals_block(master, i, i + 1, size)[0] for i in range(start, stop)])
    assert block.tobytes() == rows.tobytes()
    halves = np.concatenate(
        [normals_block(master, start, mid, size), normals_block(master, mid, stop, size)]
    )
    assert block.tobytes() == halves.tobytes()


@pytest.mark.parametrize("size", (1, 6, 7, 16384))
@pytest.mark.parametrize(
    "master, start, stop",
    ((0, CHUNK - 3, CHUNK + 2), (42, 2 * CHUNK - 1, 2 * CHUNK + 1), (2**64 - 1, 2**64 - 2, 2**64)),
)
def test_normals_block_rows_are_the_heads_of_their_streams(size, master, start, stop):
    # each row is the head of its own fixed-width stream, a new Philox
    # built here from the documented key and counter; a size off a
    # multiple of 4 leaves words in the Philox buffer, which the next row
    # must not read
    block = normals_block(master, start, stop, size)
    key = np.random.SeedSequence(master).generate_state(2, np.uint64)
    blocks = -(-size // 4)
    rows = []
    for i in range(start, stop):
        first = blocks * i
        counter = np.array([first % 2**64, first // 2**64, 0, 1], dtype=np.uint64)
        uniforms = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(size)
        rows.append(_normals_of_uniforms(uniforms))
    assert block.tobytes() == np.stack(rows).tobytes()


def _row_words(master, start, stop, size):
    """The Philox words fixed-width rows start..stop-1 read, one row each."""
    generator, width = _row_stream(master, start, size)
    return generator.bit_generator.random_raw((stop - start, width))[:, :size]


@pytest.mark.parametrize("master", (0, 2**64 - 1))
def test_fixed_width_words_share_no_word_with_the_path_streams(master):
    # size 8 reads whole blocks, so every word of every row is compared
    indices = [*range(32), 2**63, 2**64 - 1]
    fixed = np.concatenate([_row_words(master, i, i + 1, 8).ravel() for i in indices])
    path = np.concatenate(
        [SeedSpec(master, i).rng().bit_generator.random_raw(256) for i in indices]
    )
    # distinct 64-bit words: no block is read twice, by two rows or two kinds
    assert np.unique(fixed).size == fixed.size
    assert np.intersect1d(fixed, path).size == 0


def test_normals_block_rows_are_the_transform_of_their_words():
    words = _row_words(7, 1000, 1003, 7)
    uniforms = (words >> np.uint64(11)).astype(float) * 2.0**-53
    block = normals_block(7, 1000, 1003, 7)
    assert block.tobytes() == _normals_of_uniforms(uniforms).tobytes()


def test_fixed_width_normals_have_standard_moments():
    n = 2**20
    z = normals_block(2026, 0, n // 16, 16).ravel()
    assert abs(np.mean(z)) < 5 * np.sqrt(1 / n)
    assert abs(np.mean(z**2) - 1) < 5 * np.sqrt(2 / n)
    assert abs(np.mean(z**4) - 3) < 5 * np.sqrt(96 / n)
    assert np.max(np.abs(z)) <= 8.3


def test_fixed_width_transform_is_finite_and_odd_at_the_extreme_words():
    # w >> 11 = 0, 2^52 - 1, 2^52 and 2^53 - 1, the uniforms 2^-54,
    # 1/2 -+ 2^-54 and 1 - 2^-54; formed directly in floating point, the
    # last would round to 1 and map to infinity
    k = np.array([0, 2**52 - 1, 2**52, 2**53 - 1], dtype=float)
    z = _normals_of_uniforms(k * 2.0**-53)
    tail = float(mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(2) ** -53 - 1))
    assert z[0] == pytest.approx(tail, rel=1e-14)
    assert z[1] == pytest.approx(-np.sqrt(2 * np.pi) * 2.0**-54, rel=1e-9)
    assert z.tolist() == [z[0], z[1], -z[1], -z[0]]


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
    rows = normals_block(11, 0, len(specs), 6)
    mismatches = []

    def worker(offset):
        for _ in range(200):
            for k in range(offset, len(specs), 4):
                if not np.array_equal(specs[k].normals(6), expected[k]):
                    mismatches.append(k)
                if not np.array_equal(normals_block(11, k, k + 1, 6)[0], rows[k]):
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
