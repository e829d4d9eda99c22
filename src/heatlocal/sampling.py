"""Reproducible Gaussian sampling primitives: seeded streams, a jittered
Cholesky factor and circulant embedding.

Every random draw in the package reads the counter-based Philox4x64-10
generator (Salmon et al., SC 2011) under the key of its master seed, hashed
once per seed by a SeedSequence.  Two kinds of stream share that key and
keep to disjoint counter domains, told apart by the fourth counter word:

* A path stream, named by a :class:`SeedSpec` (master seed, replicate
  index), starts at counter [0, 0, index, 0] and advances the first word;
  :func:`path_normals` reads the heads of a range of them with numpy's
  ziggurat, one row each, :meth:`SeedSpec.normals` reads one, and
  :meth:`SeedSpec.rng` hands a stream out as an open-ended generator.
  The local-time paths, and the spectral and gram sweeps, draw from
  these.
* A fixed-width row, drawn by :func:`normals_block`, reads a fixed run of
  counters with fourth word 1, so a whole range of replicate indices is
  one contiguous read.  The covariance-route tasks (Cholesky, sheet and
  the quadratic-form statistic) draw from these.

Identical (master, index) pairs give bit-identical output on every
platform and worker layout, which is what makes the parallel Monte Carlo
engine deterministic.

Stationary sequences are drawn by circulant embedding in two steps: m
normals are packed into a half spectrum, which any embedding of length m
then weights and inverts, so one draw can serve several embeddings.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import irfft
from scipy.special import ndtri

from .errors import NonPSD

# Escalation policy for the Cholesky jitter: start at JITTER_START x max
# diagonal, multiply by JITTER_STEP, give up past JITTER_CAP x max diagonal.
JITTER_START = 1e-14
JITTER_STEP = 10.0
JITTER_CAP = 1e-8

_UINT64_MAX = 2**64 - 1

# the two stream kinds, recorded with every JSON result
STREAM = (
    "philox4x64-10 key=SeedSequence(master).generate_state(2); "
    "path: counter=[0, 0, index, 0], ziggurat normals; "
    "fixed-width row of s normals: the first s words w of the blocks after "
    "counter=[B*index mod 2^64, B*index div 2^64, 0, 1], B=ceil(s/4), "
    "each ndtri(((w >> 11) + 0.5) * 2^-53)"
)


@lru_cache(maxsize=64)
def _key(master_seed: int) -> tuple[int, int]:
    """Philox key of a master seed: two 64-bit words of its SeedSequence."""
    words = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    return int(words[0]), int(words[1])


class _Stream(threading.local):
    """The Philox every fixed-size draw loads a state into, one per thread."""

    def __init__(self):
        # the key is a placeholder: every draw first loads a whole state
        self.bitgen = np.random.Philox(key=0)
        self.generator = np.random.Generator(self.bitgen)
        self._words = {"counter": None, "key": None}
        self._state = {
            "bit_generator": "Philox",
            "state": self._words,
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def load(self, key: tuple[int, int], counter: tuple[int, int, int, int]):
        """This thread's generator, its Philox at (key, counter) with an empty buffer.

        Nothing of an earlier draw survives, and callers draw from the
        generator at once and never keep it, so draws cannot disturb each
        other.
        """
        words = self._words
        words["key"] = key
        words["counter"] = counter
        self.bitgen.state = self._state
        return self.generator


_STREAM = _Stream()


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus replicate index identifying one path stream."""

    master_seed: int
    replicate_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "replicate_index"):
            _check_word(name, getattr(self, name))

    def _words(self) -> tuple[tuple[int, int], tuple[int, int, int, int]]:
        """(key, counter) of this stream's first Philox block."""
        return _key(int(self.master_seed)), (0, 0, int(self.replicate_index), 0)

    def rng(self) -> np.random.Generator:
        """A new generator positioned at the start of this stream.

        For callers that draw an open-ended sequence; a fixed-size draw
        should use :meth:`normals`, which skips building a generator.
        """
        key, counter = (np.array(w, dtype=np.uint64) for w in self._words())
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def normals(self, size: int) -> np.ndarray:
        """The first ``size`` standard normals of this stream.

        Bit-identical to ``self.rng().standard_normal(size)``, drawn from
        the calling thread's module-owned Philox.
        """
        return _STREAM.load(*self._words()).standard_normal(size)


def _check_word(name: str, v) -> None:
    if not isinstance(v, (int, np.integer)) or not 0 <= int(v) <= _UINT64_MAX:
        raise ValueError(f"{name} must be an integer in [0, 2^64)")


def path_normals(master_seed: int, start: int, out: np.ndarray) -> np.ndarray:
    """``out`` with row r the head of the path stream ``SeedSpec(master_seed, start + r)``.

    Each row is one state load of the calling thread's module-owned Philox
    and one ziggurat read straight into the row, so it has the bytes of
    ``SeedSpec(master_seed, start + r).rng().standard_normal(out.shape[1])``
    and a caller can refill one buffer for batch after batch.
    """
    for r, row in enumerate(out):
        _STREAM.load(*SeedSpec(master_seed, start + r)._words()).standard_normal(out=row)
    return out


def _row_stream(master_seed: int, start: int, size: int) -> tuple[np.random.Generator, int]:
    """The calling thread's generator at fixed-width row ``start``, and its words per row.

    Row i reads the first ``size`` words of the B = ceil(size / 4) Philox
    blocks at counters B i + 1 .. B i + B: a 128-bit count in the first
    two counter words, with the fourth set to 1, a domain no path stream
    reaches.  So rows share no block, and rows start, start + 1, ... are
    one contiguous read of 4 B words each.
    """
    blocks = -(-size // 4)
    first = blocks * start
    key = _key(int(master_seed))
    return _STREAM.load(key, (first & _UINT64_MAX, first >> 64, 0, 1)), 4 * blocks


def _normals_of_uniforms(r: np.ndarray) -> np.ndarray:
    """Standard normals Phi^-1(r + 2^-54) of uniforms r = (w >> 11) 2^-53.

    So each uses the open-interval uniform u = ((w >> 11) + 0.5) 2^-53.
    Above 1/2, u needs 54 significant bits and the largest would round to
    1, so u is never formed: e = u - 1/2 and min(u, 1 - u) = 1/2 - |e| are
    exact, and Phi^-1(u) = copysign(Phi^-1(1/2 - |e|), e).  ``r`` is
    overwritten with e.
    """
    r -= 0.5 - 2.0**-54
    a = np.abs(r)
    np.subtract(0.5, a, out=a)
    z = ndtri(a, out=a)
    return np.copysign(z, r, out=z)


def normals_block(master_seed: int, start: int, stop: int, size: int) -> np.ndarray:
    """Fixed-width rows of ``size`` standard normals for indices start..stop-1.

    Row i is a pure function of (master_seed, i) and ``size``, read from
    the fixed-width counter domain (see :func:`_row_stream`); it is not
    the head of the path stream ``SeedSpec(master_seed, i)``.  A range
    costs one state load, one read of 53-bit uniforms (numpy's
    ``Generator.random``, which maps each word w to (w >> 11) 2^-53) and
    one vectorised transform, and any split of it gives the same rows.
    """
    _check_word("master_seed", master_seed)
    if not 0 <= start <= stop <= _UINT64_MAX + 1:
        raise ValueError(f"replicate range [{start}, {stop}) outside [0, 2^64)")
    generator, width = _row_stream(master_seed, start, size)
    return _normals_of_uniforms(generator.random((stop - start, width))[:, :size])


def jittered_cholesky(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with escalating diagonal jitter.

    Tries the plain factorisation first; on failure adds
    ``JITTER_START * max(diag)`` and escalates by factors of ``JITTER_STEP``
    up to ``JITTER_CAP * max(diag)``.  Raises :class:`NonPSD` past the cap.
    """
    m = np.asarray(matrix, dtype=float)
    diag_scale = float(np.max(np.diag(m))) if m.size else 0.0
    if diag_scale <= 0.0:
        # all-zero (or negative-diagonal) matrix: factor is zero or invalid
        if np.max(np.abs(m)) == 0.0:
            return np.zeros_like(m), 0.0
        raise NonPSD("covariance diagonal not positive")
    jitter = 0.0
    step = JITTER_START * diag_scale
    cap = JITTER_CAP * diag_scale
    while True:
        try:
            L = np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))
            return L, jitter
        except np.linalg.LinAlgError:
            jitter = step if jitter == 0.0 else jitter * JITTER_STEP
            if jitter > cap * (1 + 1e-12):
                raise NonPSD(
                    f"Cholesky failed at jitter {jitter:.3e} (cap {cap:.3e})"
                ) from None


def circulant_embedding_weights(cov_sequence: np.ndarray) -> np.ndarray:
    """Square-root spectral weights for a stationary uniform-grid sampler.

    ``cov_sequence`` holds the covariance at lags 0..m of a stationary
    process on a uniform grid.  The sequence is mirrored into a circulant
    of even length 2m; its FFT eigenvalues must be nonnegative (tiny
    negatives from rounding are clipped, genuine ones raise NonPSD).
    """
    r = np.asarray(cov_sequence, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need covariance at lags 0..m with m >= 1")
    c = np.concatenate([r, r[-2:0:-1]])
    lam = np.fft.fft(c).real
    lam_max = float(np.max(lam))
    if np.min(lam) < -1e-10 * lam_max:
        raise NonPSD("circulant embedding has a negative eigenvalue")
    lam = np.clip(lam, 0.0, None)
    return np.sqrt(lam / lam.size)


def _half_spectrum(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hermitian half spectrum of each row of m real normals z (Dietrich & Newsam 1997).

    y[0] = z[0] and y[m/2] = z[m/2] are real, and y[k] = (z[k] + i
    z[m/2 + k]) / sqrt(2) for 0 < k < m/2, so that the unscaled inverse
    real transform of y / sqrt(m) is m independent standard normals.  It
    is packed into ``out`` when given, a complex array of z's leading
    shape and m/2 + 1 columns.  One half spectrum can drive several
    weightings: :func:`_weighted_synthesis` leaves it as it is.
    """
    h = z.shape[-1] // 2
    y = np.empty(z.shape[:-1] + (h + 1,), dtype=complex) if out is None else out
    y.real = z[..., : h + 1]
    y.imag[..., 0] = y.imag[..., h] = 0.0
    y.imag[..., 1:h] = z[..., h + 1 :]
    y[..., 1:h] *= np.sqrt(0.5)
    return y


def _weighted_synthesis(
    weights: np.ndarray, y: np.ndarray, n: int, spectrum: np.ndarray | None = None
) -> np.ndarray:
    """First n values of m * irfft(w[:m/2+1] y) for each row of a half spectrum y.

    Since the weights are symmetric, w[k] = w[m - k], the real sequence
    has covariance exactly the circulant, so the map is linear in the
    normals and its first n x n block is the Toeplitz covariance.
    ``norm="forward"`` leaves the inverse transform unscaled, which is the
    factor m.  The weighted spectrum goes to ``spectrum``, a buffer of y's
    shape (a new one when None), which the transform may overwrite; one
    transform runs over all rows.
    """
    spectrum = np.multiply(y, weights[: y.shape[-1]], out=spectrum)
    return irfft(spectrum, n=weights.size, axis=-1, norm="forward", overwrite_x=True)[..., :n]


def sample_stationary_values(weights: np.ndarray, seed: SeedSpec, n: int) -> np.ndarray:
    """First n values of a stationary Gaussian sequence, exact in law.

    ``weights`` comes from :func:`circulant_embedding_weights`; n must not
    exceed half the embedding length plus one (the exact block).  One
    replicate costs m real normals and one real inverse FFT of length m.
    """
    m = weights.size
    if n > m // 2 + 1:
        raise ValueError("requested block exceeds the exact embedding range")
    return _weighted_synthesis(weights, _half_spectrum(seed.normals(m)), n)
