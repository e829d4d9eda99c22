"""Kernel-smoothed local times and their exact moment identities.

The estimator replaces the occupation density of a path at level z by the
time integral of a Gaussian kernel of variance epsilon centred at the
path.  Its mean is available in closed quadrature form for every process
here (Brownian bridge, Brownian motion, and the heat-field increment
process), which is what the Monte Carlo identities test against.

The Monte Carlo tasks share their draws where claims allow it: one motion
path serves the bridge and the motion claims, and one set of normals
drives the heat field on several intervals.  Each interval's or
process's numbers are those of a task of its own on the same seed.
Every task is written once, as a block form ``*_rows(master_seed,
start, stop, ...)`` wrapped as :class:`heatlocal.mc.Task`, whose call on
one seed is the one-row block.  A block form works through its range in
batches of :data:`BATCH` paths, so a chunk runs one inverse FFT or
cumulative sum per batch, and each row keeps the bytes it has alone.

Moment references:

* bridge local time at level 0 has k-th moment 2^(k/2) Gamma(k/2 + 1);
* the running-maximum pair (local time, endpoint) of Brownian motion has
  the joint density (2 pi)^(-1/2) (|b| + a) exp(-(|b| + a)^2 / 2), a > 0;
* conditioning the motion on a small terminal window reproduces the
  bridge moments.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

import numpy as np
from scipy import integrate, special

from .errors import (
    BandwidthTooSmall,
    NonPositiveA,
    SingularCovariance,
    UnknownProcess,
    UnsupportedOrder,
)
from .heat_model import _embedding_weights, covariance_R
from .mc import Task
from .sampling import (
    SeedSpec,
    _coarse_half_spectrum,
    _half_spectrum,
    _weighted_synthesis,
    path_normals,
)


def bandwidth_floor(span: float, n: int) -> float:
    """Smallest bandwidth the n-point uniform grid of a span resolves.

    The kernel bandwidth (variance units) must cover several grid cells
    for the trapezoid occupation sum to resolve the path: 4 x spacing.
    """
    return 4.0 * span / (n - 1)


def marginal_variance(process_tag: str, s, interval: tuple[float, float]) -> np.ndarray:
    """Variance of the process at parameter s (vectorised)."""
    s = np.asarray(s, dtype=float)
    if process_tag == "bridge":
        return s * (1.0 - s)
    if process_tag == "motion":
        return s
    if process_tag == "heat":
        base = interval[0]
        return 2.0 * (covariance_R(0.0) - covariance_R(s - base))
    raise UnknownProcess(f"unknown process tag {process_tag!r}")


def process_interval(
    process_tag: str, interval: tuple[float, float] | None = None
) -> tuple[float, float]:
    """The parameter interval a process runs on.

    Bridge and motion always run on [0, 1] and ignore ``interval``; the
    heat process needs an explicit one.
    """
    if process_tag in ("bridge", "motion"):
        return (0.0, 1.0)
    if process_tag == "heat":
        if interval is None:
            raise ValueError("heat process needs an explicit interval")
        return (float(interval[0]), float(interval[1]))
    raise UnknownProcess(f"unknown process tag {process_tag!r}")


def expected_smoothed_local_time(
    process_tag: str,
    z: float = 0.0,
    eps: float = 0.0,
    interval: tuple[float, float] | None = None,
) -> float:
    """Mean of the smoothed estimator: integral of p_(var(s)+eps)(z) ds.

    eps = 0 gives the mean of the exact local time; the integrable
    square-root endpoint singularities are left to the adaptive rule.
    """
    if eps < 0.0:
        raise ValueError("bandwidth must be nonnegative")
    lo, hi = process_interval(process_tag, interval)

    def integrand(s: float) -> float:
        v = float(marginal_variance(process_tag, s, (lo, hi))) + eps
        if v <= 0.0:
            return 0.0
        return float(np.exp(-z * z / (2.0 * v)) / np.sqrt(2.0 * np.pi * v))

    val, _ = integrate.quad(integrand, lo, hi, limit=400)
    return float(val)


def bridge_moment_exact(k: int) -> float:
    """k-th moment of the bridge local time at level 0: 2^(k/2) Gamma(k/2+1)."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise UnsupportedOrder(f"moment order must be a positive integer, got {k}")
    return float(2.0 ** (k / 2.0) * special.gamma(k / 2.0 + 1.0))


def levy_joint_density(a, b) -> np.ndarray:
    """Joint density of (local time at 0 over [0,1], endpoint) for motion.

    p(a, b) = (2 pi)^{-1/2} (|b| + a) exp(-(|b| + a)^2 / 2) for a > 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0):
        raise NonPositiveA("local-time argument must be positive")
    s = np.abs(b) + a
    return s * np.exp(-s * s / 2.0) / np.sqrt(2.0 * np.pi)


def levy_density_normalization() -> float:
    """Total mass of the joint density, by nested quadrature (should be 1)."""

    def inner(a: float) -> float:
        val, _ = integrate.quad(
            lambda b: float(levy_joint_density(a, b)), 0.0, np.inf, limit=200
        )
        return 2.0 * val  # even in b

    val, _ = integrate.quad(inner, 1e-12, np.inf, limit=200)
    return float(val)


def conditional_moment(k: int) -> float:
    """k-th conditional moment of the motion's local time given a zero end.

    Evaluated by quadrature of the one-dimensional ratio
    int y^(k+1) e^(-y^2/2) dy / int y e^(-y^2/2) dy over (0, inf); agrees
    with bridge_moment_exact to quadrature accuracy.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise UnsupportedOrder(f"moment order must be a positive integer, got {k}")
    num, _ = integrate.quad(lambda y: y ** (k + 1) * np.exp(-y * y / 2.0), 0.0, np.inf)
    den, _ = integrate.quad(lambda y: y * np.exp(-y * y / 2.0), 0.0, np.inf)
    return float(num / den)


def _bridge_pair_inner(eps1: float, eps2: float, v2: float) -> float:
    """Integral over v1 in [0, 1] of 1 / sqrt(det Sigma(v1, v2)), in closed form.

    With p = v2 (1 - v2) and s = Sigma_22 = p + eps2, det Sigma is a
    concave quadratic a + s u - c u^2 with a = eps1 s: in u = v1 on
    [0, v2] with c = s + (1 - v2)^2, and in u = 1 - v1 on [0, 1 - v2] with
    c = s + v2^2.  Each piece integrates to
    [arcsin((2 c u - s) / sqrt(s^2 + 4 a c))] / sqrt(c), written as
    atan2(2 c u - s, 2 sqrt(c det)) so that no 1 - x^2 cancels near
    x = -1.  Both pieces end at v1 = v2, where det is a + p eps2.
    """
    p = v2 * (1.0 - v2)
    s = p + eps2
    a = eps1 * s
    det_mid = a + p * eps2
    total = 0.0
    for c, length in ((s + (1.0 - v2) ** 2, v2), (s + v2 * v2, 1.0 - v2)):
        total += (
            math.atan2(2.0 * c * length - s, 2.0 * math.sqrt(c * det_mid))
            - math.atan2(-s, 2.0 * math.sqrt(c * a))
        ) / math.sqrt(c)
    return total


def second_moment_via_density(eps1: float, eps2: float) -> float:
    """E[V_eps1 V_eps2] for the bridge at level 0, from the smoothed pair density.

    E[V_eps1 V_eps2] is the integral over (v1, v2) in [0, 1]^2 of the
    bivariate normal density at (0, 0) with covariance Sigma(v1, v2) =
    min(v1, v2) (1 - max(v1, v2)) + diag(eps1, eps2), that is
    1 / (2 pi sqrt(det Sigma)).
    The v1 integral is in closed form (:func:`_bridge_pair_inner`), and one
    adaptive rule integrates over v2.  SingularCovariance is raised for a
    bandwidth <= 0, for which Sigma is singular somewhere on the square.
    """
    if eps1 <= 0.0 or eps2 <= 0.0:
        raise SingularCovariance(
            f"two-point covariance is singular for bandwidths ({eps1}, {eps2}); "
            "both must be positive"
        )
    val, _ = integrate.quad(
        lambda v2: _bridge_pair_inner(eps1, eps2, v2),
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=200,
    )
    return float(val / (2.0 * np.pi))


def expected_motion_local_time_in_window(eps: float, window: float) -> float:
    """E[V_eps | |w(1)| < window] for Brownian motion, by 2-d quadrature.

    Conditioned on the endpoint b, the motion at time s is N(s b, s(1-s)),
    so the smoothed mean is the bridge-variance kernel evaluated off-centre.
    """
    if window <= 0.0:
        raise ValueError("window must be positive")

    def mean_given_endpoint(b: float) -> float:
        def integrand(s: float) -> float:
            v = s * (1.0 - s) + eps
            if v <= 0.0:
                return 0.0
            return float(np.exp(-((s * b) ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v))

        val, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
        return val

    phi = lambda b: np.exp(-b * b / 2.0) / np.sqrt(2.0 * np.pi)
    num, _ = integrate.quad(lambda b: phi(b) * mean_given_endpoint(b), 0.0, window, limit=100)
    den, _ = integrate.quad(phi, 0.0, window, limit=100)
    return float(num / den)  # even integrands: the factor 2 cancels


# ---------------------------------------------------------------------------
# path generators and block forms for the Monte Carlo engine

# paths per batch in the block forms: each batch draws its rows into
# buffers kept for the whole range, and runs one inverse FFT, one
# cumulative sum and one smoothing pass over them
BATCH = 8


@lru_cache(maxsize=16)
def _uniform_points(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)


@lru_cache(maxsize=16)
def _trapezoid_weights(lo: float, hi: float, n: int) -> np.ndarray:
    w = np.full(n, (hi - lo) / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _motion_batches(master_seed: int, start: int, stop: int, n: int):
    """w on the uniform n-point grid of [0, 1] by exact increments, for indices start..stop-1.

    Yields one (rows, n) array per batch of :data:`BATCH` indices; row r
    is the path of ``SeedSpec(master_seed, first + r)``.
    """
    pts = _uniform_points(0.0, 1.0, n)
    dt = pts[1] - pts[0]
    normals = np.empty((min(BATCH, stop - start), n - 1))
    for first in range(start, stop, BATCH):
        z = path_normals(master_seed, first, normals[: stop - first])
        np.multiply(z, np.sqrt(dt), out=z)
        w = np.empty((len(z), n))
        w[:, 0] = 0.0
        np.cumsum(z, axis=1, out=w[:, 1:])
        yield w


def _pin_to_bridge(w: np.ndarray) -> np.ndarray:
    """w(t) - t w(1) on the uniform grid of [0, 1]: a bridge independent of w(1)."""
    return w - _uniform_points(0.0, 1.0, w.shape[-1]) * w[..., -1:]


def _heat_batches(
    master_seed: int,
    start: int,
    stop: int,
    n: int,
    intervals: tuple[tuple[float, float], ...],
    coarse_n: int | None = None,
):
    """Increment fields on the uniform n-point grids of several intervals.

    Each is exact in law.  Yields, per batch of :data:`BATCH` indices from
    ``start``, one (rows, n) array per interval.  The embedding length
    depends on n only, so one half spectrum of normals drives every
    interval through its own weights and inverse FFT: the paths are
    dependent, and each is the path its interval alone would get from the
    seed.  With ``coarse_n``, the batch also lists, after those, each
    interval's path on its coarse_n-point grid, driven by the low
    frequencies of the same half spectrum (:func:`_coarse_half_spectrum`)
    through the coarse grid's own weights: exact in law on that grid and
    coupled to the n-point path.
    """
    weights = [_embedding_weights(n, (hi - lo) / (n - 1)) for lo, hi in intervals]
    m = weights[0].size
    half = np.empty((min(BATCH, stop - start), m // 2 + 1), dtype=complex)
    spectrum = np.empty_like(half)
    # the normals are drawn into the spectrum's memory: packed into the
    # half spectrum, they are dead before the first weighting overwrites them
    normals = spectrum.view(float)[:, :m]
    if coarse_n is not None:
        coarse = [_embedding_weights(coarse_n, (hi - lo) / (coarse_n - 1)) for lo, hi in intervals]
        coarse_half = np.empty((len(half), coarse[0].size // 2 + 1), dtype=complex)
    for first in range(start, stop, BATCH):
        rows = min(BATCH, stop - first)
        y = _half_spectrum(path_normals(master_seed, first, normals[:rows]), half[:rows])
        paths = (_weighted_synthesis(w, y, n, spectrum[:rows]) for w in weights)
        if coarse_n is not None:
            yc = _coarse_half_spectrum(y, coarse[0].size, coarse_half[:rows])
            paths = chain(paths, (_weighted_synthesis(w, yc, coarse_n) for w in coarse))
        yield [x - x[:, :1] for x in paths]


def _path_batches(
    process_tag: str, master_seed: int, start: int, stop: int, n: int, interval: tuple
):
    """One process's (rows, n) path arrays for indices start..stop-1, a batch at a time."""
    if process_tag == "bridge":
        return map(_pin_to_bridge, _motion_batches(master_seed, start, stop, n))
    if process_tag == "motion":
        return _motion_batches(master_seed, start, stop, n)
    if process_tag == "heat":
        return (x for x, in _heat_batches(master_seed, start, stop, n, (interval,)))
    raise UnknownProcess(f"unknown process tag {process_tag!r}")


def path_rows(
    master_seed: int, start: int, stop: int, process_tag: str, n: int, interval: tuple
) -> np.ndarray:
    """One process's paths on the uniform n-point grid, one row per index in start..stop-1."""
    return np.concatenate(list(_path_batches(process_tag, master_seed, start, stop, n, interval)))


path_values = Task(path_rows)


def motion_values(seed: SeedSpec, n: int) -> np.ndarray:
    """w on the uniform n-point grid of [0, 1] by exact increments."""
    return path_values(seed, "motion", n, (0.0, 1.0))


def bridge_values(seed: SeedSpec, n: int) -> np.ndarray:
    """w(t) - t w(1) on the uniform n-point grid of [0, 1]; exact in law."""
    return path_values(seed, "bridge", n, (0.0, 1.0))


def heat_values(seed: SeedSpec, n: int, lo: float, hi: float) -> np.ndarray:
    """Increment field on the uniform n-point grid of [lo, hi], exact in law."""
    return path_values(seed, "heat", n, (lo, hi))


def smoothed_values(
    values: np.ndarray, trap_w: np.ndarray, z: float, schedule: tuple[float, ...]
) -> np.ndarray:
    """V_eps for every eps in the schedule, sharing one path or each row of a block.

    V_eps = sum(trap_w exp(-(x - z)^2 / 2 eps)) / sqrt(2 pi eps), summed
    along the last axis, so a (rows, n) block of paths gives a (rows,
    len(schedule)) array whose rows are those of the paths one at a time.
    When eps is exactly half the previous bandwidth its kernel is the
    square of the previous kernel, so a dyadic schedule pays for one exp;
    any other step computes its exp afresh.
    """
    y2 = np.subtract(values, z)
    np.square(y2, out=y2)
    kernel = np.empty_like(y2)
    weighted = np.empty_like(y2)
    out = np.empty(y2.shape[:-1] + (len(schedule),))
    for i, eps in enumerate(schedule):
        if i > 0 and schedule[i - 1] == 2.0 * eps:
            np.multiply(kernel, kernel, out=kernel)
        else:
            # y2 / (-2 eps) has the bits of -y2 / (2 eps): IEEE division is sign-symmetric
            np.exp(np.divide(y2, -2.0 * eps, out=kernel), out=kernel)
        np.multiply(trap_w, kernel, out=weighted)
        out[..., i] = np.sum(weighted, axis=-1) / np.sqrt(2.0 * np.pi * eps)
    return out


def require_resolvable(bandwidth: float, interval: tuple[float, float], n: int) -> None:
    """Refuse a bandwidth below the floor of the n-point grid of ``interval``."""
    lo, hi = interval
    floor = bandwidth_floor(hi - lo, n)
    if bandwidth < floor:
        raise BandwidthTooSmall(
            f"bandwidth {bandwidth:.3e} below the resolution floor {floor:.3e} "
            f"of {n} grid points on ({lo:g}, {hi:g})"
        )


def _local_time_block(
    values: np.ndarray, interval: tuple[float, float], z: float, schedule: tuple[float, ...]
) -> np.ndarray:
    """The schedule's V_eps values of each path row, then their squared gaps, if any."""
    trap_w = _trapezoid_weights(*interval, values.shape[-1])
    v = smoothed_values(values, trap_w, z, schedule)
    return np.concatenate([v, np.diff(v, axis=-1) ** 2], axis=-1)


def heat_rows(
    master_seed: int,
    start: int,
    stop: int,
    n: int,
    intervals: tuple[tuple[float, float], ...],
    z: float,
    schedule: tuple[float, ...],
    coarse: tuple[int, float] | None = None,
) -> np.ndarray:
    """Heat draws for several intervals, one row per replicate index in start..stop-1.

    For each interval in turn a row holds the layout of
    :func:`local_time_rows`: the schedule's V_eps values, then their
    squared gaps.  With ``coarse = (n_c, eps_c)`` a row is one level of the
    multilevel estimator: after each interval's layout come V at eps_c on
    the coupled n_c-point path (:func:`_heat_batches`) and the level's
    difference, V at the schedule's last bandwidth minus that coarse V.
    Every grid must resolve its bandwidths before anything is drawn.
    """
    for interval in intervals:
        require_resolvable(min(schedule), interval, n)
        if coarse is not None:
            require_resolvable(coarse[1], interval, coarse[0])
    k = len(schedule)

    def block(paths):
        out = []
        for i, iv in enumerate(intervals):
            out.append(_local_time_block(paths[i], iv, z, schedule))
            if coarse is not None:
                v = _local_time_block(paths[len(intervals) + i], iv, z, coarse[1:])
                out += [v, out[-1][:, k - 1 : k] - v]
        return np.concatenate(out, axis=1)

    coarse_n = None if coarse is None else coarse[0]
    batches = _heat_batches(master_seed, start, stop, n, intervals, coarse_n)
    return np.concatenate([block(paths) for paths in batches])


heat_replicate = Task(heat_rows)


def level_grids(
    n: int, intervals: tuple[tuple[float, float], ...], schedule: tuple[float, ...]
) -> tuple[int, ...]:
    """Grid of each level of the multilevel heat estimator, coarsest first.

    Level l smooths at schedule[l].  The finest level takes the n-point
    grid; each coarser level halves the grid above it when the half still
    resolves its bandwidth on every interval, and keeps it otherwise.
    """
    grids = [n]
    for eps in reversed(schedule[:-1]):
        half = grids[-1] // 2
        fits = half >= 2 and all(bandwidth_floor(hi - lo, half) <= eps for lo, hi in intervals)
        grids.append(half if fits else grids[-1])
    return tuple(reversed(grids))


def local_time_rows(
    master_seed: int,
    start: int,
    stop: int,
    process_tag: str,
    n: int,
    interval: tuple[float, float],
    z: float,
    schedule: tuple[float, ...],
) -> np.ndarray:
    """Local-time rows of one process, one per replicate index in start..stop-1.

    A row holds the schedule's V_eps values followed by the squared gaps
    of consecutive pairs (paired on the row's single path).
    """
    require_resolvable(min(schedule), interval, n)
    batches = _path_batches(process_tag, master_seed, start, stop, n, interval)
    return np.concatenate([_local_time_block(x, interval, z, schedule) for x in batches])


local_time_replicate = Task(local_time_rows)


def bridge_motion_rows(
    master_seed: int,
    start: int,
    stop: int,
    n: int,
    z: float,
    schedule: tuple[float, ...],
    extra_eps: float,
) -> np.ndarray:
    """Motion paths w on [0, 1] serving the bridge and the motion claims, one row per index.

    The bridge is w(t) - t w(1), exactly as :func:`bridge_values` builds it
    from the same seed.  A row holds the bridge's schedule V_eps values
    and squared gaps (the layout of :func:`local_time_rows`), then V
    of w at extra_eps, then w(1).
    """
    for eps in (min(schedule), extra_eps):
        require_resolvable(eps, (0.0, 1.0), n)

    def block(w):
        bridge = _local_time_block(_pin_to_bridge(w), (0.0, 1.0), z, schedule)
        v_motion = _local_time_block(w, (0.0, 1.0), z, (extra_eps,))
        return np.concatenate([bridge, v_motion, w[:, -1:]], axis=1)

    return np.concatenate([block(w) for w in _motion_batches(master_seed, start, stop, n)])


bridge_motion_replicate = Task(bridge_motion_rows)
