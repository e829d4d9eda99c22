"""Parallel Monte Carlo engine with a bit-reproducibility contract.

Replicates are pure functions of (master_seed, replicate_index), processed
in fixed chunks of :data:`CHUNK` indices.  Every task in the package is
a :class:`Task`: a block form,
``rows(master_seed, start, stop, **keywords) -> (stop - start, d) array``,
whose row r is replicate ``start + r``; called on a ``SeedSpec``, the
task returns the one-row block of its index.  The engine makes one block
call per chunk.  Any other callable ``task(SeedSpec) -> 1-d array`` runs
through a block form that calls it once per index.  The local-time
tasks draw each row from the path stream of its SeedSpec
(:func:`heatlocal.sampling.path_normals`) and work through a chunk in
batches of :data:`heatlocal.local_time.BATCH` paths, with one inverse
FFT or cumulative sum per batch; the covariance-route tasks draw
fixed-width rows (:func:`heatlocal.sampling.normals_block`), which a
block form reads for a whole chunk in one call.  One ordered map yields
the per-chunk power sums (numpy pairwise sums) in index order, and they
are folded in that order; as the chunk boundaries never depend on the
worker count, the aggregate is bit-identical for any ``jobs`` value.
A pool is sent batches of consecutive whole chunks, largest first
(guided self-scheduling), so cheap chunks do not each pay a dispatch;
the batches only group chunks, so the bytes depend on neither the
batching nor ``jobs``.

Pool workers keep the BLAS thread count their parent fixed at import.
Some task arithmetic reaches OpenBLAS: the stacked ``matmul`` products of
the Cholesky route (each row the bytes of ``L @ z``) and of the
quadratic-form statistic (each row the bytes of ``np.dot``), at sizes
OpenBLAS runs on one thread.  On a 2-core host 1 and 2 BLAS threads gave
the same bytes; more threads are untested.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from .errors import ConfigError, ReplicateFailure
from .sampling import _UINT64_MAX, SeedSpec

PROCESSES = ("heat", "bridge", "motion")

DEFAULT_EPSILON_SCHEDULE = (0.08, 0.04, 0.02, 0.01, 0.005)

# fixed reduction granularity: a worker always handles whole chunks, and
# the fold over chunks is ordered by index, never by completion
CHUNK = 1024

# most chunks one pool item carries: enough to spread the dispatch cost of
# cheap chunks, few enough that a batch of raw blocks stays small
CAP = 8


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the CLI and the verify suite."""

    interval: tuple[float, float] = (0.0, 2.0)
    grid_points: int = 8192
    epsilon_schedule: tuple[float, ...] = DEFAULT_EPSILON_SCHEDULE
    replicates: int = 50_000
    master_seed: int = 0
    jobs: int = 1
    z: float = 0.0
    process: str = "heat"

    def __post_init__(self):
        object.__setattr__(self, "interval", tuple(float(v) for v in self.interval))
        object.__setattr__(
            self, "epsilon_schedule", tuple(float(e) for e in self.epsilon_schedule)
        )
        if self.process not in PROCESSES:
            raise ConfigError(f"unknown process {self.process!r}")
        if not all(map(math.isfinite, (*self.interval, self.z))):
            raise ConfigError(f"interval {self.interval} and z = {self.z} must be finite")
        if len(self.interval) != 2 or not self.interval[0] < self.interval[1]:
            raise ConfigError(f"empty interval {self.interval}")
        if not math.isfinite(self.interval[1] - self.interval[0]):
            raise ConfigError(f"the length of interval {self.interval} overflows")
        if self.grid_points < 2:
            raise ConfigError("grid_points must be at least 2")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if not 0 <= int(self.master_seed) <= _UINT64_MAX:
            raise ConfigError("master_seed must fit in 64 unsigned bits")
        sched = self.epsilon_schedule
        if len(sched) == 0:
            raise ConfigError("epsilon schedule must be nonempty")
        if not all(0.0 < e < math.inf for e in sched):  # false for nan
            raise ConfigError("epsilon schedule entries must be positive and finite")
        if any(a <= b for a, b in zip(sched, sched[1:])):
            raise ConfigError("epsilon schedule must be strictly decreasing")


@dataclass(frozen=True)
class MCResult:
    """Aggregate of one replicate family.

    ``mean`` and ``m2`` through ``m4`` are raw moments (means of powers)
    per output coordinate; ``stderr`` is the sample standard deviation
    over root n.  ``raw`` holds the full replicate-by-coordinate array
    only when requested.
    """

    n: int
    mean: np.ndarray
    stderr: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray
    raw: np.ndarray | None = field(default=None, repr=False)


def _block_form(task):
    """The block form of ``task`` with the task's keywords bound, or None.

    A task declares its block form as its ``rows`` attribute, as a
    :class:`Task` does; a ``functools.partial`` of keywords only is looked
    through.
    """
    if isinstance(task, partial):
        if task.args:
            return None
        func, keywords = task.func, task.keywords
    else:
        func, keywords = task, {}
    rows = getattr(func, "rows", None)
    return None if rows is None else partial(rows, **keywords)


@dataclass(frozen=True)
class Task:
    """A Monte Carlo task given by its block form ``rows``.

    ``rows(master_seed, start, stop, *args, **kw)`` returns one row per
    replicate index in start..stop-1; the task called on a SeedSpec
    returns the one-row block of its index.
    """

    rows: Callable[..., np.ndarray]

    def __call__(self, seed: SeedSpec, *args, **kw) -> np.ndarray:
        i = int(seed.replicate_index)
        return self.rows(seed.master_seed, i, i + 1, *args, **kw)[0]


def _replicate_rows(task, master_seed: int, start: int, stop: int) -> np.ndarray:
    """The block form of a task without one: ``task`` called once per index."""
    return np.stack(
        [np.asarray(task(SeedSpec(master_seed, i)), dtype=float) for i in range(start, stop)]
    )


def _chunk_power_sums(rows, master_seed: int, n: int, keep_raw: bool, start: int):
    """Power sums S1..S4 of the block form's rows for the chunk of indices from ``start``.

    When the block call raises, the chunk is replayed one row at a time,
    so the failure names the replicate that raised.
    """
    stop = min(start + CHUNK, n)
    try:
        block = np.asarray(rows(master_seed, start, stop), dtype=float)
    except Exception as exc:
        for i in range(start, stop):
            try:
                rows(master_seed, i, i + 1)
            except Exception as row_exc:
                raise ReplicateFailure(i, f"{type(row_exc).__name__}: {row_exc}") from row_exc
        raise ReplicateFailure(start, f"{type(exc).__name__}: {exc}") from exc
    if block.ndim != 2 or block.shape[0] != stop - start:
        raise ReplicateFailure(start, "task must return a 1-d array per replicate")
    p2 = block * block
    sums = np.stack(
        [
            np.sum(block, axis=0),
            np.sum(p2, axis=0),
            np.sum(p2 * block, axis=0),
            np.sum(p2 * p2, axis=0),
        ]
    )
    return start, sums, (block if keep_raw else None)


def _batch_power_sums(chunk, starts):
    """``chunk(start)`` for each chunk start of one batch, in order."""
    return [chunk(start) for start in starts]


def _guided_batches(starts, workers: int):
    """Consecutive runs of ``starts`` for ``workers`` pool workers.

    Guided self-scheduling: each batch takes 1 / (2 * workers) of the
    chunks left, at most :data:`CAP` and at least one, so the batches
    shrink to single chunks at the tail.
    """
    batches, i = [], 0
    while i < len(starts):
        size = max(1, min(CAP, (len(starts) - i) // (2 * workers)))
        batches.append(starts[i : i + size])
        i += size
    return batches


def run_replicates(
    task,
    config: RunConfig | None = None,
    *,
    replicates: int | None = None,
    master_seed: int | None = None,
    jobs: int = 1,
    return_raw: bool = False,
) -> MCResult:
    """Aggregate ``task`` over independent replicates, reproducibly.

    ``task(seed: SeedSpec) -> 1-d array`` must be pure and, when jobs > 1,
    picklable (a module-level function, a :class:`Task`, or a partial of
    one).  Its block form is the ``rows`` attribute of the task, found
    through a partial of keywords; a task without one is called once per
    replicate.  A ``config`` supplies replicates, master seed and jobs;
    otherwise the keywords do.  Chunks come from builtin ``map`` over
    single chunks, or in a pool from ``ProcessPoolExecutor.map`` over
    batches of whole chunks (:func:`_guided_batches`); both yield in
    submission order, and the bytes depend on neither the batching nor
    ``jobs``.  Task exceptions surface as :class:`ReplicateFailure`
    carrying the replicate index, and cancel the batches still queued.
    """
    if config is not None:
        replicates, master_seed, jobs = config.replicates, config.master_seed, config.jobs
    if replicates is None or master_seed is None:
        raise ConfigError("run_replicates needs replicates and master_seed")
    if replicates < 1:
        raise ConfigError("replicates must be at least 1")

    n = replicates
    starts = range(0, n, CHUNK)
    rows = _block_form(task) or partial(_replicate_rows, task)
    chunk = partial(_chunk_power_sums, rows, master_seed, n, return_raw)
    workers = min(jobs, len(starts))
    pool = ProcessPoolExecutor(workers) if workers > 1 else None
    total = raw = None
    with pool or contextlib.nullcontext():
        if pool:
            batches = _guided_batches(starts, workers)
            results = chain.from_iterable(pool.map(partial(_batch_power_sums, chunk), batches))
        else:
            results = map(chunk, starts)
        for start, sums, block in results:
            total = sums if total is None else total + sums
            if return_raw:  # copied into place, so no raw row is held twice
                if raw is None:
                    raw = np.empty((n, block.shape[1]))
                raw[start : start + block.shape[0]] = block

    s1, s2, s3, s4 = total
    mean = s1 / n
    if n > 1:
        var = np.maximum(s2 - n * mean * mean, 0.0) / (n - 1)
        stderr = np.sqrt(var / n)
    else:
        stderr = np.zeros_like(mean)
    return MCResult(
        n=n,
        mean=mean,
        stderr=stderr,
        m2=s2 / n,
        m3=s3 / n,
        m4=s4 / n,
        raw=raw,
    )
