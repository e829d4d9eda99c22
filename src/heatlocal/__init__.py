"""Simulation and verification toolkit for a heat-field Gaussian process.

Submodules:

* ``errors``: the package's exception types, all under ``HeatLocalError``.
* ``grids``: the sheet simulator's evaluation points.
* ``sampling``: seeded Gaussian sampling primitives (streams, jittered
  Cholesky, circulant embedding).
* ``heat_model``: the stationary field covariance and two independent
  Monte Carlo tasks for its increments (Cholesky and driving sheet).
* ``spectral``: the integrator quadratic form and its inequalities.
* ``gram``: Gram determinants, projection identities, simplex integrals.
* ``local_time``: the uniform-grid path samplers, kernel-smoothed
  occupation replicates, and exact moments.
* ``mc``: the reproducible parallel Monte Carlo engine.
* ``reports``: claim reports, aggregate tables, and their CSV/JSON codec.
* ``verify``: the claim-by-claim verification suite.
* ``cli``: command-line entry point.

Every Monte Carlo task is written once, as a block form
``rows(master_seed, start, stop, ...)`` that returns one row per replicate
index, and wrapped as ``mc.Task(rows)``.  The engine calls the block form
once per chunk of indices; the task called on one ``SeedSpec`` returns
the one-row block of its index.
"""

from ._version import __version__
from .errors import (
    BandwidthTooSmall,
    BasisNotOrthonormal,
    ConfigError,
    CutoffTooCoarse,
    DegenerateFamily,
    HeatLocalError,
    NearSingular,
    NonPositiveA,
    NonPositiveTime,
    NonPSD,
    OrderViolation,
    ReplicateFailure,
    SingularCovariance,
    UnknownProcess,
    UnsupportedOrder,
)
from .grids import SpatialGrid
from .sampling import SeedSpec
from .mc import MCResult, RunConfig, run_replicates
from .reports import SuiteReport
from .verify import verify_all

__all__ = [
    "__version__",
    "BandwidthTooSmall",
    "BasisNotOrthonormal",
    "ConfigError",
    "CutoffTooCoarse",
    "DegenerateFamily",
    "HeatLocalError",
    "NearSingular",
    "NonPositiveA",
    "NonPositiveTime",
    "NonPSD",
    "OrderViolation",
    "ReplicateFailure",
    "SingularCovariance",
    "UnknownProcess",
    "UnsupportedOrder",
    "SpatialGrid",
    "SeedSpec",
    "MCResult",
    "RunConfig",
    "SuiteReport",
    "run_replicates",
    "verify_all",
]
