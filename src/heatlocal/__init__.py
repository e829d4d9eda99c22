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

Every Monte Carlo task is an array kernel ``f(seed, ...) -> np.ndarray``
that the engine maps over (master seed, replicate index) pairs.  A task
may also carry a block form, the ``rows`` attribute of its function:
``rows(master_seed, start, stop, ...)`` returns the same rows for a whole
chunk of indices, and the engine then calls it once per chunk.
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
