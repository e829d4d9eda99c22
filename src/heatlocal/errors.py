"""Exception types shared across the package."""


class HeatLocalError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HeatLocalError):
    """Invalid run configuration (CLI exit code 2)."""


class NonPositiveTime(HeatLocalError):
    """Heat kernel evaluated at t <= 0."""


class NonPSD(HeatLocalError):
    """Covariance matrix not positive semidefinite even after jitter."""


class CutoffTooCoarse(HeatLocalError):
    """Sheet discretisation cutoffs produce bias above the requested tolerance."""


class OrderViolation(HeatLocalError):
    """Indicator time points not strictly increasing above the base point."""


class BasisNotOrthonormal(HeatLocalError):
    """Projection basis fails the orthonormality tolerance."""


class NearSingular(HeatLocalError):
    """Operator too close to singular for the determinant bound."""


class DegenerateFamily(HeatLocalError):
    """Gram determinant in a denominator is numerically zero."""


class UnsupportedOrder(HeatLocalError):
    """Moment or integral order outside the implemented range."""


class BandwidthTooSmall(ConfigError):
    """Smoothing bandwidth below the resolution floor of the path grid."""


class NonPositiveA(HeatLocalError):
    """Joint local-time density evaluated at a nonpositive first argument."""


class UnknownProcess(HeatLocalError):
    """Process tag not one of 'heat', 'bridge', 'motion'."""


class SingularCovariance(HeatLocalError):
    """Two-point covariance matrix numerically singular inside a quadrature."""


class ReplicateFailure(HeatLocalError):
    """A Monte Carlo task raised; carries the failing replicate index."""

    def __init__(self, replicate_index: int, message: str):
        self.replicate_index = replicate_index
        self.message = message
        super().__init__(f"replicate {replicate_index}: {message}")

    def __reduce__(self):
        # two-argument constructor: keep it unpicklable-safe across workers
        return (ReplicateFailure, (self.replicate_index, self.message))
