"""Exception types shared across the toolkit."""


class SwarmliftError(Exception):
    """Base class for all toolkit errors."""


class SingularMrp(SwarmliftError):
    """Quaternion-to-MRP map evaluated at (or too close to) its singularity."""


class DimensionMismatch(SwarmliftError):
    """Input dimensions inconsistent with the configured geometry."""


class ZeroThrust(SwarmliftError):
    """Thrust-vector command too small to define an attitude."""


class CholeskyFailure(SwarmliftError):
    """Covariance factorization failed even after jitter conditioning."""


class InvalidCommand(SwarmliftError):
    """FSM command issued in a mode that cannot accept it."""


class SingularAssembly(SwarmliftError):
    """Block dimensions inconsistent while wiring an interconnection."""


class ChannelMismatch(SwarmliftError):
    """Named signal channel could not be resolved on a LinearSystem."""


class UnstableOperatingPoint(SwarmliftError):
    """Pre-roll to an operating point diverged."""


class NonFiniteResponse(SwarmliftError):
    """Frequency-response data holds an inf or nan entry."""


class FitInfeasible(SwarmliftError):
    """No weight of any trial order satisfies the bounding constraint."""


class ScenarioError(SwarmliftError):
    """Scenario configuration failed validation."""
