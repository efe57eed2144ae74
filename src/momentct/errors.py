"""Exception and warning types shared across the package."""


class CoverageError(ValueError):
    """Offset grid does not cover the support of the density."""


class SingularSystemError(ValueError):
    """Linear system is singular (duplicate nodes, zero diagonal, ...)."""


class OrderError(ValueError):
    """Requested moment order exceeds what is available or configured."""


class CapabilityError(ValueError):
    """Operation not supported for this density / kernel kind."""


class MisuseError(ValueError):
    """Operation applied to data of the wrong kind (raw, smoothed or filtered)."""


class DataQualityError(ValueError):
    """Measured data violates a structural invariant beyond tolerance."""


class StabilityError(ValueError):
    """Evaluation would be dominated by catastrophic cancellation."""


class FormatError(ValueError):
    """Malformed file header or payload."""


class ConfigError(ValueError):
    """Invalid run configuration."""


class ResolutionWarning(UserWarning):
    """Kernel width is marginal relative to the grid spacing."""


class ConditioningWarning(UserWarning):
    """Linear solve with a large estimated condition number."""
