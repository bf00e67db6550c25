"""Exception hierarchy shared across the package."""


class FbmInfoflowError(Exception):
    """Base class for all package errors."""


class DomainError(FbmInfoflowError):
    """Input outside the declared working domain (negative time, x out of range, ...)."""


class GridError(FbmInfoflowError):
    """Time grid incompatible with the requested sampler."""


class FlowEscapeError(FbmInfoflowError):
    """A flow point or start off sigma's working domain or its table, or a NaN."""


class DegenerateTimeError(FbmInfoflowError):
    """t = 0 requested where the law is a point mass and has no density."""


class QuadratureError(FbmInfoflowError):
    """Adaptive quadrature failed to converge."""


class SupportError(FbmInfoflowError):
    """Support of p not contained in support of q."""


class StepError(FbmInfoflowError):
    """Finite-difference step incompatible with the evaluation time."""


class ConfigError(FbmInfoflowError):
    """Invalid CLI / suite configuration."""
