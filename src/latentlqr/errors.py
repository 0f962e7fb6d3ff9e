"""Exception hierarchy shared across the package.

Validation errors cover bad user input (dimensions, config values);
numerical errors cover solver and conditioning failures discovered at
run time. The CLI maps the former to exit code 2 and the latter to 3.
"""
from contextlib import contextmanager


class LatentLqrError(Exception):
    """Base class for all package errors."""


class ValidationError(LatentLqrError, ValueError):
    """Invalid inputs: dimension mismatches, bad config values, unknown names."""


class NumericalError(LatentLqrError, RuntimeError):
    """Numerical failure in an otherwise valid computation."""


class UnstableMatrixError(NumericalError):
    """Spectral radius >= 1 where a stable matrix is required."""


class ConvergenceError(NumericalError):
    """Fixed-point iteration exceeded its iteration cap or left the finite range."""


class DegenerateSpectrumError(NumericalError):
    """Eigen-gap too small to identify the leading subspace."""


class IllConditionedCovarianceError(NumericalError):
    """Estimated covariance too close to singular to invert safely."""


class InfeasibleBurnInError(ValidationError):
    """Burn-in computed from the parameter bounds exceeds the configured cap."""


@contextmanager
def tagged(label: str):
    """Prefix the message of an exception escaping the block with [label]."""
    try:
        yield
    except Exception as exc:
        exc.args = (f"[{label}] {exc}",) + exc.args[1:]
        raise
