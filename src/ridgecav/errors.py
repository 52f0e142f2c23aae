"""Exception types raised by the toolkit, and the shared finiteness check."""

import dataclasses
import math


def require_finite(obj) -> None:
    """Reject a dataclass whose float fields are not all finite; None (unset) passes."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


class RidgecavError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(RidgecavError):
    """Configuration file is malformed or fails validation.

    ``line`` is set when the parser can point at a specific line.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NoGuidedMode(RidgecavError):
    """The structure supports no guided mode (largest n_eff <= n_clad)."""


class GridTooSmall(RidgecavError):
    """Grid window does not contain the structure or the mode tails."""


class ZeroField(RidgecavError):
    """Operation on a field with zero total power."""


class InsufficientSamples(RidgecavError):
    """Too few (wavelength, n_eff) samples for a dispersion estimate."""


class NegativeDistance(RidgecavError):
    """Propagation distance must be non-negative."""


class GridMismatch(RidgecavError):
    """Fields live on different grids or wavelengths."""


class InvalidIndex(RidgecavError):
    """Refractive index outside the physical range (n >= 1)."""


class SeriesNotConverged(RidgecavError):
    """Multiple-reflection series hit the term cap before the tolerance."""


class EigensolveFailed(RidgecavError):
    """The mode's shifted operator is singular or the eigensolver did not converge."""


class OutOfRange(RidgecavError):
    """Scalar argument outside the operation's domain."""


class NoSolution(RidgecavError):
    """Inverse problem has no solution in the valid domain."""


class InsufficientData(RidgecavError):
    """Not enough data points to constrain the fit."""


class FitDiverged(RidgecavError):
    """Least-squares iteration failed to converge."""
