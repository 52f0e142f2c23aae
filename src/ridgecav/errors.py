"""Exception types raised by the toolkit, and the shared field check."""

import dataclasses
import math
import operator

_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
           "lt": (operator.lt, "<"), "le": (operator.le, "<=")}


def check_fields(obj) -> None:
    """Reject a dataclass field that is non-finite or outside its declared bounds.

    A field declares its domain as `field(metadata={"ge": 1})`, with any of
    gt, ge, lt and le.  None (unset) passes.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is None:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
        for kind, bound in f.metadata.items():
            holds, symbol = _BOUNDS[kind]
            if not holds(value, bound):
                raise ValueError(f"{f.name} must be {symbol} {bound}, got {value}")


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
    """Propagation distance must be finite and non-negative."""


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
