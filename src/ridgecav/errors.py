"""Exception types with an exit code of their own, and the shared domain check.

An argument or setting outside its domain, or a count that is not an
integer, raises ValueError naming it (`check_value`).  A class below exists
only where a caller can tell it apart by more than its message: a line
number, or an entry in `cli._EXIT_CODES`.
"""

import dataclasses
import math
import operator

import numpy as np

_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
           "lt": (operator.lt, "<"), "le": (operator.le, "<=")}


def _check(name, value, bounds, integer=False) -> None:
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if integer and not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    for kind, bound in bounds.items():
        holds, symbol = _BOUNDS[kind]
        if not holds(value, bound):
            raise ValueError(f"{name} must be {symbol} {bound}, got {value}")


def check_value(name, value, *, integer=False, **bounds) -> None:
    """Reject a non-finite float, or a value outside any gt/ge/lt/le bound.

    Fails as `<name> must be <op> <bound>, got <value>`, or as `<name> must
    be finite, got <value>`.  With integer=True (a count) any other finite
    value than an int or a NumPy integer fails as `<name> must be an integer,
    got <value>`.
    """
    _check(name, value, bounds, integer)


def check_fields(obj) -> None:
    """check_value on each set field of a dataclass, with the bounds it declares.

    A field declares its domain as `field(metadata={"ge": 1})`, with any of
    gt, ge, lt and le, and a field declared `int` must hold an integer.  None
    (unset) passes.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is not None:
            # metadata is a mappingproxy: unpacking it as **kwargs costs more
            # than the whole check
            _check(f.name, value, f.metadata, f.type in ("int", int))


class RidgecavError(Exception):
    """Base class of the toolkit's own errors."""


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


class SeriesNotConverged(RidgecavError):
    """A truncated multiple-reflection sum: the term cap hit, or R + T above 1."""


class EigensolveFailed(RidgecavError):
    """The Lanczos eigensolve for the mode did not converge within its step cap."""


class FitDiverged(RidgecavError):
    """Least-squares iteration failed to converge."""
