"""Exception types with an exit code of their own, and the shared domain check.

An argument or setting outside its domain, or a count that is not an
integer, raises ValueError naming it (`check_value`).  A class below exists
only where a caller can tell it apart by more than its message: a line
number, or an entry in `cli._EXIT_CODES`.
"""

import dataclasses
import math
from functools import lru_cache

import numpy as np


def check_value(name, value, *, integer=False, gt=None, ge=None, lt=None, le=None) -> None:
    """Reject a non-finite float, or a value outside any gt/ge/lt/le bound.

    Fails as `<name> must be <op> <bound>, got <value>`, or as `<name> must
    be finite, got <value>`.  With integer=True (a count) any other finite
    value than an int or a NumPy integer fails as `<name> must be an integer,
    got <value>`.
    """
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if integer and not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if gt is not None and not value > gt:
        raise ValueError(f"{name} must be > {gt}, got {value}")
    if ge is not None and not value >= ge:
        raise ValueError(f"{name} must be >= {ge}, got {value}")
    if lt is not None and not value < lt:
        raise ValueError(f"{name} must be < {lt}, got {value}")
    if le is not None and not value <= le:
        raise ValueError(f"{name} must be <= {le}, got {value}")


def fed_by(**inputs) -> str:
    """`, from a = 1, b = 2`: what an error naming a derived figure appends, its inputs."""
    return ", from " + ", ".join(f"{name} = {value:g}" for name, value in inputs.items())


def derived(name, compute, **inputs) -> float:
    """compute(), a figure derived from `inputs`, which must come out finite.

    A Python ArithmeticError (a divisor that underflowed to 0, a `**` that
    overflowed) reads as inf.  A result that is not finite fails as `<name>
    must be finite, got <value>, from <input> = <value>, ...` (`fed_by`).
    """
    try:
        value = compute()
    except ArithmeticError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}" + fed_by(**inputs))
    return value


@lru_cache(maxsize=None)
def _field_rules(cls):
    """(name, integer, gt, ge, lt, le) of each field of a dataclass, built once per class."""
    rules = []
    for f in dataclasses.fields(cls):
        unknown = set(f.metadata) - {"gt", "ge", "lt", "le"}
        if unknown:
            raise ValueError(f"{cls.__name__}.{f.name} declares unknown bounds {sorted(unknown)}")
        rules.append((f.name, f.type in ("int", int),
                      *(f.metadata.get(kind) for kind in ("gt", "ge", "lt", "le"))))
    return tuple(rules)


def check_fields(obj) -> None:
    """check_value on each set field of a dataclass, with the bounds it declares.

    A field declares its domain as `field(metadata={"ge": 1})`, with any of
    gt, ge, lt and le, and a field declared `int` must hold an integer.  None
    (unset) passes.  A class whose metadata holds any other key is rejected
    the first time one of its instances is checked.
    """
    for name, integer, gt, ge, lt, le in _field_rules(type(obj)):
        value = getattr(obj, name)
        if value is not None:
            check_value(name, value, integer=integer, gt=gt, ge=ge, lt=lt, le=le)


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
