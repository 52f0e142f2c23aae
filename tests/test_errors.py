"""The shared domain check: every message kind, and the per-class field rules."""

import dataclasses

import numpy as np
import pytest

from ridgecav.errors import check_fields, check_value


@pytest.mark.parametrize("bounds, value, message", [
    (dict(gt=0), 0.0, "x must be > 0, got 0.0"),
    (dict(ge=1), 0.5, "x must be >= 1, got 0.5"),
    (dict(lt=1), 1, "x must be < 1, got 1"),
    (dict(le=1.0), np.float64(1.5), "x must be <= 1.0, got 1.5"),
    (dict(gt=0, lt=1), -0.0, "x must be > 0, got -0.0"),
    (dict(gt=0, lt=1), 1.0, "x must be < 1, got 1.0"),
    (dict(ge=1), np.nan, "x must be finite, got nan"),
    (dict(), np.float64(-np.inf), "x must be finite, got -inf"),
    (dict(integer=True, ge=1), np.nan, "x must be finite, got nan"),
    (dict(integer=True, ge=1), 256.0, "x must be an integer, got 256.0"),
    (dict(integer=True, ge=1), np.float64(2.5), "x must be an integer, got np.float64(2.5)"),
    (dict(integer=True, ge=1), 0, "x must be >= 1, got 0"),
])
def test_check_value_messages(bounds, value, message):
    with pytest.raises(ValueError) as exc:
        check_value("x", value, **bounds)
    assert str(exc.value) == message


@pytest.mark.parametrize("bounds, value", [
    (dict(gt=0, le=1), 1.0), (dict(ge=1), 1), (dict(integer=True, ge=1), np.int64(3)),
    (dict(lt=0), -1e308), (dict(), 5e-324),
])
def test_check_value_accepts_values_in_their_domain(bounds, value):
    check_value("x", value, **bounds)


@dataclasses.dataclass(frozen=True)
class _Settings:
    count: int = dataclasses.field(default=3, metadata={"ge": 1})
    fraction: float = dataclasses.field(default=0.5, metadata={"gt": 0, "lt": 1})
    pinned: float | None = dataclasses.field(default=None, metadata={"le": 2})
    label: str = "free"

    __post_init__ = check_fields


@pytest.mark.parametrize("fields, message", [
    (dict(count=0), "count must be >= 1, got 0"),
    (dict(count=2.0), "count must be an integer, got 2.0"),
    (dict(fraction=0.0), "fraction must be > 0, got 0.0"),
    (dict(fraction=1.0), "fraction must be < 1, got 1.0"),
    (dict(fraction=np.inf), "fraction must be finite, got inf"),
    (dict(pinned=2.5), "pinned must be <= 2, got 2.5"),
])
def test_check_fields_applies_each_fields_rule(fields, message):
    with pytest.raises(ValueError) as exc:
        _Settings(**fields)
    assert str(exc.value) == message


def test_check_fields_passes_unset_and_unbounded_fields():
    assert _Settings(pinned=None, label="x").count == 3


def test_a_dataclass_with_an_unknown_bound_is_rejected():
    # rejected on the first instance, even when the field is unset
    @dataclasses.dataclass(frozen=True)
    class Misspelt:
        width: float | None = dataclasses.field(default=None, metadata={"gte": 0})

        __post_init__ = check_fields

    for _ in range(2):
        with pytest.raises(ValueError, match=r"^Misspelt.width declares unknown bounds \['gte'\]$"):
            Misspelt()
