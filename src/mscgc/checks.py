"""The one rule for a config or spec value: its kind and its interval.

An `int` is an int or numpy integer, never a bool, and is returned as int.
A `float` is an int or float, never a bool, returned as given so a config's
hash does not move. A `bool` is a bool. An interval such as "[0, 1)" or
"(0, inf]" bounds a number, which is therefore finite unless the interval
closes on an infinity.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import ConfigError

FINITE = "(-inf, inf)"
_KINDS = {int: ((int, np.integer), "an integer"), float: ((int, float), "a number"),
          bool: (bool, "a bool")}


def whole(value):
    """An integral float such as 6.0 as the int 6; any other value unchanged."""
    return int(value) if isinstance(value, (float, np.floating)) and value.is_integer() else value


def check(name: str, value, kind: type, interval: str = FINITE):
    """`value` if it is of `kind` and within `interval`, else a ConfigError naming `name`."""
    types, noun = _KINDS[kind]
    if not isinstance(value, types) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if kind is bool:
        return value
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not ((lo < value or (interval[0] == "[" and lo == value))
            and (value < hi or (interval[-1] == "]" and value == hi))):
        raise ConfigError(f"{name} must be {noun} in {interval}, got {value!r}")
    return int(value) if kind is int else value


def check_items(name: str, values, kind: type, interval: str = FINITE, count: int = 0):
    """`values`, a list or tuple of `count` items (without a count, one or
    more), as a tuple of checked items; integral floats count as ints."""
    if not isinstance(values, (list, tuple)) or (len(values) != count if count else not values):
        raise ConfigError(f"{name} must be a list of {count or 'one or more'} values, got {values!r}")
    return tuple(check(name, whole(v) if kind is int else v, kind, interval) for v in values)


def check_fields(obj) -> None:
    """Check each int, float and bool field of dataclass `obj` in place: the
    kind read off its annotation, the interval off `obj.INTERVALS`."""
    for f in fields(obj):
        kind = {k.__name__: k for k in _KINDS}.get(getattr(f.type, "__name__", f.type))
        if kind is not None:
            interval = obj.INTERVALS.get(f.name, FINITE)
            setattr(obj, f.name, check(f.name, getattr(obj, f.name), kind, interval))
