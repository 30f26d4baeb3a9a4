"""Value checks shared by the config classes and the scenario schema.

Each checker takes a value and the path that names it, returns the checked
value (a number as a float, a vector as a list of floats) and raises
``ScenarioError``, a ``ValueError`` whose message starts with the path, at
the first fault. A config class declares one checker per field with
``checked``; ``check_fields`` runs them from its ``__post_init__``.
"""

from __future__ import annotations

import math
from dataclasses import field, fields


class ScenarioError(ValueError):
    """A scenario value, or a config field given directly, failed its check;
    the message starts with its field path."""


def _fail(path: str, problem: str):
    raise ScenarioError(f"{path}: {problem}")


def _num(value, path: str, lo=None, hi=None, lo_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        _fail(path, "must be finite")
    if lo is not None and (v <= lo if lo_open else v < lo):
        _fail(path, f"must be {'>' if lo_open else '>='} {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(path, f"must be <= {hi}, got {v}")
    return v


def _int(value, path: str, lo=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        _fail(path, f"must be >= {lo}, got {value}")
    return value


def _vec(value, n: int, path: str) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        _fail(path, f"expected a list of {n} numbers, got {value!r}")
    return [_num(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _pos(value, path: str) -> float:
    return _num(value, path, lo=0.0, lo_open=True)


def _at_least_zero(value, path: str) -> float:
    return _num(value, path, lo=0.0)


def _count(value, path: str) -> int:
    return _int(value, path, lo=1)


def _xyz(value, path: str) -> list:
    return _vec(value, 3, path)


def checked(default, check):
    """A dataclass field with its default and its checker."""
    return field(default=default, metadata={"check": check})


def check_fields(obj) -> None:
    """Run each field's check of a frozen dataclass, every field ``checked``,
    in field order, storing the checked value: 1 becomes 1.0, a vector a
    tuple of floats."""
    for f in fields(obj):
        value = f.metadata["check"](getattr(obj, f.name), f.name)
        object.__setattr__(obj, f.name, tuple(value) if isinstance(value, list) else value)
