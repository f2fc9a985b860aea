"""Numeric conventions and deterministic randomness.

All network math in this package runs on row-major float64 numpy arrays.
This module owns the working dtype, the finiteness policy (NaN/Inf is an
error state, never a value), the field checks (``check_settings`` walks a
settings dataclass), and the seeded generator every stochastic component draws from.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers

import numpy as np

DTYPE = np.float64


def check_finite(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    """Raise FloatingPointError if ``x`` contains NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite values in {what}")
    return x


def finite_numbers(values) -> bool:
    """One finiteness check for a whole record: False when a value is a bool
    or no number, or the sum is not finite, an int too large for a float included."""
    if bool in map(type, values):
        return False
    try:
        return math.isfinite(sum(values))
    except (TypeError, OverflowError):
        return False


def field_error(name: str, rule: str, value) -> ValueError:
    """The one bad-value error: ``field 'name' must be RULE, got VALUE``, the
    value as JSON (``repr`` for what JSON cannot write)."""
    return ValueError(f"field {name!r} must be {rule}, got {json.dumps(value, default=repr)}")


def check_number_fields(fields: dict, integers: tuple = ()) -> None:
    """Raise ValueError naming the first field that is not a finite number,
    or not an integer for the names in ``integers``.

    Record checks test ``finite_numbers`` of the fields first and call this
    only when that fails, so a valid record costs one check.
    """
    for name, value in fields.items():
        is_number = type(value) is not bool and isinstance(value, numbers.Real)
        if is_number and not finite_numbers((value,)):
            raise ValueError(f"field {name!r} is not finite")
        if not is_number or (name in integers and not isinstance(value, numbers.Integral)):
            raise field_error(name, "an integer" if name in integers else "a number", value)


def require(ok: bool, name: str, rule: str, value) -> None:
    """Raise ``field_error`` unless ``ok``."""
    if not ok:
        raise field_error(name, rule, value)


# rules shared by several fields, as ``check_field`` takes them
POSITIVE = ("> 0", lambda value: value > 0)
UNIT_INTERVAL = ("in [0, 1]", lambda value: 0 <= value <= 1)


def check_field(name: str, value, rule=None, kind: str = "float") -> None:
    """Check one field: its ``kind`` if that is ``int``, ``float`` (a finite number,
    integral for ``int``) or ``bool``, then its ``rule``, if any: a number n
    for ``>= n``, or a ``(rule text, test)`` pair."""
    if kind == "bool":
        require(type(value) is bool, name, "true or false", value)
    elif kind in ("int", "float"):
        check_number_fields({name: value}, integers=(name,) if kind == "int" else ())
    if rule is not None:
        text, test = rule if isinstance(rule, tuple) else (f">= {rule}", lambda v: v >= rule)
        require(test(value), name, text, value)


def check_settings(obj, **rules) -> None:
    """``check_field`` for each field of the dataclass ``obj`` in declaration order,
    the kind its declared type (a string: pan modules import ``annotations``) and
    the rule the one ``rules`` names for it. Class constants go unchecked."""
    for f in dataclasses.fields(obj):
        check_field(f.name, getattr(obj, f.name), rules.pop(f.name, None), f.type)
    if rules:
        raise TypeError(f"rules for no field of {type(obj).__name__}: {sorted(rules)}")


def Rng(seed: int) -> np.random.Generator:
    """Deterministic random stream: a ``numpy.random.Generator`` on PCG64,
    seeded with the seed's low 64 bits.

    The same seed yields the same draw sequence on every platform, which is
    what makes dropout masks, parameter init, and scene generation exactly
    reproducible. NumPy loads ``numpy.random`` on the first call, so code
    that never draws never loads it.
    """
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))
