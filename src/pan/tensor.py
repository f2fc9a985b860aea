"""Numeric conventions and deterministic randomness.

All network math in this package runs on row-major float64 numpy arrays.
This module owns the working dtype, the finiteness policy (NaN/Inf is an
error state, never a value), and the seeded generator every stochastic
component draws from.
"""

from __future__ import annotations

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


def check_numbers(obj, names: tuple, integers: tuple = (),
                  at_least: dict | None = None) -> None:
    """Every field of ``obj`` in ``names`` is a finite number, an integer for
    those in ``integers``, and >= its bound in ``at_least`` (0 when not listed)."""
    check_number_fields({name: getattr(obj, name) for name in names}, integers)
    for name in names:
        bound = (at_least or {}).get(name, 0)
        require(getattr(obj, name) >= bound, name, f">= {bound}", getattr(obj, name))


def Rng(seed: int) -> np.random.Generator:
    """Deterministic random stream: a ``numpy.random.Generator`` on PCG64,
    seeded with the seed's low 64 bits.

    The same seed yields the same draw sequence on every platform, which is
    what makes dropout masks, parameter init, and scene generation exactly
    reproducible. NumPy loads ``numpy.random`` on the first call, so code
    that never draws never loads it.
    """
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))
