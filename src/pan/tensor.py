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


def finite_sum(values) -> bool:
    """One finiteness check for a whole record: False when a value is not a
    number or the sum is not finite, an int too large for a float included."""
    try:
        return math.isfinite(sum(values))
    except (TypeError, OverflowError):
        return False


def finite_numbers(values) -> bool:
    """``finite_sum`` for a parsed JSON record, where a bool is no number."""
    return bool not in map(type, values) and finite_sum(values)


def check_number_fields(fields: dict, integers: tuple = ()) -> None:
    """Raise ValueError naming the first field that is not a finite number,
    or not an integer for the names in ``integers``.

    The record readers test ``finite_sum`` or ``finite_numbers`` of the fields
    first and call this only when that fails, so a valid record costs one check.
    """
    for name, value in fields.items():
        is_number = type(value) is not bool and isinstance(value, numbers.Real)
        if is_number and not finite_sum((value,)):
            raise ValueError(f"field {name!r} is not finite")
        if not is_number or (name in integers and not isinstance(value, numbers.Integral)):
            kind = "an integer" if name in integers else "a number"
            raise ValueError(f"field {name!r} must be {kind}, got {json.dumps(value, default=repr)}")


def Rng(seed: int) -> np.random.Generator:
    """Deterministic random stream: a ``numpy.random.Generator`` on PCG64,
    seeded with the seed's low 64 bits.

    The same seed yields the same draw sequence on every platform, which is
    what makes dropout masks, parameter init, and scene generation exactly
    reproducible. NumPy loads ``numpy.random`` on the first call, so code
    that never draws never loads it.
    """
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))
