"""Numeric conventions and deterministic randomness.

All network math in this package runs on row-major float64 numpy arrays.
This module owns the working dtype, the finiteness policy (NaN/Inf is an
error state, never a value), and the seeded generator every stochastic
component draws from.
"""

from __future__ import annotations

import math

import numpy as np

DTYPE = np.float64


def check_finite(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    """Raise FloatingPointError if ``x`` contains NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite values in {what}")
    return x


def finite_sum(values) -> bool:
    """One finiteness check for a whole record; an int too large for a float fails."""
    try:
        return math.isfinite(sum(values))
    except OverflowError:
        return False


def check_finite_fields(fields: dict) -> None:
    """Raise ValueError naming the first non-finite value of a record.

    Callers test ``finite_sum`` of the fields first and call this only when
    that fails, so a valid record costs one check.
    """
    for name, value in fields.items():
        if not finite_sum((value,)):
            raise ValueError(f"field {name!r} is not finite")


class Rng:
    """Deterministic random stream: PCG64 seeded with a 64-bit integer.

    The same seed yields the same draw sequence on every platform, which is
    what makes dropout masks, parameter init, and scene generation exactly
    reproducible. Methods delegate to ``numpy.random.Generator``.
    """

    algorithm = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def __repr__(self):
        return f"Rng(seed={self.seed})"
