"""Stopping-distance calculators for the perception safety envelope.

Braking distance follows the constant-deceleration equation of motion with
a friction-limited deceleration of mu * g; reaction distance is speed times
reaction time. Their sum motivates splitting detection metrics at the
~25 m range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tensor import POSITIVE, check_settings, field_error

KMH_TO_MS = 1000.0 / 3600.0


@dataclass
class SafetyInput:
    v0: float          # initial speed, m/s
    mu: float = 0.7    # tire-road friction coefficient (dry asphalt)
    g: float = 9.81    # m/s^2
    t_r: float = 1.0   # reaction time, s

    def __post_init__(self):
        check_settings(self, v0=0, mu=POSITIVE, g=POSITIVE, t_r=0)
        try:
            finite = math.isfinite(total_stopping_distance(self))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            # name the field whose factor pushes the distance past the float
            # range: the largest log term of v0^2 / (2 mu g) + v0 t_r
            logs = {"v0": 2.0 * math.log(self.v0 or 1.0), "mu": -math.log(self.mu),
                    "g": -math.log(self.g), "t_r": math.log(self.t_r or 1.0)}
            name = max(logs, key=logs.get)
            size = "large" if name in ("mu", "g") else "small"
            raise field_error(name, f"{size} enough for a finite stopping distance",
                              getattr(self, name))


def braking_distance(inp: SafetyInput) -> float:
    """Distance to brake from v0 to rest: v0^2 / (2 * mu * g)."""
    return inp.v0 ** 2 / (2.0 * inp.mu * inp.g)


def reaction_distance(inp: SafetyInput) -> float:
    """Distance covered before braking starts: v0 * t_r."""
    return inp.v0 * inp.t_r


def total_stopping_distance(inp: SafetyInput) -> float:
    return braking_distance(inp) + reaction_distance(inp)
