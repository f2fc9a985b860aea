"""Stopping-distance calculator tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pan.safety import KMH_TO_MS, SafetyInput, braking_distance, reaction_distance, total_stopping_distance

V50 = 50.0 * KMH_TO_MS  # 13.889 m/s


class TestBrakingDistance:
    def test_city_speed_dry_asphalt(self):
        d = braking_distance(SafetyInput(v0=V50, mu=0.7))
        assert 14.0 <= d <= 14.2

    def test_zero_speed(self):
        assert braking_distance(SafetyInput(v0=0.0)) == 0.0

    def test_quadratic_in_speed(self):
        d1 = braking_distance(SafetyInput(v0=10.0))
        d2 = braking_distance(SafetyInput(v0=20.0))
        assert d2 == pytest.approx(4.0 * d1, rel=1e-12)

    def test_rejects_nonpositive_friction(self):
        with pytest.raises(ValueError):
            SafetyInput(v0=10.0, mu=0.0)
        with pytest.raises(ValueError):
            SafetyInput(v0=10.0, g=-9.81)


    @pytest.mark.parametrize("fields, message", [
        ({"v0": float("nan")}, "field 'v0' is not finite"),
        ({"v0": 10.0, "mu": float("inf")}, "field 'mu' is not finite"),
        ({"v0": 10.0, "g": None}, "field 'g' must be a number, got null"),
        ({"v0": 10.0, "t_r": float("nan")}, "field 't_r' is not finite"),
        ({"v0": -1.0}, "field 'v0' must be >= 0, got -1.0"),
        ({"v0": 10.0, "t_r": -0.5}, "field 't_r' must be >= 0, got -0.5"),
    ])
    def test_rejects_bad_fields(self, fields, message):
        with pytest.raises(ValueError) as info:
            SafetyInput(**fields)
        assert str(info.value) == message

    @pytest.mark.parametrize("fields, message", [
        ({"v0": 1e200}, "field 'v0' must be small enough for a finite stopping distance, "
                        "got 1e+200"),
        ({"v0": 13.9, "mu": 1e-320}, "field 'mu' must be large enough for a finite stopping "
                                     "distance, got 1e-320"),
        ({"v0": 13.9, "g": 1e-310}, "field 'g' must be large enough for a finite stopping "
                                    "distance, got 1e-310"),
        ({"v0": 0.0, "mu": 1e-300, "g": 1e-300}, "field 'mu' must be large enough for a finite "
                                                 "stopping distance, got 1e-300"),
        ({"v0": 13.9, "t_r": 1e308}, "field 't_r' must be small enough for a finite stopping "
                                     "distance, got 1e+308"),
        ({"v0": 1e100, "t_r": 1e250}, "field 't_r' must be small enough for a finite stopping "
                                      "distance, got 1e+250"),
    ])
    def test_distance_out_of_float_range_rejected_by_field(self, fields, message):
        # v0 ** 2 overflows, the deceleration 2 mu g vanishes, or a sum reaches inf
        with pytest.raises(ValueError) as info:
            SafetyInput(**fields)
        assert str(info.value) == message

    def test_largest_finite_distances_accepted(self):
        inp = SafetyInput(v0=1e150, mu=1e-5, t_r=1e150)
        assert math.isfinite(total_stopping_distance(inp))


class TestReactionDistance:
    def test_one_second_at_city_speed(self):
        d = reaction_distance(SafetyInput(v0=V50, t_r=1.0))
        assert 13.8 <= d <= 14.0

    def test_zero_reaction_time(self):
        assert reaction_distance(SafetyInput(v0=20.0, t_r=0.0)) == 0.0

    def test_double_speed_half_time(self):
        d = reaction_distance(SafetyInput(v0=100.0 * KMH_TO_MS, t_r=0.5))
        assert d == pytest.approx(13.889, abs=1e-3)


class TestTotalStoppingDistance:
    def test_city_speed_envelope(self):
        d = total_stopping_distance(SafetyInput(v0=V50))
        assert 25.0 <= d <= 30.0

    def test_zero_speed(self):
        assert total_stopping_distance(SafetyInput(v0=0.0)) == 0.0

    def test_wet_road_doubles_braking_component(self):
        dry = braking_distance(SafetyInput(v0=V50, mu=0.7))
        wet = braking_distance(SafetyInput(v0=V50, mu=0.35))
        assert wet == pytest.approx(2.0 * dry, rel=1e-12)


@given(st.floats(0.1, 60.0), st.floats(0.1, 60.0), st.floats(0.05, 1.5),
       st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_monotonicity_properties(v_lo, v_delta, mu, t_r):
    v_hi = v_lo + v_delta
    lo = SafetyInput(v0=v_lo, mu=mu, t_r=t_r)
    hi = SafetyInput(v0=v_hi, mu=mu, t_r=t_r)
    assert braking_distance(hi) > braking_distance(lo)   # strictly increasing in v0
    harder = SafetyInput(v0=v_lo, mu=mu + 0.1, t_r=t_r)
    assert braking_distance(harder) < braking_distance(lo)  # decreasing in mu
    assert reaction_distance(hi) >= reaction_distance(lo)
    assert total_stopping_distance(lo) == pytest.approx(
        braking_distance(lo) + reaction_distance(lo), rel=1e-12)
