"""The seeded generator, the identity equality of array-holding dataclasses,
and the one bad-value rule that every number setting is checked by."""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from pan.backbone import EnhancerConfig, init_backbone
from pan.fusion import BevFeatureMap, McdaParams, OccupancyMap, init_mcda
from pan.layers import BatchNormStats, LinearParams
from pan.metrics import EvalConfig, nds
from pan.pillars import PillarConfig, PillarGrid, PointCloud, TokenBatch
from pan.safety import SafetyInput
from pan.synth import PerturbSpec, SceneSpec
from pan.tensor import Rng, check_settings


class TestRng:
    @pytest.mark.parametrize("seed", [0, 7, -1, 2 ** 64 + 3])
    def test_is_a_pcg64_generator_on_the_low_64_bits(self, seed):
        rng = Rng(seed)
        ref = np.random.Generator(np.random.PCG64(seed & (2 ** 64 - 1)))
        assert isinstance(rng, np.random.Generator)
        assert rng.random() == ref.random()
        assert rng.normal() == ref.normal()
        assert rng.integers(0, 1000) == ref.integers(0, 1000)
        assert rng.choice(10) == ref.choice(10)
        assert rng.poisson(3.0) == ref.poisson(3.0)
        assert np.array_equal(rng.permutation(8), ref.permutation(8))

    def test_import_pan_leaves_numpy_random_unloaded(self):
        # the eval commands never draw, so importing pan must not load numpy.random
        code = "import sys, pan; assert 'numpy.random' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


class TestImportScope:
    """The package re-exports nothing, so importing a module loads only what it uses."""

    @pytest.mark.parametrize("module, loaded", [
        ("pan", ["pan"]),
        ("pan.io", ["pan", "pan.io", "pan.layers", "pan.metrics", "pan.pillars", "pan.tensor"]),
        ("pan.fusion", ["pan", "pan.fusion", "pan.layers", "pan.tensor"]),
        ("pan.layers", ["pan", "pan.layers", "pan.tensor"]),
    ])
    def test_fresh_import_loads_only_its_dependencies(self, module, loaded):
        code = (f"import sys, {module}; "
                "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'pan'))")
        out = subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                             capture_output=True, text=True).stdout
        assert out.split() == loaded


def _backbone():
    cfg = PillarConfig(x_min=-4.0, x_max=4.0, y_min=-4.0, y_max=4.0, pillar_size=1.0,
                       out_channels=3)
    return init_backbone(cfg, EnhancerConfig(embed_dim=4), Rng(0))


# two calls of each factory give equal contents in distinct objects
ARRAY_DATACLASSES = {
    "PointCloud": lambda: PointCloud("f", [(1.0, 2.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0)] * 2),
    "PillarGrid": lambda: PillarGrid(np.zeros((2, 2), dtype=bool), np.zeros((0, 3))),
    "TokenBatch": lambda: TokenBatch(np.ones((2, 3)), [[0, 0], [0, 1]]),
    "LinearParams": lambda: LinearParams(np.ones((2, 3)), np.zeros(3)),
    "BatchNormStats": lambda: BatchNormStats.fresh(3),
    "PfnParams": lambda: _backbone().pfn,
    "ConvStageParams": lambda: _backbone().enhancer.conv1,
    "EnhancerParams": lambda: _backbone().enhancer,
    "BackboneParams": _backbone,
    "BevFeatureMap": lambda: BevFeatureMap(np.ones((2, 2, 3)), 0.5),
    "OccupancyMap": lambda: OccupancyMap(np.zeros((2, 2))),
    "McdaParams": lambda: init_mcda(4, [3], 4, heads=1, points_per_head=1, value_dim=2,
                                    rng=Rng(0)),
}


@pytest.mark.parametrize("name", ARRAY_DATACLASSES)
def test_equality_is_identity(name):
    a, b = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert type(a).__name__ == name
    assert a == a
    assert a != b
    assert len({a, b}) == 2


# valid values for the fields that have no default
REQUIRED = {
    SafetyInput: {"v0": 10.0},
    BevFeatureMap: {"data": np.zeros((2, 2, 1)), "meters_per_cell": 1.0},
}
SETTINGS = (PillarConfig, EnhancerConfig, EvalConfig, SceneSpec, PerturbSpec, SafetyInput,
            BevFeatureMap)
BAD_NUMBERS = (math.nan, math.inf, "1", None, True)


def _valid_fields(cls) -> dict:
    fields = {f.name: f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
              for f in dataclasses.fields(cls)}
    return {**fields, **REQUIRED.get(cls, {})}


def _bad_values(valid) -> tuple:
    """The bad inputs for a number field whose valid value is ``valid``."""
    if type(valid) is bool:
        return (1, "true")
    return BAD_NUMBERS + ((2.5,) if type(valid) is int else ())


def _bad_settings():
    """(class, field, bad value) for every number field of every setting; a
    tuple or dict field gets one bad element at a time."""
    for cls in SETTINGS:
        for name, valid in _valid_fields(cls).items():
            if type(valid) in (bool, int, float):
                for bad in _bad_values(valid):
                    yield pytest.param(cls, name, bad, id=f"{cls.__name__}.{name}={bad!r}")
            elif isinstance(valid, (tuple, dict)):
                keys = range(len(valid)) if isinstance(valid, tuple) else list(valid)
                for key in keys:
                    for bad in _bad_values(valid[key]):
                        if (cls, name, key, bad) == (EvalConfig, "range_filter", 1, math.inf):
                            continue  # an open-ended band, as in ``pan eval --range 0:inf``
                        value = (dict(valid, **{key: bad}) if isinstance(valid, dict)
                                 else valid[:key] + (bad,) + valid[key + 1:])
                        yield pytest.param(cls, name, value,
                                           id=f"{cls.__name__}.{name}[{key}]={bad!r}")


@pytest.mark.parametrize("cls, name, value", _bad_settings())
def test_bad_number_setting_names_its_field(cls, name, value):
    with pytest.raises(ValueError, match=rf"^field '{name}(\[\d+\])?' "):
        cls(**{**_valid_fields(cls), name: value})


def test_open_ended_range_filter_accepted():
    assert EvalConfig(range_filter=(0.0, math.inf)).range_filter == (0.0, math.inf)


@pytest.mark.parametrize("kernel", range(1, 9))
def test_conv_kernel_must_be_odd(kernel):
    if kernel % 2:
        assert EnhancerConfig(conv_kernel=kernel).conv_kernel == kernel
    else:
        with pytest.raises(ValueError) as info:
            EnhancerConfig(conv_kernel=kernel)
        assert str(info.value) == f"field 'conv_kernel' must be odd, got {kernel}"


@pytest.mark.parametrize("make, message", [
    (lambda: EnhancerConfig(embed_dim=8, num_heads=3),
     "field 'embed_dim' must be divisible by num_heads 3, got 8"),
    (lambda: EnhancerConfig(conv_kernel=2), "field 'conv_kernel' must be odd, got 2"),
    (lambda: PillarConfig(x_max=50.3),
     "field 'x_max' must be a whole number of 0.78125 m pillars above x_min -50, got 50.3"),
    (lambda: EvalConfig(range_filter=(50.0, 50.0)),
     "field 'range_filter' must be two numbers lo < hi, got [50.0, 50.0]"),
    (lambda: SafetyInput(v0=10.0, mu=0.0), "field 'mu' must be > 0, got 0.0"),
    (lambda: BevFeatureMap(np.zeros((2, 2, 1)), 0.0),
     "field 'meters_per_cell' must be > 0, got 0.0"),
    (lambda: nds(1.5, [0.0] * 5), "field 'mAP' must be in [0, 1], got 1.5"),
    (lambda: nds(math.nan, [0.0] * 5), "field 'mAP' is not finite"),
    (lambda: SceneSpec(position_range=-1.0), "field 'position_range' must be > 3.0, got -1.0"),
])
def test_setting_rule_reads_as_field_error(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


# one value per field that breaks that field's own rule, in declaration order;
# a field with no rule of its own (x_min, data) is not listed
RULE_BREAKERS = {
    PillarConfig: {"pillar_size": 0.0, "max_points_per_pillar": 0, "out_channels": 0},
    EnhancerConfig: {"embed_dim": 0, "num_heads": 0, "dropout_p": 2.0, "conv_enabled": 1,
                     "conv_kernel": 0},
    SceneSpec: {"n_objects": -1, "class_mix": {"cars": 1.0}, "position_range": 3.0,
                "speed_range": (1.0, 0.0), "points_per_object": (2, 1), "clutter_rate": -1.0,
                "noise_pos": -1.0, "noise_vel": -1.0, "noise_rcs": -1.0, "n_sweeps": 0,
                "sweep_period": -1.0, "condition": "fog", "n_frames": 0},
    PerturbSpec: {"translation_sigma": -1.0, "scale_sigma": -1.0, "yaw_sigma": -1.0,
                  "velocity_sigma": -1.0, "drop_prob": 1.5, "fp_rate": -1.0,
                  "attr_flip_prob": -0.5, "score_range": (0.9, 0.1), "fp_position_range": 0.0},
    SafetyInput: {"v0": -1.0, "mu": 0.0, "g": 0.0, "t_r": -1.0},
    BevFeatureMap: {"meters_per_cell": 0.0},
    McdaParams: {"heads": 0, "modalities": 0, "points_per_head": 0},
}


def _build(cls, **changes):
    if cls is McdaParams:
        valid = init_mcda(4, [3], 4, heads=1, points_per_head=1, value_dim=2, rng=Rng(0))
        return dataclasses.replace(valid, **changes)
    return cls(**{**_valid_fields(cls), **changes})


def _field_pairs(cls, bad_values):
    """Every pair of fields in ``bad_values``, the first declared first."""
    order = [f.name for f in dataclasses.fields(cls) if f.name in bad_values]
    return [(a, b) for i, a in enumerate(order) for b in order[i + 1:]]


@pytest.mark.parametrize("cls", RULE_BREAKERS, ids=lambda cls: cls.__name__)
def test_rule_breakers_are_listed_in_declaration_order(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(RULE_BREAKERS[cls]) == [n for n in names if n in RULE_BREAKERS[cls]]


@pytest.mark.parametrize("cls", RULE_BREAKERS, ids=lambda cls: cls.__name__)
def test_each_field_rule_names_its_field(cls):
    for name, bad in RULE_BREAKERS[cls].items():
        with pytest.raises(ValueError, match=rf"^field '{name}' must be "):
            _build(cls, **{name: bad})


@pytest.mark.parametrize("cls", RULE_BREAKERS, ids=lambda cls: cls.__name__)
def test_two_bad_fields_name_the_one_declared_first(cls):
    breakers = RULE_BREAKERS[cls]
    for first, second in _field_pairs(cls, breakers):
        with pytest.raises(ValueError, match=rf"^field '{first}' must be "):
            _build(cls, **{first: breakers[first], second: breakers[second]})
    # a non-finite number fails the declared kind, before any rule, in the same order
    valid = _build(cls)
    numbers = {f.name: math.nan for f in dataclasses.fields(cls)
               if type(getattr(valid, f.name)) in (int, float, bool)}
    for first, second in _field_pairs(cls, numbers):
        with pytest.raises(ValueError, match=rf"^field '{first}' "):
            _build(cls, **{first: math.nan, second: math.nan})


def test_enhancer_names_dropout_before_conv_kernel():
    with pytest.raises(ValueError) as info:
        EnhancerConfig(conv_kernel=0, dropout_p=2.0)
    assert str(info.value) == "field 'dropout_p' must be in [0, 1), got 2.0"


@pytest.mark.parametrize("cls, constant", [
    (EnhancerConfig, "use_attn_out"),
    (McdaParams, "normalize_jointly"),
    (EvalConfig, "match_thresholds_m"),
])
def test_class_constants_are_not_checked(monkeypatch, cls, constant):
    assert constant not in {f.name for f in dataclasses.fields(cls)}
    monkeypatch.setattr(cls, constant, math.nan)
    assert getattr(_build(cls), constant) is math.nan


def test_check_settings_refuses_a_rule_for_no_field():
    with pytest.raises(TypeError, match=r"rules for no field of SafetyInput: \['speed'\]"):
        check_settings(SafetyInput(v0=1.0), speed=0)
