"""The seeded generator and the identity equality of array-holding dataclasses."""

import numpy as np
import pytest

from pan.backbone import EnhancerConfig, init_backbone
from pan.fusion import BevFeatureMap, OccupancyMap, init_mcda
from pan.layers import BatchNormStats, LinearParams
from pan.pillars import PillarConfig, PillarGrid, PointCloud, TokenBatch
from pan.tensor import Rng


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
