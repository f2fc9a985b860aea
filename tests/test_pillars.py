"""Pillarization, gather/scatter round trips, and sparsity invariants."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pan.layers import BatchNormStats, LinearParams
from pan.pillars import (
    MAX_GRID_CELLS,
    PfnParams,
    PillarConfig,
    PillarGrid,
    PointCloud,
    RAW_CHANNELS,
    SWEEP_INDEX,
    SWEEP_OFFSET,
    RadarPoint,
    TokenBatch,
    bin_points,
    gather,
    init_pfn,
    pillarize,
    scatter,
)
from pan.tensor import Rng


def small_cfg(**kw):
    defaults = dict(x_min=-8.0, x_max=8.0, y_min=-8.0, y_max=8.0,
                    pillar_size=1.0, max_points_per_pillar=4, out_channels=6)
    defaults.update(kw)
    return PillarConfig(**defaults)


def passthrough_pfn(cfg):
    """Linear = first C raw channels, no normalization: features stay readable."""
    c = cfg.out_channels
    weight = np.zeros((RAW_CHANNELS, c))
    weight[:c, :c] = np.eye(c)
    return PfnParams(
        lin=LinearParams(weight=weight, bias=np.zeros(c)),
        bn_gamma=np.ones(c),
        bn_beta=np.zeros(c),
        bn_stats=BatchNormStats.fresh(c),
    )


def random_sparse_grid(rng, h=32, w=32, c=4, fill=0.1):
    mask = rng.random(size=(h, w)) < fill
    data = np.where(mask[:, :, None], rng.normal(size=(h, w, c)), 0.0)
    return PillarGrid(mask=mask, features=data[mask])


class TestPointCloud:
    def test_empty_sequence_is_zero_rows(self):
        for empty in ([], (), np.zeros((0, 8))):
            pc = PointCloud("f", empty)
            assert pc.points.shape == (0, 8) and pc.points.dtype == np.float64
            assert len(pc) == 0
        assert PointCloud("f").points.shape == (0, 8)

    def test_radar_points_become_rows_in_field_order(self):
        pts = [RadarPoint(x=1.0, y=2.0, z=3.0, vx=4.0, vy=5.0, rcs=6.0),
               RadarPoint(-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, sweep_offset=0.5, sweep_index=3)]
        pc = PointCloud("f", pts)
        assert len(pc) == 2
        assert np.array_equal(pc.points, [[1, 2, 3, 4, 5, 6, 0, 0],
                                          [-1, -2, -3, -4, -5, -6, 0.5, 3]])
        assert pc.points[1, SWEEP_INDEX] == 3 and pc.points[1, SWEEP_OFFSET] == 0.5

    @pytest.mark.parametrize("shape", [(8, 7), (7, 9), (16,), (2, 8, 1)])
    def test_rejects_anything_but_n_by_8(self, shape):
        with pytest.raises(ValueError, match=rf"\[N, 8\] array, got shape {re.escape(str(shape))}"):
            PointCloud("f", np.zeros(shape))


class TestPillarize:
    def test_empty_cloud(self):
        cfg = small_cfg()
        grid = pillarize(PointCloud("f", []), cfg, init_pfn(cfg, Rng(0)))
        assert grid.pillar_count == 0
        assert np.all(grid.data == 0.0)
        assert grid.data.shape == (16, 16, 6)

    def test_single_point_lands_in_corner_cell(self):
        cfg = small_cfg()
        # half a pillar above both minima -> grid index (0, 0)
        pt = RadarPoint(x=cfg.x_min + 0.5 * cfg.pillar_size,
                        y=cfg.y_min + 0.5 * cfg.pillar_size,
                        z=0.0, vx=1.0, vy=0.0, rcs=5.0)
        grid = pillarize(PointCloud("f", [pt]), cfg, passthrough_pfn(cfg))
        assert grid.pillar_count == 1
        assert grid.mask[0, 0]
        assert np.all(grid.data[1:, :, :] == 0.0)

    def test_duplicate_points_idempotent_under_max(self):
        cfg = small_cfg()
        pfn = init_pfn(cfg, Rng(1))
        pt = RadarPoint(x=1.3, y=2.7, z=0.0, vx=0.5, vy=-1.0, rcs=3.0)
        one = pillarize(PointCloud("f", [pt]), cfg, pfn)
        two = pillarize(PointCloud("f", [pt, pt]), cfg, pfn)
        # ULP-level slack: BLAS may evaluate a row differently for 1- vs 2-row inputs
        assert np.allclose(one.data, two.data, atol=1e-12)
        assert np.array_equal(one.mask, two.mask)

    def test_non_finite_coordinates_rejected(self):
        # the cloud refuses the row when it is built, before any pillarize
        pts = [RadarPoint(x=float("nan"), y=0.0, z=0.0, vx=0.0, vy=0.0, rcs=0.0)]
        with pytest.raises(ValueError, match="^field 'x' is not finite$"):
            PointCloud("f", pts)

    def test_non_finite_elevation_rejected(self):
        # z never enters a feature, but NaN/Inf is an error state, not a value
        pts = [RadarPoint(x=0.5, y=0.5, z=float("inf"), vx=0.0, vy=0.0, rcs=0.0)]
        with pytest.raises(ValueError, match="^field 'z' is not finite$"):
            PointCloud("f", pts)

    def test_out_of_range_points_dropped(self):
        cfg = small_cfg()
        pts = [RadarPoint(x=100.0, y=0.0, z=0.0, vx=0.0, vy=0.0, rcs=0.0),
               RadarPoint(x=0.0, y=-200.0, z=0.0, vx=0.0, vy=0.0, rcs=0.0)]
        grid = pillarize(PointCloud("f", pts), cfg, init_pfn(cfg, Rng(2)))
        assert grid.pillar_count == 0

    @pytest.mark.parametrize("far", [1e20, -1e20, 1.7e308, -1.7e308])
    def test_points_far_outside_the_grid_dropped_without_warning(self, far):
        # no float -> int cast of an out-of-range index, and no overflow warning
        # (tier-1 runs with RuntimeWarning as an error)
        cfg = small_cfg(pillar_size=0.5)
        kept = RadarPoint(x=1.3, y=2.7, z=0.0, vx=0.5, vy=-1.0, rcs=3.0)
        pfn = init_pfn(cfg, Rng(2))
        alone = pillarize(PointCloud("f", [kept]), cfg, pfn)
        for x, y in ((far, 0.0), (0.0, far), (far, far)):
            far_pt = RadarPoint(x=x, y=y, z=0.0, vx=0.0, vy=0.0, rcs=0.0)
            pc = PointCloud("f", [far_pt, kept])
            pts, flat = bin_points(pc, cfg)
            assert np.array_equal(pts, pc.points[1:])
            assert flat.tolist() == [21 * 32 + 18]  # i = floor(10.7 / 0.5), j = floor(9.3 / 0.5)
            grid = pillarize(pc, cfg, pfn)
            assert np.array_equal(grid.mask, alone.mask)
            assert np.array_equal(grid.features, alone.features)

    def test_z_never_enters_features(self):
        cfg = small_cfg()
        pfn = init_pfn(cfg, Rng(3))
        base = RadarPoint(x=1.0, y=1.0, z=0.0, vx=1.0, vy=2.0, rcs=3.0)
        tall = RadarPoint(x=1.0, y=1.0, z=99.0, vx=1.0, vy=2.0, rcs=3.0)
        a = pillarize(PointCloud("f", [base]), cfg, pfn)
        b = pillarize(PointCloud("f", [tall]), cfg, pfn)
        assert np.array_equal(a.data, b.data)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance_without_overflow(self, seed):
        cfg = small_cfg(max_points_per_pillar=50)
        pfn = init_pfn(cfg, Rng(4))
        rng = Rng(seed)
        pts = [RadarPoint(x=float(rng.uniform(-8, 8)), y=float(rng.uniform(-8, 8)),
                          z=0.0, vx=float(rng.normal()), vy=float(rng.normal()),
                          rcs=float(rng.normal()), sweep_offset=0.1 * int(rng.integers(0, 3)),
                          sweep_index=int(rng.integers(0, 3)))
               for _ in range(30)]
        grid_a = pillarize(PointCloud("f", pts), cfg, pfn)
        perm = list(rng.permutation(len(pts)))
        grid_b = pillarize(PointCloud("f", [pts[i] for i in perm]), cfg, pfn)
        assert np.array_equal(grid_a.data, grid_b.data)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_overflow_truncation_is_order_free(self, seed):
        cfg = small_cfg(max_points_per_pillar=3)
        pfn = init_pfn(cfg, Rng(5))
        rng = Rng(seed)
        # ten points crowded into one pillar
        pts = [RadarPoint(x=float(0.1 + 0.08 * k), y=float(0.2 + 0.05 * k),
                          z=0.0, vx=float(rng.normal()), vy=float(rng.normal()),
                          rcs=float(rng.normal()), sweep_index=k)
               for k in range(10)]
        grid_a = pillarize(PointCloud("f", pts), cfg, pfn)
        perm = list(rng.permutation(len(pts)))
        grid_b = pillarize(PointCloud("f", [pts[i] for i in perm]), cfg, pfn)
        assert np.array_equal(grid_a.data, grid_b.data)

    def test_pillar_count_bounds(self):
        cfg = small_cfg()
        rng = Rng(6)
        pts = [RadarPoint(x=float(rng.uniform(-8, 8)), y=float(rng.uniform(-8, 8)),
                          z=0.0, vx=0.0, vy=0.0, rcs=0.0) for _ in range(40)]
        grid = pillarize(PointCloud("f", pts), cfg, init_pfn(cfg, rng))
        assert grid.pillar_count <= min(16 * 16, 40)

    def test_translation_by_one_pillar_shifts_mask(self):
        cfg = small_cfg()
        pfn = init_pfn(cfg, Rng(7))
        rng = Rng(8)
        # interior points, one pillar away from every x boundary
        pts = [RadarPoint(x=float(rng.uniform(-6, 5)), y=float(rng.uniform(-6, 6)),
                          z=0.0, vx=0.0, vy=0.0, rcs=1.0) for _ in range(25)]
        moved = [RadarPoint(x=p.x + cfg.pillar_size, y=p.y, z=0.0, vx=0.0, vy=0.0, rcs=1.0)
                 for p in pts]
        mask_a = pillarize(PointCloud("f", pts), cfg, pfn).mask
        mask_b = pillarize(PointCloud("f", moved), cfg, pfn).mask
        assert np.array_equal(np.roll(mask_a, 1, axis=1), mask_b)


def loop_pillarize(points, cfg, pfn, training):
    """``pillarize`` by an explicit loop over the occupied cells: the mask, the
    feature rows and, in training, the batch mean and variance of the encoder."""
    size = cfg.pillar_size
    cells = {}
    for x, y, z, vx, vy, rcs, dt, sweep in points.tolist():
        j = math.floor((x - cfg.x_min) / size)
        i = math.floor((y - cfg.y_min) / size)
        if 0 <= i < cfg.height and 0 <= j < cfg.width:
            cells.setdefault((i, j), []).append((x, y, vx, vy, rcs, dt, sweep))
    encoded = {}
    for (i, j) in sorted(cells):
        cx = cfg.x_min + (j + 0.5) * size
        cy = cfg.y_min + (i + 0.5) * size
        ranked = sorted(cells[(i, j)], key=lambda p: ((p[0] - cx) ** 2 + (p[1] - cy) ** 2,
                                                      p[0], p[1], p[6]))
        kept = ranked[:cfg.max_points_per_pillar]
        mean_x = sum(p[0] for p in kept) / len(kept)
        mean_y = sum(p[1] for p in kept) / len(kept)
        encoded[(i, j)] = [
            np.array([x, y, vx, vy, rcs, dt, x - mean_x, y - mean_y, x - cx, y - cy])
            @ pfn.lin.weight + pfn.lin.bias
            for x, y, vx, vy, rcs, dt, _ in kept
        ]
    rows = [e for cell in encoded.values() for e in cell]
    if training:
        mean = sum(rows) / len(rows)
        var = sum((e - mean) ** 2 for e in rows) / len(rows)
    else:
        mean, var = pfn.bn_stats.mean, pfn.bn_stats.var
    mask = np.zeros((cfg.height, cfg.width), dtype=bool)
    features = []
    for (i, j), cell in encoded.items():
        mask[i, j] = True
        norm = [np.maximum((e - mean) / np.sqrt(var + 1e-5) * pfn.bn_gamma + pfn.bn_beta, 0.0)
                for e in cell]
        features.append(np.max(norm, axis=0))
    return mask, np.array(features), mean, var


class TestPillarizeOracle:
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("max_points", [1, 3, 20])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_loop_oracle(self, seed, max_points, training):
        cfg = small_cfg(max_points_per_pillar=max_points)
        rng = Rng(seed)
        pfn = init_pfn(cfg, rng)
        pfn.bn_gamma = rng.uniform(0.5, 1.5, size=cfg.out_channels)
        pfn.bn_beta = rng.normal(size=cfg.out_channels)
        pfn.bn_stats = BatchNormStats(rng.normal(size=cfg.out_channels),
                                      rng.uniform(0.5, 2.0, size=cfg.out_channels))
        start = BatchNormStats(pfn.bn_stats.mean.copy(), pfn.bn_stats.var.copy())
        # 200 points crowded into a 3 x 3 m corner (overfull pillars at every
        # max_points), 60 spread over the grid and past its edges, 20 repeats
        n_dense, n_wide = 200, 60
        xy = np.concatenate([rng.uniform(-1.5, 1.5, size=(n_dense, 2)),
                             rng.uniform(-9.0, 9.0, size=(n_wide, 2))])
        sweep = rng.integers(0, 3, size=n_dense + n_wide)
        pts = np.column_stack([xy, rng.normal(size=(n_dense + n_wide, 4)),
                               0.05 * sweep, sweep])
        # four returns at each of three pillar centres, told apart only by sweep
        centres = np.repeat([[0.5, 0.5, 0.0], [-0.5, 0.5, 0.0], [0.5, -1.5, 0.0]], 4, axis=0)
        sweeps = np.tile([2, 2, 1, 0], 3)
        stacked = np.column_stack([centres, rng.normal(size=(12, 3)), 0.05 * sweeps, sweeps])
        pts = np.concatenate([pts, pts[rng.integers(0, len(pts), size=20)], stacked])
        counts = np.unique(np.floor(pts[:n_dense, :2]), axis=0, return_counts=True)[1]
        assert counts.max() > max_points

        mask, rows, mean, var = loop_pillarize(pts, cfg, pfn, training)
        grid = pillarize(PointCloud("f", pts), cfg, pfn, training=training)
        assert np.array_equal(grid.mask, mask)
        assert np.allclose(grid.features, rows, atol=1e-12, rtol=0)
        if training:
            assert np.allclose(pfn.bn_stats.mean, 0.9 * start.mean + 0.1 * mean,
                               atol=1e-12, rtol=0)
            assert np.allclose(pfn.bn_stats.var, 0.9 * start.var + 0.1 * var,
                               atol=1e-12, rtol=0)
        else:
            assert np.array_equal(pfn.bn_stats.mean, start.mean)


class TestGatherScatter:
    def test_all_empty_grid(self):
        grid = PillarGrid(mask=np.zeros((4, 4), dtype=bool), features=np.zeros((0, 3)))
        tb = gather(grid)
        assert len(tb) == 0

    def test_two_cells_row_major(self):
        mask = np.zeros((4, 5), dtype=bool)
        mask[2, 3] = mask[0, 0] = True
        grid = PillarGrid(mask=mask, features=[[1.0, 2.0], [5.0, 6.0]])
        tb = gather(grid)
        assert np.array_equal(tb.coords, [[0, 0], [2, 3]])
        assert np.array_equal(tb.tokens, [[1.0, 2.0], [5.0, 6.0]])

    def test_full_grid(self):
        rng = Rng(9)
        data, mask = rng.normal(size=(3, 3, 2)), np.ones((3, 3), dtype=bool)
        grid = PillarGrid(mask=mask, features=data[mask])
        assert len(gather(grid)) == 9

    def test_scatter_empty(self):
        tb = TokenBatch(tokens=np.zeros((0, 3)), coords=np.zeros((0, 2), dtype=int))
        grid = scatter(tb, 4, 4)
        assert grid.pillar_count == 0
        assert np.all(grid.data == 0.0)

    def test_scatter_duplicate_coords(self):
        tb = TokenBatch(tokens=np.ones((2, 1)), coords=np.array([[1, 1], [1, 1]]))
        with pytest.raises(IndexError):
            scatter(tb, 4, 4)

    def test_scatter_orders_rows_by_cell(self):
        grid = random_sparse_grid(Rng(11))
        tb = gather(grid)
        perm = Rng(12).permutation(len(tb))
        permuted = TokenBatch(tokens=tb.tokens[perm], coords=tb.coords[perm])
        a, b = scatter(tb, grid.height, grid.width), scatter(permuted, grid.height, grid.width)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("coords, shown", [
        ([[1.7, 2.2]], "1.7"),
        ([[0.0, 0.0], [1.0, -0.5]], "-0.5"),
        ([[math.nan, 1.0]], "NaN"),
        ([[1.0, math.inf]], "Infinity"),
        ([[2.0 ** 63, 0.0]], "9.223372036854776e+18"),
    ])
    def test_fractional_coords_rejected(self, coords, shown):
        # a cast to int64 would put a token at [[1.7, 2.2]] in cell [[1, 2]]
        with pytest.raises(ValueError) as info:
            TokenBatch(tokens=np.ones((len(coords), 1)), coords=coords)
        assert str(info.value) == ("field 'coords' must be whole numbers in the int64 "
                                   f"range, got {shown}")

    def test_scatter_out_of_range(self):
        tb = TokenBatch(tokens=np.ones((1, 1)), coords=np.array([[4, 0]]))
        with pytest.raises(IndexError):
            scatter(tb, 4, 4)

    def test_round_trip_exact(self):
        for seed in range(50):
            grid = random_sparse_grid(Rng(seed))
            back = scatter(gather(grid), grid.height, grid.width)
            assert np.array_equal(back.data, grid.data)
            assert np.array_equal(back.mask, grid.mask)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed, fill):
        grid = random_sparse_grid(Rng(seed), h=9, w=7, c=3, fill=fill)
        back = scatter(gather(grid), grid.height, grid.width)
        assert np.array_equal(back.data, grid.data)
        assert np.array_equal(back.mask, grid.mask)

    def test_pillarize_output_satisfies_grid_invariants(self):
        cfg = small_cfg()
        rng = Rng(10)
        pts = [RadarPoint(x=float(rng.uniform(-8, 8)), y=float(rng.uniform(-8, 8)),
                          z=0.0, vx=1.0, vy=1.0, rcs=1.0) for _ in range(30)]
        grid = pillarize(PointCloud("f", pts), cfg, init_pfn(cfg, rng))
        assert grid.features.shape == (grid.mask.sum(), cfg.out_channels)
        data = grid.data
        assert np.all(data[~grid.mask] == 0.0)
        data[:] = 1.0  # a new array on each access: writing it leaves the grid as it was
        assert np.all(grid.data[~grid.mask] == 0.0)


class TestPillarGrid:
    def test_rejects_rows_not_matching_mask(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        with pytest.raises(ValueError, match="2 rows for 1 masked cells"):
            PillarGrid(mask=mask, features=np.zeros((2, 3)))
        with pytest.raises(ValueError, match=re.escape("mask must be [H, W] and features [P, C]")):
            PillarGrid(mask=mask, features=np.zeros(3))
        with pytest.raises(ValueError, match=re.escape("mask must be [H, W] and features [P, C]")):
            PillarGrid(mask=mask[..., None], features=np.zeros((1, 3)))


class TestPillarConfig:
    @pytest.mark.parametrize("size", [0.0, -1.0])
    def test_non_positive_pillar_size_rejected(self, size):
        with pytest.raises(ValueError, match="pillar_size"):
            small_cfg(pillar_size=size)

    @pytest.mark.parametrize("fields, message", [
        ({"x_min": math.nan}, "field 'x_min' is not finite"),
        ({"y_max": math.inf}, "field 'y_max' is not finite"),
        ({"pillar_size": "1"}, 'field \'pillar_size\' must be a number, got "1"'),
        ({"pillar_size": 0.0}, "field 'pillar_size' must be > 0, got 0.0"),
        ({"max_points_per_pillar": 2.5}, "field 'max_points_per_pillar' must be an integer, got 2.5"),
        ({"max_points_per_pillar": 0}, "field 'max_points_per_pillar' must be >= 1, got 0"),
        ({"out_channels": 0}, "field 'out_channels' must be >= 1, got 0"),
        ({"out_channels": False}, "field 'out_channels' must be an integer, got false"),
        ({"x_max": -50.0}, "field 'x_max' must be > x_min -50, got -50.0"),
        ({"y_max": -60.0}, "field 'y_max' must be > y_min -50, got -60.0"),
    ])
    def test_degenerate_config_rejected_by_field(self, fields, message):
        with pytest.raises(ValueError) as info:
            PillarConfig(**fields)
        assert str(info.value) == message

    @pytest.mark.parametrize("fields, message", [
        ({"x_min": -1e308, "x_max": 1e308},
         "field 'x_max' must be a finite distance from x_min -1e+308, got 1e+308"),
        ({"y_min": -1e308, "y_max": 1e308},
         "field 'y_max' must be a finite distance from y_min -1e+308, got 1e+308"),
        ({"x_min": -1e6, "x_max": 1e6, "y_min": -1e6, "y_max": 1e6, "pillar_size": 0.5},
         f"field 'pillar_size' must be large enough for at most {MAX_GRID_CELLS} grid cells, "
         "got 0.5"),
        ({"pillar_size": 1e-310},
         f"field 'pillar_size' must be large enough for at most {MAX_GRID_CELLS} grid cells, "
         "got 1e-310"),
        ({"x_min": 0.0, "x_max": 1e-12, "pillar_size": 1.0},
         "field 'x_max' must be at least one pillar above x_min 0, got 1e-12"),
    ])
    def test_grid_cell_count_out_of_bounds_rejected_by_field(self, fields, message):
        with pytest.raises(ValueError) as info:
            PillarConfig(**fields)
        assert str(info.value) == message

    def test_cell_bound_is_inclusive(self):
        side = math.isqrt(MAX_GRID_CELLS)
        cfg = PillarConfig(x_min=0.0, x_max=float(side), y_min=0.0, y_max=float(side),
                           pillar_size=1.0)
        assert cfg.height * cfg.width == MAX_GRID_CELLS
        with pytest.raises(ValueError, match="pillar_size"):
            PillarConfig(x_min=0.0, x_max=float(side + 1), y_min=0.0, y_max=float(side),
                         pillar_size=1.0)
