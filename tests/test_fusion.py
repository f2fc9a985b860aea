"""Occupancy head, bilinear sampling, and deformable cross-attention tests."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pan.fusion
from pan.fusion import (BevFeatureMap, McdaParams, OccupancyMap, bilinear_sample, init_mcda,
                        mdca, occupancy_head)
from pan.io import read_feature_map, write_feature_map
from pan.layers import LinearParams
from pan.tensor import Rng


def bilinear_oracle(feat, p):
    """Loop interpolation over the four neighbours."""
    x = min(max(p[0], 0.0), 1.0) * (feat.width - 1)
    y = min(max(p[1], 0.0), 1.0) * (feat.height - 1)
    j0, i0 = int(np.floor(x)), int(np.floor(y))
    j1, i1 = min(j0 + 1, feat.width - 1), min(i0 + 1, feat.height - 1)
    fx, fy = x - j0, y - i0
    out = np.zeros(feat.channels)
    for c in range(feat.channels):
        out[c] = ((1 - fy) * ((1 - fx) * feat.data[i0, j0, c] + fx * feat.data[i0, j1, c])
                  + fy * ((1 - fx) * feat.data[i1, j0, c] + fx * feat.data[i1, j1, c]))
    return out


def mdca_oracle(query_feats, ref_points, maps, params: McdaParams):
    """Triple-loop evaluation of the cross-attention sum.

    Weights are a softmax over each (query, head)'s modality x point logits.
    """
    nq = query_feats.shape[0]
    h, m, k = params.heads, params.modalities, params.points_per_head
    offsets = (query_feats @ params.offset_net.weight + params.offset_net.bias)
    offsets = offsets.reshape(nq, h, m, k, 2)
    logits = (query_feats @ params.weight_net.weight + params.weight_net.bias)
    logits = logits.reshape(nq, h, m, k)
    out_dim = params.out_proj[0].out_dim
    out = np.zeros((nq, out_dim))
    for q in range(nq):
        for hd in range(h):
            rows = logits[q, hd].reshape(1, -1)
            e = np.exp(rows - rows.max(axis=1, keepdims=True))
            weights = (e / e.sum(axis=1, keepdims=True)).reshape(m, k)
            acc = np.zeros(params.out_proj[hd].in_dim)
            for mod in range(m):
                for kk in range(k):
                    sample = bilinear_oracle(maps[mod], ref_points[q] + offsets[q, hd, mod, kk])
                    value = sample @ params.value_proj[hd][mod].weight \
                        + params.value_proj[hd][mod].bias
                    acc += weights[mod, kk] * value
            out[q] += acc @ params.out_proj[hd].weight + params.out_proj[hd].bias
    return out


def identity_linear(n):
    return LinearParams(weight=np.eye(n), bias=np.zeros(n))


def zero_linear(n_in, n_out):
    return LinearParams(weight=np.zeros((n_in, n_out)), bias=np.zeros(n_out))


class TestOccupancyHead:
    def test_zero_features_zero_bias(self):
        feat = BevFeatureMap(data=np.zeros((4, 4, 3)), meters_per_cell=1.0)
        params = LinearParams(weight=np.zeros((3, 1)), bias=np.zeros(1))
        occ = occupancy_head(feat, params)
        assert np.all(occ.probs == 0.5)
        assert np.all(occ.binary)  # >= rule

    # sigmoid(-1e-12) rounds below 0.5 and sigmoid(1e-12) to or above it
    @pytest.mark.parametrize("bias, occupied", [
        (-40.0, False), (-1.0, False), (-1e-12, False), (0.0, True), (1e-12, True),
        (1.0, True), (40.0, True),
    ])
    def test_occupied_at_half_or_above(self, bias, occupied):
        feat = BevFeatureMap(data=np.zeros((2, 3, 2)), meters_per_cell=1.0)
        occ = occupancy_head(feat, LinearParams(weight=np.ones((2, 1)), bias=np.array([bias])))
        assert np.array_equal(occ.binary, occ.probs >= 0.5)
        assert np.array_equal(occ.binary, np.full((2, 3), occupied))

    def test_map_holds_only_the_probabilities(self):
        assert [f.name for f in dataclasses.fields(OccupancyMap)] == ["probs"]

    def test_logistic_table(self):
        data = np.array([[[-2.0], [0.0], [2.0]]])  # 1 x 3 x 1
        feat = BevFeatureMap(data=data, meters_per_cell=1.0)
        params = LinearParams(weight=np.ones((1, 1)), bias=np.zeros(1))
        occ = occupancy_head(feat, params)
        assert occ.probs[0] == pytest.approx([0.119, 0.5, 0.881], abs=5e-4)

    def test_monotone_in_logits(self):
        rng = Rng(1)
        data = rng.normal(size=(3, 3, 2))
        params = LinearParams(weight=np.ones((2, 1)), bias=np.zeros(1))
        lo = occupancy_head(BevFeatureMap(data=data, meters_per_cell=1.0), params)
        hi = occupancy_head(BevFeatureMap(data=data + 0.5, meters_per_cell=1.0), params)
        assert np.all(hi.probs > lo.probs)

    def test_nan_map_cell_raises(self):
        # the map refuses the cell when it is built, before any head runs
        for value in (math.nan, math.inf, -math.inf):
            data = np.zeros((2, 3, 2))
            data[1, 2, 0] = value
            with pytest.raises(FloatingPointError,
                               match="^non-finite values in BEV feature map$"):
                BevFeatureMap(data=data, meters_per_cell=1.0)

    @pytest.mark.parametrize("shape", [(0, 4, 2), (3, 0, 2), (0, 0, 1)])
    def test_map_without_cells_raises(self, tmp_path, shape):
        # a PANF file may hold such a map, and sampling it has no cell to read
        path = tmp_path / "empty.panf"
        write_feature_map(path, np.zeros(shape))
        with pytest.raises(ValueError) as info:
            BevFeatureMap(data=read_feature_map(path), meters_per_cell=1.0)
        assert str(info.value) == ("BEV feature map must have at least one cell, "
                                   f"got shape {list(shape)}")

    def test_finite_map_overflowing_logit_raises(self):
        feat = BevFeatureMap(data=np.full((2, 3, 1), 1e308), meters_per_cell=1.0)
        params = LinearParams(weight=np.full((1, 1), 10.0), bias=np.zeros(1))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                       match="occupancy logits"):
            occupancy_head(feat, params)

    def test_very_negative_logit_is_zero_without_warning(self):
        data = np.array([[[-800.0], [-709.0], [0.0], [800.0]]])  # 1 x 4 x 1
        feat = BevFeatureMap(data=data, meters_per_cell=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            occ = occupancy_head(feat, LinearParams(weight=np.ones((1, 1)), bias=np.zeros(1)))
        assert occ.probs[0, 0] == 0.0
        assert 0.0 < occ.probs[0, 1] < 1e-300
        assert occ.probs[0, 2] == 0.5 and occ.probs[0, 3] == 1.0

    @given(st.lists(st.floats(-700, 700), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_finite_probabilities_are_the_logistic_formula(self, logits):
        data = np.array(logits).reshape(1, -1, 1)
        feat = BevFeatureMap(data=data, meters_per_cell=1.0)
        occ = occupancy_head(feat, LinearParams(weight=np.ones((1, 1)), bias=np.zeros(1)))
        assert np.array_equal(occ.probs, 1.0 / (1.0 + np.exp(-data[..., 0])))

    def test_exportable_as_pgm(self, tmp_path):
        from pan.io import write_heatmap_pgm

        feat = BevFeatureMap(data=Rng(2).normal(size=(5, 4, 3)), meters_per_cell=1.0)
        params = LinearParams(weight=np.ones((3, 1)), bias=np.zeros(1))
        occ = occupancy_head(feat, params)
        path = tmp_path / "occupancy.pgm"
        write_heatmap_pgm(path, occ.probs)
        assert path.read_bytes().startswith(b"P5\n4 5\n255\n")


class TestBilinearSample:
    def test_cell_center_exact(self):
        rng = Rng(2)
        feat = BevFeatureMap(data=rng.normal(size=(3, 4, 2)), meters_per_cell=1.0)
        # normalized coordinates of cell (1, 2): x = 2/3, y = 1/2
        out = bilinear_sample(feat, (2 / 3, 1 / 2))
        assert np.allclose(out, feat.data[1, 2], atol=1e-12)

    def test_midpoint_of_adjacent_centers(self):
        rng = Rng(3)
        feat = BevFeatureMap(data=rng.normal(size=(3, 3, 2)), meters_per_cell=1.0)
        out = bilinear_sample(feat, (0.25, 0.0))  # halfway between (0,0) and (0,1)
        assert np.allclose(out, 0.5 * (feat.data[0, 0] + feat.data[0, 1]), atol=1e-12)

    def test_out_of_range_clamps(self):
        feat = BevFeatureMap(data=Rng(4).normal(size=(3, 3, 1)), meters_per_cell=1.0)
        assert np.allclose(bilinear_sample(feat, (-5.0, 0.5)),
                           bilinear_sample(feat, (0.0, 0.5)), atol=0)

    @given(st.integers(0, 2**32 - 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_loop_oracle(self, seed, px, py):
        feat = BevFeatureMap(data=Rng(seed).normal(size=(4, 4, 3)), meters_per_cell=1.0)
        assert np.allclose(bilinear_sample(feat, (px, py)),
                           bilinear_oracle(feat, (px, py)), atol=1e-12)

    def test_infinite_point_clamps(self):
        feat = BevFeatureMap(data=Rng(4).normal(size=(3, 4, 2)), meters_per_cell=1.0)
        assert np.array_equal(bilinear_sample(feat, (math.inf, -math.inf)),
                              bilinear_sample(feat, (1.0, 0.0)))

    def test_nan_point_rejected(self):
        feat = BevFeatureMap(data=np.zeros((3, 3, 1)), meters_per_cell=1.0)
        with pytest.raises(FloatingPointError, match="sample locations"):
            bilinear_sample(feat, (0.5, math.nan))


def weighted_samples(feat, pts, weights):
    """sum_s weights[r, s] * bilinear(feat, pts[r, s]): [R, S, 2], [R, S] -> [R, C],
    composed from the sampling helpers as ``mdca`` composes them."""
    return pan.fusion._contract(feat.data.reshape(-1, feat.channels),
                                *pan.fusion._corner_geometry(feat, pts, weights))


@st.composite
def weighted_sample_cases(draw):
    """A map (1x1 and 1xW included) and R x S weighted points: cell centres,
    the border and beyond, and anywhere."""
    h = draw(st.sampled_from([1, 1, 2, 3, 5]))
    w = draw(st.sampled_from([1, 2, 4, 7]))
    c = draw(st.integers(1, 6))
    r, s = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    feat = BevFeatureMap(data=rng.normal(size=(h, w, c)), meters_per_cell=1.0)
    centre = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)).map(
        lambda ji: (ji[0] / max(w - 1, 1), ji[1] / max(h - 1, 1)))
    coord = st.one_of(st.sampled_from([0.0, 1.0, -0.25, 1.5]), st.floats(-1.0, 2.0))
    pts = draw(st.lists(st.one_of(centre, st.tuples(coord, coord)),
                        min_size=r * s, max_size=r * s))
    return feat, np.array(pts, dtype=float).reshape(r, s, 2), rng.random(size=(r, s))


class TestWeightedSamples:
    """The batched sampler gives every row the bits it gets alone, so the
    one-point collapse of mdca onto bilinear_sample is exact for any map."""

    @given(weighted_sample_cases())
    @settings(max_examples=150, deadline=None)
    def test_each_row_equals_its_call_alone(self, case):
        feat, pts, weights = case
        batched = weighted_samples(feat, pts, weights)
        assert batched.shape == (pts.shape[0], feat.channels)
        for r in range(pts.shape[0]):
            alone = weighted_samples(feat, pts[r:r + 1], weights[r:r + 1])
            assert np.array_equal(batched[r], alone[0])

    @given(weighted_sample_cases())
    @settings(max_examples=150, deadline=None)
    def test_bilinear_sample_is_the_one_point_row(self, case):
        feat, pts, _ = case
        rows = pts[:, 0]
        batched = weighted_samples(feat, rows[:, None], np.ones((len(rows), 1)))
        for r, p in enumerate(rows):
            assert np.array_equal(batched[r], bilinear_sample(feat, p))
            assert np.allclose(batched[r], bilinear_oracle(feat, p), atol=1e-12)


class TestMdca:
    def _collapse_params(self, c):
        return McdaParams(
            heads=1, modalities=1, points_per_head=1,
            value_proj=[[identity_linear(c)]],
            out_proj=[identity_linear(c)],
            offset_net=zero_linear(c, 2),
            weight_net=zero_linear(c, 1),
        )

    def test_collapses_to_bilinear_sample(self):
        rng = Rng(5)
        c = 3
        feat = BevFeatureMap(data=rng.normal(size=(3, 3, c)), meters_per_cell=1.0)
        query = rng.normal(size=(5, c))
        refs = rng.random(size=(5, 2))
        out = mdca(query, refs, [feat], self._collapse_params(c))
        for q in range(5):
            assert np.array_equal(out[q], bilinear_sample(feat, refs[q]))

    def test_uniform_two_modalities_gives_mean(self):
        rng = Rng(6)
        c = 3
        maps = [BevFeatureMap(data=rng.normal(size=(3, 3, c)), meters_per_cell=1.0)
                for _ in range(2)]
        params = McdaParams(
            heads=1, modalities=2, points_per_head=1,
            value_proj=[[identity_linear(c), identity_linear(c)]],
            out_proj=[identity_linear(c)],
            offset_net=zero_linear(c, 4),
            weight_net=zero_linear(c, 2),
        )
        query = rng.normal(size=(4, c))
        refs = rng.random(size=(4, 2))
        out = mdca(query, refs, maps, params)
        for q in range(4):
            expected = 0.5 * (bilinear_sample(maps[0], refs[q])
                              + bilinear_sample(maps[1], refs[q]))
            assert np.allclose(out[q], expected, atol=1e-15)

    def test_matches_triple_loop_oracle(self):
        rng = Rng(7)
        cq, c0, c1 = 5, 3, 4
        maps = [BevFeatureMap(data=rng.normal(size=(3, 3, c0)), meters_per_cell=1.0),
                BevFeatureMap(data=rng.normal(size=(3, 3, c1)), meters_per_cell=0.5)]
        params = init_mcda(query_channels=cq, map_channels=[c0, c1], out_channels=6,
                           heads=2, points_per_head=2, value_dim=4, rng=rng)
        query = rng.normal(size=(9, cq))
        refs = rng.random(size=(9, 2))
        got = mdca(query, refs, maps, params)
        want = mdca_oracle(query, refs, maps, params)
        assert np.allclose(got, want, atol=1e-10)

    def test_weights_sum_to_one_per_head(self):
        rng = Rng(8)
        params = init_mcda(query_channels=4, map_channels=[3, 3], out_channels=2,
                           heads=3, points_per_head=4, value_dim=5, rng=rng)
        query = rng.normal(size=(6, 4))
        logits = query @ params.weight_net.weight + params.weight_net.bias
        weights = pan.fusion._normalized_weights(logits, params)
        assert weights.shape == (6, 3, 2, 4)
        sums = weights.sum(axis=(2, 3))  # over (modality, point)
        assert np.allclose(sums, 1.0, atol=1e-9)

    @pytest.mark.parametrize("modalities, k", [(1, 1), (1, 3), (2, 1), (2, 4), (3, 2)])
    def test_one_softmax_over_modalities_and_points(self, modalities, k):
        # constant logits from the bias alone: each weight is its exp over the
        # sum across every modality and point of the head, not of its modality
        rng = Rng(9)
        params = init_mcda(query_channels=4, map_channels=[3] * modalities, out_channels=2,
                           heads=2, points_per_head=k, value_dim=5, rng=rng)
        bias = np.arange(2 * modalities * k, dtype=float) / 3.0
        logits = np.tile(bias, (3, 1))
        weights = pan.fusion._normalized_weights(logits, params)
        for hd in range(2):
            row = bias.reshape(2, modalities, k)[hd]
            want = np.exp(row) / np.exp(row).sum()
            for q in range(3):
                assert np.allclose(weights[q, hd], want, rtol=0.0, atol=1e-12)

    def test_joint_normalization_is_a_constant(self):
        # read by perfbench, but no longer a field that a caller could set
        params = init_mcda(query_channels=2, map_channels=[2], out_channels=2, heads=1,
                           points_per_head=1, value_dim=2, rng=Rng(0))
        assert params.normalize_jointly is True
        assert "normalize_jointly" not in {f.name for f in dataclasses.fields(McdaParams)}

    def test_zero_queries(self):
        rng = Rng(12)
        params = init_mcda(query_channels=4, map_channels=[3], out_channels=2,
                           heads=2, points_per_head=2, value_dim=3, rng=rng)
        maps = [BevFeatureMap(data=rng.normal(size=(4, 4, 3)), meters_per_cell=1.0)]
        assert mdca(np.zeros((0, 4)), np.zeros((0, 2)), maps, params).shape == (0, 2)

    def test_wrong_modality_count(self):
        rng = Rng(9)
        params = init_mcda(query_channels=4, map_channels=[3, 3], out_channels=2,
                           heads=1, points_per_head=1, value_dim=3, rng=rng)
        feat = BevFeatureMap(data=np.zeros((3, 3, 3)), meters_per_cell=1.0)
        with pytest.raises(ValueError):
            mdca(np.zeros((1, 4)), np.zeros((1, 2)), [feat], params)

    def test_nearest_neighbour_upsample_invariance(self):
        rng = Rng(10)
        c = 2
        base = rng.normal(size=(3, 3, c))
        up = np.repeat(np.repeat(base, 2, axis=0), 2, axis=1)
        feat_a = BevFeatureMap(data=base, meters_per_cell=1.0)
        feat_b = BevFeatureMap(data=up, meters_per_cell=0.5)
        params = self._collapse_params(c)
        # reference points at original cell centers
        centers = np.array([(j / 2, i / 2) for i in range(3) for j in range(3)])
        query = rng.normal(size=(len(centers), c))
        out_a = mdca(query, centers, [feat_a], params)
        out_b = mdca(query, centers, [feat_b], params)
        assert np.allclose(out_a, out_b, atol=1e-9)

    @given(seed=st.integers(0, 2**32 - 1), heads=st.integers(1, 3),
           shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)),
                           min_size=1, max_size=2),
           k=st.integers(1, 4),
           refs=st.lists(st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]),
                                               st.floats(-0.5, 1.5))] * 2),
                         max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_random_shapes(self, seed, heads, shapes, k, refs):
        rng = Rng(seed)
        maps = [BevFeatureMap(data=rng.normal(size=shape), meters_per_cell=1.0)
                for shape in shapes]
        params = init_mcda(query_channels=3, map_channels=[c for _, _, c in shapes],
                           out_channels=2, heads=heads, points_per_head=k, value_dim=3,
                           rng=rng)
        # the map corners, and a point outside [0, 1] that clamps, in every case
        refs = np.array([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.25, -0.5), *refs])
        query = rng.normal(size=(len(refs), 3))
        got = mdca(query, refs, maps, params)
        want = mdca_oracle(query, refs, maps, params)
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("nq, k", [(1, 1), (5, 2), (12, 4)])
    def test_one_batched_step_per_head(self, monkeypatch, nq, k):
        calls = {"bilinear_sample": 0, "linear": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pan.fusion, name, counted(name, getattr(pan.fusion, name)))
        rng = Rng(12)
        heads = 3
        params = init_mcda(query_channels=4, map_channels=[3, 2], out_channels=2,
                           heads=heads, points_per_head=k, value_dim=3, rng=rng)
        maps = [BevFeatureMap(data=rng.normal(size=(4, 4, c)), meters_per_cell=1.0)
                for c in (3, 2)]
        mdca(rng.normal(size=(nq, 4)), rng.random(size=(nq, 2)), maps, params)
        assert calls == {"bilinear_sample": 0, "linear": 2 + heads}


    def test_geometry_once_per_modality_one_contraction_per_head(self, monkeypatch):
        calls = {"_corner_geometry": [], "_contract": []}

        def recorded(name, fn):
            def wrapper(*args):
                calls[name].append(args[-1].shape)  # weights or coefs
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pan.fusion, name, recorded(name, getattr(pan.fusion, name)))
        rng = Rng(14)
        nq, heads, k = 5, 3, 2
        params = init_mcda(query_channels=4, map_channels=[3, 2], out_channels=2,
                           heads=heads, points_per_head=k, value_dim=3, rng=rng)
        maps = [BevFeatureMap(data=rng.normal(size=(4, 4, c)), meters_per_cell=1.0)
                for c in (3, 2)]
        mdca(rng.normal(size=(nq, 4)), rng.random(size=(nq, 2)), maps, params)
        assert calls == {"_corner_geometry": [(nq, heads, k)] * 2,
                         "_contract": [(nq, 4 * k)] * (2 * heads)}

class TestMdcaValidation:
    def _setup(self):
        rng = Rng(13)
        params = init_mcda(query_channels=4, map_channels=[3, 2], out_channels=2,
                           heads=2, points_per_head=2, value_dim=3, rng=rng)
        maps = [BevFeatureMap(data=rng.normal(size=(4, 4, c)), meters_per_cell=1.0)
                for c in (3, 2)]
        return params, maps, rng.normal(size=(3, 4)), rng.random(size=(3, 2))

    @pytest.mark.parametrize("shape", [(5, 2), (2, 2), (3, 3), (3,), (3, 2, 1)])
    def test_ref_points_shape(self, shape):
        params, maps, query, _ = self._setup()
        with pytest.raises(ValueError, match=r"ref_points must be \[3, 2\]"):
            mdca(query, np.full(shape, 0.5), maps, params)

    def test_map_channels_match_value_projection(self):
        params, maps, query, refs = self._setup()
        maps[1] = BevFeatureMap(data=np.zeros((4, 4, 5)), meters_per_cell=1.0)
        with pytest.raises(ValueError, match="map 1 has 5 channels"):
            mdca(query, refs, maps, params)

    def test_nan_reference_point(self):
        params, maps, query, refs = self._setup()
        refs[1, 0] = math.nan
        with pytest.raises(FloatingPointError, match="sample locations"):
            mdca(query, refs, maps, params)

    def test_nan_map_cell(self):
        # the map refuses the cell when it is built, before mdca samples it
        _, maps, _, _ = self._setup()
        data = maps[0].data.copy()
        data[:] = math.nan
        with pytest.raises(FloatingPointError, match="^non-finite values in BEV feature map$"):
            BevFeatureMap(data=data, meters_per_cell=1.0)

    def test_finite_inputs_overflowing_output_raise(self):
        # each head's output is a finite 1e308; their sum is not
        params = McdaParams(
            heads=2, modalities=1, points_per_head=1,
            value_proj=[[identity_linear(1)], [identity_linear(1)]],
            out_proj=[identity_linear(1), identity_linear(1)],
            offset_net=zero_linear(1, 4),
            weight_net=zero_linear(1, 2),
        )
        feat = BevFeatureMap(data=np.full((3, 3, 1), 1e308), meters_per_cell=1.0)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="mdca output"):
            mdca(np.zeros((2, 1)), np.full((2, 2), 0.5), [feat], params)

    @pytest.mark.parametrize("name", ["heads", "modalities", "points_per_head"])
    def test_zero_sizes_rejected(self, name):
        # mdca would fail on them with an IndexError or NumPy's reshape message
        params, _, _, _ = self._setup()
        with pytest.raises(ValueError) as info:
            dataclasses.replace(params, **{name: 0})
        assert str(info.value) == f"field '{name}' must be >= 1, got 0"

    @pytest.mark.parametrize("change, message", [
        (lambda p: {"value_proj": p.value_proj[:1]},
         "value_proj must be heads rows of modalities entries"),
        (lambda p: {"value_proj": [p.value_proj[0], p.value_proj[1][:1]]},
         "value_proj must be heads rows of modalities entries"),
        (lambda p: {"out_proj": p.out_proj[:1]}, "out_proj must have heads entries"),
        (lambda p: {"out_proj": [p.out_proj[0], zero_linear(3, 5)]},
         "out_proj outputs must all have one width"),
        (lambda p: {"value_proj": [p.value_proj[0], [p.value_proj[1][0], zero_linear(2, 4)]]},
         "value_proj[1][1] output must be out_proj[1] input 3, got 4"),
        (lambda p: {"out_proj": [p.out_proj[0], zero_linear(4, 2)]},
         "value_proj[1][0] output must be out_proj[1] input 4, got 3"),
    ], ids=["missing_head_row", "short_modality_row", "missing_out_proj", "out_widths_differ",
            "value_dim_too_wide", "out_proj_input_too_wide"])
    def test_projection_table_checked_when_built(self, change, message):
        params, _, _, _ = self._setup()
        with pytest.raises(ValueError) as info:
            dataclasses.replace(params, **change(params))
        assert str(info.value) == message
