"""Attention and backbone tests against independently coded references."""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pan.backbone as backbone
import pan.layers as layers
from pan.backbone import (
    EnhancerConfig,
    conv_refine,
    count_work,
    enhance,
    init_backbone,
    init_enhancer,
    load_params,
    pan_backbone,
    save_params,
    self_attention,
    self_attention_input_grad,
)
from pan.layers import BatchNormStats, batch_norm2d, conv2d, relu, softmax_rows
from pan.pillars import PillarConfig, PillarGrid, PointCloud, TokenBatch, gather, pillarize, scatter
from pan.tensor import Rng

from test_layers import conv2d_im2col, conv2d_oracle, max_pool2d, max_pool_oracle
from test_pillars import RadarPoint


def attention_oracle(x, params, cfg):
    """Explicit-loop scaled dot-product attention, one head at a time."""
    p, f = x.shape
    q = x @ params.q.weight + params.q.bias
    k = x @ params.k.weight + params.k.bias
    v = x @ params.v.weight + params.v.bias
    dh = f // cfg.num_heads
    out = np.zeros((p, f))
    for hd in range(cfg.num_heads):
        lo, hi = hd * dh, (hd + 1) * dh
        for i in range(p):
            scores = [sum(q[i, lo + c] * k[j, lo + c] for c in range(dh)) / math.sqrt(dh)
                      for j in range(p)]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            z = sum(exps)
            weights = [e / z for e in exps]
            for c in range(dh):
                out[i, lo + c] = sum(weights[j] * v[j, lo + c] for j in range(p))
    if cfg.use_attn_out:
        out = out @ params.attn_out.weight + params.attn_out.bias
    return out


def attention_unblocked(x, params, cfg, rng=None, training=False):
    """Self-attention with one [P, P] score matrix per head, dropout drawn per head."""
    q = x @ params.q.weight + params.q.bias
    k = x @ params.k.weight + params.k.bias
    v = x @ params.v.weight + params.v.bias
    dh = q.shape[1] // cfg.num_heads
    drop = training and cfg.dropout_p > 0

    def dropped(a):
        keep = rng.random(size=a.shape) >= cfg.dropout_p
        return np.where(keep, a / (1.0 - cfg.dropout_p), 0.0)

    heads = []
    for hd in range(cfg.num_heads):
        sl = slice(hd * dh, (hd + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        if drop:
            scores = dropped(scores)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        heads.append(weights @ v[:, sl])
    out = np.concatenate(heads, axis=1)
    if cfg.use_attn_out:
        out = out @ params.attn_out.weight + params.attn_out.bias
    return out


def _use_block_rows(monkeypatch, rows):
    """Make ``self_attention`` take ``rows`` query rows per block at any P."""
    monkeypatch.setattr(backbone, "_ATTN_BLOCK_BYTES", 0)
    monkeypatch.setattr(backbone, "_ATTN_MIN_ROWS", rows)


def _stacked_weights(x, params, cfg):
    """The post-softmax weights of ``backbone._attention_weights`` as [heads, P, P]."""
    q = x @ params.q.weight + params.q.bias
    k = x @ params.k.weight + params.k.bias
    dh = q.shape[1] // cfg.num_heads
    weights = np.full((cfg.num_heads, len(x), len(x)), np.nan)
    for hd, blk, e, sums in backbone._attention_weights(backbone._projected_heads(q, k, dh), cfg):
        weights[hd, blk] = e / sums
    return weights


def _block_rows(p_count):
    """Rows per query block that ``self_attention`` uses at P tokens."""
    return backbone._row_blocks(p_count)[0].stop


# the P at which one block holds every query row exactly
FULL_BLOCK_P = next(p for p in range(1, 4096) if _block_rows(p) == p and _block_rows(p + 1) < p + 1)


def enhance_reference(tokens, params, cfg):
    """Straight-line re-implementation of the token enhancement chain."""
    e = tokens @ params.enc.weight + params.enc.bias
    a = e + attention_oracle(e, params, cfg)
    h = a @ params.mlp1.weight + params.mlp1.bias
    mu = h.mean(axis=1, keepdims=True)
    var = h.var(axis=1, keepdims=True)
    h = params.ln_gamma * (h - mu) / np.sqrt(var + 1e-5) + params.ln_beta
    h = h * 0.5 * (1.0 + np.vectorize(math.erf)(h / math.sqrt(2.0)))
    m = a + (h @ params.mlp2.weight + params.mlp2.bias)
    return m @ params.dec.weight + params.dec.bias


def small_pillar_cfg(**kw):
    defaults = dict(x_min=-8.0, x_max=8.0, y_min=-8.0, y_max=8.0,
                    pillar_size=1.0, out_channels=4)
    defaults.update(kw)
    return PillarConfig(**defaults)


class TestSelfAttention:
    def test_single_token_weight_is_one(self):
        cfg = EnhancerConfig(embed_dim=6, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(0))
        x = Rng(1).normal(size=(1, 6))
        out = self_attention(x, params, cfg)
        v = x @ params.v.weight + params.v.bias
        expected = v @ params.attn_out.weight + params.attn_out.bias
        assert np.allclose(out, expected, atol=1e-12)

    def test_identical_tokens_identical_outputs(self):
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(2))
        row = Rng(3).normal(size=(1, 8))
        out = self_attention(np.repeat(row, 3, axis=0), params, cfg)
        assert np.allclose(out[0], out[1], atol=1e-12)
        assert np.allclose(out[0], out[2], atol=1e-12)

    def test_empty_batch(self):
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(4))
        assert self_attention(np.zeros((0, 8)), params, cfg).shape == (0, 8)

    def test_overflowing_scores_are_an_error(self):
        cfg = EnhancerConfig(embed_dim=8, num_heads=2, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(4))
        x = Rng(5).normal(size=(6, 8)) * 1e160
        # the score GEMM's own overflow warns; the check raises at the row max
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="row max"):
            self_attention(x, params, cfg)

    def test_matches_loop_oracle(self):
        cfg = EnhancerConfig(embed_dim=8, num_heads=2, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(5))
        x = Rng(6).normal(size=(4, 8))
        assert np.allclose(self_attention(x, params, cfg),
                           attention_oracle(x, params, cfg), atol=1e-10)

    def test_oracle_equivalence_many_seeds(self):
        for seed in range(100):
            rng = Rng(seed)
            p_count = int(rng.integers(1, 9))
            f = int(rng.integers(1, 5)) * 2  # even, <= 16, divisible by heads=2
            heads = 2 if f % 2 == 0 else 1
            cfg = EnhancerConfig(embed_dim=f, num_heads=heads, dropout_p=0.0)
            params = init_enhancer(3, cfg, rng)
            x = rng.normal(size=(p_count, f))
            assert np.allclose(self_attention(x, params, cfg),
                               attention_oracle(x, params, cfg), atol=1e-10)

    def test_attention_rows_sum_to_one(self):
        cfg = EnhancerConfig(embed_dim=8, num_heads=2, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(7))
        weights = _stacked_weights(Rng(8).normal(size=(5, 8)), params, cfg)
        assert weights.shape == (2, 5, 5)
        assert np.allclose(weights.sum(axis=2), 1.0, atol=1e-9)

    def test_inference_ignores_dropout(self):
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.5)
        params = init_enhancer(4, cfg, Rng(9))
        x = Rng(10).normal(size=(4, 8))
        inference = self_attention(x, params, cfg, rng=Rng(12), training=False)
        other_p = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        assert np.array_equal(inference,
                              self_attention(x, params, other_p, rng=Rng(13), training=False))
        training = self_attention(x, params, cfg, rng=Rng(11), training=True)
        assert not np.allclose(training, inference)


    @pytest.mark.parametrize("p_count", [FULL_BLOCK_P - 1, FULL_BLOCK_P, FULL_BLOCK_P + 1])
    def test_blocks_match_unblocked_oracle(self, p_count):
        # one block with spare rows, one exact block, and a second block of two rows
        cfg = EnhancerConfig(embed_dim=8, num_heads=2, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(20))
        x = Rng(21).normal(size=(p_count, 8))
        np.testing.assert_allclose(self_attention(x, params, cfg),
                                   attention_unblocked(x, params, cfg), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [None, 7])
    def test_training_dropout_matches_unblocked_draws(self, monkeypatch, rows):
        # 37 tokens in blocks of 7 rows leave a last block of 2
        if rows is not None:
            _use_block_rows(monkeypatch, rows)
        cfg = EnhancerConfig(embed_dim=8, num_heads=2, dropout_p=0.3)
        params = init_enhancer(4, cfg, Rng(22))
        x = Rng(23).normal(size=(37, 8))
        got = self_attention(x, params, cfg, rng=Rng(24), training=True)
        want = attention_unblocked(x, params, cfg, rng=Rng(24), training=True)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_blocked_weights_and_input_grad(self, monkeypatch):
        cfg = EnhancerConfig(embed_dim=8, num_heads=2, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(25))
        x = Rng(26).normal(size=(37, 8))
        dy = Rng(27).normal(size=(37, 8))
        one_block = _stacked_weights(x, params, cfg)
        grad_one = self_attention_input_grad(x, params, cfg, dy)
        _use_block_rows(monkeypatch, 7)
        assert len(backbone._row_blocks(37)) == 6
        blocked = _stacked_weights(x, params, cfg)
        np.testing.assert_allclose(blocked, one_block, rtol=0, atol=1e-15)
        np.testing.assert_allclose(self_attention_input_grad(x, params, cfg, dy), grad_one,
                                   rtol=0, atol=1e-12)

    def test_blocks_keep_the_row_floor_at_large_p(self):
        blocks = backbone._row_blocks(20_000)
        assert blocks[0] == slice(0, backbone._ATTN_MIN_ROWS)
        assert blocks[-1].stop == 20_000
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))

    def test_memory_scales_with_block_not_p_squared(self):
        p_count = 3000
        cfg = EnhancerConfig(embed_dim=8, num_heads=2, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(28))
        x = Rng(29).normal(size=(p_count, 8))
        tracemalloc.start()
        try:
            self_attention(x, params, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p_count * p_count * 8 / 10

    def test_softmax_rows_in_place_matches_formula(self):
        x = Rng(30).normal(size=(5, 7)) * 30
        e = np.exp(x - x.max(axis=1, keepdims=True))
        assert np.array_equal(softmax_rows(x), e / e.sum(axis=1, keepdims=True))


class TestWidthsFromWeights:
    """Attention reads its head width from the Q weights, not from ``embed_dim``."""

    @given(st.sampled_from([1, 2, 4]), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_another_embed_dim_gives_the_same_bits(self, heads, per_head, other, p_count,
                                                   seed):
        width = heads * per_head
        cfg = EnhancerConfig(embed_dim=width, num_heads=heads, dropout_p=0.0)
        stale = EnhancerConfig(embed_dim=heads * (per_head + other), num_heads=heads,
                               dropout_p=0.0)
        params = init_enhancer(3, cfg, Rng(seed))
        x = Rng(seed + 1).normal(size=(p_count, width))
        dy = Rng(seed + 2).normal(size=(p_count, width))
        assert np.array_equal(self_attention(x, params, stale), self_attention(x, params, cfg))
        assert np.array_equal(self_attention_input_grad(x, params, stale, dy),
                              self_attention_input_grad(x, params, cfg, dy))
        if per_head > 1:  # a smaller embed_dim that num_heads still divides
            small = EnhancerConfig(embed_dim=heads, num_heads=heads, dropout_p=0.0)
            assert np.array_equal(self_attention(x, params, small),
                                  self_attention(x, params, cfg))

    @pytest.mark.parametrize("width, heads", [(16, 3), (8, 3), (4, 8), (6, 4)])
    def test_heads_not_dividing_the_weights_rejected_by_field(self, width, heads):
        params = init_enhancer(3, EnhancerConfig(embed_dim=width, num_heads=1), Rng(0))
        cfg = EnhancerConfig(embed_dim=heads, num_heads=heads, dropout_p=0.0)
        x = Rng(1).normal(size=(5, width))
        message = (f"field 'num_heads' must be a divisor of the attention width {width}, "
                   f"got {heads}")
        for call in (lambda: self_attention(x, params, cfg),
                     lambda: self_attention_input_grad(x, params, cfg, x)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


class TestEnhance:
    def test_empty_passthrough(self):
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(0))
        tb = TokenBatch(tokens=np.zeros((0, 4)), coords=np.zeros((0, 2), dtype=int))
        out = enhance(tb, params, cfg)
        assert len(out) == 0

    def test_all_zero_weights_give_zero(self):
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(1))
        for lp in (params.enc, params.q, params.k, params.v, params.attn_out,
                   params.mlp1, params.mlp2, params.dec):
            lp.weight[:] = 0.0
            lp.bias[:] = 0.0
        params.ln_gamma[:] = 0.0
        params.ln_beta[:] = 0.0
        tb = TokenBatch(tokens=Rng(2).normal(size=(3, 4)),
                        coords=np.array([[0, 0], [1, 1], [2, 2]]))
        assert np.all(enhance(tb, params, cfg).tokens == 0.0)

    def test_matches_reference_reimplementation(self):
        cfg = EnhancerConfig(embed_dim=16, dropout_p=0.0)
        params = init_enhancer(6, cfg, Rng(3))
        tokens = Rng(4).normal(size=(5, 6))
        tb = TokenBatch(tokens=tokens, coords=np.column_stack([np.arange(5), np.arange(5)]))
        got = enhance(tb, params, cfg).tokens
        want = enhance_reference(tokens, params, cfg)
        assert np.allclose(got, want, atol=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, seed):
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(100))
        rng = Rng(seed)
        n = int(rng.integers(2, 10))
        tokens = rng.normal(size=(n, 4))
        coords = np.column_stack([np.arange(n), np.zeros(n, dtype=int)])
        perm = rng.permutation(n)
        base = enhance(TokenBatch(tokens=tokens, coords=coords), params, cfg).tokens
        permuted = enhance(TokenBatch(tokens=tokens[perm], coords=coords[perm]),
                           params, cfg).tokens
        assert np.allclose(base[perm], permuted, atol=1e-10)

    def test_sparsity_preserved_through_scatter(self):
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        pcfg = small_pillar_cfg()
        params = init_backbone(pcfg, cfg, Rng(5))
        pts = [RadarPoint(x=float(x), y=float(y), z=0.0, vx=1.0, vy=0.0, rcs=1.0)
               for x, y in [(-3.5, 2.5), (0.5, 0.5), (6.5, -7.5)]]
        grid = pillarize(PointCloud("f", pts), pcfg, params.pfn)
        tb = enhance(gather(grid), params.enhancer, cfg)
        back = scatter(tb, grid.height, grid.width)
        assert np.array_equal(back.mask, grid.mask)
        assert np.all(back.data[~grid.mask] == 0.0)


def enhance_projected(tokens, params, cfg, rng=None, training=False):
    """``enhance`` as the unfused chain, one layer at a time, with attention
    always in the projected form, ``self_attention``."""
    e = layers.linear(tokens, params.enc)
    a = e + self_attention(e, params, cfg, rng=rng, training=training)
    h = layers.linear(a, params.mlp1)
    h = layers.gelu(layers.layer_norm(h, params.ln_gamma, params.ln_beta))
    m = a + layers.linear(h, params.mlp2)
    return layers.linear(m, params.dec)


def _tokens(p_count, channels, seed):
    return TokenBatch(tokens=Rng(seed).normal(size=(p_count, channels)),
                      coords=np.column_stack([np.arange(p_count), np.zeros(p_count, dtype=int)]))


class TestTokenWidthAttention:
    """With C + 1 < d_k, ``enhance`` runs attention through the (C+1)-wide [tokens, 1];
    on either path the tail runs through composed weights."""

    # embed_dim 32: d_k is 32, 16 and 8 at 1, 2 and 4 heads, so C = 3 takes the
    # token width at every head count, C = 15 at one head only, and C = 40 never
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("channels", [3, 15, 40])
    @pytest.mark.parametrize("p_count", [0, 1, 300])
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_projected_form(self, heads, channels, p_count, training):
        cfg = EnhancerConfig(embed_dim=32, num_heads=heads, dropout_p=0.3)
        params = init_enhancer(channels, cfg, Rng(heads * 100 + channels))
        tb = _tokens(p_count, channels, p_count + 7)
        got = enhance(tb, params, cfg, rng=Rng(11), training=training).tokens
        want = enhance_projected(tb.tokens, params, cfg, rng=Rng(11), training=training)
        assert got.shape == (p_count, channels)
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("width, heads", [(16, 3), (8, 3), (4, 8), (6, 4)])
    @pytest.mark.parametrize("channels", [1, 8])
    def test_heads_not_dividing_the_weights_rejected_by_field(self, width, heads, channels):
        params = init_enhancer(channels, EnhancerConfig(embed_dim=width, num_heads=1), Rng(0))
        cfg = EnhancerConfig(embed_dim=heads, num_heads=heads, dropout_p=0.0)
        with pytest.raises(ValueError) as info:
            enhance(_tokens(5, channels, 1), params, cfg)
        assert str(info.value) == (f"field 'num_heads' must be a divisor of the attention "
                                   f"width {width}, got {heads}")

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("projected attention called")

    @pytest.mark.parametrize("channels, cfg", [
        (PillarConfig().out_channels, EnhancerConfig()),                 # the default, 33 < 128
        (30, EnhancerConfig(embed_dim=32, num_heads=1, dropout_p=0.0)),  # 31 < 32
    ])
    def test_token_width_below_head_width_skips_projected_attention(self, monkeypatch,
                                                                    channels, cfg):
        params = init_enhancer(channels, cfg, Rng(0))
        want = enhance(_tokens(40, channels, 1), params, cfg).tokens
        monkeypatch.setattr(backbone, "_head_outputs", self._refuse)
        assert np.array_equal(enhance(_tokens(40, channels, 1), params, cfg).tokens, want)

    @pytest.mark.parametrize("channels, embed_dim, heads", [
        (32, 32, 4),   # d_k 8 < C + 1 = 33
        (31, 32, 1),   # d_k 32 = C + 1
    ])
    def test_token_width_at_least_head_width_runs_projected_attention(
            self, monkeypatch, channels, embed_dim, heads):
        cfg = EnhancerConfig(embed_dim=embed_dim, num_heads=heads, dropout_p=0.0)
        params = init_enhancer(channels, cfg, Rng(0))
        monkeypatch.setattr(backbone, "_head_outputs", self._refuse)
        with pytest.raises(AssertionError, match="projected attention called"):
            enhance(_tokens(5, channels, 1), params, cfg)

    def test_memory_scales_with_block_not_p_squared(self):
        p_count = 3000
        cfg = EnhancerConfig(embed_dim=32, num_heads=2, dropout_p=0.0)
        params = init_enhancer(3, cfg, Rng(28))
        tb = _tokens(p_count, 3, 29)
        tracemalloc.start()
        try:
            enhance(tb, params, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p_count * p_count * 8 / 10


def dense_refine(grid, params, training=False):
    """The dense composition that the sparse ``conv_refine`` must reproduce."""
    c1, c2 = params.conv1, params.conv2
    x = conv2d_im2col(grid.data, c1.kernel, c1.bias)
    x = batch_norm2d(x, c1.bn_stats, c1.bn_gamma, c1.bn_beta, training=training)
    x = max_pool2d(relu(x), window=2, stride=2)
    return conv2d_im2col(x, c2.kernel, c2.bias)


# one pillar at each corner and at the middle of each edge of a 7 x 8 grid
BORDER_CELLS = [(0, 0), (0, 4), (0, 7), (3, 0), (3, 7), (6, 0), (6, 4), (6, 7)]


class TestConvRefine:
    def _grid(self, data):
        mask = np.any(data != 0.0, axis=2)
        return PillarGrid(mask=mask, features=data[mask])

    def test_zero_grid_bias_free(self):
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(0))
        params.conv1.bias[:] = 0.0
        params.conv2.bias[:] = 0.0
        grid = PillarGrid(mask=np.zeros((8, 8), dtype=bool), features=np.zeros((0, 4)))
        out = conv_refine(grid, params)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_output_shape_halved_and_tripled(self):
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(1))
        grid = self._grid(Rng(2).normal(size=(8, 8, 4)))
        assert conv_refine(grid, params).shape == (4, 4, 12)

    def test_matches_loop_oracle(self):
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_enhancer(2, cfg, Rng(3))
        grid = self._grid(Rng(4).normal(size=(8, 8, 2)))
        got = conv_refine(grid, params)

        x = conv2d_oracle(grid.data, params.conv1.kernel, params.conv1.bias)
        stats = params.conv1.bn_stats
        x = params.conv1.bn_gamma * (x - stats.mean) / np.sqrt(stats.var + 1e-5) \
            + params.conv1.bn_beta
        x = np.maximum(x, 0.0)
        x = max_pool_oracle(x)
        want = conv2d_oracle(x, params.conv2.kernel, params.conv2.bias)
        assert np.allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("h, w, occupied, training", [
        pytest.param(8, 8, 0.0, False, id="empty"),
        *[pytest.param(7, 8, [cell], False, id=f"pillar-{cell[0]}-{cell[1]}")
          for cell in BORDER_CELLS],
        pytest.param(20, 20, 0.05, False, id="sparse-5pct"),
        pytest.param(8, 8, 1.0, False, id="full"),
        pytest.param(7, 5, 0.3, False, id="odd-7x5"),
        pytest.param(1, 1, 1.0, False, id="odd-1x1"),
        pytest.param(1, 1, 0.0, False, id="odd-1x1-empty"),
        pytest.param(2, 5, 0.3, False, id="odd-2x5"),
        pytest.param(20, 20, 0.05, True, id="training-sparse-5pct"),
        pytest.param(7, 5, 1.0, True, id="training-full-odd"),
    ])
    def test_matches_dense_composition(self, h, w, occupied, training):
        c = 3
        rng = Rng(100 * h + w)
        params = init_enhancer(c, EnhancerConfig(embed_dim=8, dropout_p=0.0), rng)
        assert np.all(params.conv1.bias != 0.0) and np.all(params.conv2.bias != 0.0)
        # off-centre running stats and signed gamma, so relu clips part of the background
        params.conv1.bn_stats = BatchNormStats(rng.normal(size=c), rng.uniform(0.5, 2.0, size=c))
        params.conv1.bn_gamma = rng.normal(size=c)
        params.conv1.bn_beta = rng.normal(size=c)
        if isinstance(occupied, list):
            mask = np.zeros((h, w), dtype=bool)
            mask[tuple(np.array(occupied).T)] = True
        else:
            mask = rng.random((h, w)) < occupied
        data = np.where(mask[..., None], rng.normal(size=(h, w, c)), 0.0)
        grid = PillarGrid(mask=mask, features=data[mask])
        dense_params = copy.deepcopy(params)

        got = conv_refine(grid, params, training=training)
        want = dense_refine(grid, dense_params, training=training)
        assert got.shape == want.shape == (-(-h // 2), -(-w // 2), 3 * c)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        for name in ("mean", "var"):
            np.testing.assert_allclose(getattr(params.conv1.bn_stats, name),
                                       getattr(dense_params.conv1.bn_stats, name),
                                       rtol=0, atol=1e-10)

    @pytest.mark.parametrize("conv", [
        pytest.param(conv_refine, id="conv_refine"),
        pytest.param(lambda grid, params: conv2d(grid.data, params.conv1.kernel), id="conv2d"),
    ])
    def test_rejects_even_kernel(self, conv):
        # EnhancerConfig refuses an even conv_kernel, so only hand-built parameters have one
        params = init_enhancer(2, EnhancerConfig(embed_dim=8, dropout_p=0.0), Rng(6))
        params.conv1.kernel = np.zeros((2, 2, 2, 2))
        grid = PillarGrid(mask=np.zeros((4, 4), dtype=bool), features=np.zeros((0, 2)))
        with pytest.raises(ValueError, match="^conv kernel dims must be odd$"):
            conv(grid, params)


def _refine_case(h, w, mask, c=3, seed=0):
    """Random conv params with off-centre BN stats, and a grid on ``mask``."""
    rng = Rng(seed)
    params = init_enhancer(c, EnhancerConfig(embed_dim=8, dropout_p=0.0), rng)
    params.conv1.bn_stats = BatchNormStats(rng.normal(size=c), rng.uniform(0.5, 2.0, size=c))
    params.conv1.bn_gamma = rng.normal(size=c)
    params.conv1.bn_beta = rng.normal(size=c)
    data = np.where(mask[..., None], rng.normal(size=(h, w, c)), 0.0)
    grid = PillarGrid(mask=mask, features=data[mask])
    return params, grid


def _dilated(mask, k=3):
    """Cells with a masked cell in their k x k window, by an explicit loop."""
    h, w = mask.shape
    r = k // 2
    return np.array([[mask[max(0, i - r):i + r + 1, max(0, j - r):j + r + 1].any()
                      for j in range(w)] for i in range(h)])


def _check_against_dense(params, grid, training):
    dense_params = copy.deepcopy(params)
    got = conv_refine(grid, params, training=training)
    want = dense_refine(grid, dense_params, training=training)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    for name in ("mean", "var"):
        np.testing.assert_allclose(getattr(params.conv1.bn_stats, name),
                                   getattr(dense_params.conv1.bn_stats, name),
                                   rtol=0, atol=1e-10)


def _edge_mask(h, w):
    mask = np.zeros((h, w), dtype=bool)
    mask[[0, 0, h - 1, h // 2, 1], [0, w // 2, w - 1, 0, w - 1]] = True
    return mask


class TestTapScatter:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("case", ["random-0", "random-1", "random-2", "edges", "empty"])
    def test_cells_are_the_dilated_mask(self, k, case):
        h, w, c = 9, 7, 2
        rng = Rng(50 + k)
        if case.startswith("random"):
            mask = Rng(int(case[-1])).random((h, w)) < 0.1
        else:
            mask = _edge_mask(h, w) if case == "edges" else np.zeros((h, w), dtype=bool)
        data = np.where(mask[..., None], rng.normal(size=(h, w, c)), 0.0)
        kernel = rng.normal(size=(k, k, c, 3))
        cells, acc = layers._tap_scatter(data[mask], mask, kernel)
        np.testing.assert_array_equal(cells, np.flatnonzero(_dilated(mask, k)))
        assert acc.shape == (cells.size + 1, 3)
        want = conv2d_im2col(data, kernel).reshape(-1, 3)
        np.testing.assert_allclose(acc[:-1], want[cells], rtol=0, atol=1e-12)
        assert not np.delete(want, cells, axis=0).any()


class TestConvRefineFootprint:
    @pytest.mark.parametrize("training", [False, True])
    def test_odd_grid_footprint_on_pooling_edge(self, training):
        # 9 x 7: the last row and column pool with -inf partners beside the grid
        mask = np.zeros((9, 7), dtype=bool)
        mask[8, [0, 3, 6]] = True
        mask[[1, 4], 6] = True
        params, grid = _refine_case(9, 7, mask, seed=31)
        _check_against_dense(params, grid, training)

    @pytest.mark.parametrize("training", [False, True])
    def test_footprint_covers_every_pooled_cell(self, training):
        mask = np.zeros((8, 8), dtype=bool)
        mask[np.ix_([1, 5], [1, 5])] = True
        near = _dilated(mask)
        assert not near.all()
        assert near.reshape(4, 2, 4, 2).any(axis=(1, 3)).all()
        params, grid = _refine_case(8, 8, mask, seed=32)
        _check_against_dense(params, grid, training)

    def test_clustered_64x64_training_updates_stats(self):
        rng = Rng(33)
        mask = np.zeros((64, 64), dtype=bool)
        for ci, cj in rng.integers(0, 60, size=(6, 2)):
            mask[ci:ci + 5, cj:cj + 5] |= rng.random((5, 5)) < 0.6
        assert 0 < mask.sum() < 200
        params, grid = _refine_case(64, 64, mask, c=4, seed=34)
        before = copy.deepcopy(params.conv1.bn_stats)
        _check_against_dense(params, grid, training=True)
        assert not np.allclose(params.conv1.bn_stats.mean, before.mean)

    def test_batch_norm_sees_footprint_rows_only(self, monkeypatch):
        shapes = []

        def spy(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return batch_norm2d(x, *args, **kwargs)

        monkeypatch.setattr(backbone, "batch_norm2d", spy)
        mask = np.zeros((16, 16), dtype=bool)
        mask[[2, 3, 12], [4, 4, 9]] = True
        params, grid = _refine_case(16, 16, mask, seed=35)
        conv_refine(grid, params)
        n_near = int(_dilated(mask).sum())
        assert shapes == [(n_near + 1, 3)]
        assert n_near + 1 < 16 * 16


class TestBackbone:
    def test_token_path_memory_scales_with_points(self):
        # a 1024 x 1024 x 32 grid is 256 MiB dense; 50 points touch 50 pillars
        half = 50.0
        pcfg = PillarConfig(x_min=-half, x_max=half, y_min=-half, y_max=half,
                            pillar_size=2 * half / 1024)
        cfg = EnhancerConfig(dropout_p=0.0)
        params = init_backbone(pcfg, cfg, Rng(20))
        rng = Rng(21)
        pc = PointCloud("f", [RadarPoint(x=float(rng.uniform(-half, half)),
                                         y=float(rng.uniform(-half, half)),
                                         z=0.0, vx=1.0, vy=0.0, rcs=1.0) for _ in range(50)])
        tracemalloc.start()
        try:
            grid = pillarize(pc, pcfg, params.pfn)
            tb = enhance(gather(grid), params.enhancer, cfg)
            back = scatter(tb, grid.height, grid.width)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.pillar_count == grid.pillar_count == 50
        assert peak < 16 * 2**20

    def _setup(self, seed=0, **encfg):
        pcfg = small_pillar_cfg()
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0, **encfg)
        params = init_backbone(pcfg, cfg, Rng(seed))
        return pcfg, cfg, params

    def test_empty_cloud_zero_output(self):
        pcfg, cfg, params = self._setup()
        params.enhancer.conv1.bias[:] = 0.0
        params.enhancer.conv2.bias[:] = 0.0
        out = pan_backbone(PointCloud("f", []), params, pcfg, cfg)
        assert out.shape == (8, 8, 12)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_empty_cloud_takes_channels_from_the_weights(self):
        # params for one out_channels and a config for another: an empty frame
        # runs, as a one-point frame does, with the weights' width
        pcfg, cfg, params = self._setup()
        stale = small_pillar_cfg(out_channels=pcfg.out_channels + 3)
        for conv in (True, False):
            ec = EnhancerConfig(embed_dim=8, dropout_p=0.0, conv_enabled=conv)
            want = pan_backbone(PointCloud("f", []), params, pcfg, ec)
            assert np.array_equal(pan_backbone(PointCloud("f", []), params, stale, ec), want)

    def test_shape_law_with_conv(self):
        pcfg, cfg, params = self._setup()
        pts = [RadarPoint(x=1.0, y=1.0, z=0.0, vx=1.0, vy=0.0, rcs=1.0)]
        out = pan_backbone(PointCloud("f", pts), params, pcfg, cfg)
        assert out.shape == (pcfg.height // 2, pcfg.width // 2, 3 * pcfg.out_channels)

    def test_shape_law_no_conv(self):
        pcfg, cfg, params = self._setup(conv_enabled=False)
        pts = [RadarPoint(x=1.0, y=1.0, z=0.0, vx=1.0, vy=0.0, rcs=1.0)]
        out = pan_backbone(PointCloud("f", pts), params, pcfg, cfg)
        assert out.shape == (pcfg.height, pcfg.width, pcfg.out_channels)

    def test_single_point_receptive_field(self):
        pcfg, cfg, params = self._setup(seed=7)
        params.enhancer.conv1.bias[:] = 0.0
        params.enhancer.conv2.bias[:] = 0.0
        pt = RadarPoint(x=0.5, y=0.5, z=0.0, vx=2.0, vy=0.0, rcs=4.0)
        out = pan_backbone(PointCloud("f", [pt]), params, pcfg, cfg)
        # pillar (8, 8); conv1 dilates to rows/cols 7..9, pooling maps to 3..4,
        # conv2 dilates once more to 2..5
        nonzero = np.argwhere(np.any(out != 0.0, axis=2))
        assert nonzero.size > 0
        assert nonzero[:, 0].min() >= 2 and nonzero[:, 0].max() <= 5
        assert nonzero[:, 1].min() >= 2 and nonzero[:, 1].max() <= 5

    def test_determinism_same_seed(self):
        pcfg, cfg, params = self._setup(seed=9)
        rng_pts = Rng(11)
        pts = [RadarPoint(x=float(rng_pts.uniform(-8, 8)), y=float(rng_pts.uniform(-8, 8)),
                          z=0.0, vx=1.0, vy=1.0, rcs=2.0) for _ in range(20)]
        pc = PointCloud("f", pts)
        a = pan_backbone(pc, params, pcfg, cfg)
        b = pan_backbone(pc, params, pcfg, cfg)
        assert np.array_equal(a, b)

    def test_training_mode_consumes_rng_and_updates_stats(self):
        pcfg = small_pillar_cfg()
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.2)
        rng_pts = Rng(13)
        pts = [RadarPoint(x=float(rng_pts.uniform(-8, 8)), y=float(rng_pts.uniform(-8, 8)),
                          z=0.0, vx=1.0, vy=0.0, rcs=2.0) for _ in range(25)]
        pc = PointCloud("f", pts)

        def fresh():
            return init_backbone(pcfg, cfg, Rng(15))

        p1, p2 = fresh(), fresh()
        a = pan_backbone(pc, p1, pcfg, cfg, rng=Rng(1), training=True)
        b = pan_backbone(pc, p2, pcfg, cfg, rng=Rng(1), training=True)
        assert np.array_equal(a, b)  # same dropout seed, same result
        c = pan_backbone(pc, fresh(), pcfg, cfg, rng=Rng(2), training=True)
        assert not np.array_equal(a, c)
        # batch-norm running stats moved off their fresh values
        assert not np.allclose(p1.pfn.bn_stats.mean, 0.0)
        inference = pan_backbone(pc, fresh(), pcfg, cfg, training=False)
        assert not np.array_equal(a, inference)


class TestCountWork:
    def test_empty_cloud(self):
        pcfg = small_pillar_cfg()
        cfg = EnhancerConfig(embed_dim=8)
        assert count_work(PointCloud("f", []), pcfg, cfg).attention_macs == 0

    def test_full_grid_equals_dense(self):
        pcfg = small_pillar_cfg()
        cfg = EnhancerConfig(embed_dim=8)
        pts = [RadarPoint(x=pcfg.x_min + (j + 0.5), y=pcfg.y_min + (i + 0.5),
                          z=0.0, vx=0.0, vy=0.0, rcs=0.0)
               for i in range(16) for j in range(16)]
        work = count_work(PointCloud("f", pts), pcfg, cfg)
        assert work.pillar_count == 256
        assert work.attention_macs == work.dense_equivalent_macs

    def test_sparse_ratio_from_counted_pillars(self):
        pcfg = PillarConfig()  # 128 x 128 default grid
        cfg = EnhancerConfig()
        rng = Rng(21)
        pts = [RadarPoint(x=float(rng.uniform(-50, 50)), y=float(rng.uniform(-50, 50)),
                          z=0.0, vx=0.0, vy=0.0, rcs=0.0) for _ in range(100)]
        work = count_work(PointCloud("f", pts), pcfg, cfg)
        assert 0 < work.pillar_count <= 100
        # expected MACs recomputed arithmetically from the counted P
        p, n = work.pillar_count, 128 * 128
        c, f = pcfg.out_channels, cfg.embed_dim
        expected = 2 * p * c * f + 4 * p * f * f + 2 * p * p * f + 2 * p * f * f
        assert work.attention_macs == expected
        assert work.sparse_dense_ratio < 0.01

    def test_conv_macs_match_refine_on_odd_grid(self):
        # 15 x 15 grid: conv2 runs on the ceil-pooled 8 x 8 grid, not 7 x 7
        pcfg = small_pillar_cfg(x_min=-7.5, x_max=7.5, y_min=-7.5, y_max=7.5)
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_backbone(pcfg, cfg, Rng(0))
        oh, ow, _ = pan_backbone(PointCloud("f", []), params, pcfg, cfg).shape
        assert (oh, ow) == (8, 8)
        c, k = pcfg.out_channels, cfg.conv_kernel
        work = count_work(PointCloud("f", []), pcfg, cfg)
        assert work.conv_macs == 15 * 15 * k * k * c * c + oh * ow * k * k * c * 3 * c

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pillar_count_matches_pillarize(self, seed):
        # cell corners, cell edges and points outside the range all bin one way
        pcfg = small_pillar_cfg()
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_backbone(pcfg, cfg, Rng(1))
        rng = Rng(seed)
        n = int(rng.integers(0, 40))
        xs = np.where(rng.random(n) < 0.5, rng.integers(-9, 10, n), rng.uniform(-9, 9, n))
        ys = np.where(rng.random(n) < 0.5, rng.integers(-9, 10, n), rng.uniform(-9, 9, n))
        pc = PointCloud("f", [RadarPoint(x=float(x), y=float(y), z=0.0, vx=0.0, vy=0.0, rcs=1.0)
                              for x, y in zip(xs, ys)])
        grid = pillarize(pc, pcfg, params.pfn)
        assert count_work(pc, pcfg, cfg).pillar_count == grid.pillar_count

    def test_rejects_non_finite_points(self):
        # the cloud refuses the row when it is built, so count_work never sees it
        pts = [RadarPoint(x=1.0, y=1.0, z=0.0, vx=float("nan"), vy=0.0, rcs=1.0)]
        with pytest.raises(ValueError, match="^field 'vx' is not finite$"):
            PointCloud("f", pts)

    def test_far_points_dropped_without_warning(self):
        pcfg = small_pillar_cfg()
        cfg = EnhancerConfig(embed_dim=8)
        near = RadarPoint(x=1.0, y=1.0, z=0.0, vx=0.0, vy=0.0, rcs=1.0)
        far = [RadarPoint(x=x, y=y, z=0.0, vx=0.0, vy=0.0, rcs=1.0)
               for x, y in ((1e20, 0.0), (-1e20, 0.0), (0.0, 1e20), (0.0, -1e20))]
        alone = count_work(PointCloud("f", [near]), pcfg, cfg)
        assert count_work(PointCloud("f", [*far, near]), pcfg, cfg) == alone

    def test_monotone_in_points(self):
        pcfg = small_pillar_cfg()
        cfg = EnhancerConfig(embed_dim=8)
        pts = [RadarPoint(x=float(x), y=0.0, z=0.0, vx=0.0, vy=0.0, rcs=0.0)
               for x in np.linspace(-7.5, 7.5, 12)]
        prev = -1
        for k in range(len(pts) + 1):
            macs = count_work(PointCloud("f", pts[:k]), pcfg, cfg).attention_macs
            assert macs >= prev
            prev = macs


class TestParamsIO:
    def test_save_load_round_trip(self, tmp_path):
        pcfg = small_pillar_cfg()
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_backbone(pcfg, cfg, Rng(33))
        path = tmp_path / "params.json"
        save_params(path, params)
        loaded = load_params(path, pcfg, cfg)
        pts = [RadarPoint(x=1.5, y=-2.5, z=0.0, vx=1.0, vy=0.5, rcs=3.0)]
        pc = PointCloud("f", pts)
        a = pan_backbone(pc, params, pcfg, cfg)
        b = pan_backbone(pc, loaded, pcfg, cfg)
        assert np.array_equal(a, b)

    def test_round_trip_at_non_default_dims(self, tmp_path):
        pcfg = small_pillar_cfg(out_channels=5)
        cfg = EnhancerConfig(embed_dim=12, num_heads=3, conv_kernel=5, dropout_p=0.0)
        params = init_backbone(pcfg, cfg, Rng(36))
        path = tmp_path / "params.json"
        save_params(path, params)
        loaded = load_params(path, pcfg, cfg)
        for (name, want), (got_name, got) in zip(backbone._named_arrays(params),
                                                 backbone._named_arrays(loaded)):
            assert got_name == name
            assert got.shape == want.shape and np.array_equal(got, want), name
        second = tmp_path / "again.json"
        save_params(second, loaded)
        assert second.read_bytes() == path.read_bytes()
        pc = PointCloud("f", [RadarPoint(x=1.5, y=-2.5, z=0.0, vx=1.0, vy=0.5, rcs=3.0),
                              RadarPoint(x=-4.0, y=3.0, z=0.0, vx=0.0, vy=0.0, rcs=1.0)])
        assert np.array_equal(pan_backbone(pc, loaded, pcfg, cfg),
                              pan_backbone(pc, params, pcfg, cfg))

    def test_load_rejects_wrong_shape(self, tmp_path):
        pcfg = small_pillar_cfg()
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        params = init_backbone(pcfg, cfg, Rng(34))
        path = tmp_path / "params.json"
        save_params(path, params)
        other_cfg = EnhancerConfig(embed_dim=16, dropout_p=0.0)
        with pytest.raises(ValueError):
            load_params(path, pcfg, other_cfg)

    def test_load_rejects_unknown_name(self, tmp_path):
        pcfg = small_pillar_cfg()
        cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
        path = tmp_path / "params.json"
        save_params(path, init_backbone(pcfg, cfg, Rng(35)))
        records = json.loads(path.read_text())
        records.append({"name": "bogus", "shape": [1], "values": [0.0]})
        path.write_text(json.dumps(records))
        with pytest.raises(ValueError, match="bogus"):
            load_params(path, pcfg, cfg)


    @pytest.mark.parametrize("text, where, message", [
        ('{"pfn.lin.weight": []}', "", "must be a JSON list of parameter records, got dict"),
        ("[5]", "record 0: ", "must be an object, got 5"),
        ('[{"name": 3, "shape": [], "values": [1.0]}]', "record 0: ",
         "field 'name' must be a string, got 3"),
        ('[{"name": "a", "shape": [-1], "values": []}]', "parameter 'a': ",
         "field 'shape' must be a list of integers >= 0, got [-1]"),
        ('[{"name": "a", "shape": [1.5], "values": [1.0]}]', "parameter 'a': ",
         "field 'shape' must be a list of integers >= 0, got [1.5]"),
        ('[{"name": "a", "shape": [2]}]', "parameter 'a': ",
         "field 'values' must be a list of 2 numbers, got null"),
        ('[{"name": "a", "shape": [2], "values": [1.0, true]}]', "parameter 'a': ",
         "field 'values[1]' must be a number, got true"),
        ('[{"name": "a", "shape": [2], "values": [NaN, 1.0]}]', "parameter 'a': ",
         "field 'values[0]' is not finite"),
        ('[{"name": "ln.gamma", "shape": [8], "values": [1.0, 1, 1, 1, 1, 1, 1, 1]},'
         ' {"name": "ln.gamma", "shape": [8], "values": [2.0, 2, 2, 2, 2, 2, 2, 2]}]',
         "parameter 'ln.gamma': ", 'field \'name\' must be unique, got "ln.gamma"'),
        ('[{"name": "a", "shape": [], "values": [1.0]}]', "parameter 'a': ",
         'field \'name\' must be a backbone parameter, got "a"'),
        ('[{"name": "ln.gamma", "shape": [2, 4], "values": [1, 1, 1, 1, 1, 1, 1, 1]}]',
         "parameter 'ln.gamma': ", "field 'shape' must be [8], got [2, 4]"),
        ('[{"name": "ln.gamma", "shape": [8], "values": [1, 1, 1, 1, 1, 1, 1, 1]}]',
         "parameter 'pfn.lin.weight' ", "is missing"),
    ])
    def test_load_rejects_malformed_record_by_field(self, tmp_path, text, where, message):
        path = tmp_path / "params.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_params(path, small_pillar_cfg(), EnhancerConfig(embed_dim=8, dropout_p=0.0))
        assert str(info.value) == f"{path}: {where}{message}"


class TestConfigValidation:
    def test_zero_heads_rejected(self):
        with pytest.raises(ValueError, match="num_heads"):
            EnhancerConfig(num_heads=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_conv_kernel_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="conv_kernel"):
            EnhancerConfig(conv_kernel=k)

    @pytest.mark.parametrize("fields, message", [
        ({"embed_dim": 0}, "field 'embed_dim' must be >= 1, got 0"),
        ({"embed_dim": 8.0}, "field 'embed_dim' must be an integer, got 8.0"),
        ({"num_heads": True}, "field 'num_heads' must be an integer, got true"),
        ({"conv_kernel": "3"}, 'field \'conv_kernel\' must be an integer, got "3"'),
        ({"dropout_p": None}, "field 'dropout_p' must be a number, got null"),
        ({"dropout_p": math.nan}, "field 'dropout_p' is not finite"),
        ({"dropout_p": 1.0}, "field 'dropout_p' must be in [0, 1), got 1.0"),
        ({"dropout_p": -0.1}, "field 'dropout_p' must be in [0, 1), got -0.1"),
        ({"conv_enabled": 1}, "field 'conv_enabled' must be true or false, got 1"),
    ])
    def test_degenerate_enhancer_rejected_by_field(self, fields, message):
        with pytest.raises(ValueError) as info:
            EnhancerConfig(**fields)
        assert str(info.value) == message

    def test_numpy_integers_accepted(self):
        cfg = EnhancerConfig(embed_dim=np.int64(8), num_heads=np.int64(2))
        params = init_enhancer(3, cfg, Rng(0))
        assert params.q.weight.shape == (8, 8)
        assert self_attention(Rng(1).normal(size=(5, 8)), params, cfg).shape == (5, 8)
