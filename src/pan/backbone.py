"""Pillar-attention backbone: feature enhancement over non-empty pillars.

The pipeline is pillarize -> gather -> enhance -> scatter -> conv refine.
``enhance`` runs only on the packed tokens, so the attention and MLP cost
scales with the number of occupied pillars P instead of the grid area;
``count_work`` makes that ratio explicit. Attention takes its query rows in
blocks of about 2 MiB of scores, so memory is O(block * P), not P x P. The
1/sqrt(d_k) scale is folded into Q once, and each block divides its
[rows, d_k] output by the row sums instead of normalising [rows, P] weights.
The embedding ``enc`` is affine in the C-wide tokens, so every head's
scores have rank at most C + 1. When C + 1 < d_k, as in the default
config (C = 32, d_k = 128), ``enhance`` computes attention through the
[P, C+1] tokens with a ones column: the scores and the weighted values of
each head run at width C + 1, 2·P²·(C+1) MACs per head instead of
2·P²·d_k, and q, k, v and ``attn_out`` fold into [C+1, f] weight
compositions. Otherwise it runs the projected heads of ``self_attention``,
the form the gradient checks differentiate. Either way every map after the
softmax but LayerNorm and GeLU is affine, so the rest of the token path is
two passes over the tokens through weights composed once per call.
``count_work`` keeps counting the projected, unfused form.
Two-layer convolution afterwards halves the spatial dims and triples the
channel depth. It too follows the occupied footprint: conv1, batch norm and
relu see only the cells within the kernel of an occupied pillar plus one
background row, pooling only the pooled cells with such a child, and conv2
multiplies only those pooled cells, while the constant background costs one
term per output cell. The result equals the dense composition. Both convs
run through the library's one convolution, ``layers._tap_scatter``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .layers import (
    BatchNormStats,
    LinearParams,
    _exp_rows,
    _sparse_conv,
    _tap_scatter,
    batch_norm2d,
    dropout,
    gelu,
    gelu_backward,
    init_linear,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    relu,
    softmax_rows_backward,
)
from .io import read_json
from .pillars import (PfnParams, PillarConfig, PillarGrid, PointCloud, TokenBatch, bin_points,
                      gather, init_pfn, pillarize, scatter)
from .tensor import (DTYPE, Rng, check_finite, check_number_fields, check_numbers, finite_numbers,
                     require)


@dataclass
class EnhancerConfig:
    """Token-enhancer settings. ``embed_dim`` and ``conv_kernel`` size new weights,
    and so ``load_params``' table, and ``count_work``; the forward pass reads
    every width from the weights it is given."""

    embed_dim: int = 128
    num_heads: int = 1
    dropout_p: float = 0.1
    conv_enabled: bool = True
    conv_kernel: int = 3
    use_attn_out = True  # a constant, read by perfbench: attention always ends in attn_out

    def __post_init__(self):
        check_numbers(self, ("embed_dim", "num_heads", "conv_kernel"),
                      integers=("embed_dim", "num_heads", "conv_kernel"),
                      at_least={"embed_dim": 1, "num_heads": 1, "conv_kernel": 1})
        require(self.conv_kernel % 2 == 1, "conv_kernel", "odd", self.conv_kernel)
        require(self.embed_dim % self.num_heads == 0, "embed_dim",
                f"divisible by num_heads {self.num_heads}", self.embed_dim)
        check_number_fields({"dropout_p": self.dropout_p})
        require(0 <= self.dropout_p < 1, "dropout_p", "in [0, 1)", self.dropout_p)
        require(isinstance(self.conv_enabled, bool), "conv_enabled", "true or false",
                self.conv_enabled)


@dataclass(eq=False)
class ConvStageParams:
    kernel: np.ndarray  # [k, k, Cin, Cout]
    bias: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    bn_stats: BatchNormStats


@dataclass(eq=False)
class EnhancerParams:
    enc: LinearParams      # C -> f
    q: LinearParams        # f -> f
    k: LinearParams
    v: LinearParams
    attn_out: LinearParams
    mlp1: LinearParams
    mlp2: LinearParams
    ln_gamma: np.ndarray   # [f]
    ln_beta: np.ndarray
    dec: LinearParams      # f -> C
    conv1: ConvStageParams  # C -> C
    conv2: ConvStageParams  # C -> 3C


def _init_conv_stage(k: int, cin: int, cout: int, rng: np.random.Generator) -> ConvStageParams:
    bound = 1.0 / math.sqrt(k * k * cin)
    return ConvStageParams(
        kernel=rng.uniform(-bound, bound, size=(k, k, cin, cout)),
        bias=rng.uniform(-bound, bound, size=(cout,)),
        bn_gamma=np.ones(cout),
        bn_beta=np.zeros(cout),
        bn_stats=BatchNormStats.fresh(cout),
    )


def init_enhancer(channels: int, cfg: EnhancerConfig, rng: np.random.Generator) -> EnhancerParams:
    f = cfg.embed_dim
    k = cfg.conv_kernel
    return EnhancerParams(
        enc=init_linear(channels, f, rng),
        q=init_linear(f, f, rng),
        k=init_linear(f, f, rng),
        v=init_linear(f, f, rng),
        attn_out=init_linear(f, f, rng),
        mlp1=init_linear(f, f, rng),
        mlp2=init_linear(f, f, rng),
        ln_gamma=np.ones(f),
        ln_beta=np.zeros(f),
        dec=init_linear(f, channels, rng),
        conv1=_init_conv_stage(k, channels, channels, rng),
        conv2=_init_conv_stage(k, channels, 3 * channels, rng),
    )


@dataclass(eq=False)
class BackboneParams:
    pfn: PfnParams
    enhancer: EnhancerParams


def init_backbone(pillar_cfg: PillarConfig, enh_cfg: EnhancerConfig,
                  rng: np.random.Generator) -> BackboneParams:
    return BackboneParams(
        pfn=init_pfn(pillar_cfg, rng),
        enhancer=init_enhancer(pillar_cfg.out_channels, enh_cfg, rng),
    )


# ---------------------------------------------------------------------------
# self-attention branch
# ---------------------------------------------------------------------------

# bytes of one block of attention scores: a block of query rows sees every
# key, so each row's softmax is exact and only [rows, P] exists at a time.
# Below 64 rows the two GEMMs per block lose more than the cache gains
# (P = 8192: 3.5 s per call in 16-row blocks, 2.0 s in 64-row blocks).
# At P = 1887, f = 128 (one CPU of a 2-vCPU VM, one OpenBLAS thread) the
# median call took 107-124 ms in 1 MiB blocks and 97-109 ms in 2 or 4 MiB
# blocks. The token-width path at P = 1988, C + 1 = 33 (same CPU) took
# 35.8-38.2 ms in 0.5, 1 or 2 MiB blocks and 39.8-43.9 ms in 4 or 8 MiB
# blocks (medians of two runs). The generator keeps two blocks alive, so
# tracemalloc's peak at P = 3000, f = 8 is 5.2 MB at 2 MiB and 9.4 MB at 4 MiB.
_ATTN_BLOCK_BYTES = 2 << 20
_ATTN_MIN_ROWS = 64


def _row_blocks(p_count: int) -> list[slice]:
    rows = max(_ATTN_MIN_ROWS, _ATTN_BLOCK_BYTES // (8 * max(p_count, 1)))
    return [slice(lo, min(lo + rows, p_count)) for lo in range(0, p_count, rows)]


def _head_width(width: int, cfg: EnhancerConfig) -> int:
    """d_k, the width of one head: the Q projection's width over ``num_heads``."""
    require(width % cfg.num_heads == 0, "num_heads",
            f"a divisor of the attention width {width}", cfg.num_heads)
    return width // cfg.num_heads


def _attention_weights(heads: list[tuple[np.ndarray, np.ndarray]], cfg: EnhancerConfig,
                       rng: np.random.Generator | None = None, training: bool = False):
    """Yield (head index, row block, exp scores, row sums) per head and query-row block.

    Head h's scores are ``left @ right.T`` for its (left, right) pair in
    ``heads``, both [P, width] and already scaled. The softmax weights are the
    exp scores divided by their row sums, a division left to the caller. In
    training mode dropout hits the raw scores, before the softmax, as the
    paper reads literally; the draws run head by head, row by row, as for one
    [P, P] draw per head.
    """
    for hd, (left, right) in enumerate(heads):
        rt = right.T
        for blk in _row_blocks(len(left)):
            scores = dropout(left[blk] @ rt, cfg.dropout_p, rng, training)
            yield (hd, blk, *_exp_rows(scores))


def _projected_heads(q: np.ndarray, k: np.ndarray, dh: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each head's (Q_h / sqrt(d_k), K_h); the scale is folded into Q once."""
    q = q / math.sqrt(dh)
    return [(q[:, lo:lo + dh], k[:, lo:lo + dh]) for lo in range(0, q.shape[1], dh)]


def _head_outputs(x: np.ndarray, params: EnhancerParams, cfg: EnhancerConfig,
                  rng: np.random.Generator | None = None,
                  training: bool = False) -> np.ndarray:
    """Each head's softmax-weighted values side by side, [P, f]: the attention
    over tokens ``x`` before its output projection ``attn_out``."""
    x = np.asarray(x, dtype=DTYPE)
    q = linear(x, params.q)
    k = linear(x, params.k)
    v = linear(x, params.v)
    dh = _head_width(q.shape[1], cfg)
    out = np.empty(v.shape)
    for hd, blk, e, sums in _attention_weights(_projected_heads(q, k, dh), cfg, rng, training):
        sl = slice(hd * dh, (hd + 1) * dh)
        np.divide(e @ v[:, sl], sums, out=out[blk, sl])
    return out


def self_attention(x: np.ndarray, params: EnhancerParams, cfg: EnhancerConfig,
                   rng: np.random.Generator | None = None,
                   training: bool = False) -> np.ndarray:
    """Scaled dot-product self-attention over pillar tokens [P, f].

    The exp scores come from ``_attention_weights``. Query rows go in blocks
    of about 2 MiB of scores (at least 64 rows), so memory is O(block * P).
    The 1/sqrt(d_k) scale is folded into Q, and each block divides its
    [rows, d_k] output by the row sums instead of normalising the [rows, P]
    weights. P = 0 gives no blocks and an empty [0, f] output.
    """
    return linear(_head_outputs(x, params, cfg, rng, training), params.attn_out)


def self_attention_input_grad(x: np.ndarray, params: EnhancerParams,
                              cfg: EnhancerConfig, dy: np.ndarray) -> np.ndarray:
    """Input gradient of inference-mode ``self_attention``, in the same row blocks."""
    q = linear(x, params.q)
    k = linear(x, params.k)
    v = linear(x, params.v)
    dh = _head_width(q.shape[1], cfg)
    scale = math.sqrt(dh)
    d_out = linear_backward(dy, params.attn_out)
    dq = np.zeros_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    for hd, blk, weights, sums in _attention_weights(_projected_heads(q, k, dh), cfg):
        sl = slice(hd * dh, (hd + 1) * dh)
        weights /= sums
        d_head = d_out[blk, sl]
        dv[:, sl] += weights.T @ d_head
        d_scores = softmax_rows_backward(d_head @ v[:, sl].T, weights)
        dq[blk, sl] = d_scores @ k[:, sl] / scale
        dk[:, sl] += d_scores.T @ q[blk, sl] / scale
    return (linear_backward(dq, params.q)
            + linear_backward(dk, params.k)
            + linear_backward(dv, params.v))


def _compose(a: np.ndarray, lp: LinearParams) -> np.ndarray:
    """``a`` W with b added to its last row: the weights of ``lp`` applied
    after ``a``, for inputs whose last column is ones."""
    out = a @ lp.weight
    out[-1] += lp.bias
    return out


def _token_width_heads(t1: np.ndarray, e1: np.ndarray, params: EnhancerParams,
                       cfg: EnhancerConfig, dh: int, rng: np.random.Generator | None = None,
                       training: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``(Z, mix)`` with Z @ mix = ``_head_outputs(t1 @ e1) @ W_o``, computed
    through T1 = [tokens, 1], [P, C+1], and E1 = [W_enc; b_enc].

    enc is affine, so q = T1 A_q with A_q = E1 W_q plus b_q on its last row,
    and likewise k and v. Head h's scores are (T1 M_h) T1^T with
    M_h = A_q,h A_k,h^T / sqrt(d_k). Z [P, H(C+1)] holds each head's
    softmax times T1, and mix [H(C+1), f] stacks the A_v,h W_o,h. Both
    [rows, P] GEMMs of a block run at width C+1, and no [P, f] q, k or v is built.
    """
    aq, ak, av = (_compose(e1, lp) for lp in (params.q, params.k, params.v))
    heads = range(0, aq.shape[1], dh)
    left = t1 @ (np.hstack([aq[:, lo:lo + dh] @ ak[:, lo:lo + dh].T for lo in heads])
                 / math.sqrt(dh))
    mix = np.vstack([av[:, lo:lo + dh] @ params.attn_out.weight[lo:lo + dh] for lo in heads])
    w = t1.shape[1]
    z = np.empty((len(t1), len(heads) * w))
    pairs = [(left[:, i * w:(i + 1) * w], t1) for i in range(len(heads))]
    for hd, blk, e, sums in _attention_weights(pairs, cfg, rng, training):
        np.divide(e @ t1, sums, out=z[blk, hd * w:(hd + 1) * w])
    return z, mix


# ---------------------------------------------------------------------------
# token enhancement (encode -> attention -> MLP -> decode)
# ---------------------------------------------------------------------------

def enhance(tb: TokenBatch, params: EnhancerParams, cfg: EnhancerConfig,
            rng: np.random.Generator | None = None, training: bool = False) -> TokenBatch:
    """Refine pillar tokens: both the attention and the MLP sit on residual paths.

    e = enc(t); a = e + attention(e); m = a + mlp2(gelu(ln(mlp1(a)))); out = dec(m).
    Every map but LayerNorm and GeLU is affine. The attention output is
    Z @ mix + b_o: through the token width, ``_token_width_heads``, when the
    C + 1 token columns with the ones column are fewer than the head width
    d_k, else from the projected heads ``_head_outputs(e)`` with mix = W_o.
    With X = [Z, T1] and L = [mix; E1], b_o on the ones row, a = X L, so
    h1 = X (L W_1) + b_1 and out = X (L W_dec) + g (W_2 W_dec) + b_2 W_dec + b_dec,
    g = gelu(ln(h1)): two passes over the tokens through small composed
    weights, and no [P, f] e, attention output, a or m.
    """
    t1 = np.column_stack([tb.tokens, np.ones(len(tb))])
    e1 = np.vstack([params.enc.weight, params.enc.bias])
    dh = _head_width(params.q.weight.shape[1], cfg)
    if len(e1) < dh:
        z, mix = _token_width_heads(t1, e1, params, cfg, dh, rng=rng, training=training)
    else:
        z = _head_outputs(linear(tb.tokens, params.enc), params, cfg, rng=rng, training=training)
        mix = params.attn_out.weight
    x = np.hstack([z, t1])
    lift = np.vstack([mix, e1])
    lift[-1] += params.attn_out.bias
    h1 = check_finite(x @ _compose(lift, params.mlp1), "mlp1 output")
    g = gelu(layer_norm(h1, params.ln_gamma, params.ln_beta))
    lift_dec = _compose(lift, params.dec)
    lift_dec[-1] += params.mlp2.bias @ params.dec.weight
    out = x @ lift_dec
    out += g @ (params.mlp2.weight @ params.dec.weight)
    return TokenBatch(tokens=check_finite(out, "enhance output"), coords=tb.coords)


def enhance_input_grad(tokens: np.ndarray, params: EnhancerParams,
                       cfg: EnhancerConfig, dy: np.ndarray) -> np.ndarray:
    """Input gradient of inference-mode ``enhance`` by explicit chaining."""
    e = linear(tokens, params.enc)
    a = e + self_attention(e, params, cfg)
    h1 = linear(a, params.mlp1)
    h2 = layer_norm(h1, params.ln_gamma, params.ln_beta)

    dm = linear_backward(dy, params.dec)
    # m = a + mlp2(gelu(ln(mlp1(a))))
    dh3 = linear_backward(dm, params.mlp2)
    dh2 = gelu_backward(dh3, h2)
    dh1 = layer_norm_backward(dh2, h1, params.ln_gamma)
    da = dm + linear_backward(dh1, params.mlp1)
    de = da + self_attention_input_grad(e, params, cfg, da)
    return linear_backward(de, params.enc)


# ---------------------------------------------------------------------------
# convolution refinement and the full backbone
# ---------------------------------------------------------------------------

def conv_refine(grid: PillarGrid, params: EnhancerParams,
                training: bool = False) -> np.ndarray:
    """conv(C->C) -> batch norm -> relu -> max pool /2 -> conv(C->3C).

    Every stage touches only the occupied footprint. Unmasked cells are
    zero, so conv1 is the bias alone off ``near``, the cells its taps reach
    from the occupied pillars: conv1 multiplies the pillars into the
    ``near`` rows only, and batch norm and relu see those rows plus one
    background row, the bias. Training-mode batch statistics count the
    background row once per cell off ``near``. Only the pooled cells with a
    ``near`` child are pooled, each from its computed children and the
    background; the rest hold the pooled background, which conv2 takes as
    its ``bg``. The result equals the dense composition.
    """
    c1, c2 = params.conv1, params.conv2
    h, w = grid.height, grid.width
    # rows 0..n_near-1 are the near cells, the spare last row the background
    near, x = _tap_scatter(grid.features, grid.mask, c1.kernel)
    n_near = near.size
    x[n_near] = 0.0
    x += c1.bias
    stats = c1.bn_stats
    if training:
        n_bg = h * w - n_near
        mean = (x[:n_near].sum(axis=0) + n_bg * x[n_near]) / (h * w)
        dev = x - mean
        var = ((dev[:n_near] ** 2).sum(axis=0) + n_bg * dev[n_near] ** 2) / (h * w)
        stats.fold(mean, var)
        stats = BatchNormStats(mean, var)
    x = relu(batch_norm2d(x, stats, c1.bn_gamma, c1.bn_beta, training=False))

    # 2x2 pooling over the rows of x; an odd last row or column reads its
    # in-grid partner twice, which is what -inf padding leaves of the max
    oh, ow = -(-h // 2), -(-w // 2)
    cell = np.full(h * w, n_near, dtype=np.intp)
    cell[near] = np.arange(n_near)
    child = cell.reshape(h, w)[np.ix_(np.minimum(np.arange(2 * oh), h - 1),
                                      np.minimum(np.arange(2 * ow), w - 1))]
    child = child.reshape(oh, 2, ow, 2).transpose(0, 2, 1, 3).reshape(oh, ow, 4)
    active = (child < n_near).any(axis=2)
    pooled = x[child[active]].max(axis=1)
    return _sparse_conv(active, pooled, x[n_near], c2.kernel, c2.bias)


def pan_backbone(pc: PointCloud, params: BackboneParams, pillar_cfg: PillarConfig,
                 enh_cfg: EnhancerConfig, rng: np.random.Generator | None = None,
                 training: bool = False) -> np.ndarray:
    """Full backbone pass: returns [H/2, W/2, 3C], or the enhanced [H, W, C]
    grid when ``conv_enabled`` is off."""
    grid = pillarize(pc, pillar_cfg, params.pfn, training=training)
    tb = gather(grid)
    tb = enhance(tb, params.enhancer, enh_cfg, rng=rng, training=training)
    refined = scatter(tb, grid.height, grid.width)
    if not enh_cfg.conv_enabled:
        return refined.data
    return conv_refine(refined, params.enhancer, training=training)


# ---------------------------------------------------------------------------
# work accounting
# ---------------------------------------------------------------------------

@dataclass
class WorkReport:
    pillar_count: int
    attention_macs: int
    conv_macs: int
    dense_equivalent_macs: int

    @property
    def sparse_dense_ratio(self) -> float:
        return self.attention_macs / self.dense_equivalent_macs


def _token_macs(p: int, channels: int, cfg: EnhancerConfig) -> int:
    # the nominal count of the projected, unfused form, which criterion 9,
    # `pan bench` and perfbench's cross-check read. When C + 1 < d_k, with H
    # heads, ``enhance`` does 2·P²·(C+1)·H MACs for scores and values and
    # P·(C+1)²·H for the scores' left factor; its composed tail does
    # P·(C+1)·(1+H)·(f + C) + P·f·C, and no [P, f] x [f, f] GEMM.
    f = cfg.embed_dim
    macs = 2 * p * channels * f          # encoder + decoder
    macs += 4 * p * f * f                # q, k, v and output projections
    macs += 2 * p * p * f                # scores and weighted values
    macs += 2 * p * f * f                # two MLP layers
    return macs


def count_work(pc: PointCloud, pillar_cfg: PillarConfig,
               enh_cfg: EnhancerConfig) -> WorkReport:
    """Multiply-accumulate counts for the token path at the actual pillar
    count P versus the dense equivalent where every cell is a token.

    ``conv_macs`` is the dense conv refine's count, the work that the
    sparse ``conv_refine`` does not do away from the occupied footprint.
    """
    h, w, c = pillar_cfg.height, pillar_cfg.width, pillar_cfg.out_channels
    p_count = np.unique(bin_points(pc, pillar_cfg)[1]).size
    k = enh_cfg.conv_kernel
    conv_macs = 0
    if enh_cfg.conv_enabled:
        # conv2 runs on the 2x2-pooled grid, ceil(H/2) x ceil(W/2)
        conv_macs = (h * w * k * k * c * c
                     + -(-h // 2) * -(-w // 2) * k * k * c * (3 * c))
    return WorkReport(
        pillar_count=p_count,
        attention_macs=_token_macs(p_count, c, enh_cfg),
        conv_macs=conv_macs,
        dense_equivalent_macs=_token_macs(h * w, c, enh_cfg),
    )


# ---------------------------------------------------------------------------
# parameter save / load: ordered (name, shape, row-major values) records
# ---------------------------------------------------------------------------

def _named_arrays(params: BackboneParams) -> list[tuple[str, np.ndarray]]:
    e = params.enhancer
    out = [
        ("pfn.lin.weight", params.pfn.lin.weight),
        ("pfn.lin.bias", params.pfn.lin.bias),
        ("pfn.bn.gamma", params.pfn.bn_gamma),
        ("pfn.bn.beta", params.pfn.bn_beta),
        ("pfn.bn.mean", params.pfn.bn_stats.mean),
        ("pfn.bn.var", params.pfn.bn_stats.var),
    ]
    for name in ("enc", "q", "k", "v", "attn_out", "mlp1", "mlp2", "dec"):
        lp: LinearParams = getattr(e, name)
        out.append((f"{name}.weight", lp.weight))
        out.append((f"{name}.bias", lp.bias))
    out.append(("ln.gamma", e.ln_gamma))
    out.append(("ln.beta", e.ln_beta))
    for name in ("conv1", "conv2"):
        st: ConvStageParams = getattr(e, name)
        out += [
            (f"{name}.kernel", st.kernel),
            (f"{name}.bias", st.bias),
            (f"{name}.bn.gamma", st.bn_gamma),
            (f"{name}.bn.beta", st.bn_beta),
            (f"{name}.bn.mean", st.bn_stats.mean),
            (f"{name}.bn.var", st.bn_stats.var),
        ]
    return out


def save_params(path, params: BackboneParams) -> None:
    """Write parameters as a JSON list of {name, shape, values} records."""
    records = [
        {"name": name, "shape": list(a.shape), "values": [float(v) for v in a.reshape(-1)]}
        for name, a in _named_arrays(params)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
        fh.write("\n")


def load_params(path, pillar_cfg: PillarConfig, enh_cfg: EnhancerConfig) -> BackboneParams:
    """Read parameters written by ``save_params``, checked record by record
    against the backbone's own table; an error names the file, the parameter
    (or the record's index) and the field."""
    params = init_backbone(pillar_cfg, enh_cfg, Rng(0))
    table = dict(_named_arrays(params))
    records = read_json(path)
    if not isinstance(records, list):
        raise ValueError(f"{path}: must be a JSON list of parameter records, "
                         f"got {type(records).__name__}")
    loaded = set()
    for index, rec in enumerate(records):
        label = f"record {index}"
        try:
            if not isinstance(rec, dict):
                raise ValueError(f"must be an object, got {json.dumps(rec, default=repr)}")
            name = rec.get("name")
            require(isinstance(name, str), "name", "a string", name)
            label = f"parameter {name!r}"
            require(name not in loaded, "name", "unique", name)
            shape = rec.get("shape")
            require(isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape),
                    "shape", "a list of integers >= 0", shape)
            values = rec.get("values")
            if not isinstance(values, list) or len(values) != math.prod(shape):
                got = (f"{len(values)} values" if isinstance(values, list)
                       else json.dumps(values, default=repr))
                raise ValueError(f"field 'values' must be a list of {math.prod(shape)} "
                                 f"numbers, got {got}")
            if not finite_numbers(values):
                check_number_fields({f"values[{i}]": v for i, v in enumerate(values)})
            require(name in table, "name", "a backbone parameter", name)
            want = list(table[name].shape)
            require(shape == want, "shape", json.dumps(want), shape)
        except ValueError as exc:
            raise ValueError(f"{path}: {label}: {exc}") from None
        table[name][...] = np.array(values, dtype=DTYPE).reshape(shape)
        loaded.add(name)
    for name in table:
        if name not in loaded:
            raise ValueError(f"{path}: parameter {name!r} is missing")
    return params
