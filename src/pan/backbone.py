"""Pillar-attention backbone: feature enhancement over non-empty pillars.

The pipeline is pillarize -> gather -> enhance -> scatter -> conv refine.
``enhance`` runs only on the packed tokens, so the attention and MLP cost
scales with the number of occupied pillars P instead of the grid area;
``count_work`` makes that ratio explicit. Attention takes its query rows in
blocks of about 2 MiB of scores, so memory is O(block * P), not P x P. The
1/sqrt(d_k) scale is folded into the scores' left factor once, and each block
divides its output by the row sums instead of normalising [rows, P] weights.
The embedding ``enc`` is affine in the C-wide tokens, so every head's
scores have rank at most C + 1. ``_head_factors`` picks each head's factors
once: when C + 1 < d_k, as in the default config (C = 32, d_k = 128), the
scores and the weighted values of each head run at width C + 1,
2·P²·(C+1) MACs per head instead of 2·P²·d_k, and q, k, v and ``attn_out``
fold into [C+1, f] weight compositions; otherwise the factors are the
projected heads. ``_heads`` runs attention on the [P, C+1] tokens with a
ones column through one block loop, and ``_heads_backward`` is its
transpose over the same blocks and factors; ``self_attention`` and its
gradient are the same pair on [x, 1]. Every map after the softmax but
LayerNorm and GeLU is affine, so the rest of the token path is two passes
over the tokens through weights composed once per call, and
``enhance_input_grad`` is those passes transposed. ``count_work`` keeps
counting the projected, unfused form.
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
    relu,
    softmax_rows_backward,
)
from .io import read_json
from .pillars import (PfnParams, PillarConfig, PillarGrid, PointCloud, TokenBatch, bin_points,
                      gather, init_pfn, pillarize, scatter)
from .tensor import (DTYPE, Rng, check_finite, check_number_fields, check_settings, finite_numbers,
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
        check_settings(self, embed_dim=1, num_heads=1,
                       dropout_p=("in [0, 1)", lambda p: 0 <= p < 1), conv_kernel=1)
        require(self.conv_kernel % 2 == 1, "conv_kernel", "odd", self.conv_kernel)
        require(self.embed_dim % self.num_heads == 0, "embed_dim",
                f"divisible by num_heads {self.num_heads}", self.embed_dim)


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


def _affine(lp: LinearParams) -> np.ndarray:
    """[W; b]: the weights of ``lp`` for inputs whose last column is ones."""
    return np.vstack([lp.weight, lp.bias])


def _compose(a: np.ndarray, lp: LinearParams) -> np.ndarray:
    """``a`` W with b added to its last row: the weights of ``lp`` applied
    after ``a``, for inputs whose last column is ones."""
    out = a @ lp.weight
    out[-1] += lp.bias
    return out


def _ones_column(x: np.ndarray, in_dim: int, caller: str) -> np.ndarray:
    """[x, 1] for x [P, in_dim]; any other shape is a ValueError naming ``caller``."""
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ValueError(f"{caller}: input shape {x.shape} incompatible with in dim {in_dim}")
    return np.column_stack([x, np.ones(len(x))])


def _check_output_grad(dy, shape: tuple, caller: str) -> None:
    """A ValueError naming ``caller`` unless ``dy`` has the output's ``shape``,
    and a FloatingPointError if it holds NaN or Inf."""
    if np.shape(dy) != shape:
        raise ValueError(f"{caller}: dy shape {np.shape(dy)} is not the output shape {shape}")
    check_finite(dy, "dy")


def _head_factors(aq: np.ndarray, ak: np.ndarray, av: np.ndarray, w_o: np.ndarray,
                  cfg: EnhancerConfig) -> tuple[list, np.ndarray]:
    """``(heads, mix)`` of attention over tokens T1 [P, w] whose last column
    is ones, q = T1 A_q and likewise k and v: head h's maps (L_h, R_h, V_h)
    give scores (T1 L_h)(T1 R_h)^T and values T1 V_h, ``None`` being the
    identity, and Z @ mix is the heads' weighted values side by side times
    ``w_o``. M_h is head h's columns of M. When w < d_k, L_h = A_q,h A_k,h^T
    / sqrt(d_k), R_h = V_h = I and mix stacks A_v,h W_o,h, so both [rows, P]
    GEMMs of a block run at width w; otherwise L_h = A_q,h / sqrt(d_k),
    R_h = A_k,h, V_h = A_v,h and mix = w_o.
    """
    dh = _head_width(aq.shape[1], cfg)
    cols = [slice(lo, lo + dh) for lo in range(0, aq.shape[1], dh)]
    if len(aq) >= dh:
        return [(aq[:, h] / math.sqrt(dh), ak[:, h], av[:, h]) for h in cols], w_o
    return ([(aq[:, h] @ ak[:, h].T / math.sqrt(dh), None, None) for h in cols],
            np.vstack([av[:, h] @ w_o[h] for h in cols]))


def _heads(t1: np.ndarray, heads: list, cfg: EnhancerConfig,
           rng: np.random.Generator | None = None, training: bool = False) -> list[np.ndarray]:
    """Z's block per head for the ``heads`` of ``_head_factors``, in one block loop."""
    mapped = [[t1 if m is None else t1 @ m for m in maps] for maps in heads]
    z = [np.empty(values.shape) for _, _, values in mapped]
    for hd, blk, e, sums in _attention_weights([m[:2] for m in mapped], cfg, rng, training):
        np.divide(e @ mapped[hd][2], sums, out=z[hd][blk])
    return z


def _heads_backward(t1: np.ndarray, heads: list, dz: np.ndarray,
                    cfg: EnhancerConfig) -> np.ndarray:
    """dT1 of inference-mode ``_heads`` given dZ, in the same row blocks:
    the sum over the heads of dleft L_h^T + dright R_h^T + dvalues V_h^T."""
    mapped = [[t1 if m is None else t1 @ m for m in maps] for maps in heads]
    grads = [[np.zeros_like(a) for a in m] for m in mapped]
    d_heads = np.hsplit(dz, len(heads))
    for hd, blk, weights, sums in _attention_weights([m[:2] for m in mapped], cfg):
        (left, right, values), (dleft, dright, dvalues) = mapped[hd], grads[hd]
        weights /= sums
        d_head = d_heads[hd][blk]
        dvalues += weights.T @ d_head
        d_scores = softmax_rows_backward(d_head @ values.T, weights)
        dleft[blk] = d_scores @ right
        dright += d_scores.T @ left[blk]
    return sum(d if m is None else d @ m.T
               for maps, g in zip(heads, grads) for m, d in zip(maps, g))


def _attention_factors(x: np.ndarray, params: EnhancerParams, cfg: EnhancerConfig):
    """``(T1, heads, mix)`` of ``self_attention``: T1 = [x, 1], A = [W; b] for q, k and v."""
    t1 = check_finite(_ones_column(x, params.q.in_dim, "self_attention"), "attention input")
    return (t1, *_head_factors(*map(_affine, (params.q, params.k, params.v)),
                               params.attn_out.weight, cfg))


def self_attention(x: np.ndarray, params: EnhancerParams, cfg: EnhancerConfig,
                   rng: np.random.Generator | None = None,
                   training: bool = False) -> np.ndarray:
    """Scaled dot-product self-attention over pillar tokens [P, f]: ``_heads``
    on [x, 1] with A = [W; b] for each of q, k and v, in query-row blocks of
    about 2 MiB of scores (at least 64 rows). P = 0 gives an empty [0, f]."""
    t1, heads, mix = _attention_factors(x, params, cfg)
    z = np.hstack(_heads(t1, heads, cfg, rng, training))
    return check_finite(z @ mix + params.attn_out.bias, "attention output")


def self_attention_input_grad(x: np.ndarray, params: EnhancerParams,
                              cfg: EnhancerConfig, dy: np.ndarray) -> np.ndarray:
    """Input gradient of inference-mode ``self_attention``: ``_heads_backward``
    of dZ = dy mix^T, without the ones column."""
    t1, heads, mix = _attention_factors(x, params, cfg)
    _check_output_grad(dy, (len(t1), mix.shape[1]), "self_attention_input_grad")
    return _heads_backward(t1, heads, dy @ mix.T, cfg)[:, :-1]


# ---------------------------------------------------------------------------
# token enhancement (encode -> attention -> MLP -> decode)
# ---------------------------------------------------------------------------

def _token_path(tokens: np.ndarray, params: EnhancerParams, cfg: EnhancerConfig,
                rng: np.random.Generator | None = None, training: bool = False):
    """``(out, tape)``: ``enhance``'s output for tokens [P, C], and what its
    transpose reads, ``(t1, heads, h1, w_h1, w_out, w_g)``.

    With T1 = [tokens, 1] and E1 = [W_enc; b_enc] the embedding is T1 E1, so
    attention is ``_heads`` with A_q = E1 W_q plus b_q on its last row, and
    likewise k and v. With X = [Z, T1] and L = [mix; E1], b_o on the ones
    row, a = X L, so mlp1's output is h1 = X W_h1, W_h1 = L W_1 plus b_1, and
    out = X W_out + g W_g, W_out = L W_dec plus b_2 W_dec + b_dec,
    W_g = W_2 W_dec, g = gelu(ln(h1)): no [P, f] e, attention output, a or m.
    """
    t1 = check_finite(_ones_column(tokens, params.enc.in_dim, "enhance"), "enhance input")
    e1 = _affine(params.enc)
    heads, mix = _head_factors(*(_compose(e1, lp) for lp in (params.q, params.k, params.v)),
                               params.attn_out.weight, cfg)
    x = np.hstack([*_heads(t1, heads, cfg, rng, training), t1])
    lift = np.vstack([mix, e1])
    lift[-1] += params.attn_out.bias
    w_h1 = _compose(lift, params.mlp1)
    h1 = check_finite(x @ w_h1, "mlp1 output")
    w_out = _compose(lift, params.dec)
    w_out[-1] += params.mlp2.bias @ params.dec.weight
    w_g = params.mlp2.weight @ params.dec.weight
    out = x @ w_out
    out += gelu(layer_norm(h1, params.ln_gamma, params.ln_beta)) @ w_g
    return out, (t1, heads, h1, w_h1, w_out, w_g)


def enhance(tb: TokenBatch, params: EnhancerParams, cfg: EnhancerConfig,
            rng: np.random.Generator | None = None, training: bool = False) -> TokenBatch:
    """Refine pillar tokens: both the attention and the MLP sit on residual paths.

    e = enc(t); a = e + attention(e); m = a + mlp2(gelu(ln(mlp1(a)))); out = dec(m),
    computed by ``_token_path`` through small composed weights.
    """
    out, _ = _token_path(tb.tokens, params, cfg, rng, training)
    return TokenBatch(tokens=check_finite(out, "enhance output"), coords=tb.coords)


def enhance_input_grad(tokens: np.ndarray, params: EnhancerParams,
                       cfg: EnhancerConfig, dy: np.ndarray) -> np.ndarray:
    """Input gradient of inference-mode ``enhance``, ``_token_path`` transposed:
    dX = dy W_out^T + dh1 W_h1^T, dh1 through GeLU and LayerNorm from
    dy W_g^T, and dX = [dZ, dT1] with dZ through ``_heads_backward``."""
    _, (t1, heads, h1, w_h1, w_out, w_g) = _token_path(tokens, params, cfg)
    _check_output_grad(dy, (len(t1), w_out.shape[1]), "enhance_input_grad")
    dh1 = gelu_backward(dy @ w_g.T, layer_norm(h1, params.ln_gamma, params.ln_beta))
    dx = dy @ w_out.T + layer_norm_backward(dh1, h1, params.ln_gamma) @ w_h1.T
    dz, dt1 = np.hsplit(dx, [dx.shape[1] - t1.shape[1]])
    return (dt1 + _heads_backward(t1, heads, dz, cfg))[:, :-1]


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
    """Write parameters as a JSON list of {name, shape, values} records; a
    non-finite value raises FloatingPointError before the file is opened."""
    text = json.dumps([
        {"name": name, "shape": list(a.shape),
         "values": check_finite(a, f"parameter {name!r}").reshape(-1).tolist()}
        for name, a in _named_arrays(params)
    ])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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
