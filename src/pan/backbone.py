"""Pillar-attention backbone: feature enhancement over non-empty pillars.

The pipeline is pillarize -> gather -> enhance -> scatter -> conv refine.
``enhance`` runs only on the packed tokens, so the attention and MLP cost
scales with the number of occupied pillars P instead of the grid area;
``count_work`` makes that ratio explicit. Attention takes its query rows in
blocks of about 1 MiB of scores, so memory is O(block * P), not P x P.
Two-layer convolution afterwards halves the spatial dims and triples the
channel depth. It too follows the occupied footprint: conv1, batch norm and
relu see only the cells within the kernel of an occupied pillar plus one
background row, pooling only the pooled cells with such a child, and conv2
multiplies only those pooled cells, while the constant background costs one
term per output cell. The result equals the dense composition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .layers import (
    BatchNormStats,
    LinearParams,
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
    softmax_rows,
    softmax_rows_backward,
)
from .pillars import (PfnParams, PillarConfig, PillarGrid, PointCloud, TokenBatch, bin_points,
                      gather, init_pfn, pillarize, scatter)
from .tensor import DTYPE, Rng, check_finite


@dataclass
class EnhancerConfig:
    embed_dim: int = 128
    num_heads: int = 1
    dropout_p: float = 0.1
    conv_enabled: bool = True
    conv_kernel: int = 3
    use_attn_out: bool = True

    def __post_init__(self):
        if self.num_heads < 1:
            raise ValueError(f"num_heads must be >= 1: {self.num_heads}")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        # even kernels are rejected by conv_refine, which needs odd ones
        if self.conv_kernel < 1:
            raise ValueError(f"conv_kernel must be >= 1: {self.conv_kernel}")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


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
_ATTN_BLOCK_BYTES = 1 << 20
_ATTN_MIN_ROWS = 64


def _row_blocks(p_count: int) -> list[slice]:
    rows = max(_ATTN_MIN_ROWS, _ATTN_BLOCK_BYTES // (8 * p_count))
    return [slice(lo, min(lo + rows, p_count)) for lo in range(0, p_count, rows)]


def _attention_weights(q: np.ndarray, k: np.ndarray, cfg: EnhancerConfig,
                       rng: np.random.Generator | None = None, training: bool = False):
    """Yield (head slice, row block, softmax weights) per head and query-row block.

    Scores are Q K^T / sqrt(d_k) with d_k the per-head key dim. In training
    mode dropout hits the raw scores, before the softmax, as the paper reads
    literally; the draws run head by head, row by row, as for one [P, P]
    draw per head.
    """
    dh = cfg.head_dim
    scale = math.sqrt(dh)
    for hd in range(cfg.num_heads):
        sl = slice(hd * dh, (hd + 1) * dh)
        kt = k[:, sl].T
        for blk in _row_blocks(len(q)):
            scores = q[blk, sl] @ kt
            scores /= scale
            scores = dropout(scores, cfg.dropout_p, rng, training)
            yield sl, blk, softmax_rows(scores)


def self_attention(x: np.ndarray, params: EnhancerParams, cfg: EnhancerConfig,
                   rng: np.random.Generator | None = None,
                   training: bool = False) -> np.ndarray:
    """Scaled dot-product self-attention over pillar tokens [P, f].

    The weights come from ``_attention_weights``. Query rows go in blocks of
    about 1 MiB of scores (at least 64 rows), so memory is O(block * P).
    P = 0 passes through as an empty tensor.
    """
    x = np.asarray(x, dtype=DTYPE)
    p_count, f = x.shape
    if p_count == 0:
        return np.zeros((0, f))
    q = linear(x, params.q)
    k = linear(x, params.k)
    v = linear(x, params.v)
    out = np.empty((p_count, f))
    for sl, blk, weights in _attention_weights(q, k, cfg, rng, training):
        out[blk, sl] = weights @ v[:, sl]
    if cfg.use_attn_out:
        out = linear(out, params.attn_out)
    return out


def self_attention_input_grad(x: np.ndarray, params: EnhancerParams,
                              cfg: EnhancerConfig, dy: np.ndarray) -> np.ndarray:
    """Input gradient of inference-mode ``self_attention``, in the same row blocks."""
    q = linear(x, params.q)
    k = linear(x, params.k)
    v = linear(x, params.v)
    scale = math.sqrt(cfg.head_dim)
    d_out = linear_backward(dy, params.attn_out) if cfg.use_attn_out else dy
    dq = np.zeros_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    for sl, blk, weights in _attention_weights(q, k, cfg):
        d_head = d_out[blk, sl]
        dv[:, sl] += weights.T @ d_head
        d_scores = softmax_rows_backward(d_head @ v[:, sl].T, weights)
        dq[blk, sl] = d_scores @ k[:, sl] / scale
        dk[:, sl] += d_scores.T @ q[blk, sl] / scale
    return (linear_backward(dq, params.q)
            + linear_backward(dk, params.k)
            + linear_backward(dv, params.v))


# ---------------------------------------------------------------------------
# token enhancement (encode -> attention -> MLP -> decode)
# ---------------------------------------------------------------------------

def _mlp(a: np.ndarray, params: EnhancerParams) -> np.ndarray:
    h = linear(a, params.mlp1)
    h = layer_norm(h, params.ln_gamma, params.ln_beta)
    h = gelu(h)
    return linear(h, params.mlp2)


def enhance(tb: TokenBatch, params: EnhancerParams, cfg: EnhancerConfig,
            rng: np.random.Generator | None = None, training: bool = False) -> TokenBatch:
    """Refine pillar tokens: both the attention and the MLP sit on residual paths.

    e = enc(t); a = e + attention(e); m = a + mlp(a); out = dec(m).
    """
    e = linear(tb.tokens, params.enc)
    a = e + self_attention(e, params, cfg, rng=rng, training=training)
    m = a + _mlp(a, params)
    return TokenBatch(tokens=linear(m, params.dec), coords=tb.coords)


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

def _half_widths(kernel: np.ndarray) -> tuple[int, int]:
    kh, kw = kernel.shape[:2]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv kernel dims must be odd")
    return kh // 2, kw // 2


def _tap_scatter(values: np.ndarray, mask: np.ndarray,
                 kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bias-free 'same' convolution of the grid that holds ``values`` on
    ``mask`` (in row-major order) and zero elsewhere, at the cells its taps reach.

    Returns ``(cells, acc)``: the ascending flat indices of the cells within
    the kernel of a masked cell, and one output row per cell plus a spare
    last row, which takes the taps that land off the grid and is left for
    the caller to overwrite. Every other cell's output is zero. The cost is
    k*k small GEMMs over the masked cells; the cells are unique, so no row
    but the spare repeats within one tap.
    """
    kh, kw, _, cout = kernel.shape
    ph, pw = _half_widths(kernel)
    h, w = mask.shape
    wp = w + 2 * pw
    # output (i, j) reads input (i + a - ph, j + b - pw) through tap (a, b), so
    # input (i', j') reaches output (i' - a + ph, j' - b + pw), padded by (ph, pw)
    ii, jj = np.nonzero(mask)
    base = (ii + 2 * ph) * wp + jj + 2 * pw
    taps = [base - a * wp - b for a in range(kh) for b in range(kw)]
    reach = np.zeros((h + 2 * ph) * wp, dtype=bool)
    for t in taps:
        reach[t] = True
    cells = np.flatnonzero(reach.reshape(-1, wp)[ph:ph + h, pw:pw + w])
    rows = np.full(reach.size, cells.size, dtype=np.intp)
    rows[(cells // w + ph) * wp + cells % w + pw] = np.arange(cells.size)
    acc = np.zeros((cells.size + 1, cout), dtype=DTYPE)
    for t, tap in zip(taps, kernel.reshape(kh * kw, -1, cout)):
        acc[rows[t]] += values @ tap
    return cells, acc


def _sparse_conv(active: np.ndarray, values: np.ndarray, bg: np.ndarray,
                 kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """'Same' convolution of the [H, W, Cin] grid that holds ``values`` on
    ``active`` (in row-major order) and ``bg`` everywhere else.

    By linearity conv(x) = conv(bg everywhere) + conv(x - bg). The first term
    is the bias plus bg @ kernel[a, b] over the taps that land inside the
    grid; tap validity is separable, so it costs O(H W k Cout). The second is
    ``_tap_scatter`` of values - bg, added at the cells its taps reach.
    """
    h, w = active.shape
    kh, kw, _, cout = kernel.shape
    ph, pw = _half_widths(kernel)
    rows = np.arange(h)[:, None] + np.arange(kh) - ph
    cols = np.arange(w)[:, None] + np.arange(kw) - pw
    row_in = ((rows >= 0) & (rows < h)).astype(DTYPE)
    col_in = ((cols >= 0) & (cols < w)).astype(DTYPE)
    bg_cols = np.einsum("jb,c,abcd->ajd", col_in, bg, kernel, optimize=True)
    out = (row_in @ bg_cols.reshape(kh, w * cout)).reshape(h, w, cout)
    out += bias
    cells, acc = _tap_scatter(values - bg, active, kernel)
    out.reshape(-1, cout)[cells] += acc[:-1]
    return check_finite(out, "conv output")


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
    f = cfg.embed_dim
    macs = 2 * p * channels * f          # encoder + decoder
    macs += 3 * p * f * f                # q, k, v projections
    if cfg.use_attn_out:
        macs += p * f * f
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
    """Read parameters written by ``save_params`` and validate every shape."""
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    arrays = {}
    for rec in records:
        arrays[rec["name"]] = np.array(rec["values"], dtype=DTYPE).reshape(rec["shape"])
    params = init_backbone(pillar_cfg, enh_cfg, Rng(0))
    named = _named_arrays(params)
    unknown = sorted(set(arrays) - {name for name, _ in named})
    if unknown:
        raise ValueError(f"parameter file has unknown names: {', '.join(map(repr, unknown))}")
    for name, current in named:
        if name not in arrays:
            raise ValueError(f"parameter file missing {name!r}")
        if arrays[name].shape != current.shape:
            raise ValueError(
                f"parameter {name!r} has shape {arrays[name].shape}, expected {current.shape}"
            )
        current[...] = arrays[name]
    return params
