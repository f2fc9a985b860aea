"""Pillar-attention backbone: feature enhancement over non-empty pillars.

The pipeline is pillarize -> gather -> enhance -> scatter -> conv refine.
``enhance`` runs only on the packed tokens, so the attention and MLP cost
scales with the number of occupied pillars instead of the grid area;
``count_work`` makes that ratio explicit. Two-layer convolution afterwards
halves the spatial dims and triples the channel depth. It too follows the
occupied footprint: conv1 multiplies only the occupied pillars and conv2
only the pooled cells near them, while the constant background costs one
term per cell. The result is the exact dense "same" convolution.
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
    max_pool2d,
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
    # the literal reading puts dropout on the raw scores; flip for the
    # conventional post-softmax placement
    dropout_after_softmax: bool = False

    def __post_init__(self):
        if self.num_heads < 1:
            raise ValueError(f"num_heads must be >= 1: {self.num_heads}")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


@dataclass
class ConvStageParams:
    kernel: np.ndarray  # [k, k, Cin, Cout]
    bias: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    bn_stats: BatchNormStats


@dataclass
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


def _init_conv_stage(k: int, cin: int, cout: int, rng: Rng) -> ConvStageParams:
    bound = 1.0 / math.sqrt(k * k * cin)
    return ConvStageParams(
        kernel=rng.uniform(-bound, bound, size=(k, k, cin, cout)),
        bias=rng.uniform(-bound, bound, size=(cout,)),
        bn_gamma=np.ones(cout),
        bn_beta=np.zeros(cout),
        bn_stats=BatchNormStats.fresh(cout),
    )


def init_enhancer(channels: int, cfg: EnhancerConfig, rng: Rng) -> EnhancerParams:
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


@dataclass
class BackboneParams:
    pfn: PfnParams
    enhancer: EnhancerParams


def init_backbone(pillar_cfg: PillarConfig, enh_cfg: EnhancerConfig, rng: Rng) -> BackboneParams:
    return BackboneParams(
        pfn=init_pfn(pillar_cfg, rng),
        enhancer=init_enhancer(pillar_cfg.out_channels, enh_cfg, rng),
    )


# ---------------------------------------------------------------------------
# self-attention branch
# ---------------------------------------------------------------------------

def self_attention(x: np.ndarray, params: EnhancerParams, cfg: EnhancerConfig,
                   rng: Rng | None = None, training: bool = False,
                   capture: dict | None = None) -> np.ndarray:
    """Scaled dot-product self-attention over pillar tokens [P, f].

    Scores are Q K^T / sqrt(d_k) with d_k the per-head key dim. In training
    mode dropout hits the scores before the softmax (or after it when
    ``cfg.dropout_after_softmax``). P = 0 passes through as an empty tensor.
    When given, ``capture`` receives the post-softmax weights under
    ``"weights"`` as [heads, P, P].
    """
    x = np.asarray(x, dtype=DTYPE)
    p_count, f = x.shape
    if p_count == 0:
        return np.zeros((0, f))
    q = linear(x, params.q)
    k = linear(x, params.k)
    v = linear(x, params.v)
    dh = cfg.head_dim
    heads_out = []
    weights_all = []
    for hd in range(cfg.num_heads):
        sl = slice(hd * dh, (hd + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        if training and cfg.dropout_p > 0 and not cfg.dropout_after_softmax:
            scores = dropout(scores, cfg.dropout_p, rng, training)
        weights = softmax_rows(scores)
        if training and cfg.dropout_p > 0 and cfg.dropout_after_softmax:
            weights = dropout(weights, cfg.dropout_p, rng, training)
        weights_all.append(weights)
        heads_out.append(weights @ v[:, sl])
    out = np.concatenate(heads_out, axis=1)
    if capture is not None:
        capture["weights"] = np.stack(weights_all)
    if cfg.use_attn_out:
        out = linear(out, params.attn_out)
    return out


def self_attention_input_grad(x: np.ndarray, params: EnhancerParams,
                              cfg: EnhancerConfig, dy: np.ndarray) -> np.ndarray:
    """Input gradient of inference-mode ``self_attention``."""
    q = linear(x, params.q)
    k = linear(x, params.k)
    v = linear(x, params.v)
    dh = cfg.head_dim
    d_out = linear_backward(dy, params.attn_out) if cfg.use_attn_out else dy
    dq = np.zeros_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    for hd in range(cfg.num_heads):
        sl = slice(hd * dh, (hd + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        weights = softmax_rows(scores)
        d_head = d_out[:, sl]
        d_weights = d_head @ v[:, sl].T
        dv[:, sl] = weights.T @ d_head
        d_scores = softmax_rows_backward(d_weights, weights)
        dq[:, sl] = d_scores @ k[:, sl] / math.sqrt(dh)
        dk[:, sl] = d_scores.T @ q[:, sl] / math.sqrt(dh)
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
            rng: Rng | None = None, training: bool = False) -> TokenBatch:
    """Refine pillar tokens: both the attention and the MLP sit on residual paths.

    e = enc(t); a = e + attention(e); m = a + mlp(a); out = dec(m).
    """
    tokens = tb.tokens
    if len(tb) == 0:
        return TokenBatch(tokens=np.zeros((0, tokens.shape[1])), coords=tb.coords)
    e = linear(tokens, params.enc)
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

def _sparse_conv(x: np.ndarray, active: np.ndarray, bg: np.ndarray,
                 kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """'Same' convolution of [H, W, Cin] whose cells off ``active`` all equal ``bg``.

    By linearity conv(x) = conv(bg everywhere) + conv(x - bg). The first term
    is the bias plus bg @ kernel[a, b] over the taps that land inside the
    grid; tap validity is separable, so it costs O(H W k Cout). The second is
    k*k small GEMMs over the active cells, each added into a padded output.
    Active cells are unique, so no target repeats within one tap.
    """
    h, w, _ = x.shape
    kh, kw, _, cout = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv kernel dims must be odd")
    ph, pw = kh // 2, kw // 2
    # output (i, j) reads input (i + a - ph, j + b - pw) through tap (a, b)
    rows = np.arange(h)[:, None] + np.arange(kh) - ph
    cols = np.arange(w)[:, None] + np.arange(kw) - pw
    row_in = ((rows >= 0) & (rows < h)).astype(DTYPE)
    col_in = ((cols >= 0) & (cols < w)).astype(DTYPE)
    bg_cols = np.einsum("jb,c,abcd->ajd", col_in, bg, kernel, optimize=True)
    out = (row_in @ bg_cols.reshape(kh, w * cout)).reshape(h, w, cout)
    out += bias

    ii, jj = np.nonzero(active)
    diff = x[ii, jj] - bg
    wp = w + 2 * pw
    acc = np.zeros(((h + 2 * ph) * wp, cout), dtype=DTYPE)
    # input (i', j') reaches padded output (i' - a + 2ph, j' - b + 2pw)
    base = (ii + 2 * ph) * wp + jj + 2 * pw
    for a in range(kh):
        for b in range(kw):
            acc[base - a * wp - b] += diff @ kernel[a, b]
    out += acc.reshape(h + 2 * ph, wp, cout)[ph:ph + h, pw:pw + w]
    return check_finite(out, "conv output")


def conv_refine(grid: PillarGrid, params: EnhancerParams,
                training: bool = False) -> np.ndarray:
    """conv(C->C) -> batch norm -> relu -> max pool /2 -> conv(C->3C).

    Both convolutions are exact and sparse. conv1 multiplies only the
    occupied pillars, because unmasked cells are zero. Its output off the
    mask dilated by the kernel is the bias alone, so after batch norm, relu
    and pooling every pooled cell outside the pooled dilated mask holds one
    background vector, and conv2 multiplies only the cells inside it.
    """
    grid.validate()
    c1, c2 = params.conv1, params.conv2
    kh, kw = c1.kernel.shape[:2]
    x = _sparse_conv(grid.data, grid.mask, np.zeros(grid.channels), c1.kernel, c1.bias)
    x = batch_norm2d(x, c1.bn_stats, c1.bn_gamma, c1.bn_beta, training=training)
    x = relu(x)
    x = max_pool2d(x, window=2, stride=2)

    padded = np.pad(grid.mask, ((kh // 2, kh // 2), (kw // 2, kw // 2)))
    near = np.zeros_like(grid.mask)
    for a in range(kh):
        for b in range(kw):
            near |= padded[a:a + grid.height, b:b + grid.width]
    active = max_pool2d(near[..., None].astype(DTYPE), window=2, stride=2)[..., 0] > 0
    idle = np.flatnonzero(~active)
    bg = x.reshape(-1, x.shape[2])[idle[0]] if idle.size else np.zeros(x.shape[2])
    return _sparse_conv(x, active, bg, c2.kernel, c2.bias)


def pan_backbone(pc: PointCloud, params: BackboneParams, pillar_cfg: PillarConfig,
                 enh_cfg: EnhancerConfig, rng: Rng | None = None,
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
    e = params.enhancer
    params.pfn.lin = LinearParams(arrays["pfn.lin.weight"], arrays["pfn.lin.bias"])
    params.pfn.bn_gamma = arrays["pfn.bn.gamma"]
    params.pfn.bn_beta = arrays["pfn.bn.beta"]
    params.pfn.bn_stats = BatchNormStats(arrays["pfn.bn.mean"], arrays["pfn.bn.var"])
    for name in ("enc", "q", "k", "v", "attn_out", "mlp1", "mlp2", "dec"):
        setattr(e, name, LinearParams(arrays[f"{name}.weight"], arrays[f"{name}.bias"]))
    e.ln_gamma = arrays["ln.gamma"]
    e.ln_beta = arrays["ln.beta"]
    for name in ("conv1", "conv2"):
        setattr(e, name, ConvStageParams(
            kernel=arrays[f"{name}.kernel"],
            bias=arrays[f"{name}.bias"],
            bn_gamma=arrays[f"{name}.bn.gamma"],
            bn_beta=arrays[f"{name}.bn.beta"],
            bn_stats=BatchNormStats(arrays[f"{name}.bn.mean"], arrays[f"{name}.bn.var"]),
        ))
    return params
