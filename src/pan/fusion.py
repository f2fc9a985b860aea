"""BEV fusion: radar occupancy head and deformable cross-attention.

Two feature maps living on (possibly different-resolution) BEV grids are
merged per query cell: each attention head samples K fractional locations
per modality around the query's reference point, value-projects the
samples, mixes them with softmax weights, and projects the per-head sums
to the output. Reference points and offsets are expressed in normalized
[0, 1]^2 coordinates; each map's own scaling to pixels handles resolution
mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import LinearParams, init_linear, linear
from .tensor import DTYPE, Rng


@dataclass
class BevFeatureMap:
    """Dense BEV features [H, W, C] with their ground resolution."""

    data: np.ndarray
    meters_per_cell: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=DTYPE)
        if self.data.ndim != 3:
            raise ValueError("BEV feature map must be [H, W, C]")
        if self.meters_per_cell <= 0:
            raise ValueError("meters_per_cell must be positive")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass
class OccupancyMap:
    probs: np.ndarray  # [H, W] in [0, 1]
    threshold: float = 0.5

    @property
    def binary(self) -> np.ndarray:
        return self.probs >= self.threshold


def occupancy_head(feat: BevFeatureMap, params: LinearParams,
                   threshold: float = 0.5) -> OccupancyMap:
    """Per-cell 1x1 linear over channels, logistic squash, >= threshold."""
    if params.in_dim != feat.channels or params.out_dim != 1:
        raise ValueError("occupancy head expects a [C, 1] linear")
    logits = feat.data @ params.weight[:, 0] + params.bias[0]
    probs = 1.0 / (1.0 + np.exp(-logits))
    return OccupancyMap(probs=probs, threshold=threshold)


def bilinear_sample(feat: BevFeatureMap, p) -> np.ndarray:
    """Sample [C] features at normalized (x, y) in [0, 1]^2.

    (0, 0) and (1, 1) are the first and last cell centers; x runs along
    width. Out-of-range points clamp to the border.
    """
    x = min(max(float(p[0]), 0.0), 1.0) * (feat.width - 1)
    y = min(max(float(p[1]), 0.0), 1.0) * (feat.height - 1)
    j0, i0 = int(math.floor(x)), int(math.floor(y))
    j1, i1 = min(j0 + 1, feat.width - 1), min(i0 + 1, feat.height - 1)
    fx, fy = x - j0, y - i0
    top = (1 - fx) * feat.data[i0, j0] + fx * feat.data[i0, j1]
    bot = (1 - fx) * feat.data[i1, j0] + fx * feat.data[i1, j1]
    return (1 - fy) * top + fy * bot


@dataclass
class McdaParams:
    """Deformable cross-attention parameters.

    ``value_proj[h][m]`` maps modality m's channels to the head value dim;
    ``out_proj[h]`` maps that to the output channels. Offsets (in
    normalized units) and weight logits come from linear predictors over
    the query features; weights are softmax-normalized per (query, head) —
    jointly over the modality x point axis by default.
    """

    heads: int
    modalities: int
    points_per_head: int
    value_proj: list  # [heads][modalities] LinearParams, C_m -> value_dim
    out_proj: list    # [heads] LinearParams, value_dim -> out_channels
    offset_net: LinearParams  # Cq -> heads * modalities * K * 2
    weight_net: LinearParams  # Cq -> heads * modalities * K
    normalize_jointly: bool = True

    def __post_init__(self):
        hmk = self.heads * self.modalities * self.points_per_head
        if self.offset_net.out_dim != 2 * hmk:
            raise ValueError("offset_net output must be heads*modalities*K*2")
        if self.weight_net.out_dim != hmk:
            raise ValueError("weight_net output must be heads*modalities*K")


def init_mcda(query_channels: int, map_channels: list[int], out_channels: int,
              heads: int, points_per_head: int, value_dim: int, rng: Rng,
              normalize_jointly: bool = True) -> McdaParams:
    m = len(map_channels)
    return McdaParams(
        heads=heads,
        modalities=m,
        points_per_head=points_per_head,
        value_proj=[[init_linear(cm, value_dim, rng) for cm in map_channels]
                    for _ in range(heads)],
        out_proj=[init_linear(value_dim, out_channels, rng) for _ in range(heads)],
        offset_net=init_linear(query_channels, heads * m * points_per_head * 2, rng),
        weight_net=init_linear(query_channels, heads * m * points_per_head, rng),
        normalize_jointly=normalize_jointly,
    )


def _normalized_weights(logits: np.ndarray, params: McdaParams) -> np.ndarray:
    """Softmax over sampling weights: [Nq, H, M, K] -> same, rows summing to 1."""
    h, m, k = params.heads, params.modalities, params.points_per_head
    flat = logits.reshape(-1, m * k if params.normalize_jointly else k)
    flat = np.exp(flat - flat.max(axis=1, keepdims=True))
    flat /= flat.sum(axis=1, keepdims=True)
    return flat.reshape(logits.shape[0], h, m, k)


def mdca(query_feats: np.ndarray, ref_points: np.ndarray,
         maps: list[BevFeatureMap], params: McdaParams,
         capture: dict | None = None) -> np.ndarray:
    """Multi-modal deformable cross-attention.

    For every query q with reference point p_q, each head h samples every
    modality m at K offset locations, value-projects the bilinear samples,
    sums them under normalized attention weights, and the per-head results
    are output-projected and summed:

        out_q = sum_h W_h [ sum_m sum_k A_hmqk * W'_hm * x_m(phi_m(p_q + dp_hmqk)) ]
    """
    if len(maps) != params.modalities:
        raise ValueError(
            f"configured for {params.modalities} modalities, got {len(maps)} maps"
        )
    query_feats = np.asarray(query_feats, dtype=DTYPE)
    ref_points = np.asarray(ref_points, dtype=DTYPE)
    nq = query_feats.shape[0]
    h, m, k = params.heads, params.modalities, params.points_per_head
    offsets = linear(query_feats, params.offset_net).reshape(nq, h, m, k, 2)
    weights = _normalized_weights(linear(query_feats, params.weight_net), params)
    if capture is not None:
        capture["weights"] = weights
    out_dim = params.out_proj[0].out_dim
    out = np.zeros((nq, out_dim))
    for q in range(nq):
        for hd in range(h):
            head_acc = np.zeros(params.out_proj[hd].in_dim)
            for mod in range(m):
                for kk in range(k):
                    loc = ref_points[q] + offsets[q, hd, mod, kk]
                    sample = bilinear_sample(maps[mod], loc)
                    projected = linear(sample[None, :], params.value_proj[hd][mod])[0]
                    head_acc += weights[q, hd, mod, kk] * projected
            out[q] += linear(head_acc[None, :], params.out_proj[hd])[0]
    return out
