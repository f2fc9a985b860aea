"""BEV fusion: radar occupancy head and deformable cross-attention.

Two feature maps living on (possibly different-resolution) BEV grids are
merged per query cell: each attention head samples K fractional locations
per modality around the query's reference point, mixes the bilinear
samples with softmax weights, value-projects the mix, and projects the
per-head sums to the output. Reference points and offsets are expressed
in normalized [0, 1]^2 coordinates; each map's own scaling to pixels
handles resolution mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import LinearParams, init_linear, linear, softmax_rows
from .tensor import DTYPE, check_finite


@dataclass(eq=False)
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


@dataclass(eq=False)
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


def _weighted_samples(feat: BevFeatureMap, pts: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """sum_s weights[r, s] * bilinear(feat, pts[r, s]): [R, S, 2], [R, S] -> [R, C].

    Coordinates are normalized (x, y); (0, 0) and (1, 1) are the first and
    last cell centers and x runs along width. Out-of-range points clamp to
    the border; NaN raises.
    """
    pts = check_finite(np.clip(pts, 0.0, 1.0), "sample locations")
    h, w = feat.height, feat.width
    x, y = pts[..., 0] * (w - 1), pts[..., 1] * (h - 1)
    j0, i0 = np.floor(x).astype(np.intp), np.floor(y).astype(np.intp)
    j1, i1 = np.minimum(j0 + 1, w - 1), np.minimum(i0 + 1, h - 1)
    fx, fy = x - j0, y - i0
    corners = ((i0 * w + j0, (1 - fx) * (1 - fy)), (i0 * w + j1, fx * (1 - fy)),
               (i1 * w + j0, (1 - fx) * fy), (i1 * w + j1, fx * fy))
    flat = feat.data.reshape(-1, feat.channels)
    out = np.zeros((pts.shape[0], feat.channels))
    for s in range(pts.shape[1]):
        for cell, coef in corners:
            out += (weights[:, s] * coef[:, s])[:, None] * flat[cell[:, s]]
    return out


def bilinear_sample(feat: BevFeatureMap, p) -> np.ndarray:
    """Sample [C] features at normalized (x, y); see ``_weighted_samples``."""
    return _weighted_samples(feat, np.asarray(p, dtype=DTYPE).reshape(1, 1, 2),
                             np.ones((1, 1)))[0]


@dataclass(eq=False)
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
              heads: int, points_per_head: int, value_dim: int, rng: np.random.Generator,
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
    flat = softmax_rows(logits.reshape(-1, m * k if params.normalize_jointly else k))
    return flat.reshape(logits.shape[0], h, m, k)


def mdca(query_feats: np.ndarray, ref_points: np.ndarray,
         maps: list[BevFeatureMap], params: McdaParams) -> np.ndarray:
    """Multi-modal deformable cross-attention.

    For every query q with reference point p_q, each head h samples every
    modality m at K offset locations, value-projects the bilinear samples,
    sums them under normalized attention weights, and the per-head results
    are output-projected and summed:

        out_q = sum_h W_h [ sum_m sum_k A_hmqk * W'_hm * x_m(phi_m(p_q + dp_hmqk)) ]

    The value projection is affine, so each (head, modality) first sums
    the samples of all queries under their weights and then projects the
    [Nq, C_m] sum once; memory stays O(Nq * C) per head.
    """
    if len(maps) != params.modalities:
        raise ValueError(
            f"configured for {params.modalities} modalities, got {len(maps)} maps"
        )
    query_feats = np.asarray(query_feats, dtype=DTYPE)
    ref_points = np.asarray(ref_points, dtype=DTYPE)
    nq = query_feats.shape[0]
    if ref_points.shape != (nq, 2):
        raise ValueError(
            f"ref_points must be [{nq}, 2], one (x, y) per query, got {list(ref_points.shape)}"
        )
    for mod, feat in enumerate(maps):
        for row in params.value_proj:
            if row[mod].in_dim != feat.channels:
                raise ValueError(f"map {mod} has {feat.channels} channels, "
                                 f"its value projection expects {row[mod].in_dim}")
    h, m, k = params.heads, params.modalities, params.points_per_head
    offsets = linear(query_feats, params.offset_net).reshape(nq, h, m, k, 2)
    weights = _normalized_weights(linear(query_feats, params.weight_net), params)
    out = np.zeros((nq, params.out_proj[0].out_dim))
    for hd in range(h):
        head_acc = np.zeros((nq, params.out_proj[hd].in_dim))
        for mod in range(m):
            vp, w = params.value_proj[hd][mod], weights[:, hd, mod]
            summed = _weighted_samples(maps[mod], ref_points[:, None] + offsets[:, hd, mod], w)
            head_acc += summed @ vp.weight + w.sum(axis=1)[:, None] * vp.bias
        out += linear(head_acc, params.out_proj[hd])
    return check_finite(out, "mdca output")
