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
from .tensor import DTYPE, POSITIVE, check_finite, check_settings


@dataclass(eq=False)
class BevFeatureMap:
    """Dense BEV features [H, W, C] with their ground resolution; a map with
    no cell, or a NaN or infinite cell, raises when it is built."""

    data: np.ndarray
    meters_per_cell: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=DTYPE)
        if self.data.ndim != 3:
            raise ValueError("BEV feature map must be [H, W, C]")
        if 0 in self.data.shape[:2]:
            raise ValueError(f"BEV feature map must have at least one cell, "
                             f"got shape {list(self.data.shape)}")
        check_finite(self.data, "BEV feature map")
        check_settings(self, meters_per_cell=POSITIVE)

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

    @property
    def binary(self) -> np.ndarray:
        return self.probs >= 0.5


def occupancy_head(feat: BevFeatureMap, params: LinearParams) -> OccupancyMap:
    """Per-cell 1x1 linear over channels, logistic squash; occupied at >= 0.5.

    A NaN or infinite logit raises (a finite map can still overflow); below
    about -709 exp overflows to inf and the probability is 0.0.
    """
    if params.in_dim != feat.channels or params.out_dim != 1:
        raise ValueError("occupancy head expects a [C, 1] linear")
    logits = check_finite(feat.data @ params.weight[:, 0] + params.bias[0], "occupancy logits")
    with np.errstate(over="ignore"):
        probs = 1.0 / (1.0 + np.exp(-logits))
    return OccupancyMap(probs=probs)


def _corner_geometry(feat: BevFeatureMap, pts: np.ndarray,
                     weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear corners of weighted samples: [..., S, 2], [..., S] -> cells, coefs [..., 4S].

    Coordinates are normalized (x, y); (0, 0) and (1, 1) are the first and
    last cell centers and x runs along width. Out-of-range points clamp to
    the border; NaN raises. ``cells`` index ``feat.data.reshape(-1, C)``
    and ``coefs`` are each corner's bilinear factor times its sample's weight.
    """
    pts = check_finite(np.clip(pts, 0.0, 1.0), "sample locations")
    h, w = feat.height, feat.width
    x, y = pts[..., 0] * (w - 1), pts[..., 1] * (h - 1)
    j0, i0 = np.floor(x).astype(np.intp), np.floor(y).astype(np.intp)
    j1, i1 = np.minimum(j0 + 1, w - 1), np.minimum(i0 + 1, h - 1)
    fx, fy = x - j0, y - i0
    cells = np.concatenate((i0 * w + j0, i0 * w + j1, i1 * w + j0, i1 * w + j1), axis=-1)
    coefs = np.concatenate((weights * ((1 - fx) * (1 - fy)), weights * (fx * (1 - fy)),
                            weights * ((1 - fx) * fy), weights * (fx * fy)), axis=-1)
    return cells, coefs


def _contract(flat: np.ndarray, cells: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_j coefs[r, j] * flat[cells[r, j]]: [R, 4S] -> [R, C].

    One gather into [R, 4S, C] (``take`` beat fancy indexing by ~15%) and
    one batched row-times-matrix product; every row is contracted alone,
    so a row's bits do not depend on R.
    """
    return (coefs[:, None, :] @ flat.take(cells, axis=0))[:, 0]


def bilinear_sample(feat: BevFeatureMap, p) -> np.ndarray:
    """Sample [C] features at normalized (x, y): one point of weight 1 through
    the ``_corner_geometry`` and ``_contract`` that ``mdca`` runs."""
    cells, coefs = _corner_geometry(feat, np.asarray(p, dtype=DTYPE).reshape(1, 1, 2),
                                    np.ones((1, 1)))
    return _contract(feat.data.reshape(-1, feat.channels), cells, coefs)[0]


@dataclass(eq=False)
class McdaParams:
    """Deformable cross-attention parameters.

    ``value_proj[h][m]`` maps modality m's channels to the head value dim;
    ``out_proj[h]`` maps that to the output channels. Offsets (in
    normalized units) and weight logits come from linear predictors over
    the query features; weights are softmax-normalized per (query, head),
    jointly over the modality x point axis.
    """

    heads: int
    modalities: int
    points_per_head: int
    value_proj: list  # [heads][modalities] LinearParams, C_m -> value_dim
    out_proj: list    # [heads] LinearParams, value_dim -> out_channels
    offset_net: LinearParams  # Cq -> heads * modalities * K * 2
    weight_net: LinearParams  # Cq -> heads * modalities * K
    normalize_jointly = True  # a constant, read by perfbench: one softmax over modality x point

    def __post_init__(self):
        check_settings(self, heads=1, modalities=1, points_per_head=1)
        hmk = self.heads * self.modalities * self.points_per_head
        if self.offset_net.out_dim != 2 * hmk:
            raise ValueError("offset_net output must be heads*modalities*K*2")
        if self.weight_net.out_dim != hmk:
            raise ValueError("weight_net output must be heads*modalities*K")
        if (len(self.value_proj) != self.heads
                or any(len(row) != self.modalities for row in self.value_proj)):
            raise ValueError("value_proj must be heads rows of modalities entries")
        if len(self.out_proj) != self.heads:
            raise ValueError("out_proj must have heads entries")
        if len({out.out_dim for out in self.out_proj}) > 1:
            raise ValueError("out_proj outputs must all have one width")
        for hd, (row, out) in enumerate(zip(self.value_proj, self.out_proj)):
            for mod, vp in enumerate(row):
                if vp.out_dim != out.in_dim:
                    raise ValueError(f"value_proj[{hd}][{mod}] output must be "
                                     f"out_proj[{hd}] input {out.in_dim}, got {vp.out_dim}")


def init_mcda(query_channels: int, map_channels: list[int], out_channels: int,
              heads: int, points_per_head: int, value_dim: int,
              rng: np.random.Generator) -> McdaParams:
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
    )


def _normalized_weights(logits: np.ndarray, params: McdaParams) -> np.ndarray:
    """Softmax over each (query, head)'s M*K sampling logits: [Nq, H*M*K] -> [Nq, H, M, K]."""
    h, m, k = params.heads, params.modalities, params.points_per_head
    return softmax_rows(logits.reshape(-1, m * k)).reshape(logits.shape[0], h, m, k)


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
    [Nq, C_m] sum once. The bilinear corner geometry of a modality is
    computed once for all heads; each (head, modality) then gathers its
    4K corners per query in one call and contracts them with one batched
    product, so memory stays O(Nq * 4K * C) per step.

    The sample locations are checked, as offsets come from the query
    features; so is the output, since finite inputs can still overflow.
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
    corners = [_corner_geometry(feat, ref_points[:, None, None] + offsets[:, :, mod],
                                weights[:, :, mod]) for mod, feat in enumerate(maps)]
    flats = [feat.data.reshape(-1, feat.channels) for feat in maps]
    out = np.zeros((nq, params.out_proj[0].out_dim))
    for hd in range(h):
        head_acc = np.zeros((nq, params.out_proj[hd].in_dim))
        for mod in range(m):
            vp, (cells, coefs) = params.value_proj[hd][mod], corners[mod]
            summed = _contract(flats[mod], cells[:, hd], coefs[:, hd])
            head_acc += summed @ vp.weight + weights[:, hd, mod].sum(axis=1)[:, None] * vp.bias
        out += linear(head_acc, params.out_proj[hd])
    return check_finite(out, "mdca output")
