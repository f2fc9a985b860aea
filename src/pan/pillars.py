"""Sparse pillarization of radar point clouds.

Converts a multi-sweep cloud into a sparse BEV pseudo-image: points fall
into vertical pillars over a 2-D grid, each pillar's points are encoded by
a small per-point net and max-aggregated, and the result is the boolean
[H, W] mask of non-empty pillars plus their [P, C] feature rows, in
row-major cell order; no dense H x W x C buffer is built. ``gather`` /
``scatter`` move between that grid and the packed token view that the
attention stages operate on.

Elevation is deliberately ignored: z is carried on points but never enters
pillar features (automotive radar gives no reliable elevation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .layers import BatchNormStats, LinearParams, batch_norm2d, init_linear, linear, relu
from .tensor import DTYPE


class RadarPoint(NamedTuple):
    """One radar return in the ego frame, velocity ego-motion compensated: a
    construction record that becomes one ``PointCloud`` row."""

    x: float
    y: float
    z: float
    vx: float
    vy: float
    rcs: float
    sweep_offset: float = 0.0  # seconds before the current sweep; 0 = current
    sweep_index: int = 0


# the columns of ``PointCloud.points``, in ``RadarPoint`` field order
X, Y, Z, VX, VY, RCS, SWEEP_OFFSET, SWEEP_INDEX = range(8)

# the per-point feature width that ``pillarize`` builds
RAW_CHANNELS = 10


@dataclass(eq=False)
class PointCloud:
    """A frame's returns as float64 [N, 8] rows, from an array or from a list
    of ``RadarPoint`` or 8-tuples; an empty sequence gives [0, 8]."""

    frame_id: str
    points: np.ndarray = ()

    def __post_init__(self):
        points = np.asarray(self.points, dtype=DTYPE)
        if points.shape == (0,):
            points = points.reshape(0, 8)
        if points.ndim != 2 or points.shape[1] != 8:
            raise ValueError(f"points must be an [N, 8] array, got shape {points.shape}")
        self.points = points

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class PillarConfig:
    """BEV grid geometry and pillar encoder dims.

    Defaults: a 128 x 128 grid covering +-50 m (pillar_size 0.78125 m).
    """

    x_min: float = -50.0
    x_max: float = 50.0
    y_min: float = -50.0
    y_max: float = 50.0
    pillar_size: float = 0.78125
    max_points_per_pillar: int = 20
    out_channels: int = 32

    def __post_init__(self):
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("empty BEV range")
        if not self.pillar_size > 0:
            raise ValueError(f"pillar_size must be positive: {self.pillar_size}")
        for span, name in ((self.x_max - self.x_min, "x"), (self.y_max - self.y_min, "y")):
            cells = span / self.pillar_size
            if abs(cells - round(cells)) > 1e-9:
                raise ValueError(f"{name} range is not an integer number of pillars")
        if self.max_points_per_pillar < 1:
            raise ValueError("max_points_per_pillar must be >= 1")

    @property
    def width(self) -> int:
        return round((self.x_max - self.x_min) / self.pillar_size)

    @property
    def height(self) -> int:
        return round((self.y_max - self.y_min) / self.pillar_size)


@dataclass(eq=False)
class PillarGrid:
    """The non-empty-pillar mask [H, W] and their feature rows [P, C], one row
    per masked cell in row-major order; every other cell is zero."""

    mask: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.features = np.asarray(self.features, dtype=DTYPE)
        if self.mask.ndim != 2 or self.features.ndim != 2:
            raise ValueError("mask must be [H, W] and features [P, C]")
        if self.features.shape[0] != np.count_nonzero(self.mask):
            raise ValueError(f"features has {self.features.shape[0]} rows for "
                             f"{np.count_nonzero(self.mask)} masked cells")

    @property
    def data(self) -> np.ndarray:
        """The dense [H, W, C] pseudo-image, a new array on each access."""
        out = np.zeros((*self.mask.shape, self.channels))
        out[self.mask] = self.features
        return out

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def pillar_count(self) -> int:
        return self.features.shape[0]


@dataclass(eq=False)
class TokenBatch:
    """Packed non-empty pillars: tokens [P, C] with their (i, j) grid coords."""

    tokens: np.ndarray
    coords: np.ndarray  # [P, 2] int, row-major (i, j) order

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=DTYPE)
        self.coords = np.asarray(self.coords, dtype=np.int64).reshape(-1, 2)
        if self.tokens.shape[0] != self.coords.shape[0]:
            raise ValueError("tokens and coords disagree on pillar count")

    def __len__(self) -> int:
        return self.tokens.shape[0]


@dataclass(eq=False)
class PfnParams:
    """Per-point encoder: linear -> batch norm -> relu into C channels."""

    lin: LinearParams
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    bn_stats: BatchNormStats


def init_pfn(cfg: PillarConfig, rng: np.random.Generator) -> PfnParams:
    c = cfg.out_channels
    return PfnParams(
        lin=init_linear(RAW_CHANNELS, c, rng),
        bn_gamma=np.ones(c),
        bn_beta=np.zeros(c),
        bn_stats=BatchNormStats.fresh(c),
    )


def bin_points(pc: PointCloud, cfg: PillarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Bin a cloud into pillars: the one rule that decides each point's cell.

    Returns the in-range rows of ``pc.points`` and the row-major cell index
    i * W + j of each, with j = floor((x - x_min) / pillar_size) and i
    likewise from y.
    """
    pts = pc.points
    if not np.all(np.isfinite(pts)):
        raise FloatingPointError("non-finite radar point fields")
    j = np.floor((pts[:, X] - cfg.x_min) / cfg.pillar_size).astype(np.int64)
    i = np.floor((pts[:, Y] - cfg.y_min) / cfg.pillar_size).astype(np.int64)
    in_range = (i >= 0) & (i < cfg.height) & (j >= 0) & (j < cfg.width)
    return pts[in_range], (i * cfg.width + j)[in_range]


def pillarize(pc: PointCloud, cfg: PillarConfig, pfn: PfnParams,
              training: bool = False) -> PillarGrid:
    """Encode a point cloud into the sparse pseudo-image.

    Out-of-range points are dropped. Each kept point is augmented with its
    offsets to the mean of its pillar's kept points (x_c, y_c) and to the
    pillar center (x_p, y_p), giving the 10-channel raw feature
    (x, y, vx, vy, rcs, sweep_offset, x_c, y_c, x_p, y_p). Points run
    through linear -> batch norm -> relu, then each pillar takes the
    elementwise max over its points. Pillars holding more than
    ``max_points_per_pillar`` points keep the ones closest to the pillar
    center (ties by (x, y, sweep_index)), which makes the result a pure
    function of the point set regardless of input order.
    """
    w = cfg.width
    mask = np.zeros((cfg.height, w), dtype=bool)
    pts, flat = bin_points(pc, cfg)
    if flat.size == 0:
        return PillarGrid(mask, np.zeros((0, cfg.out_channels)))

    i, j = np.divmod(flat, w)
    center_x = cfg.x_min + (j + 0.5) * cfg.pillar_size
    center_y = cfg.y_min + (i + 0.5) * cfg.pillar_size
    dist2 = (pts[:, X] - center_x) ** 2 + (pts[:, Y] - center_y) ** 2
    # row-major pillar order, then the deterministic truncation order
    order = np.lexsort((pts[:, SWEEP_INDEX], pts[:, Y], pts[:, X], dist2, flat))
    pts, flat = pts[order], flat[order]
    center_x, center_y = center_x[order], center_y[order]

    uniq, starts, counts = np.unique(flat, return_index=True, return_counts=True)
    pos_in_pillar = np.arange(flat.size) - np.repeat(starts, counts)
    keep = pos_in_pillar < cfg.max_points_per_pillar
    pts, flat = pts[keep], flat[keep]
    center_x, center_y = center_x[keep], center_y[keep]
    kept_counts = np.minimum(counts, cfg.max_points_per_pillar)
    kept_starts = np.concatenate(([0], np.cumsum(kept_counts)[:-1]))

    mean_x = np.add.reduceat(pts[:, X], kept_starts) / kept_counts
    mean_y = np.add.reduceat(pts[:, Y], kept_starts) / kept_counts
    mean_x = np.repeat(mean_x, kept_counts)
    mean_y = np.repeat(mean_y, kept_counts)

    feats = np.column_stack([
        pts[:, [X, Y, VX, VY, RCS, SWEEP_OFFSET]],
        pts[:, X] - mean_x, pts[:, Y] - mean_y,
        pts[:, X] - center_x, pts[:, Y] - center_y,
    ])
    enc = linear(feats, pfn.lin)
    enc = batch_norm2d(enc, pfn.bn_stats, pfn.bn_gamma, pfn.bn_beta, training=training)
    enc = relu(enc)
    pillar_feats = np.maximum.reduceat(enc, kept_starts, axis=0)

    mask.reshape(-1)[uniq] = True
    return PillarGrid(mask, pillar_feats)


def gather(grid: PillarGrid) -> TokenBatch:
    """Pack the non-empty pillars into [P, C] tokens, row-major by (i, j)."""
    return TokenBatch(tokens=grid.features.copy(), coords=np.argwhere(grid.mask))


def scatter(tb: TokenBatch, height: int, width: int) -> PillarGrid:
    """Inverse of ``gather``: the grid whose masked cells hold the tokens."""
    mask = np.zeros((height, width), dtype=bool)
    features = tb.tokens
    if len(tb):
        ii, jj = tb.coords[:, 0], tb.coords[:, 1]
        if ii.min() < 0 or jj.min() < 0 or ii.max() >= height or jj.max() >= width:
            raise IndexError("scatter: coordinate outside the grid")
        flat = ii * width + jj
        mask.reshape(-1)[flat] = True
        if np.count_nonzero(mask) != flat.size:
            raise IndexError("scatter: duplicate coordinates")
        features = features[np.argsort(flat, kind="stable")]
    return PillarGrid(mask, features)
