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

import math
from dataclasses import dataclass

import numpy as np

from .layers import BatchNormStats, LinearParams, batch_norm2d, init_linear, linear, relu
from .tensor import DTYPE, check_number_fields, check_numbers, field_error, require


# the columns of ``PointCloud.points``: a return in the ego frame, velocity
# ego-motion compensated, and its sweep's age in seconds and index
X, Y, Z, VX, VY, RCS, SWEEP_OFFSET, SWEEP_INDEX = range(8)

# the points.jsonl keys of those columns, in column order
POINT_KEYS = ("x", "y", "z", "vx", "vy", "rcs", "dt", "sweep")

# the per-point feature width that ``pillarize`` builds
RAW_CHANNELS = 10

# the most H * W cells a grid may have: 2048 x 2048. At the default 32
# channels the backbone's dense float64 output is then 768 MiB
# ([H/2, W/2, 3C]), or 1 GiB ([H, W, C]) with the conv stage off.
MAX_GRID_CELLS = 2048 * 2048


@dataclass(eq=False)
class PointCloud:
    """A frame's returns as float64 [N, 8] rows, from an array or from a list
    of 8-tuples; an empty sequence gives [0, 8].
    ``frame_id`` is checked under its points.jsonl key ``frame``. The rows
    are checked once, when the cloud is built: the first with a non-finite
    value or a fractional sweep raises the points reader's error for it."""

    frame_id: str
    points: np.ndarray = ()

    def __post_init__(self):
        require(isinstance(self.frame_id, str), "frame", "a string", self.frame_id)
        points = np.asarray(self.points, dtype=DTYPE)
        if points.shape == (0,):
            points = points.reshape(0, 8)
        if points.ndim != 2 or points.shape[1] != 8:
            raise ValueError(f"points must be an [N, 8] array, got shape {points.shape}")
        sweep = points[:, SWEEP_INDEX]
        bad = ~np.isfinite(points).all(axis=1) | (np.floor(sweep) != sweep)
        if bad.any():
            # sweep is the last key, so a whole float there is reached only
            # when it is the bad value
            check_number_fields(dict(zip(POINT_KEYS, points[bad.argmax()].tolist())),
                                integers=("sweep",))
        self.points = points

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class PillarConfig:
    """BEV grid geometry and pillar encoder dims.

    Defaults: a 128 x 128 grid covering +-50 m (pillar_size 0.78125 m).
    ``out_channels`` sizes new encoder weights (``init_pfn``); ``pillarize``
    takes its width from the weights it is given.
    """

    x_min: float = -50.0
    x_max: float = 50.0
    y_min: float = -50.0
    y_max: float = 50.0
    pillar_size: float = 0.78125
    max_points_per_pillar: int = 20
    out_channels: int = 32

    def __post_init__(self):
        check_number_fields({name: getattr(self, name)
                             for name in ("x_min", "x_max", "y_min", "y_max", "pillar_size")})
        check_numbers(self, ("max_points_per_pillar", "out_channels"),
                      integers=("max_points_per_pillar", "out_channels"),
                      at_least={"max_points_per_pillar": 1, "out_channels": 1})
        axes = (("x", self.x_min, self.x_max), ("y", self.y_min, self.y_max))
        for axis, low, high in axes:
            require(high > low, f"{axis}_max", f"> {axis}_min {low:g}", high)
            require(math.isfinite(high - low), f"{axis}_max",
                    f"a finite distance from {axis}_min {low:g}", high)
        require(self.pillar_size > 0, "pillar_size", "> 0", self.pillar_size)
        cells = [(high - low) / self.pillar_size for _, low, high in axes]
        require(cells[0] * cells[1] <= MAX_GRID_CELLS, "pillar_size",
                f"large enough for at most {MAX_GRID_CELLS} grid cells", self.pillar_size)
        for (axis, low, high), count in zip(axes, cells):
            require(abs(count - round(count)) <= 1e-9, f"{axis}_max",
                    f"a whole number of {self.pillar_size:g} m pillars above {axis}_min {low:g}",
                    high)
            require(round(count) >= 1, f"{axis}_max",
                    f"at least one pillar above {axis}_min {low:g}", high)

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
        coords = np.asarray(self.coords)
        if coords.dtype.kind not in "iu":
            # integer arrays, as ``gather`` builds, pass as they are; others
            # must hold whole numbers that int64 can hold
            coords = coords.astype(DTYPE)
            bad = ~((np.floor(coords) == coords) & (np.abs(coords) < 2.0 ** 63))
            if bad.any():
                raise field_error("coords", "whole numbers in the int64 range",
                                  float(coords[bad][0]))
        self.coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
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
    likewise from y. A point outside the grid is dropped however far away
    it is: the bounds are compared in float, and only in-range indices are
    cast to integers. NaN would fail every comparison and be dropped, so
    the rule relies on ``PointCloud`` refusing it.
    """
    pts = pc.points
    with np.errstate(over="ignore"):  # an overflow to +-inf is out of range too
        j = np.floor((pts[:, X] - cfg.x_min) / cfg.pillar_size)
        i = np.floor((pts[:, Y] - cfg.y_min) / cfg.pillar_size)
    in_range = (i >= 0) & (i < cfg.height) & (j >= 0) & (j < cfg.width)
    flat = i[in_range].astype(np.int64) * cfg.width + j[in_range].astype(np.int64)
    return pts[in_range], flat


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
    w, size = cfg.width, cfg.pillar_size
    mask = np.zeros((cfg.height, w), dtype=bool)
    pts, flat = bin_points(pc, cfg)
    if flat.size == 0:
        return PillarGrid(mask, np.zeros((0, pfn.lin.out_dim)))

    i, j = np.divmod(flat, w)
    dist2 = ((pts[:, X] - (cfg.x_min + (j + 0.5) * size)) ** 2
             + (pts[:, Y] - (cfg.y_min + (i + 0.5) * size)) ** 2)
    # row-major pillar order, then the deterministic truncation order
    order = np.lexsort((pts[:, SWEEP_INDEX], pts[:, Y], pts[:, X], dist2, flat))
    uniq, starts, counts = np.unique(flat[order], return_index=True, return_counts=True)
    keep = np.arange(flat.size) - np.repeat(starts, counts) < cfg.max_points_per_pillar
    pts = pts[order[keep]]
    counts = np.minimum(counts, cfg.max_points_per_pillar)
    starts = np.cumsum(counts) - counts

    # per-pillar mean and center, repeated to the pillar's kept points
    xy = pts[:, [X, Y]]
    mean = np.add.reduceat(xy, starts, axis=0) / counts[:, None]
    ci, cj = np.divmod(uniq, w)
    center = np.column_stack([cfg.x_min + (cj + 0.5) * size, cfg.y_min + (ci + 0.5) * size])
    feats = np.column_stack([pts[:, [X, Y, VX, VY, RCS, SWEEP_OFFSET]],
                             xy - np.repeat(mean, counts, axis=0),
                             xy - np.repeat(center, counts, axis=0)])
    enc = linear(feats, pfn.lin)
    enc = batch_norm2d(enc, pfn.bn_stats, pfn.bn_gamma, pfn.bn_beta, training=training)
    enc = relu(enc)
    pillar_feats = np.maximum.reduceat(enc, starts, axis=0)

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
