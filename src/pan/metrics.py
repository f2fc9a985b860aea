"""Detection evaluation: greedy matching, AP, TP errors, and the NDS score.

Conventions follow the published nuScenes evaluation semantics: predictions
match ground truth greedily in descending score order by BEV center
distance at thresholds {0.5, 1, 2, 4} m; the precision-recall curve is
interpolated on a 101-point recall grid; AP averages precision over recall
in [0.1, 1] after subtracting the 0.1 precision floor and renormalizing by
0.9. True-positive errors are plain means over the pairs matched at the
2.0 m threshold. NDS = 0.5 * mAP + 0.1 * sum(1 - min(1, mTP)).

Range filtering is half-open [min, max) on BEV distance from the ego
origin, so adjacent bands partition exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import (POSITIVE, UNIT_INTERVAL, check_field, check_number_fields, field_error,
                     finite_numbers, require)

CLASS_NAMES = (
    "car", "truck", "bus", "trailer", "construction_vehicle",
    "pedestrian", "motorcycle", "bicycle", "traffic_cone", "barrier",
)

ATTRIBUTES = (
    "cycle.with_rider", "cycle.without_rider",
    "pedestrian.moving", "pedestrian.sitting_lying_down", "pedestrian.standing",
    "vehicle.moving", "vehicle.parked", "vehicle.stopped",
)

CONDITIONS = ("day", "rain", "night")

# the one rule for a condition tag, as ``check_field`` takes it
CONDITION_RULE = (f"one of {', '.join(CONDITIONS)}", CONDITIONS.__contains__)

TP_METRICS = ("ate", "ase", "aoe", "ave", "aae")

# per-class metric exclusions: no orientation for cones, no attributes for
# cones or barriers
_EXCLUDED = {
    "traffic_cone": {"aoe", "aae"},
    "barrier": {"aae"},
}


def check_class(class_name) -> None:
    """The one rule for a class name, named by its boxes.jsonl key: one of ``CLASS_NAMES``."""
    if class_name not in CLASS_NAMES:
        raise field_error("class", f"one of {', '.join(CLASS_NAMES)}", class_name)


def _normalize_yaw(yaw: float) -> float:
    """Wrap into (-pi, pi]."""
    wrapped = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass
class Box3D:
    """Axis sizes are (w, l, h) with l along the heading; score only on predictions.
    A bad field is named by its boxes.jsonl key (``cx``, ``cy``, ``cz``, ``class``, ``attr``)."""

    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    yaw: float
    vx: float
    vy: float
    class_name: str
    attribute: str | None = None
    score: float | None = None

    def __post_init__(self):
        numbers = (self.x, self.y, self.z, self.w, self.l, self.h, self.yaw, self.vx, self.vy)
        if not finite_numbers(numbers):
            check_number_fields(dict(zip(_BOX_NUMBERS, numbers)))
        if min(self.w, self.l, self.h) <= 0:
            name = next(n for n in ("w", "l", "h") if getattr(self, n) <= 0)
            raise field_error(name, "positive", getattr(self, name))
        volume = float(self.w) * self.l * self.h
        if volume == 0.0 or volume == math.inf:
            # the sizes are positive, so the product left the float range:
            # name the smallest size for an underflow, the largest for an overflow
            low = volume == 0.0
            name = (min if low else max)(("w", "l", "h"), key=lambda n: getattr(self, n))
            rule = ("large enough for a positive box volume" if low
                    else "small enough for a finite box volume")
            raise field_error(name, rule, getattr(self, name))
        if self.class_name not in CLASS_NAMES:  # as for the numbers: a valid box makes no call
            check_class(self.class_name)
        if self.attribute is not None and not isinstance(self.attribute, str):
            raise field_error("attr", "a string or null", self.attribute)
        score = self.score
        if score is not None and not (type(score) is float and 0.0 <= score <= 1.0):
            check_field("score", score, UNIT_INTERVAL)
        self.yaw = _normalize_yaw(self.yaw)

    def bev_distance_to(self, other: "Box3D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


# boxes.jsonl keys of the Box3D number fields, in Box3D order
_BOX_NUMBERS = ("cx", "cy", "cz", "w", "l", "h", "yaw", "vx", "vy")


@dataclass
class FrameAnnotations:
    """One frame's boxes; ``frame_id`` is checked under its boxes.jsonl key ``frame``."""

    frame_id: str
    condition: str = "day"
    gt: list[Box3D] = field(default_factory=list)
    pred: list[Box3D] = field(default_factory=list)

    def __post_init__(self):
        require(isinstance(self.frame_id, str), "frame", "a string", self.frame_id)
        check_field("condition", self.condition, CONDITION_RULE, "str")


@dataclass
class EvalConfig:
    range_filter: tuple = (0.0, 50.0)
    # the fixed nuScenes protocol, constants rather than fields: AP at these BEV
    # centre distances, TP errors at 2 m (one of them), and 10% AP floors
    match_thresholds_m = (0.5, 1.0, 2.0, 4.0)
    tp_threshold_m = 2.0
    min_recall = 0.1
    min_precision = 0.1

    def __post_init__(self):
        band = self.range_filter
        require(isinstance(band, (list, tuple)) and len(band) == 2, "range_filter",
                "two numbers lo < hi", band)
        # the band's upper end may be infinite, as in ``pan eval --range 0:inf``
        check_number_fields({"range_filter[0]": band[0],
                             "range_filter[1]": 0.0 if band[1] == math.inf else band[1]})
        require(band[0] < band[1], "range_filter", "two numbers lo < hi", band)


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def match_frame(gt: list[Box3D], pred: list[Box3D], threshold_m: float):
    """Greedy single-frame matching for one class.

    Predictions in descending score order each take the nearest unmatched
    ground truth within ``threshold_m`` BEV center distance (distance ties
    go to the lower GT index). Returns (matches, unmatched_pred,
    unmatched_gt) with matches as (pred_idx, gt_idx) pairs. ``threshold_m``
    is a finite number > 0.
    """
    check_field("threshold_m", threshold_m, POSITIVE)
    order, per_threshold = _match(gt, pred, (threshold_m,))
    matches = per_threshold[threshold_m]
    matched_pred = {pi for pi, _ in matches}
    unmatched_pred = [pi for pi in order if pi not in matched_pred]
    unmatched_gt = sorted(set(range(len(gt))) - {gi for _, gi in matches})
    return matches, unmatched_pred, unmatched_gt


def _match(gt: list[Box3D], pred: list[Box3D], thresholds) -> tuple[list[int], dict]:
    """``match_frame``'s greedy for every threshold in one walk. Returns the
    score order and threshold -> [(pred_idx, gt_idx), ...] in match order."""
    order = sorted(range(len(pred)), key=lambda idx: (-(pred[idx].score or 0.0), idx))
    states = {thr: (set(), []) for thr in thresholds}  # taken GTs and matches
    for pi in order:
        row = sorted((d, gi) for gi, d in enumerate(map(pred[pi].bev_distance_to, gt)))
        for thr, (taken, matches) in states.items():
            d, gi = next(((d, gi) for d, gi in row if gi not in taken), (math.inf, None))
            if d < thr:
                taken.add(gi)
                matches.append((pi, gi))
    return order, {thr: matches for thr, (_, matches) in states.items()}


def _by_class(frames: list[FrameAnnotations], band: tuple | None = None) -> dict:
    """Each class's boxes as one (gt, pred) pair of lists per frame, in frame
    order, made in one pass; with ``band`` only boxes at lo <= BEV range < hi."""
    lo, hi = band or (None, None)
    groups: dict[str, list[tuple[list, list]]] = {}
    for k, frame in enumerate(frames):
        for role, boxes in enumerate((frame.gt, frame.pred)):
            for b in boxes:
                if band is None or lo <= math.hypot(b.x, b.y) < hi:
                    per_frame = groups.get(b.class_name)
                    if per_frame is None:
                        per_frame = groups[b.class_name] = [([], []) for _ in frames]
                    per_frame[k][role].append(b)
    return groups


# ---------------------------------------------------------------------------
# average precision
# ---------------------------------------------------------------------------

def _match_class(groups: list[tuple[list, list]], thresholds, cfg: EvalConfig) -> dict:
    """Threshold -> (AP, matched (pred, gt) pairs in frame then match order)
    of one class's per-frame (gt, pred) groups, from one walk per frame."""
    n_pos = 0
    scores: list[float] = []
    pairs: dict = {thr: [] for thr in thresholds}
    hits: dict = {thr: [] for thr in thresholds}  # true positives as indices into scores
    for gt, pred in groups:
        n_pos += len(gt)
        for thr, matches in _match(gt, pred, thresholds)[1].items():
            pairs[thr].extend((pred[pi], gt[gi]) for pi, gi in matches)
            hits[thr].extend(len(scores) + pi for pi, _ in matches)
        scores.extend(p.score or 0.0 for p in pred)
    rank = np.argsort(np.negative(scores), kind="stable")
    return {thr: (_ap(rank, hits[thr], n_pos, cfg), pairs[thr]) for thr in pairs}


def _ap(rank: np.ndarray, hits: list[int], n_pos: int, cfg: EvalConfig) -> float | None:
    """AP of the predictions in ``rank`` order, of which ``hits`` are true positives."""
    if n_pos == 0:
        return None
    if not rank.size:
        return 0.0
    is_tp = np.zeros(rank.size, dtype=bool)
    is_tp[hits] = True
    tp = np.cumsum(is_tp[rank])
    recall = tp / n_pos
    precision = tp / np.arange(1, rank.size + 1)
    grid = np.linspace(0.0, 1.0, 101)
    interp = np.interp(grid, recall, precision, right=0.0)
    start = round(100 * cfg.min_recall) + 1
    clipped = np.maximum(interp[start:] - cfg.min_precision, 0.0)
    # guard the [0, 1] range against float round-off in the normalization
    return float(min(1.0, clipped.mean() / (1.0 - cfg.min_precision)))


def average_precision(frames: list[FrameAnnotations], class_name: str,
                      threshold_m: float, cfg: EvalConfig) -> float | None:
    """101-point interpolated AP for one class and distance threshold.

    Returns None when the class has no ground truth (undefined, excluded
    from mAP); 0.0 when ground truth exists but nothing scores. ``class_name``
    follows the ``Box3D`` class rule and ``threshold_m`` the ``match_frame`` one.
    """
    check_class(class_name)
    check_field("threshold_m", threshold_m, POSITIVE)
    return _match_class(_by_class(frames).get(class_name, []), (threshold_m,), cfg)[threshold_m][0]


# ---------------------------------------------------------------------------
# true-positive errors
# ---------------------------------------------------------------------------

def _scale_iou(a: Box3D, b: Box3D) -> float:
    """3-D IoU after aligning centers and yaw (size error only)."""
    inter = min(a.w, b.w) * min(a.l, b.l) * min(a.h, b.h)
    union = a.w * a.l * a.h + b.w * b.l * b.h - inter
    if union == math.inf:
        # each volume is finite but their sum is not: the same ratio on halved
        # volumes, where halving is exact
        union = a.w * a.l * a.h / 2 + b.w * b.l * b.h / 2 - inter / 2
        return inter / 2 / union
    return inter / union


def _yaw_error(pred: Box3D, gt: Box3D, period: float) -> float:
    diff = math.fmod(abs(pred.yaw - gt.yaw), period)
    return min(diff, period - diff)


def tp_errors(pairs: list[tuple[Box3D, Box3D]], class_name: str) -> dict:
    """Mean errors over (pred, gt) matches from the TP threshold.

    Keys limited to the metrics defined for the class; by convention every
    applicable error is 1.0 when the class matched nothing. ``class_name``
    follows the ``Box3D`` class rule.
    """
    check_class(class_name)
    excluded = _EXCLUDED.get(class_name, set())
    keys = [m for m in TP_METRICS if m not in excluded]
    if not pairs:
        return {m: 1.0 for m in keys}
    out = {}
    for metric in keys:
        if metric == "ate":
            vals = [p.bev_distance_to(g) for p, g in pairs]
        elif metric == "ase":
            vals = [1.0 - _scale_iou(p, g) for p, g in pairs]
        elif metric == "aoe":
            period = math.pi if class_name == "barrier" else 2.0 * math.pi
            vals = [_yaw_error(p, g, period) for p, g in pairs]
        elif metric == "ave":
            vals = [math.hypot(p.vx - g.vx, p.vy - g.vy) for p, g in pairs]
        else:  # aae: unknown or missing attributes count as errors
            vals = [0.0 if (g.attribute in ATTRIBUTES and p.attribute == g.attribute)
                    else 1.0 for p, g in pairs]
        out[metric] = float(np.mean(vals))
    return out


def nds(mean_ap: float, tp_values) -> float:
    """NDS = 0.5 * mAP + 0.1 * sum over five TP errors of (1 - min(1, err)).

    ``mean_ap`` is a finite number in [0, 1] and each TP error, in
    ``TP_METRICS`` order, a finite number >= 0.
    """
    tp_values = list(tp_values)
    if len(tp_values) != len(TP_METRICS):
        raise ValueError(f"expected {len(TP_METRICS)} TP errors, got {len(tp_values)}")
    check_field("mAP", mean_ap, UNIT_INTERVAL)
    for name, value in zip(TP_METRICS, tp_values):
        check_field(name, value, 0)
    return 0.5 * mean_ap + 0.1 * sum(1.0 - min(1.0, v) for v in tp_values)


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    """Per-class AP plus aggregated mAP / TP errors / NDS for one split."""

    condition: str
    range_band: tuple
    n_frames: int
    n_gt: int
    n_pred: int
    ap: dict = field(default_factory=dict)            # class -> {threshold -> AP}
    class_tp: dict = field(default_factory=dict)      # class -> {metric -> error}
    mean_ap: float | None = None
    tp: dict = field(default_factory=dict)            # metric -> mean over classes
    nds: float | None = None
    match_counts: dict = field(default_factory=dict)  # threshold -> matched pairs, all classes

    @property
    def empty(self) -> bool:
        """No class in the split has ground truth, so no metric is defined."""
        return not self.ap

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            # JSON has no infinity: an open band end (``0:inf``) is written as null
            "range_band": [end if math.isfinite(end) else None for end in self.range_band],
            "n_frames": self.n_frames,
            "n_gt": self.n_gt,
            "n_pred": self.n_pred,
            "empty": self.empty,
            "mAP": self.mean_ap,
            "mATE": self.tp.get("ate"),
            "mASE": self.tp.get("ase"),
            "mAOE": self.tp.get("aoe"),
            "mAVE": self.tp.get("ave"),
            "mAAE": self.tp.get("aae"),
            "NDS": self.nds,
            "per_class_ap": self.ap,
            "per_class_tp": self.class_tp,
            "match_counts": {str(k): v for k, v in self.match_counts.items()},
        }


def evaluate(frames: list[FrameAnnotations], cfg: EvalConfig,
             condition: str | None = None,
             range_band: tuple | None = None) -> MetricsReport:
    """Evaluate one split: optional condition tag plus a BEV range band.

    The band drops ground truth and predictions independently (half-open
    [min, max) on distance from ego); a ``range_band`` replaces, and is
    checked as, ``cfg.range_filter``. An empty split is reported with the
    explicit ``empty`` marker rather than zero metrics.
    """
    if range_band is not None:
        cfg = replace(cfg, range_filter=tuple(range_band))
    if condition is not None:
        check_field("condition", condition, CONDITION_RULE, "str")
    band = tuple(cfg.range_filter)
    selected = [f for f in frames if condition is None or f.condition == condition]
    groups = _by_class(selected, band)
    n_gt = sum(len(gt) for per_frame in groups.values() for gt, _ in per_frame)
    n_pred = sum(len(pred) for per_frame in groups.values() for _, pred in per_frame)
    classes_present = [c for c in CLASS_NAMES
                       if c in groups and any(gt for gt, _ in groups[c])]
    if not classes_present:
        return MetricsReport(condition or "all", band, len(selected), n_gt, n_pred)

    matched = {cls: _match_class(groups[cls], cfg.match_thresholds_m, cfg)
               for cls in classes_present}
    ap = {cls: {thr: m[thr][0] for thr in m} for cls, m in matched.items()}
    class_tp = {cls: tp_errors(m[cfg.tp_threshold_m][1], cls) for cls, m in matched.items()}
    match_counts = {t: sum(len(m[t][1]) for m in matched.values()) for t in cfg.match_thresholds_m}

    ap_values = [v for per_thr in ap.values() for v in per_thr.values() if v is not None]
    mean_ap = float(np.mean(ap_values))
    tp_agg = {}
    for metric in TP_METRICS:
        vals = [class_tp[c][metric] for c in classes_present if metric in class_tp[c]]
        tp_agg[metric] = float(np.mean(vals)) if vals else 1.0
    score = nds(mean_ap, [tp_agg[m] for m in TP_METRICS])
    return MetricsReport(
        condition=condition or "all", range_band=band, n_frames=len(selected),
        n_gt=n_gt, n_pred=n_pred, ap=ap, class_tp=class_tp,
        mean_ap=mean_ap, tp=tp_agg, nds=score, match_counts=match_counts,
    )


def format_report_table(report: MetricsReport) -> str:
    """Aligned text table with the familiar leaderboard columns (x100)."""
    header = f"{'split':<18}{'NDS':>7}{'mAP':>7}{'mATE':>7}{'mASE':>7}{'mAOE':>7}{'mAVE':>7}{'mAAE':>7}"
    label = f"{report.condition} {report.range_band[0]:g}-{report.range_band[1]:g}m"
    if report.empty:
        return f"{header}\n{label:<18}{'(empty split)':>7}"
    row = (
        f"{label:<18}"
        f"{100 * report.nds:>7.1f}"
        f"{100 * report.mean_ap:>7.1f}"
        + "".join(f"{report.tp[m]:>7.3f}" for m in TP_METRICS)
    )
    return f"{header}\n{row}"
