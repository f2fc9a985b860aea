"""Independent float64 references for the benchmark's output checks.

Plain Python and NumPy only: nothing here imports pan, so a defect in one
of pan's compute functions cannot hide by being reused by its own check.
The references read the input files themselves and take parameters as
plain arrays.

- backbone: per-pillar max of the encoded point features, softmax
  attention, GeLU via ``math.erf``, conv as k*k shifted matmuls, batch
  norm with the running statistics and a 2x2 max pool;
- eval: a brute-force nuScenes matcher with 101-point AP and TP means;
- fusion: a per-sample loop with its own bilinear interpolation.
"""

from __future__ import annotations

import json
import math

import numpy as np

BACKBONE_TOL = 1e-9
EVAL_TOL = 1e-12
FUSION_TOL = 1e-9


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------

def read_jsonl_by_frame(path) -> dict[str, list[dict]]:
    """Records grouped by their ``frame`` field, frames in file order."""
    frames: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                frames.setdefault(rec["frame"], []).append(rec)
    return frames


def points_array(records: list[dict]) -> np.ndarray:
    """Columns x, y, vx, vy, rcs, dt, sweep."""
    return np.array([[r["x"], r["y"], r["vx"], r["vy"], r["rcs"], r["dt"], r["sweep"]]
                     for r in records], dtype=np.float64).reshape(-1, 7)


# ---------------------------------------------------------------------------
# pillar binning and the counts derived from it
# ---------------------------------------------------------------------------

def bin_points(pts: np.ndarray, grid: dict) -> dict:
    """Cell of every in-range point, by a per-point loop.

    Returns the kept point indices per cell (row-major cells, points in
    truncation order: closest to the cell center first, ties by x, y,
    sweep) and the dropped-point counts.
    """
    size, x_min, y_min = grid["pillar_size"], grid["x_min"], grid["y_min"]
    h, w = grid["height"], grid["width"]
    cells: dict[tuple[int, int], list] = {}
    out_of_range = 0
    for idx, (x, y, *_rest, sweep) in enumerate(pts.tolist()):
        j = math.floor((x - x_min) / size)
        i = math.floor((y - y_min) / size)
        if not (0 <= i < h and 0 <= j < w):
            out_of_range += 1
            continue
        cx = x_min + (j + 0.5) * size
        cy = y_min + (i + 0.5) * size
        key = ((x - cx) ** 2 + (y - cy) ** 2, x, y, sweep)
        cells.setdefault((i, j), []).append((key, idx))
    kept, truncated = {}, 0
    for cell in sorted(cells):
        ranked = [idx for _, idx in sorted(cells[cell])]
        kept[cell] = ranked[:grid["max_points_per_pillar"]]
        truncated += len(ranked) - len(kept[cell])
    return {"cells": kept, "points_in": len(pts), "pillar_count": len(kept),
            "points_out_of_range": out_of_range, "points_truncated": truncated}


def occupancy_mask(cells, height: int, width: int) -> np.ndarray:
    mask = np.zeros((height, width), dtype=bool)
    for i, j in cells:
        mask[i, j] = True
    return mask


def conv_useful_share(mask: np.ndarray, k: int) -> float:
    """Share of 'same' conv output cells whose k x k window touches an occupied cell."""
    r = (k - 1) // 2
    padded = np.pad(mask, r)
    h, w = mask.shape
    touched = np.zeros_like(mask)
    for a in range(k):
        for b in range(k):
            touched |= padded[a:a + h, b:b + w]
    return float(touched.mean())


def token_macs(p: int, channels: int, embed: int, attn_out: bool) -> int:
    """MACs of the token path at P tokens: encode/decode, q/k/v(/out), attention, MLP."""
    macs = 2 * p * channels * embed + 3 * p * embed * embed
    if attn_out:
        macs += p * embed * embed
    return macs + 2 * p * p * embed + 2 * p * embed * embed


def conv_macs(height: int, width: int, channels: int, k: int) -> int:
    """MACs of the dense refine: conv C->C at full size, conv C->3C after the /2 pool."""
    return (height * width * k * k * channels * channels
            + (height // 2) * (width // 2) * k * k * channels * 3 * channels)


# ---------------------------------------------------------------------------
# backbone
# ---------------------------------------------------------------------------

def _affine(x, wb):
    return x @ wb[0] + wb[1]


def _norm(x, mean, var, gamma, beta, eps=1e-5):
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def _softmax(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _gelu(x):
    erf = np.array([math.erf(v / math.sqrt(2.0)) for v in x.reshape(-1)]).reshape(x.shape)
    return x * 0.5 * (1.0 + erf)


def _conv_same(x, kernel, bias):
    k = kernel.shape[0]
    r = (k - 1) // 2
    h, w, _ = x.shape
    xp = np.pad(x, ((r, r), (r, r), (0, 0)))
    out = np.zeros((h, w, kernel.shape[3])) + bias
    for a in range(k):
        for b in range(k):
            out += xp[a:a + h, b:b + w] @ kernel[a, b]
    return out


def _pool2(x):
    h, w, c = x.shape
    oh, ow = (h + 1) // 2, (w + 1) // 2
    xp = np.full((2 * oh, 2 * ow, c), -np.inf)
    xp[:h, :w] = x
    return xp.reshape(oh, 2, ow, 2, c).max(axis=(1, 3))


def backbone_reference(pts: np.ndarray, grid: dict, prm: dict) -> np.ndarray:
    """pillarize -> gather -> enhance -> scatter -> conv refine, in inference mode."""
    h, w = grid["height"], grid["width"]
    binned = bin_points(pts, grid)
    size, x_min, y_min = grid["pillar_size"], grid["x_min"], grid["y_min"]
    cells = list(binned["cells"])  # row-major, the token order
    tokens = []
    for (i, j) in cells:
        p = pts[binned["cells"][(i, j)]]
        feats = np.column_stack([
            p[:, 0], p[:, 1], p[:, 2], p[:, 3], p[:, 4], p[:, 5],
            p[:, 0] - p[:, 0].mean(), p[:, 1] - p[:, 1].mean(),
            p[:, 0] - (x_min + (j + 0.5) * size), p[:, 1] - (y_min + (i + 0.5) * size),
        ])
        enc = np.maximum(_norm(_affine(feats, prm["pfn.lin"]), *prm["pfn.bn"]), 0.0)
        tokens.append(enc.max(axis=0))
    channels = prm["pfn.lin"][0].shape[1]
    grid_out = np.zeros((h, w, channels))
    if tokens:
        t = np.array(tokens)
        e = _affine(t, prm["enc"])
        q, k, v = _affine(e, prm["q"]), _affine(e, prm["k"]), _affine(e, prm["v"])
        heads, dh = prm["num_heads"], e.shape[1] // prm["num_heads"]
        att = np.concatenate([
            _softmax(q[:, s] @ k[:, s].T / math.sqrt(dh)) @ v[:, s]
            for s in (slice(hd * dh, (hd + 1) * dh) for hd in range(heads))
        ], axis=1)
        if prm["use_attn_out"]:
            att = _affine(att, prm["attn_out"])
        a = e + att
        h1 = _affine(a, prm["mlp1"])
        mu, var = h1.mean(axis=1, keepdims=True), h1.var(axis=1, keepdims=True)
        h2 = (h1 - mu) / np.sqrt(var + 1e-5) * prm["ln"][0] + prm["ln"][1]
        m = a + _affine(_gelu(h2), prm["mlp2"])
        out = _affine(m, prm["dec"])
        for row, (i, j) in enumerate(cells):
            grid_out[i, j] = out[row]
    if not prm["conv_enabled"]:
        return grid_out
    x = _conv_same(grid_out, prm["conv1.kernel"], prm["conv1.bias"])
    x = np.maximum(_norm(x, *prm["conv1.bn"]), 0.0)
    return _conv_same(_pool2(x), prm["conv2.kernel"], prm["conv2.bias"])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

CLASS_NAMES = (
    "car", "truck", "bus", "trailer", "construction_vehicle",
    "pedestrian", "motorcycle", "bicycle", "traffic_cone", "barrier",
)
ATTRIBUTES = (
    "cycle.with_rider", "cycle.without_rider",
    "pedestrian.moving", "pedestrian.sitting_lying_down", "pedestrian.standing",
    "vehicle.moving", "vehicle.parked", "vehicle.stopped",
)
TP_KEYS = ("ate", "ase", "aoe", "ave", "aae")
EXCLUDED = {"traffic_cone": {"aoe", "aae"}, "barrier": {"aae"}}


def _wrap_yaw(yaw: float) -> float:
    return math.atan2(math.sin(yaw), math.cos(yaw))


def load_eval_frames(path) -> list[dict]:
    """Frames of boxes.jsonl as {condition, gt, pred} with plain-dict boxes."""
    frames = []
    for recs in read_jsonl_by_frame(path).values():
        frame = {"condition": recs[-1]["condition"], "gt": [], "pred": []}
        for r in recs:
            box = dict(r, yaw=_wrap_yaw(r["yaw"]))
            frame["pred" if r["role"] == "pred" else "gt"].append(box)
        frames.append(frame)
    return frames


def _dist(a, b) -> float:
    return math.hypot(a["cx"] - b["cx"], a["cy"] - b["cy"])


def greedy_match(gt: list, pred: list, threshold: float) -> list[tuple[int, int]]:
    """nuScenes matching by brute force: best score first, nearest free GT."""
    order = sorted(range(len(pred)), key=lambda i: (-pred[i]["score"], i))
    free = list(range(len(gt)))
    pairs = []
    for pi in order:
        dists = [(_dist(pred[pi], gt[gi]), gi) for gi in free]
        if dists:
            d, gi = min(dists)
            if d < threshold:
                free.remove(gi)
                pairs.append((pi, gi))
    return pairs


def _ap(scored: list, n_pos: int, min_recall: float, min_precision: float) -> float:
    if not scored:
        return 0.0
    scored = sorted(scored, key=lambda sc: -sc[0])
    hits = np.array([1.0 if hit else 0.0 for _, hit in scored])
    tp, fp = np.cumsum(hits), np.cumsum(1.0 - hits)
    interp = np.interp(np.linspace(0.0, 1.0, 101), tp / n_pos, tp / (tp + fp), right=0.0)
    clipped = np.maximum(interp[round(100 * min_recall) + 1:] - min_precision, 0.0)
    return float(min(1.0, clipped.mean() / (1.0 - min_precision)))


def _tp_errors(pairs: list, cls: str) -> dict:
    keys = [m for m in TP_KEYS if m not in EXCLUDED.get(cls, set())]
    if not pairs:
        return {m: 1.0 for m in keys}
    out = {}
    for m in keys:
        vals = []
        for p, g in pairs:
            if m == "ate":
                vals.append(_dist(p, g))
            elif m == "ase":
                inter = min(p["w"], g["w"]) * min(p["l"], g["l"]) * min(p["h"], g["h"])
                union = p["w"] * p["l"] * p["h"] + g["w"] * g["l"] * g["h"] - inter
                vals.append(1.0 - inter / union)
            elif m == "aoe":
                period = math.pi if cls == "barrier" else 2.0 * math.pi
                diff = math.fmod(abs(p["yaw"] - g["yaw"]), period)
                vals.append(min(diff, period - diff))
            elif m == "ave":
                vals.append(math.hypot(p["vx"] - g["vx"], p["vy"] - g["vy"]))
            else:
                vals.append(0.0 if g["attr"] in ATTRIBUTES and p["attr"] == g["attr"] else 1.0)
        out[m] = float(np.mean(vals))
    return out


def eval_reference(frames: list[dict], cfg: dict, condition, band) -> dict:
    """One split's report fields, recomputed from scratch."""
    lo, hi = band if band is not None else cfg["range_filter"]
    split = []
    for f in frames:
        if condition is not None and f["condition"] != condition:
            continue
        split.append({role: [b for b in f[role] if lo <= math.hypot(b["cx"], b["cy"]) < hi]
                      for role in ("gt", "pred")})
    out = {"n_frames": len(split),
           "n_gt": sum(len(f["gt"]) for f in split),
           "n_pred": sum(len(f["pred"]) for f in split)}
    classes = [c for c in CLASS_NAMES if any(b["class"] == c for f in split for b in f["gt"])]
    out["empty"] = not split or not classes
    if out["empty"]:
        return out
    ap, counts, class_tp = {}, {t: 0 for t in cfg["thresholds"]}, {}
    for cls in classes:
        per_frame = [([b for b in f["gt"] if b["class"] == cls],
                      [b for b in f["pred"] if b["class"] == cls]) for f in split]
        n_pos = sum(len(gt) for gt, _ in per_frame)
        ap[cls] = {}
        for thr in cfg["thresholds"]:
            scored = []
            for gt, pred in per_frame:
                matched = {pi for pi, _ in greedy_match(gt, pred, thr)}
                counts[thr] += len(matched)
                scored += [(p["score"], pi in matched) for pi, p in enumerate(pred)]
            ap[cls][thr] = _ap(scored, n_pos, cfg["min_recall"], cfg["min_precision"])
        pairs = [(pred[pi], gt[gi]) for gt, pred in per_frame
                 for pi, gi in greedy_match(gt, pred, cfg["tp_threshold"])]
        class_tp[cls] = _tp_errors(pairs, cls)
    mean_ap = float(np.mean([v for per in ap.values() for v in per.values()]))
    tp = {}
    for m in TP_KEYS:
        vals = [class_tp[c][m] for c in classes if m in class_tp[c]]
        tp[m] = float(np.mean(vals)) if vals else 1.0
    out.update(ap=ap, match_counts=counts, class_tp=class_tp, mean_ap=mean_ap, tp=tp,
               nds=0.5 * mean_ap + 0.1 * sum(1.0 - min(1.0, tp[m]) for m in TP_KEYS))
    return out


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def _bilinear(data: np.ndarray, px: float, py: float) -> np.ndarray:
    h, w, _ = data.shape
    x = min(max(px, 0.0), 1.0) * (w - 1)
    y = min(max(py, 0.0), 1.0) * (h - 1)
    j0, i0 = int(x), int(y)
    j1, i1 = min(j0 + 1, w - 1), min(i0 + 1, h - 1)
    fx, fy = x - j0, y - i0
    return ((1 - fy) * ((1 - fx) * data[i0, j0] + fx * data[i0, j1])
            + fy * ((1 - fx) * data[i1, j0] + fx * data[i1, j1]))


def occupancy_reference(data: np.ndarray, wb) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-(data @ wb[0][:, 0] + wb[1][0])))


def mdca_reference(queries, refs, maps: list, prm: dict) -> np.ndarray:
    """Deformable cross-attention, one bilinear sample at a time."""
    heads, mods, k = prm["heads"], len(maps), prm["points"]
    nq = queries.shape[0]
    offsets = _affine(queries, prm["offset"]).reshape(nq, heads, mods, k, 2)
    logits = _affine(queries, prm["weight"]).reshape(nq, heads, mods * k)
    weights = np.array([_softmax(row) for row in logits]).reshape(nq, heads, mods, k)
    out = np.zeros((nq, prm["out"][0][1].shape[0]))
    for q in range(nq):
        for hd in range(heads):
            acc = np.zeros(prm["value"][hd][0][0].shape[1])
            for m in range(mods):
                for kk in range(k):
                    px = refs[q, 0] + offsets[q, hd, m, kk, 0]
                    py = refs[q, 1] + offsets[q, hd, m, kk, 1]
                    sample = _bilinear(maps[m], px, py)
                    acc += weights[q, hd, m, kk] * _affine(sample, prm["value"][hd][m])
            out[q] += _affine(acc, prm["out"][hd])
    return out


def max_abs_error(got, want) -> float:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want), initial=0.0))
