"""File formats: JSONL point clouds and boxes, PANF feature maps, PGM heatmaps.

JSONL records are one compact JSON object per line with a fixed key order
and shortest-round-trip float formatting, so write -> read -> write is
byte-identical. Feature maps use a small binary container (magic "PANF",
little-endian u32 H, W, C, then H*W*C little-endian float32, row-major).
Heatmaps are 8-bit PGM (P5) images of per-cell channel sums normalized by
the per-sample maximum, higher values lighter.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .metrics import Box3D, FrameAnnotations
from .pillars import POINT_KEYS, PointCloud
from .tensor import DTYPE, check_number_fields, field_error, finite_numbers

PANF_MAGIC = b"PANF"


# ---------------------------------------------------------------------------
# points.jsonl
# ---------------------------------------------------------------------------

def _write_jsonl(path, items, records) -> None:
    """Write the dicts ``records(item)`` yields for each item, one compact JSON
    object per line. No two items may share a ``frame_id``, since a reader
    groups records by frame; that holds before the file is opened."""
    items, seen = list(items), set()
    for item in items:
        if item.frame_id in seen:
            raise field_error("frame", "unique", item.frame_id)
        seen.add(item.frame_id)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for item in items:
            for rec in records(item):
                fh.write(json.dumps(rec, allow_nan=False) + "\n")


def write_points_jsonl(path, clouds) -> None:
    # PointCloud has refused every row that read_points_jsonl would not read back
    def records(cloud):
        for x, y, z, vx, vy, rcs, dt, sweep in cloud.points.tolist():
            yield {"frame": cloud.frame_id, "x": x, "y": y, "z": z, "vx": vx, "vy": vy,
                   "rcs": rcs, "sweep": int(sweep), "dt": dt}

    _write_jsonl(path, clouds, records)


def _record_error(path, lineno: int, exc: Exception) -> ValueError:
    """The one-line error for a bad JSONL record: file, 1-based line, what is wrong."""
    if isinstance(exc, json.JSONDecodeError):
        what = f"invalid JSON ({exc.msg})"
    elif isinstance(exc, KeyError):
        what = f"missing field {exc.args[0]!r}"
    else:
        what = str(exc)
    return ValueError(f"{path}:{lineno}: {what}")


def _read_jsonl(path, take) -> None:
    """Call ``take`` on each record of a JSONL file, one JSON object per
    non-blank line; any error it or the parse raises names the file and line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if type(rec) is not dict:
                    raise ValueError(f"record must be a JSON object, got {json.dumps(rec)}")
                take(rec)
            except (ValueError, KeyError) as exc:
                raise _record_error(path, lineno, exc) from None


def read_json(path):
    """The value of a whole-file JSON input (config, spec or parameters); a
    syntax error names the file and its line as a bad JSONL record does."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise _record_error(path, exc.lineno, exc) from None


def read_points_jsonl(path) -> list[PointCloud]:
    """Group records into clouds, frames in first-appearance order."""
    rows: dict[str, list[tuple]] = {}

    def take(rec):
        row = (rec["x"], rec["y"], rec["z"], rec["vx"], rec["vy"], rec["rcs"],
               rec["dt"], rec["sweep"])
        if type(row[-1]) is not int or not finite_numbers(row):
            check_number_fields(dict(zip(POINT_KEYS, row)), integers=("sweep",))
        frame = rec["frame"]
        # a cloud is built after all its rows, so the line of a bad id is named here
        if type(frame) is not str:
            raise field_error("frame", "a string", frame)
        rows.setdefault(frame, []).append(row)

    _read_jsonl(path, take)
    return [PointCloud(frame, frame_rows) for frame, frame_rows in rows.items()]


# ---------------------------------------------------------------------------
# boxes.jsonl
# ---------------------------------------------------------------------------

def _box_record(frame_id: str, role: str, condition: str, b: Box3D) -> dict:
    rec = {
        "frame": frame_id,
        "role": role,
        "class": b.class_name,
        "cx": float(b.x), "cy": float(b.y), "cz": float(b.z),
        "w": float(b.w), "l": float(b.l), "h": float(b.h),
        "yaw": float(b.yaw),
        "vx": float(b.vx), "vy": float(b.vy),
        "attr": b.attribute,
    }
    if role == "pred":
        rec["score"] = float(b.score)
    rec["condition"] = condition
    return rec


def _scored(frame: FrameAnnotations) -> FrameAnnotations:
    """``frame``, once only its predictions carry a score, as ``read_boxes_jsonl``
    requires; the first other box raises the reader's own error."""
    if any(b.score is not None for b in frame.gt):
        raise ValueError("field 'score' is only for role 'pred'")
    if any(b.score is None for b in frame.pred):
        raise field_error("score", "a number", None)
    return frame


def write_boxes_jsonl(path, frames) -> None:
    # the map runs in the pre-pass, so a refused box leaves no file behind
    _write_jsonl(path, map(_scored, frames), lambda frame: (
        _box_record(frame.frame_id, role, frame.condition, b)
        for role, boxes in (("gt", frame.gt), ("pred", frame.pred)) for b in boxes))


def read_boxes_jsonl(path) -> list[FrameAnnotations]:
    """Group records into frames, in first-appearance order; every record of a
    frame names the same condition, and only predictions carry a score.
    ``FrameAnnotations`` and ``Box3D`` check the fields."""
    frames: dict[str, FrameAnnotations] = {}

    def take(rec):
        role, frame_id, condition = rec["role"], rec["frame"], rec["condition"]
        if role not in ("gt", "pred"):
            raise field_error("role", "'gt' or 'pred'", role)
        if ("score" in rec) != (role == "pred"):
            problem = "is only for" if role == "gt" else "is required for"
            raise ValueError(f"field 'score' {problem} role 'pred'")
        if role == "pred" and rec["score"] is None:  # Box3D reads None as "no score"
            raise field_error("score", "a number", None)
        try:
            frame = frames.get(frame_id)
        except TypeError:  # an unhashable id, which FrameAnnotations names
            frame = None
        if frame is None:
            frame = frames[frame_id] = FrameAnnotations(frame_id, condition)
        elif condition != frame.condition:
            raise ValueError(f"field 'condition' is {json.dumps(condition)}, but earlier "
                             f"records of frame {frame_id!r} say {frame.condition!r}")
        box = Box3D(rec["cx"], rec["cy"], rec["cz"], rec["w"], rec["l"], rec["h"], rec["yaw"],
                    rec["vx"], rec["vy"], class_name=rec["class"], attribute=rec["attr"],
                    score=rec.get("score"))
        (frame.pred if role == "pred" else frame.gt).append(box)

    _read_jsonl(path, take)
    return list(frames.values())


# ---------------------------------------------------------------------------
# PANF feature maps
# ---------------------------------------------------------------------------

def panf_payload(path, data: np.ndarray) -> np.ndarray:
    """``data`` as a PANF payload: C-ordered little-endian float32 [H, W, C].

    A value that float32 cannot hold, NaN included, raises an error that names
    ``path``, the file the payload is for; nothing is written.
    """
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError("feature map must be [H, W, C]")
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        payload = np.ascontiguousarray(data, dtype="<f4")
    bad = ~np.isfinite(payload)
    if bad.any():
        raise ValueError(f"{path}: feature map value {float(data[bad][0])!r} "
                         f"is not a finite float32")
    return payload


def write_feature_map(path, data: np.ndarray) -> None:
    payload = panf_payload(path, data)  # no copy when ``data`` already is one
    with open(path, "wb") as fh:
        fh.write(PANF_MAGIC)
        fh.write(struct.pack("<III", *payload.shape))
        fh.write(memoryview(payload))


def read_feature_map(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:4] != PANF_MAGIC:
            raise ValueError(f"{path}: not a PANF file (magic {head[:4]!r})")
        if len(head) < 16:
            raise ValueError(f"{path}: truncated PANF header ({len(head)} of 16 bytes)")
        h, w, c = struct.unpack("<III", head[4:])
        need = h * w * c * 4
        # a claim beyond the file's size is read as nothing: it may not fit in
        # memory or in an index; one byte more than claimed shows trailing data
        fits = need <= os.fstat(fh.fileno()).st_size - 16
        buf = fh.read(need + 1) if fits else b""
    if len(buf) != need:
        problem = ("truncated PANF payload" if len(buf) < need
                   else "trailing bytes after PANF payload")
        raise ValueError(f"{path}: {problem} ({h}x{w}x{c} float32 needs {need} bytes)")
    return np.frombuffer(buf, dtype="<f4").reshape(h, w, c).astype(DTYPE)


# ---------------------------------------------------------------------------
# PGM heatmaps
# ---------------------------------------------------------------------------

def channel_sum(data: np.ndarray) -> np.ndarray:
    """Per-cell sum over channels, the quantity visualized in heatmaps."""
    return np.asarray(data, dtype=DTYPE).sum(axis=2)


def write_heatmap_pgm(path, values: np.ndarray) -> None:
    """8-bit P5 image of ``values`` [H, W], normalized by the sample max.

    Negative cells render black; an all-nonpositive map renders black. A NaN
    or infinite value raises an error that names ``path``; nothing is written.
    """
    values = np.asarray(values, dtype=DTYPE)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{path}: heatmap value {float(values[bad][0])!r} is not finite")
    values = np.maximum(values, 0.0)
    peak = values.max() if values.size else 0.0
    if peak > 0:
        img = np.round(values / peak * 255.0)
    else:
        img = np.zeros_like(values)
    img = img.astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
