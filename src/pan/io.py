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

from .metrics import CONDITIONS, Box3D, FrameAnnotations
from .pillars import PointCloud
from .tensor import DTYPE, check_number_fields, finite_numbers

PANF_MAGIC = b"PANF"


# ---------------------------------------------------------------------------
# points.jsonl
# ---------------------------------------------------------------------------

# JSON names of the PointCloud columns, in column order
_POINT_NUMBERS = ("x", "y", "z", "vx", "vy", "rcs", "dt", "sweep")


def write_points_jsonl(path, clouds) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for cloud in clouds:
            for x, y, z, vx, vy, rcs, dt, sweep in cloud.points.tolist():
                fh.write(json.dumps({
                    "frame": cloud.frame_id, "x": x, "y": y, "z": z, "vx": vx, "vy": vy,
                    "rcs": rcs, "sweep": int(sweep), "dt": dt,
                }, allow_nan=False))
                fh.write("\n")


def _record_error(path, lineno: int, exc: Exception) -> ValueError:
    """The one-line error for a bad JSONL record: file, 1-based line, what is wrong."""
    if isinstance(exc, json.JSONDecodeError):
        what = f"invalid JSON ({exc.msg})"
    elif isinstance(exc, KeyError):
        what = f"missing field {exc.args[0]!r}"
    elif isinstance(exc, TypeError):
        what = f"malformed record ({exc})"
    else:
        what = str(exc)
    return ValueError(f"{path}:{lineno}: {what}")


def read_points_jsonl(path) -> list[PointCloud]:
    """Group records into clouds, frames in first-appearance order."""
    rows: dict[str, list[tuple]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                row = (rec["x"], rec["y"], rec["z"], rec["vx"], rec["vy"], rec["rcs"],
                       rec["dt"], rec["sweep"])
                if type(row[-1]) is not int or not finite_numbers(row):
                    check_number_fields(dict(zip(_POINT_NUMBERS, row)), integers=("sweep",))
                frame = rec["frame"]
                if type(frame) is not str:
                    raise ValueError(f"field 'frame' must be a string, got {json.dumps(frame)}")
            except (ValueError, KeyError, TypeError) as exc:
                raise _record_error(path, lineno, exc) from None
            rows.setdefault(frame, []).append(row)
    return [PointCloud(frame, frame_rows) for frame, frame_rows in rows.items()]


# ---------------------------------------------------------------------------
# boxes.jsonl
# ---------------------------------------------------------------------------

# JSON names of the Box3D number fields, in Box3D order
_BOX_NUMBERS = ("cx", "cy", "cz", "w", "l", "h", "yaw", "vx", "vy", "score")


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
        rec["score"] = float(b.score if b.score is not None else 0.0)
    rec["condition"] = condition
    return rec


def write_boxes_jsonl(path, frames) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame in frames:
            for b in frame.gt:
                fh.write(json.dumps(_box_record(frame.frame_id, "gt", frame.condition, b),
                                    allow_nan=False))
                fh.write("\n")
            for b in frame.pred:
                fh.write(json.dumps(_box_record(frame.frame_id, "pred", frame.condition, b),
                                    allow_nan=False))
                fh.write("\n")


def read_boxes_jsonl(path) -> list[FrameAnnotations]:
    """Group records into frames, in first-appearance order; every record of a
    frame names the same condition, and only predictions carry a score."""
    frames: dict[str, FrameAnnotations] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                role, frame_id, condition = rec["role"], rec["frame"], rec["condition"]
                if role not in ("gt", "pred"):
                    raise ValueError(f"field 'role' must be 'gt' or 'pred', got {role!r}")
                if ("score" in rec) != (role == "pred"):
                    problem = "is only for" if role == "gt" else "is required for"
                    raise ValueError(f"field 'score' {problem} role 'pred'")
                numbers = (rec["cx"], rec["cy"], rec["cz"], rec["w"], rec["l"], rec["h"],
                           rec["yaw"], rec["vx"], rec["vy"], rec.get("score", 0.0))
                if not finite_numbers(numbers):
                    check_number_fields(dict(zip(_BOX_NUMBERS, numbers)))
                if type(frame_id) is not str:
                    raise ValueError(f"field 'frame' must be a string, got {json.dumps(frame_id)}")
                frame = frames.get(frame_id)
                if frame is None:
                    if condition not in CONDITIONS:
                        raise ValueError(f"field 'condition' must be one of "
                                         f"{', '.join(CONDITIONS)}, got {json.dumps(condition)}")
                    frame = frames[frame_id] = FrameAnnotations(frame_id, condition)
                elif condition != frame.condition:
                    raise ValueError(f"field 'condition' is {json.dumps(condition)}, but earlier "
                                     f"records of frame {frame_id!r} say {frame.condition!r}")
                attr = rec["attr"]
                if attr is not None and type(attr) is not str:
                    raise ValueError(f"field 'attr' must be a string or null, got {json.dumps(attr)}")
                box = Box3D(*numbers[:9], class_name=rec["class"], attribute=attr,
                            score=rec.get("score"))
            except (ValueError, KeyError, TypeError) as exc:
                raise _record_error(path, lineno, exc) from None
            (frame.pred if role == "pred" else frame.gt).append(box)
    return list(frames.values())


# ---------------------------------------------------------------------------
# PANF feature maps
# ---------------------------------------------------------------------------

def write_feature_map(path, data: np.ndarray) -> None:
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError("feature map must be [H, W, C]")
    h, w, c = data.shape
    with open(path, "wb") as fh:
        fh.write(PANF_MAGIC)
        fh.write(struct.pack("<III", h, w, c))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


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

    Negative cells render black; an all-nonpositive map renders black.
    """
    values = np.maximum(np.asarray(values, dtype=DTYPE), 0.0)
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
