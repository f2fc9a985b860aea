"""Synthetic radar scenes and oracle detection perturbations.

``generate_scene`` builds a frame from first principles: objects are
rectangles placed without BEV overlap, radar returns are sampled on their
footprints with radial-projected Doppler, clutter is uniform over the
range, and earlier sweeps replay the scene backward under constant
velocity. Because every distribution is explicit, the expected value of
any metric computed on a perturbed copy of the ground truth is known in
closed form — which is what makes these scenes usable as metric oracles.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .metrics import ATTRIBUTES, CLASS_NAMES, CONDITION_RULE, Box3D
from .pillars import PointCloud
from .tensor import POSITIVE, UNIT_INTERVAL, check_settings, finite_numbers

# nominal (w, l, h) per class, meters
CLASS_SIZES = {
    "car": (1.95, 4.62, 1.73),
    "truck": (2.51, 6.93, 2.84),
    "bus": (2.94, 11.0, 3.47),
    "trailer": (2.90, 12.3, 3.87),
    "construction_vehicle": (2.82, 6.37, 3.19),
    "pedestrian": (0.67, 0.73, 1.77),
    "motorcycle": (0.77, 2.11, 1.46),
    "bicycle": (0.60, 1.70, 1.30),
    "traffic_cone": (0.41, 0.41, 1.07),
    "barrier": (2.53, 0.98, 0.95),
}

_BASE_RCS = {
    "car": 10.0, "truck": 18.0, "bus": 22.0, "trailer": 20.0,
    "construction_vehicle": 16.0, "pedestrian": -5.0, "motorcycle": 2.0,
    "bicycle": -2.0, "traffic_cone": -8.0, "barrier": 5.0,
}

_VEHICLES = ("car", "truck", "bus", "trailer", "construction_vehicle")

# objects are placed more than this many meters from the ego position
EGO_KEEP_OUT = 3.0


def _is_range(value, low: float = -math.inf, high: float = math.inf,
              integers: bool = False) -> bool:
    """True for a pair of finite numbers lo, hi with low <= lo <= hi <= high."""
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not finite_numbers(value):
        return False
    kind = numbers.Integral if integers else numbers.Real
    return all(isinstance(v, kind) for v in value) and low <= value[0] <= value[1] <= high


def _is_class_mix(mix) -> bool:
    """True for a dict of class weights, each >= 0, with a positive sum."""
    weights = list(mix.values()) if isinstance(mix, dict) and set(mix) <= set(CLASS_NAMES) else ()
    return finite_numbers(weights) and min(weights, default=0) >= 0 and sum(weights) > 0


@dataclass
class SceneSpec:
    n_objects: int = 8
    class_mix: dict = field(default_factory=lambda: {
        "car": 0.5, "truck": 0.15, "pedestrian": 0.2, "bicycle": 0.1, "bus": 0.05,
    })
    position_range: float = 40.0        # objects placed in [-r, r]^2
    speed_range: tuple = (0.0, 12.0)    # m/s
    points_per_object: tuple = (6, 24)  # uniform integer range per sweep
    clutter_rate: float = 0.002         # points / m^2 per sweep
    noise_pos: float = 0.08             # m
    noise_vel: float = 0.1              # m/s on the radial speed
    noise_rcs: float = 1.5              # dB
    n_sweeps: int = 6                   # total sweeps incl. the current one
    sweep_period: float = 0.1           # s between sweeps
    condition: str = "day"
    n_frames: int = 1

    def __post_init__(self):
        check_settings(
            self, n_objects=0,
            class_mix=(f"keyed by {', '.join(CLASS_NAMES)} with weights >= 0 and a positive sum",
                       _is_class_mix),
            position_range=(f"> {EGO_KEEP_OUT}", lambda r: r > EGO_KEEP_OUT),
            speed_range=("two numbers lo <= hi", _is_range),
            points_per_object=("two integers 0 <= lo <= hi",
                               lambda r: _is_range(r, low=0, integers=True)),
            clutter_rate=0, noise_pos=0, noise_vel=0, noise_rcs=0, n_sweeps=1, sweep_period=0,
            condition=CONDITION_RULE, n_frames=1)


@dataclass
class PerturbSpec:
    translation_sigma: float = 0.0  # m, per BEV axis
    scale_sigma: float = 0.0        # relative, per size axis
    yaw_sigma: float = 0.0          # rad
    velocity_sigma: float = 0.0     # m/s per component
    drop_prob: float = 0.0
    fp_rate: float = 0.0            # expected false positives per frame
    attr_flip_prob: float = 0.0
    score_range: tuple = (0.5, 1.0)
    fp_position_range: float = 45.0

    def __post_init__(self):
        check_settings(self, translation_sigma=0, scale_sigma=0, yaw_sigma=0, velocity_sigma=0,
                       drop_prob=UNIT_INTERVAL, fp_rate=0, attr_flip_prob=UNIT_INTERVAL,
                       score_range=("two numbers 0 <= lo <= hi <= 1",
                                    lambda r: _is_range(r, 0.0, 1.0)),
                       fp_position_range=POSITIVE)


def _default_attribute(cls: str, speed: float) -> str | None:
    if cls in _VEHICLES:
        return "vehicle.moving" if speed > 0.2 else "vehicle.stopped"
    if cls == "pedestrian":
        return "pedestrian.moving" if speed > 0.2 else "pedestrian.standing"
    if cls in ("motorcycle", "bicycle"):
        return "cycle.with_rider"
    return None  # cones and barriers carry no attribute


def _sample_class(mix: dict, rng: np.random.Generator) -> str:
    names = sorted(mix)
    probs = np.array([mix[n] for n in names], dtype=float)
    probs /= probs.sum()
    return names[int(rng.choice(len(names), p=probs))]


def _footprint_point(box: Box3D, rng: np.random.Generator) -> tuple[float, float]:
    u = rng.uniform(-box.w / 2.0, box.w / 2.0)
    v = rng.uniform(-box.l / 2.0, box.l / 2.0)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    # length axis v along heading, width axis u across it
    return box.x + v * c - u * s, box.y + v * s + u * c


def _radial_return(px: float, py: float, vx_obj: float, vy_obj: float,
                   noise_vel: float, rng: np.random.Generator) -> tuple[float, float]:
    r = math.hypot(px, py)
    if r < 1e-9:
        return 0.0, 0.0
    ux, uy = px / r, py / r
    speed = vx_obj * ux + vy_obj * uy + rng.normal(0.0, noise_vel)
    return speed * ux, speed * uy


def generate_scene(spec: SceneSpec, rng: np.random.Generator,
                   frame_id: str = "frame_000") -> tuple[PointCloud, list[Box3D]]:
    """One frame: ground-truth boxes plus their multi-sweep radar returns."""
    boxes: list[Box3D] = []
    for _ in range(spec.n_objects):
        cls = _sample_class(spec.class_mix, rng)
        w, l, h = CLASS_SIZES[cls]
        radius = math.hypot(w, l) / 2.0
        placed = False
        for _ in range(200):
            x = rng.uniform(-spec.position_range, spec.position_range)
            y = rng.uniform(-spec.position_range, spec.position_range)
            clear = all(
                math.hypot(x - b.x, y - b.y)
                > radius + math.hypot(b.w, b.l) / 2.0
                for b in boxes
            )
            if clear and math.hypot(x, y) > EGO_KEEP_OUT:
                placed = True
                break
        if not placed:
            raise RuntimeError("could not place objects without overlap")
        yaw = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(*spec.speed_range)
        boxes.append(Box3D(
            x=x, y=y, z=h / 2.0, w=w, l=l, h=h, yaw=yaw,
            vx=speed * math.cos(yaw), vy=speed * math.sin(yaw),
            class_name=cls, attribute=_default_attribute(cls, speed),
        ))

    points: list[tuple] = []  # PointCloud rows
    area = (2.0 * spec.position_range) ** 2
    for sweep in range(spec.n_sweeps):
        dt = sweep * spec.sweep_period
        for box in boxes:
            n = int(rng.integers(spec.points_per_object[0], spec.points_per_object[1] + 1))
            # replay the scene dt seconds back under constant velocity
            past = Box3D(x=box.x - box.vx * dt, y=box.y - box.vy * dt, z=box.z,
                         w=box.w, l=box.l, h=box.h, yaw=box.yaw,
                         vx=box.vx, vy=box.vy, class_name=box.class_name)
            for _ in range(n):
                px, py = _footprint_point(past, rng)
                px += rng.normal(0.0, spec.noise_pos)
                py += rng.normal(0.0, spec.noise_pos)
                vx, vy = _radial_return(px, py, box.vx, box.vy, spec.noise_vel, rng)
                rcs = _BASE_RCS[box.class_name] + rng.normal(0.0, spec.noise_rcs)
                points.append((px, py, 0.0, vx, vy, rcs, dt, sweep))
        n_clutter = int(rng.poisson(spec.clutter_rate * area))
        for _ in range(n_clutter):
            px = rng.uniform(-spec.position_range, spec.position_range)
            py = rng.uniform(-spec.position_range, spec.position_range)
            points.append((px, py, 0.0, 0.0, 0.0, rng.normal(-10.0, spec.noise_rcs), dt, sweep))
    return PointCloud(frame_id=frame_id, points=points), boxes


def perturb_to_predictions(gt: list[Box3D], spec: PerturbSpec,
                           rng: np.random.Generator) -> list[Box3D]:
    """Detector stand-in: perturb ground truth per the spec and score it.

    Translation noise is independent N(0, sigma^2) on each BEV axis, so the
    expected center error of a kept box is sigma * sqrt(pi / 2).
    """
    preds: list[Box3D] = []
    for box in gt:
        if rng.random() < spec.drop_prob:
            continue
        attr = box.attribute
        if attr is not None and rng.random() < spec.attr_flip_prob:
            others = [a for a in ATTRIBUTES if a != attr]
            attr = others[int(rng.choice(len(others)))]
        scale = np.exp(rng.normal(0.0, spec.scale_sigma, size=3)) if spec.scale_sigma > 0 \
            else np.ones(3)
        preds.append(Box3D(
            x=box.x + rng.normal(0.0, spec.translation_sigma),
            y=box.y + rng.normal(0.0, spec.translation_sigma),
            z=box.z,
            w=box.w * scale[0], l=box.l * scale[1], h=box.h * scale[2],
            yaw=box.yaw + rng.normal(0.0, spec.yaw_sigma),
            vx=box.vx + rng.normal(0.0, spec.velocity_sigma),
            vy=box.vy + rng.normal(0.0, spec.velocity_sigma),
            class_name=box.class_name,
            attribute=attr,
            score=float(rng.uniform(*spec.score_range)),
        ))
    for _ in range(int(rng.poisson(spec.fp_rate))):
        cls = CLASS_NAMES[int(rng.choice(len(CLASS_NAMES)))]
        w, l, h = CLASS_SIZES[cls]
        speed = rng.uniform(0.0, 10.0)
        yaw = rng.uniform(-math.pi, math.pi)
        preds.append(Box3D(
            x=rng.uniform(-spec.fp_position_range, spec.fp_position_range),
            y=rng.uniform(-spec.fp_position_range, spec.fp_position_range),
            z=h / 2.0, w=w, l=l, h=h, yaw=yaw,
            vx=speed * math.cos(yaw), vy=speed * math.sin(yaw),
            class_name=cls, attribute=_default_attribute(cls, speed),
            score=float(rng.uniform(*spec.score_range)),
        ))
    return preds
