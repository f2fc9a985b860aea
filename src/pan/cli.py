"""Command-line front end: gen / backbone / eval / nds / bench / safety.

Every subcommand is a thin wrapper over the library. All randomness flows
from an explicit --seed (falling back to the PAN_SEED environment
variable), so identical invocations produce byte-identical output files.
Errors exit nonzero with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import io as pio
from .backbone import EnhancerConfig, count_work, init_backbone, load_params, pan_backbone, save_params
from .metrics import CONDITIONS, EvalConfig, FrameAnnotations, evaluate, format_report_table, nds
from .pillars import PillarConfig
from .safety import KMH_TO_MS, SafetyInput, braking_distance, reaction_distance, total_stopping_distance
from .synth import PerturbSpec, SceneSpec, generate_scene, perturb_to_predictions
from .tensor import Rng, check_field, field_error, require


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("PAN_SEED")
    if env is None:
        raise ValueError("no --seed given and PAN_SEED is not set")
    return _integer(env, "PAN_SEED")


def _apply_section(cls, data, section: str, path):
    if not isinstance(data, dict):
        raise ValueError(f"{path}: section {section!r} must be a JSON object, "
                         f"got {json.dumps(data)}")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"{path}: section {section!r}: unknown keys: {', '.join(unknown)}")
    try:
        return cls(**data)
    except ValueError as exc:
        raise ValueError(f"{path}: section {section!r}: {exc}") from None


def _load_sections(path, kind: str, sections: dict) -> dict:
    """The sections of a ``--config`` or ``--spec`` file, one JSON object of
    objects, each built by its dataclass in ``sections``; a section the file
    leaves out, and every section when ``path`` is None, is not in the result."""
    data = {} if path is None else pio.read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: must be a JSON object of {kind} sections, "
                         f"got {type(data).__name__}")
    unknown = sorted(set(data) - set(sections))
    if unknown:
        raise ValueError(f"{path}: unknown {kind} sections: {', '.join(unknown)}")
    return {name: _apply_section(cls, data[name], name, path)
            for name, cls in sections.items() if name in data}


def _load_or_init_params(spec: str, pillar_cfg, enh_cfg):
    if spec.startswith("random:"):
        seed = _integer(spec.split(":", 1)[1], "SEED in --params random:SEED")
        return init_backbone(pillar_cfg, enh_cfg, Rng(seed))
    return load_params(spec, pillar_cfg, enh_cfg)


def _backbone_inputs(args):
    """Configs, parameters and point clouds shared by ``backbone`` and ``bench``."""
    config = _load_sections(args.config, "config",
                            {"pillar": PillarConfig, "enhancer": EnhancerConfig})
    pillar_cfg = config.get("pillar", PillarConfig())
    enh_cfg = config.get("enhancer", EnhancerConfig())
    if args.no_conv:
        enh_cfg = dataclasses.replace(enh_cfg, conv_enabled=False)
    params = _load_or_init_params(args.params, pillar_cfg, enh_cfg)
    clouds = pio.read_points_jsonl(args.points)
    if not clouds:
        raise ValueError("points file holds no frames")
    return pillar_cfg, enh_cfg, params, clouds


def _frame_path(base: Path, frame_id: str, multi: bool) -> Path:
    if not multi:
        return base
    name = f"{base.stem}_{frame_id}{base.suffix}"
    require(Path(name).name == name and "\0" not in name, "frame", "usable in a file name",
            frame_id)
    return base.with_name(name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    spec = _load_sections(args.spec, "spec", {"scene": SceneSpec, "perturb": PerturbSpec})
    scene_spec, perturb_spec = spec.get("scene", SceneSpec()), spec.get("perturb")
    rng = Rng(_resolve_seed(args.seed))
    clouds, frames = [], []
    for k in range(scene_spec.n_frames):
        frame_id = f"frame_{k:03d}"
        cloud, gt = generate_scene(scene_spec, rng, frame_id=frame_id)
        pred = perturb_to_predictions(gt, perturb_spec, rng) if perturb_spec else []
        clouds.append(cloud)
        frames.append(FrameAnnotations(frame_id=frame_id, condition=scene_spec.condition,
                                       gt=gt, pred=pred))
    pio.write_points_jsonl(args.out_points, clouds)
    pio.write_boxes_jsonl(args.out_boxes, frames)
    n_points = sum(len(c) for c in clouds)
    n_gt = sum(len(f.gt) for f in frames)
    n_pred = sum(len(f.pred) for f in frames)
    print(f"frames={len(clouds)} points={n_points} gt_boxes={n_gt} pred_boxes={n_pred}")
    return 0


def cmd_backbone(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    pillar_cfg, enh_cfg, params, clouds = _backbone_inputs(args)
    multi = len(clouds) > 1
    paths = [(_frame_path(Path(args.out), cloud.frame_id, multi),
              args.viz and _frame_path(Path(args.viz), cloud.frame_id, multi))
             for cloud in clouds]

    def run(cloud):
        return pan_backbone(cloud, params, pillar_cfg, enh_cfg, training=False)

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        outputs = list(pool.map(run, clouds))
    # every map is converted, and so checked, before the first file is written
    payloads = [pio.panf_payload(path, feat) for feat, (path, _) in zip(outputs, paths)]
    if args.save_params:
        save_params(args.save_params, params)

    for cloud, feat, payload, (path, viz_path) in zip(clouds, outputs, payloads, paths):
        pio.write_feature_map(path, payload)
        print(f"{cloud.frame_id}: wrote {path} shape={'x'.join(map(str, feat.shape))}")
        if viz_path:
            pio.write_heatmap_pgm(viz_path, pio.channel_sum(feat))
            print(f"{cloud.frame_id}: wrote {viz_path}")
    return 0


def _parse_range(text: str) -> tuple:
    lo, _, hi = text.partition(":")
    try:
        return (float(lo), float(hi))
    except ValueError:
        raise ValueError(f"--range must be lo:hi in metres, e.g. 0:25, got {text!r}") from None


def cmd_eval(args) -> int:
    frames = pio.read_boxes_jsonl(args.boxes)
    cfg = EvalConfig()
    condition = None if args.condition in (None, "all") else args.condition
    band = _parse_range(args.range) if args.range else None
    report = evaluate(frames, cfg, condition=condition, range_band=band)
    if args.report:
        # serialised before the file is opened, so an error leaves no partial report
        text = json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n"
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(format_report_table(report))
    return 0


def cmd_nds(args) -> int:
    value = nds(args.map, [args.ate, args.ase, args.aoe, args.ave, args.aae])
    print(f"{value:.4f}")
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {args.repeats}")
    pillar_cfg, enh_cfg, params, clouds = _backbone_inputs(args)
    for cloud in clouds:
        work = count_work(cloud, pillar_cfg, enh_cfg)
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            pan_backbone(cloud, params, pillar_cfg, enh_cfg, training=False)
            times.append(time.perf_counter() - start)
        print(
            f"frame={cloud.frame_id} P={work.pillar_count} "
            f"median_ms={1000.0 * statistics.median(times):.3f} "
            f"attention_macs={work.attention_macs} "
            f"dense_macs={work.dense_equivalent_macs} "
            f"ratio={work.sparse_dense_ratio:.6f}"
        )
    return 0


def cmd_safety(args) -> int:
    speed = args.speed_kmh
    check_field("speed_kmh", speed, 0)
    try:
        inp = SafetyInput(v0=speed * KMH_TO_MS, mu=args.mu, t_r=args.tr)
    except ValueError as exc:
        # past the checks above SafetyInput rejects v0 only as too large: name the typed speed
        if not str(exc).startswith("field 'v0'"):
            raise
        raise field_error("speed_kmh", "small enough for a finite stopping distance",
                          speed) from None
    print(f"braking_distance_m={braking_distance(inp):.2f}")
    print(f"reaction_distance_m={reaction_distance(inp):.2f}")
    print(f"total_stopping_distance_m={total_stopping_distance(inp):.2f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pan",
        description="sparse radar pillar-attention backbone and evaluation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic radar scene dataset")
    p.add_argument("--spec", help="JSON file with 'scene' and optional 'perturb' sections")
    p.add_argument("--seed", type=int, help="random seed (default: PAN_SEED)")
    p.add_argument("--out-points", required=True)
    p.add_argument("--out-boxes", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("backbone", help="run the backbone over a points file")
    p.add_argument("--points", required=True)
    p.add_argument("--config", help="JSON file with 'pillar'/'enhancer' sections")
    p.add_argument("--params", default="random:0",
                   help="parameter JSON file, or random:SEED")
    p.add_argument("--out", required=True, help="output feature map (.panf)")
    p.add_argument("--viz", help="optional heatmap PGM path")
    p.add_argument("--no-conv", action="store_true",
                   help="skip the convolution stage (enhanced grid output)")
    p.add_argument("--save-params", help="write the parameters actually used")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_backbone)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--boxes", required=True)
    p.add_argument("--range", help="BEV range band, e.g. 0:25 or 25:50; write a band "
                   "that starts with '-' as --range=LO:HI")
    p.add_argument("--condition", choices=list(CONDITIONS) + ["all"], default="all")
    p.add_argument("--report", help="write the full report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("nds", help="combine mAP and TP errors into the detection score")
    p.add_argument("--map", type=float, required=True)
    p.add_argument("--ate", type=float, required=True)
    p.add_argument("--ase", type=float, required=True)
    p.add_argument("--aoe", type=float, required=True)
    p.add_argument("--ave", type=float, required=True)
    p.add_argument("--aae", type=float, required=True)
    p.set_defaults(func=cmd_nds)

    p = sub.add_parser("bench", help="time the backbone and report work counts")
    p.add_argument("--points", required=True)
    p.add_argument("--config", help="JSON file with 'pillar'/'enhancer' sections")
    p.add_argument("--params", default="random:0")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--no-conv", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("safety", help="stopping-distance envelope for a given speed")
    p.add_argument("--speed-kmh", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.7)
    p.add_argument("--tr", type=float, default=1.0)
    p.set_defaults(func=cmd_safety)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
