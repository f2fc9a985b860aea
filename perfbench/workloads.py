"""The benchmark's four workloads: inputs, set-up, one op, and its check.

Every workload is driven through pan's public functions only. Inputs are
made from the workload seed with ``pan.synth`` and written with
``pan.io``; set-up reads them back through ``pan.io``. pan is imported
inside the functions so that a fresh worker's set-up time covers the
import.

An op is one ``pan_backbone`` frame, one eval split or one fusion call.
Ops cycle through a workload's distinct inputs; ``cycle`` is their number.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

# timed ops a run needs at least: 100 leave ten beyond p90; "tiny" inputs
# and op counts keep the self-test fast
MIN_OPS = {"full": 100, "tiny": 6}

EVAL_SPLITS = (  # (label, condition, range band)
    ("all", None, None),
    ("0-25m", None, (0.0, 25.0)),
    ("25-50m", None, (25.0, 50.0)),
    ("day", "day", None),
    ("rain", "rain", None),
    ("night", "night", None),
)


@dataclass
class State:
    """What set-up leaves for the ops: pan modules, inputs, parameters."""

    mods: dict
    inputs: list
    cfg: dict = field(default_factory=dict)
    params: object = None


def _pan_modules() -> dict:
    import pan.backbone
    import pan.fusion
    import pan.io
    import pan.layers
    import pan.metrics
    import pan.pillars
    import pan.tensor
    return {"backbone": pan.backbone, "fusion": pan.fusion, "io": pan.io,
            "layers": pan.layers, "metrics": pan.metrics, "pillars": pan.pillars,
            "tensor": pan.tensor}


class FrameWorkload:
    """One default-config ``pan_backbone`` call per op over a few scenes."""

    def __init__(self, scene: dict, tiny_scene: dict, frames: int):
        self.scene, self.tiny_scene, self.frames = scene, tiny_scene, frames

    def generate(self, seed: int, size: str, work: Path) -> None:
        from pan import io as pio
        from pan.synth import SceneSpec, generate_scene
        from pan.tensor import Rng
        spec = SceneSpec(**(self.scene if size == "full" else self.tiny_scene))
        rng = Rng(seed)
        frames = self.frames if size == "full" else 2
        clouds = [generate_scene(spec, rng, frame_id=f"frame_{k:03d}")[0]
                  for k in range(frames)]
        pio.write_points_jsonl(work / "points.jsonl", clouds)

    def read_inputs(self, mods: dict, work: Path):
        return mods["io"].read_points_jsonl(work / "points.jsonl")

    def setup(self, work: Path, seed: int, size: str) -> State:
        mods = _pan_modules()
        clouds = self.read_inputs(mods, work)
        pillar_cfg = mods["pillars"].PillarConfig()
        enh_cfg = mods["backbone"].EnhancerConfig(dropout_p=0.0)
        params = mods["backbone"].init_backbone(pillar_cfg, enh_cfg,
                                                mods["tensor"].Rng(seed + 1))
        return State(mods, clouds, {"pillar": pillar_cfg, "enhancer": enh_cfg}, params)

    def cycle(self, state: State) -> int:
        return len(state.inputs)

    def op(self, state: State, i: int):
        cloud = state.inputs[i % len(state.inputs)]
        return state.mods["backbone"].pan_backbone(
            cloud, state.params, state.cfg["pillar"], state.cfg["enhancer"], training=False)

    def corrupt(self, output):
        output = output.copy()
        output[0, 0, 0] += 1e-6
        return output

    # -- reference check ---------------------------------------------------

    def _grid(self, state: State) -> dict:
        c = state.cfg["pillar"]
        return {"x_min": c.x_min, "y_min": c.y_min, "pillar_size": c.pillar_size,
                "height": c.height, "width": c.width,
                "max_points_per_pillar": c.max_points_per_pillar}

    def _ref_params(self, state: State) -> dict:
        p, e, cfg = state.params.pfn, state.params.enhancer, state.cfg["enhancer"]
        prm = {"pfn.lin": (p.lin.weight, p.lin.bias),
               "pfn.bn": (p.bn_stats.mean, p.bn_stats.var, p.bn_gamma, p.bn_beta),
               "ln": (e.ln_gamma, e.ln_beta), "num_heads": cfg.num_heads,
               "use_attn_out": cfg.use_attn_out, "conv_enabled": cfg.conv_enabled}
        for name in ("enc", "q", "k", "v", "attn_out", "mlp1", "mlp2", "dec"):
            lp = getattr(e, name)
            prm[name] = (lp.weight, lp.bias)
        for name in ("conv1", "conv2"):
            st = getattr(e, name)
            prm[f"{name}.kernel"], prm[f"{name}.bias"] = st.kernel, st.bias
            prm[f"{name}.bn"] = (st.bn_stats.mean, st.bn_stats.var, st.bn_gamma, st.bn_beta)
        return prm

    def reference_inputs(self, state: State, work: Path) -> list:
        frames = oracles.read_jsonl_by_frame(work / "points.jsonl")
        return [oracles.points_array(recs) for recs in frames.values()]

    def check(self, state: State, refs: list, i: int, output) -> str | None:
        pts = refs[i % len(refs)]
        want = oracles.backbone_reference(pts, self._grid(state), self._ref_params(state))
        err = oracles.max_abs_error(output, want)
        scale = max(1.0, float(abs(want).max(initial=0.0)))
        if not err <= oracles.BACKBONE_TOL * scale:
            return f"op {i}: max abs error {err:.3g} against the backbone reference"
        return None

    def input_counts(self, state: State, refs: list) -> list[dict]:
        """Per distinct input: the counts the traced run must reproduce."""
        grid = self._grid(state)
        pc, ec = state.cfg["pillar"], state.cfg["enhancer"]
        out = []
        for pts, cloud in zip(refs, state.inputs):
            binned = oracles.bin_points(pts, grid)
            mask = oracles.occupancy_mask(binned["cells"], grid["height"], grid["width"])
            p = binned["pillar_count"]
            counts = {key: binned[key] for key in
                      ("points_in", "pillar_count", "points_out_of_range", "points_truncated")}
            counts.update(
                token_macs=oracles.token_macs(p, pc.out_channels, ec.embed_dim, ec.use_attn_out),
                dense_token_macs=oracles.token_macs(grid["height"] * grid["width"],
                                                    pc.out_channels, ec.embed_dim,
                                                    ec.use_attn_out),
                conv_macs=oracles.conv_macs(grid["height"], grid["width"], pc.out_channels,
                                            ec.conv_kernel),
                conv_useful_share=oracles.conv_useful_share(mask, ec.conv_kernel),
            )
            work = state.mods["backbone"].count_work(cloud, pc, ec)
            if (work.pillar_count, work.attention_macs, work.dense_equivalent_macs,
                    work.conv_macs) != (p, counts["token_macs"], counts["dense_token_macs"],
                                        counts["conv_macs"]):
                raise AssertionError(f"count_work disagrees with the benchmark's counts: {work}")
            out.append(counts)
        return out


class EvalWorkload:
    """``read_boxes_jsonl`` then ``evaluate`` of one split per op, as ``pan eval`` does."""

    def generate(self, seed: int, size: str, work: Path) -> None:
        from pan import io as pio
        from pan.metrics import CONDITIONS, FrameAnnotations
        from pan.synth import PerturbSpec, SceneSpec, generate_scene, perturb_to_predictions
        from pan.tensor import Rng
        rng = Rng(seed)
        perturb = PerturbSpec(translation_sigma=0.5, scale_sigma=0.1, yaw_sigma=0.1,
                              velocity_sigma=0.3, drop_prob=0.1, fp_rate=3.0,
                              attr_flip_prob=0.05)
        n_frames, n_objects = (50, 30) if size == "full" else (6, 8)
        frames = []
        for k in range(n_frames):
            condition = CONDITIONS[k % len(CONDITIONS)]
            # boxes only: one sweep and no clutter keeps generation cheap
            spec = SceneSpec(n_objects=n_objects, n_sweeps=1, clutter_rate=0.0,
                             points_per_object=(1, 1), condition=condition)
            _, gt = generate_scene(spec, rng, frame_id=f"frame_{k:03d}")
            frames.append(FrameAnnotations(f"frame_{k:03d}", condition, gt=gt,
                                           pred=perturb_to_predictions(gt, perturb, rng)))
        pio.write_boxes_jsonl(work / "boxes.jsonl", frames)

    def read_inputs(self, mods: dict, work: Path):
        return mods["io"].read_boxes_jsonl(work / "boxes.jsonl")

    def setup(self, work: Path, seed: int, size: str) -> State:
        mods = _pan_modules()
        frames = self.read_inputs(mods, work)
        return State(mods, frames, {"eval": mods["metrics"].EvalConfig(), "work": work})

    def cycle(self, state: State) -> int:
        return len(EVAL_SPLITS)

    def op(self, state: State, i: int):
        _, condition, band = EVAL_SPLITS[i % len(EVAL_SPLITS)]
        frames = self.read_inputs(state.mods, state.cfg["work"])
        return state.mods["metrics"].evaluate(frames, state.cfg["eval"],
                                              condition=condition, range_band=band)

    def corrupt(self, report):
        report = copy.deepcopy(report)
        thr = next(iter(report.match_counts))
        report.match_counts[thr] += 1
        return report

    def reference_inputs(self, state: State, work: Path) -> list:
        return oracles.load_eval_frames(work / "boxes.jsonl")

    def _cfg(self, state: State) -> dict:
        c = state.cfg["eval"]
        return {"thresholds": tuple(c.match_thresholds_m), "range_filter": c.range_filter,
                "min_recall": c.min_recall, "min_precision": c.min_precision,
                "tp_threshold": c.tp_threshold_m}

    def check(self, state: State, refs: list, i: int, report) -> str | None:
        label, condition, band = EVAL_SPLITS[i % len(EVAL_SPLITS)]
        want = oracles.eval_reference(refs, self._cfg(state), condition, band)
        where = f"op {i} ({label})"
        for key in ("n_frames", "n_gt", "n_pred", "empty"):
            if getattr(report, key) != want[key]:
                return f"{where}: {key} {getattr(report, key)} != {want[key]}"
        if want["empty"]:
            return None
        if report.match_counts != want["match_counts"]:
            return f"{where}: match_counts {report.match_counts} != {want['match_counts']}"
        got = {"ap": report.ap, "class_tp": report.class_tp, "mean_ap": report.mean_ap,
               "tp": report.tp, "nds": report.nds}
        for key in got:
            problem = _compare_floats(got[key], want[key], oracles.EVAL_TOL, key)
            if problem:
                return f"{where}: {problem}"
        return None

    def input_counts(self, state: State, refs: list) -> list[dict]:
        """Per split: the (frame, class, threshold) triples one matching pass needs."""
        cfg = self._cfg(state)
        n_thresholds = len(set(cfg["thresholds"]) | {cfg["tp_threshold"]})
        out = []
        for _, condition, band in EVAL_SPLITS:
            want = oracles.eval_reference(refs, cfg, condition, band)
            classes = 0 if want["empty"] else len(want["ap"])
            out.append({"match_triples": want["n_frames"] * classes * n_thresholds})
        return out


def _compare_floats(got, want, tol: float, path: str) -> str | None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"
        for key in want:
            problem = _compare_floats(got[key], want[key], tol, f"{path}[{key}]")
            if problem:
                return problem
        return None
    if got is None or not abs(got - want) <= tol * max(1.0, abs(want)):
        return f"{path}: {got!r} != {want!r}"
    return None


class FusionWorkload:
    """``occupancy_head`` plus ``mdca`` over a radar map and a second modality."""

    heads, points, value_dim = 8, 4, 32
    # 128 queries: 8 heads x 2 maps x K=4 gives 8,192 samples per call, and
    # 100 calls of the per-sample loop fit the run's time budget
    query_lattice = (8, 16)
    radar_shape, second_shape = (64, 64, 96), (32, 32, 64)

    def generate(self, seed: int, size: str, work: Path) -> None:
        from pan import io as pio
        from pan.tensor import Rng
        rng = Rng(seed)
        pio.write_feature_map(work / "radar.panf", rng.normal(size=self.radar_shape))
        pio.write_feature_map(work / "second.panf", rng.normal(size=self.second_shape))

    def read_inputs(self, mods: dict, work: Path):
        return [mods["io"].read_feature_map(work / "radar.panf"),
                mods["io"].read_feature_map(work / "second.panf")]

    def setup(self, work: Path, seed: int, size: str) -> State:
        mods = _pan_modules()
        fusion, layers = mods["fusion"], mods["layers"]
        radar_data, second_data = self.read_inputs(mods, work)
        span_m = 100.0  # both maps cover the default +-50 m BEV range
        radar = fusion.BevFeatureMap(radar_data, span_m / radar_data.shape[0])
        second = fusion.BevFeatureMap(second_data, span_m / second_data.shape[0])
        rng = mods["tensor"].Rng(seed + 1)
        params = fusion.init_mcda(radar.channels, [radar.channels, second.channels],
                                  radar.channels, self.heads, self.points,
                                  self.value_dim, rng)
        # fan-in init predicts offsets of about half the map; deformable
        # attention samples a few cells around the reference point
        off = params.offset_net
        params.offset_net = layers.LinearParams(off.weight * 0.03, off.bias * 0.03)
        occupancy = layers.init_linear(radar.channels, 1, rng)
        rows, cols = self.query_lattice if size == "full" else (2, 2)
        cells = [(radar.height // rows * a + radar.height // rows // 2,
                  radar.width // cols * b + radar.width // cols // 2)
                 for a in range(rows) for b in range(cols)]
        queries = radar.data[[i for i, _ in cells], [j for _, j in cells]]
        refs = [[j / (radar.width - 1), i / (radar.height - 1)] for i, j in cells]
        return State(mods, [(queries, np.array(refs))],
                     {"maps": [radar, second], "occupancy": occupancy}, params)

    def cycle(self, state: State) -> int:
        return 1

    def op(self, state: State, i: int):
        fusion = state.mods["fusion"]
        radar, second = state.cfg["maps"]
        queries, refs = state.inputs[0]
        occ = fusion.occupancy_head(radar, state.cfg["occupancy"])
        return occ.probs, fusion.mdca(queries, refs, [radar, second], state.params)

    def corrupt(self, output):
        probs, out = output
        out = out.copy()
        out[0, 0] += 1e-6
        return probs, out

    def reference_inputs(self, state: State, work: Path) -> list:
        def read(path):
            raw = Path(path).read_bytes()
            h, w, c = np.frombuffer(raw[4:16], dtype="<u4")
            return np.frombuffer(raw[16:], dtype="<f4").reshape(h, w, c).astype(np.float64)

        return [read(work / "radar.panf"), read(work / "second.panf")]

    def check(self, state: State, refs: list, i: int, output) -> str | None:
        p = state.params
        prm = {"heads": p.heads, "points": p.points_per_head,
               "offset": (p.offset_net.weight, p.offset_net.bias),
               "weight": (p.weight_net.weight, p.weight_net.bias),
               "value": [[(lp.weight, lp.bias) for lp in row] for row in p.value_proj],
               "out": [(lp.weight, lp.bias) for lp in p.out_proj]}
        if not p.normalize_jointly:
            raise ValueError("the fusion reference normalizes weights jointly")
        occ = state.cfg["occupancy"]
        queries, ref_points = state.inputs[0]
        want_probs = oracles.occupancy_reference(refs[0], (occ.weight, occ.bias))
        want_out = oracles.mdca_reference(queries, ref_points, refs, prm)
        probs, out = output
        for label, got, want in (("occupancy", probs, want_probs), ("mdca", out, want_out)):
            err = oracles.max_abs_error(got, want)
            if not err <= oracles.FUSION_TOL * max(1.0, float(abs(want).max())):
                return f"op {i}: {label} max abs error {err:.3g} against the fusion reference"
        return None

    def input_counts(self, state: State, refs: list) -> list[dict]:
        queries, _ = state.inputs[0]
        return [{"samples": len(queries) * self.heads * len(state.cfg["maps"]) * self.points}]


DENSE_SCENE = {"n_objects": 60, "clutter_rate": 0.01, "class_mix": {"car": 1.0}}

# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "frame_sparse": FrameWorkload(scene={}, tiny_scene={"n_objects": 3}, frames=4),
    # cars only: over 30 scenes P varied by 1.6% (sd) against 4.3% with the
    # default class mix, whose few buses and trucks swing P, the attention
    # cost (~P^2) and the peak memory from seed to seed
    "frame_dense": FrameWorkload(scene=DENSE_SCENE, tiny_scene=dict(DENSE_SCENE, n_objects=20),
                                 frames=4),
    "eval_splits": EvalWorkload(),
    "fusion_mdca": FusionWorkload(),
}
