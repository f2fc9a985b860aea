"""Scene generation, perturbation oracle, and file-format tests."""

import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pan.io import (
    channel_sum,
    read_boxes_jsonl,
    read_feature_map,
    read_points_jsonl,
    write_boxes_jsonl,
    write_feature_map,
    write_heatmap_pgm,
    write_points_jsonl,
)
from pan.metrics import EvalConfig, FrameAnnotations, evaluate
from pan.pillars import SWEEP_OFFSET, VX, VY, X, Y, PointCloud
from pan.synth import CLASS_SIZES, PerturbSpec, SceneSpec, generate_scene, perturb_to_predictions
from pan.tensor import Rng


# one bad value per case: the spec section, its fields, the field the error names
BAD_SPECS = [
    ("scene", {"condition": "fog"}, "condition"),
    ("scene", {"n_objects": -1}, "n_objects"),
    ("scene", {"n_objects": 2.5}, "n_objects"),
    ("scene", {"n_frames": 0}, "n_frames"),
    ("scene", {"n_sweeps": 0}, "n_sweeps"),
    ("scene", {"sweep_period": -0.1}, "sweep_period"),
    ("scene", {"points_per_object": [-3, 2]}, "points_per_object"),
    ("scene", {"points_per_object": [5, 2]}, "points_per_object"),
    ("scene", {"points_per_object": [1.5, 2]}, "points_per_object"),
    ("scene", {"position_range": -1.0}, "position_range"),
    ("scene", {"position_range": 0.0}, "position_range"),
    ("scene", {"speed_range": [12.0, 0.0]}, "speed_range"),
    ("scene", {"clutter_rate": -0.01}, "clutter_rate"),
    ("scene", {"noise_pos": -0.1}, "noise_pos"),
    ("scene", {"noise_rcs": "loud"}, "noise_rcs"),
    ("scene", {"class_mix": {"car": -1.0, "bus": 2.0}}, "class_mix"),
    ("scene", {"class_mix": {"car": 0.0}}, "class_mix"),
    ("scene", {"class_mix": {"tank": 1.0}}, "class_mix"),
    ("perturb", {"translation_sigma": -0.5}, "translation_sigma"),
    ("perturb", {"scale_sigma": -0.1}, "scale_sigma"),
    ("perturb", {"yaw_sigma": -0.1}, "yaw_sigma"),
    ("perturb", {"velocity_sigma": -0.1}, "velocity_sigma"),
    ("perturb", {"fp_rate": -1.0}, "fp_rate"),
    ("perturb", {"drop_prob": 1.5}, "drop_prob"),
    ("perturb", {"score_range": [0.5, 1.5]}, "score_range"),
    ("perturb", {"score_range": [0.9, 0.1]}, "score_range"),
    ("perturb", {"score_range": [-0.1, 0.5]}, "score_range"),
    ("perturb", {"fp_position_range": -1.0}, "fp_position_range"),
]


class TestSpecValidation:
    @pytest.mark.parametrize("section, fields, name", BAD_SPECS)
    def test_bad_value_names_field(self, section, fields, name):
        spec = SceneSpec if section == "scene" else PerturbSpec
        with pytest.raises(ValueError, match=rf"^field '{name}' must be .*, got "):
            spec(**fields)

    def test_edge_values_valid(self):
        SceneSpec(n_objects=0, speed_range=(10.0, 10.0), points_per_object=(0, 0),
                  sweep_period=0.0, class_mix={"car": 1.0, "bus": 0.0})
        PerturbSpec(drop_prob=1.0, score_range=(1.0, 1.0), fp_rate=0.0)


class TestGenerateScene:
    def test_empty_spec(self):
        spec = SceneSpec(n_objects=0, clutter_rate=0.0)
        pc, gt = generate_scene(spec, Rng(0))
        assert len(pc) == 0 and gt == []

    def test_fixed_seed_reproducible(self):
        spec = SceneSpec(n_objects=5)
        pc_a, gt_a = generate_scene(spec, Rng(123))
        pc_b, gt_b = generate_scene(spec, Rng(123))
        assert pc_a.frame_id == pc_b.frame_id
        assert np.array_equal(pc_a.points, pc_b.points)
        assert gt_a == gt_b

    def test_static_object_radial_doppler_near_zero(self):
        spec = SceneSpec(n_objects=1, class_mix={"car": 1.0},
                         speed_range=(0.0, 0.0), clutter_rate=0.0,
                         noise_vel=0.05, n_sweeps=1)
        pc, gt = generate_scene(spec, Rng(7))
        assert gt[0].vx == 0.0 and gt[0].vy == 0.0
        for x, y, vx, vy in pc.points[:, [X, Y, VX, VY]]:
            r = math.hypot(x, y)
            radial = (vx * x + vy * y) / r
            assert abs(radial) < 5 * spec.noise_vel

    def test_boxes_inside_configured_range(self):
        spec = SceneSpec(n_objects=6, position_range=30.0)
        _, gt = generate_scene(spec, Rng(5))
        for b in gt:
            assert abs(b.x) <= 30.0 and abs(b.y) <= 30.0

    def test_returns_lie_on_inflated_footprints(self):
        spec = SceneSpec(n_objects=3, clutter_rate=0.0, n_sweeps=1, noise_pos=0.05)
        pc, gt = generate_scene(spec, Rng(11))
        for x, y in pc.points[:, [X, Y]]:
            ok = False
            for b in gt:
                dx, dy = x - b.x, y - b.y
                c, s = math.cos(b.yaw), math.sin(b.yaw)
                along = dx * c + dy * s
                across = -dx * s + dy * c
                pad = 4 * spec.noise_pos
                if abs(along) <= b.l / 2 + pad and abs(across) <= b.w / 2 + pad:
                    ok = True
                    break
            assert ok, f"return ({x:.2f}, {y:.2f}) outside every footprint"

    def test_sweeps_move_backward_under_constant_velocity(self):
        spec = SceneSpec(n_objects=1, class_mix={"car": 1.0}, speed_range=(10.0, 10.0),
                         clutter_rate=0.0, noise_pos=0.0, n_sweeps=3, sweep_period=0.5)
        pc, gt = generate_scene(spec, Rng(3))
        box = gt[0]
        for x, y, dt in pc.points[:, [X, Y, SWEEP_OFFSET]]:
            expected_cx = box.x - box.vx * dt
            expected_cy = box.y - box.vy * dt
            d = math.hypot(x - expected_cx, y - expected_cy)
            assert d <= math.hypot(box.w, box.l) / 2 + 1e-9

    def test_overlap_failure_raises(self):
        spec = SceneSpec(n_objects=50, class_mix={"bus": 1.0}, position_range=5.0)
        with pytest.raises(RuntimeError):
            generate_scene(spec, Rng(0))


class TestPerturb:
    def test_zero_perturbation_is_identity_detector(self):
        _, gt = generate_scene(SceneSpec(n_objects=6), Rng(2))
        preds = perturb_to_predictions(gt, PerturbSpec(), Rng(3))
        assert len(preds) == len(gt)
        frames = [FrameAnnotations("f", "day", gt=gt, pred=preds)]
        report = evaluate(frames, EvalConfig())
        assert report.mean_ap == 1.0
        assert all(v == 0.0 for v in report.tp.values())
        assert report.nds == 1.0

    def test_drop_probability_one_removes_everything(self):
        _, gt = generate_scene(SceneSpec(n_objects=5), Rng(4))
        preds = perturb_to_predictions(gt, PerturbSpec(drop_prob=1.0), Rng(5))
        assert preds == []
        frames = [FrameAnnotations("f", "day", gt=gt, pred=preds)]
        report = evaluate(frames, EvalConfig())
        assert report.mean_ap == 0.0

    def test_translation_sigma_monte_carlo_ate(self):
        # boxes on a wide grid so greedy matching is unambiguous
        rng = Rng(6)
        sigma = 0.2
        gt = []
        for i in range(40):
            for j in range(40):
                w, l, h = CLASS_SIZES["car"]
                from pan.metrics import Box3D
                gt.append(Box3D(x=-400 + 20.0 * i, y=-400 + 20.0 * j, z=h / 2,
                                w=w, l=l, h=h, yaw=0.0, vx=0.0, vy=0.0,
                                class_name="car", attribute="vehicle.stopped"))
        preds = perturb_to_predictions(gt, PerturbSpec(translation_sigma=sigma), rng)
        errors = [math.hypot(p.x - g.x, p.y - g.y) for p, g in zip(preds, gt)]
        measured = float(np.mean(errors))
        expected = sigma * math.sqrt(math.pi / 2.0)  # Rayleigh mean
        assert abs(measured - expected) / expected < 0.05

    def test_false_positive_rate(self):
        _, gt = generate_scene(SceneSpec(n_objects=2), Rng(8))
        preds = perturb_to_predictions(gt, PerturbSpec(fp_rate=30.0), Rng(9))
        assert len(preds) > len(gt)

    def test_each_perturbation_channel_moves_its_metric(self):
        _, gt = generate_scene(SceneSpec(n_objects=10, class_mix={"car": 1.0},
                                         position_range=35.0), Rng(30))
        cfg = EvalConfig()

        def tp_of(spec, seed):
            preds = perturb_to_predictions(gt, spec, Rng(seed))
            report = evaluate([FrameAnnotations("f", "day", gt=gt, pred=preds)], cfg)
            return report.tp

        assert tp_of(PerturbSpec(scale_sigma=0.2), 31)["ase"] > 0.0
        assert tp_of(PerturbSpec(yaw_sigma=0.3), 32)["aoe"] > 0.0
        assert tp_of(PerturbSpec(velocity_sigma=0.5), 33)["ave"] > 0.0
        assert tp_of(PerturbSpec(attr_flip_prob=1.0), 34)["aae"] == 1.0
        clean = tp_of(PerturbSpec(), 35)
        assert all(v == 0.0 for v in clean.values())


class TestJsonl:
    def test_points_round_trip_byte_identical(self, tmp_path):
        spec = SceneSpec(n_objects=4, n_frames=2)
        rng = Rng(10)
        clouds = [generate_scene(spec, rng, frame_id=f"frame_{k:03d}")[0] for k in range(2)]
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_points_jsonl(p1, clouds)
        write_points_jsonl(p2, read_points_jsonl(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_boxes_round_trip_byte_identical(self, tmp_path):
        rng = Rng(11)
        _, gt = generate_scene(SceneSpec(n_objects=5), rng)
        preds = perturb_to_predictions(gt, PerturbSpec(translation_sigma=0.3, fp_rate=2.0), rng)
        frames = [FrameAnnotations("frame_000", "rain", gt=gt, pred=preds)]
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_boxes_jsonl(p1, frames)
        write_boxes_jsonl(p2, read_boxes_jsonl(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_points_schema_fields(self, tmp_path):
        cloud, _ = generate_scene(SceneSpec(n_objects=1, clutter_rate=0.0), Rng(12))
        path = tmp_path / "pts.jsonl"
        write_points_jsonl(path, [cloud])
        first = json.loads(path.read_text().splitlines()[0])
        assert list(first) == ["frame", "x", "y", "z", "vx", "vy", "rcs", "sweep", "dt"]
        assert isinstance(first["sweep"], int)

    def test_boxes_schema_fields(self, tmp_path):
        _, gt = generate_scene(SceneSpec(n_objects=1), Rng(13))
        preds = perturb_to_predictions(gt, PerturbSpec(), Rng(14))
        frames = [FrameAnnotations("frame_000", "night", gt=gt, pred=preds)]
        path = tmp_path / "boxes.jsonl"
        write_boxes_jsonl(path, frames)
        lines = [json.loads(s) for s in path.read_text().splitlines()]
        gt_rec = next(r for r in lines if r["role"] == "gt")
        pred_rec = next(r for r in lines if r["role"] == "pred")
        assert "score" not in gt_rec
        assert "score" in pred_rec
        assert gt_rec["condition"] == "night"
        assert list(gt_rec) == ["frame", "role", "class", "cx", "cy", "cz", "w", "l",
                                "h", "yaw", "vx", "vy", "attr", "condition"]

    def test_boxes_unknown_role_rejected(self, tmp_path):
        _, gt = generate_scene(SceneSpec(n_objects=2), Rng(15))
        path = tmp_path / "boxes.jsonl"
        write_boxes_jsonl(path, [FrameAnnotations("frame_000", "day", gt=gt)])
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["role"] = "foo"
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"boxes\.jsonl:2: field 'role'"):
            read_boxes_jsonl(path)

    def _points_file(self, tmp_path):
        cloud, _ = generate_scene(SceneSpec(n_objects=2, clutter_rate=0.0), Rng(16))
        path = tmp_path / "points.jsonl"
        write_points_jsonl(path, [cloud])
        return path, path.read_text().splitlines()

    def _boxes_file(self, tmp_path, preds=False):
        """Two gt records, then (with ``preds``) their two predictions."""
        _, gt = generate_scene(SceneSpec(n_objects=2), Rng(17))
        pred = perturb_to_predictions(gt, PerturbSpec(), Rng(18)) if preds else []
        path = tmp_path / "boxes.jsonl"
        write_boxes_jsonl(path, [FrameAnnotations("frame_000", "day", gt=gt, pred=pred)])
        return path, path.read_text().splitlines()

    @staticmethod
    def _drop_field(lines, index, field):
        rec = json.loads(lines[index])
        del rec[field]
        lines[index] = json.dumps(rec)

    def test_points_missing_field_names_line(self, tmp_path):
        path, lines = self._points_file(tmp_path)
        self._drop_field(lines, 2, "z")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"points\.jsonl:3: missing field 'z'"):
            read_points_jsonl(path)

    def test_boxes_missing_field_names_line(self, tmp_path):
        path, lines = self._boxes_file(tmp_path)
        self._drop_field(lines, 1, "cx")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"boxes\.jsonl:2: missing field 'cx'"):
            read_boxes_jsonl(path)

    def test_boxes_invalid_json_names_line(self, tmp_path):
        path, lines = self._boxes_file(tmp_path)
        lines.insert(1, "")  # blank lines are skipped but still counted
        lines[2] = lines[2].replace(",", ";", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"boxes\.jsonl:3: invalid JSON"):
            read_boxes_jsonl(path)

    @staticmethod
    def _set_raw(lines, index, field, token):
        """Put a raw JSON number token (NaN, Infinity, 1e999, ...) in a field."""
        rec = json.loads(lines[index])
        rec[field] = "@@"
        lines[index] = json.dumps(rec).replace('"@@"', token)

    @pytest.mark.parametrize("field, token", [
        ("vx", "NaN"), ("x", "Infinity"), ("rcs", "-Infinity"), ("dt", "1e999"),
        ("sweep", "NaN"),
        # integers too large for a float
        pytest.param("x", "1" + "0" * 400, id="x-1e400"),
        pytest.param("rcs", "-1" + "0" * 400, id="rcs--1e400"),
        pytest.param("sweep", "1" + "0" * 400, id="sweep-1e400"),
    ])
    def test_points_non_finite_field_names_line(self, tmp_path, field, token):
        path, lines = self._points_file(tmp_path)
        self._set_raw(lines, 2, field, token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"points\.jsonl:3: field '{field}' is not finite"):
            read_points_jsonl(path)

    def test_points_finite_fields_whose_sum_overflows_read(self, tmp_path):
        path, lines = self._points_file(tmp_path)
        self._set_raw(lines, 0, "x", "1e308")
        self._set_raw(lines, 0, "y", "1e308")
        path.write_text("\n".join(lines) + "\n")
        first = read_points_jsonl(path)[0].points[0]
        assert first[X] == first[Y] == 1e308

    @pytest.mark.parametrize("field, token, name", [
        ("cx", "NaN", "cx"), ("w", "NaN", "w"), ("yaw", "Infinity", "yaw"), ("vy", "-1e999", "vy"),
        pytest.param("cx", "1" + "0" * 400, "cx", id="cx-1e400-cx"),
        pytest.param("yaw", "-1" + "0" * 400, "yaw", id="yaw--1e400-yaw"),
    ])
    def test_boxes_non_finite_field_names_line(self, tmp_path, field, token, name):
        path, lines = self._boxes_file(tmp_path)
        self._set_raw(lines, 1, field, token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"boxes\.jsonl:2: field '{name}' is not finite"):
            read_boxes_jsonl(path)

    @pytest.mark.parametrize("token", ["2.5", "2.0", "true", "false"])
    def test_points_sweep_not_integer_rejected(self, tmp_path, token):
        path, lines = self._points_file(tmp_path)
        self._set_raw(lines, 2, "sweep", token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"points\.jsonl:3: field 'sweep' must be an "
                                             rf"integer, got {token}$"):
            read_points_jsonl(path)

    @pytest.mark.parametrize("token", ["null", "3", '["frame_000"]'])
    def test_points_frame_not_string_rejected(self, tmp_path, token):
        path, lines = self._points_file(tmp_path)
        self._set_raw(lines, 2, "frame", token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"points\.jsonl:3: field 'frame' must be a "
                                             rf"string, got {re.escape(token)}$"):
            read_points_jsonl(path)

    @pytest.mark.parametrize("field, token", [
        ("rcs", "true"), ("dt", "false"), ("x", '"1.5"'), ("vx", "null"), ("y", "[1.0]"),
    ])
    def test_points_number_field_not_a_number_rejected(self, tmp_path, field, token):
        path, lines = self._points_file(tmp_path)
        self._set_raw(lines, 2, field, token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"points\.jsonl:3: field '{field}' must be a "
                                             rf"number, got {re.escape(token)}$"):
            read_points_jsonl(path)

    @pytest.mark.parametrize("field, token", [
        ("w", "true"), ("cz", "false"), ("cx", '"1.5"'), ("vy", "null"), ("score", "true"),
        ("score", "null"),
    ])
    def test_boxes_number_field_not_a_number_rejected(self, tmp_path, field, token):
        path, lines = self._boxes_file(tmp_path, preds=True)
        self._set_raw(lines, 2, field, token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"boxes\.jsonl:3: field '{field}' must be a "
                                             rf"number, got {re.escape(token)}$"):
            read_boxes_jsonl(path)

    def test_boxes_unknown_condition_rejected(self, tmp_path):
        path, lines = self._boxes_file(tmp_path)
        self._set_raw(lines, 0, "condition", '"fog"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"boxes\.jsonl:1: field 'condition' must be one of "
                                             r'day, rain, night, got "fog"$'):
            read_boxes_jsonl(path)

    def test_boxes_conditions_of_one_frame_must_agree(self, tmp_path):
        path, lines = self._boxes_file(tmp_path)
        self._set_raw(lines, 1, "condition", '"rain"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"boxes\.jsonl:2: field 'condition' is \"rain\", "
                                             r"but earlier records of frame 'frame_000' say 'day'$"):
            read_boxes_jsonl(path)

    @pytest.mark.parametrize("token", ["null", "7", '["frame_000"]'])
    def test_boxes_frame_not_string_rejected(self, tmp_path, token):
        path, lines = self._boxes_file(tmp_path)
        self._set_raw(lines, 1, "frame", token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"boxes\.jsonl:2: field 'frame' must be a "
                                             rf"string, got {re.escape(token)}$"):
            read_boxes_jsonl(path)

    def test_boxes_pred_without_score_rejected(self, tmp_path):
        path, lines = self._boxes_file(tmp_path, preds=True)
        self._drop_field(lines, 3, "score")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"boxes\.jsonl:4: field 'score' is required for "
                                             r"role 'pred'$"):
            read_boxes_jsonl(path)

    def test_boxes_gt_with_score_rejected(self, tmp_path):
        path, lines = self._boxes_file(tmp_path)
        self._set_raw(lines, 1, "score", "0.5")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"boxes\.jsonl:2: field 'score' is only for "
                                             r"role 'pred'$"):
            read_boxes_jsonl(path)

    @pytest.mark.parametrize("token", ["5", "true", "[]", "{}"])
    def test_boxes_attr_not_string_rejected(self, tmp_path, token):
        path, lines = self._boxes_file(tmp_path)
        self._set_raw(lines, 1, "attr", token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"boxes\.jsonl:2: field 'attr' must be a string "
                                             rf"or null, got {re.escape(token)}$"):
            read_boxes_jsonl(path)

    def test_boxes_unknown_attr_string_read(self, tmp_path):
        # an unknown attribute is data, not a format error: AAE counts it as wrong
        path, lines = self._boxes_file(tmp_path)
        self._set_raw(lines, 1, "attr", '"vehicle.flying"')
        path.write_text("\n".join(lines) + "\n")
        assert read_boxes_jsonl(path)[0].gt[1].attribute == "vehicle.flying"

    @pytest.mark.parametrize("fields, message", [
        ({"w": "-1.0"}, "field 'w' must be positive, got -1.0"),
        ({"l": "-1.0", "h": "0.0"}, "field 'l' must be positive, got -1.0"),
        ({"h": "0"}, "field 'h' must be positive, got 0"),
        ({"score": "1.5"}, "field 'score' must be in [0, 1], got 1.5"),
        ({"class": '"tank"'}, "field 'class' must be one of car, truck, bus, trailer, "
                              "construction_vehicle, pedestrian, motorcycle, bicycle, "
                              'traffic_cone, barrier, got "tank"'),
    ])
    def test_boxes_invalid_value_names_field(self, tmp_path, fields, message):
        path, lines = self._boxes_file(tmp_path, preds=True)
        for field, token in fields.items():
            self._set_raw(lines, 2, field, token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"boxes\.jsonl:3: {re.escape(message)}$"):
            read_boxes_jsonl(path)

    # every example rewrites the file, so sharing tmp_path between them is safe
    @given(st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_points_random_clouds_round_trip(self, tmp_path, data):
        number = st.floats(allow_nan=False, allow_infinity=False)
        row = st.tuples(*[number] * 7, st.integers(-2 ** 53, 2 ** 53))
        n_frames = data.draw(st.integers(1, 3))
        clouds = [PointCloud(f"frame_{k}", data.draw(st.lists(row, min_size=1, max_size=12)))
                  for k in range(n_frames)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_points_jsonl(p1, clouds)
        back = read_points_jsonl(p1)
        write_points_jsonl(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        assert [c.frame_id for c in back] == [c.frame_id for c in clouds]
        for got, want in zip(back, clouds):
            assert got.points.shape == want.points.shape
            assert got.points.tobytes() == want.points.tobytes()  # -0.0 too

    # every example rewrites the file, so sharing tmp_path between them is safe
    @given(st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_points_truncated_line_names_line(self, tmp_path, data):
        path, lines = self._points_file(tmp_path)
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i][:data.draw(st.integers(1, len(lines[i]) - 1))]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"points\.jsonl:{i + 1}: invalid JSON"):
            read_points_jsonl(path)


class TestFeatureMapFormat:
    def test_panf_round_trip(self, tmp_path):
        data = Rng(15).normal(size=(4, 6, 3))
        path = tmp_path / "f.panf"
        write_feature_map(path, data)
        back = read_feature_map(path)
        assert back.shape == (4, 6, 3)
        assert np.allclose(back, data, atol=1e-6)  # float32 storage
        raw = path.read_bytes()
        assert raw[:4] == b"PANF"
        assert int.from_bytes(raw[4:8], "little") == 4
        assert int.from_bytes(raw[8:12], "little") == 6
        assert int.from_bytes(raw[12:16], "little") == 3

    def test_panf_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.panf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match=r"bad\.panf: not a PANF file"):
            read_feature_map(path)

    @pytest.mark.parametrize("cut, problem", [
        (lambda raw: raw[:6], "truncated PANF header"),
        (lambda raw: raw[:-4], "truncated PANF payload"),
        (lambda raw: raw + bytes(8), "trailing bytes after PANF payload"),
    ], ids=["short-header", "short-payload", "trailing-bytes"])
    def test_panf_malformed_names_file(self, tmp_path, cut, problem):
        path = tmp_path / "odd.panf"
        write_feature_map(path, np.ones((2, 2, 1)))
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(ValueError, match=rf"odd\.panf: {problem}"):
            read_feature_map(path)

    @pytest.mark.parametrize("dims", [(2**20, 2**20, 2**10), (0xFFFFFFFF,) * 3],
                             ids=["beyond-memory", "beyond-index"])
    def test_panf_oversized_header_is_truncated_payload(self, tmp_path, dims):
        path = tmp_path / "huge.panf"
        path.write_bytes(b"PANF" + struct.pack("<III", *dims) + bytes(8))
        with pytest.raises(ValueError, match=r"huge\.panf: truncated PANF payload"):
            read_feature_map(path)

    def test_pgm_header_and_normalization(self, tmp_path):
        values = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "m.pgm"
        write_heatmap_pgm(path, values)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        pixels = list(raw[len(b"P5\n2 2\n255\n"):])
        assert pixels == [0, 64, 128, 255]  # peak maps to 255

    def test_pgm_all_nonpositive(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_heatmap_pgm(path, np.full((2, 2), -1.0))
        raw = path.read_bytes()
        assert raw.endswith(bytes(4))

    def test_channel_sum(self):
        data = np.arange(24, dtype=float).reshape(2, 3, 4)
        assert np.array_equal(channel_sum(data), data.sum(axis=2))
