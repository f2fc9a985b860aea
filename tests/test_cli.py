"""Command-line interface tests (in-process via main())."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pan.cli import main
from pan.io import read_feature_map
from pan.metrics import CONDITIONS

from test_synth_io import BAD_SPECS


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def scene_files(tmp_path):
    spec = {
        "scene": {"n_objects": 4, "n_frames": 2, "position_range": 20.0},
        "perturb": {"translation_sigma": 0.2, "fp_rate": 1.0},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    points = tmp_path / "points.jsonl"
    boxes = tmp_path / "boxes.jsonl"
    code = main(["gen", "--spec", str(spec_path), "--seed", "5",
                 "--out-points", str(points), "--out-boxes", str(boxes)])
    assert code == 0
    return points, boxes


def small_config(tmp_path):
    cfg = {
        "pillar": {"x_min": -20.0, "x_max": 20.0, "y_min": -20.0, "y_max": 20.0,
                   "pillar_size": 2.5, "out_channels": 4},
        "enhancer": {"embed_dim": 8, "dropout_p": 0.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def loader_rejections(kind, first, second):
    """A ``--config`` or ``--spec`` text that the section loader rejects, and
    its error; PATH stands for the file's path."""
    return [
        ("[1, 2]", f"PATH: must be a JSON object of {kind} sections, got list"),
        (f'{{"{first}": 5}}', f"PATH: section '{first}' must be a JSON object, got 5"),
        (f'{{"{second}": null}}', f"PATH: section '{second}' must be a JSON object, got null"),
        (f'{{"{first}": {{}},\n "{second}": }}', "PATH:2: invalid JSON (Expecting value)"),
        (f'{{"{first}": {{}}, "extra": {{}}}}', f"PATH: unknown {kind} sections: extra"),
        (f'{{"{second}": {{"zz": 1, "extra": 2}}}}',
         f"PATH: section '{second}': unknown keys: extra, zz"),
    ]


class TestGen:
    def test_writes_both_files_and_counts(self, tmp_path, capsys):
        points = tmp_path / "p.jsonl"
        boxes = tmp_path / "b.jsonl"
        code, out, _ = run(["gen", "--seed", "1", "--out-points", str(points),
                            "--out-boxes", str(boxes)], capsys)
        assert code == 0
        assert points.exists() and boxes.exists()
        assert "frames=1" in out and "points=" in out

    def test_seed_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PAN_SEED", "77")
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        code, _, _ = run(["gen", "--out-points", str(a), "--out-boxes", str(b)], capsys)
        assert code == 0
        monkeypatch.delenv("PAN_SEED")
        code, _, err = run(["gen", "--out-points", str(a), "--out-boxes", str(b)], capsys)
        assert code == 1
        assert "PAN_SEED" in err

    def test_seed_from_environment_must_be_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PAN_SEED", "abc")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        code, out, err = run(["gen", "--out-points", str(a), "--out-boxes", str(b)], capsys)
        assert code == 1 and out == ""
        assert err == "error: PAN_SEED must be an integer, got 'abc'\n"
        assert not a.exists() and not b.exists()

    @pytest.mark.parametrize("section, fields, name", BAD_SPECS)
    def test_bad_spec_value_names_field(self, tmp_path, capsys, section, fields, name):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({section: fields}))
        points, boxes = tmp_path / "p.jsonl", tmp_path / "b.jsonl"
        code, _, err = run(["gen", "--spec", str(spec_path), "--seed", "1",
                            "--out-points", str(points), "--out-boxes", str(boxes)], capsys)
        assert code == 1
        assert err.startswith(f"error: {spec_path}: section '{section}': field '{name}' must be ")
        assert not points.exists() and not boxes.exists()

    @pytest.mark.parametrize("text, message", loader_rejections("spec", "scene", "perturb"))
    def test_malformed_spec_file_rejected(self, tmp_path, capsys, text, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        points, boxes = tmp_path / "p.jsonl", tmp_path / "b.jsonl"
        code, out, err = run(["gen", "--spec", str(spec_path), "--seed", "1",
                              "--out-points", str(points), "--out-boxes", str(boxes)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message.replace('PATH', str(spec_path))}\n"
        assert not points.exists() and not boxes.exists()

    def test_identical_invocations_byte_identical(self, tmp_path, capsys):
        outs = []
        for tag in ("x", "y"):
            points = tmp_path / f"p_{tag}.jsonl"
            boxes = tmp_path / f"b_{tag}.jsonl"
            code, _, _ = run(["gen", "--seed", "42", "--out-points", str(points),
                              "--out-boxes", str(boxes)], capsys)
            assert code == 0
            outs.append((points.read_bytes(), boxes.read_bytes()))
        assert outs[0] == outs[1]


class TestBackbone:
    def test_runs_and_writes_feature_maps(self, tmp_path, capsys, scene_files):
        points, _ = scene_files
        out = tmp_path / "feat.panf"
        viz = tmp_path / "feat.pgm"
        code, stdout, _ = run([
            "backbone", "--points", str(points), "--config", str(small_config(tmp_path)),
            "--params", "random:3", "--out", str(out), "--viz", str(viz),
        ], capsys)
        assert code == 0
        # two frames -> frame-id suffixed files
        feat = read_feature_map(tmp_path / "feat_frame_000.panf")
        assert feat.shape == (8, 8, 12)
        assert (tmp_path / "feat_frame_000.pgm").exists()
        assert "frame_000" in stdout and "frame_001" in stdout

    def test_bad_points_file_writes_nothing(self, tmp_path, capsys):
        points = tmp_path / "bad.jsonl"
        points.write_text('{"frame": "f", "x": 1.0}\n')
        params_path = tmp_path / "sp.json"
        code, out, err = run(["backbone", "--points", str(points), "--save-params",
                              str(params_path), "--out", str(tmp_path / "o.panf")], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {points}:1: missing field 'y'\n"
        assert not params_path.exists()
        assert not list(tmp_path.glob("o*.panf"))

    @pytest.mark.parametrize("bad", ["b/c", "b\0c"])
    def test_frame_id_unusable_in_a_file_name_writes_nothing(self, tmp_path, capsys, bad):
        # the paths of every frame are derived before the first frame runs
        points = tmp_path / "points.jsonl"
        points.write_text("".join(
            json.dumps({"frame": frame, "x": 1.0, "y": 2.0, "z": 0.0, "vx": 0.0, "vy": 0.0,
                        "rcs": 1.0, "sweep": 0, "dt": 0.0}) + "\n" for frame in ("a", bad)))
        params_path = tmp_path / "sp.json"
        code, out, err = run(["backbone", "--points", str(points), "--out",
                              str(tmp_path / "feat.panf"), "--viz", str(tmp_path / "feat.pgm"),
                              "--save-params", str(params_path)], capsys)
        assert code == 1 and out == ""
        assert err == ("error: field 'frame' must be usable in a file name, "
                       f"got {json.dumps(bad)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["points.jsonl"]

    @pytest.mark.parametrize("command", ["backbone", "bench"])
    @pytest.mark.parametrize("seed", ["abc", ""])
    def test_random_params_seed_must_be_an_integer(self, tmp_path, capsys, scene_files,
                                                   command, seed):
        points, _ = scene_files
        capsys.readouterr()
        flags = ["--out", str(tmp_path / "o.panf")] if command == "backbone" else []
        code, out, err = run([command, "--points", str(points), "--params", f"random:{seed}",
                              *flags], capsys)
        assert code == 1 and out == ""
        assert err == f"error: SEED in --params random:SEED must be an integer, got {seed!r}\n"
        assert not list(tmp_path.glob("o*.panf"))

    def test_no_conv_shape(self, tmp_path, capsys, scene_files):
        points, _ = scene_files
        out = tmp_path / "feat.panf"
        code, _, _ = run([
            "backbone", "--points", str(points), "--config", str(small_config(tmp_path)),
            "--params", "random:3", "--out", str(out), "--no-conv",
        ], capsys)
        assert code == 0
        feat = read_feature_map(tmp_path / "feat_frame_000.panf")
        assert feat.shape == (16, 16, 4)

    def test_save_and_reuse_params(self, tmp_path, capsys, scene_files):
        points, _ = scene_files
        params_path = tmp_path / "params.json"
        cfg = small_config(tmp_path)
        code, _, _ = run(["backbone", "--points", str(points), "--config", str(cfg),
                          "--params", "random:9", "--save-params", str(params_path),
                          "--out", str(tmp_path / "a.panf")], capsys)
        assert code == 0
        code, _, _ = run(["backbone", "--points", str(points), "--config", str(cfg),
                          "--params", str(params_path),
                          "--out", str(tmp_path / "b.panf")], capsys)
        assert code == 0
        assert (tmp_path / "a_frame_000.panf").read_bytes() == \
            (tmp_path / "b_frame_000.panf").read_bytes()

    def test_threads_do_not_change_output(self, tmp_path, capsys, scene_files):
        points, _ = scene_files
        cfg = small_config(tmp_path)
        for tag, threads in (("one", "1"), ("four", "4")):
            code, _, _ = run(["backbone", "--points", str(points), "--config", str(cfg),
                              "--params", "random:2", "--threads", threads,
                              "--out", str(tmp_path / f"{tag}.panf")], capsys)
            assert code == 0
        assert (tmp_path / "one_frame_000.panf").read_bytes() == \
            (tmp_path / "four_frame_000.panf").read_bytes()

    def test_panf_bytes_do_not_depend_on_blas_threads(self, tmp_path, capsys):
        # float64 outputs differ by up to ~1e-15 between one and two OpenBLAS
        # threads on the 60-car sweep scene; the float32 file must not differ
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"scene": {"n_objects": 60, "clutter_rate": 0.01,
                                              "class_mix": {"car": 1.0}}}))
        points = tmp_path / "points.jsonl"
        code, _, _ = run(["gen", "--spec", str(spec), "--seed", "1", "--out-points", str(points),
                          "--out-boxes", str(tmp_path / "boxes.jsonl")], capsys)
        assert code == 0
        maps = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas_{threads}.panf"
            subprocess.run([sys.executable, "-m", "pan", "backbone", "--points", str(points),
                            "--out", str(out)], check=True, capture_output=True, timeout=300,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            maps.append(out.read_bytes())
        assert maps[0] == maps[1]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, scene_files, threads):
        points, _ = scene_files
        code, out, err = run(["backbone", "--points", str(points), "--threads", threads,
                              "--out", str(tmp_path / "o.panf")], capsys)
        assert code == 1 and "wrote" not in out
        assert err == f"error: --threads must be at least 1, got {threads}\n"
        assert not list(tmp_path.glob("o*.panf"))

    def test_params_overflowing_float32_write_nothing(self, tmp_path, capsys, scene_files):
        # a conv2 bias of 1e39 is finite in float64 but inf in the float32 file
        points, _ = scene_files
        cfg = small_config(tmp_path)
        saved = tmp_path / "saved.json"
        code, _, _ = run(["backbone", "--points", str(points), "--config", str(cfg),
                          "--save-params", str(saved), "--out", str(tmp_path / "a.panf")],
                         capsys)
        assert code == 0
        records = json.loads(saved.read_text())
        next(r for r in records if r["name"] == "conv2.bias")["values"][0] = 1e39
        big = tmp_path / "big.json"
        big.write_text(json.dumps(records))
        again = tmp_path / "again.json"
        code, out, err = run(["backbone", "--points", str(points), "--config", str(cfg),
                              "--params", str(big), "--save-params", str(again),
                              "--out", str(tmp_path / "b.panf")], capsys)
        assert code == 1 and out == ""
        assert err == (f"error: {tmp_path / 'b_frame_000.panf'}: feature map value 1e+39 "
                       "is not a finite float32\n")
        assert not list(tmp_path.glob("b*.panf")) and not again.exists()

    def test_non_finite_later_frame_writes_no_earlier_map(self, tmp_path, capsys,
                                                           scene_files, monkeypatch):
        # every frame's map is converted before the first file is written
        import pan.cli

        def backbone(cloud, *args, **kwargs):
            return np.full((2, 2, 1), math.nan if cloud.frame_id == "frame_001" else 1.0)

        monkeypatch.setattr(pan.cli, "pan_backbone", backbone)
        points, _ = scene_files
        capsys.readouterr()
        code, out, err = run(["backbone", "--points", str(points),
                              "--out", str(tmp_path / "feat.panf")], capsys)
        assert code == 1 and out == ""
        assert err == (f"error: {tmp_path / 'feat_frame_001.panf'}: feature map value nan "
                       "is not a finite float32\n")
        assert not list(tmp_path.glob("feat*.panf"))

    def test_unknown_config_key_fails(self, tmp_path, capsys, scene_files):
        points, _ = scene_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pillar": {"grid_cells": 64}}))
        code, _, err = run(["backbone", "--points", str(points), "--config", str(bad),
                            "--params", "random:0", "--out", str(tmp_path / "o.panf")],
                           capsys)
        assert code == 1
        assert "grid_cells" in err


    @pytest.mark.parametrize("section, key, value", [
        ("pillar", "raw_channels", 7), ("enhancer", "dropout_after_softmax", True),
        ("enhancer", "use_attn_out", True),
    ])
    def test_removed_config_keys_fail(self, tmp_path, capsys, scene_files, section, key, value):
        points, _ = scene_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {key: value}}))
        code, out, err = run(["backbone", "--points", str(points), "--config", str(bad),
                              "--out", str(tmp_path / "o.panf")], capsys)
        assert code == 1 and "wrote" not in out
        assert err == f"error: {bad}: section '{section}': unknown keys: {key}\n"


    @pytest.mark.parametrize("section, fields, name", [
        ("enhancer", {"embed_dim": 0}, "embed_dim"),
        ("pillar", {"out_channels": 0}, "out_channels"),
        ("pillar", {"x_min": math.nan}, "x_min"),
        ("pillar", {"max_points_per_pillar": 2.5}, "max_points_per_pillar"),
        ("pillar", {"pillar_size": "1"}, "pillar_size"),
        ("enhancer", {"dropout_p": None}, "dropout_p"),
        ("enhancer", {"num_heads": True}, "num_heads"),
        ("enhancer", {"conv_kernel": 3.0}, "conv_kernel"),
        ("enhancer", {"conv_enabled": "yes"}, "conv_enabled"),
        ("pillar", {"x_max": -60.0}, "x_max"),
        ("enhancer", {"conv_kernel": 2}, "conv_kernel"),
        ("enhancer", {"conv_kernel": 4, "conv_enabled": False}, "conv_kernel"),
    ])
    def test_degenerate_config_names_field(self, tmp_path, capsys, scene_files,
                                           section, fields, name):
        points, _ = scene_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: fields}))
        code, out, err = run(["backbone", "--points", str(points), "--config", str(bad),
                              "--out", str(tmp_path / "o.panf")], capsys)
        assert code == 1 and "wrote" not in out
        assert err.startswith(f"error: {bad}: section '{section}': field '{name}' ")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("o*.panf"))

    @pytest.mark.parametrize("command", ["backbone", "bench"])
    @pytest.mark.parametrize("text, message", loader_rejections("config", "pillar", "enhancer"))
    def test_malformed_config_file_rejected(self, tmp_path, capsys, scene_files,
                                            command, text, message):
        points, _ = scene_files
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        flags = ["--out", str(tmp_path / "o.panf")] if command == "backbone" else []
        code, out, err = run([command, "--points", str(points), "--config", str(bad), *flags],
                             capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message.replace('PATH', str(bad))}\n"
        assert not list(tmp_path.glob("o*.panf"))

    @pytest.mark.parametrize("pillar, name", [
        ({"x_min": -1e308, "x_max": 1e308}, "x_max"),
        ({"y_min": -1e308, "y_max": 1e308}, "y_max"),
        ({"x_min": -1e6, "x_max": 1e6, "y_min": -1e6, "y_max": 1e6, "pillar_size": 0.5},
         "pillar_size"),
        ({"y_min": 0.0, "y_max": 1e-12, "pillar_size": 1.0, "x_min": 0.0, "x_max": 4.0},
         "y_max"),
    ])
    def test_grid_cell_count_out_of_bounds_names_field(self, tmp_path, capsys, scene_files,
                                                       pillar, name):
        points, _ = scene_files
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pillar": pillar}))
        code, out, err = run(["backbone", "--points", str(points), "--config", str(bad),
                              "--out", str(tmp_path / "o.panf")], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: section 'pillar': field '{name}' ")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("o*.panf"))

    def test_params_file_syntax_error_names_line(self, tmp_path, capsys, scene_files):
        points, _ = scene_files
        capsys.readouterr()
        params_path = tmp_path / "params.json"
        params_path.write_text('[{"name": "pfn.lin.weight",\n  "shape": [10, 4],,\n}]\n')
        code, out, err = run(["backbone", "--points", str(points), "--params", str(params_path),
                              "--out", str(tmp_path / "o.panf")], capsys)
        assert code == 1 and out == ""
        assert err == (f"error: {params_path}:2: invalid JSON "
                       "(Expecting property name enclosed in double quotes)\n")
        assert not list(tmp_path.glob("o*.panf"))

    @pytest.mark.parametrize("edit, where, message", [
        (lambda recs: recs[0]["values"].__setitem__(0, "1"), "parameter 'pfn.lin.weight'",
         'field \'values[0]\' must be a number, got "1"'),
        (lambda recs: recs[1]["values"].__setitem__(2, None), "parameter 'pfn.lin.bias'",
         "field 'values[2]' must be a number, got null"),
        (lambda recs: recs[0].pop("name"), "record 0", "field 'name' must be a string, got null"),
        (lambda recs: recs[1]["values"].pop(), "parameter 'pfn.lin.bias'",
         "field 'values' must be a list of 4 numbers, got 3 values"),
        (lambda recs: recs.append({"name": "zzz", "shape": [1], "values": [0.0]}),
         "parameter 'zzz'", 'field \'name\' must be a backbone parameter, got "zzz"'),
        (lambda recs: recs[0].update(shape=[1, 2], values=[0.0, 0.0]),
         "parameter 'pfn.lin.weight'", "field 'shape' must be [10, 4], got [1, 2]"),
    ])
    def test_malformed_params_file_names_field(self, tmp_path, capsys, scene_files,
                                               edit, where, message):
        points, _ = scene_files
        cfg = small_config(tmp_path)
        params_path = tmp_path / "params.json"
        code, _, _ = run(["backbone", "--points", str(points), "--config", str(cfg),
                          "--params", "random:9", "--save-params", str(params_path),
                          "--out", str(tmp_path / "a.panf")], capsys)
        assert code == 0
        records = json.loads(params_path.read_text())
        edit(records)
        params_path.write_text(json.dumps(records))
        code, out, err = run(["backbone", "--points", str(points), "--config", str(cfg),
                              "--params", str(params_path), "--out", str(tmp_path / "b.panf")],
                             capsys)
        assert code == 1 and "wrote" not in out
        assert err == f"error: {params_path}: {where}: {message}\n"
        assert not list(tmp_path.glob("b*.panf"))


class TestEval:
    def test_report_and_table(self, tmp_path, capsys, scene_files):
        _, boxes = scene_files
        report_path = tmp_path / "report.json"
        code, out, _ = run(["eval", "--boxes", str(boxes),
                            "--report", str(report_path)], capsys)
        assert code == 0
        assert "NDS" in out
        report = json.loads(report_path.read_text())
        assert set(report) >= {"NDS", "mAP", "mATE", "match_counts"}

    def test_range_and_condition_flags(self, tmp_path, capsys, scene_files):
        _, boxes = scene_files
        code, out, _ = run(["eval", "--boxes", str(boxes), "--range", "0:25",
                            "--condition", "day"], capsys)
        assert code == 0
        assert "day 0-25m" in out

    def test_empty_split(self, tmp_path, capsys, scene_files):
        _, boxes = scene_files
        code, out, _ = run(["eval", "--boxes", str(boxes), "--condition", "night"],
                           capsys)
        assert code == 0
        assert "(empty split)" in out

    @pytest.mark.parametrize("band", ["25", "a:b", "0:25:50"])
    def test_malformed_range_names_flag(self, capsys, scene_files, band):
        _, boxes = scene_files
        code, out, err = run(["eval", "--boxes", str(boxes), "--range", band], capsys)
        assert code == 1 and "NDS" not in out
        assert err.count("\n") == 1
        assert err.startswith("error: --range must be lo:hi")

    @pytest.mark.parametrize("band", ["25:10", "10:10"])
    def test_empty_range_rejected(self, capsys, scene_files, band):
        _, boxes = scene_files
        code, out, err = run(["eval", "--boxes", str(boxes), "--range", band], capsys)
        assert code == 1 and "NDS" not in out
        lo, hi = band.split(":")
        assert err == (f"error: field 'range_filter' must be two numbers lo < hi, "
                       f"got [{float(lo)}, {float(hi)}]\n")

    def test_infinite_lower_range_rejected(self, capsys, scene_files):
        # as EvalConfig's range_filter: only the upper end may be infinite
        _, boxes = scene_files
        code, out, err = run(["eval", "--boxes", str(boxes), "--range=-inf:5"], capsys)
        assert code == 1 and "NDS" not in out
        assert err == "error: field 'range_filter[0]' is not finite\n"


    @pytest.mark.parametrize("size, message", [
        (1e-110, "field 'w' must be large enough for a positive box volume, got 1e-110"),
        (1e200, "field 'w' must be small enough for a finite box volume, got 1e+200"),
    ], ids=["underflow", "overflow"])
    def test_box_volume_outside_float_range_names_size(self, tmp_path, capsys, size,
                                                       message):
        # a matched pair reaches the scale error, so the reader refuses the box
        boxes = tmp_path / "boxes.jsonl"
        box = {"frame": "f", "class": "car", "cx": 1.0, "cy": 2.0, "cz": 0.0, "w": size,
               "l": size, "h": size, "yaw": 0.0, "vx": 0.0, "vy": 0.0, "attr": None,
               "condition": "day"}
        boxes.write_text(json.dumps({**box, "role": "gt"}) + "\n"
                         + json.dumps({**box, "role": "pred", "score": 0.5}) + "\n")
        code, out, err = run(["eval", "--boxes", str(boxes)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {boxes}:1: {message}\n"

    def test_open_band_report_writes_null(self, tmp_path, capsys, scene_files):
        _, boxes = scene_files
        report_path = tmp_path / "inf.json"
        code, out, err = run(["eval", "--boxes", str(boxes), "--range", "0:inf",
                              "--report", str(report_path)], capsys)
        assert code == 0 and err == ""
        assert "all 0-infm" in out
        assert json.loads(report_path.read_text())["range_band"] == [0.0, None]

    def test_identical_huge_boxes_score_perfectly(self, tmp_path, capsys):
        # each volume is 1.25e308, a finite float; the pair's volume sum is not
        box = {"frame": "f", "class": "car", "cx": 1.0, "cy": 2.0, "cz": 0.0, "w": 5e102,
               "l": 5e102, "h": 5e102, "yaw": 0.0, "vx": 0.0, "vy": 0.0,
               "attr": "vehicle.parked", "condition": "day"}
        boxes, report_path = tmp_path / "huge.jsonl", tmp_path / "huge.json"
        boxes.write_text(json.dumps({**box, "role": "gt"}) + "\n"
                         + json.dumps({**box, "role": "pred", "score": 0.5}) + "\n")
        code, _, err = run(["eval", "--boxes", str(boxes), "--report", str(report_path)],
                           capsys)
        assert code == 0 and err == ""
        report = json.loads(report_path.read_text())
        assert report["mASE"] == 0.0
        assert report["NDS"] == pytest.approx(1.0, abs=1e-12)

    def test_no_report_file_on_error(self, tmp_path, capsys, scene_files, monkeypatch):
        # a value JSON cannot hold fails the serialisation before the file is opened
        import pan.metrics

        to_json = pan.metrics.MetricsReport.to_json_dict
        monkeypatch.setattr(pan.metrics.MetricsReport, "to_json_dict",
                            lambda self: {**to_json(self), "mAP": math.nan})
        _, boxes = scene_files
        report_path = tmp_path / "report.json"
        code, out, err = run(["eval", "--boxes", str(boxes), "--report", str(report_path)],
                             capsys)
        assert code == 1 and "NDS" not in out
        assert err == "error: Out of range float values are not JSON compliant: nan\n"
        assert not report_path.exists()

class TestNds:
    def test_published_row(self, capsys):
        code, out, _ = run(["nds", "--map", "0.481", "--ate", "0.488", "--ase", "0.279",
                            "--aoe", "0.404", "--ave", "0.232", "--aae", "0.181"], capsys)
        assert code == 0
        assert out.strip() == "0.5821"

    def test_second_published_row(self, capsys):
        code, out, _ = run(["nds", "--map", "0.490", "--ate", "0.487", "--ase", "0.277",
                            "--aoe", "0.542", "--ave", "0.344", "--aae", "0.197"], capsys)
        assert code == 0
        assert out.strip() == "0.5603"

    def test_perfect_score(self, capsys):
        code, out, _ = run(["nds", "--map", "1", "--ate", "0", "--ase", "0",
                            "--aoe", "0", "--ave", "0", "--aae", "0"], capsys)
        assert code == 0
        assert out.strip() == "1.0000"

    @pytest.mark.parametrize("flag, value, message", [
        ("--ate", "-5", "field 'ate' must be >= 0, got -5.0"),
        ("--ate", "nan", "field 'ate' is not finite"),
        ("--ate", "inf", "field 'ate' is not finite"),
        ("--aae", "-inf", "field 'aae' is not finite"),
    ])
    def test_impossible_tp_error_names_field(self, capsys, flag, value, message):
        errors = {name: "0" for name in ("--ate", "--ase", "--aoe", "--ave", "--aae")}
        errors[flag] = value
        code, out, err = run(["nds", "--map", "0.5", *[f"{k}={v}" for k, v in errors.items()]],
                             capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestBench:
    def test_reports_work_counts(self, tmp_path, capsys, scene_files):
        points, _ = scene_files
        code, out, _ = run(["bench", "--points", str(points),
                            "--config", str(small_config(tmp_path)),
                            "--repeats", "2"], capsys)
        assert code == 0
        for token in ("P=", "median_ms=", "attention_macs=", "dense_macs=", "ratio="):
            assert token in out

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_rejected(self, tmp_path, capsys, scene_files, repeats):
        points, _ = scene_files
        code, out, err = run(["bench", "--points", str(points),
                              "--config", str(small_config(tmp_path)),
                              "--repeats", repeats], capsys)
        assert code == 1 and "median_ms" not in out
        assert err == f"error: --repeats must be at least 1, got {repeats}\n"


class TestSafety:
    def test_prints_three_distances(self, capsys):
        code, out, _ = run(["safety", "--speed-kmh", "50"], capsys)
        assert code == 0
        assert "braking_distance_m=14.05" in out
        assert "reaction_distance_m=13.89" in out
        assert "total_stopping_distance_m=27.93" in out

    def test_invalid_mu(self, capsys):
        code, _, err = run(["safety", "--speed-kmh", "50", "--mu", "0"], capsys)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("flags, name", [
        (["--speed-kmh", "nan"], "speed_kmh"),
        (["--speed-kmh", "inf"], "speed_kmh"),
        (["--speed-kmh", "50", "--mu", "inf"], "mu"),
        (["--speed-kmh", "50", "--tr", "nan"], "t_r"),
    ])
    def test_non_finite_input_names_field(self, capsys, flags, name):
        code, out, err = run(["safety", *flags], capsys)
        assert code == 1 and out == ""
        assert err == f"error: field '{name}' is not finite\n"

    @pytest.mark.parametrize("flags, message", [
        (["--speed-kmh", "1e200"], "field 'speed_kmh' must be small enough for a finite "
                                   "stopping distance, got 1e+200"),
        (["--speed-kmh", "50", "--mu", "1e-320"], "field 'mu' must be large enough for a "
                                                  "finite stopping distance, got 1e-320"),
        (["--speed-kmh", "50", "--tr", "1e308"], "field 't_r' must be small enough for a "
                                                 "finite stopping distance, got 1e+308"),
    ])
    def test_out_of_range_distance_names_field(self, capsys, flags, message):
        code, out, err = run(["safety", *flags], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_negative_speed_names_typed_value(self, capsys):
        # the typed km/h value, not the m/s speed SafetyInput is given
        code, out, err = run(["safety", "--speed-kmh", "-5"], capsys)
        assert code == 1 and out == ""
        assert err == "error: field 'speed_kmh' must be >= 0, got -5.0\n"


class TestEvalGolden:
    """``pan eval`` output pinned byte for byte across the five common splits."""

    SPEC = {
        "scene": {"n_objects": 20, "n_frames": 6, "position_range": 45.0,
                  "n_sweeps": 1, "clutter_rate": 0.0},
        "perturb": {"translation_sigma": 0.6, "scale_sigma": 0.1, "yaw_sigma": 0.2,
                    "velocity_sigma": 0.4, "drop_prob": 0.1, "fp_rate": 3.0,
                    "attr_flip_prob": 0.1},
    }
    SPLITS = {
        "all": [],
        "0:25": ["--range", "0:25"],
        "25:50": ["--range", "25:50"],
        "rain": ["--condition", "rain"],
        "night": ["--condition", "night"],
    }
    # sha256 of (report file, stdout) per split, recorded before evaluate was
    # reduced to one matching pass per (frame, class, threshold)
    GOLDEN = {
        "all": ("5feb378bd971aace25a185222dbd338fac889c2577f4f0e57bc7abb79d56a5d3",
                "383205920e7cdbde6ea6abf6dbdb425166caffbe4bf7c9f2218ae9f92c7c7399"),
        "0:25": ("1ea683d99ce1eeb22a646374c3e083d5aee121de6d223b1597a0800590263a5f",
                 "d4481e668b245dd8de43846e3cd82a7faa22e341ac058af2b8615c9cb2e7434b"),
        "25:50": ("42bb056646080137d4b7f6b5854295f74ef0f813cbbacbc434064bbbbcb22277",
                  "2e560043ce7e92acd2c24c30cb61ff74d71d383e76819c04b03353c19c3e9442"),
        "rain": ("0879511b0098fc32e74bdcd1babf37dd60de2beaa300eb829a08ee886990c06e",
                 "ca09a1317cfd5dd33d0b5987c961958644cb6fa1b5acba98e47f922d9a6cb2a3"),
        "night": ("077cbb12d6fa6b8d02b1631aa813e242394e3c8db9a3418b7105a933387830a4",
                  "052c8abb46ab8d32af520c9d280536b10545a9f98803511ed7bdafd8c6fb4830"),
    }

    @classmethod
    def outputs(cls, tmp_path, capsys) -> dict:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(cls.SPEC))
        points, boxes = tmp_path / "points.jsonl", tmp_path / "boxes.jsonl"
        code, _, _ = run(["gen", "--spec", str(spec_path), "--seed", "11",
                          "--out-points", str(points), "--out-boxes", str(boxes)], capsys)
        assert code == 0
        # gen tags every frame with one condition: spread the frames over all three
        records = [json.loads(line) for line in boxes.read_text().splitlines()]
        for rec in records:
            rec["condition"] = CONDITIONS[int(rec["frame"].rsplit("_", 1)[1]) % 3]
        boxes.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = {}
        for split, flags in cls.SPLITS.items():
            report = tmp_path / f"report_{split.replace(':', '_')}.json"
            code, stdout, err = run(["eval", "--boxes", str(boxes), "--report", str(report),
                                     *flags], capsys)
            assert code == 0, err
            out[split] = (hashlib.sha256(report.read_bytes()).hexdigest(),
                          hashlib.sha256(stdout.encode()).hexdigest())
        return out

    def test_reports_and_tables_byte_identical(self, tmp_path, capsys):
        assert self.outputs(tmp_path, capsys) == self.GOLDEN


class TestPointPathGolden:
    """``pan gen`` points and ``pan backbone`` outputs pinned byte for byte.

    The default scene and grid, with and without the conv tail. The outputs
    are named relative to the working directory so that stdout does not
    depend on where the test runs.
    """

    # sha256 of the points file, and of (.panf, stdout) per backbone run,
    # recorded while a cloud still held one object per point
    POINTS = "6df4547fb448521c465dab3d0e475bda5b10a6d883db2fed1cf90972df0f9720"
    BACKBONE = {
        "conv": ("dfedd372e0d089e7dfc699bc8589b17ae15671acdfcada0d5abceaaa69f517bc",
                 "3e2dc984cebea141a0a253990e22f3b4eedc358604e9c5ed8ae12c8a3132985e"),
        "no-conv": ("0a214522a4cfa1eaa36e1551327305650d99433218ed867a92808c3b42b9be6a",
                    "a4f6dcbbbc6ab049ba91ff80da93eec69df8c80370b576a8c83bb3170c483a55"),
    }

    @staticmethod
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def outputs(self, tmp_path, capsys, monkeypatch) -> tuple:
        monkeypatch.chdir(tmp_path)
        code, _, err = run(["gen", "--seed", "7", "--out-points", "points.jsonl",
                            "--out-boxes", "boxes.jsonl"], capsys)
        assert code == 0, err
        backbone = {}
        for tag, flags in (("conv", []), ("no-conv", ["--no-conv"])):
            out = f"feat_{tag}.panf"
            code, stdout, err = run(["backbone", "--points", "points.jsonl",
                                     "--params", "random:3", "--out", out, *flags], capsys)
            assert code == 0, err
            backbone[tag] = (self.sha((tmp_path / out).read_bytes()), self.sha(stdout.encode()))
        return self.sha((tmp_path / "points.jsonl").read_bytes()), backbone

    def test_points_and_feature_maps_byte_identical(self, tmp_path, capsys, monkeypatch):
        assert self.outputs(tmp_path, capsys, monkeypatch) == (self.POINTS, self.BACKBONE)
