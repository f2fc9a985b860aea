"""Command-line interface tests (in-process via main())."""

import hashlib
import json

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

    @pytest.mark.parametrize("section, fields, name", BAD_SPECS)
    def test_bad_spec_value_names_field(self, tmp_path, capsys, section, fields, name):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({section: fields}))
        points, boxes = tmp_path / "p.jsonl", tmp_path / "b.jsonl"
        code, _, err = run(["gen", "--spec", str(spec_path), "--seed", "1",
                            "--out-points", str(points), "--out-boxes", str(boxes)], capsys)
        assert code == 1
        assert err.startswith(f"error: field '{name}' must be ")
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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, scene_files, threads):
        points, _ = scene_files
        code, out, err = run(["backbone", "--points", str(points), "--threads", threads,
                              "--out", str(tmp_path / "o.panf")], capsys)
        assert code == 1 and "wrote" not in out
        assert err == f"error: --threads must be at least 1, got {threads}\n"
        assert not list(tmp_path.glob("o*.panf"))

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
    ])
    def test_removed_config_keys_fail(self, tmp_path, capsys, scene_files, section, key, value):
        points, _ = scene_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {key: value}}))
        code, out, err = run(["backbone", "--points", str(points), "--config", str(bad),
                              "--out", str(tmp_path / "o.panf")], capsys)
        assert code == 1 and "wrote" not in out
        assert err == f"error: unknown {section} config keys: {key}\n"


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
        assert err.startswith("error: range band must have lo < hi")


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
