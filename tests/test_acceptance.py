"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criteria 9 and 10 drive the installed CLI in subprocesses.
"""

import json
import math
import re
import subprocess
import sys

import numpy as np

from pan.backbone import (
    EnhancerConfig,
    count_work,
    enhance,
    enhance_input_grad,
    init_backbone,
    init_enhancer,
    pan_backbone,
    self_attention,
    self_attention_input_grad,
)
from pan.fusion import BevFeatureMap, McdaParams, bilinear_sample, init_mcda, mdca
from pan.layers import (
    BatchNormStats,
    LinearParams,
    batch_norm2d,
    batch_norm2d_backward_inference,
    conv2d,
    conv2d_backward,
    gelu,
    gelu_backward,
    grad_check,
    init_linear,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    relu,
    relu_backward,
    softmax_rows,
    softmax_rows_backward,
)
from pan.metrics import Box3D, EvalConfig, FrameAnnotations, evaluate, nds
from pan.pillars import PillarConfig, PillarGrid, PointCloud, TokenBatch, gather, scatter
from pan.safety import KMH_TO_MS, SafetyInput, braking_distance, reaction_distance, total_stopping_distance
from pan.synth import PerturbSpec, SceneSpec, generate_scene, perturb_to_predictions
from pan.tensor import Rng

from test_backbone import attention_oracle
from test_fusion import identity_linear, mdca_oracle, zero_linear
from test_pillars import RadarPoint


def _report(num, desc, fn):
    try:
        fn()
    except BaseException as exc:
        print(f"[FAIL] criterion {num:2d}: {desc} ({exc.__class__.__name__})")
        raise
    print(f"[PASS] criterion {num:2d}: {desc}")


def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "pan", *args],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"CLI failed: {args}\n{proc.stderr}")
    return proc.stdout


def test_criterion_01_nds_formula_reproduction():
    def check():
        rows = [
            (0.481, (0.488, 0.279, 0.404, 0.232, 0.181), 0.582),
            (0.490, (0.487, 0.277, 0.542, 0.344, 0.197), 0.560),
            (0.444, (0.506, 0.281, 0.452, 0.262, 0.186), 0.553),
        ]
        for mean_ap, tp, expected in rows:
            assert abs(nds(mean_ap, tp) - expected) < 5e-4

    _report(1, "published-row NDS reproduction within 5e-4", check)


def test_criterion_02_safety_numbers():
    def check():
        inp = SafetyInput(v0=50.0 * KMH_TO_MS, mu=0.7, g=9.81, t_r=1.0)
        assert 14.0 <= braking_distance(inp) <= 14.2
        assert 13.8 <= reaction_distance(inp) <= 14.0
        assert 25.0 <= total_stopping_distance(inp) <= 30.0

    _report(2, "stopping-distance values in the published bands", check)


def test_criterion_03_attention_oracle_equivalence():
    def check():
        for seed in range(100):
            rng = Rng(seed)
            p_count = int(rng.integers(1, 9))          # P <= 8
            heads = int(rng.choice([1, 2]))
            f = heads * int(rng.integers(1, 17 // heads))  # f <= 16
            cfg = EnhancerConfig(embed_dim=f, num_heads=heads, dropout_p=0.0)
            params = init_enhancer(3, cfg, rng)
            x = rng.normal(size=(p_count, f))
            got = self_attention(x, params, cfg)
            want = attention_oracle(x, params, cfg)
            assert np.max(np.abs(got - want)) < 1e-10

    _report(3, "self-attention equals the loop oracle (100 seeds, 1e-10)", check)


def test_criterion_04_deformable_attention_oracle():
    def check():
        rng = Rng(11)
        maps = [BevFeatureMap(data=rng.normal(size=(3, 3, 4)), meters_per_cell=1.0),
                BevFeatureMap(data=rng.normal(size=(3, 3, 5)), meters_per_cell=0.5)]
        params = init_mcda(query_channels=6, map_channels=[4, 5], out_channels=3,
                           heads=2, points_per_head=2, value_dim=4, rng=rng)
        query = rng.normal(size=(7, 6))
        refs = rng.random(size=(7, 2))
        got = mdca(query, refs, maps, params)
        want = mdca_oracle(query, refs, maps, params)
        assert np.max(np.abs(got - want)) < 1e-10

        # degenerate collapse: zero offsets, single head/modality/point,
        # identity projections -> exactly bilinear sampling
        c = 3
        feat = BevFeatureMap(data=rng.normal(size=(3, 3, c)), meters_per_cell=1.0)
        collapse = McdaParams(
            heads=1, modalities=1, points_per_head=1,
            value_proj=[[identity_linear(c)]], out_proj=[identity_linear(c)],
            offset_net=zero_linear(c, 2), weight_net=zero_linear(c, 1),
        )
        q = rng.normal(size=(6, c))
        p = rng.random(size=(6, 2))
        out = mdca(q, p, [feat], collapse)
        for i in range(6):
            assert np.array_equal(out[i], bilinear_sample(feat, p[i]))

    _report(4, "deformable cross-attention equals Eq-structure oracle; "
               "one-hot collapse is exact", check)


def test_criterion_05_sparsity_laws():
    def check():
        for seed in range(1000):
            rng = Rng(seed)
            mask = rng.random(size=(16, 16)) < float(rng.uniform(0.0, 0.4))
            data = np.where(mask[:, :, None], rng.normal(size=(16, 16, 4)), 0.0)
            grid = PillarGrid(mask=mask, features=data[mask])
            back = scatter(gather(grid), 16, 16)
            assert np.array_equal(back.data, grid.data)
            assert np.array_equal(back.mask, grid.mask)

        cfg = EnhancerConfig(embed_dim=16, dropout_p=0.0)
        params = init_enhancer(4, cfg, Rng(500))
        for seed in range(100):
            rng = Rng(seed)
            n = int(rng.integers(2, 16))
            tokens = rng.normal(size=(n, 4))
            coords = np.column_stack([np.arange(n), np.zeros(n, dtype=int)])
            perm = rng.permutation(n)
            base = enhance(TokenBatch(tokens=tokens, coords=coords), params, cfg).tokens
            permuted = enhance(TokenBatch(tokens=tokens[perm], coords=coords[perm]),
                               params, cfg).tokens
            assert np.max(np.abs(base[perm] - permuted)) < 1e-10

    _report(5, "scatter/gather identity on 1000 grids; enhance permutation "
               "equivariance on 100 permutations", check)


def test_criterion_06_shape_law():
    def check():
        rng = Rng(77)
        for h_cells, w_cells, c in ((8, 8, 4), (16, 12, 6), (10, 20, 3)):
            pcfg = PillarConfig(x_min=0.0, x_max=float(w_cells), y_min=0.0,
                                y_max=float(h_cells), pillar_size=1.0, out_channels=c)
            cfg = EnhancerConfig(embed_dim=8, dropout_p=0.0)
            params = init_backbone(pcfg, cfg, rng)
            pts = [RadarPoint(x=float(rng.uniform(0, w_cells)),
                              y=float(rng.uniform(0, h_cells)),
                              z=0.0, vx=1.0, vy=0.0, rcs=1.0)
                   for _ in range(int(rng.integers(0, 30)))]
            pc = PointCloud("f", pts)
            out = pan_backbone(pc, params, pcfg, cfg)
            assert out.shape == (h_cells // 2, w_cells // 2, 3 * c)
            no_conv = EnhancerConfig(embed_dim=8, dropout_p=0.0, conv_enabled=False)
            out2 = pan_backbone(pc, params, pcfg, no_conv)
            assert out2.shape == (h_cells, w_cells, c)

    _report(6, "backbone output is [H/2, W/2, 3C]; [H, W, C] without conv", check)


def test_criterion_07_gradient_checks():
    def check():
        tol = 1e-5
        rng = Rng(3)

        lin = init_linear(4, 3, rng)
        x = rng.normal(size=(3, 4))
        assert grad_check(
            lambda t: (linear(t, lin).sum(), linear_backward(np.ones((3, 3)), lin)), x
        ) < tol

        w = rng.normal(size=(3, 5))
        x = rng.normal(size=(3, 5))

        def f_softmax(t):
            y = softmax_rows(t)
            return float((y * w).sum()), softmax_rows_backward(w, y)
        assert grad_check(f_softmax, x) < tol

        gamma, beta = rng.normal(size=6), rng.normal(size=6)
        wl = rng.normal(size=(4, 6))
        x = rng.normal(size=(4, 6))

        def f_ln(t):
            y = layer_norm(t, gamma, beta)
            return float((y * wl).sum()), layer_norm_backward(wl, t, gamma)
        assert grad_check(f_ln, x) < tol

        x = rng.normal(size=(5, 4))

        def f_gelu(t):
            y = gelu(t)
            return y.sum(), gelu_backward(np.ones_like(y), t)
        assert grad_check(f_gelu, x) < tol

        x = rng.normal(size=(5, 4))
        x[np.abs(x) < 0.01] = 0.3

        def f_relu(t):
            y = relu(t)
            return y.sum(), relu_backward(np.ones_like(y), t)
        assert grad_check(f_relu, x) < tol

        kernel = rng.normal(size=(3, 3, 2, 3))
        wc = rng.normal(size=(4, 4, 3))
        x = rng.normal(size=(4, 4, 2))

        def f_conv(t):
            y = conv2d(t, kernel)
            return float((y * wc).sum()), conv2d_backward(wc, kernel)
        assert grad_check(f_conv, x) < tol

        stats = BatchNormStats(mean=rng.normal(size=2),
                               var=np.abs(rng.normal(size=2)) + 0.5)
        g2, b2 = rng.normal(size=2), rng.normal(size=2)
        x = rng.normal(size=(3, 3, 2))

        def f_bn(t):
            y = batch_norm2d(t, stats, g2, b2, training=False)
            return y.sum(), batch_norm2d_backward_inference(np.ones_like(y), stats, g2)
        assert grad_check(f_bn, x) < tol

        cfg = EnhancerConfig(embed_dim=8, num_heads=2, dropout_p=0.0)
        ap = init_enhancer(4, cfg, rng)
        x = rng.normal(size=(3, 8))

        def f_attn(t):
            y = self_attention(t, ap, cfg)
            return y.sum(), self_attention_input_grad(t, ap, cfg, np.ones_like(y))
        assert grad_check(f_attn, x) < tol

        coords = np.array([[0, 0], [0, 1], [1, 0]])
        tokens = rng.normal(size=(3, 4))

        def f_enh(t):
            out = enhance(TokenBatch(tokens=t, coords=coords), ap, cfg)
            return out.tokens.sum(), enhance_input_grad(t, ap, cfg,
                                                        np.ones_like(out.tokens))
        assert grad_check(f_enh, tokens) < tol

    _report(7, "central-difference gradient checks < 1e-5 for every "
               "differentiable block", check)


def test_criterion_08_metrics_oracle():
    def check():
        # zero perturbation: perfect detector
        _, gt = generate_scene(SceneSpec(n_objects=8), Rng(21))
        preds = perturb_to_predictions(gt, PerturbSpec(), Rng(22))
        report = evaluate([FrameAnnotations("f", "day", gt=gt, pred=preds)], EvalConfig())
        assert report.mean_ap == 1.0
        assert all(v == 0.0 for v in report.tp.values())
        assert report.nds == 1.0

        # translation-sigma Monte Carlo, 10^4 boxes
        sigma = 0.2
        rng = Rng(23)
        frames = []
        for fi in range(100):
            gt_f = [Box3D(x=-990.0 + 20.0 * k, y=fi * 25.0, z=0.85,
                          w=1.9, l=4.6, h=1.7, yaw=0.0, vx=0.0, vy=0.0,
                          class_name="car", attribute="vehicle.stopped")
                    for k in range(100)]
            pred_f = perturb_to_predictions(gt_f, PerturbSpec(translation_sigma=sigma), rng)
            frames.append(FrameAnnotations(f"f{fi}", "day", gt=gt_f, pred=pred_f))
        wide = EvalConfig(range_filter=(0.0, 10_000.0))
        mc = evaluate(frames, wide)
        expected_ate = sigma * math.sqrt(math.pi / 2.0)
        assert abs(mc.tp["ate"] - expected_ate) / expected_ate < 0.05

        # range-split counts partition [0, 50) exactly
        rng = Rng(24)
        split_frames = []
        for fi in range(10):
            gt_f, pred_f = [], []
            for radius in (5.0, 12.0, 19.0, 31.0, 38.0, 45.0):
                angle = float(rng.uniform(0, 2 * math.pi))
                x, y = radius * math.cos(angle), radius * math.sin(angle)
                gt_f.append(Box3D(x=x, y=y, z=0.85, w=1.9, l=4.6, h=1.7, yaw=0.0,
                                  vx=0.0, vy=0.0, class_name="car",
                                  attribute="vehicle.stopped"))
            pred_f = perturb_to_predictions(gt_f, PerturbSpec(translation_sigma=0.1), rng)
            split_frames.append(FrameAnnotations(f"s{fi}", "day", gt=gt_f, pred=pred_f))
        cfg = EvalConfig()
        full = evaluate(split_frames, cfg, range_band=(0, 50))
        near = evaluate(split_frames, cfg, range_band=(0, 25))
        far = evaluate(split_frames, cfg, range_band=(25, 50))
        assert near.n_gt + far.n_gt == full.n_gt
        assert near.n_pred + far.n_pred == full.n_pred
        for thr in cfg.match_thresholds_m:
            assert near.match_counts[thr] + far.match_counts[thr] == full.match_counts[thr]

    _report(8, "metrics oracle: perfect detector, Monte-Carlo ATE, "
               "range-split partition", check)


def test_criterion_09_sparse_work_claim(tmp_path):
    def check():
        # token-op accounting on the default 128 x 128 grid at < 5% occupancy
        pcfg = PillarConfig()
        ecfg = EnhancerConfig()
        pts = []
        kept = 0
        for i in range(0, 128, 2):
            for j in range(0, 128, 2):
                if kept >= 800:  # 800 / 16384 cells ~ 4.9%
                    break
                pts.append(RadarPoint(
                    x=pcfg.x_min + (j + 0.5) * pcfg.pillar_size,
                    y=pcfg.y_min + (i + 0.5) * pcfg.pillar_size,
                    z=0.0, vx=0.0, vy=0.0, rcs=1.0))
                kept += 1
        work = count_work(PointCloud("f", pts), pcfg, ecfg)
        assert work.pillar_count == 800
        assert work.pillar_count <= 0.05 * 128 * 128
        assert work.attention_macs <= 0.05 * work.dense_equivalent_macs

        # bench: a 5%-occupancy frame must be strictly faster than a
        # 100%-occupancy frame of identical config
        side = 48
        config = {
            "pillar": {"x_min": 0.0, "x_max": float(side), "y_min": 0.0,
                       "y_max": float(side), "pillar_size": 1.0, "out_channels": 8},
            "enhancer": {"embed_dim": 32, "dropout_p": 0.0},
        }
        cfg_path = tmp_path / "bench_config.json"
        cfg_path.write_text(json.dumps(config))

        def cell_points(frame, cells):
            return [{"frame": frame, "x": j + 0.5, "y": i + 0.5, "z": 0.0,
                     "vx": 0.0, "vy": 0.0, "rcs": 1.0, "sweep": 0, "dt": 0.0}
                    for i, j in cells]

        all_cells = [(i, j) for i in range(side) for j in range(side)]
        sparse_cells = all_cells[:: side * side // 115][:115]  # ~5%
        lines = [json.dumps(rec) for rec in
                 cell_points("sparse", sparse_cells) + cell_points("full", all_cells)]
        points_path = tmp_path / "bench_points.jsonl"
        points_path.write_text("\n".join(lines) + "\n")

        out = _cli("bench", "--points", str(points_path), "--config", str(cfg_path),
                   "--repeats", "3")
        medians = {m.group(1): float(m.group(2)) for m in
                   re.finditer(r"frame=(\w+) P=\d+ median_ms=([0-9.]+)", out)}
        assert set(medians) == {"sparse", "full"}
        assert medians["sparse"] < medians["full"]

    _report(9, "sparse token-ops <= 5% of dense at 5% occupancy; sparse frame "
               "benches strictly faster", check)


def test_criterion_10_cli_determinism(tmp_path):
    def check():
        spec = {"scene": {"n_objects": 5, "n_frames": 2},
                "perturb": {"translation_sigma": 0.3, "fp_rate": 1.0}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "pillar": {"x_min": -40.0, "x_max": 40.0, "y_min": -40.0, "y_max": 40.0,
                       "pillar_size": 2.5, "out_channels": 4},
            "enhancer": {"embed_dim": 8, "dropout_p": 0.0},
        }))

        outputs = []
        for run_dir in ("run_a", "run_b"):
            d = tmp_path / run_dir
            d.mkdir()
            points, boxes = d / "points.jsonl", d / "boxes.jsonl"
            _cli("gen", "--spec", str(spec_path), "--seed", "99",
                 "--out-points", str(points), "--out-boxes", str(boxes))
            _cli("backbone", "--points", str(points), "--config", str(config_path),
                 "--params", "random:4", "--out", str(d / "feat.panf"),
                 "--viz", str(d / "feat.pgm"), "--save-params", str(d / "params.json"))
            _cli("eval", "--boxes", str(boxes), "--report", str(d / "report.json"))
            blob = b"".join(sorted(p.read_bytes() for p in d.iterdir() if p.is_file())
                            )
            outputs.append(blob)
        assert outputs[0] == outputs[1]

    _report(10, "fixed-seed CLI runs produce byte-identical files", check)
