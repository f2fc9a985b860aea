#!/usr/bin/env python3
"""Occupancy sweep: wall time and token-op counts versus grid fill.

Places one synthetic point per occupied cell at a range of occupancy
fractions and times the full backbone pass, demonstrating that compute
tracks the number of non-empty pillars rather than the grid area.
"""

import argparse
import statistics
import time

import numpy as np

from pan.backbone import EnhancerConfig, count_work, init_backbone, pan_backbone
from pan.pillars import RCS, VX, VY, X, Y, PillarConfig, PointCloud
from pan.tensor import Rng


def occupancy_cloud(cfg: PillarConfig, fraction: float, rng: Rng) -> PointCloud:
    h, w = cfg.height, cfg.width
    target = max(1, round(fraction * h * w))
    cells = rng.choice(h * w, size=target, replace=False)
    pts = np.zeros((target, 8))
    pts[:, X] = cfg.x_min + (cells % w + 0.5) * cfg.pillar_size
    pts[:, Y] = cfg.y_min + (cells // w + 0.5) * cfg.pillar_size
    pts[:, [VX, VY, RCS]] = rng.normal([0.0, 0.0, 5.0], [1.0, 1.0, 2.0], size=(target, 3))
    return PointCloud(frame_id=f"fill_{fraction:g}", points=pts)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid", type=int, default=64, help="grid side in cells")
    ap.add_argument("--channels", type=int, default=16)
    ap.add_argument("--embed-dim", type=int, default=64)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--fractions", type=float, nargs="+",
                    default=[0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.00])
    args = ap.parse_args()

    half = args.grid / 2.0
    pillar_cfg = PillarConfig(x_min=-half, x_max=half, y_min=-half, y_max=half,
                              pillar_size=1.0, out_channels=args.channels)
    enh_cfg = EnhancerConfig(embed_dim=args.embed_dim, dropout_p=0.0)
    params = init_backbone(pillar_cfg, enh_cfg, Rng(args.seed))
    rng = Rng(args.seed + 1)

    print(f"{'fill':>6} {'P':>7} {'median_ms':>10} {'token-op ratio':>15}")
    for fraction in args.fractions:
        cloud = occupancy_cloud(pillar_cfg, fraction, rng)
        work = count_work(cloud, pillar_cfg, enh_cfg)
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            pan_backbone(cloud, params, pillar_cfg, enh_cfg)
            times.append(time.perf_counter() - start)
        print(f"{fraction:>6.2f} {work.pillar_count:>7} "
              f"{1000 * statistics.median(times):>10.2f} "
              f"{work.sparse_dense_ratio:>15.6f}")


if __name__ == "__main__":
    main()
