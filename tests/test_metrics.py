"""Matching, AP, TP-error, NDS, and split-evaluation tests.

Expected values are frozen from hand computations: the AP fixture follows
the 101-point linear-interpolation staircase written out with exact
fractions, and the single-frame report is derived pair by pair.
"""

import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pan.metrics import (
    CONDITIONS,
    Box3D,
    EvalConfig,
    FrameAnnotations,
    MetricsReport,
    average_precision,
    evaluate,
    format_report_table,
    match_frame,
    nds,
    tp_errors,
)


def car(x, y, score=None, yaw=0.0, vx=0.0, vy=0.0, w=1.9, l=4.6, h=1.7,
        attr="vehicle.stopped", cls="car"):
    return Box3D(x=x, y=y, z=0.85, w=w, l=l, h=h, yaw=yaw, vx=vx, vy=vy,
                 class_name=cls, attribute=attr, score=score)


def brute_force_max_matching(gt, pred, threshold):
    """Exhaustively find the assignment with the most within-threshold pairs."""
    best = 0
    for size in range(min(len(gt), len(pred)), -1, -1):
        for pred_subset in itertools.combinations(range(len(pred)), size):
            for gt_perm in itertools.permutations(range(len(gt)), size):
                ok = all(pred[pi].bev_distance_to(gt[gi]) < threshold
                         for pi, gi in zip(pred_subset, gt_perm))
                if ok:
                    best = max(best, size)
        if best == size:
            break
    return best


def per_threshold_greedy(gt, pred, threshold):
    """The greedy written out for one threshold: predictions in descending
    score order (ties to the lower index) each take the nearest GT not yet
    taken (ties to the lower GT index) when it is nearer than ``threshold``."""
    order = sorted(range(len(pred)), key=lambda idx: (-(pred[idx].score or 0.0), idx))
    taken, matches, unmatched_pred = set(), [], []
    for pi in order:
        best_dist, best_gi = math.inf, None
        for gi, g in enumerate(gt):
            d = pred[pi].bev_distance_to(g)
            if gi not in taken and d < best_dist:
                best_dist, best_gi = d, gi
        if best_gi is not None and best_dist < threshold:
            taken.add(best_gi)
            matches.append((pi, best_gi))
        else:
            unmatched_pred.append(pi)
    return matches, unmatched_pred, [gi for gi in range(len(gt)) if gi not in taken]


# half-metre lattice points and repeated scores, so distance and score ties are common
LATTICE = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(
    lambda ij: (ij[0] / 2, ij[1] / 2))
TIED_SCORES = st.sampled_from([None, 0.0, 0.5, 0.7, 0.9])


UNKNOWN_CLASS = ("field 'class' must be one of car, truck, bus, trailer, construction_vehicle, "
                 'pedestrian, motorcycle, bicycle, traffic_cone, barrier, got "cars"')

BAD_THRESHOLDS = [
    (math.nan, "field 'threshold_m' is not finite"),
    (-1.0, "field 'threshold_m' must be > 0, got -1.0"),
]


class TestMatchFrame:
    def test_no_predictions(self):
        gt = [car(0, 0), car(10, 0)]
        matches, unmatched_pred, unmatched_gt = match_frame(gt, [], 2.0)
        assert matches == [] and unmatched_pred == []
        assert unmatched_gt == [0, 1]

    def test_exact_hit_matches_at_every_threshold(self):
        gt = [car(3, 4)]
        pred = [car(3, 4, score=0.9)]
        for thr in (0.5, 1.0, 2.0, 4.0):
            matches, _, _ = match_frame(gt, pred, thr)
            assert matches == [(0, 0)]

    def test_higher_score_wins_contested_gt(self):
        gt = [car(0, 0)]
        pred = [car(0.2, 0, score=0.9), car(0.1, 0, score=0.8)]
        matches, unmatched_pred, _ = match_frame(gt, pred, 2.0)
        assert matches == [(0, 0)]
        assert unmatched_pred == [1]
        # greedy recovers the optimal matching size on this instance
        assert len(matches) == brute_force_max_matching(gt, pred, 2.0)

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            car(0, 0, score=1.5)

    @pytest.mark.parametrize("score, message", [
        ("0.5", 'field \'score\' must be a number, got "0.5"'),
        (True, "field 'score' must be a number, got true"),
        (math.nan, "field 'score' is not finite"),
        (1.5, "field 'score' must be in [0, 1], got 1.5"),
    ])
    def test_bad_score_rejected_by_field(self, score, message):
        with pytest.raises(ValueError) as info:
            car(0, 0, score=score)
        assert str(info.value) == message

    def test_numpy_and_integer_scores_accepted(self):
        assert car(0, 0, score=np.float64(0.25)).score == 0.25
        assert car(0, 0, score=1).score == 1

    @pytest.mark.parametrize("field", ["x", "y", "z", "w", "l", "h", "yaw", "vx", "vy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected_by_name(self, field, value):
        fields = dict(x=1.0, y=2.0, z=0.85, w=1.9, l=4.6, h=1.7, yaw=0.0, vx=0.0, vy=0.0)
        fields[field] = value
        key = {"x": "cx", "y": "cy", "z": "cz"}.get(field, field)  # the boxes.jsonl key
        with pytest.raises(ValueError, match=rf"field '{key}' is not finite"):
            Box3D(**fields, class_name="car")

    @pytest.mark.parametrize("sizes, message", [
        ((1e-110, 1e-110, 1e-110), "field 'w' must be large enough for a positive box "
                                   "volume, got 1e-110"),
        ((1.0, 1e-200, 1e-150), "field 'l' must be large enough for a positive box "
                                "volume, got 1e-200"),
        ((1e200, 1e200, 1e200), "field 'w' must be small enough for a finite box "
                                "volume, got 1e+200"),
        ((1e10, 1.0, 1e300), "field 'h' must be small enough for a finite box "
                             "volume, got 1e+300"),
    ], ids=["underflow", "underflow-smallest", "overflow", "overflow-largest"])
    def test_volume_outside_float_range_rejected_by_size(self, sizes, message):
        # the scale error divides by the volume, so it must be a positive finite float
        w, l, h = sizes
        with pytest.raises(ValueError) as info:
            car(0, 0, w=w, l=l, h=h)
        assert str(info.value) == message

    @pytest.mark.parametrize("value, shown", [("1.5", '"1.5"'), (None, "null")])
    def test_non_number_field_rejected_by_name(self, value, shown):
        with pytest.raises(ValueError, match=rf"field 'w' must be a number, got {shown}$"):
            car(0, 0, w=value)

    def test_finite_fields_whose_sum_overflows_accepted(self):
        box = car(1e308, 1e308, w=1e308, l=1e-300)  # l keeps the volume finite
        assert box.x == box.y == 1e308

    @pytest.mark.parametrize("threshold, message", BAD_THRESHOLDS)
    def test_bad_threshold_rejected_by_field(self, threshold, message):
        with pytest.raises(ValueError) as info:
            match_frame([car(0, 0)], [car(0, 0, score=0.9)], threshold)
        assert str(info.value) == message

    def test_distance_tie_takes_lower_gt_index(self):
        gt = [car(0, 1), car(0, -1)]
        pred = [car(0, 0, score=0.5)]
        matches, _, _ = match_frame(gt, pred, 2.0)
        assert matches == [(0, 0)]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_greedy_never_beats_optimal(self, seed):
        rng = np.random.default_rng(seed)
        gt = [car(float(x), float(y)) for x, y in rng.uniform(-4, 4, size=(3, 2))]
        pred = [car(float(x), float(y), score=float(s))
                for (x, y), s in zip(rng.uniform(-4, 4, size=(3, 2)), rng.random(3))]
        matches, _, _ = match_frame(gt, pred, 2.0)
        assert len(matches) <= brute_force_max_matching(gt, pred, 2.0)

    @given(st.lists(LATTICE, max_size=7), st.lists(st.tuples(LATTICE, TIED_SCORES), max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_one_walk_equals_per_threshold_greedy(self, gt_xy, pred_xy):
        import pan.metrics

        gt = [car(x, y) for x, y in gt_xy]
        pred = [car(x, y, score=score) for (x, y), score in pred_xy]
        thresholds = (0.5, 1.0, 2.0, 4.0)
        order, walked = pan.metrics._match(gt, pred, thresholds)
        # at threshold 0 nothing matches, so every prediction is listed in score order
        assert order == per_threshold_greedy(gt, pred, 0.0)[1]
        assert list(walked) == list(thresholds)
        for thr in thresholds:
            want = per_threshold_greedy(gt, pred, thr)
            assert match_frame(gt, pred, thr) == want
            assert walked[thr] == want[0]


class TestAveragePrecision:
    CFG = EvalConfig()

    def test_perfect_detections(self):
        frames = [FrameAnnotations("f", "day",
                                   gt=[car(0, 0), car(15, 0)],
                                   pred=[car(0, 0, score=0.9), car(15, 0, score=0.8)])]
        assert average_precision(frames, "car", 2.0, self.CFG) == 1.0

    def test_no_matches_with_gt_present(self):
        frames = [FrameAnnotations("f", "day", gt=[car(0, 0)],
                                   pred=[car(30, 30, score=0.9)])]
        assert average_precision(frames, "car", 2.0, self.CFG) == 0.0

    def test_no_gt_is_undefined(self):
        frames = [FrameAnnotations("f", "day", gt=[], pred=[car(0, 0, score=0.9)])]
        assert average_precision(frames, "car", 2.0, self.CFG) is None

    def test_unknown_class_rejected_by_the_box_rule(self):
        frames = [FrameAnnotations("f", gt=[car(0, 0)], pred=[car(0, 0, score=0.9)])]
        with pytest.raises(ValueError) as info:
            average_precision(frames, "cars", 2.0, self.CFG)
        assert str(info.value) == UNKNOWN_CLASS

    @pytest.mark.parametrize("threshold, message", BAD_THRESHOLDS)
    def test_bad_threshold_rejected_by_field(self, threshold, message):
        frames = [FrameAnnotations("f", gt=[car(0, 0)], pred=[car(0, 0, score=0.9)])]
        with pytest.raises(ValueError) as info:
            average_precision(frames, "car", threshold, self.CFG)
        assert str(info.value) == message

    def test_hand_integrated_staircase(self):
        # 2 GT, 4 preds: TP(0.9), FP(0.8), TP(0.7), FP(0.6)
        frames = [FrameAnnotations(
            "f", "day",
            gt=[car(0, 0), car(20, 0)],
            pred=[car(0, 0, score=0.9), car(40, 40, score=0.8),
                  car(20, 0, score=0.7), car(-40, -40, score=0.6)],
        )]
        # PR points: (0.5, 1), (0.5, 1/2), (1, 2/3), (1, 1/2); linear
        # interpolation on the 101-point grid takes the last value at
        # duplicated recalls, prec[0] below the first recall, 0 beyond the last.
        total = Fraction(0)
        for k in range(11, 101):
            r = Fraction(k, 100)
            if r < Fraction(1, 2):
                p = Fraction(1)
            elif r == Fraction(1, 2):
                p = Fraction(1, 2)
            elif r < 1:
                p = Fraction(1, 2) + (r - Fraction(1, 2)) * Fraction(1, 3)
            else:
                p = Fraction(1, 2)
            total += max(Fraction(0), p - Fraction(1, 10))
        expected = total / 90 / (1 - Fraction(1, 10))
        assert expected == Fraction(715, 972)
        got = average_precision(frames, "car", 2.0, self.CFG)
        assert got == pytest.approx(float(expected), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_monotone_score_rescale(self, seed):
        rng = np.random.default_rng(seed)
        gt = [car(float(x), float(y)) for x, y in rng.uniform(-20, 20, size=(4, 2))]
        pred = [car(float(x + rng.normal(0, 1)), float(y), score=float(s))
                for (x, y), s in zip(rng.uniform(-20, 20, size=(6, 2)), rng.random(6))]
        frames = [FrameAnnotations("f", "day", gt=gt, pred=pred)]
        base = average_precision(frames, "car", 2.0, self.CFG)
        rescaled = [
            Box3D(**{**b.__dict__, "score": 0.05 + 0.9 * b.score ** 3}) for b in pred
        ]
        frames2 = [FrameAnnotations("f", "day", gt=gt, pred=rescaled)]
        assert average_precision(frames2, "car", 2.0, self.CFG) == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_trailing_false_positive_never_increases_ap(self, seed):
        rng = np.random.default_rng(seed)
        gt = [car(float(x), float(y)) for x, y in rng.uniform(-20, 20, size=(3, 2))]
        pred = [car(float(x + rng.normal(0, 0.5)), float(y), score=float(0.3 + 0.7 * s))
                for (x, y), s in zip(rng.uniform(-20, 20, size=(4, 2)), rng.random(4))]
        frames = [FrameAnnotations("f", "day", gt=gt, pred=pred)]
        base = average_precision(frames, "car", 2.0, self.CFG)
        with_fp = pred + [car(500.0, 500.0, score=0.01)]
        frames2 = [FrameAnnotations("f", "day", gt=gt, pred=with_fp)]
        assert average_precision(frames2, "car", 2.0, self.CFG) <= base + 1e-12


SIZES = st.floats(1e-100, 1e100)


class TestTpErrors:
    def test_identical_pair_all_zero(self):
        g = car(1, 2, yaw=0.3, vx=1.0, vy=-1.0)
        p = car(1, 2, yaw=0.3, vx=1.0, vy=-1.0, score=0.9)
        errs = tp_errors([(p, g)], "car")
        assert errs == {"ate": 0.0, "ase": 0.0, "aoe": 0.0, "ave": 0.0, "aae": 0.0}

    def test_quarter_turn_orientation_error(self):
        g = car(0, 0, yaw=0.0)
        p = car(0, 0, yaw=math.pi / 2, score=0.9)
        assert tp_errors([(p, g)], "car")["aoe"] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_hand_averaged_fixture(self):
        g1, p1 = car(0, 0), car(0.3, 0.4, vx=0.5, yaw=0.1, score=0.9)  # ate .5, ave .5, aoe .1
        g2 = car(0, 0, w=2.0, l=4.0, h=2.0)
        p2 = car(0, 0, w=1.0, l=4.0, h=2.0, yaw=0.3,
                 attr="vehicle.moving", score=0.8)                  # ase 0.5, aoe .3, aae 1
        g3, p3 = car(5, 5), car(5, 5, score=0.7)
        errs = tp_errors([(p1, g1), (p2, g2), (p3, g3)], "car")
        assert errs["ate"] == pytest.approx(0.5 / 3, abs=1e-12)
        assert errs["ase"] == pytest.approx(0.5 / 3, abs=1e-12)
        assert errs["aoe"] == pytest.approx(0.4 / 3, abs=1e-12)
        assert errs["ave"] == pytest.approx(0.5 / 3, abs=1e-12)
        assert errs["aae"] == pytest.approx(1.0 / 3, abs=1e-12)

    def test_no_matches_is_one_by_convention(self):
        errs = tp_errors([], "car")
        assert all(v == 1.0 for v in errs.values())

    def test_unknown_class_rejected_by_the_box_rule(self):
        with pytest.raises(ValueError) as info:
            tp_errors([(car(0, 0, score=0.9), car(0, 0))], "cars")
        assert str(info.value) == UNKNOWN_CLASS

    def test_identical_huge_boxes_have_no_scale_error(self):
        # each volume is 1.25e308, a finite float, but their sum is not
        box = car(0, 0, w=5e102, l=5e102, h=5e102)
        assert tp_errors([(box, box)], "car")["ase"] == 0.0

    def test_huge_boxes_scale_error(self):
        big, smaller = car(0, 0, w=5e102, l=5e102, h=5e102), car(0, 0, w=4e102, l=5e102, h=5e102)
        for pair in ((big, smaller), (smaller, big)):
            assert tp_errors([pair], "car")["ase"] == pytest.approx(0.2, abs=1e-15)

    @given(st.tuples(SIZES, SIZES, SIZES), st.tuples(SIZES, SIZES, SIZES))
    @settings(max_examples=200, deadline=None)
    def test_scale_error_of_ordinary_boxes_is_the_iou_expression(self, a_sizes, b_sizes):
        a = car(0, 0, w=a_sizes[0], l=a_sizes[1], h=a_sizes[2])
        b = car(0, 0, w=b_sizes[0], l=b_sizes[1], h=b_sizes[2], score=0.5)
        inter = min(a.w, b.w) * min(a.l, b.l) * min(a.h, b.h)
        union = a.w * a.l * a.h + b.w * b.l * b.h - inter
        assert tp_errors([(b, a)], "car")["ase"] == 1.0 - inter / union

    def test_barrier_yaw_period_pi(self):
        g = Box3D(x=0, y=0, z=0.5, w=2.5, l=1.0, h=1.0, yaw=0.0, vx=0, vy=0,
                  class_name="barrier")
        p = Box3D(x=0, y=0, z=0.5, w=2.5, l=1.0, h=1.0, yaw=math.pi - 0.2, vx=0, vy=0,
                  class_name="barrier", score=0.9)
        errs = tp_errors([(p, g)], "barrier")
        assert errs["aoe"] == pytest.approx(0.2, abs=1e-12)
        assert "aae" not in errs

    def test_traffic_cone_excludes_orientation_and_attribute(self):
        g = Box3D(x=0, y=0, z=0.5, w=0.4, l=0.4, h=1.0, yaw=0.0, vx=0, vy=0,
                  class_name="traffic_cone")
        p = Box3D(x=0, y=0, z=0.5, w=0.4, l=0.4, h=1.0, yaw=1.0, vx=0, vy=0,
                  class_name="traffic_cone", score=0.9)
        errs = tp_errors([(p, g)], "traffic_cone")
        assert set(errs) == {"ate", "ase", "ave"}


class TestNds:
    def test_published_rows(self):
        # (mAP, mATE, mASE, mAOE, mAVE, mAAE) -> NDS
        rows = [
            ((0.481, (0.488, 0.279, 0.404, 0.232, 0.181)), 0.582),
            ((0.490, (0.487, 0.277, 0.542, 0.344, 0.197)), 0.560),
            ((0.444, (0.506, 0.281, 0.452, 0.262, 0.186)), 0.553),
        ]
        for (mean_ap, tp), expected in rows:
            assert nds(mean_ap, tp) == pytest.approx(expected, abs=5e-4)

    def test_upper_bound(self):
        assert nds(1.0, [0.0] * 5) == pytest.approx(1.0, abs=0)

    def test_saturated_error_contributes_zero(self):
        base = nds(0.5, [1.0, 0.2, 0.2, 0.2, 0.2])
        worse = nds(0.5, [7.3, 0.2, 0.2, 0.2, 0.2])
        assert base == worse

    def test_input_validation(self):
        with pytest.raises(ValueError):
            nds(1.5, [0.0] * 5)
        with pytest.raises(ValueError):
            nds(0.5, [0.0] * 4)

    @pytest.mark.parametrize("tp, message", [
        ([-5.0, 0.0, 0.0, 0.0, 0.0], "field 'ate' must be >= 0, got -5.0"),
        ([0.0, 0.0, -1e-9, 0.0, 0.0], "field 'aoe' must be >= 0, got -1e-09"),
        ([math.nan, 0.0, 0.0, 0.0, 0.0], "field 'ate' is not finite"),
        ([0.0, math.inf, 0.0, 0.0, 0.0], "field 'ase' is not finite"),
        ([0.0, 0.0, 0.0, 0.0, -math.inf], "field 'aae' is not finite"),
        ([0.0, 0.0, 0.0, None, 0.0], "field 'ave' must be a number, got null"),
    ])
    def test_impossible_tp_error_rejected_by_field(self, tp, message):
        # a negative error lifts NDS above 1, and min(1, nan) is 1
        with pytest.raises(ValueError) as info:
            nds(0.5, tp)
        assert str(info.value) == message

    @given(st.floats(0, 1), st.floats(0, 1),
           st.lists(st.floats(0, 2), min_size=5, max_size=5), st.integers(0, 4),
           st.floats(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, ap_lo, ap_delta, tps, idx, tp_delta):
        ap_hi = min(1.0, ap_lo + ap_delta)
        assert nds(ap_hi, tps) >= nds(ap_lo, tps)
        worse = list(tps)
        worse[idx] = min(2.0, worse[idx] + tp_delta)
        assert nds(ap_lo, worse) <= nds(ap_lo, tps) + 1e-12


class TestEvaluate:
    CFG = EvalConfig()

    def _two_band_frame(self):
        gt = [car(5, 0), car(30, 0)]
        pred = [car(5.5, 0, score=0.9), car(30, 0, score=0.8)]
        return [FrameAnnotations("f", "day", gt=gt, pred=pred)]

    def test_hand_computed_single_frame_report(self):
        report = evaluate(self._two_band_frame(), self.CFG)
        # AP@0.5: first pred misses (0.5 m is not < 0.5), second hits:
        # PR points (0, 0), (0.5, 0.5) -> interp prec = r up to 0.5, then 0;
        # AP = (sum_{k=11..49}(k-10)/100 + 0.4) / 81 = 8.2/81.
        # AP@1, 2, 4 = 1. mAP = (8.2/81 + 3) / 4 = 314/405.
        assert report.mean_ap == pytest.approx(314 / 405, abs=1e-12)
        assert report.tp["ate"] == pytest.approx(0.25, abs=1e-12)
        for m in ("ase", "aoe", "ave", "aae"):
            assert report.tp[m] == pytest.approx(0.0, abs=1e-12)
        expected_nds = 0.5 * 314 / 405 + 0.1 * (0.75 + 4.0)
        assert report.nds == pytest.approx(expected_nds, abs=1e-12)
        assert report.match_counts == {0.5: 1, 1.0: 2, 2.0: 2, 4.0: 2}

    def test_range_band_partition(self):
        frames = self._two_band_frame()
        full = evaluate(frames, self.CFG, range_band=(0, 50))
        near = evaluate(frames, self.CFG, range_band=(0, 25))
        far = evaluate(frames, self.CFG, range_band=(25, 50))
        assert near.n_gt + far.n_gt == full.n_gt
        assert near.n_pred + far.n_pred == full.n_pred
        for thr in self.CFG.match_thresholds_m:
            assert near.match_counts[thr] + far.match_counts[thr] == full.match_counts[thr]

    def test_all_objects_near_makes_bands_agree(self):
        gt = [car(5, 0), car(10, 3)]
        pred = [car(5, 0, score=0.9), car(10.2, 3, score=0.7)]
        frames = [FrameAnnotations("f", "day", gt=gt, pred=pred)]
        full = evaluate(frames, self.CFG, range_band=(0, 50))
        near = evaluate(frames, self.CFG, range_band=(0, 25))
        assert near.mean_ap == full.mean_ap
        assert near.nds == full.nds
        assert near.tp == full.tp

    def test_condition_split(self):
        day = FrameAnnotations("d", "day", gt=[car(5, 0)], pred=[car(5, 0, score=0.9)])
        rain = FrameAnnotations("r", "rain", gt=[car(8, 0)], pred=[car(11, 0, score=0.9)])
        full = evaluate([day, rain], self.CFG)
        rain_only = evaluate([day, rain], self.CFG, condition="rain")
        assert full.n_frames == 2
        assert rain_only.n_frames == 1
        # 3 m off matches only at the 4 m threshold
        assert rain_only.mean_ap == pytest.approx(0.25, abs=1e-12)
        assert rain_only.ap["car"][4.0] == 1.0
        assert rain_only.ap["car"][2.0] == 0.0

    def test_empty_split_marker(self):
        day = FrameAnnotations("d", "day", gt=[car(5, 0)], pred=[])
        report = evaluate([day], self.CFG, condition="night")
        assert report.empty
        assert report.nds is None
        assert "(empty split)" in format_report_table(report)

    def test_empty_is_read_off_the_report(self):
        day = FrameAnnotations("d", "day", gt=[car(5, 0)], pred=[])
        report = MetricsReport("night", (0.0, 50.0), 0, 0, 0)
        assert report == evaluate([day], self.CFG, condition="night")
        assert report.empty and report.to_json_dict()["empty"] is True
        full = evaluate([day], self.CFG)
        assert not full.empty and full.to_json_dict()["empty"] is False

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], self.CFG, condition="fog")

    def test_table_formatting(self):
        report = evaluate(self._two_band_frame(), self.CFG)
        table = format_report_table(report)
        assert "NDS" in table and "mATE" in table
        assert f"{100 * report.nds:.1f}" in table

    def _mixed_frames(self):
        frames = []
        for k in range(3):
            gt = [car(5 + k, 0), car(20, 3 + k), car(-8, k, cls="pedestrian", w=0.6, l=0.7,
                                                     attr="pedestrian.moving")]
            pred = [car(5.4 + k, 0, score=0.9), car(22.5, 3 + k, score=0.6, yaw=0.3, vx=1.0),
                    car(-7, k + 0.2, score=0.8, cls="pedestrian", w=0.6, l=0.7,
                        attr="pedestrian.standing"),
                    car(30, -30, score=0.3)]
            frames.append(FrameAnnotations(f"f{k}", "day", gt=gt, pred=pred))
        return frames

    def test_matches_once_per_frame_class_threshold(self, monkeypatch):
        import pan.metrics

        seen = Counter()
        walked_thresholds = set()
        real = pan.metrics._match

        def counting(gt, pred, thresholds):
            seen[tuple(map(id, gt + pred))] += 1
            walked_thresholds.add(frozenset(thresholds))
            return real(gt, pred, thresholds)

        monkeypatch.setattr(pan.metrics, "_match", counting)
        frames = self._mixed_frames()
        evaluate(frames, self.CFG)
        # one walk per (frame, class), and each walk serves every threshold
        assert set(seen.values()) == {1}
        assert len(seen) == len(frames) * 2  # car and pedestrian
        assert walked_thresholds == {frozenset(self.CFG.match_thresholds_m)}

    def test_empty_or_inverted_band_rejected(self):
        for band in ((25.0, 10.0), (10.0, 10.0)):
            with pytest.raises(ValueError,
                               match=r"field 'range_filter' must be two numbers lo < hi, got \["):
                evaluate(self._two_band_frame(), self.CFG, range_band=band)

    @pytest.mark.parametrize("condition, band, message", [
        ("fog", None, 'field \'condition\' must be one of day, rain, night, got "fog"'),
        (None, (None, 5.0), "field 'range_filter[0]' must be a number, got null"),
        (None, ("0", 5.0), 'field \'range_filter[0]\' must be a number, got "0"'),
        (None, (-math.inf, 5.0), "field 'range_filter[0]' is not finite"),
    ])
    def test_split_checked_by_the_config_and_frame_rules(self, condition, band, message):
        with pytest.raises(ValueError) as info:
            evaluate(self._two_band_frame(), self.CFG, condition=condition, range_band=band)
        assert str(info.value) == message


# every class below has ground truth in some examples; "bus" only ever predicted
GT_CLASSES = ("car", "pedestrian", "traffic_cone")
BANDS = ((0.0, 20.0), (5.0, 20.0), (5.0, 12.5), (20.0, 50.0))


@st.composite
def split_cases(draw):
    """Frames, a condition and a band, with boxes exactly on both band edges."""
    lo, hi = draw(st.sampled_from(BANDS))
    on_edge = st.sampled_from([lo, hi]).flatmap(
        lambda r: st.sampled_from([(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)]))
    position = st.one_of(on_edge, st.tuples(st.floats(-60, 60), st.floats(-60, 60)))
    frames = []
    for k in range(draw(st.integers(0, 4))):
        gt = [car(x, y, cls=cls) for (x, y), cls in
              draw(st.lists(st.tuples(position, st.sampled_from(GT_CLASSES)), max_size=5))]
        pred = [car(x, y, score=score, cls=cls) for (x, y), cls, score in draw(st.lists(
            st.tuples(position, st.sampled_from(GT_CLASSES + ("bus",)), st.floats(0, 1)),
            max_size=4))]
        if gt:  # predictions near ground truth, so that some of them match
            near = st.tuples(st.sampled_from(gt), st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
                             st.floats(0, 1))
            pred += [car(g.x + dx, g.y + dy, score=score, cls=g.class_name)
                     for g, dx, dy, score in draw(st.lists(near, max_size=5))]
        frames.append(FrameAnnotations(f"f{k}", draw(st.sampled_from(CONDITIONS)),
                                       gt=gt, pred=pred))
    return frames, draw(st.sampled_from((None,) + CONDITIONS)), (lo, hi)


class TestEvaluateSplits:
    @given(split_cases())
    @settings(max_examples=150, deadline=None)
    def test_split_equals_hand_filtered_full_band(self, case):
        frames, condition, (lo, hi) = case

        def in_band(boxes):
            return [b for b in boxes if lo <= math.hypot(b.x, b.y) < hi]

        by_hand = [FrameAnnotations(f.frame_id, f.condition, gt=in_band(f.gt), pred=in_band(f.pred))
                   for f in frames if condition is None or f.condition == condition]
        cfg = EvalConfig()
        got = evaluate(frames, cfg, condition, (lo, hi)).to_json_dict()
        want = evaluate(by_hand, cfg, condition, (0.0, math.inf)).to_json_dict()
        assert got.pop("range_band") == [lo, hi]
        del want["range_band"]
        assert got == want


class TestNuScenesProtocol:
    """The fixed nuScenes protocol that ``EvalConfig`` holds as constants: AP at
    0.5, 1, 2 and 4 m, TP errors from the 2 m matches, 10% recall and precision floors."""

    CFG = EvalConfig()

    def test_range_filter_is_the_only_setting(self):
        assert [f.name for f in dataclasses.fields(EvalConfig)] == ["range_filter"]

    @staticmethod
    def _offset_frame(offset):
        return [FrameAnnotations("f", "day", gt=[car(10, 0)],
                                 pred=[car(10 + offset, 0, score=0.9)])]

    # dyadic offsets, so the BEV distance is exact at the threshold edges
    @pytest.mark.parametrize("offset", [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 1.875, 2.0, 3.0,
                                        3.875, 4.0, 6.0])
    def test_offset_matches_at_exactly_the_thresholds_above_it(self, offset):
        report = evaluate(self._offset_frame(offset), self.CFG)
        hit = {thr: offset < thr for thr in (0.5, 1.0, 2.0, 4.0)}
        assert report.ap["car"] == {thr: float(h) for thr, h in hit.items()}
        assert report.match_counts == {thr: int(h) for thr, h in hit.items()}
        assert report.mean_ap == pytest.approx(sum(hit.values()) / 4, abs=1e-12)

    @pytest.mark.parametrize("offset", [0.25, 1.5, 1.875, 2.0, 3.0])
    def test_tp_errors_come_from_the_2m_matches(self, offset):
        report = evaluate(self._offset_frame(offset), self.CFG)
        if offset < 2.0:
            want = {"ate": offset, "ase": 0.0, "aoe": 0.0, "ave": 0.0, "aae": 0.0}
        else:  # matched at 4 m only, so no TP pair: every error is 1 by convention
            want = dict.fromkeys(("ate", "ase", "aoe", "ave", "aae"), 1.0)
        assert report.class_tp["car"] == pytest.approx(want, abs=1e-12)
        assert report.tp == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n_gt", [1, 3, 6, 7, 9, 10, 12])
    def test_recall_floor_is_ten_percent(self, n_gt):
        # one exact hit among n_gt cars: precision 1 up to recall 1/n_gt, then 0;
        # only the grid recalls 0.11..1.00 past the 10% floor count
        frames = [FrameAnnotations("f", "day", gt=[car(6.0 * i, 0) for i in range(n_gt)],
                                   pred=[car(0, 0, score=0.9)])]
        kept = sum(1 for k in range(11, 101) if Fraction(k, 100) <= Fraction(1, n_gt))
        got = average_precision(frames, "car", 2.0, self.CFG)
        assert got == pytest.approx(kept / 90, abs=1e-12)

    @pytest.mark.parametrize("n_fp", [1, 2, 4, 8, 9, 12])
    def test_precision_floor_is_ten_percent(self, n_fp):
        # n_fp misses outscore the one hit: the interpolated precision rises
        # linearly from 0 at recall 0 to p = 1/(n_fp + 1) at recall 1, and only
        # its part above the 10% floor counts
        fps = [car(20, 6.0 * i, score=0.9 - 0.01 * i) for i in range(n_fp)]
        frames = [FrameAnnotations("f", "day", gt=[car(0, 0)],
                                   pred=[*fps, car(0, 0, score=0.1)])]
        p = Fraction(1, n_fp + 1)
        total = sum(max(Fraction(0), p * Fraction(k, 100) - Fraction(1, 10))
                    for k in range(11, 101))
        expected = total / 90 / (1 - Fraction(1, 10))
        got = average_precision(frames, "car", 2.0, self.CFG)
        assert got == pytest.approx(float(expected), abs=1e-12)
        assert (got == 0.0) == (p <= Fraction(1, 10))
