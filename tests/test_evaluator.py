import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from setseg import evaluator
from setseg.evaluator import (
    EvalConfig, SegmentSet, match_segments, panoptic_quality, postprocess,
)
from setseg.tensor import Tensor


def square_mask(h, w, r0, r1, c0, c1):
    m = np.zeros((h, w), dtype=np.uint8)
    m[r0:r1, c0:c1] = 1
    return m


def random_segment_set(rng, h=16, w=16, n=3, k=4):
    grid = rng.integers(0, n + 1, size=(h, w))
    masks, labels = [], []
    for i in range(1, n + 1):
        m = (grid == i).astype(np.uint8)
        if m.any():
            masks.append(m)
            labels.append(int(rng.integers(1, k + 1)))
    return SegmentSet(masks, labels)


class TestPanopticQuality:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            s = random_segment_set(np.random.default_rng(seed))
            res = panoptic_quality(s, s)
            assert res.pq == 1.0 and res.sq == 1.0 and res.rq == 1.0

    def test_empty_prediction_is_all_fn(self):
        gt = SegmentSet([square_mask(8, 8, 0, 4, 0, 4)], [1])
        res = panoptic_quality(SegmentSet([], []), gt)
        assert res.pq == 0.0
        assert res.per_class[1].fn == 1

    def test_three_quarter_overlap_hand_value(self):
        # GT 4 px, pred 3 px inside it: IoU = 3 / (3 + 4 - 3) = 0.75 > 0.5
        gt = SegmentSet([square_mask(4, 4, 0, 2, 0, 2)], [2])
        pred_mask = square_mask(4, 4, 0, 2, 0, 2)
        pred_mask[1, 1] = 0
        pred = SegmentSet([pred_mask], [2])
        res = panoptic_quality(pred, gt)
        assert res.pq == 0.75
        assert res.rq == 1.0
        assert res.sq == 0.75

    def test_pq_equals_sq_times_rq(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pred = random_segment_set(rng)
            gt = random_segment_set(rng)
            res = panoptic_quality(pred, gt)
            tp = sum(s.tp for s in res.per_class.values())
            if tp > 0:
                assert res.pq == res.sq * res.rq

    def test_class_mismatch_never_matches(self):
        m = square_mask(8, 8, 0, 4, 0, 4)
        res = panoptic_quality(SegmentSet([m], [1]), SegmentSet([m], [2]))
        assert res.pq == 0.0
        assert res.per_class[1].fp == 1
        assert res.per_class[2].fn == 1

    def test_void_pixels_excluded_from_union(self):
        # pred spills 4 px into void; without the void rule IoU would be 4/8
        gt_mask = square_mask(4, 4, 0, 1, 0, 4)
        void = square_mask(4, 4, 1, 2, 0, 4).astype(bool)
        pred_mask = square_mask(4, 4, 0, 2, 0, 4)
        gt = SegmentSet([gt_mask], [1], void=void)
        res = panoptic_quality(SegmentSet([pred_mask], [1]), gt)
        assert res.per_class[1].tp == 1
        assert res.sq == 1.0

    def test_overlapping_input_rejected(self):
        m = square_mask(4, 4, 0, 2, 0, 2)
        with pytest.raises(evaluator.SegmentSetError):
            panoptic_quality(SegmentSet([m, m], [1, 2]), SegmentSet([], []))

    def test_matching_uniqueness_property(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pred = random_segment_set(rng, n=4)
            gt = random_segment_set(rng, n=4)
            matches = match_segments(pred, gt)
            preds = [i for i, _, _ in matches]
            gts = [j for _, j, _ in matches]
            assert len(preds) == len(set(preds))
            assert len(gts) == len(set(gts))


class TestPostprocess:
    def _outputs(self, mask_logits, class_logits):
        return SimpleNamespace(
            mask_logits=Tensor(np.asarray(mask_logits, dtype=np.float32)[None]),
            class_logits=Tensor(np.asarray(class_logits, dtype=np.float32)[None]),
        )

    def test_all_no_object_gives_empty_set(self):
        k = 3
        class_logits = np.zeros((4, k + 1))
        class_logits[:, k] = 10.0
        out = postprocess(self._outputs(np.zeros((4, 8, 8)), class_logits))
        assert out.masks == [] and out.labels == []

    def test_single_confident_query(self):
        k = 3
        class_logits = np.full((2, k + 1), -10.0)
        class_logits[0, 1] = 10.0        # class 2
        class_logits[1, k] = 10.0        # no-object
        mask_logits = np.full((2, 8, 8), -10.0)
        mask_logits[0, 2:5, 2:5] = 10.0
        out = postprocess(self._outputs(mask_logits, class_logits))
        assert len(out.masks) == 1
        assert out.labels == [2]
        assert out.masks[0].sum() == 9

    def test_overlap_goes_to_higher_probability(self):
        k = 2
        class_logits = np.zeros((2, k + 1))
        class_logits[0, 0] = 10.0
        class_logits[1, 1] = 10.0
        mask_logits = np.full((2, 4, 4), -10.0)
        # both queries claim pixel (0, 0); query 0 with prob ~0.9, query 1 ~0.6
        mask_logits[0, 0, 0] = np.log(0.9 / 0.1)
        mask_logits[1, 0, 0] = np.log(0.6 / 0.4)
        mask_logits[1, 1, 1] = 10.0
        out = postprocess(self._outputs(mask_logits, class_logits))
        by_label = {l: m for m, l in zip(out.masks, out.labels)}
        assert by_label[1][0, 0] == 1
        assert by_label[2][0, 0] == 0
        assert by_label[2][1, 1] == 1

    def test_low_confidence_dropped(self):
        k = 3
        class_logits = np.zeros((1, k + 1))   # uniform -> max prob 0.25 < 0.5
        mask_logits = np.full((1, 4, 4), 10.0)
        out = postprocess(self._outputs(mask_logits, class_logits))
        assert out.masks == []

    def test_very_negative_mask_logits_do_not_overflow(self):
        k = 3
        class_logits = np.full((1, k + 1), -10.0)
        class_logits[0, 0] = 10.0
        mask_logits = np.full((1, 8, 8), -1000.0)   # exp(1000) overflows float64
        mask_logits[0, :2, :3] = 10.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = postprocess(self._outputs(mask_logits, class_logits))
        assert out.labels == [1]
        assert out.masks[0].sum() == 6

    def test_postprocess_disjoint_by_construction(self):
        rng = np.random.default_rng(1)
        out = postprocess(self._outputs(
            rng.standard_normal((6, 8, 8)) * 3,
            rng.standard_normal((6, 4)) * 3,
        ), EvalConfig(confidence_threshold=0.3))
        out.validate()
