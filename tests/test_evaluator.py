import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import segments
from setseg.evaluator import (
    EvalConfig, SegmentSet, match_segments, panoptic_quality, postprocess,
)
from setseg.pipeline import TargetSet
from setseg.tensor import ContractError, Tensor
from setseg.trainer import ground_truth_segments


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
    return segments(masks, labels)


def _iou(pred, gt, void):
    """IoU of two binary masks with void pixels outside gt left out of the union."""
    pred = pred.astype(bool)
    gt = gt.astype(bool)
    inter = int((pred & gt).sum())
    union = int(pred.sum()) + int(gt.sum()) - inter
    if void is not None:
        union -= int((pred & void.astype(bool) & ~gt).sum())
    return inter / union if union > 0 else 0.0


def reference_matches(pred, gt):
    """Matching by one full-grid IoU per (pred, gt) pair, in gt order."""
    matches = []
    for j, gl in enumerate(gt.labels):
        for i, pl in enumerate(pred.labels):
            if pl != gl:
                continue
            iou = _iou(pred.ids == i + 1, gt.ids == j + 1, gt.void)
            if iou > 0.5:
                matches.append((i, j, iou))
    return matches


def noisy_pair(rng, h=24, w=20, k=3):
    """A blocky gt id grid with a void band, and a prediction that mostly follows it.

    Both sets carry a label or two beyond their ids, so some segments are empty.
    """
    m = int(rng.integers(1, 7))
    gt_ids = rng.integers(0, m + 1, size=(h // 4, w // 4)).repeat(4, 0).repeat(4, 1)
    void = np.zeros((h, w), bool)
    r0 = int(rng.integers(0, h))
    void[r0:r0 + int(rng.integers(0, 6))] = True
    gt_ids[void] = 0
    n = m + int(rng.integers(0, 3))
    perm = rng.permutation(n + 1)
    pred_ids = perm[gt_ids]
    flip = rng.random((h, w)) < rng.uniform(0.0, 0.5)
    pred_ids[flip] = rng.integers(0, n + 1, size=int(flip.sum()))
    gt_labels = rng.integers(1, k + 1, size=m + 1)
    # most segments keep their gt segment's class; the rest draw a fresh one
    pred_labels = rng.integers(1, k + 1, size=n + 2)
    follow = rng.random(m + 1) < 0.8
    pred_labels[perm[1:m + 1][follow[:m]]] = gt_labels[:m][follow[:m]]
    pred = SegmentSet(pred_ids, pred_labels[1:].tolist())
    gt = SegmentSet(gt_ids, gt_labels.tolist(), void)
    return pred, gt


class TestPanopticQuality:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            s = random_segment_set(np.random.default_rng(seed))
            res = panoptic_quality(s, s)
            assert res.pq == 1.0 and res.sq == 1.0 and res.rq == 1.0

    def test_empty_prediction_is_all_fn(self):
        gt = segments([square_mask(8, 8, 0, 4, 0, 4)], [1])
        res = panoptic_quality(SegmentSet(np.zeros((8, 8), np.int64), []), gt)
        assert res.pq == 0.0
        assert res.per_class[1].fn == 1

    def test_three_quarter_overlap_hand_value(self):
        # GT 4 px, pred 3 px inside it: IoU = 3 / (3 + 4 - 3) = 0.75 > 0.5
        gt = segments([square_mask(4, 4, 0, 2, 0, 2)], [2])
        pred_mask = square_mask(4, 4, 0, 2, 0, 2)
        pred_mask[1, 1] = 0
        pred = segments([pred_mask], [2])
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
        res = panoptic_quality(segments([m], [1]), segments([m], [2]))
        assert res.pq == 0.0
        assert res.per_class[1].fp == 1
        assert res.per_class[2].fn == 1

    def test_void_pixels_excluded_from_union(self):
        # pred spills 4 px into void; without the void rule IoU would be 4/8
        gt_mask = square_mask(4, 4, 0, 1, 0, 4)
        void = square_mask(4, 4, 1, 2, 0, 4).astype(bool)
        pred_mask = square_mask(4, 4, 0, 2, 0, 4)
        gt = segments([gt_mask], [1], void=void)
        res = panoptic_quality(segments([pred_mask], [1]), gt)
        assert res.per_class[1].tp == 1
        assert res.sq == 1.0

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

    def test_matches_equal_the_per_pair_reference_bit_for_bit(self):
        matched = on_void = 0
        for seed in range(200):
            pred, gt = noisy_pair(np.random.default_rng(seed))
            got = match_segments(pred, gt)
            want = reference_matches(pred, gt)
            assert [(i, j, iou.hex()) for i, j, iou in got] == \
                [(i, j, iou.hex()) for i, j, iou in want], seed
            matched += len(got)
            on_void += sum(bool((gt.void & (pred.ids == i + 1)).any()) for i, _, _ in got)
        # the fixtures exercise matching and the void rule, not just empty lists
        assert matched > 300 and on_void > 100

    @pytest.mark.parametrize("case", ["shape", "void_shape", "pred_id", "gt_id"])
    def test_grids_that_break_the_contract_are_rejected(self, case):
        pred = segments([square_mask(4, 4, 0, 2, 0, 2)], [1])
        gt = segments([square_mask(4, 4, 0, 2, 0, 2)], [1], void=np.zeros((4, 4), bool))
        if case == "shape":
            pred = SegmentSet(np.ones((1, 1), np.int64), [1])
        elif case == "void_shape":
            gt.void = np.zeros((1, 1), bool)
        elif case == "pred_id":
            pred.ids[3, 3] = 2
        else:
            gt.ids[3, 3] = 2
        with pytest.raises(ContractError):
            match_segments(pred, gt)


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
        assert out.ids.shape == (8, 8) and not out.ids.any() and out.labels == []

    def test_single_confident_query(self):
        k = 3
        class_logits = np.full((2, k + 1), -10.0)
        class_logits[0, 1] = 10.0        # class 2
        class_logits[1, k] = 10.0        # no-object
        mask_logits = np.full((2, 8, 8), -10.0)
        mask_logits[0, 2:5, 2:5] = 10.0
        out = postprocess(self._outputs(mask_logits, class_logits))
        assert out.labels == [2]
        assert (out.ids == 1).sum() == 9 and out.ids.max() == 1

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
        by_label = {l: out.ids == i + 1 for i, l in enumerate(out.labels)}
        assert by_label[1][0, 0] == 1
        assert by_label[2][0, 0] == 0
        assert by_label[2][1, 1] == 1

    def test_low_confidence_dropped(self):
        k = 3
        class_logits = np.zeros((1, k + 1))   # uniform -> max prob 0.25 < 0.5
        mask_logits = np.full((1, 4, 4), 10.0)
        out = postprocess(self._outputs(mask_logits, class_logits))
        assert out.labels == [] and not out.ids.any()

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
        assert (out.ids == 1).sum() == 6

    def test_postprocess_disjoint_by_construction(self):
        rng = np.random.default_rng(1)
        out = postprocess(self._outputs(
            rng.standard_normal((6, 8, 8)) * 3,
            rng.standard_normal((6, 4)) * 3,
        ), EvalConfig(confidence_threshold=0.3))
        assert out.labels
        assert np.array_equal(np.unique(out.ids), np.arange(len(out.labels) + 1))

    def test_segments_numbered_in_query_order_over_owning_queries(self):
        k = 3
        class_logits = np.full((4, k + 1), -10.0)
        for q, c in enumerate([2, 0, 1, 2]):
            class_logits[q, c] = 10.0
        mask_logits = np.full((4, 4, 4), -10.0)
        mask_logits[0, 0, 0] = 1.0      # kept, but query 3 is surer on its only pixel
        mask_logits[3, 0, 0] = 5.0
        mask_logits[2, 1, :] = 10.0
        mask_logits[3, 2, :] = 10.0
        out = postprocess(self._outputs(mask_logits, class_logits))
        assert out.labels == [2, 3]          # queries 2 and 3; 0 and 1 own no pixel
        assert (out.ids[1] == 1).all() and (out.ids[2] == 2).all()
        assert out.ids[0, 0] == 2 and (out.ids == 0).sum() == 7


def test_ground_truth_keeps_targets_that_own_a_pixel_renumbered_in_id_order():
    # target 1 (id 2) was lost at mask resolution; the padding column is void
    ids = np.array([[3, 3, 0], [1, 3, 0]])
    valid = np.array([[True, True, False], [True, True, False]])
    gt = ground_truth_segments(TargetSet(ids, [4, 2, 1]), valid)
    assert np.array_equal(gt.ids, [[2, 2, 0], [1, 2, 0]]) and gt.labels == [4, 1]
    assert np.array_equal(gt.void, ~valid)
