import ast
import inspect
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from setseg import losses
from setseg.losses import LossConfig, total_loss
from setseg.matcher import Assignment, build_cost_matrix, hungarian
from setseg.tensor import Tape, Tensor, backward
from setseg.verify import image_loss

from conftest import central_difference, max_rel_error, targets as target_set

BIG = 40.0   # sigmoid(+-40) is 1/0 to ~4e-18


def matcher_costs(outputs, target_sets, cfg, valid_masks):
    """One ``build_cost_matrix`` per image of these outputs."""
    return [build_cost_matrix(outputs, targets, valid, cfg, batch_index=b)
            for b, (targets, valid) in enumerate(zip(target_sets, valid_masks))]


def matched_loss(outputs, target_sets, assignments, cfg, valid_masks):
    """``total_loss`` over the matcher's costs, with the given assignments."""
    return total_loss(outputs, matcher_costs(outputs, target_sets, cfg, valid_masks),
                      assignments, cfg)


def one_pair(logits, gt, cfg=None, valid=None):
    """The batch loss of one query with mask logits ``logits`` [h, w] matched to ``gt``."""
    return image_loss(np.asarray(logits, dtype=np.float64)[None], np.zeros((1, 2)), gt, [1],
                      [0], cfg or LossConfig(), valid)


def classification(class_logits, labels, no_object_weight=1e-4):
    """The classification term for per-query ``labels``, K+1 meaning no-object."""
    labels = np.asarray(labels)
    queries = np.flatnonzero(labels < class_logits.shape[-1])
    return image_loss(np.zeros((len(labels), 1, 1)), class_logits,
                      np.zeros((1, 1)), labels[queries], queries,
                      LossConfig(no_object_weight=no_object_weight)).classification


# loss weights that leave one term of the total
DICE_ONLY = LossConfig(class_weight=0.0, focal_weight=0.0)
FOCAL_ONLY = LossConfig(class_weight=0.0, dice_weight=0.0)


def mask_gradient_error(arr, gt, cfg):
    """Relative error of the batch op's mask-logit grad for one pair against central differences."""
    x = Tensor(arr[None], requires_grad=True, dtype=np.float64)
    backward(image_loss(x, np.zeros((1, 2)), gt, [1], [0], cfg).total_tensor)
    numeric = central_difference(lambda a: one_pair(a, gt, cfg).total, [arr], 0)
    return max_rel_error(x.grad[0], numeric)


class TestDice:
    def test_perfect_overlap_is_zero(self):
        out = one_pair(np.full((2, 2), BIG), np.ones((2, 2)), LossConfig(dice_eps=1.0))
        assert abs(out.dice - 0.0) < 1e-12

    def test_disjoint_hand_value(self):
        # p=[1,1,0,0], g=[0,0,1,1]: 1 - (0 + 1)/(2 + 2 + 1) = 0.8
        out = one_pair([[BIG, BIG], [-BIG, -BIG]], np.array([[0, 0], [1, 1]]),
                       LossConfig(dice_eps=1.0))
        assert abs(out.dice - 0.8) < 1e-12

    def test_padding_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((3, 4))
        gt = rng.integers(0, 2, size=(3, 4))
        base = one_pair(logits, gt, valid=np.ones((3, 4), dtype=bool)).dice
        logits_p = np.concatenate([logits, rng.standard_normal((2, 4))], axis=0)
        gt_p = np.concatenate([gt, rng.integers(0, 2, size=(2, 4))], axis=0)
        valid_p = np.concatenate([np.ones((3, 4), bool), np.zeros((2, 4), bool)], axis=0)
        padded = one_pair(logits_p, gt_p, valid=valid_p).dice
        assert abs(base - padded) <= 1e-7

    def test_all_invalid_returns_zero_with_counter(self):
        out = one_pair(np.zeros((2, 2)), np.zeros((2, 2)), valid=np.zeros((2, 2), bool))
        assert out.dice == 0.0
        assert out.degenerate_dice == 1

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = one_pair(rng.standard_normal((4, 4)) * 3, rng.integers(0, 2, size=(4, 4))).dice
            assert 0.0 <= v <= 1.0


class TestFocal:
    def test_perfectly_classified_is_zero(self):
        gt = np.array([[1, 0], [0, 1]])
        out = one_pair(np.where(gt, BIG, -BIG), gt, LossConfig(focal_alpha=0.25, focal_gamma=2.0))
        assert abs(out.focal) < 1e-12

    def test_gamma_zero_reduces_to_half_bce(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((3, 3))
        gt = rng.integers(0, 2, size=(3, 3)).astype(np.float64)
        out = one_pair(logits, gt, LossConfig(focal_alpha=0.5, focal_gamma=0.0)).focal
        p = 1.0 / (1.0 + np.exp(-logits))
        bce = -(gt * np.log(p) + (1 - gt) * np.log(1 - p)).mean()
        assert abs(out - 0.5 * bce) < 1e-9

    def test_single_pixel_hand_value(self):
        # 0.25 * (1-0.9)^2 * (-ln 0.9) = 2.634012891445657e-4
        out = one_pair([[math.log(0.9 / 0.1)]], np.array([[1]]),
                       LossConfig(focal_alpha=0.25, focal_gamma=2.0))
        assert abs(out.focal - 2.634012891445657e-4) < 1e-12

    def test_padding_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 3))
        gt = rng.integers(0, 2, size=(4, 3))
        base = one_pair(logits, gt, valid=np.ones((4, 3), bool)).focal
        logits_p = np.concatenate([logits, rng.standard_normal((4, 2))], axis=1)
        gt_p = np.concatenate([gt, rng.integers(0, 2, size=(4, 2))], axis=1)
        valid_p = np.concatenate([np.ones((4, 3), bool), np.zeros((4, 2), bool)], axis=1)
        padded = one_pair(logits_p, gt_p, valid=valid_p).focal
        assert abs(base - padded) <= 1e-7

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = one_pair(rng.standard_normal((3, 3)) * 4, rng.integers(0, 2, size=(3, 3))).focal
            assert v >= 0.0


class TestClassification:
    def test_uniform_logits_all_real(self):
        k = 4
        out = classification(np.zeros((6, k + 1)), [1, 2, 3, 4, 1, 2], no_object_weight=1e-4)
        assert abs(out - math.log(k + 1)) < 1e-6

    def test_all_no_object_weight_cancels(self):
        k = 3
        for w in (1e-4, 0.5, 3.0):
            out = classification(np.zeros((5, k + 1)), np.full(5, k + 1), no_object_weight=w)
            assert abs(out - math.log(k + 1)) < 1e-6

    def test_two_query_hand_value(self):
        # one real with p_true 0.5, one no-object with p_true 0.25, w=1e-4:
        # (-ln 0.5 + 1e-4 * -ln 0.25) / 1.0001
        k = 3
        q0 = [math.log(0.5)] + [math.log(0.5 / 3)] * 3
        q1 = [math.log(0.25)] * 4
        expected = (-math.log(0.5) + 1e-4 * -math.log(0.25)) / 1.0001
        out = classification(np.array([q0, q1]), [1, k + 1], no_object_weight=1e-4)
        assert abs(out - expected) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        assert classification(rng.standard_normal((8, 5)), rng.integers(1, 6, size=8)) >= 0.0


class TestGradients:
    def test_dice_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            arr = rng.standard_normal((3, 3))
            gt = rng.integers(0, 2, size=(3, 3))
            assert mask_gradient_error(arr, gt, DICE_ONLY) <= 1e-4

    def test_focal_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            arr = rng.standard_normal((3, 3))
            gt = rng.integers(0, 2, size=(3, 3))
            assert mask_gradient_error(arr, gt, FOCAL_ONLY) <= 1e-4

    def test_classification_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            arr = rng.standard_normal((4, 5))
            labels = rng.integers(1, 6, size=4)
            x = Tensor(arr, requires_grad=True, dtype=np.float64)
            queries = np.flatnonzero(labels < 5)
            backward(image_loss(np.zeros((4, 1, 1)), x, np.zeros((1, 1)),
                                labels[queries], queries, LossConfig()).total_tensor)
            numeric = central_difference(lambda a: classification(a, labels), [arr], 0)
            assert max_rel_error(x.grad, numeric) <= 1e-4

    def test_monotone_toward_target(self):
        # raising a logit where g=1 must lower dice and focal: gradient < 0 there
        gt = np.zeros((2, 2))
        gt[0, 0] = 1
        for cfg in (DICE_ONLY, FOCAL_ONLY):
            x = Tensor(np.zeros((1, 2, 2)), requires_grad=True, dtype=np.float64)
            backward(image_loss(x, np.zeros((1, 2)), gt, [1], [0], cfg).total_tensor)
            assert x.grad[0, 0, 0] < 0 and x.grad[0, 1, 1] > 0


class TestTotalLoss:
    def _fixture(self):
        # 2 queries, 1 GT, 3x3 masks, K=3
        rng = np.random.default_rng(9)
        mask_logits = rng.standard_normal((1, 2, 3, 3))
        class_logits = rng.standard_normal((1, 2, 4))
        outputs = SimpleNamespace(
            mask_logits=Tensor(mask_logits, dtype=np.float64),
            class_logits=Tensor(class_logits, dtype=np.float64),
        )
        gt = np.zeros((3, 3), dtype=np.uint8)
        gt[:2, :2] = 1
        targets = target_set([gt], [2])
        valid = np.ones((3, 3), dtype=bool)
        assignment = Assignment(np.array([1]), 0.0)
        return outputs, targets, valid, assignment, mask_logits, class_logits

    def test_components_match_independent_recomputation(self):
        outputs, targets, valid, assignment, ml, cl = self._fixture()
        cfg = LossConfig()
        bundle = matched_loss(outputs, [targets], [assignment], cfg, valid[None])

        # independent recomputation, plain numpy
        logits = ml[0, 1]
        gt = np.zeros((3, 3))
        gt[:2, :2] = 1
        p = 1.0 / (1.0 + np.exp(-logits))
        dice = 1.0 - (2.0 * (p * gt).sum() + 1.0) / (p.sum() + gt.sum() + 1.0)
        pc = np.clip(p, 1e-7, 1 - 1e-7)
        pt = np.where(gt > 0, pc, 1.0 - pc)
        at = np.where(gt > 0, 0.25, 0.75)
        focal = (at * (1.0 - pt) ** 2 * -np.log(pt)).mean()
        z = cl[0]
        logp = z - np.log(np.exp(z - z.max(-1, keepdims=True)).sum(-1, keepdims=True)) \
            - z.max(-1, keepdims=True)
        # query 1 matched to class 2 (column 1); query 0 is no-object (column 3)
        w = np.array([1e-4, 1.0])
        picked = np.array([logp[0, 3], logp[1, 1]])
        cls = -(w * picked).sum() / w.sum()

        assert abs(bundle.dice - dice) <= 1e-3
        assert abs(bundle.focal - focal) <= 1e-3
        assert abs(bundle.classification - cls) <= 1e-3
        assert abs(bundle.dice - dice) < 1e-6   # observed error far below the 1e-3 gate

    def test_degenerate_dice_counts_pairs_without_valid_pixels(self):
        rng = np.random.default_rng(4)
        outputs = SimpleNamespace(
            mask_logits=Tensor(rng.standard_normal((1, 3, 3, 3))),
            class_logits=Tensor(rng.standard_normal((1, 3, 4))),
        )
        top = np.zeros((3, 3), dtype=np.uint8)
        top[:2] = 1
        targets = target_set([top, 1 - top], [1, 2])
        assignment = Assignment(np.array([2, 0]), 0.0)
        empty = matched_loss(outputs, [targets], [assignment], LossConfig(),
                             np.zeros((1, 3, 3), bool))
        assert empty.degenerate_dice == 2
        assert empty.dice == 0.0 and empty.focal == 0.0
        full = matched_loss(outputs, [targets], [assignment], LossConfig(),
                            np.ones((1, 3, 3), bool))
        assert full.degenerate_dice == 0

    def test_total_is_exact_weighted_sum(self):
        outputs, targets, valid, assignment, _, _ = self._fixture()
        cfg = LossConfig()
        bundle = matched_loss(outputs, [targets], [assignment], cfg, valid[None])
        expected = (cfg.class_weight * bundle.classification
                    + cfg.focal_weight * bundle.focal
                    + cfg.dice_weight * bundle.dice)
        assert bundle.total == expected
        assert bundle.total >= 0.0

    def test_perfect_prediction_near_zero(self):
        gt = np.zeros((4, 4), dtype=np.uint8)
        gt[1:3, 1:3] = 1
        mask_logits = np.full((1, 2, 4, 4), -BIG)
        mask_logits[0, 0] = np.where(gt, BIG, -BIG)
        class_logits = np.full((1, 2, 4), -BIG)
        class_logits[0, 0, 0] = BIG       # query 0 confident class 1
        class_logits[0, 1, 3] = BIG       # query 1 confident no-object
        outputs = SimpleNamespace(
            mask_logits=Tensor(mask_logits, dtype=np.float64),
            class_logits=Tensor(class_logits, dtype=np.float64),
        )
        targets = target_set([gt], [1])
        bundle = matched_loss(outputs, [targets], [Assignment(np.array([0]), 0.0)],
                              LossConfig(), np.ones((1, 4, 4), bool))
        assert bundle.classification < 1e-3
        assert bundle.focal < 1e-3
        assert bundle.dice < 1e-3

    def test_empty_targets_reduce_to_classification(self):
        rng = np.random.default_rng(10)
        outputs = SimpleNamespace(
            mask_logits=Tensor(rng.standard_normal((1, 3, 4, 4))),
            class_logits=Tensor(rng.standard_normal((1, 3, 5))),
        )
        targets = target_set([], [], shape=(4, 4))
        bundle = matched_loss(outputs, [targets], [Assignment(np.zeros(0, dtype=int), 0.0)],
                              LossConfig(), np.ones((1, 4, 4), bool))
        assert bundle.focal == 0.0 and bundle.dice == 0.0
        # plain numpy: every query is no-object, so the equal weights cancel
        z = outputs.class_logits.data[0].astype(np.float64)
        log_p = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        expected = -log_p[:, -1].mean()
        assert abs(bundle.total - expected) < 1e-6

    def test_one_tape_op_per_batch_whatever_the_image_and_pair_count(self):
        rng = np.random.default_rng(12)
        masks = [np.zeros((3, 3), dtype=np.uint8) for _ in range(3)]
        for i, m in enumerate(masks):
            m[i] = 1
        counts = []
        for bsz in (1, 3):
            outputs = SimpleNamespace(
                mask_logits=Tensor(rng.standard_normal((bsz, 4, 3, 3)), requires_grad=True),
                class_logits=Tensor(rng.standard_normal((bsz, 4, 4)), requires_grad=True),
            )
            for n in (0, 1, 3):
                with Tape() as tape:
                    matched_loss(outputs, [target_set(masks[:n], [1, 2, 3][:n], (3, 3))] * bsz,
                                 [Assignment(np.array([3, 0, 2][:n], dtype=int), 0.0)] * bsz,
                                 LossConfig(), np.ones((bsz, 3, 3), bool))
                    counts.append(len(tape.entries))
        assert counts == [1] * 6

    def test_backward_through_bundle(self):
        rng = np.random.default_rng(11)
        ml = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True, dtype=np.float64)
        cl = Tensor(rng.standard_normal((1, 2, 4)), requires_grad=True, dtype=np.float64)
        outputs = SimpleNamespace(mask_logits=ml, class_logits=cl)
        gt = np.zeros((3, 3), dtype=np.uint8)
        gt[0] = 1
        bundle = matched_loss(outputs, [target_set([gt], [1])], [Assignment(np.array([0]), 0.0)],
                              LossConfig(), np.ones((1, 3, 3), bool))
        backward(bundle.total_tensor)
        assert ml.grad is not None and np.abs(ml.grad).sum() > 0
        assert cl.grad is not None and np.abs(cl.grad).sum() > 0

    def test_gradient_over_pairs_matches_finite_differences(self):
        # a 2-image batch: image 0 has no targets; the second image has several
        # pairs, invalid pixels and logits past the focal clamp, so the forward
        # slice and the gradient scatter must both use its index
        rng = np.random.default_rng(13)
        ml = rng.standard_normal((2, 4, 4, 4)) * 3.0
        ml[1, :, 1, 1] = [20.0, -20.0, 20.0, -20.0]
        cl = rng.standard_normal((2, 4, 4))
        ids = rng.integers(0, 4, size=(4, 4))
        targets = [target_set([], [], shape=(4, 4)),
                   target_set([ids == i for i in (1, 2, 3)], [1, 2, 3])]
        assignments = [Assignment(np.zeros(0, dtype=int), 0.0),
                       Assignment(np.array([2, 0, 3]), 0.0)]
        valid = np.ones((2, 4, 4), bool)
        valid[1, 3] = False
        valid[1, :, 0] = False

        cfg = LossConfig(class_weight=2.0)

        def bundle(m, c, images=(0, 1)):
            outputs = SimpleNamespace(mask_logits=Tensor(m[list(images)], dtype=np.float64),
                                      class_logits=Tensor(c[list(images)], dtype=np.float64))
            return matched_loss(outputs, [targets[i] for i in images],
                                [assignments[i] for i in images], cfg, valid[list(images)])

        # the batch value is the mean of the two images' values
        alone = [bundle(ml, cl, (i,)) for i in (0, 1)]
        both = bundle(ml, cl)
        for name in ("classification", "focal", "dice", "total"):
            expected = (getattr(alone[0], name) + getattr(alone[1], name)) / 2
            assert getattr(both, name) == pytest.approx(expected, rel=1e-12)
        assert alone[1].focal > 0 and alone[1].dice > 0

        x = Tensor(ml, requires_grad=True, dtype=np.float64)
        y = Tensor(cl, requires_grad=True, dtype=np.float64)
        backward(matched_loss(SimpleNamespace(mask_logits=x, class_logits=y), targets,
                              assignments, cfg, valid).total_tensor)

        def value(a, b):
            return bundle(a, b).total

        assert max_rel_error(x.grad, central_difference(value, [ml, cl], 0)) <= 1e-4
        assert max_rel_error(y.grad, central_difference(value, [ml, cl], 1)) <= 1e-4
        assert not x.grad[0].any() and not x.grad[1, 1].any()
        assert not x.grad[1, :, 3].any() and not x.grad[1, :, :, 0].any()
        assert y.grad[0].any() and x.grad[1, [0, 2, 3]].any(axis=(1, 2)).all()

    def _matched_batch(self):
        # float32, 2 images of 2 and 3 targets, 6 queries; the validity mask at
        # the 4x4 logits' resolution is partly invalid in image 1
        rng = np.random.default_rng(14)
        outputs = SimpleNamespace(
            mask_logits=Tensor(rng.standard_normal((2, 6, 4, 4)).astype(np.float32)),
            class_logits=Tensor(rng.standard_normal((2, 6, 4)).astype(np.float32)),
        )
        ids = [rng.integers(0, n + 1, size=(8, 8))[1::2, 1::2] for n in (2, 3)]
        targets = [target_set([ids[0] == i for i in (1, 2)], [1, 3]),
                   target_set([ids[1] == i for i in (1, 2, 3)], [2, 2, 1])]
        valid = np.ones((2, 4, 4), bool)
        valid[1, 2:] = False
        costs = matcher_costs(outputs, targets, LossConfig(), valid)
        return outputs, costs, [hungarian(cm) for cm in costs]

    def test_mask_terms_are_the_matched_cost_cells(self):
        outputs, costs, assignments = self._matched_batch()
        bundle = total_loss(outputs, costs, assignments, LossConfig())
        for name in ("focal", "dice"):
            per_image = [getattr(cm, name)[np.arange(cm.real_rows), a.query_for_gt].mean()
                         for cm, a in zip(costs, assignments)]
            assert getattr(bundle, name) == sum(per_image) / len(per_image)
        assert not costs[1].valid.all() and costs[1].valid.any()

    def test_pixel_terms_are_not_computed_again(self, monkeypatch):
        outputs, costs, assignments = self._matched_batch()
        expected = total_loss(outputs, costs, assignments, LossConfig()).total

        def recomputed(*args):
            raise AssertionError("total_loss recomputed what the cost matrix holds")

        monkeypatch.setattr(losses, "mask_costs", recomputed)
        assert total_loss(outputs, costs, assignments, LossConfig()).total == expected
        imported = {node.module for node in ast.walk(ast.parse(inspect.getsource(losses)))
                    if isinstance(node, ast.ImportFrom)}
        assert "pipeline" not in imported


# ---------------------------------------------------------------------------
# Differential: targets as one id grid against a stack of per-target masks
# ---------------------------------------------------------------------------

def stacked_target_pixels(ids, n, valid):
    """The reference rows: a stack of n uint8 masks, one per target, at the valid pixels."""
    masks = np.array([ids == i for i in range(1, n + 1)], np.uint8).reshape(n, *ids.shape)
    return losses._valid_pixels(masks, valid)


# (queries, grid side, targets, ids drawn from 0..top, blocky ids, invalid rows and columns)
ID_GRID_CASES = [
    (16, 16, 0, 0, False, 0), (16, 16, 1, 1, False, 4), (16, 16, 1, 0, False, 0),
    (16, 16, 5, 3, False, 5), (16, 12, 3, 3, True, 3), (100, 24, 7, 7, False, 9),
    (100, 160, 8, 6, True, 40), (100, 160, 2, 2, False, 0),
]


@pytest.mark.parametrize("n_q, side, n, top, blocky, cut", ID_GRID_CASES)
def test_id_grid_costs_and_grads_equal_the_mask_stack_bit_for_bit(n_q, side, n, top, blocky,
                                                                   cut, monkeypatch):
    rng = np.random.default_rng(side * n_q + n)
    logits = (3.0 * rng.standard_normal((n_q, side, side))).astype(np.float32)
    if blocky:      # targets as 4x4 blocks
        ids = np.kron(rng.integers(0, top + 1, (side // 4, side // 4)), np.ones((4, 4), np.int64))
    else:
        ids = rng.integers(0, top + 1, (side, side))
    valid = np.ones((side, side), bool)
    valid[side - cut // 2:] = False
    valid[:, side - (cut + 1) // 2:] = False
    if blocky:      # as parse emits them; otherwise ids past the valid pixels must not count
        ids[~valid] = 0
    rows = logits[rng.permutation(n_q)[:n]]
    cfg = LossConfig()

    def costs_and_grad():
        return (*losses.mask_costs(logits, ids, n, valid, cfg),
                losses._mask_grad(rows, ids, valid, cfg))

    got = costs_and_grad()
    monkeypatch.setattr(losses, "_target_pixels", stacked_target_pixels)
    want = costs_and_grad()
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
    assert got[0].shape == (n, n_q) and got[2].shape == (n, side, side)


# ---------------------------------------------------------------------------
# mask_costs in pixel blocks against the one-shot formula
# ---------------------------------------------------------------------------

def one_shot_mask_costs(logits, gt, n, valid, cfg):
    """The reference: the pixel terms of all R x V (query, valid pixel) pairs at once."""
    x, g = losses._valid_pixels(logits, valid), losses._target_pixels(gt, n, valid)
    p, _, pos, neg = losses._pixel_terms(x, cfg)
    eps = cfg.dice_eps
    dice = 1.0 - (2.0 * (g @ p.T) + eps) / (g.sum(axis=1)[:, None] + p.sum(axis=1) + eps)
    focal = (g @ (pos - neg).T + neg.sum(axis=1)) / max(x.shape[1], 1)
    return dice, focal


@pytest.mark.parametrize("r", [1, 15, 16, 17, 100])
@pytest.mark.parametrize("n", [1, 3])
def test_mask_costs_in_pixel_blocks_equal_the_one_shot_formula(n, r, monkeypatch):
    rng = np.random.default_rng(100 * r + n)
    logits = (3.0 * rng.standard_normal((r, 40, 40))).astype(np.float32)
    ids = rng.integers(0, n + 1, (40, 40))
    valid = np.ones((40, 40), bool)
    valid[30:] = False
    valid[:, 25:] = False
    cfg = LossConfig()
    want = one_shot_mask_costs(logits, ids, n, valid, cfg)
    blocks = []
    pixel_terms = losses._pixel_terms
    monkeypatch.setattr(losses, "_pixel_terms", lambda x, c: blocks.append(x) or pixel_terms(x, c))
    got = losses.mask_costs(logits, ids, n, valid, cfg)
    # each valid pixel reaches the terms once, in order, in blocks of 4096 // R positions
    step = max(1, losses._TERM_BLOCK // r)
    assert losses._TERM_BLOCK == 4096 and len(blocks) == -(-1600 // step)
    assert all(b.shape == (r, valid.reshape(-1)[i:i + step].sum())
               for b, i in zip(blocks, range(0, 1600, step)))
    assert np.array_equal(np.concatenate(blocks, axis=1), losses._valid_pixels(logits, valid))
    for a, b in zip(got, want):
        assert a.shape == (n, r) and np.array_equal(a, b)


def test_mask_grad_computes_no_focal_values(monkeypatch):
    # the grad reads only p and pc; the focal terms are the cost's
    rng = np.random.default_rng(7)
    rows = 3.0 * rng.standard_normal((2, 6, 6))
    ids = rng.integers(0, 3, (6, 6))
    valid = np.ones((6, 6), bool)
    want = losses._mask_grad(rows, ids, valid, LossConfig())

    def focal_terms(*args):
        raise AssertionError("_mask_grad computed the focal terms")

    monkeypatch.setattr(losses, "_pixel_terms", focal_terms)
    assert np.array_equal(losses._mask_grad(rows, ids, valid, LossConfig()), want)


# ---------------------------------------------------------------------------
# Scope
# ---------------------------------------------------------------------------

def test_every_public_function_is_used_by_the_pipeline():
    """A loss only tests call is pure verification cost; ``total_loss`` is the one tape op."""
    src = Path(losses.__file__).parent
    text = "".join((src / name).read_text() for name in ("matcher.py", "evaluator.py", "trainer.py"))
    public = [name for name, fn in inspect.getmembers(losses, inspect.isfunction)
              if fn.__module__ == losses.__name__ and not name.startswith("_")]
    assert "total_loss" in public
    assert [name for name in public if not re.search(rf"\b{name}\b", text)] == []
    recording = [node.name for node in ast.walk(ast.parse(inspect.getsource(losses)))
                 if isinstance(node, ast.FunctionDef)
                 and any(isinstance(n, ast.Attribute) and n.attr == "_make_result"
                         for n in ast.walk(node))]
    assert recording == ["total_loss"]
