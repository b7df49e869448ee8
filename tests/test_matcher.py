import time
from types import SimpleNamespace

import numpy as np
import pytest

from setseg import matcher
from setseg.losses import LossConfig
from setseg.matcher import (
    CostMatrix, brute_force_match, build_cost_matrix, hungarian, pad_square,
)
from setseg.pipeline import TargetSet
from setseg.tensor import ContractError, Tensor
from setseg.verify import COST_KINDS, cost_block

from conftest import targets as target_set

# The 4 real rows of the 16x16 cost matrix that an untrained README toy.cfg
# model (synth seed 11, batch 1, image 2) produced before the pixel decoder's
# upsample+conv was fused. The solver before the rectangular one looped
# forever on it: relaxing columns already in the search tree made its path
# rebuild cycle. Frozen as repr'd float64 so forward rounding cannot move it.
NEAR_TIE_ROWS = [
    [1.4863181586566536, 1.491176410754243, 1.4792742219755053, 1.4884080252842427,
     1.486649109933543, 1.4820902713155797, 1.4888805658970758, 1.4854877909464324,
     1.4811223651680523, 1.4821677949537557, 1.4836797327109876, 1.4767681045142427,
     1.4841314321351406, 1.4920616060147212, 1.4808247626978353, 1.4825181887012298],
    [2.857696718853807, 2.9163963427445894, 2.88772518311337, 2.9224832578597724,
     2.8919101863103642, 2.9346542535810514, 2.8315912541365997, 2.862801438638445,
     2.881562434427051, 2.926415288041626, 2.893636207766944, 2.830916695175079,
     2.878967987268074, 2.9154391059667057, 2.91191437452873, 2.88036405803929],
    [2.9957988823236765, 3.064622844152808, 3.023144753833243, 3.061293359033139,
     3.034550084209077, 3.06910612052484, 2.9601579130229494, 2.9882784859558242,
     3.0185201909708628, 3.0657528491045385, 3.0339534624880184, 2.9657921378131236,
     3.0126601771001775, 3.057651996249381, 3.052577490888749, 3.016396812705416],
    [3.147517785591615, 3.22012574063517, 3.1766165183428967, 3.2212410642144182,
     3.18773807744267, 3.2279520509060338, 3.111040774703743, 3.1418001083650724,
     3.1732219075327563, 3.22042061794937, 3.1869913530940925, 3.112236252079037,
     3.1687347207876204, 3.2138175288682254, 3.208627105331605, 3.1697132908117713],
]


def random_outputs(rng, n_q, k, h, w):
    return SimpleNamespace(
        mask_logits=Tensor(rng.standard_normal((1, n_q, h, w))),
        class_logits=Tensor(rng.standard_normal((1, n_q, k + 1))),
    )


class TestCostMatrix:
    @pytest.mark.parametrize("valid_side, target_sides", [(8, []), (8, [4]), (4, [8])],
                             ids=["valid_no_targets", "valid", "target"])
    def test_grids_off_the_mask_resolution_rejected(self, valid_side, target_sides):
        outputs = random_outputs(np.random.default_rng(0), 4, 3, 4, 4)
        masks = [np.ones((s, s), np.uint8) for s in target_sides]
        targets = target_set(masks, [1] * len(masks), (4, 4))
        with pytest.raises(ContractError, match=r"\(8, 8\).*\(4, 4\)"):
            build_cost_matrix(outputs, targets, np.ones((valid_side,) * 2, bool), LossConfig())

    def test_target_id_above_the_label_count_rejected(self):
        outputs = random_outputs(np.random.default_rng(0), 4, 3, 4, 4)
        ids = np.zeros((4, 4), np.int64)
        ids[0, 0] = 3
        with pytest.raises(ContractError, match="target id 3 above the label count 2"):
            build_cost_matrix(outputs, TargetSet(ids, [1, 2]), np.ones((4, 4), bool),
                              LossConfig())

    def test_empty_targets_all_pad(self):
        rng = np.random.default_rng(0)
        outputs = random_outputs(rng, 4, 3, 4, 4)
        cm = build_cost_matrix(outputs, target_set([], [], (4, 4)),
                               np.ones((4, 4), bool), LossConfig())
        assert cm.real_rows == 0
        assert (cm.values == cm.pad_cost).all()
        assert hungarian(cm).query_for_gt.size == 0

    def test_perfect_match_dominates_row(self):
        n_q, k, h = 5, 3, 4
        gt = np.zeros((h, h), dtype=np.uint8)
        gt[1:3, 1:3] = 1
        mask_logits = np.full((1, n_q, h, h), -10.0)
        mask_logits[0, 3] = np.where(gt, 10.0, -10.0)
        class_logits = np.zeros((1, n_q, k + 1))
        class_logits[0, 3, 0] = 10.0        # query 3 confident in class 1
        outputs = SimpleNamespace(mask_logits=Tensor(mask_logits),
                                  class_logits=Tensor(class_logits))
        cm = build_cost_matrix(outputs, target_set([gt], [1]),
                               np.ones((h, h), bool), LossConfig())
        assert int(np.argmin(cm.values[0])) == 3

    def test_cells_match_per_pair_loss_sums(self):
        rng = np.random.default_rng(1)
        n_q, n, k, h = 5, 3, 4, 4
        outputs = random_outputs(rng, n_q, k, h, h)
        masks = []
        labels = []
        for i in range(n):
            m = np.zeros((h, h), dtype=np.uint8)
            m[i, :] = 1
            masks.append(m)
            labels.append(i + 1)
        targets = target_set(masks, labels)
        cfg = LossConfig()
        probs = np.exp(outputs.class_logits.data[0])
        probs /= probs.sum(-1, keepdims=True)
        partly_invalid = np.ones((h, h), bool)
        partly_invalid[:, -1] = False
        partly_invalid[-1, :] = False
        for valid in (np.ones((h, h), bool), partly_invalid):
            cm = build_cost_matrix(outputs, targets, valid, cfg)
            for i in range(n):
                for q in range(n_q):
                    # plain numpy over the valid pixels
                    p = 1.0 / (1.0 + np.exp(-outputs.mask_logits.data[0, q][valid]))
                    g = masks[i][valid].astype(np.float64)
                    d = 1.0 - (2.0 * (p * g).sum() + cfg.dice_eps) / (p.sum() + g.sum()
                                                                       + cfg.dice_eps)
                    pc = np.clip(p, 1e-7, 1 - 1e-7)
                    pt = np.where(g > 0, pc, 1.0 - pc)
                    at = np.where(g > 0, cfg.focal_alpha, 1.0 - cfg.focal_alpha)
                    f = (at * (1.0 - pt) ** cfg.focal_gamma * -np.log(pt)).mean()
                    c = -float(probs[q, labels[i] - 1])
                    expected = cfg.class_weight * c + cfg.focal_weight * f \
                        + cfg.dice_weight * d
                    assert abs(cm.values[i, q] - expected) <= 1e-6

    def test_weights_are_the_loss_weights(self):
        # zero mask-loss weights leave the class cost alone, as in the loss
        rng = np.random.default_rng(4)
        n_q, k, h = 6, 3, 4
        outputs = random_outputs(rng, n_q, k, h, h)
        masks = [np.eye(h, dtype=np.uint8), 1 - np.eye(h, dtype=np.uint8)]
        labels = [2, 3]
        cm = build_cost_matrix(outputs, target_set(masks, labels), np.ones((h, h), bool),
                               LossConfig(focal_weight=0.0, dice_weight=0.0))
        probs = np.exp(outputs.class_logits.data[0])
        probs /= probs.sum(-1, keepdims=True)
        class_cost = -probs[:, np.array(labels) - 1].T
        np.testing.assert_allclose(cm.values[:2], class_cost, rtol=0, atol=1e-12)

    def test_pad_cost_exceeds_real_entries(self):
        rng = np.random.default_rng(2)
        outputs = random_outputs(rng, 6, 2, 4, 4)
        gt = np.ones((4, 4), dtype=np.uint8)
        cm = build_cost_matrix(outputs, target_set([gt], [1]),
                               np.ones((4, 4), bool), LossConfig())
        real = cm.values[:1, :]
        assert cm.pad_cost >= real.max() + 1.0 - 1e-12
        assert (cm.values[1:, :] == cm.pad_cost).all()

    def test_target_overflow_rejected(self):
        rng = np.random.default_rng(3)
        outputs = random_outputs(rng, 2, 2, 4, 4)
        masks = [np.zeros((4, 4), dtype=np.uint8) for _ in range(3)]
        for i, m in enumerate(masks):
            m[i] = 1
        with pytest.raises(matcher.MatcherError):
            build_cost_matrix(outputs, target_set(masks, [1, 1, 1]),
                              np.ones((4, 4), bool), LossConfig())

    def test_target_label_above_the_class_head_rejected(self):
        # K = 3 classes, 4 columns: labels 0 and 4 would be scored as the
        # no-object column, label 5 would index past it
        rng = np.random.default_rng(5)
        outputs = SimpleNamespace(mask_logits=Tensor(rng.standard_normal((2, 4, 4, 4))),
                                  class_logits=Tensor(rng.standard_normal((2, 4, 4))))
        gt = np.ones((4, 4), dtype=np.uint8)
        gt[2:] = 0
        for label in (0, 4, 5):
            with pytest.raises(matcher.MatcherError) as err:
                build_cost_matrix(outputs, target_set([gt, 1 - gt], [1, label]),
                                  np.ones((4, 4), bool), LossConfig(), batch_index=1)
            assert str(err.value) == f"target label {label} outside 1..K with K = 3"

    def test_nan_cost_named(self):
        outputs = SimpleNamespace(
            mask_logits=Tensor(np.full((1, 2, 2, 2), np.nan)),
            class_logits=Tensor(np.zeros((1, 2, 3))),
        )
        gt = np.ones((2, 2), dtype=np.uint8)
        with pytest.raises(matcher.MatcherError) as err:
            build_cost_matrix(outputs, target_set([gt], [1]),
                              np.ones((2, 2), bool), LossConfig())
        assert "query" in str(err.value)


class TestHungarian:
    def test_diagonal_optimum(self):
        a = hungarian(pad_square(np.array([[0.0, 9.0], [9.0, 0.0]])))
        assert list(a.query_for_gt) == [0, 1]
        assert a.total_real_cost == 0.0

    def test_two_permutation_brute_derivation(self):
        # permutations of [[1,2],[2,1]]: identity costs 2, swap costs 4
        a = hungarian(pad_square(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert list(a.query_for_gt) == [0, 1]
        assert a.total_real_cost == 2.0

    def test_rectangular_vs_injection_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            real = rng.random((3, 5))
            cm = pad_square(real, 5)
            got = hungarian(cm)
            want = brute_force_match(real)
            assert got.total_real_cost == pytest.approx(want.total_real_cost, abs=1e-12)

    def test_untrained_model_near_ties_terminate(self):
        cm = pad_square(np.array(NEAR_TIE_ROWS), 16)
        assert cm.values.shape == (16, 16) and cm.real_rows == 4
        got = hungarian(cm)
        assert list(got.query_for_gt) == [2, 0, 6, 11]
        assert got.total_real_cost == 10.409365105931299

    def test_non_square_rejected(self):
        with pytest.raises(ContractError):
            hungarian(CostMatrix(np.zeros((2, 3)), 2, 1.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            hungarian(pad_square(np.array([[np.inf, 1.0], [1.0, 0.0]])))


class TestBruteForce:
    def test_single_cell(self):
        a = brute_force_match(np.array([[7.0]]))
        assert list(a.query_for_gt) == [0]
        assert a.total_real_cost == 7.0

    def test_two_by_three_enumeration(self):
        a = brute_force_match(np.array([[1.0, 5.0, 5.0], [5.0, 1.0, 5.0]]))
        assert list(a.query_for_gt) == [0, 1]
        assert a.total_real_cost == 2.0

    def test_injectivity_with_dominant_column(self):
        costs = np.array([[0.0, 10.0, 10.0], [0.1, 10.0, 10.0]])
        a = brute_force_match(costs)
        assert len(set(a.query_for_gt)) == 2

    def test_size_guard(self):
        with pytest.raises(matcher.MatcherError):
            brute_force_match(np.zeros((2, 10)))


class TestEquivalence:
    def test_square_padded_equals_brute_force_on_200_matrices(self):
        rng = np.random.default_rng(5)
        for kind in COST_KINDS:
            for _ in range(200 if kind == "uniform" else 50):
                n_q = int(rng.integers(1, 9))
                n = int(rng.integers(1, n_q + 1))
                real = cost_block(rng, kind, n, n_q)
                got = hungarian(pad_square(real, n_q))
                want = brute_force_match(real)
                assert got.total_real_cost == want.total_real_cost, kind
                # unique optimum -> identical matching (ties compare by cost only)
                second_best = _second_best_total(real)
                if second_best is None or second_best > want.total_real_cost + 1e-9:
                    assert list(got.query_for_gt) == list(want.query_for_gt)

    def test_100_queries_equal_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(9)
        for kind in COST_KINDS:
            for _ in range(25):
                n = int(rng.integers(1, 31))
                real = cost_block(rng, kind, n, 100)
                got = hungarian(pad_square(real, 100))
                rows, cols = optimize.linear_sum_assignment(real)
                assert len(set(got.query_for_gt.tolist())) == n
                assert got.total_real_cost == pytest.approx(real[rows, cols].sum(),
                                                            rel=1e-12, abs=1e-12), kind

    def test_pad_neutrality(self):
        rng = np.random.default_rng(6)
        real = rng.random((3, 5))
        base = hungarian(pad_square(real, 5)).total_real_cost
        for n_q in (6, 8, 12):
            assert hungarian(pad_square(real, n_q)).total_real_cost == base

    def test_scale_invariance_of_matching(self):
        rng = np.random.default_rng(7)
        real = rng.random((4, 6))
        base = hungarian(pad_square(real, 6))
        for c in (0.5, 3.0, 1000.0):
            scaled = hungarian(pad_square(real * c, 6))
            assert list(scaled.query_for_gt) == list(base.query_for_gt)
            assert scaled.total_real_cost == pytest.approx(base.total_real_cost * c, rel=1e-12)

    def test_runtime_smoke_n256(self):
        rng = np.random.default_rng(8)
        cm = pad_square(rng.random((256, 256)))
        t0 = time.perf_counter()
        hungarian(cm)
        assert time.perf_counter() - t0 < 1.0


def _second_best_total(real):
    import itertools
    n, n_q = real.shape
    totals = sorted(
        real[np.arange(n), list(p)].sum() for p in itertools.permutations(range(n_q), n)
    )
    return totals[1] if len(totals) > 1 else None
