"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
captured output). The toy-training criterion generates its dataset, runs 300
steps twice, and checks the convergence ratio, reproducibility, and runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

import conftest

from setseg import records, synth, tensor as T
from setseg.cli import main as cli_main
from setseg.config import RunConfig
from setseg.evaluator import panoptic_quality
from setseg.losses import LossConfig
from setseg.matcher import brute_force_match, build_cost_matrix, hungarian, pad_square
from setseg.model import MaskClassificationModel, ModelConfig
from setseg.tensor import Tape, Tensor, backward
from setseg.trainer import ingest, train
from setseg.losses import total_loss
from setseg.verify import image_loss

from conftest import central_difference, inner, max_rel_error

BIG = 40.0


@contextmanager
def criterion(num, name):
    # print inline (visible with -s) and register for the end-of-session echo
    try:
        yield
    except BaseException:
        line = f"[FAIL] criterion {num}: {name}"
        print(line)
        conftest.CRITERION_LINES.append(line)
        raise
    line = f"[PASS] criterion {num}: {name}"
    print(line)
    conftest.CRITERION_LINES.append(line)


class TestCriterion1:
    def test_shape_contracts_at_full_scale(self):
        with criterion(1, "shape contracts (640 input, default config)"):
            t0 = time.perf_counter()
            model = MaskClassificationModel(ModelConfig())
            with T.no_grad():
                image = Tensor(np.random.default_rng(0)
                               .standard_normal((1, 640, 640, 3)).astype(np.float32))
                feats = model.backbone_stub(image)
                encoded, mask_features = model.pixel_decoder(feats)
                decoded = model.transformer_decoder(encoded)
            emb = T.sine_position_embedding(20, 20, 256)
            assert mask_features.shape == (1, 160, 160, 256)
            assert decoded.shape == (1, 100, 256)
            assert emb.shape == (1, 20, 20, 256)
            assert time.perf_counter() - t0 < 30.0


class TestCriterion2:
    def test_position_embedding_statistic(self):
        with criterion(2, "position embedding mean 0.4937 +/- 1e-3"):
            emb = T.sine_position_embedding(20, 20, 256)
            assert abs(float(emb.data.mean()) - 0.4937) <= 1e-3


class TestCriterion3:
    def test_matcher_equivalence(self):
        with criterion(3, "matcher equals brute force on 200 rectangular matrices"):
            t0 = time.perf_counter()
            rng = np.random.default_rng(42)
            for _ in range(200):
                n_q = int(rng.integers(1, 9))
                n = int(rng.integers(1, n_q + 1))
                real = rng.random((n, n_q))
                got = hungarian(pad_square(real, n_q)).total_real_cost
                want = brute_force_match(real).total_real_cost
                assert got == want
            assert time.perf_counter() - t0 < 10.0


class TestCriterion4:
    def test_loss_fixtures_at_reference_tolerance(self):
        with criterion(4, "loss fixtures within 1e-3 (observed < 1e-6)"):
            # the batch loss op at the default constants, one image with given matches
            cfg = LossConfig(dice_eps=1.0, focal_alpha=0.25, focal_gamma=2.0,
                             no_object_weight=1e-4)

            def one_pair(logits, gt):
                return image_loss(np.array(logits, dtype=np.float64)[None], np.zeros((1, 2)),
                                  gt, [1], [0], cfg)

            got = one_pair(np.full((2, 2), BIG), np.ones((2, 2))).dice
            assert abs(got - 0.0) <= 1e-3 and abs(got - 0.0) < 1e-6

            got = one_pair([[BIG, BIG], [-BIG, -BIG]], np.array([[0, 0], [1, 1]])).dice
            assert abs(got - 0.8) <= 1e-3 and abs(got - 0.8) < 1e-6

            got = one_pair([[math.log(9.0)]], np.array([[1]])).focal
            want = 0.25 * 0.01 * -math.log(0.9)
            assert abs(got - want) <= 1e-3 and abs(got - want) < 1e-6

            # query 0 matched to class 1, query 1 no-object
            q0 = [math.log(0.5)] + [math.log(0.5 / 3)] * 3
            q1 = [math.log(0.25)] * 4
            got = image_loss(np.zeros((2, 1, 1)), np.array([q0, q1]), np.zeros((1, 1)), [1],
                             [0], cfg).classification
            want = (-math.log(0.5) + 1e-4 * -math.log(0.25)) / 1.0001
            assert abs(got - want) <= 1e-3 and abs(got - want) < 1e-6


class TestCriterion5:
    def test_padding_invariance(self):
        with criterion(5, "mask losses invariant to appended padding (<= 1e-7)"):
            rng = np.random.default_rng(1)
            for _ in range(50):
                h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
                logits = rng.standard_normal((h, w))
                gt = rng.integers(0, 2, size=(h, w))
                valid = np.ones((h, w), bool)
                pad = int(rng.integers(1, 5))
                logits_p = np.concatenate([logits, rng.standard_normal((pad, w))], axis=0)
                gt_p = np.concatenate([gt, rng.integers(0, 2, size=(pad, w))], axis=0)
                valid_p = np.concatenate([valid, np.zeros((pad, w), bool)], axis=0)
                plain, padded = (
                    image_loss(l[None], np.zeros((1, 2)), g, [1], [0], LossConfig(), v)
                    for l, g, v in ((logits, gt, valid), (logits_p, gt_p, valid_p)))
                assert abs(plain.dice - padded.dice) <= 1e-7
                assert abs(plain.focal - padded.focal) <= 1e-7


class TestCriterion6:
    def test_gradient_checks(self):
        with criterion(6, "gradient checks (rel err <= 1e-4, no dead parameters)"):
            rng = np.random.default_rng(2)

            # the batch loss op, dice only, focal only, then all three terms: the
            # 3x3 mask pair on the first matched query, 4 queries' labels (5 = no-object)
            arr = rng.standard_normal((3, 3))
            gt = rng.integers(0, 2, size=(3, 3))
            carr = rng.standard_normal((4, 5))
            labels = rng.integers(1, 6, size=4)
            queries = np.flatnonzero(labels < 5)
            marr = np.zeros((4, 3, 3))
            marr[queries[0]] = arr
            for cfg in (LossConfig(class_weight=0.0, focal_weight=0.0),
                        LossConfig(class_weight=0.0, dice_weight=0.0), LossConfig()):
                def value(m, c):
                    return image_loss(m, c, gt, labels[queries], queries, cfg).total

                with Tape():
                    x = Tensor(marr, requires_grad=True, dtype=np.float64)
                    y = Tensor(carr, requires_grad=True, dtype=np.float64)
                    backward(image_loss(x, y, gt, labels[queries], queries,
                                        cfg).total_tensor)
                assert max_rel_error(x.grad, central_difference(value, [marr, carr], 0)) <= 1e-4
                assert max_rel_error(y.grad, central_difference(value, [marr, carr], 1)) <= 1e-4

            # 2-layer toy network in 64-bit, weights and biases, ending in sum(y²)
            arrays = [rng.standard_normal((2, 6)), rng.standard_normal((6, 8)) * 0.5,
                      rng.standard_normal((8, 4)) * 0.5, rng.standard_normal(8) * 0.5,
                      rng.standard_normal(4) * 0.5]

            def toy(x_, w1_, w2_, b1_, b2_):
                y = T.linear(T.relu(T.linear(x_, w1_, b1_)), w2_, b2_)
                return inner(y, y)

            with Tape():
                tensors = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
                backward(toy(*tensors))
            for i, t in enumerate(tensors):
                def scalar(*arrs):
                    with T.no_grad():
                        return toy(*[Tensor(a, dtype=np.float64) for a in arrs]).item()
                numeric = central_difference(scalar, arrays, i)
                assert max_rel_error(t.grad, numeric) <= 1e-4

            # dead-parameter detector on a random batch
            cfg = ModelConfig(input_size=64, n_queries=16, hidden_size=64,
                              backbone_channels=64, num_encoder_layers=2,
                              num_decoder_layers=2, num_heads=4, num_classes=4, seed=0)
            model = MaskClassificationModel(cfg)
            # targets at the 16x16 mask resolution of the 64 px input
            g1 = np.zeros((16, 16), dtype=np.uint8)
            g1[2:10, 2:10] = 1
            g2 = np.zeros((16, 16), dtype=np.uint8)
            g2[11:15, 5:14] = 1
            targets = conftest.targets([g1, g2], [1, 3])
            vmask = np.ones((16, 16), bool)
            run_cfg = RunConfig()
            with Tape():
                outputs = model.forward(
                    Tensor(rng.standard_normal((1, 64, 64, 3)).astype(np.float32)))
                with T.no_grad():
                    cm = build_cost_matrix(outputs, targets, vmask, run_cfg.losses)
                    assignment = hungarian(cm)
                bundle = total_loss(outputs, [cm], [assignment], run_cfg.losses)
                backward(bundle.total_tensor)
            dead = [n for n, p in model.params.items()
                    if p.grad is None or not np.abs(p.grad).any()]
            assert dead == []


class TestCriterion7:
    def test_record_pipeline(self, tmp_path):
        with criterion(7, "record round-trip (1000 entries) and shard balance <= 1.10"):
            rng = np.random.default_rng(3)
            entries = []
            sizes = rng.permutation(np.arange(1, 1001)) * 10   # skewed 10..10000 bytes
            for i in range(1000):
                h, w = 4, 4
                entries.append({
                    "image/height": np.array([h], dtype=np.int64),
                    "image/width": np.array([w], dtype=np.int64),
                    "image/encoded": rng.integers(0, 256, 3 * h * w, dtype=np.uint8).tobytes(),
                    "segmentation/contiguous_mask":
                        rng.integers(0, 4, h * w, dtype=np.uint16).tobytes(),
                    "segmentation/instance_mask":
                        rng.integers(0, 4, h * w, dtype=np.uint16).tobytes(),
                    "image/id": np.array([i], dtype=np.int64),
                    "aux/blob": rng.integers(0, 256, int(sizes[i]), dtype=np.uint8).tobytes(),
                })
            ss = records.write_shards(entries, 4, tmp_path)
            back = {int(e["image/id"][0]): e for e in records.read_shards(ss)}
            assert len(back) == 1000
            for e in entries:
                r = back[int(e["image/id"][0])]
                for key, value in e.items():
                    if isinstance(value, bytes):
                        assert r[key] == value
                    else:
                        assert np.array_equal(r[key], value)
            assert ss.byte_balance() <= 1.10


class TestCriterion8:
    def test_toy_training_convergence(self, tmp_path):
        with criterion(8, "toy training: final < 0.7 x initial, reproducible, < 10 min"):
            t0 = time.perf_counter()
            ann = synth.synth(200, tmp_path / "raw", seed=11, min_size=48, max_size=96)
            ingest(ann, 4, tmp_path / "shards")

            cfg = RunConfig()
            cfg.parser.target_size = 64
            cfg.parser.crop_sizes = (32, 48, 56)
            cfg.model.input_size = 64
            cfg.model.n_queries = 16
            cfg.model.hidden_size = 64
            cfg.model.backbone_channels = 64
            cfg.model.num_encoder_layers = 2
            cfg.model.num_decoder_layers = 2
            cfg.model.num_heads = 4
            cfg.trainer.steps = 300
            cfg.trainer.batch_size = 8
            cfg.trainer.learning_rate = 1e-3
            cfg.trainer.checkpoint_every = 0
            cfg.seed = 5

            r1 = train(cfg, tmp_path / "shards", tmp_path / "runA")
            assert r1.final_total < 0.7 * r1.initial_total, (
                f"ratio {r1.final_total / r1.initial_total:.3f}")
            r2 = train(cfg, tmp_path / "shards", tmp_path / "runB")
            assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()
            assert time.perf_counter() - t0 < 600.0


class TestCriterion9:
    def test_evaluator(self):
        with criterion(9, "evaluator: PQ(gt,gt)=1, 0.75 fixture exact, PQ=SQ*RQ"):
            mapping = {cid: k + 1 for k, cid in enumerate(sorted(synth.CLASS_IDS))}
            for seed in range(10):
                rng = np.random.default_rng(seed)
                _, inst, categories = synth.generate_image(rng, 48, 64)
                masks = [(inst == iid).astype(np.uint8) for iid in sorted(categories)]
                labels = [mapping[categories[iid]] for iid in sorted(categories)]
                gt = conftest.segments(masks, labels)
                res = panoptic_quality(gt, gt)
                assert res.pq == 1.0

            gt_mask = np.zeros((4, 4), dtype=np.uint8)
            gt_mask[:2, :2] = 1
            pred_mask = gt_mask.copy()
            pred_mask[1, 1] = 0
            res = panoptic_quality(conftest.segments([pred_mask], [2]),
                                   conftest.segments([gt_mask], [2]))
            assert res.pq == 0.75 and res.rq == 1.0 and res.sq == 0.75

            for seed in range(20):
                rng = np.random.default_rng(100 + seed)
                grid_p = rng.integers(0, 4, size=(12, 12))
                grid_g = rng.integers(0, 4, size=(12, 12))
                pred = conftest.segments(
                    [(grid_p == i).astype(np.uint8) for i in (1, 2, 3) if (grid_p == i).any()],
                    [i for i in (1, 2, 3) if (grid_p == i).any()])
                gt = conftest.segments(
                    [(grid_g == i).astype(np.uint8) for i in (1, 2, 3) if (grid_g == i).any()],
                    [i for i in (1, 2, 3) if (grid_g == i).any()])
                res = panoptic_quality(pred, gt)
                if sum(s.tp for s in res.per_class.values()) > 0:
                    assert res.pq == res.sq * res.rq


TOY_VERIFY_OVERRIDES = [
    "--set", "parser.target_size=64",
    "--set", "model.input_size=64",
    "--set", "model.n_queries=8",
    "--set", "model.hidden_size=32",
    "--set", "model.backbone_channels=32",
    "--set", "model.num_encoder_layers=1",
    "--set", "model.num_decoder_layers=1",
    "--set", "model.num_heads=4",
]


class TestCriterion10:
    def test_mutation_sensitivity(self, capsys):
        with criterion(10, "verify suite detects dice-eps and no-object-weight mutations"):
            assert cli_main(["verify", *TOY_VERIFY_OVERRIDES]) == 0
            pristine = capsys.readouterr().out
            assert "8/8 checks passed" in pristine

            assert cli_main(["verify", *TOY_VERIFY_OVERRIDES,
                             "--set", "losses.dice_eps=10.0"]) == 1
            eps_out = capsys.readouterr().out
            assert "[FAIL] loss unit fixtures" in eps_out
            assert eps_out.count("[FAIL]") == 1

            assert cli_main(["verify", *TOY_VERIFY_OVERRIDES,
                             "--set", "losses.no_object_weight=0.001"]) == 1
            w_out = capsys.readouterr().out
            assert "[FAIL] loss unit fixtures" in w_out
            assert w_out.count("[FAIL]") == 1
