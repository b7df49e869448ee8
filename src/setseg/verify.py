"""Verification protocol: shape, unit, gradient, and differential checks.

Runs, in order: input-shape validation, the layer-wise shape suite, the
position-embedding reference statistic, gradient finite-difference checks,
loss unit fixtures (tolerance 1e-3), the matcher-vs-brute-force differential
suite, padding invariance, and the record round-trip suite (each record
read back decodes to the arrays it was written from). The loss checks
evaluate ``losses.total_loss``, the op training records, on one image with
given matches (``image_loss``). The gradient checks differentiate it on both
the mask and the class logits, then the grads ``trainer.train_step`` computes
for a tiny float64 model (``GRAD_MODEL``, attention's ``wq``/``wk`` scaled by
10) on a parsed 2-image batch: central differences, step 1e-5 (1e-7 past a
ReLU kink), along unit directions (4 random, 1 per parameter group), with
the step's matches held fixed. Loss fixtures evaluate with the *configured*
loss constants against values computed from ``LossConfig()``'s defaults, so
perturbing a sensitive constant (dice epsilon, no-object weight) makes
exactly that check fail.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import records, tensor as T, trainer
from .config import RunConfig
from .losses import LossBundle, LossConfig, total_loss
from .matcher import Assignment, brute_force_match, build_cost_matrix, hungarian, pad_square
from .model import MaskClassificationModel, ModelConfig, ModelOutputs
from .pipeline import (
    MASK_STRIDE, ParserConfig, TargetSet, batch as make_batch, decode_entry, encode_entry, parse,
)
from .tensor import Tape, Tensor, backward, no_grad

BIG = 40.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    error: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"[{status}] {self.name} (measured error {self.error:.3e})"
        if self.detail and not self.passed:
            msg += f" -- {self.detail}"
        return msg


def central_difference(fn, arrays, index, step=1e-5):
    """Numeric gradient of scalar fn w.r.t. arrays[index] (arrays are float64)."""
    base = [a.copy() for a in arrays]
    target = base[index]
    grad = np.zeros_like(target)
    for idx in np.ndindex(target.shape):
        orig = target[idx]
        target[idx] = orig + step
        f_plus = fn(*base)
        target[idx] = orig - step
        f_minus = fn(*base)
        target[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric):
    """Largest absolute difference, relative to the larger of the two magnitudes."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def _synthetic_entry(rng, h, w, num_classes, image_id=0):
    """A random sample record: instances 0..3, instance i of class (i - 1) % K + 1."""
    inst = rng.integers(0, 4, size=(h, w))
    rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    classes = np.concatenate([[0], np.arange(3) % num_classes + 1])
    return encode_entry(rgb, inst, classes, image_id)


def image_loss(mask_logits, class_logits, ids, labels, queries, loss_cfg: LossConfig,
               valid=None) -> LossBundle:
    """``total_loss`` of one image whose targets are matched to the given queries.

    Target i, the pixels of id ``i + 1`` in the grid ``ids``, of class
    ``labels[i]``, is matched to query ``queries[i]``; a binary grid is one
    target. ``mask_logits`` [R, h, w] and ``class_logits`` [R, K+1] are
    Tensors, whose grads ``backward`` fills, or arrays, taken as float64
    constants. ``ids`` and ``valid`` (default: every pixel) are at mask
    resolution. The costs come from ``build_cost_matrix``, as in training.
    """
    mask_logits, class_logits = (t if isinstance(t, Tensor) else Tensor(t, dtype=np.float64)
                                 for t in (mask_logits, class_logits))
    outputs = ModelOutputs(T.reshape(mask_logits, (1, *mask_logits.shape)),
                           T.reshape(class_logits, (1, *class_logits.shape)))
    if valid is None:
        valid = np.ones(outputs.mask_logits.shape[2:], bool)
    targets = TargetSet(np.asarray(ids, np.int64), list(labels))
    cm = build_cost_matrix(outputs, targets, valid, loss_cfg)
    return total_loss(outputs, [cm], [Assignment(np.asarray(queries, dtype=np.int64), 0.0)],
                      loss_cfg)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_input_shapes(cfg: RunConfig) -> CheckResult:
    rng = np.random.default_rng(0)
    target = cfg.parser.target_size
    entry = _synthetic_entry(rng, max(8, target // 2), target, cfg.model.num_classes)
    sample, targets = parse(entry, cfg.parser, rng_seed=0)
    small = (target // MASK_STRIDE,) * 2
    ok = (
        sample.image.shape == (1, target, target, 3)
        and sample.valid_mask.shape == small
        and targets.ids.shape == small
    )
    return CheckResult("input shape validation", ok, 0.0 if ok else 1.0,
                       f"image {sample.image.shape}")


def check_layer_shapes(cfg: RunConfig) -> CheckResult:
    m = cfg.model
    model = MaskClassificationModel(m)
    s, c = m.input_size, m.hidden_size
    rng = np.random.default_rng(0)
    b = 2   # at batch 1 the decoder's broadcast of its batch-1 query block would be a no-op
    with no_grad():
        image = Tensor(rng.standard_normal((b, s, s, 3)).astype(np.float32))
        feats = model.backbone_stub(image)
        encoded, mask_features = model.pixel_decoder(feats)
        dec = model.transformer_decoder(encoded)
        out = model.heads(dec, mask_features)
    expectations = [
        (feats.shape, (b, s // 32, s // 32, m.backbone_channels), "backbone"),
        (encoded.shape, (b, s // 32, s // 32, c), "encoded"),
        (mask_features.shape, (b, s // 4, s // 4, c), "pixel decoder"),
        (dec.shape, (b, m.n_queries, c), "transformer decoder"),
        (out.mask_logits.shape, (b, m.n_queries, s // 4, s // 4), "mask logits"),
        (out.class_logits.shape, (b, m.n_queries, m.num_classes + 1), "class logits"),
    ]
    bad = [f"{name}: {got} != {want}" for got, want, name in expectations if got != want]
    return CheckResult("layer-wise shape suite", not bad, float(len(bad)), "; ".join(bad))


def check_posembed_statistic(cfg: RunConfig) -> CheckResult:
    emb = T.sine_position_embedding(20, 20, 256)
    err = abs(float(emb.data.mean()) - 0.4937)
    return CheckResult("position embedding statistic", err <= 1e-3, err,
                       f"mean {float(emb.data.mean()):.8f}")


GRAD_MODEL = ModelConfig(input_size=64, n_queries=6, hidden_size=16, backbone_channels=16,
                         num_encoder_layers=1, num_decoder_layers=2, num_heads=2)
GRAD_STEPS = (1e-5, 1e-7)   # central-difference steps along unit directions, in order


def check_gradients(cfg: RunConfig) -> CheckResult:
    rng = np.random.default_rng(1)
    worst = 0.0
    # the batch loss on 3 queries with 0..3 matched targets and a partly invalid mask
    for trial in range(5):
        arrays = [rng.standard_normal((3, 3, 3)), rng.standard_normal((3, 5))]
        n = trial % 4
        masks, labels = rng.integers(0, 2, size=(n, 3, 3)), rng.integers(1, 5, size=n)
        ids = (masks * np.arange(1, n + 1)[:, None, None]).max(axis=0, initial=0)  # last wins
        queries = rng.permutation(3)[:n]
        valid = np.ones((3, 3), bool)
        valid[trial % 3, 1:] = False

        def value(m, c):
            return image_loss(m, c, ids, labels, queries, cfg.losses, valid).total

        with Tape():
            logits = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
            backward(image_loss(*logits, ids, labels, queries, cfg.losses, valid).total_tensor)
        for i, t in enumerate(logits):
            worst = max(worst, max_rel_error(t.grad, central_difference(value, arrays, i)))

    # train_step's grads in float64, each parameter jittered by 0.05 of its std (0.05 if
    # constant); wq and wk are scaled by 10 first, or near-uniform attention hides q and k
    model = MaskClassificationModel(GRAD_MODEL)
    params = list(model.params.values())
    for name, p in model.params.items():
        if name.endswith((".wq", ".wk")):
            p.data = 10.0 * p.data
        p.data = p.data + 0.05 * (p.data.std() or 1.0) * rng.standard_normal(p.shape)
    parser_cfg = ParserConfig(target_size=GRAD_MODEL.input_size, crop_probability=0.0)
    samples, targets = zip(*[parse(_synthetic_entry(rng, 48, 64, 4), parser_cfg, 0)
                             for _ in range(2)])
    batch_data = make_batch(list(samples), list(targets))
    step = trainer.train_step(model, batch_data, cfg)
    dead = [n for n, p in model.params.items() if p.grad is None or not np.abs(p.grad).any()]
    if dead:
        return CheckResult("gradient finite-difference suite", False, worst,
                           f"dead parameters: {dead[:4]}")
    theta = np.concatenate([p.data.ravel() for p in params])
    grad = np.concatenate([p.grad.ravel() for p in params])
    sizes = [p.size for p in params]

    def loss_at(delta):
        # total_loss at theta + delta with theta's matches: matching stays fixed
        for p, part in zip(params, np.split(theta + delta, np.cumsum(sizes)[:-1])):
            p.data = part.reshape(p.shape)
        outputs = model.forward(batch_data.images)
        costs = trainer.batch_costs(outputs, batch_data, cfg.losses)
        return total_loss(outputs, costs, step.assignments, cfg.losses).total

    # 4 random unit directions over all parameters, then one per group ("backbone.stage0", ...)
    group = np.repeat([".".join(n.split(".")[:2]) for n in model.params], sizes)
    directions = [rng.standard_normal(theta.size) for _ in range(4)]
    directions += [rng.standard_normal(theta.size) * (group == g) for g in dict.fromkeys(group)]
    for d in directions:
        d /= np.linalg.norm(d)
        for e in GRAD_STEPS:    # the smaller step only where a ReLU kink spoils the larger
            err = max_rel_error(grad @ d, (loss_at(e * d) - loss_at(-e * d)) / (2.0 * e))
            if err <= 1e-4:
                break
        worst = max(worst, err)
    return CheckResult("gradient finite-difference suite", worst <= 1e-4, worst)


def _one_pair(logits, gt, loss_cfg: LossConfig, valid=None) -> LossBundle:
    """``image_loss`` of one query with mask logits ``logits`` [h, w] matched to ``gt``."""
    return image_loss(np.asarray(logits, dtype=np.float64)[None], np.zeros((1, 2)), gt, [1],
                      [0], loss_cfg, valid)


def check_loss_fixtures(cfg: RunConfig) -> CheckResult:
    lc = cfg.losses

    def classification(class_logits, labels):
        # targets labelled ``labels`` matched to the first queries; the rest are no-object
        n = len(labels)
        return image_loss(np.zeros((len(class_logits), 1, 1)), class_logits,
                          np.zeros((1, 1), np.int64), labels, range(n), lc).classification

    d = LossConfig()   # the expected values: the default constants
    w = d.no_object_weight
    k = 4
    q0 = [math.log(0.5)] + [math.log(0.5 / 3)] * 3
    q1 = [math.log(0.25)] * 4
    # heavier no-object mass so a 10x weight change moves the value past 1e-3
    qn = [math.log(0.33), math.log(0.33), math.log(0.33), math.log(0.01)]
    fixtures = [
        ("dice identity", _one_pair(np.full((2, 2), BIG), np.ones((2, 2)), lc).dice, 0.0),
        # 1 - (0 + eps)/(2 + 2 + eps): 0.8 at the default eps of 1
        ("dice disjoint",
         _one_pair([[BIG, BIG], [-BIG, -BIG]], np.array([[0, 0], [1, 1]]), lc).dice,
         1.0 - d.dice_eps / (4.0 + d.dice_eps)),
        # p = 0.9 on a target pixel: alpha * (1 - p)^gamma * -log p
        ("focal single pixel", _one_pair([[math.log(9.0)]], np.array([[1]]), lc).focal,
         d.focal_alpha * 0.1 ** d.focal_gamma * -math.log(0.9)),
        ("classification uniform", classification(np.zeros((6, k + 1)), [1, 2, 3, 4, 1, 2]),
         math.log(k + 1)),
        ("classification matched plus no-object", classification(np.array([q0, q1]), [1]),
         (-math.log(0.5) + w * -math.log(0.25)) / (1 + w)),
        ("classification no-object weighting", classification(np.array([q0] + [qn] * 9), [1]),
         (-math.log(0.5) + 9 * w * -math.log(0.01)) / (1 + 9 * w)),
    ]
    worst = 0.0
    failures = []
    for name, got, want in fixtures:
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-3:
            failures.append(f"{name}: got {got:.6f}, expected {want:.6f}")
    return CheckResult("loss unit fixtures", not failures, worst, "; ".join(failures))


COST_KINDS = ("uniform", "duplicated_columns", "integer", "shared_row")


def cost_block(rng, kind: str, n: int, n_q: int) -> np.ndarray:
    """A random [n, n_q] real cost block of one of ``COST_KINDS``.

    Besides uniform costs, three near-tie shapes like an untrained model's:
    columns repeated verbatim, integer costs in {0, 1, 2}, and rows that are
    one shared base row plus 1e-12 noise.
    """
    if kind == "uniform":
        return rng.random((n, n_q))
    if kind == "duplicated_columns":
        return rng.random((n, n_q))[:, rng.integers(0, max(1, n_q // 2), n_q)]
    if kind == "integer":
        return rng.integers(0, 3, (n, n_q)).astype(np.float64)
    if kind == "shared_row":
        return rng.random(n_q) + 1e-12 * rng.random((n, n_q))
    raise ValueError(f"unknown cost kind {kind!r}")


def check_matcher_differential(cfg: RunConfig) -> CheckResult:
    rng = np.random.default_rng(2)
    worst = 0.0
    for kind in COST_KINDS:
        for _ in range(200 if kind == "uniform" else 50):
            n_q = int(rng.integers(1, 9))
            n = int(rng.integers(1, n_q + 1))
            real = cost_block(rng, kind, n, n_q)
            got = hungarian(pad_square(real, n_q)).total_real_cost
            want = brute_force_match(real).total_real_cost
            worst = max(worst, abs(got - want))
    return CheckResult("matcher differential suite", worst == 0.0, worst)


def check_padding_invariance(cfg: RunConfig) -> CheckResult:
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        logits = rng.standard_normal((h, w))
        gt = rng.integers(0, 2, size=(h, w))
        valid = np.ones((h, w), bool)
        pad_r = int(rng.integers(1, 4))
        logits_p = np.concatenate([logits, rng.standard_normal((pad_r, w))], axis=0)
        gt_p = np.concatenate([gt, rng.integers(0, 2, size=(pad_r, w))], axis=0)
        valid_p = np.concatenate([valid, np.zeros((pad_r, w), bool)], axis=0)
        plain = _one_pair(logits, gt, cfg.losses, valid)
        padded = _one_pair(logits_p, gt_p, cfg.losses, valid_p)
        for name in ("dice", "focal"):
            worst = max(worst, abs(getattr(plain, name) - getattr(padded, name)))
    return CheckResult("padding invariance suite", worst <= 1e-7, worst)


def check_record_roundtrip(cfg: RunConfig) -> CheckResult:
    rng = np.random.default_rng(4)
    entries = [_synthetic_entry(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)), 4, i)
               for i in range(100)]
    with tempfile.TemporaryDirectory() as tmp:
        ss = records.write_shards(entries, 4, Path(tmp) / "a")
        back = list(records.read_shards(ss))
        ss2 = records.write_shards(entries, 4, Path(tmp) / "b")
        deterministic = all(p1.read_bytes() == p2.read_bytes()
                            for p1, p2 in zip(ss.shard_paths, ss2.shard_paths))
        ratio = ss.byte_balance()
    # every record read back decodes to the arrays it was written from
    by_id = {image_id: arrays for *arrays, image_id in map(decode_entry, back)}
    exact = len(by_id) == len(back) == len(entries) and all(
        all(np.array_equal(a, b) for a, b in zip(by_id[image_id], arrays))
        for *arrays, image_id in map(decode_entry, entries)
    )
    ok = exact and deterministic and ratio <= 1.10
    err = 0.0 if exact and deterministic else 1.0
    return CheckResult("record round-trip suite", ok, max(err, ratio - 1.10 if ratio > 1.10 else err),
                       f"balance ratio {ratio:.4f}")


CHECKS = (
    check_input_shapes,
    check_layer_shapes,
    check_posembed_statistic,
    check_gradients,
    check_loss_fixtures,
    check_matcher_differential,
    check_padding_invariance,
    check_record_roundtrip,
)


def run_verify(cfg: RunConfig, emit=print) -> list[CheckResult]:
    results = []
    for check in CHECKS:
        result = check(cfg)
        results.append(result)
        emit(result.line())
    failed = [r for r in results if not r.passed]
    emit(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return results
