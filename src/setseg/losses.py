"""The padding-aware set loss: classification, focal and dice, and their weighted total.

Each formula has one numpy home, in float64:

- focal and dice values: ``mask_costs``, per-pixel terms from one sigmoid,
  built in blocks of pixels, reduced pairwise to ``dice[N, R]`` and
  ``focal[N, R]`` by two matmuls over the valid pixels only, called by the
  matcher on every (target, query) pair;
- the one expansion of a target id grid (``i + 1`` on target ``i``'s
  pixels) into per-target rows: ``_target_pixels``;
- their gradient: ``_mask_grad``;
- the weighted cross-entropy and its gradient: ``_class_terms``.

``total_loss`` is the only op this module records: the whole batch's loss
as one tape op over (mask_logits, class_logits). Its matched focal and dice
values are the matcher's cells, and its hand-written backward is built from
the other two helpers. Invalid pixels are dropped before any arithmetic, so
appending padding never changes a value.

Class logits are laid out with contiguous class c at column c-1 and the
no-object class at the last column (index K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

_P_CLAMP = 1e-7
_TERM_BLOCK = 4096      # float64 pixel terms per block in mask_costs: R queries x J pixels


@dataclass
class LossConfig:
    class_weight: float = 1.0
    focal_weight: float = 20.0
    dice_weight: float = 1.0
    dice_eps: float = 1.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    no_object_weight: float = 1e-4


@dataclass
class LossBundle:
    """Batch means of the three losses and their weighted total; counts summed over the batch."""

    classification: float
    focal: float
    dice: float
    total: float
    total_tensor: Tensor          # differentiable; drive backward() from here
    degenerate_dice: int          # matched pairs with no valid pixel at mask resolution


def _valid_pixels(rows: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """rows [n, ...] at the valid pixels, as float64 [n, V]."""
    return rows.reshape(len(rows), valid.size)[:, valid.reshape(-1)].astype(np.float64)


def _target_pixels(ids: np.ndarray, n: int, valid: np.ndarray) -> np.ndarray:
    """Targets 1..n of the id grid ``ids`` as binary rows at the valid pixels, float64 [n, V]."""
    return _valid_pixels(ids.reshape(1, -1) == np.arange(1, n + 1)[:, None], valid)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row max so exp never overflows."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid_clamped(x: np.ndarray):
    """Sigmoid p (used by dice) and its clamp pc (used by focal)."""
    p = sigmoid(x)
    return p, np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)


def _pixel_terms(x: np.ndarray, cfg: LossConfig):
    """``_sigmoid_clamped``'s p and pc, and the focal terms for target 1 and 0."""
    p, pc = _sigmoid_clamped(x)
    alpha, gamma = cfg.focal_alpha, cfg.focal_gamma
    pos = alpha * (1.0 - pc) ** gamma * -np.log(pc)
    neg = (1.0 - alpha) * pc ** gamma * -np.log1p(-pc)
    return p, pc, pos, neg


def mask_costs(logits: np.ndarray, gt: np.ndarray, n: int, valid: np.ndarray, cfg: LossConfig):
    """dice[n, R] and focal[n, R] between targets 1..n of id grid gt and logits [R, ...].

    Soft dice on the sigmoid with ``cfg.dice_eps`` smoothing; focal is the
    modulated cross-entropy on the clamped sigmoid, mean over valid pixels.

    The pixel terms run over blocks of J = ``_TERM_BLOCK`` // R pixel
    positions (at least 1) into three preallocated [R, V] buffers, p,
    pos - neg and neg, so the sigmoid's and the focal terms' other float64
    transients hold at most 4096 values each, never R x V. The buffers are
    column-major, the layout of the one-shot ``_valid_pixels`` rows, so a
    block of pixels is a contiguous slab of each buffer, and the sums and
    the two products run once on the same arrays as without blocks: the
    terms are elementwise, and blocking leaves every value unchanged. A
    product or row sum per block would not, as BLAS and numpy round an
    entry differently with the entries beside it.
    """
    r = len(logits)
    flat, keep = logits.reshape(r, -1), valid.reshape(-1)
    v, step, j = int(np.count_nonzero(keep)), max(1, _TERM_BLOCK // r), 0
    p, d, neg = (np.empty((r, v), order="F") for _ in range(3))
    for i in range(0, keep.size, step):
        x = _valid_pixels(flat[:, i:i + step], keep[i:i + step])
        cols = slice(j, j + x.shape[1])
        p[:, cols], _, pos, neg[:, cols] = _pixel_terms(x, cfg)
        np.subtract(pos, neg[:, cols], out=d[:, cols])
        j = cols.stop
    g, eps = _target_pixels(gt, n, valid), cfg.dice_eps
    dice = 1.0 - (2.0 * (g @ p.T) + eps) / (g.sum(axis=1)[:, None] + p.sum(axis=1) + eps)
    focal = (g @ d.T + neg.sum(axis=1)) / max(v, 1)
    return dice, focal


def _mask_grad(rows: np.ndarray, gt: np.ndarray, valid: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """d/d rows of the sum over pairs of the weighted focal + dice, float64 in ``rows``' shape.

    Row i pairs with target i, id ``i + 1`` of the grid ``gt``; invalid pixels get zero.
    """
    x, g = _valid_pixels(rows, valid), _target_pixels(gt, len(rows), valid)
    p, pc = _sigmoid_clamped(x)
    a, gam = cfg.focal_alpha, cfg.focal_gamma
    # d focal / d pc per target polarity; the clamp passes grad only inside it
    d_pos = -a * (gam * (1.0 - pc) ** (gam - 1.0) * -np.log(pc) + (1.0 - pc) ** gam / pc)
    d_neg = (1.0 - a) * (gam * pc ** (gam - 1.0) * -np.log1p(-pc) + pc ** gam / (1.0 - pc))
    inside = (p > _P_CLAMP) & (p < 1.0 - _P_CLAMP)
    d_focal = (g * d_pos + (1.0 - g) * d_neg) * inside / max(x.shape[1], 1)
    num = 2.0 * (g * p).sum(axis=1, keepdims=True) + cfg.dice_eps
    den = p.sum(axis=1, keepdims=True) + g.sum(axis=1, keepdims=True) + cfg.dice_eps
    d_dice = num / (den * den) - 2.0 * g / den
    out = np.zeros((len(rows), valid.size))
    out[:, valid.reshape(-1)] = ((cfg.focal_weight * d_focal + cfg.dice_weight * d_dice)
                                 * (p * (1.0 - p)))
    return out.reshape(rows.shape)


def _class_terms(logits: np.ndarray, cols: np.ndarray, no_object_weight: float):
    """Weighted cross-entropy of logits [Q, K+1] against columns ``cols`` [Q], and its grad.

    Query q weighs w_q = ``no_object_weight`` if ``cols[q]`` is the
    no-object column K, else 1. The loss is -sum_q w_q log p[q, cols[q]] / W
    with W = sum(w), and its grad w/W * (softmax - onehot); both float64.
    """
    z = logits.astype(np.float64)
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    rows = np.arange(len(z))
    w = np.where(cols == z.shape[-1] - 1, no_object_weight, 1.0)
    w_sum = w.sum()
    value = -(w * (z[rows, cols] - np.log(s[:, 0]))).sum() / w_sum
    grad = e / s
    grad[rows, cols] -= 1.0
    grad *= (w / w_sum)[:, None]
    return float(value), grad


def total_loss(outputs, costs, assignments, cfg: LossConfig) -> LossBundle:
    """The weighted loss of a batch, as one tape op over (mask_logits, class_logits).

    ``costs[b]`` is image b's ``matcher.build_cost_matrix`` on these outputs.
    Each component is a mean over the images. Per image, the mask losses are
    means of the cost matrix's focal and dice cells at the matched pairs, 0
    without pairs; classification covers all queries. The backward writes
    one grad per input, scaled by 1/B, 1/pairs and the loss weights. It
    keeps only what it reads: each matched image's logit rows at its matched
    queries with the image's target grid and validity mask, and the class
    grad, so neither the [B, N_q, h, w] logits nor a cost matrix outlives
    this call.
    """
    mask_logits, class_logits = outputs.mask_logits, outputs.class_logits
    ml, cl = mask_logits.data, class_logits.data        # [B, N_q, h, w], [B, N_q, K+1]
    bsz, n_q = cl.shape[:2]
    k = cl.shape[-1] - 1
    sums = np.zeros(3)                                   # classification, focal, dice
    g_class = np.empty(cl.shape)
    pairs = []                                           # (b, queries, rows, gt, valid) with a match
    degenerate = 0
    for b, (cm, assignment) in enumerate(zip(costs, assignments)):
        queries = np.asarray(assignment.query_for_gt, dtype=np.int64)
        cols = np.full(n_q, k)
        cols[queries] = cm.labels - 1                    # class c -> column c-1, no-object -> K
        value, g_class[b] = _class_terms(cl[b], cols, cfg.no_object_weight)
        sums[0] += value
        if len(queries):
            rows = np.arange(len(queries))
            sums[1:] += cm.focal[rows, queries].mean(), cm.dice[rows, queries].mean()
            degenerate += 0 if cm.valid.any() else len(queries)
            pairs.append((b, queries, ml[b, queries], cm.gt, cm.valid))
    cls_v, focal_v, dice_v = (float(v) for v in sums / bsz)
    total = cfg.class_weight * cls_v + cfg.focal_weight * focal_v + cfg.dice_weight * dice_v

    mask_shape, mask_dtype, class_dtype = ml.shape, ml.dtype, cl.dtype

    def bwd(g_out):
        scale = float(g_out[0]) / bsz
        g_mask = np.zeros(mask_shape, dtype=mask_dtype)
        for b, queries, rows, gt, valid in pairs:
            g_mask[b, queries] = _mask_grad(rows, gt, valid, cfg) * (scale / len(queries))
        return g_mask, (g_class * (scale * cfg.class_weight)).astype(class_dtype)

    total_t = T._make_result(np.asarray(total, dtype=ml.dtype), (mask_logits, class_logits), bwd)
    return LossBundle(cls_v, focal_v, dice_v, total, total_t, degenerate)
