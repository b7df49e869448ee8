"""Padding-aware dice, focal, and classification losses plus the weighted total.

The focal and dice formulas exist once, in ``mask_costs``: per-pixel terms
from one sigmoid, reduced pairwise to ``dice[N, R]`` and ``focal[N, R]`` by
two float64 matmuls over the valid pixels only. The matcher calls it on
every (target, query) pair. ``mask_loss`` calls it on the matched rows,
takes the diagonal and records the result as one tape op with a
hand-written backward; ``dice_loss`` and ``focal_loss`` are one-row calls
of that op. Invalid pixels are dropped before any arithmetic, so appending
padding never changes a value.

Class logits are laid out with contiguous class c at column c-1 and the
no-object class at the last column (index K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .pipeline import TargetSet, downsample_mask
from .tensor import Tensor

_P_CLAMP = 1e-7


class LossError(ValueError):
    pass


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
    classification: float
    focal: float
    dice: float
    total: float
    total_tensor: Tensor          # differentiable; drive backward() from here
    degenerate_dice: int          # matched pairs with no valid pixel at mask resolution


def _valid_pixels(rows: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """rows [n, ...] at the valid pixels, as float64 [n, V]."""
    return rows.reshape(len(rows), -1)[:, valid.reshape(-1)].astype(np.float64)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row max so exp never overflows."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _pixel_terms(x: np.ndarray, cfg: LossConfig):
    """Sigmoid p (used by dice), clamped pc, and the focal terms for target 1 and 0."""
    p = sigmoid(x)
    pc = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
    alpha, gamma = cfg.focal_alpha, cfg.focal_gamma
    pos = alpha * (1.0 - pc) ** gamma * -np.log(pc)
    neg = (1.0 - alpha) * pc ** gamma * -np.log1p(-pc)
    return p, pc, pos, neg


def mask_costs(logits: np.ndarray, gt: np.ndarray, valid: np.ndarray, cfg: LossConfig):
    """dice[N, R] and focal[N, R] between binary targets gt [N, ...] and logits [R, ...].

    Soft dice on the sigmoid with ``cfg.dice_eps`` smoothing; focal is the
    modulated cross-entropy on the clamped sigmoid, mean over valid pixels.
    """
    x, g = _valid_pixels(logits, valid), _valid_pixels(gt, valid)
    p, _, pos, neg = _pixel_terms(x, cfg)
    eps = cfg.dice_eps
    dice = 1.0 - (2.0 * (g @ p.T) + eps) / (g.sum(axis=1)[:, None] + p.sum(axis=1) + eps)
    focal = (g @ (pos - neg).T + neg.sum(axis=1)) / max(x.shape[1], 1)
    return dice, focal


def mask_loss(logits: Tensor, index, gt: np.ndarray, valid: np.ndarray, cfg: LossConfig,
              focal_weight: float, dice_weight: float) -> tuple[Tensor, float, float]:
    """Mean over rows of focal_weight * focal + dice_weight * dice, as one tape op.

    Row i is ``logits.data[index][i]`` paired with target ``gt[i]``; the
    gradient scatters back into a ``logits``-shaped buffer. Returns the
    scalar tensor and the mean focal and dice values.
    """
    data = logits.data
    rows = data[index]
    n = len(rows)
    dice, focal = mask_costs(rows, gt, valid, cfg)
    dice_v, focal_v = float(dice.diagonal().mean()), float(focal.diagonal().mean())
    out = np.asarray(focal_weight * focal_v + dice_weight * dice_v, dtype=data.dtype)

    def bwd(g_out):
        x, g = _valid_pixels(rows, valid), _valid_pixels(gt, valid)
        p, pc, _, _ = _pixel_terms(x, cfg)
        a, gam = cfg.focal_alpha, cfg.focal_gamma
        # d focal / d pc per target polarity; the clamp passes grad only inside it
        d_pos = -a * (gam * (1.0 - pc) ** (gam - 1.0) * -np.log(pc) + (1.0 - pc) ** gam / pc)
        d_neg = (1.0 - a) * (gam * pc ** (gam - 1.0) * -np.log1p(-pc) + pc ** gam / (1.0 - pc))
        inside = (p > _P_CLAMP) & (p < 1.0 - _P_CLAMP)
        d_focal = (g * d_pos + (1.0 - g) * d_neg) * inside / max(x.shape[1], 1)
        num = 2.0 * (g * p).sum(axis=1, keepdims=True) + cfg.dice_eps
        den = p.sum(axis=1, keepdims=True) + g.sum(axis=1, keepdims=True) + cfg.dice_eps
        d_dice = num / (den * den) - 2.0 * g / den
        dx = (focal_weight * d_focal + dice_weight * d_dice) * (p * (1.0 - p)) * (g_out[0] / n)
        g_rows = np.zeros((n, valid.size), dtype=data.dtype)
        g_rows[:, valid.reshape(-1)] = dx
        full = np.zeros_like(data)
        full[index] = g_rows.reshape(rows.shape)
        return (full,)

    return T._make_result(out, (logits,), bwd), focal_v, dice_v


def _check_mask_args(name: str, pred_logits: Tensor, gt, valid):
    gt = np.asarray(gt)
    valid = np.asarray(valid, dtype=bool)
    if pred_logits.shape != gt.shape or pred_logits.shape != valid.shape:
        raise T.ShapeError(
            f"{name}: logits {pred_logits.shape}, gt {gt.shape}, valid {valid.shape}"
        )
    return gt, valid


def dice_loss(pred_logits: Tensor, gt: np.ndarray, valid: np.ndarray,
              eps: float = 1.0) -> Tensor:
    """Soft dice on sigmoid(pred_logits), sums restricted to valid pixels."""
    gt, valid = _check_mask_args("dice_loss", pred_logits, gt, valid)
    if not valid.any():
        return Tensor(np.zeros((), dtype=pred_logits.dtype))
    return mask_loss(pred_logits, np.newaxis, gt[None], valid,
                     LossConfig(dice_eps=eps), 0.0, 1.0)[0]


def focal_loss(pred_logits: Tensor, gt: np.ndarray, valid: np.ndarray,
               alpha: float = 0.25, gamma: float = 2.0) -> Tensor:
    """Modulated cross-entropy, mean over valid pixels."""
    if not (0.0 <= alpha <= 1.0):
        raise LossError(f"alpha must be in [0, 1], got {alpha}")
    if gamma < 0.0:
        raise LossError(f"gamma must be >= 0, got {gamma}")
    gt, valid = _check_mask_args("focal_loss", pred_logits, gt, valid)
    if not valid.any():
        return Tensor(np.zeros((), dtype=pred_logits.dtype))
    return mask_loss(pred_logits, np.newaxis, gt[None], valid,
                     LossConfig(focal_alpha=alpha, focal_gamma=gamma), 1.0, 0.0)[0]


def classification_loss(class_logits: Tensor, matched_labels: np.ndarray,
                        no_object_weight: float = 1e-4) -> Tensor:
    """Weighted cross-entropy over queries, normalized by the weight sum.

    ``matched_labels[q]`` is a contiguous class in 1..K for matched queries
    and K+1 for no-object; no-object targets carry ``no_object_weight``.
    """
    labels = np.asarray(matched_labels, dtype=np.int64)
    n_q, n_cols = class_logits.shape
    k = n_cols - 1
    if labels.shape != (n_q,):
        raise T.ShapeError(f"labels shape {labels.shape} does not match {n_q} queries")
    if labels.min() < 1 or labels.max() > k + 1:
        bad = labels[(labels < 1) | (labels > k + 1)][0]
        raise LossError(f"label {int(bad)} out of range 1..{k + 1}")
    cols = labels - 1                      # class c -> column c-1, no-object -> K
    onehot = np.zeros((n_q, n_cols), dtype=class_logits.dtype)
    onehot[np.arange(n_q), cols] = 1.0
    weights = np.where(cols == k, no_object_weight, 1.0).astype(class_logits.dtype)
    w_sum = float(weights.sum())
    logp = T.log_softmax(class_logits, axis=-1)
    picked = T.mul(logp, Tensor(onehot)).sum(axis=-1)     # [N_q]
    weighted = T.mul(picked, Tensor(weights))
    return T.mul(weighted.sum(), -1.0 / w_sum)


def total_loss(outputs, targets: TargetSet, assignment, cfg: LossConfig,
               valid_mask: np.ndarray, batch_index: int = 0) -> LossBundle:
    """Combine the three losses for one image of a batch.

    Mask losses are means over matched pairs (at mask-logit resolution, with
    targets and the validity mask downsampled by nearest-neighbor), recorded
    as one tape op whatever the pair count; classification covers all
    queries.
    """
    mask_logits = outputs.mask_logits       # [B, N_q, h, w]
    class_logits = outputs.class_logits     # [B, N_q, K+1]
    n_q, mh = mask_logits.shape[1], mask_logits.shape[2]
    k = class_logits.shape[-1] - 1

    factor = valid_mask.shape[0] // mh
    queries = np.asarray(assignment.query_for_gt, dtype=np.int64)
    matched_labels = np.full(n_q, k + 1, dtype=np.int64)
    matched_labels[queries] = targets.labels
    cls_t = classification_loss(class_logits[batch_index], matched_labels,
                                no_object_weight=cfg.no_object_weight)
    total_t = T.mul(cls_t, cfg.class_weight)
    focal_v = dice_v = 0.0
    degenerate = 0
    if len(queries):
        gt = np.stack([downsample_mask(m, factor) for m in targets.masks])
        valid_small = downsample_mask(valid_mask, factor).astype(bool)
        degenerate = 0 if valid_small.any() else len(queries)
        mask_t, focal_v, dice_v = mask_loss(mask_logits, (batch_index, queries), gt,
                                            valid_small, cfg, cfg.focal_weight, cfg.dice_weight)
        total_t = T.add(total_t, mask_t)
    cls_v = cls_t.item()
    return LossBundle(
        classification=cls_v,
        focal=focal_v,
        dice=dice_v,
        total=cfg.class_weight * cls_v + cfg.focal_weight * focal_v + cfg.dice_weight * dice_v,
        total_tensor=total_t,
        degenerate_dice=degenerate,
    )
