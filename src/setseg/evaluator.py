"""Panoptic quality over predicted vs. ground-truth segment sets.

A segment set is one id grid, so its segments are disjoint by construction;
``owned_segments`` builds both the predicted and the ground-truth sets.
Segments match iff they share a class and their IoU exceeds 0.5, with void
pixels excluded from the union; over disjoint segments that threshold makes
the matching unique. PQ pools true/false positives across classes:
PQ = sum of matched IoU / (TP + FP/2 + FN/2), SQ = mean matched IoU,
RQ = TP / (TP + FP/2 + FN/2). When TP > 0, PQ is constructed as SQ*RQ so the
identity holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .losses import sigmoid, softmax
from .tensor import ContractError


@dataclass
class SegmentSet:
    """Segments as one id grid, so no two of them can share a pixel.

    Pixel value ``i`` belongs to segment ``i - 1``, whose class is
    ``labels[i - 1]``; 0 is no segment.
    """

    ids: np.ndarray                   # int [H, W], 0..len(labels)
    labels: list[int]                 # 1..K
    void: np.ndarray | None = None    # ignored pixels


@dataclass
class ClassStats:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    iou_sum: float = 0.0


@dataclass
class PQResult:
    pq: float
    sq: float
    rq: float
    per_class: dict[int, ClassStats] = field(default_factory=dict)

    @property
    def per_class_pq(self) -> dict[int, float]:
        out = {}
        for c, s in self.per_class.items():
            denom = s.tp + 0.5 * s.fp + 0.5 * s.fn
            out[c] = s.iou_sum / denom if denom > 0 else 0.0
        return out


def owned_segments(ids: np.ndarray, labels, void: np.ndarray | None = None) -> SegmentSet:
    """The segments of id grid ``ids`` (``labels[i - 1]`` on id ``i``) that own a pixel.

    They are renumbered 1, 2, ... in id order; ids that own no pixel are left out.
    """
    owns = np.bincount(ids.ravel(), minlength=len(labels) + 1) > 0
    owns[0] = False
    return SegmentSet(np.cumsum(owns)[ids], np.asarray(labels)[owns[1:]].tolist(), void)


def match_segments(pred: SegmentSet, gt: SegmentSet):
    """Unique matching at IoU > 0.5; returns [(pred_i, gt_j, iou), ...] in gt order.

    One joint histogram of (pred id, gt id) over the pixels, with void as gt
    id ``m + 1``, gives every intersection and both areas. Void pixels must
    lie outside every gt segment, as with COCO panoptic's VOID label;
    ``trainer.ground_truth_segments`` meets this, since ``parse`` zero-pads
    the targets wherever the validity mask is False.
    """
    n, m = len(pred.labels), len(gt.labels)
    if pred.ids.shape != gt.ids.shape or (gt.void is not None and gt.void.shape != gt.ids.shape):
        raise ContractError(f"segment grids differ: pred {pred.ids.shape}, gt {gt.ids.shape}, "
                            f"void {None if gt.void is None else gt.void.shape}")
    if pred.ids.max(initial=0) > n or gt.ids.max(initial=0) > m:
        raise ContractError(f"segment id above the label count ({n} pred, {m} gt labels)")
    gt_ids = gt.ids if gt.void is None else np.where(gt.void, m + 1, gt.ids)
    pairs = pred.ids.astype(np.int64) * (m + 2) + gt_ids
    joint = np.bincount(pairs.ravel(), minlength=(n + 1) * (m + 2)).reshape(n + 1, m + 2)
    inter = joint[1:, 1:m + 1]
    pred_area = joint[1:].sum(axis=1) - joint[1:, m + 1]     # void pixels leave the union
    gt_area = joint[:, 1:m + 1].sum(axis=0)
    union = pred_area[:, None] + gt_area[None, :] - inter
    iou = np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0)
    same = np.asarray(pred.labels)[:, None] == np.asarray(gt.labels)[None, :]
    # segments are disjoint, so an IoU > 0.5 pair is the only one of its pred and its gt
    js, is_ = np.nonzero((same & (iou > 0.5)).T)
    return [(int(i), int(j), float(iou[i, j])) for j, i in zip(js, is_)]


def accumulate(stats: dict[int, ClassStats], pred: SegmentSet, gt: SegmentSet):
    matches = match_segments(pred, gt)
    matched_pred = {i for i, _, _ in matches}
    matched_gt = {j for _, j, _ in matches}
    for i, j, iou in matches:
        s = stats.setdefault(gt.labels[j], ClassStats())
        s.tp += 1
        s.iou_sum += iou
    for i, label in enumerate(pred.labels):
        if i not in matched_pred:
            stats.setdefault(label, ClassStats()).fp += 1
    for j, label in enumerate(gt.labels):
        if j not in matched_gt:
            stats.setdefault(label, ClassStats()).fn += 1
    return stats


def summarize(stats: dict[int, ClassStats]) -> PQResult:
    tp = sum(s.tp for s in stats.values())
    fp = sum(s.fp for s in stats.values())
    fn = sum(s.fn for s in stats.values())
    iou_sum = sum(s.iou_sum for s in stats.values())
    denom = tp + 0.5 * fp + 0.5 * fn
    if denom == 0:
        return PQResult(0.0, 0.0, 0.0, dict(stats))
    rq = tp / denom
    sq = iou_sum / tp if tp > 0 else 0.0
    pq = sq * rq if tp > 0 else iou_sum / denom
    return PQResult(pq, sq, rq, dict(stats))


def panoptic_quality(pred: SegmentSet, gt: SegmentSet) -> PQResult:
    """PQ/SQ/RQ plus the per-class table for a single image pair."""
    return summarize(accumulate({}, pred, gt))


@dataclass
class EvalConfig:
    confidence_threshold: float = 0.5
    mask_threshold: float = 0.5


def postprocess(outputs, cfg: EvalConfig | None = None) -> SegmentSet:
    """Turn the first image's model outputs into a segment set.

    Per query: class = argmax of class logits; no-object queries and queries
    under the confidence threshold are dropped. Each pixel goes to the kept
    query with the highest mask probability there, if that probability
    reaches the mask threshold. Segments are numbered in query order over the
    queries that own a pixel.
    """
    cfg = cfg or EvalConfig()
    class_logits = outputs.class_logits.data[0]   # [N_q, K+1]
    mask_logits = outputs.mask_logits.data[0]     # [N_q, h, w]
    k = class_logits.shape[-1] - 1

    probs = softmax(class_logits)
    best = probs.argmax(axis=-1)
    conf = probs.max(axis=-1)
    keep = (best < k) & (conf >= cfg.confidence_threshold)
    if not keep.any():
        return SegmentSet(np.zeros(mask_logits.shape[1:], np.int64), [])

    mp = sigmoid(mask_logits[keep].astype(np.float64))                 # [n, h, w]
    owner = np.where(mp.max(axis=0) >= cfg.mask_threshold, mp.argmax(axis=0) + 1, 0)
    return owned_segments(owner, best[keep] + 1)
