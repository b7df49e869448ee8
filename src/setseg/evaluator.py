"""Panoptic quality over predicted vs. ground-truth segment sets.

Segments match iff they share a class and their IoU exceeds 0.5, with void
pixels excluded from the union; that threshold makes the matching unique, so
it is asserted rather than solved. PQ pools true/false positives across
classes: PQ = sum of matched IoU / (TP + FP/2 + FN/2), SQ = mean matched
IoU, RQ = TP / (TP + FP/2 + FN/2). When TP > 0, PQ is constructed as SQ*RQ
so the identity holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .losses import sigmoid, softmax


class SegmentSetError(ValueError):
    pass


@dataclass
class SegmentSet:
    """Pixel-disjoint (mask, class label) pairs over one grid."""

    masks: list[np.ndarray]           # binary [H, W]
    labels: list[int]                 # 1..K
    void: np.ndarray | None = None    # ignored pixels

    def validate(self):
        if len(self.masks) != len(self.labels):
            raise SegmentSetError("mask/label count mismatch")
        if self.masks:
            cover = np.zeros_like(self.masks[0], dtype=np.int64)
            for m in self.masks:
                cover += m.astype(np.int64)
            if (cover > 1).any():
                raise SegmentSetError("overlapping masks within one segment set")


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


def _iou(pred: np.ndarray, gt: np.ndarray, void: np.ndarray | None) -> float:
    pred = pred.astype(bool)
    gt = gt.astype(bool)
    inter = int((pred & gt).sum())
    union = int(pred.sum()) + int(gt.sum()) - inter
    if void is not None:
        union -= int((pred & void.astype(bool) & ~gt).sum())
    return inter / union if union > 0 else 0.0


def match_segments(pred: SegmentSet, gt: SegmentSet):
    """Unique matching at IoU > 0.5; returns [(pred_i, gt_j, iou), ...]."""
    matches = []
    used_pred: set[int] = set()
    used_gt: set[int] = set()
    for j, (gm, gl) in enumerate(zip(gt.masks, gt.labels)):
        for i, (pm, pl) in enumerate(zip(pred.masks, pred.labels)):
            if pl != gl:
                continue
            iou = _iou(pm, gm, gt.void)
            if iou > 0.5:
                # IoU > 0.5 pairs are necessarily unique on both sides
                assert i not in used_pred and j not in used_gt
                matches.append((i, j, iou))
                used_pred.add(i)
                used_gt.add(j)
    return matches


def accumulate(stats: dict[int, ClassStats], pred: SegmentSet, gt: SegmentSet):
    pred.validate()
    gt.validate()
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


def postprocess(outputs, cfg: EvalConfig | None = None, batch_index: int = 0) -> SegmentSet:
    """Turn model outputs into a disjoint segment set.

    Per query: class = argmax of class logits; no-object queries and queries
    under the confidence threshold are dropped; masks binarize at the sigmoid
    threshold; overlaps go to the query with the highest mask probability;
    empty segments are dropped.
    """
    cfg = cfg or EvalConfig()
    class_logits = outputs.class_logits.data[batch_index]   # [N_q, K+1]
    mask_logits = outputs.mask_logits.data[batch_index]     # [N_q, h, w]
    k = class_logits.shape[-1] - 1

    probs = softmax(class_logits)
    best = probs.argmax(axis=-1)
    conf = probs.max(axis=-1)
    keep = (best < k) & (conf >= cfg.confidence_threshold)
    if not keep.any():
        return SegmentSet([], [])

    idx = np.nonzero(keep)[0]
    mp = sigmoid(mask_logits[idx].astype(np.float64))                  # [n, h, w]
    binary = mp >= cfg.mask_threshold
    # each pixel belongs to the kept query with the highest probability there
    owner = mp.argmax(axis=0)
    owned = owner[None, :, :] == np.arange(len(idx))[:, None, None]
    final = binary & owned

    masks = []
    labels = []
    for n, q in enumerate(idx):
        m = final[n]
        if not m.any():
            continue
        masks.append(m.astype(np.uint8))
        labels.append(int(best[q]) + 1)
    return SegmentSet(masks, labels)
