"""Cost-matrix construction, square padding, Hungarian assignment, brute oracle.

The model emits a fixed number of queries while images carry a variable
number of ground-truth segments, so the real cost block is rectangular
[N, n_queries]. The documented contract is square: padded rows/columns all
carry a constant cost strictly above every real entry, so no padded cell can
ever displace a real optimum and totals restricted to real rows are
unchanged. Since every padded row costs the same in every column, the
padded optimum restricted to the real rows is an optimum of the rectangular
block alone, so ``hungarian`` solves only the N real rows: one shortest
augmenting path per real row, O(N^2 * n_queries), with the padding never
touched. Differential testing compares totals (and, when unique, the
matching itself) against exhaustive enumeration of injections.

The per-pair focal and dice costs come from ``losses.mask_costs`` and are
weighed with the loss's own ``LossConfig`` weights (as in MaskFormer), over
the target id grid and validity mask that ``pipeline.parse`` emits at
mask-logit resolution; nothing is resampled here, and only ``losses``
expands the grid into per-target rows. The ``CostMatrix`` keeps the costs
unweighted, and ``losses.total_loss`` reads its matched pairs from it, so
matching and loss see the same numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .losses import LossConfig, mask_costs, softmax
from .pipeline import TargetSet
from .tensor import ContractError


class MatcherError(ValueError):
    pass


class NanCostError(MatcherError):
    """A matching cost came out NaN (usually a diverged model)."""


@dataclass
class CostMatrix:
    values: np.ndarray            # [n_queries, n_queries] after padding
    real_rows: int                # ground-truth count N
    pad_cost: float
    # set by build_cost_matrix, None from pad_square alone
    labels: np.ndarray | None = None   # [N] contiguous classes 1..K
    gt: np.ndarray | None = None       # [h, w] target ids at mask-logit resolution, i + 1 is row i
    valid: np.ndarray | None = None    # [h, w] bool validity mask at mask-logit resolution
    dice: np.ndarray | None = None     # [N, n_queries] unweighted dice cost
    focal: np.ndarray | None = None    # [N, n_queries] unweighted focal cost


@dataclass
class Assignment:
    query_for_gt: np.ndarray      # length N, distinct query indices
    total_real_cost: float


def build_cost_matrix(outputs, targets: TargetSet, valid_mask: np.ndarray,
                      loss_cfg: LossConfig, batch_index: int = 0) -> CostMatrix:
    """Square-padded per-pair matching costs for one image, with the terms the loss reads.

    cell (i, q) = w_class * (-p_q[label_i]) + w_focal * focal(mask_q, gt_i)
                + w_dice * dice(mask_q, gt_i), with the weights
    ``loss_cfg.{class,focal,dice}_weight`` and the mask terms from
    ``losses.mask_costs`` over valid pixels only, then padded by
    ``pad_square``. The result keeps what the loss reads (see ``CostMatrix``).
    More targets than queries, a label outside 1..K or a NaN cost raises
    ``MatcherError`` (``NanCostError``); a target grid or ``valid_mask`` not
    the mask logits' [h, w], or a target id above N, ``ContractError``.
    """
    mask_logits = outputs.mask_logits.data[batch_index]    # [N_q, h, w]
    class_logits = outputs.class_logits.data[batch_index]  # [N_q, K+1]
    n_q = mask_logits.shape[0]
    k = class_logits.shape[-1] - 1
    n = targets.count
    if n > n_q:
        raise MatcherError(f"{n} targets exceed {n_q} queries")
    labels = np.asarray(targets.labels, dtype=np.int64)
    bad = labels[(labels < 1) | (labels > k)]
    if bad.size:
        raise MatcherError(f"target label {int(bad[0])} outside 1..K with K = {k}")

    hw, gt = mask_logits.shape[1:], targets.ids
    if valid_mask.shape != hw or gt.shape != hw:
        raise ContractError(f"validity mask {valid_mask.shape} and targets {gt.shape} "
                            f"must match the mask logits' {hw}")
    if gt.max(initial=0) > n:
        raise ContractError(f"target id {int(gt.max())} above the label count {n}")
    valid = valid_mask.astype(bool, copy=False)
    if n == 0:
        real = dice_cost = focal_cost = np.zeros((0, n_q))
    else:
        class_cost = -softmax(class_logits)[:, labels - 1].T.astype(np.float64)   # [N, N_q]
        dice_cost, focal_cost = mask_costs(mask_logits, gt, n, valid, loss_cfg)   # [N, N_q]
        real = (
            loss_cfg.class_weight * class_cost
            + loss_cfg.focal_weight * focal_cost
            + loss_cfg.dice_weight * dice_cost
        )
        if np.isnan(real).any():
            i, q = np.argwhere(np.isnan(real))[0]
            raise NanCostError(f"NaN matching cost at (gt={int(i)}, query={int(q)})")
    return replace(pad_square(real, n_q), labels=labels, gt=gt, valid=valid,
                   dice=dice_cost, focal=focal_cost)


def pad_square(real_costs: np.ndarray, n_queries: int | None = None) -> CostMatrix:
    """Square-pad a real cost block with max(real) + 1 (1.0 without targets)."""
    real_costs = np.asarray(real_costs, dtype=np.float64)
    n, n_q = real_costs.shape
    if n_queries is None:
        n_queries = n_q
    if n > n_queries or n_q > n_queries:
        raise MatcherError(f"cannot pad {real_costs.shape} into {n_queries} queries")
    pad = float(real_costs.max()) + 1.0 if real_costs.size else 1.0
    values = np.full((n_queries, n_queries), pad, dtype=np.float64)
    values[:n, :n_q] = real_costs
    return CostMatrix(values, n, pad)


def _solve_rows(a: np.ndarray) -> np.ndarray:
    """Min-cost injection of the rows of a [N, n_q] block (N <= n_q) into columns.

    Shortest augmenting paths with potentials, one augmentation per row
    (Jonker & Volgenant 1987; Crouse 2016). Only columns outside the current
    search tree are relaxed, so ``way`` stays a tree and every path rebuild
    ends at the virtual column 0. Both loops are bounded by n_q + 1
    iterations and raise ``MatcherError`` rather than spin. Deterministic:
    argmin picks the lowest-index column, so ties always break toward lower
    indices. Returns the matched column for each row.
    """
    n, m = a.shape
    inf = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    row_for_col = np.zeros(m + 1, dtype=np.int64)   # 1-based; 0 = unmatched
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        row_for_col[0] = i
        j0 = 0
        minv = np.full(m + 1, inf)
        used = np.zeros(m + 1, dtype=bool)
        for _ in range(m + 1):
            used[j0] = True
            i0 = row_for_col[j0]
            free = ~used
            cur = a[i0 - 1] - u[i0] - v[1:]
            better = free[1:] & (cur < minv[1:])
            idx = np.nonzero(better)[0] + 1
            minv[idx] = cur[idx - 1]
            way[idx] = j0
            work = np.where(free, minv, inf)
            j1 = int(np.argmin(work))
            delta = work[j1]
            u[row_for_col[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if row_for_col[j0] == 0:
                break
        else:
            raise MatcherError(f"row {i}: no augmenting path within {m + 1} steps")
        for _ in range(m + 1):
            j1 = way[j0]
            row_for_col[j0] = row_for_col[j1]
            j0 = j1
            if j0 == 0:
                break
        else:
            raise MatcherError(f"row {i}: path rebuild did not reach the root")
    cols = np.nonzero(row_for_col[1:])[0]
    col_for_row = np.zeros(n, dtype=np.int64)
    col_for_row[row_for_col[cols + 1] - 1] = cols
    return col_for_row


def hungarian(costs: CostMatrix) -> Assignment:
    """Optimal assignment on a square cost matrix, restricted to real rows.

    Only the real rows are solved; the padded rows never enter the search.
    """
    values, real_rows = costs.values, costs.real_rows
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ContractError(f"hungarian requires a square matrix, got {values.shape}")
    if not np.isfinite(values).all():
        raise ContractError("hungarian requires finite costs")
    query_for_gt = _solve_rows(values[:real_rows])
    total = float(values[np.arange(real_rows), query_for_gt].sum())
    return Assignment(query_for_gt, total)


def brute_force_match(costs: np.ndarray) -> Assignment:
    """Exact minimum over all injections of rows into columns (oracle).

    Guarded to n_q <= 9: it enumerates n_q! / (n_q - N)! injections.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n, n_q = costs.shape
    if not (n <= n_q <= 9):
        raise MatcherError(f"brute force guard: need N <= n_q <= 9, got {costs.shape}")
    if n == 0:
        return Assignment(np.zeros(0, dtype=np.int64), 0.0)
    best_total = np.inf
    best = None
    rows = np.arange(n)
    for perm in itertools.permutations(range(n_q), n):
        total = costs[rows, list(perm)].sum()
        if total < best_total:
            best_total = total
            best = perm
    return Assignment(np.asarray(best, dtype=np.int64), float(best_total))
