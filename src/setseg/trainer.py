"""Ingestion and the training/evaluation loops.

Training is a single-threaded loop: parse -> batch -> forward -> match ->
loss -> backward -> clipped Adam update. Each batch is parsed on the
training thread just before its step; batch order and per-record
augmentation seeds are derived deterministically from the run seed, so a
fixed (config, seed) reproduces the loss CSV bit-exactly.

``train_step`` is the one forward -> match -> loss -> backward path and
``run_steps`` the one loop around it; both read the clock at every stage
boundary. ``train`` and ``profile`` both run ``run_steps``: one writes
``config.txt`` (the resolved config), checkpoints, and ``loss.csv`` and
``metrics.csv`` (per step: stage seconds, grad norm, counts and peak RSS)
at every checkpoint, at the end and on an abort, the other writes nothing
and sums the clocks.
"""

from __future__ import annotations

import csv
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import records, synth
from .config import RunConfig, dump_config
from .evaluator import SegmentSet, accumulate, owned_segments, postprocess, summarize
from .losses import LossConfig, total_loss
from .matcher import (
    Assignment, CostMatrix, MatcherError, NanCostError, build_cost_matrix, hungarian,
)
from .model import MaskClassificationModel, load_checkpoint, save_checkpoint
from .pipeline import (
    Batch, ParserConfig, PipelineError, batch as make_batch, build_id_mapper, parse,
)
from .tensor import ContractError, Tape, backward, no_grad


class TrainError(RuntimeError):
    """A failed run; when a step aborts it, ``step`` and ``image_ids`` name the batch."""

    def __init__(self, message: str, step: int | None = None,
                 image_ids: list[int] | None = None):
        super().__init__(message)
        self.step = step
        self.image_ids = image_ids


# ---------------------------------------------------------------------------
# Ingestion: annotations -> contiguous masks -> shards
# ---------------------------------------------------------------------------

@contextmanager
def _annotation_line(annotations_path, line: int):
    """Re-raise a malformed record's error, its message starting with ``<file>:<line>: ``.

    An unknown class ID stays a ``PipelineError``; any other error becomes a ``TrainError``.
    """
    try:
        yield
    except PipelineError as err:
        raise PipelineError(f"{annotations_path}:{line}: {err}") from None
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise TrainError(f"{annotations_path}:{line}: {type(err).__name__}: {err}") from None


def ingest(annotations_path, shard_count: int, out_dir, known_class_ids=None):
    """Convert a JSON-lines annotation set into balanced shards; return them and the class map."""
    annotations_path = Path(annotations_path)
    try:
        ann = list(synth.read_annotations(annotations_path))
    except ValueError as err:   # a line that is not JSON
        raise TrainError(str(err)) from None
    if not ann:
        raise TrainError(f"no annotations in {annotations_path}")
    if known_class_ids is None:
        known_class_ids = set()
        for line, rec in ann:
            with _annotation_line(annotations_path, line):
                known_class_ids.update(seg["category_id"] for seg in rec["segments"])
    mapping = build_id_mapper(known_class_ids)

    def entries():
        for line, rec in ann:
            with _annotation_line(annotations_path, line):
                rgb, inst = synth.load_annotation_arrays(annotations_path, rec)
                lut = np.zeros(int(inst.max()) + 1, dtype=np.uint16)
                for seg in rec["segments"]:
                    if seg["category_id"] not in mapping:
                        raise PipelineError(f"unknown class ID {seg['category_id']}")
                    lut[seg["instance_id"]] = mapping[seg["category_id"]]
                cont = lut[inst]
                entry = {
                    "image/height": np.array([rec["height"]], dtype=np.int64),
                    "image/width": np.array([rec["width"]], dtype=np.int64),
                    "image/encoded": rgb.tobytes(),
                    "segmentation/contiguous_mask": cont.astype("<u2").tobytes(),
                    "segmentation/instance_mask": inst.astype("<u2").tobytes(),
                    "image/id": np.array([rec["image_id"]], dtype=np.int64),
                }
            yield entry

    shard_set = records.write_shards(entries(), shard_count, out_dir, class_mapping=mapping)
    return shard_set, mapping


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam updating m, v and the parameters in place, in two scratch buffers per dtype.

    The operations keep the textbook formula's order, so no bit changes.
    """

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        n = max((p.size for p in params.values()), default=0)
        self._scratch = {dt: (np.empty(n, dt), np.empty(n, dt))
                         for dt in {p.dtype for p in params.values()}}

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            a, b = (buf[:p.size].reshape(p.shape) for buf in self._scratch[p.dtype])
            np.multiply(g, 1.0 - self.beta1, out=a)    # m = beta1 * m + (1 - beta1) * g
            m *= self.beta1
            m += a
            np.multiply(g, 1.0 - self.beta2, out=a)    # v = beta2 * v + (1 - beta2) * g * g
            a *= g
            v *= self.beta2
            v += a
            np.divide(v, b2c, out=b)                   # data -= lr * m/b1c / (sqrt(v/b2c) + eps)
            np.sqrt(b, out=b)
            b += self.eps
            np.divide(m, b1c, out=a)
            a /= b
            a *= self.lr
            p.data -= a


def clip_gradients(params: dict, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.square(p.grad.astype(np.float64)).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def make_optimizer(cfg: RunConfig, model: MaskClassificationModel) -> Adam:
    t = cfg.trainer
    return Adam(model.params, lr=t.learning_rate, beta1=t.beta1, beta2=t.beta2)


# ---------------------------------------------------------------------------
# Data feeding
# ---------------------------------------------------------------------------

def load_entries(data_dir) -> list[dict]:
    shard_set = records.load_manifest(data_dir)
    return list(records.read_shards(shard_set))


def _visit_seed(run_seed: int, visit: int) -> int:
    return (run_seed * 1_000_003 + visit) % (2**63)


def assemble_batch(entries, cfg: RunConfig, step: int) -> Batch:
    """Parse the b visits of ``step``; visit v reads entry v mod len(entries)."""
    b = cfg.trainer.batch_size
    parsed = [parse(entries[v % len(entries)], cfg.parser, _visit_seed(cfg.seed, v))
              for v in range(step * b, step * b + b)]
    samples = [s for s, _ in parsed]
    targets = [t for _, t in parsed]
    return make_batch(samples, targets)


class BatchStream:
    """The ``steps`` batches of a run in step order, each assembled when it is asked for."""

    def __init__(self, entries, cfg: RunConfig, steps: int):
        self.entries = entries
        self.cfg = cfg
        self.steps = steps

    def __iter__(self):
        for step in range(self.steps):
            yield assemble_batch(self.entries, self.cfg, step)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    csv_path: Path
    checkpoint_path: Path
    rows: list[tuple]
    initial_total: float
    final_total: float


class StepResult(NamedTuple):
    """Mean losses of one step, its stage ``seconds``, counts, matches and grad norm."""

    classification: float
    focal: float
    dice: float
    total: float
    seconds: dict[str, float]
    dropped_instances: int      # record instances that got no target
    degenerate_dice: int        # matched pairs with no valid pixel at mask resolution
    empty_targets: int          # targets whose id owns no pixel at mask resolution
    assignments: list[Assignment]  # image b's match, which the loss used
    grad_norm: float = math.nan  # global norm before clipping; set by run_steps
    peak_rss_mb: float = math.nan  # process peak RSS (ru_maxrss) after the update; set by run_steps

    @property
    def matched_pairs(self) -> int:
        """(query, target) pairs the matcher assigned."""
        return sum(len(a.query_for_gt) for a in self.assignments)


def batch_costs(outputs, batch_data: Batch, loss_cfg: LossConfig) -> list[CostMatrix]:
    """Each image's ``build_cost_matrix`` on ``outputs``: what the matcher and the loss read."""
    per_image = enumerate(zip(batch_data.target_sets, batch_data.valid_masks))
    return [build_cost_matrix(outputs, targets, valid, loss_cfg, batch_index=b)
            for b, (targets, valid) in per_image]


def train_step(model, batch_data: Batch, cfg: RunConfig) -> StepResult:
    """Forward, match every image, build the batch loss, backward; the caller clips and updates."""
    t0 = time.perf_counter()
    model.zero_grad()   # the last step's grads, dead once it updated, need not span this forward
    with Tape():
        outputs = model.forward(batch_data.images)
        t1 = time.perf_counter()
        with no_grad():
            costs = batch_costs(outputs, batch_data, cfg.losses)
            assignments = [hungarian(cm) for cm in costs]
        t2 = time.perf_counter()
        loss = total_loss(outputs, costs, assignments, cfg.losses)
        # the loss's entry now holds what its backward reads, and the backward
        # releases it; a name kept here would hold the mask logits to the end
        del outputs, costs
        t3 = time.perf_counter()
        backward(loss.total_tensor)
    t4 = time.perf_counter()
    return StepResult(
        loss.classification, loss.focal, loss.dice, loss.total,
        {"forward": t1 - t0, "match": t2 - t1, "loss": t3 - t2, "backward": t4 - t3},
        sum(targets.dropped for targets in batch_data.target_sets),
        loss.degenerate_dice,
        sum(targets.empty for targets in batch_data.target_sets),
        assignments,
    )


def _step_error(what: str, step: int, batch_data: Batch, detail) -> TrainError:
    return TrainError(f"{what} at step {step} (batch images {batch_data.image_ids}): {detail}",
                      step, batch_data.image_ids)


def run_steps(model, optimizer, entries, cfg: RunConfig, steps: int,
              on_step=None) -> list[StepResult]:
    """The training loop: batch assembly, ``train_step``, non-finite checks, clip, update.

    Adds ``parse``, ``clip`` and ``update`` to each result's ``seconds``, so
    the steps' stages cover the whole loop but ``on_step``, sets its
    ``grad_norm`` and ``peak_rss_mb`` and calls ``on_step(results)`` with
    the results so far after each update. A failed match or a non-finite
    loss or gradient norm raises ``TrainError``.
    """
    results = []
    t0 = time.perf_counter()
    for step, batch_data in enumerate(BatchStream(entries, cfg, steps)):
        t1 = time.perf_counter()
        try:
            result = train_step(model, batch_data, cfg)
        except NanCostError as err:
            raise _step_error("non-finite loss", step, batch_data, err) from None
        except MatcherError as err:
            raise _step_error("matching failed", step, batch_data, err) from None
        if not math.isfinite(result.total):
            raise _step_error("non-finite loss", step, batch_data,
                              f"components cls={result.classification} "
                              f"focal={result.focal} dice={result.dice}")
        t2 = time.perf_counter()
        grad_norm = clip_gradients(model.params, cfg.trainer.grad_clip_norm)
        if not math.isfinite(grad_norm):
            # NaN > max_norm is False, so clipping alone would let NaN reach the update
            raise _step_error("non-finite gradient norm", step, batch_data,
                              f"grad norm {grad_norm}")
        t3 = time.perf_counter()
        optimizer.step()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = result._replace(grad_norm=grad_norm, peak_rss_mb=peak_rss_mb)
        result.seconds.update(parse=t1 - t0, clip=t3 - t2, update=time.perf_counter() - t3)
        results.append(result)
        if on_step is not None:
            on_step(results)
        t0 = time.perf_counter()
    return results


STAGES = ("parse", "forward", "match", "loss", "backward", "clip", "update")


def write_logs(out_dir: Path, results: list[StepResult]) -> None:
    """``loss.csv`` (mean losses) and ``metrics.csv``: one row per step of ``results``."""
    with records.atomic_open(out_dir / "loss.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "classification", "focal", "dice", "total"])
        for step, r in enumerate(results):
            writer.writerow([step, *(repr(v) for v in r[:4])])
    with records.atomic_open(out_dir / "metrics.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", *STAGES, "grad_norm", "matched_pairs",
                         "dropped_instances", "degenerate_dice", "empty_targets",
                         "peak_rss_mb"])
        for step, r in enumerate(results):
            writer.writerow([step, *(repr(r.seconds[name]) for name in STAGES),
                             repr(r.grad_norm), r.matched_pairs, r.dropped_instances,
                             r.degenerate_dice, r.empty_targets, repr(r.peak_rss_mb)])


def train(cfg: RunConfig, data_dir, out_dir) -> TrainResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with records.atomic_open(out_dir / "config.txt", "w") as f:
        f.write(dump_config(cfg))
    entries = load_entries(data_dir)
    model = MaskClassificationModel(cfg.model)
    optimizer = make_optimizer(cfg, model)
    every = cfg.trainer.checkpoint_every
    done: list[StepResult] = []      # the steps before an abort: run_steps' results list

    def on_step(results):
        nonlocal done
        done = results
        if every > 0 and len(results) % every == 0:
            save_checkpoint(model, out_dir / f"ckpt-{len(results):06d}.ckpt")
            write_logs(out_dir, results)

    try:
        results = run_steps(model, optimizer, entries, cfg, cfg.trainer.steps, on_step)
    except TrainError as err:
        write_logs(out_dir, done)
        nan_path = out_dir / "nan_batch.txt"
        with records.atomic_open(nan_path, "w") as f:
            f.write(f"step {err.step}\nimage_ids {err.image_ids}\n{err}\n")
        raise TrainError(f"{err}; diagnostics in {nan_path}", err.step, err.image_ids) from None

    write_logs(out_dir, results)
    ckpt_path = out_dir / "final.ckpt"
    save_checkpoint(model, ckpt_path)
    rows = [(step, *result[:4]) for step, result in enumerate(results)]
    return TrainResult(
        csv_path=out_dir / "loss.csv",
        checkpoint_path=ckpt_path,
        rows=rows,
        initial_total=rows[0][4] if rows else float("nan"),
        final_total=rows[-1][4] if rows else float("nan"),
    )


def profile(cfg: RunConfig, data_dir, steps: int) -> str:
    """Run the training loop for ``steps`` steps, writing nothing; report its stage clocks.

    The stages partition each step up to a few clock reads, so they sum to
    the loop's wall time, which is the reported total. The last line is the
    process's peak resident set size (``ru_maxrss``) after the last update.
    """
    entries = load_entries(data_dir)
    model = MaskClassificationModel(cfg.model)
    optimizer = make_optimizer(cfg, model)
    t0 = time.perf_counter()
    results = run_steps(model, optimizer, entries, cfg, steps)
    total = time.perf_counter() - t0
    if not results:
        return "no steps profiled\n"
    n_records = steps * cfg.trainer.batch_size
    lines = [f"steps {steps}  records {n_records}  total {total:.3f}s  "
             f"records/sec {n_records / total:.1f}"]
    for name in STAGES:
        sec = sum(r.seconds[name] for r in results)
        lines.append(f"  {name:<9} {sec:8.3f}s  {100.0 * sec / total:5.1f}%")
    lines.append(f"dropped instances {sum(r.dropped_instances for r in results)}  "
                 f"degenerate-dice pairs {sum(r.degenerate_dice for r in results)}  "
                 f"empty targets {sum(r.empty_targets for r in results)}")
    lines.append(f"peak RSS {results[-1].peak_rss_mb:.0f} MB")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def ground_truth_segments(targets, valid_mask, factor: int = 1) -> SegmentSet:
    """The targets with a pixel at mask-logit resolution, renumbered; padding becomes void.

    ``parse`` emits both at that resolution, so ``factor`` must be 1.
    """
    if factor != 1:
        raise ContractError(f"targets are at mask resolution; got downsample factor {factor}")
    return owned_segments(targets.ids, targets.labels, void=~valid_mask)


def evaluate(cfg: RunConfig, data_dir, checkpoint_path, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = load_entries(data_dir)
    model = MaskClassificationModel(cfg.model)
    load_checkpoint(model, checkpoint_path)

    eval_parser = ParserConfig(**{**cfg.parser.__dict__, "crop_probability": 0.0})
    stats: dict = {}
    k = cfg.model.num_classes
    for entry in entries:
        sample, targets = parse(entry, eval_parser, rng_seed=0)
        if max(targets.labels, default=0) > k:
            raise PipelineError(f"image {sample.image_id}: target label "
                                f"{max(targets.labels)} outside 1..K with K = {k}")
        with no_grad():
            outputs = model.forward(sample.image)
        pred = postprocess(outputs, cfg.evaluator)
        gt = ground_truth_segments(targets, sample.valid_mask)
        accumulate(stats, pred, gt)
    result = summarize(stats)

    report_txt = out_dir / "eval_report.txt"
    report_csv = out_dir / "eval_report.csv"
    lines = [
        f"PQ {result.pq:.6f}",
        f"SQ {result.sq:.6f}",
        f"RQ {result.rq:.6f}",
    ]
    per_class_pq = result.per_class_pq
    for c in sorted(result.per_class):
        s = result.per_class[c]
        lines.append(
            f"class {c}: PQ {per_class_pq[c]:.6f} TP {s.tp} FP {s.fp} FN {s.fn}"
        )
    # the text report is renamed into place only after the CSV is complete
    with (records.atomic_open(report_txt, "w") as txt,
          records.atomic_open(report_csv, "w", newline="") as f):
        txt.write("\n".join(lines) + "\n")
        writer = csv.writer(f)
        writer.writerow(["class", "pq", "tp", "fp", "fn", "iou_sum"])
        writer.writerow(["all", result.pq, "", "", "", ""])
        for c in sorted(result.per_class):
            s = result.per_class[c]
            writer.writerow([c, per_class_pq[c], s.tp, s.fp, s.fn, s.iou_sum])
    return result
