"""The benchmark's workloads: inputs, set-up, operations and output checks.

Every workload is a closed loop: one operation at a time, the next one
starting when the previous one has ended. Each operation runs under a
deadline (``SIGALRM`` from ``signal.setitimer``); an overrun or an
exception marks it failed, the run goes on, and the failure is listed with
its reason.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from setseg import evaluator, model as model_mod, pipeline, synth, trainer
from setseg.config import load_config
from setseg.tensor import no_grad

from tracing import NullTracer, patched

# The README's toy.cfg.
TOY = (
    "parser.target_size=64", "parser.crop_sizes=32,48,56", "model.input_size=64",
    "model.n_queries=16", "model.hidden_size=64", "model.backbone_channels=64",
    "model.num_encoder_layers=2", "model.num_decoder_layers=2", "model.num_heads=4",
    "trainer.steps=300", "trainer.learning_rate=1e-3", "seed=5",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # "train" or "eval"
    overrides: tuple[str, ...]    # config keys over the package defaults
    images: int                   # synth images, ingested into SHARDS shards
    min_size: int
    max_size: int
    deadline_s: float             # far above the slowest operation that completes
    episode_steps: int = 0        # training steps from a fresh model per episode


WORKLOADS = {
    w.name: w for w in (
        Workload("train_toy", "train", TOY, 200, 48, 96, deadline_s=1.0, episode_steps=300),
        Workload("train_q100", "train", TOY + ("model.n_queries=100",), 200, 48, 96,
                 deadline_s=3.0, episode_steps=50),
        Workload("eval_full", "eval", (), 24, 480, 640, deadline_s=10.0),
    )
}

SHARDS = 4
SETUP_REPEATS = 7


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    where = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}" if frame else "?"
    raise DeadlineExceeded(where)


@contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    index: int
    seconds: float
    images: int                   # images in the operation; 0 if it failed
    error: str | None = None
    episode: int = 0
    step: int = 0


@dataclass
class Checks:
    """Output checks; any failure makes the run incorrect."""

    failures: list[str] = field(default_factory=list)
    scipy_lsa: object = None      # scipy.optimize.linear_sum_assignment, traced runs only

    def expect(self, ok: bool, what: str) -> None:
        if not ok and len(self.failures) < 20:
            self.failures.append(what)


def run_op(fn, index: int, limit_s: float, tracer) -> Op:
    """Time ``fn`` under the deadline; ``fn`` returns the images it handled."""
    t0 = time.perf_counter()
    error = None
    images = 0
    try:
        with deadline(limit_s), tracer.span("op"):
            images = fn()
    except DeadlineExceeded as err:
        error = f"deadline {limit_s:g} s exceeded in {err}"
    except Exception as err:  # the run continues; the failure is reported by name
        error = f"{type(err).__name__} in {_where(err)}: {err}"
    return Op(index, time.perf_counter() - t0, images if error is None else 0, error)


def _where(err: BaseException) -> str:
    tb = err.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    if tb is None:
        return "?"
    return f"{tb.tb_frame.f_globals.get('__name__')}.{tb.tb_frame.f_code.co_name}"


@contextmanager
def checked_matcher(checks: Checks, tracer):
    """Check every assignment the trainer computes (and sample real-row use)."""
    solve = trainer.hungarian

    def hungarian(cm):
        result = solve(cm)
        n, n_q = cm.real_rows, cm.values.shape[1]
        q = result.query_for_gt
        checks.expect(len(q) == n and len(set(q.tolist())) == n
                      and all(0 <= v < n_q for v in q.tolist()),
                      f"assignment {q.tolist()} does not map {n} rows to distinct queries")
        if checks.scipy_lsa is not None and n:
            rows, cols = checks.scipy_lsa(cm.values[:n])
            best = float(cm.values[:n][rows, cols].sum())
            checks.expect(abs(result.total_real_cost - best) <= 1e-9 * max(1.0, abs(best)),
                          f"assignment total {result.total_real_cost!r} != optimum {best!r}")
        tracer.sample("matcher.real_row_ratio", n / cm.values.shape[0])
        return result

    with patched(trainer, "hungarian", hungarian):
        yield


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def make_inputs(w: Workload, seed: int, work: Path) -> Path:
    """Synth images from the workload seed; returns the annotations file."""
    return synth.synth(w.images, work / "raw", seed=seed,
                       min_size=w.min_size, max_size=w.max_size)


@dataclass
class State:
    cfg: object
    entries: list
    model: object = None


def setup(w: Workload, annotations: Path, work: Path, tracer, checks: Checks):
    """Ingest, read back and build the model ``SETUP_REPEATS`` times.

    Returns the last state and the median set-up seconds.
    """
    cfg = load_config(None, list(w.overrides))
    times = []
    for r in range(SETUP_REPEATS):
        out = work / f"shards{r}"
        t0 = time.perf_counter()
        shard_set, _ = trainer.ingest(annotations, SHARDS, out)
        entries = trainer.load_entries(out)
        with tracer.span("model.init"):
            model = model_mod.MaskClassificationModel(cfg.model)
        if w.kind == "eval":
            ckpt = work / f"model{r}.ckpt"
            with tracer.span("model.save_checkpoint"):
                model_mod.save_checkpoint(model, ckpt)
            with tracer.span("model.load_checkpoint"):
                model_mod.load_checkpoint(model, ckpt)
        times.append(time.perf_counter() - t0)
        tracer.sample("records.bytes", sum(s.byte_size for s in shard_set.shards))
        checks.expect(len(entries) == shard_set.record_count == w.images,
                      f"loaded {len(entries)} records, ingested {shard_set.record_count}")
    return State(cfg, entries, model), statistics.median(times)


def warm_up(w: Workload, state: State) -> None:
    """One untimed forward pass, so thread pools and buffers exist before timing."""
    if w.kind == "train":
        b = trainer.assemble_batch(state.entries, state.cfg, 0)
        with no_grad():
            model_mod.MaskClassificationModel(state.cfg.model).forward(b.images)
    else:
        sample, _ = pipeline.parse(state.entries[0], _eval_parser(state.cfg), rng_seed=0)
        with no_grad():
            state.model.forward(sample.image)


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    ops: list[Op] = field(default_factory=list)
    losses: list[list[float]] = field(default_factory=list)   # per episode
    pq: tuple | None = None


def run_phase(w: Workload, state: State, seconds: float, tracer, checks: Checks) -> Phase:
    """Run whole units of work while the next one is expected to fit in ``seconds``.

    A unit is an episode of ``episode_steps`` training steps from a fresh
    model, or one image for evaluation. At least one unit always runs; past
    three times ``seconds`` (operations that keep failing on the deadline)
    the phase stops (after at least a minute), even inside an episode.
    """
    phase = Phase()
    start = time.perf_counter()
    stop_at = start + max(3 * seconds, 60.0)
    unit = _train_episode if w.kind == "train" else _eval_image
    stats: dict = {}
    while True:
        t0 = time.perf_counter()
        unit(w, state, phase, tracer, stats, stop_at)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    if w.kind == "train":
        _check_training(w, phase, checks)
    else:
        result = evaluator.summarize(stats)
        phase.pq = (result.pq, result.sq, result.rq)
        checks.expect(all(0.0 <= v <= 1.0 for v in phase.pq), f"PQ/SQ/RQ {phase.pq} outside [0, 1]")
    return phase


def _train_episode(w, state, phase, tracer, _stats, stop_at):
    cfg = state.cfg
    episode = len(phase.losses)
    model = model_mod.MaskClassificationModel(cfg.model)
    optimizer = trainer.make_optimizer(cfg, model)
    batches = iter(trainer.BatchStream(state.entries, cfg, w.episode_steps))
    losses = []

    def step():
        with tracer.span("trainer.queue_wait"):
            batch = next(batches)
        total = trainer.train_step(model, batch, cfg)[3]
        with tracer.span("trainer.clip_gradients"):
            trainer.clip_gradients(model.params, cfg.trainer.grad_clip_norm)
        with tracer.span("trainer.optimizer_step"):
            optimizer.step()
        losses.append(total)
        return batch.size

    for k in range(w.episode_steps):
        if time.perf_counter() > stop_at:
            break
        op = run_op(step, len(phase.ops), w.deadline_s, tracer)
        op.episode, op.step = episode, k
        phase.ops.append(op)
    phase.losses.append(losses)


def _eval_parser(cfg):
    return pipeline.ParserConfig(**{**cfg.parser.__dict__, "crop_probability": 0.0})


def _eval_image(w, state, phase, tracer, stats, _stop_at):
    cfg = state.cfg
    parser_cfg = _eval_parser(cfg)
    entry = state.entries[len(phase.ops) % len(state.entries)]

    def image():
        with tracer.span("pipeline.parse"):
            sample, targets = pipeline.parse(entry, parser_cfg, rng_seed=0)
        with no_grad():
            outputs = state.model.forward(sample.image)
        with tracer.span("evaluator.postprocess"):
            pred = evaluator.postprocess(outputs, cfg.evaluator)
        factor = sample.valid_mask.shape[0] // outputs.mask_logits.shape[2]
        gt = trainer.ground_truth_segments(targets, sample.valid_mask, factor)
        with tracer.span("evaluator.accumulate"):
            evaluator.accumulate(stats, pred, gt)
        tracer.sample("evaluator.segments_predicted", len(pred.labels))
        return 1

    phase.ops.append(run_op(image, len(phase.ops), w.deadline_s, tracer))


def whole_episodes(w: Workload, phase: Phase) -> list[tuple[list, list]]:
    """(losses, failed steps) of each episode that ran all its steps."""
    runs = []
    for e, losses in enumerate(phase.losses):
        steps = [op for op in phase.ops if op.episode == e]
        if len(steps) == w.episode_steps:
            runs.append((losses, [op.step for op in steps if op.error]))
    return runs


def _check_training(w: Workload, phase: Phase, checks: Checks) -> None:
    """Completed losses are finite and every whole episode repeats the first one."""
    checks.expect(all(math.isfinite(v) for ep in phase.losses for v in ep),
                  "non-finite loss in a completed step")
    runs = whole_episodes(w, phase)
    for e, run in enumerate(runs[1:], start=1):
        checks.expect(run == runs[0],
                      f"episode {e} did not repeat episode 0 (losses or failed steps differ)")


def loss_final(phase: Phase) -> float:
    """Mean total loss over the last tenth of the first episode's completed steps."""
    losses = phase.losses[0] if phase.losses else []
    if not losses:
        return float("nan")
    tail = losses[-max(1, len(losses) // 10):]
    return float(np.mean(tail))
