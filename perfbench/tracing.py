"""Spans and counters recorded from the benchmark's own files.

A span times one call into a layer. The benchmark opens spans around its
own calls (``tracer.span(...)``) and, for calls the package makes
internally, :func:`instrument` swaps the module or class attribute the
caller looks up (``setseg.trainer.hungarian``,
``MaskClassificationModel.forward``, ...) for a wrapper that opens one.
Each span carries its thread's name and the span open on that thread when
it started, so work on the batch producer thread never counts toward the
main thread's operation time.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end", "ok")

    def __init__(self, name, thread, parent, start):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = start
        self.ok = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans and sampled values in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        s = Span(name, threading.current_thread().name,
                 stack[-1] if stack else None, time.perf_counter())
        self.spans.append(s)
        stack.append(s)
        try:
            yield s
            s.ok = True
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)


class NullTracer:
    """The untraced mode: spans and samples cost one call and keep nothing."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL

    def sample(self, name: str, value: float) -> None:
        pass


def _wrap_call(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def _wrap_generator(tracer, name, fn):
    """Time a generator from its first item through exhaustion."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            yield from fn(*args, **kwargs)
    return traced


def _wrap_counter(tracer, name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.sample(name, 1.0)
        return fn(*args, **kwargs)
    return counted


@contextlib.contextmanager
def patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's internal call sites in spans for the duration."""
    from setseg import model, records, tensor, trainer

    sites = [
        (model.MaskClassificationModel, "forward", "model.forward", _wrap_call),
        (trainer, "build_cost_matrix", "matcher.build_cost_matrix", _wrap_call),
        (trainer, "hungarian", "matcher.hungarian", _wrap_call),
        (trainer, "total_loss", "losses.total_loss", _wrap_call),
        (trainer, "backward", "tensor.backward", _wrap_call),
        (trainer, "parse", "pipeline.parse", _wrap_call),
        (trainer, "make_batch", "pipeline.batch", _wrap_call),
        (records, "write_shards", "records.write_shards", _wrap_call),
        (records, "read_shards", "records.read_shards", _wrap_generator),
        (tensor.Tape, "record", "tensor.tape_ops", _wrap_counter),
    ]
    with contextlib.ExitStack() as stack:
        for owner, attr, name, wrap in sites:
            stack.enter_context(patched(owner, attr, wrap(tracer, name, getattr(owner, attr))))
        yield


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

class CoverageError(Exception):
    pass


def percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def step_other(tracer: Tracer) -> list[float]:
    """Per completed operation, the seconds that no child span covers.

    Checks that the children of each operation ran on its thread, inside it
    and one after another, so children plus the remainder sum to the
    operation time.
    """
    children = defaultdict(list)
    for s in tracer.spans:
        if s.parent is not None and s.parent.name == "op":
            children[id(s.parent)].append(s)
    others = []
    for op in tracer.spans:
        if op.name != "op":
            continue
        last = op.start
        for child in sorted(children[id(op)], key=lambda s: s.start):
            if child.thread != op.thread or child.start < last or child.end > op.end:
                raise CoverageError(f"span {child.name} overlaps a sibling or leaves its operation")
            last = child.end
        other = op.seconds - sum(c.seconds for c in children[id(op)])
        if op.ok:
            others.append(other)
    return others


LAYER_UNITS = {
    "tensor.backward_ms": "ms", "tensor.tape_ops": "count", "model.forward_ms": "ms",
    "model.init_s": "s", "model.save_checkpoint_s": "s", "model.load_checkpoint_s": "s",
    "matcher.hungarian_ms_p50": "ms", "matcher.hungarian_ms_p90": "ms",
    "matcher.hungarian_calls": "count", "matcher.hungarian_failed": "count",
    "matcher.real_row_ratio": "ratio", "matcher.build_cost_matrix_ms": "ms",
    "losses.total_loss_ms": "ms", "pipeline.parse_ms": "ms", "pipeline.batch_ms": "ms",
    "trainer.queue_wait_ms": "ms", "trainer.clip_gradients_ms": "ms",
    "trainer.optimizer_step_ms": "ms", "trainer.step_other_ms": "ms",
    "records.write_shards_s": "s", "records.read_shards_s": "s", "records.bytes": "bytes",
    "evaluator.postprocess_ms": "ms", "evaluator.accumulate_ms": "ms",
    "evaluator.segments_predicted": "count", "trace_overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, completed_ops: int) -> dict[str, float]:
    """Per-layer values from one traced phase; layers a workload skips read 0."""
    ok = defaultdict(list)
    calls = defaultdict(int)
    failed = defaultdict(int)
    for s in tracer.spans:
        calls[s.name] += 1
        if s.ok:
            ok[s.name].append(s.seconds)
        else:
            failed[s.name] += 1

    def ms(name):
        return 1e3 * _mean(ok[name])

    def setup_s(name):
        return statistics.median(ok[name]) if ok[name] else 0.0

    hung = [1e3 * v for v in ok["matcher.hungarian"]]
    per_op = max(completed_ops, 1)
    return {
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.tape_ops": len(tracer.samples["tensor.tape_ops"]) / per_op,
        "model.forward_ms": ms("model.forward"),
        "model.init_s": setup_s("model.init"),
        "model.save_checkpoint_s": setup_s("model.save_checkpoint"),
        "model.load_checkpoint_s": setup_s("model.load_checkpoint"),
        "matcher.hungarian_ms_p50": percentile(hung, 0.5),
        "matcher.hungarian_ms_p90": percentile(hung, 0.9),
        "matcher.hungarian_calls": calls["matcher.hungarian"],
        "matcher.hungarian_failed": failed["matcher.hungarian"],
        "matcher.real_row_ratio": _mean(tracer.samples["matcher.real_row_ratio"]),
        "matcher.build_cost_matrix_ms": ms("matcher.build_cost_matrix"),
        "losses.total_loss_ms": ms("losses.total_loss"),
        "pipeline.parse_ms": ms("pipeline.parse"),
        "pipeline.batch_ms": ms("pipeline.batch"),
        "trainer.queue_wait_ms": ms("trainer.queue_wait"),
        "trainer.clip_gradients_ms": ms("trainer.clip_gradients"),
        "trainer.optimizer_step_ms": ms("trainer.optimizer_step"),
        "trainer.step_other_ms": 1e3 * _mean(step_other(tracer)),
        "records.write_shards_s": setup_s("records.write_shards"),
        "records.read_shards_s": setup_s("records.read_shards"),
        "records.bytes": statistics.median(tracer.samples["records.bytes"] or [0]),
        "evaluator.postprocess_ms": ms("evaluator.postprocess"),
        "evaluator.accumulate_ms": ms("evaluator.accumulate"),
        "evaluator.segments_predicted": _mean(tracer.samples["evaluator.segments_predicted"]),
    }
