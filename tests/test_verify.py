"""Mutation sensitivity of ``verify``'s gradient and record round-trip suites.

Each gradient mutant scales one input grad of one tensor op's recorded
backward (by 2, or by 1.01 for attention's q and k), so the model that
trains gets a wrong gradient; the gradient suite must fail.
"""

import numpy as np
import pytest

from setseg import records, tensor as T, trainer, verify
from setseg.cli import main
from setseg.config import RunConfig

from test_cli import TOY_OVERRIDES


def scaled_grad(op, index, factor=2.0):
    """``op`` whose recorded backward returns ``factor`` times the grad of input ``index``."""
    def mutant(*args, **kwargs):
        out = op(*args, **kwargs)
        if out._entry is not None:
            bwd = out._entry.backward_fn

            def scaled(g):
                grads = list(bwd(g))
                if grads[index] is not None:
                    grads[index] = grads[index] * factor
                return grads

            out._entry.backward_fn = scaled
        return out
    return mutant


@pytest.mark.parametrize("op, index", [
    ("conv2d", 0),
    ("upsample2x_conv3x3", 0),
    ("layer_norm", 0),
    ("multi_head_attention", 0),
    ("multi_head_attention", 1),
    ("add", 0),
    ("broadcast_batch", 0),
    ("linear", 0),
], ids=["conv2d", "upsample2x_conv3x3", "layer_norm", "attention_q", "attention_k", "add",
        "broadcast_batch", "linear"])
def test_doubled_backward_fails_gradient_suite(monkeypatch, op, index):
    monkeypatch.setattr(T, op, scaled_grad(getattr(T, op), index))
    result = verify.check_gradients(RunConfig())
    assert not result.passed and result.error > 1e-4, result.line()


@pytest.mark.parametrize("index", [0, 1], ids=["q", "k"])
def test_one_percent_attention_error_fails_gradient_suite(monkeypatch, index):
    monkeypatch.setattr(T, "multi_head_attention",
                        scaled_grad(T.multi_head_attention, index, 1.01))
    result = verify.check_gradients(RunConfig())
    assert not result.passed and result.error > 1e-4, result.line()


def test_verify_fails_only_the_gradient_suite(monkeypatch, capsys):
    monkeypatch.setattr(T, "layer_norm", scaled_grad(T.layer_norm, 0))
    assert main(["verify", *TOY_OVERRIDES]) == 1
    out = capsys.readouterr().out
    assert out.count("[FAIL]") == 1
    assert "[FAIL] gradient finite-difference suite" in out


def test_gradient_suite_differentiates_train_step(monkeypatch):
    calls = []
    train_step = trainer.train_step

    def counted(*args, **kwargs):
        calls.append(args)
        return train_step(*args, **kwargs)

    monkeypatch.setattr(trainer, "train_step", counted)
    assert verify.check_gradients(RunConfig()).passed
    assert len(calls) == 1


@pytest.mark.parametrize("key", ["image/encoded", "segmentation/instance_mask",
                                 "segmentation/instance_classes"])
def test_a_value_changed_on_read_fails_record_roundtrip(monkeypatch, key):
    read_shards = records.read_shards

    def mutant(shard_set):
        for i, entry in enumerate(read_shards(shard_set)):
            if i == 5:   # flip the lowest bit of the value's first element
                value = entry[key]
                entry[key] = (bytes([value[0] ^ 1]) + value[1:] if isinstance(value, bytes)
                              else value ^ np.eye(1, len(value), dtype=value.dtype)[0])
            yield entry

    monkeypatch.setattr(records, "read_shards", mutant)
    result = verify.check_record_roundtrip(RunConfig())
    assert not result.passed, result.line()
