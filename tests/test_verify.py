"""Mutation sensitivity of ``verify``'s gradient suite.

Each mutant doubles one input grad of one tensor op's recorded backward, so
the model that trains gets a wrong gradient; the gradient suite must fail.
"""

import pytest

from setseg import tensor as T, trainer, verify
from setseg.cli import main
from setseg.config import RunConfig

from test_cli import TOY_OVERRIDES


def doubled_grad(op, index):
    """``op`` whose recorded backward returns twice the grad of input ``index``."""
    def mutant(*args, **kwargs):
        out = op(*args, **kwargs)
        if out._entry is not None:
            bwd = out._entry.backward_fn

            def doubled(g):
                grads = list(bwd(g))
                if grads[index] is not None:
                    grads[index] = grads[index] * 2.0
                return grads

            out._entry.backward_fn = doubled
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
    monkeypatch.setattr(T, op, doubled_grad(getattr(T, op), index))
    result = verify.check_gradients(RunConfig())
    assert not result.passed and result.error > 1e-4, result.line()


def test_verify_fails_only_the_gradient_suite(monkeypatch, capsys):
    monkeypatch.setattr(T, "layer_norm", doubled_grad(T.layer_norm, 0))
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
