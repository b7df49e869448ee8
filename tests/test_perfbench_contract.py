"""The benchmark's workloads still run against the package.

``perfbench/`` is read as it is: one unit of each workload kind goes through
its own set-up, warm-up, checked matcher and timed phase, traced, on a tiny
input, so a package change that breaks a call the benchmark makes fails here.
Its toy workload must stay the README's ``toy.cfg``.
"""

import importlib
from pathlib import Path

import pytest

from setseg.config import load_config

from test_trainer import readme_toy_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_toy_workload_is_the_readme_toy_config(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    assert load_config(None, list(wl.TOY)) == readme_toy_config(tmp_path)


@pytest.mark.parametrize("kind", ["train", "eval"])
def test_one_unit_of_each_workload_kind_runs_clean(kind, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")

    w = wl.Workload(f"tiny_{kind}", kind, wl.TOY, 6, 48, 64, deadline_s=60.0,
                    episode_steps=2)
    checks = wl.Checks()
    tracer = tracing.Tracer()
    annotations = wl.make_inputs(w, 0, tmp_path)
    with tracing.instrument(tracer):
        state, _ = wl.setup(w, annotations, tmp_path, tracer, checks)
    wl.warm_up(w, state)
    with tracing.instrument(tracer), wl.checked_matcher(checks, tracer):
        phase = wl.run_phase(w, state, 0.0, tracer, checks)

    assert [op.error for op in phase.ops if op.error] == []
    assert checks.failures == []
    if kind == "train":
        assert len(phase.ops) == w.episode_steps and len(phase.losses) == 1
    else:
        assert len(phase.ops) == 1 and phase.pq is not None
