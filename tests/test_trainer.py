import csv
import gc
import json
import math
import re
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from setseg import synth, tensor, trainer
from setseg.config import RunConfig, load_config
from setseg.matcher import NanCostError
from setseg.model import MaskClassificationModel, save_checkpoint
from setseg.pipeline import PipelineError
from setseg.records import load_manifest
from setseg.trainer import (
    STAGES, TrainError, evaluate, ingest, load_entries, profile, run_steps, train,
)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory: a itself, or the base a view is of."""
    return a if a.base is None else a.base


def toy_run_config(**trainer_overrides) -> RunConfig:
    cfg = RunConfig()
    cfg.parser.target_size = 64
    cfg.parser.crop_probability = 0.5
    cfg.parser.crop_sizes = (24, 32)
    cfg.model.input_size = 64
    cfg.model.n_queries = 8
    cfg.model.hidden_size = 32
    cfg.model.backbone_channels = 32
    cfg.model.num_encoder_layers = 1
    cfg.model.num_decoder_layers = 1
    cfg.model.num_heads = 4
    cfg.trainer.steps = 3
    cfg.trainer.batch_size = 2
    cfg.trainer.learning_rate = 1e-3
    cfg.trainer.checkpoint_every = 0
    cfg.seed = 1
    for k, v in trainer_overrides.items():
        setattr(cfg.trainer, k, v)
    return cfg


def readme_toy_config(tmp_path) -> RunConfig:
    """The README's ``toy.cfg``, read from the README's heredoc."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    toy = re.search(r"cat > toy.cfg <<'EOF'\n(.*?)\nEOF", readme, re.S).group(1)
    (tmp_path / "toy.cfg").write_text(toy)
    return load_config(tmp_path / "toy.cfg")


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    ann = synth.synth(10, tmp / "raw", seed=2, min_size=40, max_size=72)
    ingest(ann, 2, tmp / "shards")
    return tmp / "shards"


class TestIngest:
    def test_shards_and_mapping(self, shard_dir):
        ss = load_manifest(shard_dir)
        assert ss.record_count == 10
        assert ss.class_mapping == {7: 1, 21: 2, 33: 3, 90: 4}
        entries = load_entries(shard_dir)
        assert len(entries) == 10
        cont = np.frombuffer(entries[0]["segmentation/contiguous_mask"], dtype="<u2")
        assert cont.max() <= 4

    def test_unknown_class_id_is_hard_error(self, tmp_path):
        ann = synth.synth(3, tmp_path / "raw", seed=5)
        with pytest.raises(PipelineError) as err:
            ingest(ann, 1, tmp_path / "shards", known_class_ids=[7, 21, 33])
        assert "90" in str(err.value)

    def test_unknown_class_id_names_its_annotation_line(self, tmp_path):
        ann = synth.synth(3, tmp_path / "raw", seed=5)
        with pytest.raises(PipelineError) as err:
            ingest(ann, 1, tmp_path / "shards", known_class_ids=[7, 21, 33])
        found = re.fullmatch(rf"{re.escape(str(ann))}:(\d+): unknown class ID 90", str(err.value))
        assert found
        # the named line is the first whose segments hold class 90
        has_90 = [any(seg["category_id"] == 90 for seg in json.loads(line)["segments"])
                  for line in ann.read_text().splitlines()]
        assert int(found.group(1)) == has_90.index(True) + 1

    def test_balance_on_uneven_images(self, shard_dir):
        ss = load_manifest(shard_dir)
        assert ss.byte_balance() <= 1.10


class TestTrain:
    def test_short_run_writes_outputs(self, shard_dir, tmp_path):
        result = train(toy_run_config(), shard_dir, tmp_path / "run")
        assert result.csv_path.exists()
        assert result.checkpoint_path.exists()
        assert len(result.rows) == 3

    def test_run_directory_holds_the_resolved_config(self, shard_dir, tmp_path):
        cfg = toy_run_config()
        train(cfg, shard_dir, tmp_path / "run")
        loaded = load_config(tmp_path / "run" / "config.txt")
        assert loaded == cfg
        assert loaded.parser.crop_sizes == (24, 32) and loaded.parser.mean == cfg.parser.mean
        with (tmp_path / "run" / "loss.csv").open() as f:
            assert next(csv.reader(f)) == ["step", "classification", "focal", "dice", "total"]

    def test_metrics_csv_one_row_per_step(self, shard_dir, tmp_path):
        cfg = toy_run_config(steps=4, checkpoint_every=2)
        train(cfg, shard_dir, tmp_path / "run")
        with (tmp_path / "run" / "metrics.csv").open() as f:
            header, *rows = list(csv.reader(f))
        assert header == ["step", *STAGES, "grad_norm", "matched_pairs",
                          "dropped_instances", "degenerate_dice", "empty_targets",
                          "peak_rss_mb"]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        peaks = [float(r[13]) for r in rows]
        assert peaks[0] > 0 and peaks == sorted(peaks)
        entries = load_entries(shard_dir)
        for step, row in enumerate(rows):
            values = [float(v) for v in row]
            assert all(math.isfinite(v) for v in values)
            assert all(v >= 0 for v in values[1:8]) and values[8] > 0
            batch = trainer.assemble_batch(entries, cfg, step)
            assert int(row[9]) == sum(len(t.labels) for t in batch.target_sets) > 0
            assert int(row[12]) == sum(not (t.ids == i + 1).any()
                                       for t in batch.target_sets for i in range(t.count))

    def test_deterministic_loss_csv(self, shard_dir, tmp_path):
        r1 = train(toy_run_config(), shard_dir, tmp_path / "a")
        r2 = train(toy_run_config(), shard_dir, tmp_path / "b")
        assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()

    def test_zero_learning_rate_keeps_parameters(self, shard_dir, tmp_path):
        from setseg.model import MaskClassificationModel, load_checkpoint

        cfg = toy_run_config(learning_rate=0.0, steps=1)
        result = train(cfg, shard_dir, tmp_path / "zero")
        fresh = MaskClassificationModel(cfg.model)
        loaded = MaskClassificationModel(cfg.model)
        load_checkpoint(loaded, result.checkpoint_path)
        for name in fresh.params:
            assert np.array_equal(fresh.params[name].data, loaded.params[name].data), name

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nan_loss_aborts_with_batch_id(self, shard_dir, tmp_path):
        cfg = toy_run_config(learning_rate=1e18, grad_clip_norm=0.0, steps=30)
        with pytest.raises(TrainError) as err:
            train(cfg, shard_dir, tmp_path / "nan")
        assert "batch images" in str(err.value)
        assert (tmp_path / "nan" / "nan_batch.txt").exists()
        # the steps before the failing one keep their rows
        assert err.value.step >= 1
        for name in ("loss.csv", "metrics.csv"):
            with (tmp_path / "nan" / name).open() as f:
                _, *rows = list(csv.reader(f))
            assert [int(r[0]) for r in rows] == list(range(err.value.step)), name

    def test_nan_gradient_aborts_with_batch_id(self, shard_dir, tmp_path, monkeypatch):
        real_step = trainer.train_step

        def step_with_nan_grad(model, batch_data, cfg):
            result = real_step(model, batch_data, cfg)
            next(iter(model.params.values())).grad[...] = np.nan
            return result

        monkeypatch.setattr(trainer, "train_step", step_with_nan_grad)
        with pytest.raises(TrainError) as err:
            train(toy_run_config(), shard_dir, tmp_path / "nan_grad")
        assert "gradient norm at step 0" in str(err.value)
        assert "batch images" in str(err.value)
        assert (tmp_path / "nan_grad" / "nan_batch.txt").read_text().startswith("step 0\n")

    def test_training_starts_no_thread(self, shard_dir, tmp_path, monkeypatch):
        # batches are assembled on the training thread, so every step, of a
        # finished run and of one aborted at step 0, sees only the threads
        # that were alive before train
        counts = []

        def counted(step_fn):
            def step(model, batch_data, cfg):
                counts.append(threading.active_count())
                return step_fn(model, batch_data, cfg)
            return step

        def failing_step(model, batch_data, cfg):
            raise NanCostError("non-finite cost")

        before = threading.active_count()
        monkeypatch.setattr(trainer, "train_step", counted(trainer.train_step))
        train(toy_run_config(steps=5), shard_dir, tmp_path / "run")
        monkeypatch.setattr(trainer, "train_step", counted(failing_step))
        with pytest.raises(TrainError) as err:
            train(toy_run_config(steps=50), shard_dir, tmp_path / "abort")
        assert err.value.step == 0
        assert counts == [before] * 6

    def test_train_step_result(self, shard_dir):
        cfg = toy_run_config()
        batch = trainer.assemble_batch(load_entries(shard_dir), cfg, 0)
        result = trainer.train_step(MaskClassificationModel(cfg.model), batch, cfg)
        assert isinstance(result, trainer.StepResult)
        assert result[3] == result.total
        assert set(result.seconds) == {"forward", "match", "loss", "backward"}
        assert result.dropped_instances >= 0 and result.degenerate_dice >= 0
        assert result.empty_targets >= 0

    def test_backward_leaves_only_the_parameter_grads(self, shard_dir, tmp_path, monkeypatch):
        # one README toy step at the paper's 100 queries: when backward
        # returns, still inside the step's tape, the walk has released every
        # entry, so what the step still holds is the parameter grads and a
        # small fixed slack, not the activations (about 13 MB at this size)
        cfg = readme_toy_config(tmp_path)
        cfg.model.n_queries = 100
        batch = trainer.assemble_batch(load_entries(shard_dir), cfg, 0)
        model = MaskClassificationModel(cfg.model)
        held = []
        walk = trainer.backward

        def traced(loss):
            walk(loss)
            held.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(trainer, "backward", traced)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trainer.train_step(model, batch, cfg)
        finally:
            tracemalloc.stop()
        grad_bytes = sum(p.grad.nbytes for p in model.params.values())
        assert held[0] - before <= grad_bytes + 1_000_000

    def test_forward_keeps_only_what_the_backward_reads(self, shard_dir, tmp_path, monkeypatch):
        # one README toy step at the paper's 100 queries, freed by reference
        # counting alone: the residual branches (each o-projection and FFN w2
        # output, which only an add reads), the adds' positional operands and
        # each attention's P (its backward rebuilds P from the row max and
        # row sum) die in the forward, the mask logits once the loss is built
        # and the outputs dropped; after the forward the tape and the outputs
        # hold 9.8 MB (11.3 MB while attention kept P, 12.6 MB while entries
        # held their input tensors and linear kept its output)
        cfg = readme_toy_config(tmp_path)
        cfg.model.n_queries = 100
        batch = trainer.assemble_batch(load_entries(shard_dir), cfg, 0)
        model = MaskClassificationModel(cfg.model)
        branch_weights = [p for name, p in model.params.items() if name.endswith((".wo", ".ffn.w2"))]
        branches, constants = [], []
        record = tensor.Tape.record

        def watch(tape, inputs, output, backward_fn):
            op = backward_fn.__qualname__
            if op.startswith("linear") and any(inputs[1] is w for w in branch_weights):
                branches.append(weakref.ref(_owner(output.data)))
            if op.startswith("add"):
                constants.extend(weakref.ref(_owner(t.data)) for t in inputs if not t.requires_grad)
            record(tape, inputs, output, backward_fn)

        monkeypatch.setattr(tensor.Tape, "record", watch)
        gc.disable()
        tracemalloc.start()
        try:
            with tensor.Tape():
                before = tracemalloc.get_traced_memory()[0]
                outputs = model.forward(batch.images)
                held = tracemalloc.get_traced_memory()[0] - before
                alive = [r() is not None for r in branches + constants]
                logits = weakref.ref(_owner(outputs.mask_logits.data))
                with tensor.no_grad():
                    costs = trainer.batch_costs(outputs, batch, cfg.losses)
                    assignments = [trainer.hungarian(cm) for cm in costs]
                loss = trainer.total_loss(outputs, costs, assignments, cfg.losses)
                del outputs, costs
                logits_alive = logits() is not None
                tensor.backward(loss.total_tensor)
        finally:
            tracemalloc.stop()
            gc.enable()
        assert (len(branches), len(constants)) == (10, 2)
        assert alive == [False] * 12 and not logits_alive
        assert held <= 10_300_000

    def test_readme_toy_step_tape_ops(self, shard_dir, tmp_path, monkeypatch):
        # 93 = 92 forward ops (each linear layer with its bias and any
        # following ReLU, each of the six attention calls and each of the 8
        # conv stages' norm with its ReLU at one op, the heads' a·bᵀ without
        # a copied transpose; decoder layer 0's query block at batch 1 takes
        # a reshape of the queries, then a reshape and a broadcast each of
        # the residual stream and the projected queries where the images
        # enter, in place of one broadcast of the queries) + 1 loss op for
        # the whole batch of 8 images; a split linear or norm and ReLU, a
        # copied transpose, a composed attention or a per-image loss brings
        # the count back up
        cfg = readme_toy_config(tmp_path)
        batch = trainer.assemble_batch(load_entries(shard_dir), cfg, 0)
        assert batch.size == 8 and all(len(t.labels) for t in batch.target_sets)
        recorded = []
        record = tensor.Tape.record
        monkeypatch.setattr(tensor.Tape, "record",
                            lambda tape, *a: recorded.append(a) or record(tape, *a))
        trainer.train_step(MaskClassificationModel(cfg.model), batch, cfg)
        assert len(recorded) == 93

    def test_checkpoint_cadence(self, shard_dir, tmp_path):
        cfg = toy_run_config(steps=4, checkpoint_every=2)
        train(cfg, shard_dir, tmp_path / "ck")
        assert (tmp_path / "ck" / "ckpt-000002.ckpt").exists()
        assert (tmp_path / "ck" / "ckpt-000004.ckpt").exists()


class TestClipGradients:
    def test_scales_each_grad_in_place(self):
        rng = np.random.default_rng(0)
        params = {name: tensor.Tensor(rng.standard_normal(shape), requires_grad=True,
                                      dtype=np.float32)
                  for name, shape in (("a", (3, 4)), ("b", (5,)))}
        for p in params.values():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        grads = {name: p.grad for name, p in params.items()}
        before = {name: g.copy() for name, g in grads.items()}
        norm = trainer.clip_gradients(params, 0.5)
        scale = 0.5 / norm
        assert norm > 0.5
        for name, p in params.items():
            assert p.grad is grads[name]
            assert np.array_equal(p.grad, before[name] * scale)


class TestAdam:
    def test_three_steps_match_the_textbook_update(self):
        rng = np.random.default_rng(0)
        shapes = {"w": (3, 4), "b": (5,)}
        params = {name: tensor.Tensor(rng.standard_normal(shape).astype(np.float32),
                                      requires_grad=True)
                  for name, shape in shapes.items()}
        params["frozen"] = tensor.Tensor(rng.standard_normal(2).astype(np.float32),
                                         requires_grad=True)
        frozen = params["frozen"].data.copy()
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        optimizer = trainer.Adam(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        ref = {name: params[name].data.astype(np.float64) for name in shapes}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in (1, 2, 3):
            for name, shape in shapes.items():
                g = rng.standard_normal(shape).astype(np.float32)
                params[name].grad = g
                m[name] = beta1 * m[name] + (1 - beta1) * g
                v[name] = beta2 * v[name] + (1 - beta2) * np.square(g, dtype=np.float64)
                m_hat, v_hat = m[name] / (1 - beta1 ** t), v[name] / (1 - beta2 ** t)
                ref[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            optimizer.step()
        for name in shapes:
            assert params[name].data.dtype == np.float32
            np.testing.assert_allclose(params[name].data, ref[name], rtol=1e-6, atol=1e-7)
        assert params["frozen"].grad is None
        assert params["frozen"].data.tobytes() == frozen.tobytes()


class TestEvaluate:
    def test_eval_writes_reports(self, shard_dir, tmp_path):
        cfg = toy_run_config(steps=2)
        result = train(cfg, shard_dir, tmp_path / "run")
        pq = evaluate(cfg, shard_dir, result.checkpoint_path, tmp_path / "eval")
        assert 0.0 <= pq.pq <= 1.0
        assert (tmp_path / "eval" / "eval_report.txt").exists()
        assert (tmp_path / "eval" / "eval_report.csv").exists()

    def test_failed_csv_write_keeps_old_reports(self, shard_dir, tmp_path, monkeypatch):
        cfg = toy_run_config()
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(MaskClassificationModel(cfg.model), ckpt)
        out = tmp_path / "eval"
        out.mkdir()
        for name in ("eval_report.txt", "eval_report.csv"):
            (out / name).write_text("old\n")
        real_writer = csv.writer

        def failing_writer(f):
            writer = real_writer(f)
            rows = []

            def writerow(row):
                if rows:
                    raise OSError("disk full")
                rows.append(row)
                return writer.writerow(row)

            return SimpleNamespace(writerow=writerow)

        monkeypatch.setattr(trainer.csv, "writer", failing_writer)
        with pytest.raises(OSError, match="disk full"):
            evaluate(cfg, shard_dir, ckpt, out)
        assert sorted(p.name for p in out.iterdir()) == ["eval_report.csv", "eval_report.txt"]
        for name in ("eval_report.txt", "eval_report.csv"):
            assert (out / name).read_text() == "old\n"


class TestProfile:
    def test_stage_times_partition_total(self, shard_dir):
        # profile's total is the wall time of run_steps, as timed here
        cfg = toy_run_config()
        model = MaskClassificationModel(cfg.model)
        optimizer = trainer.make_optimizer(cfg, model)
        entries = load_entries(shard_dir)      # as in profile: loaded before the clock starts
        t0 = time.perf_counter()
        results = run_steps(model, optimizer, entries, cfg, 3)
        total = time.perf_counter() - t0
        assert all(set(r.seconds) == set(STAGES) for r in results)
        total_from_stages = sum(r.seconds[s] for r in results for s in STAGES)
        assert abs(total_from_stages - total) <= 0.05 * total
        assert len(results) * cfg.trainer.batch_size == 6

    def test_zero_steps_empty_report(self, shard_dir):
        assert profile(toy_run_config(), shard_dir, steps=0) == "no steps profiled\n"
