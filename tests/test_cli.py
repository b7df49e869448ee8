import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import setseg
from setseg import synth, trainer, verify
from setseg.cli import main
from setseg.config import RunConfig, get_value, leaf_keys, load_config
from setseg.matcher import NanCostError
from setseg.model import MaskClassificationModel, save_checkpoint


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    raw = tmp / "raw"
    shards = tmp / "shards"
    assert main(["synth", "--n", "8", "--out", str(raw), "--seed", "4",
                 "--min-size", "40", "--max-size", "72"]) == 0
    assert main(["ingest", "--annotations", str(raw / "annotations.jsonl"),
                 "--shards", "2", "--out", str(shards)]) == 0
    return tmp


TOY_OVERRIDES = [
    "--set", "parser.target_size=64",
    "--set", "parser.crop_sizes=24,32",
    "--set", "model.input_size=64",
    "--set", "model.n_queries=8",
    "--set", "model.hidden_size=32",
    "--set", "model.backbone_channels=32",
    "--set", "model.num_encoder_layers=1",
    "--set", "model.num_decoder_layers=1",
    "--set", "model.num_heads=4",
]


class TestSubcommands:
    def test_train_then_eval(self, dataset):
        run = dataset / "run"
        code = main(["train", "--data", str(dataset / "shards"), "--out", str(run),
                     "--set", "trainer.steps=2", "--set", "trainer.batch_size=2",
                     *TOY_OVERRIDES])
        assert code == 0
        assert (run / "loss.csv").exists()
        code = main(["eval", "--data", str(dataset / "shards"),
                     "--checkpoint", str(run / "final.ckpt"),
                     "--out", str(dataset / "eval"), *TOY_OVERRIDES])
        assert code == 0

    @pytest.mark.parametrize("damage", ["truncate", "mismatch"])
    def test_eval_bad_checkpoint_named(self, dataset, capsys, damage):
        run = dataset / f"bad-{damage}"
        assert main(["train", "--data", str(dataset / "shards"), "--out", str(run),
                     "--set", "trainer.steps=1", "--set", "trainer.batch_size=2",
                     *TOY_OVERRIDES]) == 0
        ckpt = run / "final.ckpt"
        overrides = list(TOY_OVERRIDES)
        if damage == "truncate":
            ckpt.write_bytes(ckpt.read_bytes()[:-100])
        else:
            overrides += ["--set", "model.n_queries=4"]
        capsys.readouterr()
        code = main(["eval", "--data", str(dataset / "shards"), "--checkpoint", str(ckpt),
                     "--out", str(run / "eval"), *overrides])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("eval aborted: ") and "final.ckpt" in err
        assert len(err.splitlines()) == 1

    def test_verify_passes_on_pristine_build(self, dataset, capsys):
        assert main(["verify", *TOY_OVERRIDES]) == 0
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out

    def test_verify_fails_on_mutation(self, dataset, capsys):
        assert main(["verify", *TOY_OVERRIDES, "--set", "losses.dice_eps=10.0"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] loss unit fixtures" in out

    def test_profile(self, dataset, capsys):
        code = main(["profile", "--data", str(dataset / "shards"), "--steps", "2",
                     "--set", "trainer.batch_size=2", *TOY_OVERRIDES])
        assert code == 0
        out = capsys.readouterr().out
        assert "records/sec" in out
        for stage in ("parse", "forward", "match", "loss", "backward", "clip", "update"):
            assert f"\n  {stage} " in out
        assert "dropped instances" in out and "degenerate-dice pairs" in out
        assert "empty targets" in out
        assert re.fullmatch(r"peak RSS [1-9]\d* MB", out.splitlines()[-1])

    def test_profile_abort_exit_code(self, dataset, capsys, monkeypatch):
        def failing_step(model, batch_data, cfg):
            raise NanCostError("non-finite cost")

        monkeypatch.setattr(trainer, "train_step", failing_step)
        code = main(["profile", "--data", str(dataset / "shards"), "--steps", "2",
                     *TOY_OVERRIDES])
        assert code == 1
        assert "aborted" in capsys.readouterr().err

    def test_profile_zero_steps(self, dataset, capsys):
        code = main(["profile", "--data", str(dataset / "shards"), "--steps", "0",
                     *TOY_OVERRIDES])
        assert code == 0
        assert "no steps profiled" in capsys.readouterr().out

    def test_profile_negative_steps_is_a_usage_error(self, dataset, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--data", str(dataset / "shards"), "--steps", "-1",
                  *TOY_OVERRIDES])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --steps: " in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_non_finite_loss_weight_is_a_usage_error(self, dataset, capsys):
        assert main(["profile", "--data", str(dataset / "shards"), "--steps", "1",
                     *TOY_OVERRIDES, "--set", "losses.focal_weight=inf"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("setseg: error: losses.focal_weight ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("override", [
        "trainer.grad_clip_norm=nan", "trainer.grad_clip_norm=inf",
        "trainer.grad_clip_norm=-inf", "trainer.grad_clip_norm=-0.5",
        "trainer.learning_rate=0", "trainer.learning_rate=nan", "trainer.learning_rate=inf",
        "trainer.beta1=1", "trainer.beta1=-0.1", "trainer.beta2=1.0", "trainer.beta2=nan",
        "trainer.steps=-1",
    ])
    def test_out_of_domain_trainer_value_is_a_usage_error(self, dataset, tmp_path, capsys,
                                                          override):
        assert main(["train", "--data", str(dataset / "shards"), "--out", str(tmp_path / "run"),
                     *TOY_OVERRIDES, "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"setseg: error: {override.split('=')[0]} must be ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, override", [
        ("profile", "parser.crop_probability=nan"),
        ("profile", "parser.crop_probability=-1"),
        ("profile", "parser.crop_probability=inf"),
        ("eval", "parser.std=0,0,0"),
        ("eval", "evaluator.confidence_threshold=nan"),
        ("eval", "evaluator.mask_threshold=inf"),
        ("train", "trainer.checkpoint_every=-1"),
        ("profile", "trainer.batch_size=0"),
        ("profile", "model.num_classes=0"),
    ])
    def test_out_of_domain_value_is_a_usage_error(self, dataset, tmp_path, capsys, command,
                                                 override):
        args = {"train": ["--out", str(tmp_path / "run")],
                "eval": ["--checkpoint", str(tmp_path / "final.ckpt"),
                         "--out", str(tmp_path / "run")],
                "profile": ["--steps", "1"]}[command]
        assert main([command, "--data", str(dataset / "shards"), *args, *TOY_OVERRIDES,
                     "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"setseg: error: {override.split('=')[0]} must be ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_model_info(self, capsys):
        assert main(["model", "info", *TOY_OVERRIDES]) == 0
        out = capsys.readouterr().out
        assert out.startswith("parameters: ")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])        # missing required --data/--out
        assert exc.value.code == 2

    @pytest.mark.parametrize("args, named", [
        (["--set", "trainer.steps=abc"], "'abc'"),
        (["--set", "trainer.bogus=1"], "trainer.bogus"),
        (["--config", "FILE"], "bad.cfg:2"),
        (["--set", "parser.num_classes=4"], "unknown config key 'parser.num_classes'"),
    ])
    def test_config_error_is_a_usage_error(self, tmp_path, capsys, args, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trainer.steps = 5\ntrainer.learning_rate = fast\n")
        args = [str(cfg) if a == "FILE" else a for a in args]
        assert main(["model", "info", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("setseg: error: ") and named in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_out_of_domain_focal_alpha_is_a_usage_error(self, capsys):
        assert main(["verify", "--set", "losses.focal_alpha=2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("setseg: error: ") and "losses.focal_alpha" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", [["model", "info"], ["verify"]])
    @pytest.mark.parametrize("setting, named", [
        ("model.seed=-1", "model.seed"),
        ("model.input_size=65", "model.input_size"),
        ("model.num_heads=3", "model.hidden_size"),
        ("model.num_heads=0", "model.hidden_size"),
        ("model.n_queries=0", "model.n_queries"),
        ("parser.target_size=48", "parser.target_size"),
    ])
    def test_bad_model_or_input_geometry_is_a_usage_error(self, capsys, command, setting,
                                                          named):
        assert main([*command, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith("setseg: error: ") and named in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_non_positive_crop_size_is_a_usage_error(self, dataset, capsys, size):
        assert main(["profile", "--data", str(dataset / "shards"), "--steps", "1",
                     *TOY_OVERRIDES, "--set", f"parser.crop_sizes={size}",
                     "--set", "parser.crop_probability=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("setseg: error: ") and "parser.crop_sizes" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_missing_config_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["model", "info", "--config", str(tmp_path / "nope.cfg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("setseg: error: ") and "nope.cfg" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, aborted", [
        (["train", "--out", "OUT"], "training aborted: "),
        (["profile"], "profiling aborted: "),
    ], ids=["train", "profile"])
    @pytest.mark.parametrize("damage", ["missing", "corrupt_manifest", "empty_manifest"])
    def test_bad_data_aborts(self, tmp_path, capsys, command, aborted, damage):
        data = tmp_path / "shards"
        if damage != "missing":
            data.mkdir()
            text = "record_count = many\n" if damage == "corrupt_manifest" else ""
            (data / "manifest.txt").write_text(text)
        args = [str(tmp_path / "run") if a == "OUT" else a for a in command]
        assert main([*args, "--data", str(data), *TOY_OVERRIDES]) == 1
        err = capsys.readouterr().err
        assert err.startswith(aborted) and "manifest" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, aborted", [
        (["train", "--out", "OUT"], "training aborted: "),
        (["eval", "--checkpoint", "OUT/final.ckpt", "--out", "OUT"], "eval aborted: "),
        (["profile"], "profiling aborted: "),
    ], ids=["train", "eval", "profile"])
    def test_manifest_that_lost_shard_lines_aborts(self, dataset, tmp_path, capsys, command,
                                                   aborted):
        data = tmp_path / "shards"
        shutil.copytree(dataset / "shards", data)
        manifest = data / "manifest.txt"
        lines = manifest.read_text().splitlines()
        assert lines[-1].startswith("shard ") and lines[-2].startswith("shard ")
        manifest.write_text("\n".join(lines[:-1]) + "\n")    # drop the last shard line
        args = [a.replace("OUT", str(tmp_path / "run")) for a in command]
        assert main([*args, "--data", str(data), *TOY_OVERRIDES]) == 1
        err = capsys.readouterr().err
        assert err.startswith(aborted) and f"{manifest}: record_count 8" in err
        assert "but its shards hold" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("args, named", [
        (["--n", "0"], "--n"),
        (["--n", "2", "--min-size", "2"], "--min-size"),
        (["--n", "2", "--min-size", "4"], "--min-size"),
        (["--n", "2", "--min-size", "90", "--max-size", "40"], "--min-size"),
        (["--n", "2", "--seed", "-1"], "--seed"),
    ], ids=["n_0", "min_2", "min_4", "min_above_max", "seed_negative"])
    def test_synth_bad_arguments_are_usage_errors(self, tmp_path, capsys, args, named):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "raw"), *args])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument " + named + ": " in err.splitlines()[-1]
        assert "Traceback" not in err
        assert not (tmp_path / "raw").exists()

    def test_synth_smallest_size(self, tmp_path):
        assert main(["synth", "--n", "2", "--out", str(tmp_path), "--min-size", "6",
                     "--max-size", "6"]) == 0
        assert all(json.loads(line)["height"] == 6
                   for line in (tmp_path / "annotations.jsonl").read_text().splitlines())

    @pytest.mark.parametrize("existed", [False, True], ids=["new_out", "existing_out"])
    def test_aborted_ingest_leaves_out_as_it_was(self, dataset, tmp_path, capsys, existed):
        out = tmp_path / "shards"
        if existed:
            out.mkdir()
        assert main(["ingest", "--annotations", str(dataset / "raw" / "annotations.jsonl"),
                     "--shards", "2", "--out", str(out), "--classes", "7,21"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ingest aborted: ") and "unknown class ID 90" in err
        assert out.exists() == existed
        assert not existed or list(out.iterdir()) == []

    @pytest.mark.parametrize("shards", ["0", "-3", "two"])
    def test_ingest_bad_shard_count_is_a_usage_error(self, dataset, tmp_path, capsys,
                                                     shards):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--annotations", str(dataset / "raw" / "annotations.jsonl"),
                  "--shards", shards, "--out", str(tmp_path / "shards")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("setseg ingest: error: argument --shards: ")
        assert "Traceback" not in err
        assert not (tmp_path / "shards").exists()

    @pytest.mark.parametrize("classes", ["a,b", "7,x", "", ",", "0,7,21,33,90",
                                         "7,7,21,33,90"])
    def test_ingest_bad_classes_is_a_usage_error(self, dataset, tmp_path, capsys, classes):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--annotations", str(dataset / "raw" / "annotations.jsonl"),
                  "--shards", "2", "--out", str(tmp_path / "shards"), "--classes", classes])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("setseg ingest: error: argument --classes: ")
        assert "Traceback" not in err
        assert not (tmp_path / "shards").exists()

    @pytest.mark.parametrize("damage", ["missing", "empty", "not_json", "no_height",
                                        "no_width", "no_image_file", "short_image"])
    def test_ingest_bad_annotations_aborts(self, tmp_path, capsys, damage):
        ann = tmp_path / "nope.jsonl"
        where = "nope.jsonl"
        if damage == "empty":
            ann.write_text("")
        elif damage != "missing":
            # a good record, a blank line, then the damaged record on line 3
            good = synth.synth(2, tmp_path, seed=0, min_size=16, max_size=24)
            first, second = (json.loads(t) for t in good.read_text().splitlines())
            if damage == "short_image":
                (tmp_path / second["image_file"]).write_bytes(bytes(5))
            elif damage != "not_json":
                del second[damage.removeprefix("no_")]
            last = '{"image_id": 1' if damage == "not_json" else json.dumps(second)
            ann.write_text(f"{json.dumps(first)}\n\n{last}\n")
            where = f"{ann}:3: "
        assert main(["ingest", "--annotations", str(ann), "--shards", "2",
                     "--out", str(tmp_path / "shards")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ingest aborted: ") and where in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, aborted", [
        (["train", "--out", "OUT"], "training aborted: matching failed at step 0 "),
        (["profile"], "profiling aborted: matching failed at step 0 "),
        (["eval", "--checkpoint", "CKPT", "--out", "OUT"], "eval aborted: image "),
    ], ids=["train", "profile", "eval"])
    def test_unknown_class_aborts(self, dataset, tmp_path, capsys, command, aborted):
        # a 3-class head meets the shards' class 4
        overrides = [*TOY_OVERRIDES, "--set", "model.num_classes=3"]
        ckpt = tmp_path / "three.ckpt"
        save_checkpoint(MaskClassificationModel(load_config(None, overrides[1::2]).model), ckpt)
        run = tmp_path / "run"
        args = [{"OUT": str(run), "CKPT": str(ckpt)}.get(a, a) for a in command]
        assert main([*args, "--data", str(dataset / "shards"), *overrides]) == 1
        err = capsys.readouterr().err
        assert err.startswith(aborted) and "target label 4 outside 1..K with K = 3" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        if command[0] == "train":
            assert "(batch images [" in err
            assert (run / "nan_batch.txt").read_text().startswith("step 0\n")

    def test_more_targets_than_queries_aborts(self, dataset, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset / "shards"), "--out", str(run),
                     *TOY_OVERRIDES, "--set", "model.n_queries=1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("training aborted: matching failed at step 0 (batch images ")
        assert "targets exceed 1 queries" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert (run / "nan_batch.txt").read_text().startswith("step 0\n")

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_train_abort_exit_code(self, dataset, capsys):
        code = main(["train", "--data", str(dataset / "shards"),
                     "--out", str(dataset / "abort"),
                     "--set", "trainer.steps=30",
                     "--set", "trainer.batch_size=2",
                     "--set", "trainer.learning_rate=1e18",
                     "--set", "trainer.grad_clip_norm=0",
                     *TOY_OVERRIDES])
        assert code == 1
        assert "aborted" in capsys.readouterr().err

    def test_ingest_into_closed_pipe(self, tmp_path):
        # as in ``setseg ingest ... | head -1``: the class-mapping line is far
        # larger than a pipe buffer, so ingest is still writing when the
        # reader closes the pipe after the first line
        ann = synth.synth(3, tmp_path / "raw", seed=4, min_size=40, max_size=48)
        classes = ",".join(str(i) for i in range(1, 15001))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(setseg.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
        proc = subprocess.Popen(
            [sys.executable, "-m", "setseg", "ingest", "--annotations", str(ann),
             "--shards", "2", "--out", str(tmp_path / "shards"), "--classes", classes],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"3 records")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert (tmp_path / "shards" / "manifest.txt").exists()


# every key's edge values on top of the toy model at batch 2, so a value
# that load_config accepts profiles one cheap step
FUZZ_BASE = [*TOY_OVERRIDES, "--set", "trainer.batch_size=2"]
# verify's only checks that read the parser or model keys; the rest (the
# gradient and matcher suites among them) never see them and take most of a run
KEYED_CHECKS = (verify.check_input_shapes, verify.check_layer_shapes)


def _edge_values(value):
    """0 and -1; for floats also nan and ±inf; for tuples also one and four values."""
    scalar = value[0] if isinstance(value, tuple) else value
    edges = ["0", "-1"] + (["nan", "inf", "-inf"] if isinstance(scalar, float) else [])
    if isinstance(value, tuple):
        edges = [",".join([e] * len(value)) for e in edges]
        edges += [str(scalar), ",".join([str(scalar)] * 4)]
    return edges


class TestConfigFuzz:
    @pytest.mark.parametrize("key", leaf_keys(RunConfig()))
    def test_edge_values_never_end_in_a_traceback(self, dataset, capsys, monkeypatch, key):
        # an exception escaping main is the traceback the CLI would print
        monkeypatch.setattr(verify, "CHECKS", KEYED_CHECKS)
        base = load_config(None, FUZZ_BASE[1::2])
        commands = [["profile", "--data", str(dataset / "shards"), "--steps", "1"]]
        if key.split(".")[0] in ("parser", "model"):
            commands.append(["verify"])
        for raw in _edge_values(get_value(base, key)):
            for command in commands:
                code = main([*command, *FUZZ_BASE, "--set", f"{key}={raw}"])
                err = capsys.readouterr().err
                what = f"{command[0]} {key}={raw}: exit {code}, {err!r}"
                if "nan" in raw or "inf" in raw:
                    assert code == 2, what     # no key takes a non-finite value
                if code == 2:
                    assert err.startswith(f"setseg: error: {key} "), what
                    assert len(err.splitlines()) == 1, what
                else:
                    assert code == 0 and err == "", what
