import os
import subprocess
import sys
from pathlib import Path

import pytest

import setseg
from setseg import synth, trainer
from setseg.cli import main
from setseg.matcher import NanCostError


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
        for stage in ("wait", "forward", "match", "loss", "backward", "clip", "update"):
            assert f"\n  {stage} " in out
        assert "dropped instances" in out and "degenerate-dice pairs" in out

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
    ])
    def test_config_error_is_a_usage_error(self, tmp_path, capsys, args, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trainer.steps = 5\ntrainer.learning_rate = fast\n")
        args = [str(cfg) if a == "FILE" else a for a in args]
        assert main(["model", "info", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("setseg: error: ") and named in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

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
