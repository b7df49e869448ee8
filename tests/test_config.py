import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from setseg import config as cfg_mod
from setseg.config import (
    RunConfig, dump_config, get_value, leaf_keys, load_config, set_value,
)


class TestParsing:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.parser.target_size == 640
        assert cfg.model.n_queries == 100
        assert cfg.losses.no_object_weight == 1e-4
        assert cfg.losses.focal_weight == 20.0
        assert cfg.trainer.learning_rate == 1e-4

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "parser.target_size = 64\n"
            "parser.crop_sizes = 32,48\n"
            "trainer.beta1 = 0.8\n"
            "seed = 9\n"
        )
        cfg = load_config(path)
        assert cfg.parser.target_size == 64
        assert cfg.parser.crop_sizes == (32, 48)
        assert cfg.trainer.beta1 == 0.8
        assert cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("parser.bogus = 1\n")
        with pytest.raises(cfg_mod.ConfigFileError):
            load_config(path)

    @pytest.mark.parametrize("key", [
        "matcher.class_weight", "matcher.focal_weight", "matcher.dice_weight",
        "trainer.optimizer", "trainer.parse_workers", "trainer.queue_depth", "model.dtype",
    ])
    def test_removed_keys_rejected(self, key):
        with pytest.raises(cfg_mod.ConfigFileError):
            load_config(overrides=[f"{key}=1"])

    def test_readme_keys_exist(self):
        # every backticked ``section.key`` in the README names a real key, and
        # every key is named, so a new key without documentation fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        keys = leaf_keys(RunConfig())
        sections = {k.split(".")[0] for k in keys if "." in k}
        named = re.findall(r"`((?:%s)\.[^`]*)`" % "|".join(sections), readme)
        assert named
        assert sorted(set(named) - set(keys)) == []
        assert [k for k in keys if f"`{k}`" not in readme] == []

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no equals sign here\n")
        with pytest.raises(cfg_mod.ConfigFileError):
            load_config(path)

    def test_missing_file_named(self, tmp_path):
        path = tmp_path / "nope.cfg"
        with pytest.raises(cfg_mod.ConfigFileError, match="nope.cfg"):
            load_config(path)

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trainer.steps = 100\n")
        cfg = load_config(path, overrides=["trainer.steps=7"])
        assert cfg.trainer.steps == 7

    def test_dump_config_round_trip(self, tmp_path):
        cfg = load_config(overrides=["parser.crop_sizes=24,32", "losses.dice_eps=0.5"])
        path = tmp_path / "dumped.cfg"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg
        assert len(path.read_text().splitlines()) == len(leaf_keys(cfg)) == 31

    def test_model_num_classes_is_the_one_class_count(self):
        assert load_config(overrides=["model.num_classes=3"]).model.num_classes == 3
        with pytest.raises(cfg_mod.ConfigFileError,
                           match="unknown config key 'parser.num_classes'"):
            load_config(overrides=["parser.num_classes=4"])

    @pytest.mark.parametrize("override, named", [
        ("losses.focal_alpha=2", "losses.focal_alpha"),
        ("losses.focal_gamma=-1", "losses.focal_gamma"),
        ("losses.focal_weight=inf", "losses.focal_weight"),
        ("losses.class_weight=-1", "losses.class_weight"),
        ("losses.dice_weight=nan", "losses.dice_weight"),
        ("losses.dice_eps=0", "losses.dice_eps"),
        ("losses.no_object_weight=-inf", "losses.no_object_weight"),
        ("parser.crop_sizes=", "parser.crop_sizes"),
        ("model.num_encoder_layers=-1", "model.num_encoder_layers"),
        ("model.num_decoder_layers=-1", "model.num_decoder_layers"),
        ("model.input_size=100", "model.input_size"),
        (("model.hidden_size=30", "model.num_heads=4"), "model.hidden_size"),
        # odd, so the position embedding cannot halve it
        (("model.hidden_size=3", "model.num_heads=3"), "model.hidden_size"),
        ("parser.crop_probability=nan", "parser.crop_probability"),
        ("parser.crop_probability=-1", "parser.crop_probability"),
        ("parser.crop_probability=inf", "parser.crop_probability"),
        ("parser.mean=1,2", "parser.mean"),
        ("parser.std=0,0,0", "parser.std"),
        ("model.num_classes=0", "model.num_classes"),
        ("evaluator.confidence_threshold=nan", "evaluator.confidence_threshold"),
        ("evaluator.mask_threshold=inf", "evaluator.mask_threshold"),
        ("trainer.checkpoint_every=-1", "trainer.checkpoint_every"),
        ("trainer.batch_size=0", "trainer.batch_size"),
    ])
    def test_out_of_domain_value_rejected(self, override, named):
        overrides = [override] if isinstance(override, str) else list(override)
        with pytest.raises(cfg_mod.ConfigFileError) as err:
            load_config(overrides=overrides)
        assert named in str(err.value)

    def test_every_key_has_one_domain(self):
        assert set(cfg_mod.DOMAINS) == set(leaf_keys(RunConfig()))
        assert len(leaf_keys(RunConfig())) == 31

    def test_float_tuple_coercion(self):
        cfg = RunConfig()
        set_value(cfg, "parser.mean", "0.5, 0.5, 0.5")
        assert cfg.parser.mean == (0.5, 0.5, 0.5)


NUMERIC_KEYS = [
    k for k in leaf_keys(RunConfig())
    if isinstance(get_value(RunConfig(), k), (int, float))
    and not isinstance(get_value(RunConfig(), k), bool)
]


class TestPrecedenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_file_lt_command_line(self, data, tmp_path_factory):
        keys = data.draw(st.lists(st.sampled_from(NUMERIC_KEYS), min_size=1,
                                  max_size=6, unique=True))
        split = data.draw(st.integers(min_value=0, max_value=len(keys)))
        file_keys, cli_keys = keys[:split], keys
        tmp = tmp_path_factory.mktemp("cfg")
        lines = []
        file_values = {}
        for i, k in enumerate(file_keys):
            v = _typed_value(k, 100 + i)
            file_values[k] = v
            lines.append(f"{k} = {v}")
        (tmp / "run.cfg").write_text("\n".join(lines) + "\n")
        overrides = []
        cli_values = {}
        for i, k in enumerate(cli_keys):
            v = _typed_value(k, 200 + i)
            cli_values[k] = v
            overrides.append(f"{k}={v}")
        expected = {k: cli_values.get(k, file_values.get(k)) for k in keys}
        cfg = load_config(tmp / "run.cfg", overrides)
        for k in keys:
            assert get_value(cfg, k) == expected[k]


def _typed_value(key, n):
    if key in ("losses.focal_alpha", "trainer.beta1", "trainer.beta2", "parser.crop_probability",
               "evaluator.confidence_threshold", "evaluator.mask_threshold"):
        # distinct values inside the probabilities' domain [0, 1] and Adam's decays' [0, 1)
        return n / 1000
    if key in ("model.input_size", "model.hidden_size", "parser.target_size"):
        # multiples of the model's stride 32 and of every head count drawn below
        return 32 * n
    if key == "model.num_heads":
        # file 2, command line 4: both divide every hidden size, drawn or default
        return 2 ** (n // 100)
    current = get_value(RunConfig(), key)
    return n if isinstance(current, int) else float(n) + 0.5
