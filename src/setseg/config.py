"""Nested run configuration: plain-text key-value file plus CLI overrides.

File lines look like ``trainer.learning_rate = 3e-4``; ``#`` starts a
comment. Values are coerced by the type of the dataclass default they
replace. Command-line overrides always win over file values. A choice
that only ever takes one value is a constant in the code, not a key, nor is
one that mirrors another key: ``model.num_classes`` is the one class count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .evaluator import EvalConfig
from .losses import LossConfig
from .model import ModelConfig
from .pipeline import ParserConfig


class ConfigFileError(ValueError):
    pass


@dataclass
class TrainerConfig:
    learning_rate: float = 1e-4       # Adam step size and moment decays
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 8
    steps: int = 300
    grad_clip_norm: float = 0.1
    checkpoint_every: int = 100


@dataclass
class RunConfig:
    parser: ParserConfig = field(default_factory=ParserConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    losses: LossConfig = field(default_factory=LossConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    evaluator: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0


_AT_LEAST_0 = (">= 0", lambda v: v >= 0)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_STRIDE_32 = ("a positive multiple of 32, the model's stride", lambda v: v >= 32 and v % 32 == 0)
_PROBABILITY = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_DECAY = ("in [0, 1)", lambda v: 0.0 <= v < 1.0)
_FINITE_AT_LEAST_0 = ("finite and >= 0", lambda v: 0.0 <= v < math.inf)
_FINITE_ABOVE_0 = ("finite and > 0", lambda v: 0.0 < v < math.inf)

# Every leaf key's domain: the phrase of "<key> must be <phrase>" and a test of
# the value alone. Comparisons are false for NaN, so each float bound rejects it.
DOMAINS = {
    "parser.target_size": _STRIDE_32,
    "parser.crop_probability": _PROBABILITY,
    "parser.crop_sizes": ("values >= 1", lambda v: min(v) >= 1),
    "parser.mean": ("3 finite values", lambda v: len(v) == 3 and all(map(math.isfinite, v))),
    "parser.std": ("3 finite values > 0",
                   lambda v: len(v) == 3 and all(0.0 < x < math.inf for x in v)),
    "model.input_size": _STRIDE_32,
    "model.n_queries": _AT_LEAST_1,
    # the sine position embedding gives half the channels to each axis
    "model.hidden_size": ("even and >= 2", lambda v: v >= 2 and v % 2 == 0),
    "model.backbone_channels": _AT_LEAST_1,
    "model.num_encoder_layers": _AT_LEAST_0,
    "model.num_decoder_layers": _AT_LEAST_0,
    "model.num_heads": (">= 1 and divide model.hidden_size", lambda v: v >= 1),
    "model.num_classes": _AT_LEAST_1,
    "model.seed": _AT_LEAST_0,
    # a negative weight makes the matcher maximise its cost
    "losses.class_weight": _FINITE_AT_LEAST_0,
    "losses.focal_weight": _FINITE_AT_LEAST_0,
    "losses.dice_weight": _FINITE_AT_LEAST_0,
    # the dice ratio divides by dice_eps, the class term by a sum of no_object_weight
    "losses.dice_eps": _FINITE_ABOVE_0,
    "losses.focal_alpha": _PROBABILITY,
    "losses.focal_gamma": _FINITE_AT_LEAST_0,
    "losses.no_object_weight": _FINITE_ABOVE_0,
    "trainer.learning_rate": _FINITE_ABOVE_0,
    "trainer.beta1": _DECAY,
    "trainer.beta2": _DECAY,
    "trainer.batch_size": _AT_LEAST_1,
    "trainer.steps": _AT_LEAST_0,
    "trainer.grad_clip_norm": _FINITE_AT_LEAST_0,    # 0 turns clipping off
    "trainer.checkpoint_every": _AT_LEAST_0,         # 0 turns checkpoints off
    "evaluator.confidence_threshold": _PROBABILITY,
    "evaluator.mask_threshold": _PROBABILITY,
    "seed": ("an integer", lambda v: True),   # each visit's seed takes it modulo 2**63
}


def _coerce(current, raw: str):
    """Parse ``raw`` as the type of ``current``: int, float, or a tuple of one of them."""
    if isinstance(current, tuple):
        elem_type = type(current[0]) if current else float
        values = tuple(elem_type(p) for p in raw.replace(",", " ").split())
        if not values:
            raise ValueError("empty tuple")
        return values
    return type(current)(raw)


def set_value(cfg: RunConfig, dotted_key: str, raw: str) -> None:
    parts = dotted_key.split(".")
    obj = cfg
    for name in parts[:-1]:
        if not hasattr(obj, name) or not is_dataclass(getattr(obj, name)):
            raise ConfigFileError(f"unknown config section {dotted_key!r}")
        obj = getattr(obj, name)
    leaf = parts[-1]
    if not hasattr(obj, leaf):
        raise ConfigFileError(f"unknown config key {dotted_key!r}")
    try:
        value = _coerce(getattr(obj, leaf), raw)
    except ValueError:
        raise ConfigFileError(f"bad value {raw.strip()!r} for config key {dotted_key!r}") from None
    setattr(obj, leaf, value)


def get_value(cfg: RunConfig, dotted_key: str):
    obj = cfg
    for name in dotted_key.split("."):
        obj = getattr(obj, name)
    return obj


def load_config(path=None, overrides=None) -> RunConfig:
    """Build a RunConfig: defaults, then the file, then CLI overrides.

    Each value must lie in its key's ``DOMAINS`` entry; one rule spans keys.
    """
    cfg = RunConfig()
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise ConfigFileError(f"{path}: cannot read config file: {err.strerror}") from None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigFileError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            try:
                set_value(cfg, key.strip(), value)
            except ConfigFileError as err:
                raise ConfigFileError(f"{path}:{lineno}: {err}") from None
    for item in overrides or []:
        if "=" not in item:
            raise ConfigFileError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        set_value(cfg, key.strip(), value)
    for key in leaf_keys(cfg):
        phrase, test = DOMAINS[key]
        value = get_value(cfg, key)
        if not test(value):
            raise ConfigFileError(f"{key} must be {phrase}, got {value}")
    model = cfg.model
    if model.hidden_size % model.num_heads:
        raise ConfigFileError(f"model.num_heads must divide model.hidden_size = "
                              f"{model.hidden_size}, got {model.num_heads}")
    return cfg


def dump_config(cfg: RunConfig) -> str:
    """Every leaf key as a ``key = value`` line that ``load_config`` reads back."""
    lines = []
    for key in leaf_keys(cfg):
        value = get_value(cfg, key)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def leaf_keys(cfg: RunConfig) -> list[str]:
    out = []

    def walk(obj, prefix):
        for f in fields(obj):
            value = getattr(obj, f.name)
            key = f"{prefix}.{f.name}" if prefix else f.name
            if is_dataclass(value):
                walk(value, key)
            else:
                out.append(key)

    walk(cfg, "")
    return out
