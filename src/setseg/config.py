"""Nested run configuration: plain-text key-value file plus CLI overrides.

File lines look like ``trainer.learning_rate = 3e-4``; ``#`` starts a
comment. Values are coerced by the type of the dataclass default they
replace. Command-line overrides always win over file values. A choice
that only ever takes one value is a constant in the code, not a key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .evaluator import EvalConfig
from .losses import LossConfig, LossError
from .model import ModelConfig
from .pipeline import ParserConfig, PipelineError
from .tensor import ConfigError


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

    def validate(self):
        """Raise ConfigError, its message starting with the key, for a value outside its domain.

        Comparisons are false for NaN, so each bound below also rejects it.
        """
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        if not 0.0 <= self.grad_clip_norm < math.inf:
            # clip_gradients reads 0 as "off"; NaN, inf or a negative value would turn it off unsaid
            raise ConfigError(f"grad_clip_norm must be finite and >= 0, got {self.grad_clip_norm}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")


@dataclass
class RunConfig:
    parser: ParserConfig = field(default_factory=ParserConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    losses: LossConfig = field(default_factory=LossConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    evaluator: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0


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

    The losses, model, parser and trainer sections must pass their
    ``validate`` (finite loss values, each in its formula's domain, a model
    that builds, a square side that is a positive multiple of the model's
    stride 32, crop sizes of at least 1, a finite positive learning rate,
    Adam decays in [0, 1), a finite clip norm >= 0 and steps >= 0), and the
    parser may not emit more classes than the model's class head has.
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
    for section in ("losses", "model", "parser", "trainer"):
        try:
            getattr(cfg, section).validate()
        except (LossError, ConfigError, PipelineError) as err:
            raise ConfigFileError(f"{section}.{err}") from None   # the message starts with the key
    if cfg.parser.num_classes > cfg.model.num_classes:
        # a label above the class head would land in its no-object column
        raise ConfigFileError(f"parser.num_classes = {cfg.parser.num_classes} exceeds "
                              f"model.num_classes = {cfg.model.num_classes}")
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
