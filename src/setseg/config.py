"""Nested run configuration: plain-text key-value file plus CLI overrides.

File lines look like ``trainer.learning_rate = 3e-4``; ``#`` starts a
comment. Values are coerced by the type of the dataclass default they
replace. Command-line overrides always win over file values. A choice
that only ever takes one value is a constant in the code, not a key.
"""

from __future__ import annotations

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


def _coerce(current, raw: str):
    """Parse ``raw`` as the type of ``current``: int, float, or a tuple of one of them."""
    if isinstance(current, tuple):
        elem_type = type(current[0]) if current else float
        return tuple(elem_type(p) for p in raw.replace(",", " ").split())
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
    """Build a RunConfig: defaults, then the file, then CLI overrides."""
    cfg = RunConfig()
    if path is not None:
        text = Path(path).read_text()
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
