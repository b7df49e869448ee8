"""Nested run configuration: plain-text key-value file plus CLI overrides.

File lines look like ``trainer.learning_rate = 3e-4``; ``#`` starts a
comment. Values are coerced by the type of the dataclass default they
replace. Command-line overrides always win over file values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .evaluator import EvalConfig
from .losses import LossConfig
from .matcher import MatcherWeights
from .model import ModelConfig
from .pipeline import ParserConfig


class ConfigFileError(ValueError):
    pass


@dataclass
class TrainerConfig:
    optimizer: str = "adam"           # "adam" or "sgd"
    learning_rate: float = 1e-4
    momentum: float = 0.9
    beta2: float = 0.999
    batch_size: int = 8
    steps: int = 300
    grad_clip_norm: float = 0.1
    checkpoint_every: int = 100
    parse_workers: int = 1
    queue_depth: int = 4


@dataclass
class RunConfig:
    parser: ParserConfig = field(default_factory=ParserConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    losses: LossConfig = field(default_factory=LossConfig)
    matcher: MatcherWeights = field(default_factory=MatcherWeights)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    evaluator: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0


def _coerce(current, raw: str):
    raw = raw.strip()
    if isinstance(current, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigFileError(f"cannot parse boolean from {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        parts = [p for p in raw.replace(",", " ").split() if p]
        elem = current[0] if current else 0.0
        return tuple(type(elem)(p) if not isinstance(elem, float) else float(p) for p in parts)
    return raw


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
    setattr(obj, leaf, _coerce(getattr(obj, leaf), raw))


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
    lines = []

    def walk(obj, prefix):
        for f in fields(obj):
            value = getattr(obj, f.name)
            key = f"{prefix}.{f.name}" if prefix else f.name
            if is_dataclass(value):
                walk(value, key)
            elif isinstance(value, tuple):
                lines.append(f"{key} = {','.join(str(v) for v in value)}")
            else:
                lines.append(f"{key} = {value}")

    walk(cfg, "")
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
