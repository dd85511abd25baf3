"""Run configuration: one JSON document wiring every pipeline stage together.

A RunConfig nests the per-module configs (universe, training, loss, encoder
specs, evaluation, output paths) and checks itself when built. Loading is
strict: unknown keys, ill-typed values and non-finite numbers raise
ConfigError naming the key or file, before any artifact is written.

Command-line overrides use dotted keys ("train.epochs=3"); values are parsed
as JSON where possible and fall back to plain strings. The digest of the
fully resolved config is stamped into every output artifact.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from json import JSONDecodeError
from pathlib import Path

from .core import check_fields, rule
from .errors import ConfigError, ConfigTypeError
from .formats import JSON_DECODER, canonical_json, read_text
from .losses import LossConfig
from .synthdata import UniverseConfig
from .training import EncoderSpec, TrainConfig

CONFIG_DIR_ENV = "FAIRKD_CONFIG_DIR"


@dataclass(frozen=True)
class EvalConfig:
    """Verification protocol size and cross-validation depth; each group's
    pairs must fill the k folds, so pairs_per_group >= k."""

    k: int = rule(int, 10, ge=2)
    pairs_per_group: int = rule(int, 60, ge=2, even=True)

    def __post_init__(self):
        check_fields(self)
        if self.pairs_per_group < self.k:
            raise ConfigError(f"pairs_per_group {self.pairs_per_group} cannot "
                              f"fill k={self.k} folds")


@dataclass(frozen=True)
class PathsConfig:
    """Output directories; commands create them on demand."""

    manifests: str = rule(str, "runs/manifests")
    checkpoints: str = rule(str, "runs/checkpoints")
    reports: str = rule(str, "runs/reports")

    __post_init__ = check_fields


@dataclass(frozen=True)
class RunConfig:
    universe: UniverseConfig = rule(UniverseConfig, UniverseConfig)
    train: TrainConfig = rule(TrainConfig, TrainConfig)
    loss: LossConfig = rule(LossConfig, LossConfig)
    teacher: EncoderSpec = rule(EncoderSpec, lambda: EncoderSpec(
        input_dim=16, hidden_widths=(64, 48), embedding_dim=12, init_seed=1))
    student: EncoderSpec = rule(EncoderSpec, lambda: EncoderSpec(
        input_dim=16, hidden_widths=(24,), embedding_dim=12, init_seed=2))
    eval: EvalConfig = rule(EvalConfig, EvalConfig)
    paths: PathsConfig = rule(PathsConfig, PathsConfig)
    seed: int = rule(int, 0, ge=0)

    def __post_init__(self):
        """Cross-field consistency; each field's own rule is beside it."""
        check_fields(self)
        feat = self.universe.feature_dim
        for label, spec in (("teacher", self.teacher), ("student", self.student)):
            if spec.input_dim != feat:
                raise ConfigError(f"{label}.input_dim is {spec.input_dim} but "
                                  f"universe.feature_dim is {feat}")
        if self.teacher.embedding_dim != self.student.embedding_dim:
            raise ConfigError(
                f"student.embedding_dim is {self.student.embedding_dim} but "
                f"teacher.embedding_dim is {self.teacher.embedding_dim}")


def config_digest(cfg: RunConfig) -> str:
    """Short stable digest of the fully resolved config."""
    payload = canonical_json(asdict(cfg)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]


def _build_section(cls, data, path: str, default):
    """cls from data; a key whose default is a dataclass is a nested section.
    A field that cls has no default for is taken from default (the matching
    part of RunConfig()), so {"teacher": {"init_seed": 3}} builds. Fields with
    a class default keep it, so every complete section digests unchanged.
    The record checks its own values; its errors are prefixed with path."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown config key {path}.{unknown[0]}")
    kwargs = {f.name: getattr(default, f.name) for f in fields(cls)
              if f.default is MISSING and f.default_factory is MISSING}
    for key, value in data.items():
        section = getattr(default, key)
        kwargs[key] = (_build_section(type(section), value, f"{path}.{key}", section)
                       if is_dataclass(section) else value)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        sep = "." if isinstance(exc, ConfigTypeError) else ": "
        raise ConfigError(f"{path}{sep}{exc}") from exc


def from_dict(data: dict) -> RunConfig:
    return _build_section(RunConfig, data, "config", RunConfig())


def _set_dotted(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through scalar key {part!r}")
    node[parts[-1]] = value


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply "dotted.key=value" strings onto a raw config document."""
    for item in overrides or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        try:
            value = JSON_DECODER.decode(raw)
        except JSONDecodeError:
            value = raw
        except ValueError as exc:   # a non-finite or oversized number
            raise ConfigError(f"override {key.strip()}: {exc}") from exc
        _set_dotted(doc, key.strip(), value)
    return doc


def resolve_config_path(name: str) -> Path:
    """Literal path, or a file under $FAIRKD_CONFIG_DIR as a fallback."""
    direct = Path(name)
    if direct.exists():
        return direct
    config_dir = os.environ.get(CONFIG_DIR_ENV)
    if config_dir:
        for candidate in (Path(config_dir) / name,
                          Path(config_dir) / f"{name}.json"):
            if candidate.exists():
                return candidate
    raise ConfigError(f"config file not found: {name}")


def load_config(source: str | None = None, overrides=()) -> RunConfig:
    """RunConfig from a JSON file (or defaults) plus dotted overrides."""
    if source is None:
        doc = {}
    else:
        path = resolve_config_path(source)
        try:
            doc = JSON_DECODER.decode(read_text(path))
        except ValueError as exc:   # undecodable, not JSON, or non-finite
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
    apply_overrides(doc, overrides)
    return from_dict(doc)
