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
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from json import JSONDecodeError
from pathlib import Path

from .errors import ConfigError
from .formats import JSON_DECODER, canonical_json, read_text
from .losses import LossConfig
from .synthdata import UniverseConfig
from .training import EncoderSpec, TrainConfig

CONFIG_DIR_ENV = "FAIRKD_CONFIG_DIR"


@dataclass
class EvalConfig:
    """Verification protocol size and cross-validation depth; each group's
    pairs must fill the k folds, so pairs_per_group >= k."""

    k: int = 10
    pairs_per_group: int = 60

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        if self.pairs_per_group < 2 or self.pairs_per_group % 2:
            raise ConfigError(f"pairs_per_group must be even and >= 2, got "
                              f"{self.pairs_per_group}")
        if self.pairs_per_group < self.k:
            raise ConfigError(f"pairs_per_group {self.pairs_per_group} cannot "
                              f"fill k={self.k} folds")


@dataclass
class PathsConfig:
    """Output directories; commands create them on demand."""

    manifests: str = "runs/manifests"
    checkpoints: str = "runs/checkpoints"
    reports: str = "runs/reports"


@dataclass
class RunConfig:
    universe: UniverseConfig = field(default_factory=UniverseConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    teacher: EncoderSpec = field(default_factory=lambda: EncoderSpec(
        input_dim=16, hidden_widths=(64, 48), embedding_dim=12, init_seed=1))
    student: EncoderSpec = field(default_factory=lambda: EncoderSpec(
        input_dim=16, hidden_widths=(24,), embedding_dim=12, init_seed=2))
    eval: EvalConfig = field(default_factory=EvalConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    seed: int = 0

    def __post_init__(self):
        """Cross-field consistency; single-field checks live in each config."""
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        feat = self.universe.feature_dim
        for label, spec in (("teacher", self.teacher), ("student", self.student)):
            if spec.input_dim != feat:
                raise ConfigError(
                    f"{label}.input_dim is {spec.input_dim} but "
                    f"universe.feature_dim is {feat}")
        if self.teacher.embedding_dim != self.student.embedding_dim:
            raise ConfigError(
                f"student.embedding_dim is {self.student.embedding_dim} but "
                f"teacher.embedding_dim is {self.teacher.embedding_dim}")


def config_digest(cfg: RunConfig) -> str:
    """Short stable digest of the fully resolved config."""
    payload = canonical_json(asdict(cfg)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]


def _fits(value, default) -> bool:
    """Whether value has the type of default: a bool field takes only a
    bool, an int field an int but not a bool, a float field an int or a
    float, a str field a str, and a tuple field a list of such items."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    kinds = (int, float) if type(default) is float else type(default)
    return (isinstance(value, kinds)
            and isinstance(value, bool) == isinstance(default, bool))


def _build_section(cls, data, path: str, default):
    """cls from data; a key whose default is a dataclass is a nested section.
    A field that cls has no default for is taken from default (the matching
    part of RunConfig()), so {"teacher": {"init_seed": 3}} builds. Fields with
    a class default keep it, so every complete section digests unchanged.
    Other values are checked with _fits; null passes where cls defaults to None.
    A float field stores float(value), so base_lr=1 and =1.0 digest alike."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    valid = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ConfigError(f"unknown config key {path}.{unknown[0]}")
    kwargs = {f.name: getattr(default, f.name) for f in fields(cls)
              if f.default is MISSING and f.default_factory is MISSING}
    for key, value in data.items():
        child = f"{path}.{key}"
        section = getattr(default, key)
        if is_dataclass(section):
            kwargs[key] = _build_section(type(section), value, child, section)
        elif not (_fits(value, section)
                  or (value is None and valid[key].default is None)):
            raise ConfigError(f"{child}: expected {type(section).__name__}, got {value!r}")
        elif isinstance(value, list):
            kwargs[key] = tuple(value)
        elif type(section) is float:
            kwargs[key] = float(value)
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
