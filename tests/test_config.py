import json
import math
import re
from dataclasses import FrozenInstanceError, asdict, fields, is_dataclass, replace
from pathlib import Path

import pytest

from fairkd.cli import main
from fairkd.config import (
    CONFIG_DIR_ENV,
    EvalConfig,
    PathsConfig,
    RunConfig,
    apply_overrides,
    config_digest,
    from_dict,
    load_config,
)
from fairkd.errors import ConfigError, ConfigTypeError, FairkdError
from fairkd.losses import LossConfig, MarginConfig
from fairkd.synthdata import UniverseConfig
from fairkd.training import EncoderSpec, TrainConfig


def test_defaults_load_and_validate():
    cfg = load_config(None)
    assert cfg == RunConfig()
    assert cfg.teacher.input_dim == cfg.universe.feature_dim


def test_nested_file_values_land_in_sections(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "seed": 7,
        "train": {"epochs": 3, "lr_milestones": [], "batch_size": 16},
        "loss": {"kd_weight": 0.5, "margin": {"kind": "adaface", "m": 0.4}},
        "universe": {"n_groups": 2, "identities_per_source": 8,
                     "eval_identities": 6},
    }))
    cfg = load_config(str(path))
    assert cfg.seed == 7
    assert cfg.train.epochs == 3
    assert cfg.loss.kd_weight == 0.5
    assert cfg.loss.margin.kind == "adaface"
    assert cfg.loss.margin.m == 0.4
    assert cfg.universe.n_groups == 2


def test_lists_become_tuples():
    cfg = from_dict({"train": {"epochs": 30, "lr_milestones": [3, 9]},
                     "student": {"input_dim": 16, "hidden_widths": [8, 8],
                                 "embedding_dim": 12},
                     "universe": {"noise_scales": [0.1, 0.2, 0.3, 0.4]}})
    assert cfg.train.lr_milestones == (3, 9)
    assert cfg.student.hidden_widths == (8, 8)
    assert cfg.universe.noise_scales == (0.1, 0.2, 0.3, 0.4)


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="config.train.epocs"):
        from_dict({"train": {"epocs": 3}})


def test_bad_value_names_section():
    with pytest.raises(ConfigError, match="config.train.*batch_size"):
        from_dict({"train": {"batch_size": 0, "lr_milestones": []}})


def test_cross_field_checks():
    with pytest.raises(ConfigError, match="teacher.input_dim"):
        from_dict({"teacher": {"input_dim": 9, "hidden_widths": [8],
                               "embedding_dim": 12}})
    with pytest.raises(ConfigError, match="student.embedding_dim"):
        from_dict({"student": {"input_dim": 16, "hidden_widths": [8],
                               "embedding_dim": 5}})


def test_eval_config_bounds():
    with pytest.raises(ValueError):
        EvalConfig(k=1)
    with pytest.raises(ValueError):
        EvalConfig(pairs_per_group=1)


def test_overrides_parse_json_then_fall_back_to_string():
    doc = apply_overrides({}, ["train.epochs=4", "paths.reports=out/r",
                               "train.lr_milestones=[1,2]",
                               "loss.kd_on_normalized=true"])
    assert doc["train"]["epochs"] == 4
    assert doc["paths"]["reports"] == "out/r"
    assert doc["train"]["lr_milestones"] == [1, 2]
    assert doc["loss"]["kd_on_normalized"] is True


def test_override_without_equals_rejected():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["train.epochs"])


def test_override_beats_file_value(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 1}))
    cfg = load_config(str(path), overrides=["seed=9"])
    assert cfg.seed == 9


def test_digest_is_stable_and_sensitive():
    base = load_config(None)
    assert config_digest(base) == config_digest(RunConfig())
    tweaked = from_dict({"seed": 1})
    assert config_digest(tweaked) != config_digest(base)
    assert len(config_digest(base)) == 12


def test_to_dict_round_trips():
    cfg = from_dict({"train": {"epochs": 5, "lr_milestones": [2]},
                     "seed": 3})
    again = from_dict(json.loads(json.dumps(asdict(cfg))))
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)


def test_config_dir_env_resolves_bare_names(tmp_path, monkeypatch):
    (tmp_path / "tiny.json").write_text(json.dumps({"seed": 4}))
    monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path))
    assert load_config("tiny").seed == 4
    assert load_config("tiny.json").seed == 4


def test_missing_config_file_rejected(tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_DIR_ENV, raising=False)
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.json"))


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_non_object_top_level_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(path))


def test_partial_encoder_section_starts_from_its_default(tmp_path):
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"teacher": {"init_seed": 3}}))
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"teacher": {
        **asdict(RunConfig())["teacher"], "init_seed": 3}}))
    configs = [load_config(None, ["teacher.init_seed=3"]),
               load_config(str(partial)), load_config(str(full))]
    assert configs[0].teacher.hidden_widths == RunConfig().teacher.hidden_widths
    assert configs[0].teacher.init_seed == 3
    assert len({config_digest(c) for c in configs}) == 1


def test_section_that_is_not_an_object_rejected():
    with pytest.raises(ConfigError, match="config.teacher"):
        from_dict({"teacher": 5})


@pytest.mark.parametrize("build", [
    lambda: MarginConfig(kind="x"),
    lambda: EncoderSpec(16, (0,), 12),
    lambda: UniverseConfig(n_groups=1),
    lambda: LossConfig(kd_weight=-1),
    lambda: EvalConfig(k=1),
    lambda: TrainConfig(lr_milestones=(-1,)),
    lambda: EvalConfig(pairs_per_group=3),
    lambda: TrainConfig(lr_milestones=(2.5,)),
    lambda: TrainConfig(lr_milestones=(True,)),
    lambda: TrainConfig(lr_milestones=("3",)),
    lambda: EvalConfig(k=10, pairs_per_group=4),
    lambda: TrainConfig(epochs=2.5, lr_milestones=()),
    lambda: TrainConfig(batch_size=True),
    lambda: EvalConfig(k=2.5, pairs_per_group=4),
    lambda: LossConfig(kd_on_normalized="yes"),
    lambda: LossConfig(kd_weight=math.nan),
    lambda: TrainConfig(base_lr=math.inf),
    lambda: TrainConfig(weight_decay=math.nan),
    lambda: TrainConfig(lr_factor=math.inf),
    lambda: UniverseConfig(synth_mean_shift=math.nan),
    lambda: UniverseConfig(noise_scales=(math.nan, 1, 1, 1)),
    lambda: UniverseConfig(n_groups=2.5),
    lambda: RunConfig(seed=True),
    lambda: RunConfig(seed=1.5),
    lambda: PathsConfig(manifests=123),
    lambda: MarginConfig(s=math.inf),
    lambda: MarginConfig(std=math.nan),
    lambda: MarginConfig(m=True),
    lambda: LossConfig(margin="arcface"),
    lambda: RunConfig(train=None),
    lambda: UniverseConfig(latent_dim=2.5),
    lambda: UniverseConfig(group_separation=math.inf),
], ids=["margin", "encoder", "universe", "loss", "eval", "negative-milestone",
        "odd-pairs", "float-milestone", "bool-milestone", "text-milestone",
        "pairs-below-k", "float-epochs", "bool-batch-size", "float-k",
        "text-kd-on-normalized", "nan-kd-weight", "inf-base-lr",
        "nan-weight-decay", "inf-lr-factor", "nan-synth-mean-shift",
        "nan-noise-scale", "float-n-groups", "bool-seed", "float-seed",
        "int-paths", "inf-margin-s", "nan-margin-std", "bool-margin-m",
        "text-margin", "none-train", "float-latent-dim",
        "inf-group-separation"])
def test_config_errors_from_the_python_api_are_fairkd_errors(build):
    with pytest.raises(ConfigError) as exc:
        build()
    assert isinstance(exc.value, FairkdError)
    assert isinstance(exc.value, ValueError)


def _demo06_config() -> dict:
    script = Path(__file__).parent.parent / "demos" / "06_cli_walkthrough.sh"
    text = re.search(r"cat > config.json <<'EOF'\n(.*?)\nEOF",
                     script.read_text(), re.S).group(1)
    return json.loads(text)


@pytest.mark.parametrize("doc, digest", [
    ({}, "98c2a71ad815"),
    ({"teacher": {"init_seed": 3}}, "221d92876020"),
    ({"universe": {"n_groups": 2, "noise_scales": [0.1, 0.2]}}, "593c694d6d01"),
    ({"loss": {"kd_weight": 0.5, "margin": {"kind": "adaface", "m": 0.4}}},
     "3e40f756e01b"),
    ({"train": {"epochs": 5, "lr_milestones": [2]},
      "paths": {"reports": "out/r"}}, "c5e9f09f616a"),
    ({"student": {"hidden_widths": [8, 8], "init_seed": 4}}, "50352135d378"),
    ({"seed": 7}, "21e5cc6d24b8"),
    ({"eval": {"k": 5, "pairs_per_group": 40}}, "c0af56dfff2b"),
    (None, "8fbb974ffbaa"),
], ids=["default", "partial-teacher", "partial-universe", "nested-margin",
        "train-paths", "student", "seed", "eval", "demo06"])
def test_config_digest_is_pinned(doc, digest):
    """The digest stamped into every artifact; a change here re-keys them."""
    cfg = from_dict(_demo06_config() if doc is None else doc)
    assert config_digest(cfg) == digest


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_number_in_config_file_exits_2(tmp_path, monkeypatch,
                                                  capsys, number):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.json"
    path.write_text('{"universe": {"group_separation": %s}}' % number)
    with pytest.raises(ConfigError, match="run.json"):
        load_config(str(path))
    assert main(["synth-gen", "--config", str(path)]) == 2
    assert "run.json" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("override", [
    "universe.group_separation=NaN",
    "universe.noise_scales=[1.0,Infinity,1.0,1.0]",
    "universe.synth_mean_shift=1e999",
    "loss.margin.s=-Infinity",
])
def test_non_finite_number_in_override_exits_2(tmp_path, monkeypatch, capsys,
                                               override):
    monkeypatch.chdir(tmp_path)
    key = override.partition("=")[0]
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(None, [override])
    assert main(["synth-gen", "--set", override]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, override, message", [
    ("train", "train.batch_size=2.5", "config.train.batch_size"),
    ("train", "train.epochs=2.5", "config.train.epochs"),
    ("train", "train.seed=1.5", "config.train.seed"),
    ("train", "paths.manifests=123", "config.paths.manifests"),
    ("synth-gen", "universe.images_per_identity=2.5",
     "config.universe.images_per_identity"),
    ("eval", "eval.k=2.5", "config.eval.k"),
    ("train", "train.epochs=true", "config.train.epochs"),
    ("train", "teacher.init_seed=true", "config.teacher.init_seed"),
    ("train", 'loss.kd_on_normalized="yes"', "config.loss.kd_on_normalized"),
    ("synth-gen", "universe.noise_scales=[true,1,2,3]",
     "config.universe.noise_scales"),
    ("synth-gen", "universe.seed=-1", "config.universe: seed must be >= 0"),
    ("synth-gen", "seed=-1", "config: seed must be >= 0"),
    ("train", "train.seed=-1", "config.train: seed must be >= 0"),
    ("eval", "seed=-1", "config: seed must be >= 0"),
    ("synth-gen", "seed=true", "config.seed"),
    ("synth-gen", "loss.margin.m=true", "config.loss.margin.m"),
])
def test_ill_typed_or_negative_seed_value_exits_2(tmp_path, monkeypatch,
                                                  capsys, command, override,
                                                  message):
    monkeypatch.chdir(tmp_path)
    extra = ["--checkpoint", "absent.ckpt"] if command == "eval" else []
    assert main([command, "--set", override, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, override, message", [
    # a negative milestone would silently run epoch 0 at base_lr / 10
    ("train", "train.lr_milestones=[-1]", "config.train: milestones (-1,)"),
    # an odd count would pass config load, then fail in gen_pair_protocol
    ("synth-gen", "eval.pairs_per_group=3",
     "config.eval: pairs_per_group must be even"),
    # fewer pairs than folds would pass synth-gen and train, then fail eval
    ("synth-gen", "eval.pairs_per_group=4",
     "config.eval: pairs_per_group 4 cannot fill k=10 folds"),
])
def test_config_that_can_never_run_exits_2(tmp_path, monkeypatch, capsys,
                                           command, override, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(None, [override])
    assert main([command, "--set", override]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("overrides, twin", [
    (["train.base_lr=1"], ["train.base_lr=1.0"]),
    (["loss.kd_weight=1"], []),
    (["loss.margin.s=64", "universe.group_separation=4"], []),
    (["train.base_lr=1.0"], lambda: RunConfig(train=TrainConfig(base_lr=1))),
], ids=["base-lr", "kd-weight-default", "nested-and-universe", "python-api"])
def test_an_integer_for_a_float_field_digests_as_the_float(overrides, twin):
    # the same run under two spellings must carry one config digest
    cfg = load_config(None, overrides)
    assert config_digest(cfg) == config_digest(
        twin() if callable(twin) else load_config(None, twin))
    for key in overrides:
        section, *path = key.partition("=")[0].split(".")
        value = getattr(cfg, section)
        for name in path:
            value = getattr(value, name)
        assert type(value) is float


def test_run_config_checks_itself_when_built():
    with pytest.raises(ConfigError, match="teacher.input_dim"):
        RunConfig(teacher=EncoderSpec(9, (8,), 12))
    with pytest.raises(ConfigError, match="student.embedding_dim"):
        RunConfig(student=EncoderSpec(16, (8,), 5))


def test_nested_margin_override_builds_a_margin_config():
    cfg = load_config(None, ["loss.margin.s=20"])
    assert isinstance(cfg.loss.margin, MarginConfig)
    assert cfg.loss.margin == MarginConfig(s=20)


def test_every_config_field_declares_its_rule_and_is_checked():
    # a field added without a rule, or a record whose __post_init__ skips
    # core.check_fields, would let an ill-typed value build; an assignment
    # after it is built would skip the rule, so every record is frozen
    pending, seen = [RunConfig()], set()
    while pending:
        record = pending.pop()
        seen.add(type(record).__name__)
        for f in fields(record):
            assert "rule" in f.metadata, f"{type(record).__name__}.{f.name}"
            if is_dataclass(getattr(record, f.name)):
                pending.append(getattr(record, f.name))
            with pytest.raises(ConfigTypeError, match=f"^{f.name}: expected"):
                replace(record, **{f.name: object()})
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
    assert seen == {"RunConfig", "UniverseConfig", "TrainConfig", "LossConfig",
                    "MarginConfig", "EncoderSpec", "EvalConfig", "PathsConfig"}
