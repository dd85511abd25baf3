"""fairkd.experiment is the one definition of the paper experiment: the CLI
runs it from PAPER written out as a config, and the benchmark's copy of it
(bench/workloads.py, read here and never edited) matches PAPER field by
field."""

import json
import sys
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import pytest

from fairkd.cli import main
from fairkd.errors import InvalidArgument
from fairkd.experiment import PAPER, run_seed
from fairkd.formats import checkpoint_load
from fairkd.synthdata import UniverseConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_cli_runs_the_paper_experiment(tmp_path):
    doc = asdict(PAPER)
    doc["paths"] = {"manifests": str(tmp_path / "m"),
                    "checkpoints": str(tmp_path / "c"),
                    "reports": str(tmp_path / "r")}
    cfg = tmp_path / "paper.json"
    cfg.write_text(json.dumps(doc))
    for argv in (["synth-gen"], ["train", "--encoder", "teacher"], ["distill"]):
        assert main([*argv, "--config", str(cfg)]) == 0
    api = run_seed(0, ("teacher", "distilled"))
    for arm, stem in (("teacher", "teacher-scratch"),
                      ("distilled", "student-distilled")):
        cli, _ = checkpoint_load(tmp_path / "c" / f"{stem}.ckpt")
        assert cli.encoder.param_digest() == api[arm][0].encoder.param_digest(), arm


def test_paper_cannot_be_changed_in_place():
    # every arm of every seed runs on the one PAPER, so it is frozen to the
    # last section; a variant is a new record (dataclasses.replace)
    before = asdict(PAPER)
    with pytest.raises(FrozenInstanceError):
        PAPER.train.base_lr = float("nan")
    with pytest.raises(FrozenInstanceError):
        PAPER.eval = replace(PAPER.eval, k=2)
    assert asdict(PAPER) == before


@pytest.mark.parametrize("arms", [("mix",), "teacher"])
def test_run_seed_refuses_an_unknown_arm(arms):
    with pytest.raises(InvalidArgument, match="arms must be among"):
        run_seed(0, arms)


def test_bench_copy_of_the_experiment_is_paper(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads as bench

    assert (bench.KD_TEACHER, bench.KD_STUDENT) == (PAPER.teacher, PAPER.student)
    assert bench.KD_LOSS == PAPER.loss
    assert bench.KD_TRAIN == PAPER.train
    assert replace(bench.KD_DISTILL_TRAIN, base_lr=0.02) == PAPER.train
    assert UniverseConfig(**bench.KD_UNIVERSE) == replace(PAPER.universe, seed=0)
    assert bench.PaperKD.pairs_per_group == PAPER.eval.pairs_per_group
    assert bench.PaperKD.k == PAPER.eval.k
