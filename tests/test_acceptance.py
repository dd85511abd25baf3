"""Release gate: one test per shipped guarantee, end to end.

Every test also asserts its wall-clock budget, so a runtime regression
trips the same gate as a behavioral one. The distillation experiment is
fairkd.experiment's: the two directional tests share its seeds 0-4 through
a module fixture, and the divergence test runs its universe 2002.
Everything else builds its own inputs from scratch.
"""

import csv
import itertools
import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from fairkd.cli import main
from fairkd.errors import DivergenceDetected
from fairkd.evaluation import (
    best_threshold_accuracy,
    fairness_std,
    kfold_verification_accuracy,
    round2,
    ser,
)
from fairkd.experiment import run_seed
from fairkd.losses import (
    LossConfig,
    MarginConfig,
    NormStats,
    adaface_margin_terms,
    kd_loss_and_grads,
    margin_loss_and_grads,
    sample_elastic_margins,
)
from fairkd.sampling import (
    DatasetManifest,
    ManifestEntry,
    balanced_merge,
    manifest_stats,
    mix_merge,
    score_manifest,
)
from fairkd.synthdata import UniverseConfig, gen_pair_protocol, generate_universe
from fairkd.training import EncoderSpec, TrainConfig, lr_at_epoch, train_from_scratch
from helpers import fd_grad, rel_grad_err


# ------------------------------------------------- 1. reference-row oracle

# Three rows whose printed group accuracies pin the fixture to its source;
# the values after the arrow are the published average / std / ratio.
ANCHOR_ROWS = {
    (97.40, 96.07, 95.52, 95.95): ("96.24", "0.81", "1.72"),
    (95.63, 93.20, 92.25, 91.55): ("93.16", "1.78", "1.93"),
    (97.12, 95.78, 94.93, 95.36): ("95.80", "0.95", "1.76"),
}


def _fixture_rows():
    path = resources.files("fairkd") / "data" / "reference_rows.csv"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    n_groups = len(header) - 4
    out = []
    for row in body:
        accs = tuple(float(v) for v in row[1:1 + n_groups])
        avg, std_, ratio = (float(v) for v in row[1 + n_groups:])
        out.append((row[0], accs, avg, std_, ratio))
    return out


def test_reference_rows_recompute_to_printed_metrics():
    t0 = time.perf_counter()
    rows = _fixture_rows()
    assert len(rows) >= 10
    anchors_seen = set()
    for label, accs, avg, std_, ratio in rows:
        assert round2(float(np.mean(accs))) == round2(avg), label
        assert round2(fairness_std(accs)) == round2(std_), label
        assert round2(ser(accs)) == round2(ratio), label
        if accs in ANCHOR_ROWS:
            assert (round2(avg), round2(std_), round2(ratio)) == ANCHOR_ROWS[accs]
            anchors_seen.add(accs)
    assert anchors_seen == set(ANCHOR_ROWS)
    assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------- 2. gradient correctness

GRAD_HEADS = {
    "arcface": MarginConfig.arcface(s=12.0, m=0.35),
    "elastic_arcface": MarginConfig.elastic_arcface(s=12.0, m=0.35, std=0.05),
    "adaface": MarginConfig.adaface(s=12.0, m=0.3),
}
GRAD_TOL = 1e-4


def test_loss_gradients_match_central_differences():
    t0 = time.perf_counter()
    stats = NormStats(mean_norm=3.0, std_norm=1.0)
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))
        z = rng.standard_normal((3, 8))
        w = rng.standard_normal((5, 8))
        y = rng.integers(0, 5, size=3)
        t = rng.standard_normal((3, 8))

        for kind, cfg in GRAD_HEADS.items():
            # margins are per-call constants in the backward pass, so the
            # differentiable function has ang/add frozen at the base point
            if kind == "arcface":
                ang, add = cfg.m, 0.0
            elif kind == "elastic_arcface":
                ang, add = sample_elastic_margins(cfg, rng, 3), 0.0
            else:
                ang, add, _ = adaface_margin_terms(
                    np.linalg.norm(z, axis=1), cfg, stats)
            out = margin_loss_and_grads(z, w, y, cfg.s, ang, add)
            num_z = fd_grad(
                lambda v: margin_loss_and_grads(v, w, y, cfg.s, ang, add).loss, z)
            num_w = fd_grad(
                lambda v: margin_loss_and_grads(z, v, y, cfg.s, ang, add).loss, w)
            assert rel_grad_err(out.d_embedding, num_z) <= GRAD_TOL, f"{kind} seed {seed}"
            assert rel_grad_err(out.d_prototypes, num_w) <= GRAD_TOL, f"{kind} seed {seed}"

        _, d_t, d_s = kd_loss_and_grads(t, z)
        num_s = fd_grad(lambda v: kd_loss_and_grads(t, v)[0], z)
        num_t = fd_grad(lambda v: kd_loss_and_grads(v, z)[0], t)
        assert rel_grad_err(d_s, num_s) <= GRAD_TOL, f"kd student seed {seed}"
        assert rel_grad_err(d_t, num_t) <= GRAD_TOL, f"kd teacher seed {seed}"

        cfg = GRAD_HEADS["arcface"]
        head = margin_loss_and_grads(z, w, y, cfg.s, cfg.m, 0.0)

        def objective(v):
            cls = margin_loss_and_grads(v, w, y, cfg.s, cfg.m, 0.0).loss
            return cls + kd_loss_and_grads(t, v)[0]

        combined = head.d_embedding + d_s
        assert rel_grad_err(combined, fd_grad(objective, z)) <= GRAD_TOL, f"total seed {seed}"
    assert time.perf_counter() - t0 < 30.0


# --------------------------------------- 3/4. distillation and synthetic gap

@pytest.fixture(scope="module")
def distillation_outcomes():
    """The paper experiment (fairkd.experiment) on universes 0-4: per seed,
    the holdout average of the real and synthetic scratch students and of
    the student distilled on synthetic from a teacher fit on real."""
    t0 = time.perf_counter()
    rows = [{arm: float(np.mean(accs)) for arm, (_, accs)
             in run_seed(seed, ("real", "synthetic", "distilled")).items()}
            for seed in range(5)]
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def test_distilled_student_beats_scratch_student_on_synthetic(distillation_outcomes):
    rows = distillation_outcomes["rows"]
    wins = sum(r["distilled"] > r["synthetic"] for r in rows)
    assert wins >= 4, rows
    assert distillation_outcomes["elapsed"] < 300.0


def test_synthetic_source_underperforms_real_source(distillation_outcomes):
    rows = distillation_outcomes["rows"]
    wins = sum(r["synthetic"] < r["real"] for r in rows)
    assert wins >= 4, rows
    assert distillation_outcomes["elapsed"] < 300.0


def test_distillation_blow_up_is_reported_once_as_a_divergence():
    """At the acceptance rate with no clipping, KD on raw embeddings runs
    away in epoch 0 on universe 2002. The run raises DivergenceDetected from
    the step where the embeddings lost their direction, and prints no numpy
    warning on the way (tier-1 would fail on one)."""
    t0 = time.perf_counter()
    with pytest.raises(DivergenceDetected,
                       match="training diverged at epoch 0, batch starting"):
        run_seed(2002, ("distilled",))
    assert time.perf_counter() - t0 < 30.0


# ------------------------------------------------- 5. merge invariants

def _labeled_pool(rng, trial, source, group_count, per_group):
    """Manifest whose every identity puts >0.5 mass on a known group."""
    entries = []
    scores = {}
    for g in range(group_count):
        for k in range(per_group):
            iid = f"t{trial}-{source[:2]}-g{g}-i{k:02d}"
            top = 0.55 + 0.4 * float(rng.random())
            rest = rng.dirichlet(np.ones(group_count - 1)) * (1.0 - top)
            labels = tuple(np.insert(rest, g, top))
            scores[iid] = (g, top)
            for j in range(int(rng.integers(1, 4))):
                sid = f"{iid}-im{j}"
                entries.append(ManifestEntry(sid, iid, source, labels, sid))
    manifest = DatasetManifest(name=f"{source}-{trial}",
                               group_count=group_count, entries=entries)
    manifest.validate()
    return manifest, scores


def test_merge_invariants_hold_on_randomized_manifests():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(100):
        groups = int(rng.integers(2, 6))
        balanced_total = int(rng.integers(groups, 4 * groups + 1))
        mix_total = int(rng.integers(groups, 4 * groups + 1))
        per_group = -(-max(balanced_total, mix_total) // groups) + 1
        real_man, real_scores = _labeled_pool(rng, trial, "real", groups, per_group)
        synth_man, synth_scores = _labeled_pool(rng, trial, "synthetic",
                                                groups, per_group)
        pool_scores = {**real_scores, **synth_scores}

        merged = balanced_merge([real_man, synth_man], balanced_total)
        stats = manifest_stats(merged)
        counts = [sum(cell["identities"] for cell in stats["groups"][str(g)].values())
                  for g in range(groups)]
        assert max(counts) - min(counts) <= 1, counts
        assert sum(counts) == balanced_total
        assert not stats["shortfalls"]

        kept = set(merged.identities())
        for g in range(groups):
            kept_scores = [top for iid, (grp, top) in pool_scores.items()
                           if grp == g and iid in kept]
            dropped_scores = [top for iid, (grp, top) in pool_scores.items()
                              if grp == g and iid not in kept]
            if kept_scores and dropped_scores:
                assert min(kept_scores) >= max(dropped_scores), f"group {g}"

        mixed = mix_merge([real_man], [synth_man], 0.7, mix_total)
        mix_stats = manifest_stats(mixed)
        assert mix_stats["total_identities"] == mix_total
        assert not mix_stats["shortfalls"]
        assert abs(mix_stats["real_identity_fraction"] - 0.7) <= 1.0 / mix_total + 1e-12
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------- 6. protocol invariants

def test_protocol_invariants_hold_on_randomized_configs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(100):
        groups = int(rng.integers(2, 5))
        images = int(rng.integers(2, 5))
        eval_ids = int(rng.integers(2 * groups, 4 * groups + 1))
        cfg = UniverseConfig(n_groups=groups, identities_per_source=2 * groups,
                             eval_identities=eval_ids,
                             images_per_identity=images, latent_dim=3,
                             feature_dim=5, seed=trial)
        bundle = generate_universe(cfg)

        min_ids = eval_ids // groups
        half_cap = min(min_ids * images * (images - 1) // 2,
                       min_ids * (min_ids - 1) // 2 * images * images, 8)
        half = int(rng.integers(1, half_cap + 1))
        protocol = gen_pair_protocol(bundle.holdout, 2 * half, seed=trial)

        identity_of = {e.sample_id: e.identity_id for e in bundle.holdout.entries}
        group_of = {sc.identity_id: sc.group
                    for sc in score_manifest(bundle.holdout)}
        assert len(protocol.groups) == groups
        for idx, gp in enumerate(protocol.groups):
            assert gp.name == f"group{idx}"
            assert gp.positive_count == gp.negative_count == half
            unordered = {frozenset((p.sample_a, p.sample_b)) for p in gp.pairs}
            assert len(unordered) == len(gp.pairs), "duplicate pair"
            for p in gp.pairs:
                assert p.sample_a != p.sample_b
                a, b = identity_of[p.sample_a], identity_of[p.sample_b]
                assert group_of[a] == group_of[b] == idx
                assert (a == b) == p.same
    assert time.perf_counter() - t0 < 30.0


# -------------------------------------------- 7. threshold / k-fold oracle

def _scan_accuracy(scores, labels):
    """Best accuracy by direct enumeration of every useful threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    distinct = np.unique(s)
    candidates = [-math.inf, math.inf]
    candidates += [float((a + b) / 2.0) for a, b in zip(distinct, distinct[1:])]
    candidates += [float(v) for v in distinct]
    best = max(int(((s >= t) == y).sum()) for t in candidates)
    return 100.0 * best / s.size


def test_threshold_search_matches_brute_force_and_kfold():
    t0 = time.perf_counter()
    for n in range(1, 9):
        spread = np.arange(n, dtype=np.float64)
        tied = np.repeat(np.arange(8, dtype=np.float64), 2)[:n]
        for labels in itertools.product((False, True), repeat=n):
            for scores in (spread, tied):
                _, acc = best_threshold_accuracy(scores, labels)
                assert acc == _scan_accuracy(scores, labels), (list(scores), labels)
            if sum(labels) >= 2 and n - sum(labels) >= 2:
                # class-clustered scores with a gap wider than either class's
                # spread: every fold's training threshold lands in the gap,
                # so held-out accuracy must equal the global best (perfect)
                clustered = np.where(labels, 0.9, 0.0) + 0.01 * np.arange(n)
                _, best_acc = best_threshold_accuracy(clustered, labels)
                folded = kfold_verification_accuracy(clustered, labels, k=2, seed=0)
                assert best_acc == 100.0
                assert folded == best_acc
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
        labels = rng.random(n) < 0.5
        _, acc = best_threshold_accuracy(scores, labels)
        assert acc == _scan_accuracy(scores, labels), (list(scores), list(labels))
    assert time.perf_counter() - t0 < 30.0


# ------------------------------------------------- 8. CLI determinism

CLI_CONFIG = {
    "universe": {"n_groups": 2, "identities_per_source": 12,
                 "eval_identities": 8, "images_per_identity": 6,
                 "latent_dim": 4, "feature_dim": 10, "seed": 3},
    "teacher": {"input_dim": 10, "hidden_widths": [16], "embedding_dim": 8,
                "init_seed": 1},
    "student": {"input_dim": 10, "hidden_widths": [8], "embedding_dim": 8,
                "init_seed": 2},
    "train": {"epochs": 2, "batch_size": 16, "base_lr": 0.01,
              "lr_milestones": [], "seed": 1},
    "loss": {"margin": {"kind": "arcface", "s": 16.0, "m": 0.3}},
    "eval": {"k": 5, "pairs_per_group": 20},
    "seed": 5,
}


def test_cli_commands_repeat_byte_identical_and_teacher_stays_frozen(tmp_path, capsys):
    t0 = time.perf_counter()
    doc = json.loads(json.dumps(CLI_CONFIG))
    doc["paths"] = {"manifests": str(tmp_path / "m"),
                    "checkpoints": str(tmp_path / "c"),
                    "reports": str(tmp_path / "r")}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    m, c, r = tmp_path / "m", tmp_path / "c", tmp_path / "r"

    def artifacts():
        return {str(p.relative_to(tmp_path)): p.read_bytes()
                for d in (m, c, r) if d.exists()
                for p in sorted(d.rglob("*")) if p.is_file()}

    def run_twice(args):
        assert main(args) == 0
        capsys.readouterr()
        before = artifacts()
        assert main(args) == 0
        capsys.readouterr()
        assert artifacts() == before, args[0]

    run_twice(["synth-gen", "--config", str(cfg)])
    run_twice(["merge", "--config", str(cfg),
               str(m / "real-train.manifest"),
               str(m / "synthetic-train.manifest"),
               "--total", "24", "--out", str(m / "all-train.manifest")])
    run_twice(["mix", "--config", str(cfg),
               "--real", str(m / "real-train.manifest"),
               "--synthetic", str(m / "synthetic-train.manifest"),
               "--fraction", "0.7", "--total", "12",
               "--out", str(m / "mix-train.manifest")])
    run_twice(["train", "--config", str(cfg), "--encoder", "teacher"])
    run_twice(["train", "--config", str(cfg), "--encoder", "student"])

    teacher_ckpt = c / "teacher-scratch.ckpt"
    frozen = teacher_ckpt.read_bytes()
    run_twice(["distill", "--config", str(cfg)])
    assert teacher_ckpt.read_bytes() == frozen

    run_twice(["eval", "--config", str(cfg),
               "--checkpoint", str(c / "student-distilled.ckpt"),
               "--model", "student", "--data", "synthetic",
               "--distilled", "yes"])
    run_twice(["report", "--config", str(cfg), str(r / "report.json"),
               "--format", "csv", "--out", str(r / "summary.csv")])

    assert main(["verify-tables", "--config", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert main(["verify-tables", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == first

    assert time.perf_counter() - t0 < 120.0


# --------------------------------------------------- 9. schedule conformance

def test_training_trace_lr_ladder_is_exact():
    t0 = time.perf_counter()
    universe = UniverseConfig(n_groups=2, identities_per_source=8,
                              eval_identities=4, images_per_identity=2,
                              latent_dim=2, feature_dim=4, seed=0)
    bundle = generate_universe(universe)
    train_cfg = TrainConfig(epochs=26, batch_size=16, base_lr=0.1,
                            lr_milestones=(8, 14, 20, 25), seed=0)
    result = train_from_scratch(
        EncoderSpec(4, (6,), 4, init_seed=1), bundle.real, bundle.features,
        LossConfig(margin=MarginConfig.arcface(s=8.0, m=0.2)), train_cfg)
    lr_of = {e.epoch: e.lr for e in result.trace}
    for epoch, expected in {0: 0.1, 8: 1e-2, 14: 1e-3, 20: 1e-4, 25: 1e-5}.items():
        assert lr_of[epoch] == expected
        assert lr_at_epoch(epoch, train_cfg) == expected
    assert time.perf_counter() - t0 < 1.0
