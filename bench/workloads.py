"""The benchmark workloads.

Each workload is built from one ``--seed`` and exposes

* ``setup(tracer)``: the work done before the timed loop, timed as
  ``setup_s``; run.py repeats it before and between iterations, so it must
  leave the workload ready to iterate every time;
* ``iterate(i, tracer)``: one timed iteration, returning an ``Outcome``;
* ``summary(outcomes, times)``: from the iterations that succeeded, the
  end-to-end values other than the timings every workload shares, plus
  workload-specific figures that are printed but not gated; a value that
  cannot be computed is left out and reads as absent;
* ``distinct_embedded``: how many distinct samples one iteration scores,
  the denominator-free half of ``evaluation.embed_reuse_ratio``.

Only the public fairkd API is used; ``fairkd.cli.main`` runs in-process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from fairkd import (
    EncoderSpec,
    LossConfig,
    MarginConfig,
    TrainConfig,
    UniverseConfig,
    distill,
    gen_pair_protocol,
    generate_universe,
    kfold_verification_accuracy,
    read_protocol,
    read_report,
    score_pairs,
    train_from_scratch,
)
from fairkd.cli import main as cli_main
from fairkd.errors import FairkdError

# The acceptance-test experiment (tests/test_acceptance.py).
KD_TEACHER = EncoderSpec(16, (96,), 12, init_seed=1)
KD_STUDENT = EncoderSpec(16, (24,), 12, init_seed=2)
KD_LOSS = LossConfig(margin=MarginConfig.arcface(s=16.0, m=0.3))
KD_TRAIN = TrainConfig(epochs=60, batch_size=64, base_lr=0.02,
                       lr_milestones=(40, 52), momentum=0.9, hflip_prob=0.0,
                       weight_decay=1e-3, seed=0)
# The distillation stage runs at half the learning rate. At the acceptance
# test's 0.02, KD on raw embeddings diverges (DivergenceDetected) on some
# universes, e.g. seeds 2002 and 7001; the benchmark's workloads must
# complete every operation on every seed.
KD_DISTILL_TRAIN = dataclasses.replace(KD_TRAIN, base_lr=0.01)
KD_UNIVERSE = dict(identities_per_source=200, eval_identities=32,
                   images_per_identity=10, noise_scales=(0.8, 1.0, 1.2, 1.5),
                   synth_mean_shift=2.0, synth_cov_inflation=4.0)


def training_steps(manifest, cfg: TrainConfig) -> int:
    """SGD steps one training run takes: epochs x ceil(samples / batch)."""
    return cfg.epochs * math.ceil(len(manifest.entries) / cfg.batch_size)


@dataclass
class Outcome:
    """One iteration: its figures, failed output checks, and domain error.

    ``problems`` (an output was wrong) make the run incorrect; ``error`` (a
    FairkdError the program raised and reported) only makes the iteration
    a failed operation.
    """

    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return not (self.problems or self.error)


def _timed_train(tracer, fn, *args, name="training.train"):
    """Run one training call under a span; returns (result, seconds, samples)."""
    manifest, cfg = args[-4], args[-1]
    steps = training_steps(manifest, cfg)
    with tracer.span(name, steps):
        t0 = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - t0
    return result, elapsed, cfg.epochs * len(manifest.entries)


def _group_accuracies(tracer, encoder, protocol, store, k, seed):
    accs = []
    for group in protocol.groups:
        with tracer.span("evaluation.score_pairs", len(group.pairs)):
            scored = score_pairs(encoder.forward, group, store)
        with tracer.span("evaluation.kfold"):
            accs.append(kfold_verification_accuracy(
                [s for s, _ in scored], [same for _, same in scored],
                k=k, seed=seed))
    return tuple(accs)


def _accuracy_problems(accs, what) -> list[str]:
    if all(math.isfinite(a) and 0.0 <= a <= 100.0 for a in accs):
        return []
    return [f"{what}: accuracies outside [0, 100]: {accs}"]


def _distinct_samples(protocol) -> int:
    return len({sid for g in protocol.groups for p in g.pairs
                for sid in (p.sample_a, p.sample_b)})


def _universe(tracer, cfg):
    with tracer.span("synthdata.generate_universe") as rec:
        bundle = generate_universe(cfg)
        rec[4] = len(bundle.features)
    return bundle


def _protocol(tracer, manifest, pairs_per_group, seed):
    with tracer.span("synthdata.gen_pair_protocol") as rec:
        protocol = gen_pair_protocol(manifest, pairs_per_group, seed=seed)
        rec[4] = sum(len(g.pairs) for g in protocol.groups)
    return protocol


# ---------------------------------------------------------------- paper_kd


class PaperKD:
    """One iteration is one seed of the paper experiment, end to end.

    Iteration 1 repeats iteration 0's seed so every run checks bitwise
    determinism; later iterations take fresh seeds.
    """

    name = "paper_kd"
    min_iterations = 3     # the determinism rerun plus one fresh seed
    pairs_per_group = 160
    k = 5

    def __init__(self, seed: int, workdir):
        self.base = 1000 * seed
        self.first: dict | None = None
        self.distinct_embedded = 0

    def seed_of(self, i: int) -> int:
        return self.base + max(0, i - 1)

    def setup(self, tracer) -> None:
        # Warm generation, protocol sampling and the training loop on the
        # run's first universe (2 epochs), so the first timed iteration
        # pays no first-call costs.
        bundle = _universe(tracer, UniverseConfig(**KD_UNIVERSE,
                                                  seed=self.base))
        _protocol(tracer, bundle.holdout, self.pairs_per_group,
                  self.base + 1000)
        warm = TrainConfig(epochs=2, batch_size=64, base_lr=0.02,
                           lr_milestones=(), hflip_prob=0.0, seed=0)
        _timed_train(tracer, train_from_scratch, KD_STUDENT, bundle.real,
                     bundle.features, KD_LOSS, warm)

    def _experiment(self, seed: int, tracer):
        cfg = UniverseConfig(**KD_UNIVERSE, seed=seed)
        bundle = _universe(tracer, cfg)
        protocol = _protocol(tracer, bundle.holdout, self.pairs_per_group,
                             seed + 1000)
        store = bundle.features
        train_s = 0.0
        samples = 0
        models = {}
        for key, fn, args in (
                ("teacher", train_from_scratch,
                 (KD_TEACHER, bundle.real, store, KD_LOSS, KD_TRAIN)),
                ("real", train_from_scratch,
                 (KD_STUDENT, bundle.real, store, KD_LOSS, KD_TRAIN)),
                ("synthetic", train_from_scratch,
                 (KD_STUDENT, bundle.synthetic, store, KD_LOSS, KD_TRAIN))):
            models[key], secs, n = _timed_train(tracer, fn, *args)
            train_s += secs
            samples += n
        models["distilled"], secs, n = _timed_train(
            tracer, distill, models["teacher"].encoder, KD_STUDENT,
            bundle.synthetic, store, KD_LOSS, KD_DISTILL_TRAIN,
            name="training.distill")
        train_s += secs
        samples += n

        accs = {key: _group_accuracies(tracer, models[key].encoder, protocol,
                                       store, self.k, 0)
                for key in ("real", "synthetic", "distilled")}
        self.distinct_embedded = 3 * _distinct_samples(protocol)
        record = {"seed": seed, "accs": accs,
                  "digests": {key: m.encoder.param_digest()
                              for key, m in models.items()}}
        values = {"seed": seed, "train_s": train_s, "samples": samples,
                  "mean": {key: float(np.mean(a)) for key, a in accs.items()}}
        return record, values

    def iterate(self, i: int, tracer) -> Outcome:
        seed = self.seed_of(i)
        out = Outcome()
        try:
            record, out.values = self._experiment(seed, tracer)
        except FairkdError as exc:
            # A seed on which training diverges is a failed operation, and
            # its rerun must fail the same way.
            out.error = f"seed {seed}: {type(exc).__name__}: {exc}"
            record = {"seed": seed, "error": out.error}
        else:
            for key, a in record["accs"].items():
                out.problems += _accuracy_problems(a, key)
        if i == 0:
            self.first = record
        elif i == 1 and record != self.first:
            out.problems.append(f"seed {seed} rerun is not bitwise identical")
        return out

    def summary(self, outcomes, times) -> tuple[dict, dict]:
        # Accuracy figures use the run's first two seeds only, so a faster
        # program (more iterations) does not change them. When both of
        # those seeds failed, the accuracy figures are absent.
        by_seed = {o.values["seed"]: o.values["mean"] for o in outcomes}
        scored = [by_seed[s] for s in (self.base, self.base + 1)
                  if s in by_seed]

        def mean_of(fn):
            return float(np.mean([fn(m) for m in scored])) if scored else None

        rate = statistics.median(o.values["samples"] / o.values["train_s"]
                                 for o in outcomes)
        gated = {"throughput": rate}
        if scored:
            gated["holdout_acc"] = mean_of(lambda m: m["distilled"])
        shown = {
            "experiment_s": (statistics.median(times), "s"),
            "train_samples_per_s": (rate, "1/s"),
            "kd_gain_pp": (mean_of(lambda m: m["distilled"] - m["synthetic"]),
                           "pp"),
            "synth_gap_pp": (mean_of(lambda m: m["real"] - m["synthetic"]),
                             "pp"),
            "accuracy_seeds": (len(scored), "count"),
        }
        return gated, shown


# ----------------------------------------------------------- cli_artifacts


CLI_COMMANDS = ("synth_gen", "merge", "train", "distill", "eval", "report")


class CliArtifacts:
    """The CLI pipeline, in-process, in a freshly emptied directory."""

    name = "cli_artifacts"
    min_iterations = 2

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.root = os.path.join(workdir, "cli")
        self.run_dir = os.path.join(self.root, "run")
        self.config_path = os.path.join(self.root, "config.json")
        self.first = None
        self.sgd_samples = None
        self.distinct_embedded = 0

    def _config(self) -> dict:
        d = self.run_dir
        return {
            "universe": {"identities_per_source": 1000, "eval_identities": 64,
                         "images_per_identity": 10, "seed": self.seed},
            "teacher": {"input_dim": 16, "hidden_widths": [96],
                        "embedding_dim": 12, "init_seed": 1},
            "student": {"input_dim": 16, "hidden_widths": [24],
                        "embedding_dim": 12, "init_seed": 2},
            "train": {"epochs": 2, "batch_size": 64, "base_lr": 0.02,
                      "lr_milestones": [], "hflip_prob": 0.0,
                      "weight_decay": 1e-3, "seed": self.seed},
            "loss": {"margin": {"kind": "adaface", "s": 16.0, "m": 0.3}},
            "eval": {"k": 5, "pairs_per_group": 600},
            "paths": {"manifests": os.path.join(d, "m"),
                      "checkpoints": os.path.join(d, "c"),
                      "reports": os.path.join(d, "r")},
            "seed": self.seed,
        }

    def setup(self, tracer) -> None:
        os.makedirs(self.root, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self._config(), fh, indent=1)
        # Warm the CLI (config loading, generation, artifact writers) with a
        # small synth-gen beside the run directory; a broken config fails
        # here, before any timed command.
        warm = os.path.join(self.root, "warm")
        argv = ["synth-gen", "--config", self.config_path,
                "--set", "universe.identities_per_source=40",
                "--set", "universe.eval_identities=16",
                "--set", "eval.pairs_per_group=20",
                "--set", f"paths.manifests={warm}"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"warm-up synth-gen exited with {code}: "
                               f"{sink.getvalue()}")
        shutil.rmtree(warm)

    def _commands(self):
        m = os.path.join(self.run_dir, "m")
        c = os.path.join(self.run_dir, "c")
        r = os.path.join(self.run_dir, "r")
        balanced = os.path.join(m, "synthetic-balanced.manifest")
        return (
            ("synth_gen", ["synth-gen"]),
            ("merge", ["merge", os.path.join(m, "synthetic-train.manifest"),
                       "--total", "800", "--name", "synthetic-balanced",
                       "--out", balanced]),
            ("train", ["train", "--encoder", "teacher"]),
            # half-rate distillation, as in paper_kd: at 0.02 it diverges
            # on some seeds, e.g. 1199310086
            ("distill", ["distill", "--manifest", balanced,
                         "--set", "train.base_lr=0.01"]),
            ("eval", ["eval", "--checkpoint",
                      os.path.join(c, "student-distilled.ckpt"),
                      "--model", "student", "--data", "synthetic",
                      "--distilled", "yes", "--loss-label", "adaface"]),
            ("report", ["report", os.path.join(r, "report.json"),
                        "--format", "csv",
                        "--out", os.path.join(r, "summary.csv")]),
        )

    def _artifacts(self) -> dict:
        out = {}
        for dirpath, _, files in sorted(os.walk(self.run_dir)):
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, self.run_dir)] = \
                        hashlib.sha256(fh.read()).hexdigest()
        return out

    def iterate(self, i: int, tracer) -> Outcome:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        out = Outcome()
        sgd_s = 0.0
        sink = io.StringIO()
        for label, argv in self._commands():
            argv = argv[:1] + ["--config", self.config_path] + argv[1:]
            with tracer.span(f"cli.{label}"), \
                    contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                t0 = perf_counter()
                code = cli_main(argv)
                elapsed = perf_counter() - t0
            if label in ("train", "distill"):
                sgd_s += elapsed
            if code != 0:
                out.problems.append(f"{label} exited with {code}")
                return out

        artifacts = self._artifacts()
        if self.first is None:
            self.first = artifacts
            self.sgd_samples = self._config()["train"]["epochs"] * sum(
                self._entries(os.path.join(self.run_dir, "m", name))
                for name in ("real-train.manifest",
                             "synthetic-balanced.manifest"))
            self.distinct_embedded = _distinct_samples(read_protocol(
                os.path.join(self.run_dir, "m", "protocol.json"))[0])
        elif artifacts != self.first:
            changed = sorted(k for k in set(artifacts) | set(self.first)
                             if artifacts.get(k) != self.first.get(k))
            out.problems.append(f"artifacts differ on rerun: {changed}")
        reports, _ = read_report(os.path.join(self.run_dir, "r",
                                              "report.json"))
        out.problems += _accuracy_problems(reports[0].per_group, "report")
        out.values = {"average": reports[0].average, "std": reports[0].std,
                      "sgd_s": sgd_s}
        return out

    @staticmethod
    def _entries(path) -> int:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip()) - 1

    def summary(self, outcomes, times) -> tuple[dict, dict]:
        rate = statistics.median(self.sgd_samples / o.values["sgd_s"]
                                 for o in outcomes)
        gated = {"throughput": rate,
                 "holdout_acc": outcomes[0].values["average"]}
        shown = {
            "cli_pipeline_s": (statistics.median(times), "s"),
            "cli_sgd_samples_per_s": (rate, "1/s"),
            "report_std_pp": (outcomes[0].values["std"], "pp"),
        }
        return gated, shown

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PaperKD, CliArtifacts)}
