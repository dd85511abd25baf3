"""Per-layer metrics of the traced run.

``install`` rebinds the public names one fairkd module looks up in another,
so their calls become spans; ``metrics`` turns the finished trace into the
per-layer numbers listed under ``per_layer`` in BENCHMARK.json.

Conventions:

* ``*_us`` / ``*_s`` without a qualifier are medians per call;
* ``*_calls``, ``evaluation.embed_calls``, ``evaluation.kfold_s``,
  ``sampling.validate_s`` and the ``formats.bytes_*`` counts are per traced
  iteration that succeeded;
* a layer the workload does not exercise reads 0; a wrapped name that no
  longer exists, or a work count that can no longer be taken from its
  call, reads None (printed as "absent", JSON null), and a missing name's
  time stays inside the self time of the span that called it.
"""

from __future__ import annotations

import statistics

import fairkd.cli as cli
import fairkd.evaluation as evaluation
import fairkd.sampling as sampling
import fairkd.training as training

from spans import SpanIndex, file_size, rows_of, tail
from workloads import CLI_COMMANDS, training_steps

TRAIN_SPANS = ("training.train", "training.distill")
ITER = "bench.iteration"
FORMATS_IO = tuple(f"{rw}_{what}" for what in ("features", "manifest",
                                               "protocol")
                   for rw in ("read", "write"))


def _safe(fn):
    """Work counts must never break the call they describe.

    A count that cannot be taken (the call's arguments changed shape) is
    None, which makes every metric built on it absent rather than zero.
    """
    def guarded(*a):
        try:
            return fn(*a)
        except Exception:  # noqa: BLE001 - None marks the count absent
            return None
    return guarded


def _set_n(value_of):
    def after(args, result, rec):
        rec[4] = _safe(value_of)(args, result)
    return after


def install(tracer) -> None:
    """Rebind every traced name; missing ones are recorded as absent."""
    wraps = [
        (training, "head_loss_and_grads", "losses.head", None, None),
        (training, "kd_loss_and_grads", "losses.kd", None, None),
        (training, "sgd_step", "training.sgd_step", None, None),
        (training.Encoder, "forward_cached",
         "training.encoder_forward_cached", lambda a: rows_of(a[1]), None),
        (training.Encoder, "forward", "training.encoder_forward",
         lambda a: rows_of(a[1]), None),
        (training.Encoder, "backward", "training.encoder_backward",
         None, None),
        (sampling.DatasetManifest, "validate", "sampling.validate",
         None, None),
        (evaluation, "cosine_similarity", "core.cosine_similarity",
         None, None),
        (evaluation, "best_threshold_accuracy",
         "evaluation.best_threshold_accuracy", None, None),
        # names the CLI commands look up in their own module
        (cli, "load_config", "config.load_config", None, None),
        (cli, "generate_universe", "synthdata.generate_universe", None,
         _set_n(lambda a, r: len(r.features))),
        (cli, "gen_pair_protocol", "synthdata.gen_pair_protocol", None,
         _set_n(lambda a, r: sum(len(g.pairs) for g in r.groups))),
        (cli, "balanced_merge", "sampling.balanced_merge", None, None),
        (cli, "train_from_scratch", "training.train",
         lambda a: training_steps(a[1], a[4]), None),
        (cli, "distill", "training.distill",
         lambda a: training_steps(a[2], a[5]), None),
        (cli, "checkpoint_save", "training.checkpoint_save", None, None),
        (cli, "checkpoint_load", "training.checkpoint_load", None, None),
        (cli, "score_pairs", "evaluation.score_pairs",
         lambda a: len(a[1].pairs), None),
        (cli, "kfold_verification_accuracy", "evaluation.kfold", None, None),
    ]
    for io in FORMATS_IO:
        if io.startswith("read"):
            wraps.append((cli, io, f"formats.{io}",
                          lambda a: file_size(a[0]), None))
        else:
            wraps.append((cli, io, f"formats.{io}", None,
                          _set_n(lambda a, r: file_size(a[1]))))
    for owner, attr, name, count, after in wraps:
        tracer.wrap(owner, attr, name, _safe(count) if count else None,
                    after)


def _ratio(num, den, scale=1.0):
    if num is None or den is None:
        return None
    return scale * num / den if den else 0.0


def _sum(*values):
    return None if any(v is None for v in values) else sum(values)


def metrics(tracer, iters: int, distinct: int,
            overhead_pct: float, micro: dict, micro_names) -> dict:
    """Layer metrics of the traced iterations that succeeded (iters of
    them); synthdata also counts set-up and failed iterations."""
    iters = iters or None   # per-iteration figures are absent without one
    idx = SpanIndex(tracer, under=ITER)
    everything = SpanIndex(tracer)
    m = {}
    train_total = _sum(*(idx.total_s(n) for n in TRAIN_SPANS))
    runs = _sum(*(idx.count(n) for n in TRAIN_SPANS))
    steps = _sum(*(idx.sum_n(n) for n in TRAIN_SPANS))

    m["losses.head_us"] = idx.median_us("losses.head")
    m["losses.head_share"] = _ratio(idx.total_s("losses.head"), train_total)
    m["losses.kd_us"] = idx.median_us("losses.kd")

    m["training.steps"] = _ratio(steps, runs)
    m["training.self_us_per_step"] = _ratio(idx.self_time(TRAIN_SPANS),
                                            steps, 1e6)
    m["training.encoder_forward_cached_us"] = idx.median_us(
        "training.encoder_forward_cached")
    m["training.encoder_backward_us"] = idx.median_us(
        "training.encoder_backward")
    m["training.sgd_step_us"] = idx.median_us("training.sgd_step")
    m["training.teacher_forward_us"] = idx.median_us(
        "training.encoder_forward", under="training.distill")
    m["training.distill_s"] = idx.median_s("training.distill")
    m["training.checkpoint_save_s"] = idx.median_s("training.checkpoint_save")
    m["training.checkpoint_load_s"] = idx.median_s("training.checkpoint_load")

    scoring = "evaluation.score_pairs"
    embedded = idx.sum_n("training.encoder_forward", under=scoring)
    m["evaluation.us_per_pair"] = _ratio(idx.total_s(scoring),
                                         idx.sum_n(scoring), 1e6)
    m["evaluation.embed_calls"] = _ratio(
        idx.count("training.encoder_forward", under=scoring), iters)
    m["evaluation.embed_reuse_ratio"] = _ratio(distinct,
                                               _ratio(embedded, iters))
    m["evaluation.kfold_s"] = _ratio(idx.total_s("evaluation.kfold"), iters)
    m["evaluation.threshold_calls"] = _ratio(
        idx.count("evaluation.best_threshold_accuracy"), iters)
    m["core.cosine_similarity_calls"] = _ratio(
        idx.count("core.cosine_similarity"), iters)

    m["synthdata.generate_universe_s"] = everything.median_s(
        "synthdata.generate_universe")
    m["synthdata.gen_pair_protocol_s"] = everything.median_s(
        "synthdata.gen_pair_protocol")
    m["synthdata.samples"] = _median_n(everything,
                                       "synthdata.generate_universe")
    m["synthdata.pairs"] = _median_n(everything, "synthdata.gen_pair_protocol")

    m["sampling.validate_calls"] = _ratio(
        idx.count("sampling.validate"), iters)
    m["sampling.validate_s"] = _ratio(
        idx.total_s("sampling.validate"), iters)
    m["sampling.balanced_merge_s"] = idx.median_s("sampling.balanced_merge")

    for io in FORMATS_IO:
        m[f"formats.{io}_s"] = idx.median_s(f"formats.{io}")
    m["formats.read_features_calls"] = _ratio(
        idx.count("formats.read_features"), iters)
    read_b = _sum(*(idx.sum_n(f"formats.{io}") for io in FORMATS_IO
                    if io.startswith("read")))
    write_b = _sum(*(idx.sum_n(f"formats.{io}") for io in FORMATS_IO
                     if io.startswith("write")))
    io_s = _sum(*(idx.total_s(f"formats.{io}") for io in FORMATS_IO))
    m["formats.bytes_read"] = _ratio(read_b, iters)
    m["formats.bytes_written"] = _ratio(write_b, iters)
    m["formats.mb_per_s"] = _ratio(_sum(read_b, write_b), io_s, 1e-6)

    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = idx.median_s(f"cli.{cmd}")
    m["config.load_config_s"] = idx.median_s("config.load_config")
    m["trace.overhead_pct"] = overhead_pct

    for name in micro_names:
        samples = micro.get(name)
        m[f"micro.{name}_us"] = statistics.median(samples) if samples else None
        m[f"micro.{name}_tail_us"] = tail(samples)[1] if samples else None
    return m


def _median_n(idx: SpanIndex, name: str):
    if name in idx.absent:
        return None
    ns = [s[4] for s in idx.select(name)]
    if any(n is None for n in ns):
        return None
    return statistics.median(ns) if ns else 0
