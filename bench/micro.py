"""Fixed-shape microbenchmarks of each layer (µs per call).

Shapes follow the paper experiment: encoders at B=64, margin heads at B=64,
C=200, D=12, pair scoring at the paper (640) and RFW (24 000) protocol
sizes, threshold search at 10^4 and 10^5 scores, and artifact I/O at 4k and
40k samples. Inputs come from the run's seed. Call counts are fixed per op
so the reported tail percentile is the same on every run.
"""

from __future__ import annotations

import os
import shutil
from time import perf_counter

import numpy as np

import fairkd
from fairkd import (
    DatasetManifest,
    Encoder,
    GroupProtocol,
    ManifestEntry,
    MarginConfig,
    NormStats,
    VerificationPair,
    init_prototypes,
)

from workloads import KD_STUDENT, KD_TEACHER

BATCH, CLASSES, DIM = 64, 200, 12


def _api(name):
    """A public fairkd function, or None once a later version drops it."""
    return getattr(fairkd, name, None)


def _bind(fn, *args, **kwargs):
    """A no-argument call of fn, or None when fn is absent."""
    if fn is None:
        return None
    return lambda: fn(*args, **kwargs)


def _time_calls(fn, calls: int) -> list[float]:
    if calls > 3:
        fn()  # warm-up; the few-call large shapes are their own warm-up
    out = []
    for _ in range(calls):
        t0 = perf_counter()
        fn()
        out.append(1e6 * (perf_counter() - t0))
    return out


def _manifest(rng, n_samples: int) -> DatasetManifest:
    entries = []
    for k in range(n_samples // 10):
        group = k % 4
        alpha = np.ones(4)
        alpha[group] = 20.0
        labels = tuple(float(p) for p in rng.dirichlet(alpha))
        iid = f"id{k:05d}"
        for j in range(10):
            sid = f"{iid}_im{j:02d}"
            entries.append(ManifestEntry(sid, iid, "real", labels, sid))
    return DatasetManifest(name=f"micro-{n_samples}", group_count=4,
                           entries=entries)


def _features(rng, n_samples: int) -> dict:
    x = rng.standard_normal((n_samples, 16))
    return {f"s{i:06d}": x[i] for i in range(n_samples)}


def _pairs_group(rng, store_ids, n_pairs: int) -> GroupProtocol:
    idx = rng.integers(0, len(store_ids), size=(n_pairs, 2))
    idx[:, 1] = (idx[:, 0] + 1 + idx[:, 1] % (len(store_ids) - 1)) \
        % len(store_ids)
    return GroupProtocol(f"micro{n_pairs}", [
        VerificationPair(store_ids[a], store_ids[b], bool(j % 2))
        for j, (a, b) in enumerate(idx)])


def _encoder_ops(rng):
    ops = {}
    for label, spec in (("student", KD_STUDENT), ("teacher", KD_TEACHER)):
        enc = Encoder(spec)
        x = rng.standard_normal((BATCH, spec.input_dim))
        forward_cached = getattr(enc, "forward_cached", None)
        backward = None
        if forward_cached is not None:
            emb, cache = forward_cached(x)
            backward = _bind(getattr(enc, "backward", None), cache,
                             rng.standard_normal(emb.shape))
        ops[f"encoder_{label}_forward_cached"] = (_bind(forward_cached, x),
                                                  400)
        ops[f"encoder_{label}_backward"] = (backward, 400)
    return ops


def _loss_ops(rng):
    z = rng.standard_normal((BATCH, DIM))
    protos = init_prototypes(CLASSES, DIM, seed=1)
    y = rng.integers(0, CLASSES, size=BATCH)
    head_rng = np.random.Generator(np.random.PCG64(1))
    stats = NormStats.default()
    heads = {
        "arcface": MarginConfig.arcface(s=16.0, m=0.3),
        "elastic_arcface": MarginConfig.elastic_arcface(s=16.0, m=0.3,
                                                        std=0.05),
        "adaface": MarginConfig.adaface(s=16.0, m=0.3),
    }
    ops = {f"head_{kind}": (
        _bind(_api("head_loss_and_grads"), z, protos, y, cfg, rng=head_rng,
              stats=stats), 200)
        for kind, cfg in heads.items()}
    t = rng.standard_normal((BATCH, DIM))
    ops["kd_loss"] = (_bind(_api("kd_loss_and_grads"), t, z), 400)

    enc = Encoder(KD_STUDENT)
    params = enc.parameters() + [protos.copy()]
    grads = [rng.standard_normal(p.shape) * 1e-6 for p in params]
    velocity = [np.zeros_like(p) for p in params]
    ops["sgd_step"] = (
        _bind(_api("sgd_step"), params, grads, 1e-6, 0.9, velocity), 400)
    return ops


def _eval_ops(rng):
    store = _features(rng, 4000)
    ids = sorted(store)
    enc = Encoder(KD_STUDENT)
    ops = {}
    for n_pairs, calls in ((640, 40), (24000, 3)):
        group = _pairs_group(rng, ids, n_pairs)
        ops[f"score_pairs_{n_pairs}"] = (
            _bind(_api("score_pairs"), enc.forward, group, store), calls)
    for n, calls in ((10_000, 60), (100_000, 20)):
        s = rng.standard_normal(n)
        y = rng.random(n) < 0.5
        ops[f"threshold_{n}"] = (
            _bind(_api("best_threshold_accuracy"), s, y), calls)
    return ops


def _io_ops(rng, workdir):
    ops = {}
    for n, calls in ((4000, 20), (40_000, 3)):
        feats = _features(rng, n)
        manifest = _manifest(rng, n)
        fpath = os.path.join(workdir, f"features-{n}.json")
        mpath = os.path.join(workdir, f"manifest-{n}.manifest")
        tag = f"{n // 1000}k"
        ops[f"write_features_{tag}"] = (
            _bind(_api("write_features"), feats, fpath), calls)
        ops[f"read_features_{tag}"] = (_bind(_api("read_features"), fpath),
                                       calls)
        ops[f"write_manifest_{tag}"] = (
            _bind(_api("write_manifest"), manifest, mpath), calls)
        ops[f"read_manifest_{tag}"] = (_bind(_api("read_manifest"), mpath),
                                       calls)
    return ops


def op_names() -> list[str]:
    """Every microbenchmark name, in report order."""
    enc = [f"encoder_{who}_{what}" for who in ("student", "teacher")
           for what in ("forward_cached", "backward")]
    heads = [f"head_{k}" for k in ("arcface", "elastic_arcface", "adaface")]
    evals = ["score_pairs_640", "score_pairs_24000", "threshold_10000",
             "threshold_100000"]
    io_ = [f"{rw}_{what}_{tag}" for tag in ("4k", "40k")
           for what in ("features", "manifest") for rw in ("write", "read")]
    return enc + heads + ["kd_loss", "sgd_step"] + evals + io_


def run(seed: int, workdir) -> dict[str, list[float]]:
    """µs samples per op. Ops whose public name is gone are left out."""
    rng = np.random.Generator(np.random.PCG64(seed))
    io_dir = os.path.join(workdir, "micro")
    os.makedirs(io_dir, exist_ok=True)
    samples = {}
    try:
        ops = {**_encoder_ops(rng), **_loss_ops(rng), **_eval_ops(rng),
               **_io_ops(rng, io_dir)}
        # dict order puts each write before the read of its file
        for name, (fn, calls) in ops.items():
            if fn is not None:
                samples[name] = _time_calls(fn, calls)
    finally:
        shutil.rmtree(io_dir, ignore_errors=True)
    return samples
