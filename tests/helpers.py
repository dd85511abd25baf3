"""Shared test utilities: finite-difference gradients, error metrics,
bitwise reference implementations of the margin head and training loop, the
per-pair scorer and tie loop that evaluation's batch paths replaced, the
per-image noise loop that the one-draw pool generator replaced, and the
per-pool merges that the one quota-filling routine replaced."""

import math

import numpy as np

from fairkd.core import ZERO_NORM_EPS
from fairkd.errors import (
    DimensionMismatch,
    DivergenceDetected,
    DuplicateIdentityAcrossSources,
    EmptyInput,
    EmptyManifest,
    InvalidManifest,
    InvalidMergeRequest,
    MissingSample,
    ZeroVector,
)
from fairkd.evaluation import _scores_labels
from fairkd.losses import (
    HeadGradients,
    MarginConfig,
    NormStats,
    _as_batch,
    _check_labels,
    _normalize_rows,
    _target_transform,
    adaface_margin_terms,
    head_loss_and_grads,
    init_prototypes,
    kd_loss_and_grads,
    sample_elastic_margins,
)
from fairkd.sampling import (
    DatasetManifest,
    group_quotas,
    identity_soft_label,
    largest_remainder,
    score_identity,
)
from fairkd.synthdata import (
    _STREAM_IMAGES,
    _stream,
    gen_identities,
    group_structure,
)
from fairkd.training import (
    Encoder,
    EpochStats,
    TrainResult,
    _augment_batch,
    _gather_training_set,
    lr_at_epoch,
    sgd_step,
)

FD_STEP = 1e-5


def fd_grad(f, x, step=FD_STEP):
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + step
        hi = f(x)
        x[idx] = orig - step
        lo = f(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2.0 * step)
    return g


def rel_grad_err(analytic, numeric):
    """Norm of the gradient difference, relative to the larger gradient norm."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
    return float(np.linalg.norm(a - n) / denom)


def head_cross_entropy(logits, y: int) -> float:
    """-log softmax(logits)[y], computed by the zero-margin arcface head.

    The scale is max |logit| and prototype i sits at cosine logit_i / scale
    from a unit embedding (in its own orthogonal plane), so the head's
    scaled-cosine logits equal the given ones up to rounding.
    """
    logits = np.asarray(logits, dtype=np.float64)
    scale = float(np.max(np.abs(logits))) or 1.0
    cos = logits / scale
    protos = np.zeros((cos.size, cos.size + 1))
    protos[:, 0] = cos
    protos[np.arange(cos.size), np.arange(1, cos.size + 1)] = np.sqrt(
        1.0 - cos * cos)
    embedding = np.eye(cos.size + 1)[0]
    return head_loss_and_grads(embedding, protos, y,
                               MarginConfig.arcface(s=scale, m=0.0)).loss


# ---------------------------------------------------------------------------
# Reference implementations: the margin head and the training loop as they
# were written before the in-place kernel and the flat parameter buffer.
# The optimized code must reproduce them bit for bit.


def ref_forward(embeddings, prototypes, labels, scale, ang, add):
    z, single = _as_batch(embeddings)
    w = np.asarray(prototypes, dtype=np.float64)
    if w.ndim != 2:
        raise DimensionMismatch(f"prototypes must be 2-D, got {w.shape}")
    if w.shape[1] != z.shape[1]:
        raise DimensionMismatch(
            f"embedding dim {z.shape[1]} != prototype dim {w.shape[1]}")
    b = z.shape[0]
    y = _check_labels(labels, w.shape[0], b)

    z_hat, z_norms = _normalize_rows(z, "embedding")
    w_hat, w_norms = _normalize_rows(w, "prototypes")
    cos = z_hat @ w_hat.T
    rows = np.arange(b)
    ang = np.broadcast_to(np.asarray(ang, dtype=np.float64), (b,))
    add = np.broadcast_to(np.asarray(add, dtype=np.float64), (b,))

    tgt, d_tgt = _target_transform(cos[rows, y], ang)
    logits = scale * cos
    logits[rows, y] = scale * (tgt - add)
    cache = (z, z_hat, z_norms, w_hat, w_norms, y, d_tgt, single)
    return logits, cache


def ref_margin_loss_and_grads(embeddings, prototypes, labels, scale, ang, add
                              ) -> HeadGradients:
    logits, cache = ref_forward(embeddings, prototypes, labels, scale, ang,
                                add)
    z, z_hat, z_norms, w_hat, w_norms, y, d_tgt, single = cache
    b = z.shape[0]
    rows = np.arange(b)

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    losses = np.log(exp.sum(axis=1)) - shifted[rows, y]
    loss = float(losses.mean())

    d_logits = probs.copy()
    d_logits[rows, y] -= 1.0
    d_logits /= b

    d_cos = scale * d_logits
    d_cos[rows, y] *= d_tgt

    d_z_hat = d_cos @ w_hat
    d_w_hat = d_cos.T @ z_hat
    d_z = (d_z_hat - np.sum(d_z_hat * z_hat, axis=1, keepdims=True) * z_hat
           ) / z_norms[:, None]
    d_w = (d_w_hat - np.sum(d_w_hat * w_hat, axis=1, keepdims=True) * w_hat
           ) / w_norms[:, None]
    return HeadGradients(loss, d_z[0] if single else d_z, d_w)


def ref_head_loss_and_grads(embeddings, prototypes, labels, cfg, rng=None,
                            stats=None) -> HeadGradients:
    z, single = _as_batch(embeddings)
    y = labels if not single else [labels]
    if cfg.kind == "arcface":
        out = ref_margin_loss_and_grads(z, prototypes, y, cfg.s, cfg.m, 0.0)
    elif cfg.kind == "elastic_arcface":
        margins = sample_elastic_margins(cfg, rng, z.shape[0])
        out = ref_margin_loss_and_grads(z, prototypes, y, cfg.s, margins, 0.0)
    else:
        norms = np.linalg.norm(z, axis=1)
        ang, add, safe = adaface_margin_terms(norms, cfg, stats)
        out = ref_margin_loss_and_grads(z, prototypes, y, cfg.s, ang, add)
        stats.update(safe, cfg.ema_momentum)
    if single:
        out.d_embedding = out.d_embedding[0]
    return out


def ref_train(spec, manifest, store, loss_cfg, cfg, teacher=None
              ) -> TrainResult:
    """The training loop with one SGD update per parameter array."""
    x, y, n_classes = _gather_training_set(manifest, store, spec.input_dim)
    encoder = Encoder(spec)
    prototypes = init_prototypes(n_classes, spec.embedding_dim, seed=cfg.seed)
    stats = NormStats.default() if loss_cfg.margin.kind == "adaface" else None
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    use_kd = teacher is not None and loss_cfg.kd_weight > 0.0

    params = encoder.parameters() + [prototypes]
    velocity = [np.zeros_like(p) for p in params]
    n = x.shape[0]
    trace = []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(epoch, cfg)
        order = rng.permutation(n)
        cls_sum = kd_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = _augment_batch(x[idx], cfg.hflip_prob, rng)
            yb = y[idx]

            emb, cache = encoder.forward_cached(xb)
            head = ref_head_loss_and_grads(emb, prototypes, yb,
                                           loss_cfg.margin, rng=rng,
                                           stats=stats)
            d_emb = head.d_embedding
            kd_val = 0.0
            if use_kd:
                t_emb = teacher.forward(xb)
                kd_val, _, d_student = kd_loss_and_grads(
                    t_emb, emb, normalized=loss_cfg.kd_on_normalized,
                    reduction=loss_cfg.kd_reduction)
                d_emb = d_emb + loss_cfg.kd_weight * d_student
            batch_total = head.loss + loss_cfg.kd_weight * kd_val
            if not math.isfinite(batch_total):
                raise DivergenceDetected(
                    f"non-finite loss {batch_total!r} at epoch {epoch}")

            grads = encoder.backward(cache, d_emb) + [head.d_prototypes]
            if cfg.weight_decay > 0.0:
                grads = [g + cfg.weight_decay * p
                         for g, p in zip(grads, params)]
            sgd_step(params, grads, lr, cfg.momentum, velocity)

            cls_sum += head.loss * idx.size
            kd_sum += kd_val * idx.size
        cls_mean = cls_sum / n
        kd_mean = kd_sum / n
        trace.append(EpochStats(epoch, lr, cls_mean, kd_mean,
                                cls_mean + loss_cfg.kd_weight * kd_mean))
    return TrainResult(encoder, prototypes, stats, trace,
                       rng_state=rng.bit_generator.state)


def assert_bitwise(actual, expected):
    """Same dtype, shape and bytes (so -0.0 and 0.0 differ, NaNs match)."""
    a, e = np.asarray(actual), np.asarray(expected)
    assert (a.dtype, a.shape) == (e.dtype, e.shape)
    assert a.tobytes() == e.tobytes()


# ---------------------------------------------------------------------------
# Reference scoring: one scalar cosine per pair, two encoder calls per pair,
# and the threshold sweep's tie loop, as they were before batch scoring.


def ref_cosine_similarity(a, b) -> float:
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or va.shape != vb.shape:
        raise DimensionMismatch(f"dimensions differ: {va.shape} vs {vb.shape}")
    if not (np.all(np.isfinite(va)) and np.all(np.isfinite(vb))):
        raise ZeroVector("non-finite components")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na <= ZERO_NORM_EPS or nb <= ZERO_NORM_EPS:
        raise ZeroVector("cosine similarity of a zero vector is undefined")
    cos = float(np.dot(va, vb) / (na * nb))
    return min(1.0, max(-1.0, cos))


def ref_score_pairs(encoder, group, store):
    out = []
    for p in group.pairs:
        feats = []
        for sid in (p.sample_a, p.sample_b):
            try:
                feats.append(store[sid])
            except KeyError:
                raise MissingSample(
                    f"group {group.name!r} references unknown sample {sid!r}"
                ) from None
        out.append((ref_cosine_similarity(encoder(feats[0]),
                                          encoder(feats[1])), p.same))
    return out


def ref_best_threshold_accuracy(scores, labels):
    s, y = _scores_labels(scores, labels)
    n = s.size
    if n == 0:
        raise EmptyInput("cannot pick a threshold from zero pairs")
    order = np.argsort(s, kind="stable")
    ss, yy = s[order], y[order]
    total_pos = int(yy.sum())
    neg_below = np.concatenate(([0], np.cumsum(~yy)))
    pos_above = total_pos - np.concatenate(([0], np.cumsum(yy)))
    correct = neg_below + pos_above

    best_cut = 0
    for i in range(1, n + 1):
        if i < n and ss[i - 1] == ss[i]:
            continue
        if correct[i] > correct[best_cut]:
            best_cut = i
    if best_cut == 0:
        threshold = -math.inf
    elif best_cut == n:
        threshold = math.inf
    else:
        threshold = float((ss[best_cut - 1] + ss[best_cut]) / 2.0)
    return threshold, 100.0 * float(correct[best_cut]) / n


# ---------------------------------------------------------------------------
# Reference universe generation: one noise draw per image. generate_universe
# draws each pool's noise in one call and must match this bitwise.


def ref_pool_features(cfg, pool):
    """{sample_id: feature} for one pool, in generation order."""
    structure = group_structure(cfg)
    rng = _stream(cfg.seed, _STREAM_IMAGES[pool])
    out = {}
    for ident in gen_identities(cfg, pool):
        clean = structure.maps[ident.group] @ ident.latent
        scale = cfg.noise_scales[ident.group]
        for j in range(cfg.images_per_identity):
            noise = rng.standard_normal(cfg.feature_dim)
            out[f"{ident.identity_id}_im{j:02d}"] = clean + scale * noise
    return out


# ---------------------------------------------------------------------------
# Reference merges: each pool checked and ranked on its own, each (group,
# source) cell filled by its own loop. balanced_merge and mix_merge fill
# their cells through one routine over one pooled ranking and must return
# the same entries, order and shortfalls, and raise the same error classes.


def _ref_pool_identities(manifests, expect_source=None):
    if not manifests:
        raise EmptyManifest("no manifests given")
    group_count = manifests[0].group_count
    entries_of = {}
    owner = {}
    for k, man in enumerate(manifests):
        if man.group_count != group_count:
            raise InvalidManifest(f"manifest {man.name!r}: group count")
        for e in man.entries:
            if expect_source is not None and e.source != expect_source:
                raise InvalidManifest(f"entry {e.sample_id}: source")
            prior = owner.setdefault(e.identity_id, k)
            if prior != k:
                raise DuplicateIdentityAcrossSources(e.identity_id)
            entries_of.setdefault(e.identity_id, []).append(e)
    if not entries_of:
        raise EmptyManifest("manifests contain no entries")

    by_group = [[] for _ in range(group_count)]
    for iid, ents in entries_of.items():
        sc = score_identity(identity_soft_label(ents), iid, ents[0].source)
        by_group[sc.group].append(sc)
    for bucket in by_group:
        bucket.sort(key=lambda sc: (-sc.score, sc.identity_id))
    return group_count, by_group, entries_of


def _ref_take(bucket, quota):
    return bucket[:quota], max(0, quota - len(bucket))


def ref_balanced_merge(manifests, total_identities, name="balanced"):
    group_count, by_group, entries_of = _ref_pool_identities(manifests)
    if total_identities < group_count:
        raise InvalidMergeRequest("total below group count")
    quotas = group_quotas(total_identities, group_count)
    entries, shortfalls = [], {}
    for g in range(group_count):
        kept, short = _ref_take(by_group[g], quotas[g])
        if short:
            shortfalls[f"group{g}"] = short
        for sc in kept:
            entries.extend(entries_of[sc.identity_id])
    return DatasetManifest(name, group_count, entries, shortfalls)


def ref_mix_merge(real_manifests, synthetic_manifests, real_fraction,
                  total_identities, name="mix"):
    if not 0.0 < real_fraction < 1.0:
        raise InvalidMergeRequest("real_fraction out of range")
    group_count, real_by_group, real_entries = _ref_pool_identities(
        real_manifests, expect_source="real")
    synth_count, synth_by_group, synth_entries = _ref_pool_identities(
        synthetic_manifests, expect_source="synthetic")
    if synth_count != group_count:
        raise InvalidManifest("pools disagree on group count")
    if set(real_entries) & set(synth_entries):
        raise DuplicateIdentityAcrossSources("identities in both pools")
    if total_identities < group_count:
        raise InvalidMergeRequest("total below group count")

    quotas = group_quotas(total_identities, group_count)
    real_total = largest_remainder(
        total_identities,
        [total_identities * real_fraction,
         total_identities * (1.0 - real_fraction)])[0]
    real_quotas = largest_remainder(
        real_total, [q * real_total / total_identities for q in quotas])

    entries, shortfalls = [], {}
    for g in range(group_count):
        cells = (("real", real_by_group[g], real_entries, real_quotas[g]),
                 ("synthetic", synth_by_group[g], synth_entries,
                  quotas[g] - real_quotas[g]))
        for source, bucket, pool, cell_quota in cells:
            kept, short = _ref_take(bucket, cell_quota)
            if short:
                shortfalls[f"group{g}/{source}"] = short
            for sc in kept:
                entries.extend(pool[sc.identity_id])
    return DatasetManifest(name, group_count, entries, shortfalls)
