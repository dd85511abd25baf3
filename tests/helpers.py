"""Shared test utilities: finite-difference gradients, error metrics,
bitwise reference implementations of the margin head and training loop, the
per-pair scorer, tie loop and fold-dealing loop that evaluation's batch paths
replaced, the per-image noise loop that the one-draw pool generator
replaced, the per-pool merges that the one quota-filling routine
replaced, the entry-by-entry manifest check and per-record manifest
writer that the column checks and the template writer replaced, and the
one-string document writer that the streamed writer replaced."""

import base64
import math

import numpy as np

from fairkd.core import ZERO_NORM_EPS
from fairkd.errors import (
    DimensionMismatch,
    DivergenceDetected,
    DuplicateIdentityAcrossSources,
    EmptyInput,
    EmptyManifest,
    IndexOutOfRange,
    InvalidArgument,
    InvalidManifest,
    InvalidMergeRequest,
    MissingSample,
    ZeroVector,
)
from fairkd.evaluation import _scores_labels
from fairkd.formats import FEATURES_SCHEMA, MANIFEST_SCHEMA, canonical_json
from fairkd.losses import (
    HeadGradients,
    MarginConfig,
    NormStats,
    adaface_margin_terms,
    head_loss_and_grads,
    init_prototypes,
    sample_elastic_margins,
)
from fairkd.sampling import (
    SOFT_LABEL_SUM_TOL,
    SOURCES,
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
# The optimized code must reproduce them bit for bit. The head's helpers and
# the loop's batch flip and feature gathering are frozen copies too, so the
# reference never follows a rewrite of losses or training.

_GRAD_COS_CLAMP = 1e-7


def _as_batch(embeddings, name: str = "embedding"):
    z = np.asarray(embeddings, dtype=np.float64)
    single = z.ndim == 1
    z = np.atleast_2d(z)
    if z.ndim != 2:
        raise DimensionMismatch(f"{name} must be 1-D or 2-D, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ZeroVector(f"{name} contains non-finite components")
    return z, single


def _normalize_rows(m: np.ndarray, what: str):
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms <= ZERO_NORM_EPS):
        raise ZeroVector(f"{what} contains a zero row")
    return m / norms[:, None], norms


def _check_labels(labels, n_classes: int, batch: int) -> np.ndarray:
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if y.shape != (batch,):
        raise DimensionMismatch(f"labels shape {y.shape} != ({batch},)")
    if np.any(y < 0) or np.any(y >= n_classes):
        raise IndexOutOfRange(f"label outside [0, {n_classes})")
    return y


def _target_transform(cos_y: np.ndarray, ang: np.ndarray):
    """cos(theta_y + ang) with the standard monotone continuation past pi.

    Returns the transformed target cosine and its derivative w.r.t. cos_y.
    ang == 0 passes cos_y through bitwise, so a zero-margin head equals plain
    scaled-cosine logits exactly.
    """
    c = np.clip(cos_y, -1.0, 1.0)
    theta = np.arccos(c)
    shifted = theta + ang
    past_pi = shifted > np.pi
    zero_margin = ang == 0.0

    with np.errstate(invalid="ignore"):
        tgt = np.where(
            zero_margin,
            cos_y,
            np.where(past_pi, cos_y - ang * np.sin(ang), np.cos(shifted)),
        )
    # Derivative clamped near the arccos poles; forward stays exact.
    c_safe = np.clip(cos_y, -1.0 + _GRAD_COS_CLAMP, 1.0 - _GRAD_COS_CLAMP)
    d_interior = np.sin(shifted) / np.sqrt(1.0 - c_safe * c_safe)
    d_tgt = np.where(zero_margin | past_pi, 1.0, d_interior)
    return tgt, d_tgt



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


def ref_kd_loss_and_grads(teacher_emb, student_emb, normalized=False,
                          reduction="mean"):
    t, t_single = _as_batch(teacher_emb, "teacher embedding")
    s, s_single = _as_batch(student_emb, "student embedding")
    if t.shape != s.shape:
        raise DimensionMismatch(f"embedding shapes differ: {t.shape} vs {s.shape}")
    b, d = t.shape
    denom = b * (d if reduction == "mean" else 1)

    if normalized:
        t_hat, t_norms = _normalize_rows(t, "teacher embedding")
        s_hat, s_norms = _normalize_rows(s, "student embedding")
        diff = t_hat - s_hat
        loss = float(np.sum(diff * diff) / denom)
        g_t_hat = 2.0 * diff / denom
        g_s_hat = -g_t_hat
        d_t = (g_t_hat - np.sum(g_t_hat * t_hat, axis=1, keepdims=True)
               * t_hat) / t_norms[:, None]
        d_s = (g_s_hat - np.sum(g_s_hat * s_hat, axis=1, keepdims=True)
               * s_hat) / s_norms[:, None]
    else:
        diff = t - s
        loss = float(np.sum(diff * diff) / denom)
        d_t = 2.0 * diff / denom
        d_s = -d_t

    if t_single and s_single:
        d_t, d_s = d_t[0], d_s[0]
    return loss, d_t, d_s


def _augment_batch(xb: np.ndarray, p: float, rng: np.random.Generator):
    mask = rng.random(xb.shape[0]) < p
    if mask.any():
        xb = xb.copy()
        xb[mask] = xb[mask, ::-1]
    return xb


def _gather_training_set(manifest: DatasetManifest, store, input_dim: int):
    if not manifest.entries:
        raise EmptyManifest(f"manifest {manifest.name!r} has no entries")
    labels_of = manifest.dense_labels()
    feats = []
    for e in manifest.entries:
        try:
            feats.append(np.asarray(store[e.payload_ref], dtype=np.float64))
        except KeyError:
            raise MissingSample(
                f"feature store cannot resolve {e.payload_ref!r}") from None
    x = np.stack(feats)
    if x.shape[1] != input_dim:
        raise DimensionMismatch(
            f"features have dim {x.shape[1]}, encoder expects {input_dim}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        bad = manifest.entries[int(finite.argmin())].sample_id
        raise InvalidArgument(f"sample {bad!r} has a non-finite feature vector")
    y = np.array([labels_of[e.identity_id] for e in manifest.entries],
                 dtype=np.int64)
    return x, y, len(labels_of)


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
                kd_val, _, d_student = ref_kd_loss_and_grads(
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


def ref_stratified_fold_indices(labels, k: int, seed: int):
    """The loop that dealt fold items one at a time, before slicing."""
    y = np.asarray(labels, dtype=bool)
    rng = np.random.Generator(np.random.PCG64(seed))
    pos = rng.permutation(np.flatnonzero(y))
    neg = rng.permutation(np.flatnonzero(~y))
    folds: list[list[int]] = [[] for _ in range(k)]
    for j, idx in enumerate(pos):
        folds[j % k].append(int(idx))
    for j, idx in enumerate(neg):
        folds[(pos.size + j) % k].append(int(idx))
    return [np.array(f, dtype=np.int64) for f in folds]


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


# ---------------------------------------------------------------------------
# Reference manifest codec: DatasetManifest.validate as the entry-by-entry
# loop it was before the column checks, and write_manifest's text as one
# canonical_json call per record. The column checks must raise the same
# message, and the template writer must write the same bytes.


def ref_validate(group_count, entries):
    """Raise InvalidManifest on the first malformed entry or duplicate."""
    if group_count < 1:
        raise InvalidManifest(f"group_count must be >= 1, got {group_count}")
    seen_samples = set()
    source_of = {}
    for e in entries:
        if e.source not in SOURCES:
            raise InvalidManifest(f"entry {e.sample_id}: unknown source {e.source!r}")
        if len(e.soft_labels) != group_count:
            raise InvalidManifest(
                f"entry {e.sample_id}: {len(e.soft_labels)} soft labels, "
                f"expected {group_count}")
        if any(not math.isfinite(p) or p < 0.0 for p in e.soft_labels):
            raise InvalidManifest(f"entry {e.sample_id}: soft labels must be >= 0")
        if abs(sum(e.soft_labels) - 1.0) > SOFT_LABEL_SUM_TOL:
            raise InvalidManifest(f"entry {e.sample_id}: soft labels sum to "
                                  f"{sum(e.soft_labels)!r}, not 1")
        if e.sample_id in seen_samples:
            raise InvalidManifest(f"duplicate sample_id {e.sample_id!r}")
        seen_samples.add(e.sample_id)
        prior = source_of.setdefault(e.identity_id, e.source)
        if prior != e.source:
            raise InvalidManifest(
                f"identity {e.identity_id!r} mixes sources {prior} and {e.source}")


def ref_manifest_text(manifest, extra_header=None):
    """The text write_manifest writes, one canonical_json call per line."""
    header = {"schema": MANIFEST_SCHEMA, "name": manifest.name,
              "group_count": manifest.group_count,
              "shortfalls": dict(manifest.shortfalls), **(extra_header or {})}
    records = [{"sample_id": e.sample_id, "identity_id": e.identity_id,
                "source": e.source, "soft_labels": list(e.soft_labels),
                "payload_ref": e.payload_ref} for e in manifest.entries]
    return "\n".join(map(canonical_json, [header, *records])) + "\n"


def ref_doc_text(schema, body, extra_header=None, records=()):
    """The text write_doc writes, built as one string: the header through one
    canonical_json call, joined with the record lines, plus a newline."""
    header = {"schema": schema, **body, **(extra_header or {})}
    return "\n".join([canonical_json(header), *records]) + "\n"


def ref_features_text(features, extra_header=None):
    """The text write_features writes, built from one base64 string of the
    whole matrix, cut into lines of the base64 of 192 KiB each."""
    ids = sorted(features)
    matrix = (np.array([features[sid] for sid in ids], dtype=np.float64)
              if ids else np.zeros((0, 0)))
    data = base64.b64encode(matrix.astype("<f8").tobytes()).decode("ascii")
    size = 192 * 1024 // 3 * 4
    return ref_doc_text(FEATURES_SCHEMA, {"ids": ids, "dim": matrix.shape[1]},
                        extra_header, [canonical_json(data[i:i + size])
                                       for i in range(0, len(data), size)])
