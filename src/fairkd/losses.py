"""Margin-based classification heads and the embedding-distillation objective.

Three heads share one parametric core: the target class logit is
``s * (cos(theta_y + ang) - add)`` while non-target logits stay ``s * cos``.

    arcface:          ang = m,                add = 0
    elastic_arcface:  ang ~ Normal(m, std),   add = 0   (drawn per call)
    adaface:          ang = -m * norm_hat,    add = m * norm_hat + m

where ``norm_hat`` rescales the raw (pre-normalization) feature norm against
running statistics, so low-norm (low-quality) samples receive a weaker
margin. All gradient code treats ang/add as per-call constants: the sampled
elastic margin and the norm-adaptive terms steer the geometry of the loss but
are not themselves differentiated through. Every head runs one kernel on
inputs validated once by the public function: it builds the (B, C) logits and
turns that buffer in place into the softmax and then d_loss/d_cos, reaching
each row's target through one flat index ``t = arange(0, B*C, C) + y``. Its
in-place steps apply the out-of-place formulas' float operations to each
element in the same order, so trained models stay bitwise identical; ``/ b``
then ``* s`` stay two steps, as one ``* (s / b)`` rounds differently.

The distillation term is the mean squared difference between teacher and
student embeddings; the combined objective is
``classification_loss + kd_weight * kd_loss``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_fields, row_norms, rule
from .errors import (
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    InvalidArgument,
    ZeroVector,
)

MARGIN_KINDS = ("arcface", "elastic_arcface", "adaface")
KD_REDUCTIONS = ("mean", "sum")

# Raw feature norms are clipped into this range before entering the AdaFace
# statistics, so a single exploding sample cannot poison the running mean.
ADAFACE_NORM_MIN = 0.001
ADAFACE_NORM_MAX = 100.0

# Backward-pass clamp: keeps d(arccos)/d(cos) finite near the poles. The
# forward pass is exact (cos clipped to [-1, 1] only), so reference values
# like s*cos(m) at theta=0 hold to full precision.
_GRAD_COS_CLAMP = 1e-7
_STD_FLOOR = 1e-6


@dataclass(frozen=True)
class MarginConfig:
    """Head selection plus its scalar parameters.

    std is only read by elastic_arcface; h and ema_momentum only by adaface.
    """

    kind: str = rule(str, "arcface", choices=MARGIN_KINDS)
    s: float = rule(float, 64.0, gt=0)
    m: float = rule(float, 0.5, ge=0, lt=math.pi / 2)
    std: float = rule(float, 0.0, ge=0)
    h: float = rule(float, 0.333, gt=0)
    ema_momentum: float = rule(float, 0.01, gt=0, le=1)

    __post_init__ = check_fields

    @classmethod
    def arcface(cls, s: float = 64.0, m: float = 0.5) -> "MarginConfig":
        return cls(kind="arcface", s=s, m=m)

    @classmethod
    def elastic_arcface(cls, s: float = 64.0, m: float = 0.5,
                        std: float = 0.05) -> "MarginConfig":
        return cls(kind="elastic_arcface", s=s, m=m, std=std)

    @classmethod
    def adaface(cls, s: float = 60.0, m: float = 0.4, h: float = 0.333,
                ema_momentum: float = 0.01) -> "MarginConfig":
        return cls(kind="adaface", s=s, m=m, h=h, ema_momentum=ema_momentum)


@dataclass(frozen=True)
class LossConfig:
    """Combined objective: classification head plus weighted distillation."""

    margin: MarginConfig = rule(MarginConfig, MarginConfig)
    kd_weight: float = rule(float, 1.0, ge=0)
    kd_on_normalized: bool = rule(bool, False)
    kd_reduction: str = rule(str, "mean", choices=KD_REDUCTIONS)

    __post_init__ = check_fields


@dataclass
class NormStats:
    """Running EMA of feature norms, which the adaface head updates in place."""

    mean_norm: float
    std_norm: float

    @classmethod
    def default(cls) -> "NormStats":
        # Wide prior so early batches get a near-neutral margin.
        return cls(mean_norm=20.0, std_norm=100.0)

    def update(self, norms: np.ndarray, momentum: float) -> None:
        """Fold a batch of clipped feature norms into the running stats."""
        if norms.size == 0:
            raise InvalidArgument("NormStats cannot fold in an empty batch")
        batch_mean = float(np.mean(norms))
        batch_std = float(np.std(norms)) if norms.size > 1 else 0.0
        self.mean_norm = (1.0 - momentum) * self.mean_norm + momentum * batch_mean
        new_std = (1.0 - momentum) * self.std_norm + momentum * batch_std
        self.std_norm = max(new_std, _STD_FLOOR)


@dataclass
class HeadGradients:
    """Loss value with gradients w.r.t. raw embeddings and raw prototypes."""

    loss: float
    d_embedding: np.ndarray
    d_prototypes: np.ndarray


def init_prototypes(n_classes: int, dim: int, seed: int) -> np.ndarray:
    """Random class-prototype matrix (n_classes, dim), rows near unit scale."""
    if n_classes < 1 or dim < 1:
        raise InvalidArgument("n_classes and dim must be positive")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    w = rng.standard_normal((n_classes, dim))
    return w / math.sqrt(dim)


def _as_batch(embeddings, name: str = "embedding"):
    z = np.asarray(embeddings, dtype=np.float64)
    single = z.ndim == 1
    z = np.atleast_2d(z)
    if z.ndim != 2:
        raise DimensionMismatch(f"{name} must be 1-D or 2-D, got {z.shape}")
    if z.size == 0:
        raise EmptyInput(f"{name} batch is empty, shape {z.shape}")
    return z, single


def _normalize_rows(m: np.ndarray, what: str, norms=None):
    """(rows / norms, norms), with norms from core.row_norms unless given."""
    norms = row_norms(m, what) if norms is None else norms
    return m / norms[:, None], norms


def _through_normalization(d_hat, hat, norms):
    """Carry a gradient w.r.t. row-normalized rows back to the raw rows."""
    return (d_hat - np.add.reduce(d_hat * hat, axis=1, keepdims=True) * hat
            ) / norms[:, None]


def _target_transform(cos_y: np.ndarray, ang):
    """cos(theta_y + ang) with the standard monotone continuation past pi.

    Returns the transformed target cosine and its derivative w.r.t. cos_y.
    Entries past pi and zero-margin entries share the continuation branch:
    there ``cos_y - 0 * sin(0)`` is cos_y bitwise (-0.0 included), so a
    zero-margin head equals plain scaled-cosine logits exactly.
    """
    shifted = np.arccos(np.minimum(np.maximum(cos_y, -1.0), 1.0)) + ang
    plain = (shifted > np.pi) | (ang == 0.0)
    tgt = np.where(plain, cos_y - ang * np.sin(ang), np.cos(shifted))
    # Derivative clamped near the arccos poles; forward stays exact.
    c_safe = np.minimum(np.maximum(cos_y, -1.0 + _GRAD_COS_CLAMP),
                        1.0 - _GRAD_COS_CLAMP)
    return tgt, np.where(plain, 1.0,
                         np.sin(shifted) / np.sqrt(1.0 - c_safe * c_safe))


def _validate(embeddings, prototypes, labels):
    """(z, w, y, single): the public heads' inputs, checked once."""
    z, single = _as_batch(embeddings)
    w = np.asarray(prototypes, dtype=np.float64)
    if w.ndim != 2:
        raise DimensionMismatch(f"prototypes must be 2-D, got {w.shape}")
    if w.shape[1] != z.shape[1]:
        raise DimensionMismatch(
            f"embedding dim {z.shape[1]} != prototype dim {w.shape[1]}")
    y = np.atleast_1d(np.asarray(labels))
    if y.shape != (z.shape[0],):
        raise DimensionMismatch(f"labels shape {y.shape} != ({z.shape[0]},)")
    if y.dtype.kind not in "iu":
        raise InvalidArgument(f"labels must be integers, got dtype {y.dtype}")
    if np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= w.shape[0]:
        raise IndexOutOfRange(f"label outside [0, {w.shape[0]})")
    return z, w, y.astype(np.int64, copy=False), single


def _check_margins(b: int, ang, add) -> None:
    """Refuse a margin that is neither a scalar nor one value per row."""
    for margin in (ang, add):
        if np.shape(margin) not in ((), (b,)):
            raise DimensionMismatch(
                f"margin shape {np.shape(margin)} is neither () nor ({b},)")


def _logits(z, w, y, scale, ang, add, z_norms=None):
    """(B, C) margin logits of validated arrays, plus the backward's cache."""
    z_hat, z_norms = _normalize_rows(z, "embedding", z_norms)
    w_hat, w_norms = _normalize_rows(w, "prototypes")
    logits = z_hat @ w_hat.T
    flat = logits.reshape(-1)
    t = np.arange(0, flat.size, w.shape[0]) + y
    tgt, d_tgt = _target_transform(flat[t], np.asarray(ang, dtype=np.float64))
    logits *= scale
    flat[t] = scale * (tgt - add)
    return logits, (t, z_hat, z_norms, w_hat, w_norms, d_tgt)


def _loss_and_grads(z, w, y, single, scale, ang, add, z_norms=None):
    """The margin head on validated arrays: a HeadGradients."""
    buf, (t, z_hat, z_norms, w_hat, w_norms, d_tgt) = _logits(
        z, w, y, scale, ang, add, z_norms)
    flat, b = buf.reshape(-1), t.size
    buf -= np.maximum.reduce(buf, axis=1, keepdims=True)
    shifted_y = flat[t]
    np.exp(buf, out=buf)
    sums = np.add.reduce(buf, axis=1)
    buf /= sums[:, None]
    loss = float(np.add.reduce(np.log(sums) - shifted_y) / b)
    p_y = flat[t]
    buf /= b
    buf *= scale
    flat[t] = (p_y - 1.0) / b * scale * d_tgt

    d_z = _through_normalization(buf @ w_hat, z_hat, z_norms)
    return HeadGradients(loss, d_z[0] if single else d_z,
                         _through_normalization(buf.T @ z_hat, w_hat, w_norms))


def margin_logits(embeddings, prototypes, labels, scale, ang_margin,
                  add_margin=0.0) -> np.ndarray:
    """Parametric head: explicit angular and additive margins per sample.

    Accepts a single (D,) embedding with an int label or a (B, D) batch with
    a (B,) label vector; margins may be scalars or per-sample vectors.
    """
    z, w, y, single = _validate(embeddings, prototypes, labels)
    _check_margins(z.shape[0], ang_margin, add_margin)
    logits = _logits(z, w, y, scale, ang_margin, add_margin)[0]
    return logits[0] if single else logits


def sample_elastic_margins(cfg: MarginConfig, rng: np.random.Generator,
                           size: int) -> np.ndarray:
    """Per-sample margins m_i ~ Normal(m, std); std=0 degenerates to m."""
    return rng.normal(cfg.m, cfg.std, size=size)


def adaface_margin_terms(raw_norms: np.ndarray, cfg: MarginConfig,
                         stats: NormStats):
    """(ang, add, clipped norms) for the norm-adaptive margin.

    norm_hat = clip((|z| - mean) / (std / h), -1, 1); high-norm samples get
    the full angular penalty, low-norm samples a mostly additive one.
    """
    if stats is None:
        raise InvalidArgument("adaface requires NormStats")
    safe = np.minimum(np.maximum(raw_norms, ADAFACE_NORM_MIN), ADAFACE_NORM_MAX)
    norm_hat = np.minimum(np.maximum(
        (safe - stats.mean_norm) / (stats.std_norm / cfg.h), -1.0), 1.0)
    ang = -cfg.m * norm_hat
    add = cfg.m * norm_hat + cfg.m
    return ang, add, safe


def margin_loss_and_grads(embeddings, prototypes, labels, scale, ang, add
                          ) -> HeadGradients:
    """Mean cross-entropy over the batch with analytic gradients.

    Margins are per-call constants; gradients flow through the cosine
    geometry (including row normalization of embeddings and prototypes) only.
    """
    z, w, y, single = _validate(embeddings, prototypes, labels)
    _check_margins(z.shape[0], ang, add)
    return _loss_and_grads(z, w, y, single, scale, ang, add)


def head_loss_and_grads(embeddings, prototypes, labels, cfg: MarginConfig,
                        rng: np.random.Generator | None = None,
                        stats: NormStats | None = None) -> HeadGradients:
    """Dispatch to the configured head and return loss plus gradients.

    elastic_arcface draws its margins from rng here; adaface reads and then
    EMA-updates stats. Both extras are treated as constants for the backward
    pass, matching the forward-only margin_logits.
    """
    z, w, y, single = _validate(embeddings, prototypes, labels)
    ang, add, norms = cfg.m, 0.0, None
    if cfg.kind == "elastic_arcface":
        if rng is None:
            raise InvalidArgument("elastic_arcface requires an rng")
        ang = sample_elastic_margins(cfg, rng, z.shape[0])
    elif cfg.kind == "adaface":
        norms = row_norms(z, "embedding")
        ang, add, safe = adaface_margin_terms(norms, cfg, stats)
    out = _loss_and_grads(z, w, y, single, cfg.s, ang, add, norms)
    if cfg.kind == "adaface":
        stats.update(safe, cfg.ema_momentum)
    return out


def kd_loss_and_grads(teacher_emb, student_emb, normalized: bool = False,
                      reduction: str = "mean"):
    """(loss, d_teacher, d_student) for the embedding-matching term.

    With normalized=True the squared difference is taken between the
    l2-normalized embeddings and gradients flow through the normalization.
    Batch inputs (B, D) average the per-sample loss over the batch.
    """
    if reduction not in KD_REDUCTIONS:
        raise InvalidArgument(f"unknown reduction {reduction!r}")
    t, t_single = _as_batch(teacher_emb, "teacher embedding")
    s, s_single = _as_batch(student_emb, "student embedding")
    if t.shape != s.shape:
        raise DimensionMismatch(f"embedding shapes differ: {t.shape} vs {s.shape}")
    b, d = t.shape
    denom = b * (d if reduction == "mean" else 1)

    if normalized:
        t, t_norms = _normalize_rows(t, "teacher embedding")
        s, s_norms = _normalize_rows(s, "student embedding")
    diff = t - s
    loss = float(np.add.reduce(diff * diff, axis=None) / denom)
    if not math.isfinite(loss):
        raise ZeroVector(f"KD loss is {loss}: an embedding is non-finite or huge")
    d_t = 2.0 * diff / denom
    d_s = -d_t
    if normalized:
        d_t = _through_normalization(d_t, t, t_norms)
        d_s = _through_normalization(d_s, s, s_norms)

    if t_single and s_single:
        d_t, d_s = d_t[0], d_s[0]
    return loss, d_t, d_s
