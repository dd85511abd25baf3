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
turns that buffer in place into the softmax and then d_loss/d_cos.

The distillation term is the mean squared difference between teacher and
student embeddings; the combined objective is
``classification_loss + kd_weight * kd_loss``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ZERO_NORM_EPS
from .errors import (
    ConfigError,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArgument,
    UninitializedStats,
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


@dataclass
class MarginConfig:
    """Head selection plus its scalar parameters.

    std is only read by elastic_arcface; h and ema_momentum only by adaface.
    """

    kind: str = "arcface"
    s: float = 64.0
    m: float = 0.5
    std: float = 0.0
    h: float = 0.333
    ema_momentum: float = 0.01

    def __post_init__(self):
        if self.kind not in MARGIN_KINDS:
            raise ConfigError(f"unknown margin kind {self.kind!r}")
        if not self.s > 0:
            raise ConfigError("scale s must be positive")
        if not 0.0 <= self.m < math.pi / 2:
            raise ConfigError("margin m must lie in [0, pi/2)")
        if self.std < 0:
            raise ConfigError("std must be non-negative")
        if not self.h > 0:
            raise ConfigError("h must be positive")
        if not 0.0 < self.ema_momentum <= 1.0:
            raise ConfigError("ema_momentum must lie in (0, 1]")

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


@dataclass
class LossConfig:
    """Combined objective: classification head plus weighted distillation."""

    margin: MarginConfig = field(default_factory=MarginConfig)
    kd_weight: float = 1.0
    kd_on_normalized: bool = False
    kd_reduction: str = "mean"

    def __post_init__(self):
        if self.kd_weight < 0:
            raise ConfigError("kd_weight must be non-negative")
        if self.kd_reduction not in KD_REDUCTIONS:
            raise ConfigError("kd_reduction must be 'mean' or 'sum'")


@dataclass
class NormStats:
    """Running EMA of feature norms for the adaface head.

    Construct with explicit values (or via .default()) before first use;
    passing an unset instance to the head raises UninitializedStats.
    """

    mean_norm: float | None = None
    std_norm: float | None = None

    @classmethod
    def default(cls) -> "NormStats":
        # Wide prior so early batches get a near-neutral margin.
        return cls(mean_norm=20.0, std_norm=100.0)

    @property
    def initialized(self) -> bool:
        return self.mean_norm is not None and self.std_norm is not None

    def update(self, norms: np.ndarray, momentum: float) -> None:
        """Fold a batch of clipped feature norms into the running stats."""
        if not self.initialized:
            raise UninitializedStats("NormStats used before initialization")
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
    rng = np.random.Generator(np.random.PCG64(seed))
    w = rng.standard_normal((n_classes, dim))
    return w / math.sqrt(dim)


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


def _through_normalization(d_hat, hat, norms):
    """Carry a gradient w.r.t. row-normalized rows back to the raw rows."""
    return (d_hat - np.sum(d_hat * hat, axis=1, keepdims=True) * hat
            ) / norms[:, None]


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


def _validate(embeddings, prototypes, labels):
    """(z, w, y, single): the public heads' inputs, checked once."""
    z, single = _as_batch(embeddings)
    w = np.asarray(prototypes, dtype=np.float64)
    if w.ndim != 2:
        raise DimensionMismatch(f"prototypes must be 2-D, got {w.shape}")
    if w.shape[1] != z.shape[1]:
        raise DimensionMismatch(
            f"embedding dim {z.shape[1]} != prototype dim {w.shape[1]}")
    return z, w, _check_labels(labels, w.shape[0], z.shape[0]), single


def _logits(z, w, y, scale, ang, add):
    """(B, C) margin logits of validated arrays, plus the backward's cache."""
    z_hat, z_norms = _normalize_rows(z, "embedding")
    w_hat, w_norms = _normalize_rows(w, "prototypes")
    logits = z_hat @ w_hat.T
    rows = np.arange(z.shape[0])
    ang = np.broadcast_to(np.asarray(ang, dtype=np.float64), rows.shape)
    tgt, d_tgt = _target_transform(logits[rows, y], ang)
    logits *= scale
    logits[rows, y] = scale * (tgt - add)
    return logits, (rows, z_hat, z_norms, w_hat, w_norms, d_tgt)


def _loss_and_grads(z, w, y, single, scale, ang, add) -> HeadGradients:
    """The margin head on validated arrays. Its in-place steps keep the
    operation order of the out-of-place formulas, so every bit is kept."""
    buf, (rows, z_hat, z_norms, w_hat, w_norms, d_tgt) = _logits(
        z, w, y, scale, ang, add)
    buf -= buf.max(axis=1, keepdims=True)
    shifted_y = buf[rows, y]
    np.exp(buf, out=buf)
    sums = buf.sum(axis=1)
    buf /= sums[:, None]
    loss = float((np.log(sums) - shifted_y).mean())
    buf[rows, y] -= 1.0
    buf /= rows.size
    buf *= scale
    buf[rows, y] *= d_tgt

    d_z_hat = buf @ w_hat
    d_w_hat = buf.T @ z_hat
    d_z = _through_normalization(d_z_hat, z_hat, z_norms)
    return HeadGradients(loss, d_z[0] if single else d_z,
                         _through_normalization(d_w_hat, w_hat, w_norms))


def margin_logits(embeddings, prototypes, labels, scale, ang_margin,
                  add_margin=0.0) -> np.ndarray:
    """Parametric head: explicit angular and additive margins per sample.

    Accepts a single (D,) embedding with an int label or a (B, D) batch with
    a (B,) label vector; margins may be scalars or per-sample vectors.
    """
    z, w, y, single = _validate(embeddings, prototypes, labels)
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
    if stats is None or not stats.initialized:
        raise UninitializedStats("adaface requires initialized NormStats")
    safe = np.clip(raw_norms, ADAFACE_NORM_MIN, ADAFACE_NORM_MAX)
    norm_hat = np.clip((safe - stats.mean_norm) / (stats.std_norm / cfg.h),
                       -1.0, 1.0)
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
    ang, add = cfg.m, 0.0
    if cfg.kind == "elastic_arcface":
        if rng is None:
            raise InvalidArgument("elastic_arcface requires an rng")
        ang = sample_elastic_margins(cfg, rng, z.shape[0])
    elif cfg.kind == "adaface":
        ang, add, safe = adaface_margin_terms(np.linalg.norm(z, axis=1), cfg,
                                              stats)
    out = _loss_and_grads(z, w, y, single, cfg.s, ang, add)
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
        t_hat, t_norms = _normalize_rows(t, "teacher embedding")
        s_hat, s_norms = _normalize_rows(s, "student embedding")
        diff = t_hat - s_hat
        loss = float(np.sum(diff * diff) / denom)
        g_t_hat = 2.0 * diff / denom
        g_s_hat = -g_t_hat
        d_t = _through_normalization(g_t_hat, t_hat, t_norms)
        d_s = _through_normalization(g_s_hat, s_hat, s_norms)
    else:
        diff = t - s
        loss = float(np.sum(diff * diff) / denom)
        d_t = 2.0 * diff / denom
        d_s = -d_t

    if t_single and s_single:
        d_t, d_s = d_t[0], d_s[0]
    return loss, d_t, d_s
