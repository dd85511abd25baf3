"""From-scratch and distillation training loops over small dense encoders.

The encoders are fully-connected stacks; the distillation mechanism only
touches the embedding interface, so nothing here depends on a particular
backbone. Both loops share one batch engine so that a distillation run with
kd_weight=0 consumes the random stream identically to a from-scratch run and
produces a bitwise-identical loss trace.

Determinism contract: (encoder init_seed, train seed, config, manifest,
feature store) fully determine every parameter trajectory. The loop is
single-threaded on purpose. Checkpoints are read and written by formats.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .core import check_fields, feature_rows, rule
from .errors import (
    ConfigError,
    DimensionMismatch,
    DivergenceDetected,
    EmptyManifest,
    EpochOutOfRange,
    FrozenViolation,
    InvalidArgument,
    ShapeMismatch,
    ZeroVector,
)
from .losses import (
    LossConfig,
    NormStats,
    head_loss_and_grads,
    init_prototypes,
    kd_loss_and_grads,
)
from .sampling import DatasetManifest

# name -> (activation, its derivative given the pre-activation and output);
# relu's derivative stays a bool mask, which a float product reads as 0 or 1.
_ACTIVATIONS = {
    "relu": (lambda pre: np.maximum(pre, 0.0), lambda pre, out: pre > 0.0),
    "tanh": (np.tanh, lambda pre, out: 1.0 - out * out),
    "identity": (lambda pre: pre, lambda pre, out: np.ones_like(pre)),
}


@dataclass(frozen=True)
class EncoderSpec:
    """Shape and initialization of a fully-connected embedding encoder."""

    input_dim: int = rule(int, ge=1)
    hidden_widths: tuple[int, ...] = rule(tuple[int, ...], ge=1)
    embedding_dim: int = rule(int, ge=1)
    activation: str = rule(str, "relu", choices=tuple(_ACTIVATIONS))
    init_seed: int = rule(int, 0, ge=0)

    __post_init__ = check_fields

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, self.embedding_dim)


class Encoder:
    """Dense feature-to-embedding map with hand-rolled forward/backward."""

    def __init__(self, spec: EncoderSpec):
        self.spec = spec
        rng = np.random.Generator(np.random.PCG64(spec.init_seed))
        dims = spec.layer_dims
        self.weights = [rng.standard_normal((dims[i], dims[i + 1]))
                        * math.sqrt(2.0 / dims[i])
                        for i in range(len(dims) - 1)]
        self.biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def _layers(self, x, cache: list | None = None) -> np.ndarray:
        """Embeddings of x; appends (input, pre-activation, output) per
        layer to cache when one is given."""
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if h.shape[1] != self.spec.input_dim:
            raise DimensionMismatch(
                f"encoder expects input dim {self.spec.input_dim}, "
                f"got {h.shape[1]}")
        act = _ACTIVATIONS[self.spec.activation][0]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = h @ w + b
            out = pre if i == last else act(pre)
            if cache is not None:
                cache.append((h, pre, out))
            h = out
        return h

    def forward(self, x) -> np.ndarray:
        """Embeddings for a (B, input_dim) batch or a single feature vector."""
        h = self._layers(x)
        return h[0] if np.asarray(x).ndim == 1 else h

    def forward_cached(self, x):
        """Forward pass keeping per-layer inputs and pre-activations."""
        cache = []
        return self._layers(x, cache), cache

    def backward(self, cache, d_embedding) -> list[np.ndarray]:
        """Gradients for every parameter, ordered like parameters()."""
        d_out = np.asarray(d_embedding, dtype=np.float64)
        if d_out.shape != (shape := cache[-1][2].shape):
            raise DimensionMismatch(f"gradient {d_out.shape} for output {shape}")
        grads: list[np.ndarray] = []
        act_grad = _ACTIVATIONS[self.spec.activation][1]
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            inp, pre, out = cache[i]
            d_pre = d_out if i == last else d_out * act_grad(pre, out)
            grads.insert(0, np.add.reduce(d_pre, axis=0))  # bias
            grads.insert(0, inp.T @ d_pre)                 # weight
            if i > 0:
                d_out = d_pre @ self.weights[i].T
        return grads

    def param_digest(self) -> str:
        """SHA-256 over all parameter bytes; pins the frozen-teacher contract."""
        h = hashlib.sha256()
        for p in self.parameters():
            h.update(str(p.shape).encode())
            h.update(p.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer schedule and loop controls.

    Defaults mirror the reference regimen (26 epochs, batch 256, lr 0.1
    decayed by 10 at epochs 8/14/20/25, SGD momentum 0.9, flips only).
    """

    epochs: int = rule(int, 26, ge=0)
    batch_size: int = rule(int, 256, ge=1)
    base_lr: float = rule(float, 0.1, gt=0)
    lr_milestones: tuple[int, ...] = rule(tuple[int, ...], (8, 14, 20, 25))
    lr_factor: float = rule(float, 10.0, gt=1)
    momentum: float = rule(float, 0.9, ge=0, lt=1)
    weight_decay: float = rule(float, 0.0, ge=0)
    hflip_prob: float = rule(float, 0.5, ge=0, le=1)
    seed: int = rule(int, 0, ge=0)

    def __post_init__(self):
        check_fields(self)
        chain = (-1, *self.lr_milestones, self.epochs)
        if any(b <= a for a, b in zip(chain, chain[1:])):
            raise ConfigError(f"milestones {self.lr_milestones} must increase "
                              f"within [0, epochs) = [0, {self.epochs})")


def lr_at_epoch(epoch: int, cfg: TrainConfig) -> float:
    """base_lr divided by factor^(milestones passed); boundary-inclusive."""
    if not 0 <= epoch < cfg.epochs:
        raise EpochOutOfRange(f"epoch {epoch} outside [0, {cfg.epochs})")
    passed = sum(1 for m in cfg.lr_milestones if m <= epoch)
    return cfg.base_lr / cfg.lr_factor ** passed


def _augment_batch(xb: np.ndarray, p: float, rng: np.random.Generator):
    mask = rng.random(xb.shape[0]) < p
    if mask.any():
        xb = xb.copy()
        xb[mask] = xb[mask, ::-1]
    return xb


def sgd_step(params, grads, lr: float, momentum: float, velocity) -> None:
    """In-place SGD with classical momentum.

    velocity <- momentum * velocity + grad; param <- param - lr * velocity.
    """
    if not (math.isfinite(lr) and math.isfinite(momentum)):
        raise InvalidArgument(f"non-finite lr {lr!r} or momentum {momentum!r}")
    if not (len(params) == len(grads) == len(velocity)):
        raise ShapeMismatch(
            f"got {len(params)} params, {len(grads)} grads, "
            f"{len(velocity)} velocity buffers")
    for p, g, v in zip(params, grads, velocity):
        if not (p.shape == g.shape == v.shape):
            raise ShapeMismatch(
                f"param {p.shape}, grad {g.shape}, velocity {v.shape}")
        v *= momentum
        v += g
        p -= lr * v


@dataclass(frozen=True)
class EpochStats:
    """One epoch of a loss trace, checked when built like a config record."""

    epoch: int = rule(int, ge=0)
    lr: float = rule(float)
    cls_loss: float = rule(float)
    kd_loss: float = rule(float)
    total_loss: float = rule(float)

    __post_init__ = check_fields


@dataclass
class TrainResult:
    encoder: Encoder
    prototypes: np.ndarray | None
    stats: NormStats | None
    trace: list[EpochStats]
    rng_state: dict | None = field(default_factory=dict)


def _gather_training_set(manifest: DatasetManifest, store, input_dim: int):
    if not manifest.entries:
        raise EmptyManifest(f"manifest {manifest.name!r} has no entries")
    labels_of = manifest.dense_labels()
    x = feature_rows(store, [e.payload_ref for e in manifest.entries])
    if x.shape[1] != input_dim:
        raise DimensionMismatch(
            f"features have dim {x.shape[1]}, encoder expects {input_dim}")
    y = np.array([labels_of[e.identity_id] for e in manifest.entries],
                 dtype=np.int64)
    return x, y, len(labels_of)


def _flat_parameters(encoder: Encoder, prototypes: np.ndarray):
    """(flat, prototypes view): one buffer that the encoder's weights and
    biases and the returned prototypes all become views of."""
    params = encoder.parameters() + [prototypes]
    flat = np.concatenate(params, axis=None)
    ends = np.cumsum([p.size for p in params])
    views = [flat[e - p.size:e].reshape(p.shape) for p, e in zip(params, ends)]
    encoder.weights, encoder.biases = views[:-1:2], views[1:-1:2]
    return flat, views[-1]


# A blow-up is reported once, as DivergenceDetected, with no numpy warnings.
@np.errstate(all="ignore")
def _train(spec: EncoderSpec, manifest: DatasetManifest, store,
           loss_cfg: LossConfig, cfg: TrainConfig,
           teacher: Encoder | None) -> TrainResult:
    x, y, n_classes = _gather_training_set(manifest, store, spec.input_dim)
    encoder = Encoder(spec)
    flat, prototypes = _flat_parameters(
        encoder, init_prototypes(n_classes, spec.embedding_dim, seed=cfg.seed))
    stats = NormStats.default() if loss_cfg.margin.kind == "adaface" else None
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    use_kd = teacher is not None and loss_cfg.kd_weight > 0.0

    velocity = np.zeros_like(flat)
    n = x.shape[0]
    trace: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(epoch, cfg)
        order = rng.permutation(n)
        cls_sum = kd_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = _augment_batch(x[idx], cfg.hflip_prob, rng)
            yb = y[idx]

            emb, cache = encoder.forward_cached(xb)
            kd_val = 0.0
            try:
                head = head_loss_and_grads(emb, prototypes, yb, loss_cfg.margin,
                                           rng=rng, stats=stats)
                d_emb = head.d_embedding
                if use_kd:
                    t_emb = teacher.forward(xb)
                    kd_val, _, d_student = kd_loss_and_grads(
                        t_emb, emb, normalized=loss_cfg.kd_on_normalized,
                        reduction=loss_cfg.kd_reduction)
                    d_emb += loss_cfg.kd_weight * d_student
            except ZeroVector as exc:
                raise DivergenceDetected(
                    f"training diverged at epoch {epoch}, batch starting "
                    f"{start}: {exc}") from exc

            grad = np.concatenate(encoder.backward(cache, d_emb)
                                  + [head.d_prototypes], axis=None)
            if cfg.weight_decay > 0.0:
                grad += cfg.weight_decay * flat
            sgd_step([flat], [grad], lr, cfg.momentum, [velocity])

            cls_sum += head.loss * idx.size
            kd_sum += kd_val * idx.size
        cls_mean = cls_sum / n
        kd_mean = kd_sum / n
        trace.append(EpochStats(epoch, lr, cls_mean, kd_mean,
                                cls_mean + loss_cfg.kd_weight * kd_mean))
    return TrainResult(encoder, prototypes, stats, trace,
                       rng_state=rng.bit_generator.state)


def train_from_scratch(spec: EncoderSpec, manifest: DatasetManifest, store,
                       loss_cfg: LossConfig, cfg: TrainConfig) -> TrainResult:
    """Minibatch SGD on the classification loss only (no teacher)."""
    return _train(spec, manifest, store, loss_cfg, cfg, teacher=None)


def distill(teacher: Encoder, student_spec: EncoderSpec,
            manifest: DatasetManifest, store, loss_cfg: LossConfig,
            cfg: TrainConfig) -> TrainResult:
    """Train a student against the frozen teacher's embeddings.

    The teacher only runs forward; its parameter digest is checked after the
    loop so any accidental in-place update fails loudly.
    """
    if teacher.spec.embedding_dim != student_spec.embedding_dim:
        raise DimensionMismatch(
            f"teacher embeds into {teacher.spec.embedding_dim} dims, "
            f"student into {student_spec.embedding_dim}")
    digest_before = teacher.param_digest()
    result = _train(student_spec, manifest, store, loss_cfg, cfg,
                    teacher=teacher)
    if teacher.param_digest() != digest_before:
        raise FrozenViolation("teacher parameters changed during distillation")
    return result

