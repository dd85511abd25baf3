"""Numeric primitives and embedding-space geometry shared by all modules.

Embeddings are plain float64 numpy arrays. row_norms is the only place that
decides which rows have no usable direction, and cosine_similarity the only
place that clamps cosine values, so every consumer (the margin heads, the
normalized KD term, verification scoring) inherits one convention. Likewise
feature_rows is the one rule for a feature vector: training, pair scoring and
the feature-store writer resolve samples through it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, MissingSample, ZeroVector

# Below this norm a vector carries no usable direction at float64 precision.
ZERO_NORM_EPS = 1e-12


def feature_rows(store, ids) -> np.ndarray:
    """store[sid] for each sid in the sequence ids, in order, as one float64
    (N, D) matrix. An id the store cannot resolve raises MissingSample; values
    that are not real numbers of one length, or a vector holding NaN or inf
    (naming its sample id), raise InvalidArgument."""
    try:
        rows = np.array([store[sid] for sid in ids])
    except KeyError as exc:
        raise MissingSample(f"feature store cannot resolve sample {exc}") from None
    except ValueError:  # numpy's refusal of vectors of different lengths
        rows = None
    if rows is None or rows.ndim != 2 or rows.dtype.kind not in "biuf":
        raise InvalidArgument("feature vectors must be real numbers of one length")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise InvalidArgument(f"feature vector {ids[bad[0]]!r} is not finite")
    return rows.astype(np.float64, copy=False)


def row_norms(m: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.norm(m, axis=-1) bit for bit, for a float64 array whose every
    row has a direction. A norm at most ZERO_NORM_EPS, NaN or inf (finite
    entries whose squares overflow included) raises ZeroVector naming what."""
    norms = np.sqrt(np.add.reduce(m * m, axis=-1))
    if not (np.minimum.reduce(norms, axis=None, initial=np.inf) > ZERO_NORM_EPS
            and np.maximum.reduce(norms, axis=None, initial=0.0) < np.inf):
        raise ZeroVector(f"{what} has a zero or non-finite row")
    return norms


def cosine_similarity(a, b):
    """Cosine of the angle between a and b, clamped into [-1, 1].

    a and b are two (D,) vectors, giving a float, or two (N, D) matrices
    scored row by row, giving an (N,) array. A row without a direction (see
    row_norms) raises ZeroVector. The clamp guards downstream arccos against
    rounding overshoot like 1 + 2**-52 on identical directions.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim not in (1, 2) or va.shape != vb.shape:
        raise DimensionMismatch(f"cannot pair shapes {va.shape} and {vb.shape}")
    na, nb = row_norms(va, "cosine input"), row_norms(vb, "cosine input")
    cos = np.clip(np.einsum("...d,...d->...", va, vb) / (na * nb), -1.0, 1.0)
    return float(cos) if va.ndim == 1 else cos
