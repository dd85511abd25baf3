"""Numeric primitives and embedding-space geometry shared by all modules.

Embeddings are plain float64 numpy arrays. ZERO_NORM_EPS and
cosine_similarity are the only places that decide what counts as a zero
vector and how cosine values are clamped, so every downstream consumer (loss
heads, verification scoring) inherits one consistent convention.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ZeroVector

# Below this norm a vector carries no usable direction at float64 precision.
ZERO_NORM_EPS = 1e-12


def cosine_similarity(a, b):
    """Cosine of the angle between a and b, clamped into [-1, 1].

    a and b are two (D,) vectors, giving a float, or two (N, D) matrices
    scored row by row, giving an (N,) array. Non-finite or zero-norm input
    raises ZeroVector. The clamp guards downstream arccos against rounding
    overshoot like 1 + 2**-52 on identical directions.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim not in (1, 2) or va.shape != vb.shape:
        raise DimensionMismatch(f"cannot pair shapes {va.shape} and {vb.shape}")
    if not (np.isfinite(va).all() and np.isfinite(vb).all()):
        raise ZeroVector("cosine similarity of a non-finite vector is undefined")
    na = np.linalg.norm(va, axis=-1)
    nb = np.linalg.norm(vb, axis=-1)
    if np.any(na <= ZERO_NORM_EPS) or np.any(nb <= ZERO_NORM_EPS):
        raise ZeroVector("cosine similarity of a zero vector is undefined")
    cos = np.clip(np.einsum("...d,...d->...", va, vb) / (na * nb), -1.0, 1.0)
    return float(cos) if va.ndim == 1 else cos
