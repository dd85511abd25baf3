"""Numeric primitives and embedding-space geometry shared by all modules.

Embeddings are plain float64 numpy arrays. row_norms is the only place that
decides which rows have no usable direction, and cosine_similarity the only
place that clamps cosine values, so every consumer (the margin heads, the
normalized KD term, verification scoring) inherits one convention. Likewise
feature_rows is the one rule for a feature vector: training, pair scoring and
the feature-store writer resolve samples through it, in any mapping, and the
pipeline's is a FeatureStore: sample ids over the rows of one matrix, as made
or read, whose ids resolve as one row-index array (FeatureStore.rows). And
rule/check_fields is the one rule for a record field (config, trace epoch):
its type and bounds.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import MISSING, field, fields
from types import GenericAlias

import numpy as np

from .errors import (
    ConfigError,
    ConfigTypeError,
    DimensionMismatch,
    InvalidArgument,
    MissingSample,
    ZeroVector,
)

# Below this norm a vector carries no usable direction at float64 precision.
ZERO_NORM_EPS = 1e-12
_BLOCK = 4096  # ids that feature_rows resolves per np.array call

# check -> (what a value must be, given the bound; whether the value is)
_CHECKS = {"ge": (">= {}", operator.ge), "gt": ("> {}", operator.gt),
           "le": ("<= {}", operator.le), "lt": ("< {}", operator.lt),
           "choices": ("in {}", lambda value, allowed: value in allowed),
           "even": ("even", lambda value, _: value % 2 == 0)}


def rule(kind, default=MISSING, *, finite=True, **checks):
    """A dataclass field that check_fields holds to kind, finite and checks.
    kind is bool, int, float, str, a record class or tuple[item, ...] of the
    first four, whose checks apply to each item; finite=False admits inf.
    A callable default is the default factory."""
    key = "default_factory" if callable(default) else "default"
    return field(**{key: default}, metadata={"rule": (kind, finite, checks)})


def check_fields(record) -> None:
    """Hold every field of a frozen record to its rule, or raise ConfigError;
    a value of the wrong type is a ConfigTypeError. bool is not int, None
    passes only where the default is None, a float field stores float(x) of
    an int or float, and a tuple field a tuple of a list."""
    for f in fields(record):
        kind, finite, checks = f.metadata["rule"]
        value = getattr(record, f.name)
        if value is None and f.default is None:
            continue
        many = isinstance(kind, GenericAlias)
        item = kind.__args__[0] if many else kind
        seq = isinstance(value, (tuple, list))
        items = tuple(value) if seq else (value,)
        takes = (int, float) if item is float else item
        if seq != many or not all(isinstance(v, takes) and
                                  isinstance(v, bool) == (item is bool)
                                  for v in items):
            raise ConfigTypeError(f"{f.name}: expected "
                                  f"{kind if many else kind.__name__}, got {value!r}")
        items = tuple(map(float, items)) if item is float else items
        for v in items:
            if item is float and finite and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            for check, bound in checks.items():
                text, holds = _CHECKS[check]
                if not holds(v, bound):
                    raise ConfigError(f"{f.name} must be {text.format(bound)}, "
                                      f"got {value!r}")
        object.__setattr__(record, f.name, items if many else items[0])


class FeatureStore(Mapping):
    """A read-only map from sample id to a row view of one float64 (N, D)
    matrix, row i for ids[i], iterated in ids order; ids must be unique."""

    __slots__ = ("matrix", "_row")

    def __init__(self, ids, matrix: np.ndarray):
        self._row = {sid: i for i, sid in enumerate(ids)}
        if not (isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
                and matrix.shape[:1] == (len(ids),) == (len(self._row),)
                and matrix.ndim == 2):
            what = matrix.shape if isinstance(matrix, np.ndarray) else type(matrix)
            raise InvalidArgument(f"{len(ids)} ids for a matrix of {what}")
        self.matrix = matrix.view()
        self.matrix.flags.writeable = False

    def __getitem__(self, sid) -> np.ndarray:
        return self.matrix[self._row[sid]]

    def __iter__(self):
        return iter(self._row)

    def __len__(self) -> int:
        return len(self._row)

    def rows(self, ids) -> np.ndarray:
        """The matrix row of each sid in the sequence ids, in order, as one
        intp array; an id the store does not hold raises MissingSample."""
        try:
            return np.fromiter(map(self._row.__getitem__, ids), np.intp, len(ids))
        except KeyError as exc:
            raise MissingSample(f"feature store cannot resolve sample {exc}") from None


def refuse_non_finite(matrix: np.ndarray, ids, rows=None) -> None:
    """InvalidArgument naming ids[i] for the first i whose vector, matrix[i]
    or with rows matrix[rows[i]], holds NaN or inf."""
    bad = ~np.isfinite(matrix).all(axis=1)
    if rows is not None:
        bad = bad[rows]
    if bad.any():
        raise InvalidArgument(f"feature vector {ids[bad.argmax()]!r} is not finite")


def feature_rows(store, ids) -> np.ndarray:
    """store[sid] for each sid in the sequence ids, in order, as one float64
    (N, D) matrix; no ids give a (0, 0) matrix. A FeatureStore gives its
    rows through one index array (FeatureStore.rows); any other mapping's
    are filled by one np.array call per _BLOCK ids, so that no more row
    objects than that are alive at once. An id the store cannot resolve
    raises MissingSample; values that are not real numbers of one length, or
    a vector holding NaN or inf (naming its sample id), raise
    InvalidArgument."""
    if isinstance(store, FeatureStore):
        rows = store.matrix[store.rows(ids)] if len(ids) else np.zeros((0, 0))
        refuse_non_finite(rows, ids)
        return rows
    rows = np.zeros((0, 0))
    for at in range(0, len(ids), _BLOCK):
        try:
            block = np.array([store[sid] for sid in ids[at:at + _BLOCK]])
        except KeyError as exc:
            raise MissingSample(f"feature store cannot resolve sample {exc}") from None
        except ValueError:  # numpy's refusal of vectors of different lengths
            block = None
        if block is None or block.ndim != 2 or block.dtype.kind not in "biuf" or (
                at and block.shape[1] != rows.shape[1]):
            raise InvalidArgument("feature vectors must be real numbers of one length")
        if not at:
            rows = np.empty((len(ids), block.shape[1]))
        rows[at:at + _BLOCK] = block
    refuse_non_finite(rows, ids)
    return rows


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
