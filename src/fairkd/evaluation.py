"""Verification scoring, threshold selection, and group-fairness metrics.

A model is evaluated on per-group pair protocols: every pair is scored by
cosine similarity, verification accuracy comes from a k-fold cross-validated
threshold, and the per-group accuracies are condensed into three columns:
their average, their sample standard deviation (STD, lower is fairer), and
the skewed error ratio SER = (100 - min acc) / (100 - max acc), the factor by
which the worst group's error exceeds the best group's.

All internal values stay full precision; rounding to the conventional two
decimals (half away from zero) happens only when a table is rendered.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .core import cosine_similarity
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    EmptyInput,
    InvalidArgument,
    MissingSample,
    NonFiniteScore,
    TooFewGroups,
    TooFewPairs,
    UnbalancedProtocol,
)

# Sentinel SER for reports where the best group has zero error (the ratio is
# then unbounded); kept infinite so sweeps sort it last instead of crashing.
SER_DEGENERATE = math.inf

METADATA_COLUMNS = ("model", "data", "distilled", "loss")


@dataclass(frozen=True)
class VerificationPair:
    sample_a: str
    sample_b: str
    same: bool


@dataclass(frozen=True)
class GroupProtocol:
    """Verification pairs, in a tuple, drawn from one demographic group."""

    name: str
    pairs: tuple[VerificationPair, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))

    @property
    def positive_count(self) -> int:
        return sum(1 for p in self.pairs if p.same)

    @property
    def negative_count(self) -> int:
        return sum(1 for p in self.pairs if not p.same)

    def validate(self) -> None:
        if self.positive_count != self.negative_count:
            raise UnbalancedProtocol(
                f"group {self.name!r}: {self.positive_count} positive vs "
                f"{self.negative_count} negative pairs")


@dataclass(frozen=True)
class PairProtocol:
    """Per-group pair protocols, checked when built: every group holds as
    many positive as negative pairs. Frozen, so it stays that way."""

    groups: tuple[GroupProtocol, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        self.validate()

    def validate(self) -> None:
        for g in self.groups:
            g.validate()


@dataclass
class EvalReport:
    """Per-group verification accuracies and their fairness summary."""

    per_group: tuple[float, ...]
    average: float
    std: float
    ser: float
    ser_degenerate: bool
    metadata: dict[str, str] = field(default_factory=dict)


def score_pairs(encoder, group: GroupProtocol, store) -> list[tuple[float, bool]]:
    """(cosine score, same label) per pair, in protocol order.

    encoder maps an (N, D) batch of raw feature rows to (N, E) embeddings;
    store resolves sample_id -> feature vector. Each distinct sample is
    embedded once, in one encoder call for the whole group.
    """
    if not group.pairs:
        return []
    row_of: dict[str, int] = {}
    for p in group.pairs:
        row_of.setdefault(p.sample_a, len(row_of))
        row_of.setdefault(p.sample_b, len(row_of))
    for sid in row_of:
        if sid not in store:
            raise MissingSample(
                f"group {group.name!r} references unknown sample {sid!r}")
    emb = np.asarray(encoder(np.stack([store[sid] for sid in row_of])))
    a = emb[[row_of[p.sample_a] for p in group.pairs]]
    b = emb[[row_of[p.sample_b] for p in group.pairs]]
    return list(zip(cosine_similarity(a, b).tolist(),
                    (p.same for p in group.pairs)))


def _scores_labels(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.ndim != 1 or y.shape != s.shape:
        raise DimensionMismatch(
            f"scores shape {s.shape} incompatible with labels shape {y.shape}")
    if s.size and not np.isfinite(s).all():
        bad = int(np.flatnonzero(~np.isfinite(s))[0])
        raise NonFiniteScore(f"score at index {bad} is {s[bad]}")
    return s, y


def best_threshold_accuracy(scores, labels) -> tuple[float, float]:
    """Exhaustive threshold sweep; predicts "same" iff score >= threshold.

    Candidates are the midpoints of adjacent distinct sorted scores plus the
    -inf/+inf sentinels (accept everything / reject everything). Returns the
    lowest threshold achieving the best accuracy (percent).
    """
    s, y = _scores_labels(scores, labels)
    n = s.size
    if n == 0:
        raise EmptyInput("cannot pick a threshold from zero pairs")
    order = np.argsort(s, kind="stable")
    ss, yy = s[order], y[order]
    total_pos = int(yy.sum())
    # correct(cut i) = negatives below the cut + positives at or above it,
    # where the cut predicts "same" exactly for sorted indices >= i.
    neg_below = np.concatenate(([0], np.cumsum(~yy)))
    pos_above = total_pos - np.concatenate(([0], np.cumsum(yy)))
    correct = neg_below + pos_above

    # A cut may not split a run of equal scores; the first best one wins.
    cuts = np.flatnonzero(np.concatenate(([True], ss[1:] != ss[:-1], [True])))
    best_cut = int(cuts[np.argmax(correct[cuts])])
    if best_cut == 0:
        threshold = -math.inf
    elif best_cut == n:
        threshold = math.inf
    else:
        threshold = float((ss[best_cut - 1] + ss[best_cut]) / 2.0)
    return threshold, 100.0 * float(correct[best_cut]) / n


def stratified_fold_indices(labels, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic k folds with positives and negatives dealt round-robin.

    Each class is shuffled with its own draw from one seeded generator and
    dealt to consecutive folds, the negatives continuing where the positives
    stopped so no fold ends up empty while sizes stay within one.
    """
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


def kfold_verification_accuracy(scores, labels, k: int = 10,
                                seed: int = 0) -> float:
    """Mean held-out accuracy over k stratified folds.

    Per fold, the threshold is fit on the other k-1 folds with
    best_threshold_accuracy and applied to the held-out pairs.
    """
    s, y = _scores_labels(scores, labels)
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    if s.size == 0:
        raise EmptyInput("cannot evaluate zero pairs")
    if s.size < k:
        raise TooFewPairs(f"{s.size} pairs cannot fill {k} folds")
    folds = stratified_fold_indices(y, k, seed)
    accs = []
    for i, test in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        threshold, _ = best_threshold_accuracy(s[train], y[train])
        hits = (s[test] >= threshold) == y[test]
        accs.append(100.0 * float(np.mean(hits)))
    return float(np.mean(accs))


def _check_accuracies(accuracies) -> np.ndarray:
    acc = np.asarray(accuracies, dtype=np.float64)
    if acc.ndim != 1 or acc.size < 2:
        raise TooFewGroups(f"need >= 2 group accuracies, got shape {acc.shape}")
    if np.any(~np.isfinite(acc)) or np.any(acc < 0.0) or np.any(acc > 100.0):
        raise InvalidArgument("accuracies must be finite percents in [0, 100]")
    return acc


def fairness_std(accuracies) -> float:
    """Sample standard deviation (G-1 divisor) of per-group accuracies."""
    return float(np.std(_check_accuracies(accuracies), ddof=1))


def ser(accuracies) -> float:
    """Skewed error ratio: worst group error over best group error."""
    acc = _check_accuracies(accuracies)
    best = float(np.max(acc))
    if best >= 100.0:
        raise DegenerateDenominator(
            "a group reached 100% accuracy; its error rate is zero")
    return (100.0 - float(np.min(acc))) / (100.0 - best)


def build_report(accuracies, metadata: dict | None = None) -> EvalReport:
    """Condense per-group accuracies into the report row the tables print."""
    acc = _check_accuracies(accuracies)
    try:
        ratio = ser(acc)
        degenerate = False
    except DegenerateDenominator:
        ratio = SER_DEGENERATE
        degenerate = True
    return EvalReport(
        per_group=tuple(float(a) for a in acc),
        average=float(np.mean(acc)),
        std=fairness_std(acc),
        ser=ratio,
        ser_degenerate=degenerate,
        metadata={str(k): str(v) for k, v in (metadata or {}).items()},
    )


def round2(value: float) -> str:
    """Round half away from zero to 2 decimals, via the shortest decimal.

    Going through repr() first means a float that prints as 96.235 rounds on
    its printed decimal value (96.24), not on its binary expansion.
    Non-finite values print as inf, -inf or nan.
    """
    if not math.isfinite(value):
        return repr(float(value))
    quantized = Decimal(repr(float(value))).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP)
    return str(quantized)


def render_table(reports, fmt: str = "markdown") -> str:
    """Paper-style table: metadata, per-group accuracies, Average, STD, SER."""
    reports = list(reports)
    if not reports:
        raise EmptyInput("no reports to render")
    n_groups = len(reports[0].per_group)
    if any(len(r.per_group) != n_groups for r in reports):
        raise DimensionMismatch("reports disagree on group count")
    header = list(METADATA_COLUMNS) + [f"acc_g{i + 1}" for i in range(n_groups)]
    header += ["average", "std", "ser"]
    rows = []
    for r in reports:
        meta = [str(r.metadata.get(c, "") or "-") for c in METADATA_COLUMNS]
        cells = [round2(a) for a in r.per_group]
        cells += [round2(r.average), round2(r.std), round2(r.ser)]
        rows.append(meta + cells)

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "| " + " | ".join("---" for _ in header) + " |"]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    raise InvalidArgument(f"unknown table format {fmt!r}")
