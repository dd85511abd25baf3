"""Ethnicity-aware merging of dataset manifests into balanced training sets.

Every identity gets a soft group-membership vector (the mean of its per-image
soft labels), is assigned to its argmax group, and is ranked within that
group by the argmax component. Merging keeps the highest-ranked identities
per group, so the output over-represents identities that are the most
representative of their group while holding group sizes within one of each
other. The mixed merge additionally splits each group's quota between a real
and a synthetic pool by largest-remainder apportionment.

Group quota underflow is never an error: the deficient cell keeps whatever it
has and the missing count is recorded in the manifest's shortfall map rather
than silently rebalancing other groups.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    DuplicateIdentityAcrossSources,
    EmptyIdentity,
    EmptyManifest,
    InvalidArgument,
    InvalidManifest,
    InvalidMergeRequest,
)

SOURCES = ("real", "synthetic")
SOFT_LABEL_SUM_TOL = 1e-6
_CELL = re.compile(rf"group(0|[1-9][0-9]*)(/{'|/'.join(SOURCES)})?")


@dataclass(frozen=True, slots=True)
class ManifestEntry:
    """One image record: identity membership plus soft group labels.

    payload_ref points at the image's feature vector in whatever store the
    manifest travels with; merging only moves the reference around.
    """

    sample_id: str
    identity_id: str
    source: str
    soft_labels: tuple[float, ...]
    payload_ref: str


@dataclass(frozen=True)
class DatasetManifest:
    """Named image entries over a fixed number of groups.

    Checked when built and frozen, with its entries in a tuple and its
    shortfalls in a read-only mapping, so a manifest that exists is valid.
    shortfalls maps quota cells (e.g. "group1" or "group1/real", of a group
    below group_count) to the number of identities the cell was short at
    merge time, a positive int.
    """

    name: str
    group_count: int
    entries: tuple[ManifestEntry, ...] = ()
    shortfalls: Mapping[str, int] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "shortfalls",
                           MappingProxyType(dict(self.shortfalls)))
        self.validate()

    def __reduce__(self):
        # A mappingproxy cannot be pickled or deep-copied: rebuild instead.
        return (DatasetManifest, (self.name, self.group_count, self.entries,
                                  dict(self.shortfalls)))

    def validate(self) -> None:
        """Raise InvalidManifest on a bad shortfall, malformed entry or duplicate
        sample: by column, each check only before the first failure so far, so
        the message is that of the first bad entry's first failed check."""
        g, entries = self.group_count, self.entries
        if g < 1:
            raise InvalidManifest(f"group_count must be >= 1, got {g}")
        for key, count in self.shortfalls.items():
            cell = isinstance(key, str) and _CELL.fullmatch(key)
            if not (cell and int(cell[1]) < g and type(count) is int and count > 0):
                raise InvalidManifest(f"shortfall {key!r}: {count!r} is not a "
                                      f"positive count of a quota cell of {g} groups")
        end, error = len(entries), None
        sources = [e.source for e in entries]
        if sources.count("real") + sources.count("synthetic") < end:
            end = next(i for i, s in enumerate(sources) if s not in SOURCES)
            error = f"unknown source {sources[end]!r}"
        counts = [len(e.soft_labels) for e in entries[:end]]
        if counts.count(g) < end:
            end = next(i for i, n in enumerate(counts) if n != g)
            error = f"{counts[end]} soft labels, expected {g}"
        labels = np.array([e.soft_labels for e in entries[:end]]).reshape(end, g)
        with np.errstate(all="ignore"):  # each row summed left to right, as sum()
            bad = (~np.isfinite(labels) | (labels < 0.0)).any(axis=1)
            off = bad | (abs(sum(labels.T, np.zeros(end)) - 1.0) > SOFT_LABEL_SUM_TOL)
        if off.any():
            end = int(off.argmax())
            error = ("soft labels must be >= 0" if bad[end] else "soft "
                     f"labels sum to {sum(entries[end].soft_labels)!r}, not 1")
        sample_ids = [e.sample_id for e in entries[:end]]
        ids = [e.identity_id for e in entries[:end]]
        if len(set(sample_ids)) < end or len(set(zip(ids, sources))) > len(set(ids)):
            seen, source_of = set(), {}
            for sid, iid, source in zip(sample_ids, ids, sources):
                if sid in seen:
                    raise InvalidManifest(f"duplicate sample_id {sid!r}")
                seen.add(sid)
                if (prior := source_of.setdefault(iid, source)) != source:
                    raise InvalidManifest(f"identity {iid!r} mixes sources "
                                          f"{prior} and {source}")
        if error is not None:
            raise InvalidManifest(f"entry {entries[end].sample_id}: {error}")

    def identities(self) -> dict[str, list[ManifestEntry]]:
        """Entries grouped by identity, in first-appearance order."""
        by_id: dict[str, list[ManifestEntry]] = {}
        for e in self.entries:
            by_id.setdefault(e.identity_id, []).append(e)
        return by_id

    def dense_labels(self) -> dict[str, int]:
        """Identity -> class index, assigned by lexicographic identity_id.

        Derivable from the entries alone, so a manifest loaded from disk
        yields the same class indices as the one that was saved.
        """
        return {iid: k for k, iid in enumerate(sorted(self.identities()))}


@dataclass(frozen=True)
class IdentityScore:
    """An identity's assigned group and how representative it is of it."""

    identity_id: str
    group: int
    score: float
    source: str


def identity_soft_label(entries) -> np.ndarray:
    """Arithmetic mean of the per-image soft label vectors of one identity."""
    entries = list(entries)
    if not entries:
        raise EmptyIdentity("identity has no entries")
    labels = np.array([e.soft_labels for e in entries], dtype=np.float64)
    return labels.mean(axis=0)


def score_identity(mean_labels, identity_id: str = "",
                   source: str = "real") -> IdentityScore:
    """Assign the argmax group (ties to the lowest index) and its mass."""
    arr = np.asarray(mean_labels, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
        raise InvalidArgument(f"mean labels not a non-empty finite vector: {arr!r}")
    group = int(np.argmax(arr))
    return IdentityScore(identity_id, group, float(arr[group]), source)


def _score_identities(by_id: dict) -> list[IdentityScore]:
    """score_identity(identity_soft_label(ents), iid, ents[0].source) for each
    identity of by_id, bitwise: rows are added in order from 0.0 as mean(axis=0)
    adds them; one group, whose column numpy sums pairwise, takes that path."""
    counts = np.array([len(ents) for ents in by_id.values()])
    labels = np.array([e.soft_labels for ents in by_id.values() for e in ents], float)
    if labels.ndim < 2 or labels.shape[1] < 2:
        return [score_identity(identity_soft_label(ents), iid, ents[0].source)
                for iid, ents in by_id.items()]
    means = np.zeros((counts.size, labels.shape[1]))
    np.add.at(means, np.repeat(np.arange(counts.size), counts), labels)
    means /= counts[:, None]
    groups = means.argmax(axis=1).tolist()
    return [IdentityScore(iid, g, float(mean[g]), ents[0].source)
            for (iid, ents), g, mean in zip(by_id.items(), groups, means)]


def score_manifest(manifest: DatasetManifest) -> list[IdentityScore]:
    """Score every identity of a manifest, in lexicographic identity order."""
    return sorted(_score_identities(manifest.identities()),
                  key=lambda sc: sc.identity_id)


def largest_remainder(total: int, ideals) -> list[int]:
    """Apportion `total` integer seats to match fractional ideals.

    Floors first, then hands the remaining seats to the largest fractional
    remainders; ties go to the earlier position, which keeps the result
    independent of float noise in exactly-tied inputs.
    """
    ideals = [float(x) for x in ideals]
    if not all(math.isfinite(x) and x >= 0.0 for x in ideals):
        raise InvalidMergeRequest(f"ideals {ideals} must be finite and >= 0")
    floors = [math.floor(x) for x in ideals]
    leftover = total - sum(floors)
    if leftover < 0 or leftover > len(ideals):
        raise InvalidMergeRequest(f"ideals {ideals} do not sum near {total}")
    order = sorted(range(len(ideals)),
                   key=lambda i: (-(ideals[i] - floors[i]), i))
    out = list(floors)
    for i in order[:leftover]:
        out[i] += 1
    return out


def group_quotas(total_identities: int, group_count: int) -> list[int]:
    """Per-group identity quotas: floor(total/G), +1 for the first remainder."""
    if group_count < 1 or total_identities < 0:
        raise InvalidMergeRequest(f"cannot split {total_identities} identities "
                                  f"over {group_count} groups")
    base, extra = divmod(total_identities, group_count)
    return [base + (1 if g < extra else 0) for g in range(group_count)]


def _merge(pools, total_identities: int, name: str, cells) -> DatasetManifest:
    """Check and rank the pooled manifests, then fill the quota cells.

    pools maps each pool's expected entry source (None: any) to its
    manifests. One pass over the pooled list checks group counts and
    sources, and that no identity spans two manifests (keyed by position,
    so a manifest passed twice is caught). Each group's identities are
    ranked by (-score, identity_id). cells(quotas) turns the per-group
    quotas into (shortfall key, group, source or None, quota) cells; each
    keeps the top of its group's ranking filtered to its source, and a
    short cell records its gap under its key.
    """
    if not all(pools.values()):
        raise EmptyManifest("no manifests given")
    pooled = [(source, man) for source, mans in pools.items() for man in mans]
    group_count = pooled[0][1].group_count
    entries_of: dict[str, list[ManifestEntry]] = {}
    owner: dict[str, int] = {}
    for k, (source, man) in enumerate(pooled):
        if man.group_count != group_count:
            raise InvalidManifest(
                f"manifest {man.name!r} has {man.group_count} groups, "
                f"expected {group_count}")
        for e in man.entries:
            if source is not None and e.source != source:
                raise InvalidManifest(
                    f"manifest {man.name!r}: entry {e.sample_id} has source "
                    f"{e.source!r} in a {source} pool")
            prior = owner.setdefault(e.identity_id, k)
            if prior != k:
                raise DuplicateIdentityAcrossSources(
                    f"identity {e.identity_id!r} appears in manifests "
                    f"{pooled[prior][1].name!r} and {man.name!r}")
            entries_of.setdefault(e.identity_id, []).append(e)
    if not all(any(man.entries for man in mans) for mans in pools.values()):
        raise EmptyManifest("manifests contain no entries")
    if total_identities < group_count:
        raise InvalidMergeRequest(
            f"total_identities {total_identities} < group count {group_count}")

    by_group: list[list[IdentityScore]] = [[] for _ in range(group_count)]
    for sc in sorted(_score_identities(entries_of),
                     key=lambda sc: (-sc.score, sc.identity_id)):
        by_group[sc.group].append(sc)

    entries, shortfalls = [], {}
    for key, g, source, quota in cells(group_quotas(total_identities, group_count)):
        ranked = [sc for sc in by_group[g] if source is None or sc.source == source]
        if quota > len(ranked):
            shortfalls[key] = quota - len(ranked)
        for sc in ranked[:quota]:
            entries.extend(entries_of[sc.identity_id])
    return DatasetManifest(name, group_count, entries, shortfalls)


def balanced_merge(manifests, total_identities: int,
                   name: str = "balanced") -> DatasetManifest:
    """Merge manifests, keeping the top-scoring identities per group.

    Per-group quotas are floor(total/G) with the remainder spread over the
    leading groups. A short group keeps everything it has; the gap lands in
    the output's shortfalls instead of another group's quota.
    """
    return _merge({None: manifests}, total_identities, name, lambda quotas: [
        (f"group{g}", g, None, quota) for g, quota in enumerate(quotas)])


def mix_merge(real_manifests, synthetic_manifests, real_fraction: float,
              total_identities: int, name: str = "mix") -> DatasetManifest:
    """Merge a real and a synthetic pool at a target real-identity fraction.

    The overall real seat count is the largest-remainder split of the total
    (ties favor real), then spread across groups by largest remainder with
    ties following group order; each (group, source) cell then keeps its
    top-scoring identities exactly like balanced_merge.
    """
    if not 0.0 < real_fraction < 1.0:
        raise InvalidMergeRequest(
            f"real_fraction must lie in (0, 1), got {real_fraction}")

    def cells(quotas):
        real_total = largest_remainder(
            total_identities,
            [total_identities * real_fraction,
             total_identities * (1.0 - real_fraction)])[0]
        real_quotas = largest_remainder(
            real_total, [q * real_total / total_identities for q in quotas])
        for g, (quota, real) in enumerate(zip(quotas, real_quotas)):
            yield f"group{g}/real", g, "real", real
            yield f"group{g}/synthetic", g, "synthetic", quota - real

    return _merge({"real": real_manifests, "synthetic": synthetic_manifests},
                  total_identities, name, cells)


def manifest_stats(manifest: DatasetManifest) -> dict:
    """Identity and image counts per (group, source), plus totals.

    Returns plain dict/list values so the block can be embedded verbatim in
    a manifest header or report.
    """
    groups = {str(g): {src: {"identities": 0, "images": 0} for src in SOURCES}
              for g in range(manifest.group_count)}
    by_id = manifest.identities()
    scores = _score_identities(by_id)
    for sc in scores:
        cell = groups[str(sc.group)][sc.source]
        cell["identities"] += 1
        cell["images"] += len(by_id[sc.identity_id])
    return {
        "name": manifest.name,
        "group_count": manifest.group_count,
        "groups": groups,
        "total_identities": len(scores),
        "total_images": len(manifest.entries),
        "real_identity_fraction": (sum(sc.source == "real" for sc in scores)
                                   / len(scores) if scores else 0.0),
        "shortfalls": dict(manifest.shortfalls),
    }
