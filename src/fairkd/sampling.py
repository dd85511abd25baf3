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
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    DuplicateIdentityAcrossSources,
    EmptyIdentity,
    EmptyManifest,
    InvalidManifest,
    InvalidMergeRequest,
)

SOURCES = ("real", "synthetic")
SOFT_LABEL_SUM_TOL = 1e-6


@dataclass(frozen=True)
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
    shortfalls maps quota cells (e.g. "group1" or "group1/real") to the
    number of identities the cell was short at merge time.
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
        """Raise InvalidManifest on any malformed entry or duplicate sample."""
        if self.group_count < 1:
            raise InvalidManifest(f"group_count must be >= 1, got {self.group_count}")
        seen_samples = set()
        source_of = {}
        for e in self.entries:
            if e.source not in SOURCES:
                raise InvalidManifest(f"entry {e.sample_id}: unknown source {e.source!r}")
            if len(e.soft_labels) != self.group_count:
                raise InvalidManifest(
                    f"entry {e.sample_id}: {len(e.soft_labels)} soft labels, "
                    f"expected {self.group_count}")
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
    group = int(np.argmax(arr))
    return IdentityScore(identity_id, group, float(arr[group]), source)


def score_manifest(manifest: DatasetManifest) -> list[IdentityScore]:
    """Score every identity of a manifest, in lexicographic identity order."""
    by_id = manifest.identities()
    return [score_identity(identity_soft_label(by_id[iid]), iid, by_id[iid][0].source)
            for iid in sorted(by_id)]


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
    for iid, ents in entries_of.items():
        sc = score_identity(identity_soft_label(ents), iid, ents[0].source)
        by_group[sc.group].append(sc)
    for bucket in by_group:
        bucket.sort(key=lambda sc: (-sc.score, sc.identity_id))

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
    total_identities = 0
    real_identities = 0
    for sc in score_manifest(manifest):
        cell = groups[str(sc.group)][sc.source]
        cell["identities"] += 1
        cell["images"] += len(by_id[sc.identity_id])
        total_identities += 1
        real_identities += sc.source == "real"
    return {
        "name": manifest.name,
        "group_count": manifest.group_count,
        "groups": groups,
        "total_identities": total_identities,
        "total_images": len(manifest.entries),
        "real_identity_fraction": (real_identities / total_identities
                                   if total_identities else 0.0),
        "shortfalls": dict(manifest.shortfalls),
    }
