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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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


class _Entries(Sequence):
    """A manifest's entries as a read-only view of its columns: its length
    is the row count, an index builds one ManifestEntry, a slice a tuple of
    them, and it equals (and hashes as) the tuple of all of them. It holds
    the columns, not the manifest, so the two make no reference cycle."""

    __slots__ = ("_columns",)

    def __init__(self, sample_ids, identity_ids, sources, soft_labels, payload_refs):
        self._columns = sample_ids, identity_ids, sources, soft_labels, payload_refs

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, k):
        sids, iids, sources, labels, refs = self._columns
        if isinstance(k, slice):
            return tuple(map(ManifestEntry, sids[k], iids[k], sources[k],
                             map(tuple, labels[k].tolist()), refs[k]))
        return ManifestEntry(sids[k], iids[k], sources[k],
                             tuple(labels[k].tolist()), refs[k])

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other):
        if isinstance(other, _Entries):
            a, b = self._columns, other._columns  # the id columns, then labels
            return a[:3] + a[4:] == b[:3] + b[4:] and (
                not len(self) or np.array_equal(a[3], b[3]))
        return self[:] == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self[:])

    def __repr__(self) -> str:
        return repr(self[:])


@dataclass(frozen=True, init=False)
class DatasetManifest:
    """Named image entries over a fixed number of groups, held as columns:
    entry i is row i of sample_ids, identity_ids, sources and payload_refs
    (tuples of str) and of soft_labels, a read-only float64 (N, group_count)
    matrix. Built from ManifestEntry records, or by from_columns; entries is
    a read-only Sequence view of the columns that builds a ManifestEntry
    only for the rows it is asked for.

    Checked when built and frozen, with its shortfalls in a read-only
    mapping, so a manifest that exists is valid. shortfalls maps quota cells
    (e.g. "group1" or "group1/real", of a group below group_count) to the
    number of identities the cell was short at merge time, a positive int.
    """

    name: str
    group_count: int
    entries: Sequence[ManifestEntry]  # the cached property below
    shortfalls: Mapping[str, int] = field(hash=False)

    def __init__(self, name: str, group_count: int, entries=(), shortfalls=None):
        entries = tuple(entries)
        sids, iids, sources, rows, refs = zip(*((
            e.sample_id, e.identity_id, e.source, e.soft_labels, e.payload_ref)
            for e in entries)) if entries else [()] * 5
        short = next((k for k, row in enumerate(rows) if len(row) != group_count), None)
        if short is not None:  # the entries before a row of another length fail first
            DatasetManifest(name, group_count, entries[:short], shortfalls)
            e = entries[short]
            raise InvalidManifest(f"entry {e.sample_id}: " + (
                f"unknown source {e.source!r}" if e.source not in SOURCES
                else f"{len(e.soft_labels)} soft labels, expected {group_count}"))
        labels = np.array(rows).reshape(len(rows), max(group_count, 0))
        if labels.dtype.kind not in "biuf":  # numpy would read "0.5" as a number
            raise TypeError(f"soft labels must be numbers, found {labels.dtype}")
        self.__dict__.update(vars(self.from_columns(
            name, group_count, sids, iids, sources, refs,
            labels.astype(np.float64), shortfalls)))

    @classmethod
    def from_columns(cls, name: str, group_count: int, sample_ids, identity_ids,
                     sources, payload_refs, soft_labels,
                     shortfalls=None) -> DatasetManifest:
        self, labels = cls.__new__(cls), np.asarray(soft_labels).view()
        labels.flags.writeable = False
        self.__dict__.update(
            name=name, group_count=group_count, sample_ids=tuple(sample_ids),
            identity_ids=tuple(identity_ids), sources=tuple(sources),
            payload_refs=tuple(payload_refs), soft_labels=labels,
            shortfalls=MappingProxyType(dict(shortfalls or {})))
        self.validate()
        return self

    def __reduce__(self):
        # A mappingproxy cannot be pickled or deep-copied: rebuild instead.
        return DatasetManifest.from_columns, (
            self.name, self.group_count, self.sample_ids, self.identity_ids,
            self.sources, self.payload_refs, self.soft_labels, dict(self.shortfalls))

    @cached_property
    def entries(self) -> Sequence[ManifestEntry]:
        return _Entries(self.sample_ids, self.identity_ids, self.sources,
                        self.soft_labels, self.payload_refs)

    def validate(self) -> None:
        """Raise InvalidManifest on a bad shortfall, columns of different
        sizes, a malformed entry or a duplicate sample: by column, each check
        only before the first failure so far, so the message is that of the
        first bad entry's first failed check."""
        g, n, sources = self.group_count, len(self.sample_ids), self.sources
        if g < 1:
            raise InvalidManifest(f"group_count must be >= 1, got {g}")
        for key, count in self.shortfalls.items():
            cell = isinstance(key, str) and _CELL.fullmatch(key)
            if not (cell and int(cell[1]) < g and type(count) is int and count > 0):
                raise InvalidManifest(f"shortfall {key!r}: {count!r} is not a "
                                      f"positive count of a quota cell of {g} groups")
        labels = self.soft_labels
        if {len(self.identity_ids), len(sources), len(self.payload_refs)} != {n} or (
                labels.shape != (n, g) or labels.dtype != np.float64):
            raise InvalidManifest(f"columns of {n} entries with a {labels.dtype} "
                                  f"{labels.shape} label matrix")
        end, error = n, None
        if sources.count("real") + sources.count("synthetic") < end:
            end = next(i for i, s in enumerate(sources) if s not in SOURCES)
            error = f"unknown source {sources[end]!r}"
        labels = labels[:end]
        with np.errstate(all="ignore"):  # each row summed left to right, as sum()
            bad = (~np.isfinite(labels) | (labels < 0.0)).any(axis=1)
            off = bad | (abs(sum(labels.T, np.zeros(end)) - 1.0) > SOFT_LABEL_SUM_TOL)
        if off.any():
            end = int(off.argmax())
            error = ("soft labels must be >= 0" if bad[end] else "soft "
                     f"labels sum to {sum(labels[end].tolist())!r}, not 1")
        sample_ids, ids = self.sample_ids[:end], self.identity_ids[:end]
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
            raise InvalidManifest(f"entry {self.sample_ids[end]}: {error}")

    def identities(self) -> dict[str, list[ManifestEntry]]:
        """Entries grouped by identity, in first-appearance order."""
        return {iid: [self.entries[i] for i in rows]
                for iid, rows in identity_rows(self.identity_ids).items()}

    def dense_labels(self) -> dict[str, int]:
        """Identity -> class index, assigned by lexicographic identity_id.

        Derivable from the entries alone, so a manifest loaded from disk
        yields the same class indices as the one that was saved.
        """
        return {iid: k for k, iid in enumerate(sorted(set(self.identity_ids)))}


def identity_rows(identity_ids) -> dict[str, list[int]]:
    """Each identity's row indices, identities in first-appearance order."""
    rows: dict[str, list[int]] = {}
    for i, iid in enumerate(identity_ids):
        rows.setdefault(iid, []).append(i)
    return rows


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


def _score_identities(rows_of: dict, labels: np.ndarray,
                      sources) -> list[IdentityScore]:
    """score_identity(identity_soft_label(entries), iid, source) for each
    identity of rows_of (identity -> its rows of labels and sources), with
    the source of its first row, bitwise: rows are added in order from 0.0 as
    mean(axis=0) adds them; one group, whose column numpy sums pairwise,
    takes that path."""
    if labels.shape[1] < 2:
        return [score_identity(labels[rows].mean(axis=0), iid, sources[rows[0]])
                for iid, rows in rows_of.items()]
    counts = np.array([len(rows) for rows in rows_of.values()], dtype=np.intp)
    means = np.zeros((counts.size, labels.shape[1]))
    np.add.at(means, np.repeat(np.arange(counts.size), counts),
              labels[list(chain.from_iterable(rows_of.values()))])
    means /= counts[:, None]
    groups = means.argmax(axis=1).tolist()
    return [IdentityScore(iid, g, float(mean[g]), sources[rows[0]])
            for (iid, rows), g, mean in zip(rows_of.items(), groups, means)]


def score_manifest(manifest: DatasetManifest) -> list[IdentityScore]:
    """Score every identity of a manifest, in lexicographic identity order."""
    rows_of = identity_rows(manifest.identity_ids)
    return sorted(_score_identities(rows_of, manifest.soft_labels, manifest.sources),
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
    owner: dict[str, int] = {}
    for k, (source, man) in enumerate(pooled):
        if man.group_count != group_count:
            raise InvalidManifest(
                f"manifest {man.name!r} has {man.group_count} groups, "
                f"expected {group_count}")
        for sid, iid, src in zip(man.sample_ids, man.identity_ids, man.sources):
            if source is not None and src != source:
                raise InvalidManifest(
                    f"manifest {man.name!r}: entry {sid} has source "
                    f"{src!r} in a {source} pool")
            if (prior := owner.setdefault(iid, k)) != k:
                raise DuplicateIdentityAcrossSources(
                    f"identity {iid!r} appears in manifests "
                    f"{pooled[prior][1].name!r} and {man.name!r}")
    if not all(any(man.sample_ids for man in mans) for mans in pools.values()):
        raise EmptyManifest("manifests contain no entries")
    if total_identities < group_count:
        raise InvalidMergeRequest(
            f"total_identities {total_identities} < group count {group_count}")

    mans = [man for _, man in pooled]
    columns = [list(chain.from_iterable(getattr(man, c) for man in mans))
               for c in ("sample_ids", "identity_ids", "sources", "payload_refs")]
    labels = np.concatenate([man.soft_labels for man in mans])
    rows_of = identity_rows(columns[1])
    by_group: list[list[IdentityScore]] = [[] for _ in range(group_count)]
    for sc in sorted(_score_identities(rows_of, labels, columns[2]),
                     key=lambda sc: (-sc.score, sc.identity_id)):
        by_group[sc.group].append(sc)

    take, shortfalls = [], {}
    for key, g, source, quota in cells(group_quotas(total_identities, group_count)):
        ranked = [sc for sc in by_group[g] if source is None or sc.source == source]
        if quota > len(ranked):
            shortfalls[key] = quota - len(ranked)
        for sc in ranked[:quota]:
            take.extend(rows_of[sc.identity_id])
    return DatasetManifest.from_columns(
        name, group_count, *(list(map(c.__getitem__, take)) for c in columns),
        labels[take], shortfalls)


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
    rows_of = identity_rows(manifest.identity_ids)
    scores = _score_identities(rows_of, manifest.soft_labels, manifest.sources)
    for sc in scores:
        cell = groups[str(sc.group)][sc.source]
        cell["identities"] += 1
        cell["images"] += len(rows_of[sc.identity_id])
    return {
        "name": manifest.name,
        "group_count": manifest.group_count,
        "groups": groups,
        "total_identities": len(scores),
        "total_images": len(manifest.sample_ids),
        "real_identity_fraction": (sum(sc.source == "real" for sc in scores)
                                   / len(scores) if scores else 0.0),
        "shortfalls": dict(manifest.shortfalls),
    }
