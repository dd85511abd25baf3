"""Identity scoring and group-balanced manifest merging."""

import copy
import dataclasses
import pickle
from collections.abc import Sequence

import numpy as np
import pytest
from helpers import ref_balanced_merge, ref_mix_merge, ref_validate
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkd.errors import (
    DuplicateIdentityAcrossSources,
    EmptyIdentity,
    EmptyManifest,
    FairkdError,
    InvalidManifest,
)
from fairkd import sampling
from fairkd.sampling import (
    DatasetManifest,
    ManifestEntry,
    balanced_merge,
    group_quotas,
    identity_soft_label,
    largest_remainder,
    manifest_stats,
    mix_merge,
    score_identity,
    score_manifest,
)


def man(name, idents, G=2):
    """Build a manifest from (identity_id, source, [soft label vectors])."""
    entries = []
    for iid, source, labels in idents:
        for j, sl in enumerate(labels):
            entries.append(ManifestEntry(f"{iid}_{j}", iid, source, tuple(sl),
                                         f"store/{iid}_{j}"))
    return DatasetManifest(name=name, group_count=G, entries=entries)


def kept_identities(manifest):
    return set(e.identity_id for e in manifest.entries)


class TestSoftLabels:
    def test_mean_of_two_vectors(self):
        m = man("m", [("a", "real", [[0.8, 0.2], [0.6, 0.4]])])
        np.testing.assert_allclose(identity_soft_label(m.entries), [0.7, 0.3],
                                   atol=1e-12)

    def test_single_image_is_identity(self):
        m = man("m", [("a", "real", [[1.0, 0.0]])])
        np.testing.assert_array_equal(identity_soft_label(m.entries), [1.0, 0.0])

    def test_constant_images_mean_unchanged(self):
        m = man("m", [("a", "real", [[0.25, 0.75]] * 3)])
        np.testing.assert_allclose(identity_soft_label(m.entries), [0.25, 0.75],
                                   atol=1e-12)

    def test_empty_identity_raises(self):
        with pytest.raises(EmptyIdentity):
            identity_soft_label([])


class TestScoreIdentity:
    def test_argmax_group_and_score(self):
        sc = score_identity([0.7, 0.3])
        assert (sc.group, sc.score) == (0, 0.7)

    def test_tie_breaks_to_lowest_group(self):
        sc = score_identity([0.5, 0.5])
        assert (sc.group, sc.score) == (0, 0.5)

    def test_three_groups(self):
        sc = score_identity([0.1, 0.2, 0.7])
        assert (sc.group, sc.score) == (2, 0.7)


class TestManifestValidation:
    def test_soft_labels_must_sum_to_one(self):
        with pytest.raises(InvalidManifest):
            man("m", [("a", "real", [[0.9, 0.2]])])

    def test_negative_soft_label_rejected(self):
        with pytest.raises(InvalidManifest):
            man("m", [("a", "real", [[1.1, -0.1]])])

    def test_identity_cannot_mix_sources(self):
        e1 = ManifestEntry("s1", "a", "real", (1.0, 0.0), "r1")
        e2 = ManifestEntry("s2", "a", "synthetic", (1.0, 0.0), "r2")
        with pytest.raises(InvalidManifest):
            DatasetManifest("m", 2, [e1, e2])

    def test_duplicate_sample_id_rejected(self):
        e = ManifestEntry("s1", "a", "real", (1.0, 0.0), "r1")
        with pytest.raises(InvalidManifest):
            DatasetManifest("m", 2, [e, e])

    def test_built_manifest_cannot_be_altered(self):
        m = man("m", [("a", "real", [[1.0, 0.0]])])
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.entries = []
        with pytest.raises(AttributeError):
            m.entries.append(m.entries[0])
        assert len(m.entries) == 1

    def test_shortfalls_read_only_and_manifest_hashable(self):
        given = {"group0": 2}
        m = DatasetManifest("m", 2, shortfalls=given)
        with pytest.raises(TypeError):
            m.shortfalls["group0"] = 5
        given["group0"] = 7
        assert m.shortfalls == {"group0": 2}
        assert hash(m) == hash(DatasetManifest("m", 2, shortfalls={"group0": 2}))
        for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert copied == m
            assert copied.shortfalls == {"group0": 2}

    def test_a_manifest_is_its_columns(self):
        # built from entries or from columns, the same manifest: equal,
        # hashed alike, copied alike, with entries made once from the columns
        m = man("m", [("a", "real", [[0.8, 0.2], [0.6, 0.4]]),
                       ("b", "synthetic", [[-0.0, 1.0]])])
        cols = DatasetManifest.from_columns(
            "m", 2, ["a_0", "a_1", "b_0"], ["a", "a", "b"],
            ["real", "real", "synthetic"], ["store/a_0", "store/a_1", "store/b_0"],
            np.array([[0.8, 0.2], [0.6, 0.4], [-0.0, 1.0]]))
        assert cols.entries is cols.entries
        assert cols.entries == m.entries and cols == m and hash(cols) == hash(m)
        assert cols.soft_labels.tobytes() == m.soft_labels.tobytes()
        assert not cols.soft_labels.flags.writeable
        for copied in (pickle.loads(pickle.dumps(cols)), copy.deepcopy(cols)):
            assert copied == m
            assert copied.soft_labels.tobytes() == m.soft_labels.tobytes()

    def test_entries_are_a_read_only_view_of_the_columns(self, monkeypatch):
        m = man("m", [("a", "real", [[0.8, 0.2], [0.6, 0.4]]),
                       ("b", "synthetic", [[-0.0, 1.0]])])
        records = tuple(m.entries)
        entries = m.entries
        assert isinstance(entries, Sequence) and not isinstance(entries, tuple)
        assert records == (
            ManifestEntry("a_0", "a", "real", (0.8, 0.2), "store/a_0"),
            ManifestEntry("a_1", "a", "real", (0.6, 0.4), "store/a_1"),
            ManifestEntry("b_0", "b", "synthetic", (-0.0, 1.0), "store/b_0"))
        assert entries[-1] == records[2] and entries[1] == records[1]
        assert type(entries[:2]) is tuple and entries[:2] == records[:2]
        assert entries[::-2] == records[::-2] and entries[5:] == ()
        assert list(reversed(entries)) == list(reversed(records))
        assert records[1] in entries and entries.index(records[2]) == 2
        with pytest.raises(IndexError):
            entries[3]
        with pytest.raises(TypeError):
            entries[0] = records[1]
        # equal to and hashed as the tuple of its records, from either side
        assert entries == records and records == entries and entries != list(records)
        assert hash(entries) == hash(records) and entries != records[:2]
        other = dataclasses.replace(m, name="other").entries
        assert other == entries and other is not entries
        relabeled = DatasetManifest.from_columns(
            "m", 2, m.sample_ids, m.identity_ids, m.sources, m.payload_refs,
            np.array([[0.8, 0.2], [0.6, 0.4], [0.0, 1.0]]))
        assert relabeled.entries == entries  # -0.0 == 0.0, as in the tuples
        relabeled = DatasetManifest.from_columns(
            "m", 2, m.sample_ids, m.identity_ids, m.sources, m.payload_refs,
            np.array([[0.8, 0.2], [0.4, 0.6], [0.0, 1.0]]))
        assert relabeled.entries != entries and relabeled != m
        assert DatasetManifest("e", 2).entries == DatasetManifest("e", 3).entries == ()
        # the length is the row count: no record is built for it
        monkeypatch.setattr(sampling, "ManifestEntry", None)
        assert len(entries) == 3 and len(DatasetManifest.from_columns(
            "n", 2, [], [], [], [], np.empty((0, 2))).entries) == 0

    @pytest.mark.parametrize("columns", [
        {"sources": ["real"]}, {"payload_refs": []},
        {"soft_labels": np.array([[1.0, 0.0]] * 3)},
        {"soft_labels": np.array([[1.0], [1.0]])},
        {"soft_labels": np.array([["1.0", "0.0"]] * 2)},
    ])
    def test_columns_of_other_sizes_or_types_are_refused(self, columns):
        given = {"sample_ids": ["s0", "s1"], "identity_ids": ["a", "b"],
                 "sources": ["real", "real"], "payload_refs": ["s0", "s1"],
                 "soft_labels": np.array([[1.0, 0.0], [0.0, 1.0]]), **columns}
        with pytest.raises(InvalidManifest, match="columns of 2 entries"):
            DatasetManifest.from_columns("m", 2, **given)

    @pytest.mark.parametrize("shortfalls", [
        {"g": -3}, {"group0": -3}, {"group0": 0}, {"group0": True},
        {"group0": 2.0}, {"group0": "2"}, {"zzz": 2, "group1": 1},
        {"group2": 1}, {"group01": 1}, {"group-1": 1}, {"group0/fake": 1},
        {"group0/": 1}, {"group0/real/x": 1}, {"Group0": 1}, {1: 2},
    ])
    def test_impossible_shortfalls_rejected(self, shortfalls):
        # a shortfall is a positive int, for a quota cell that a merge
        # over group_count groups can name
        with pytest.raises(InvalidManifest, match="shortfall"):
            DatasetManifest("m", 2, [], shortfalls)

    def test_every_quota_cell_a_merge_names_is_a_shortfall_key(self):
        cells = {"group0": 1, "group1": 2, "group0/real": 3,
                 "group1/synthetic": 4}
        assert DatasetManifest("m", 2, [], cells).shortfalls == cells

    def test_dense_labels_are_lexicographic(self):
        m = man("m", [("b", "real", [[1.0, 0.0]]),
                      ("a", "real", [[1.0, 0.0]]),
                      ("c", "real", [[0.0, 1.0]])])
        assert m.dense_labels() == {"a": 0, "b": 1, "c": 2}


class TestApportionment:
    def test_group_quotas_spread_remainder_forward(self):
        assert group_quotas(10, 4) == [3, 3, 2, 2]
        assert group_quotas(8, 2) == [4, 4]

    def test_largest_remainder_ties_follow_position(self):
        assert largest_remainder(14, [3.5, 3.5, 3.5, 3.5]) == [4, 4, 3, 3]

    def test_largest_remainder_exact_ideals(self):
        assert largest_remainder(8, [6.0, 2.0]) == [6, 2]


FIVE_IDENTITIES = [
    ("a", "real", [[0.9, 0.1]]),
    ("b", "real", [[0.6, 0.4]]),
    ("c", "real", [[0.55, 0.45]]),
    ("d", "real", [[0.05, 0.95]]),
    ("e", "real", [[0.45, 0.55]]),
]


class TestBalancedMerge:
    def test_keeps_top_scores_per_group(self):
        # group 0 ranks a > b > c, group 1 ranks d > e; quota 2 each.
        out = balanced_merge([man("m", FIVE_IDENTITIES)], 4)
        assert kept_identities(out) == {"a", "b", "d", "e"}
        assert out.shortfalls == {}

    def test_exact_fit_returns_input_set(self):
        balanced = [("a", "real", [[0.9, 0.1]]), ("b", "real", [[0.8, 0.2]]),
                    ("c", "real", [[0.1, 0.9]]), ("d", "real", [[0.2, 0.8]])]
        src = man("m", balanced)
        out = balanced_merge([src], 4)
        assert kept_identities(out) == kept_identities(src)
        assert sorted(e.sample_id for e in out.entries) == \
            sorted(e.sample_id for e in src.entries)

    def test_underflow_keeps_available_and_reports_shortfall(self):
        idents = [("a", "real", [[0.9, 0.1]]), ("b", "real", [[0.6, 0.4]]),
                  ("c", "real", [[0.55, 0.45]]), ("d", "real", [[0.05, 0.95]])]
        out = balanced_merge([man("m", idents)], 4)
        kept = kept_identities(out)
        assert {"a", "b", "d"} <= kept and len(kept) == 3
        assert out.shortfalls == {"group1": 1}

    def test_duplicate_identity_across_manifests_raises(self):
        m1 = man("m1", [("a", "real", [[1.0, 0.0]]), ("x", "real", [[0.0, 1.0]])])
        # distinct sample ids, same identity
        m2 = DatasetManifest(
            "m2", 2, [ManifestEntry("other", "a", "real", (1.0, 0.0), "r")])
        with pytest.raises(DuplicateIdentityAcrossSources):
            balanced_merge([m1, m2], 2)

    def test_same_manifest_twice_raises_duplicate_identity(self):
        m = man("m", FIVE_IDENTITIES)
        with pytest.raises(DuplicateIdentityAcrossSources):
            balanced_merge([m, m], 4)

    def test_total_below_group_count_rejected(self):
        with pytest.raises(ValueError):
            balanced_merge([man("m", FIVE_IDENTITIES)], 1)

    def test_sample_id_shared_across_manifests_raises(self):
        m1 = DatasetManifest(
            "m1", 2, [ManifestEntry("s", "a", "real", (1.0, 0.0), "r1")])
        m2 = DatasetManifest(
            "m2", 2, [ManifestEntry("s", "b", "real", (0.0, 1.0), "r2")])
        with pytest.raises(InvalidManifest):
            balanced_merge([m1, m2], 2)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyManifest):
            balanced_merge([], 4)
        with pytest.raises(EmptyManifest):
            balanced_merge([man("m", [])], 4)

    def test_deterministic_for_same_inputs(self):
        out1 = balanced_merge([man("m", FIVE_IDENTITIES)], 4)
        out2 = balanced_merge([man("m", FIVE_IDENTITIES)], 4)
        assert out1 == out2

    def test_score_ties_break_lexicographically(self):
        idents = [("b", "real", [[0.7, 0.3]]), ("a", "real", [[0.7, 0.3]]),
                  ("c", "real", [[0.0, 1.0]]), ("d", "real", [[0.0, 1.0]])]
        out = balanced_merge([man("m", idents)], 2)
        assert "a" in kept_identities(out) and "b" not in kept_identities(out)


def random_pool(rng, n_ids, G, source, prefix):
    idents = []
    for k in range(n_ids):
        raw = rng.random(G) + 0.05
        labels = [tuple(raw / raw.sum())] * int(rng.integers(1, 4))
        idents.append((f"{prefix}{k:03d}", source, labels))
    return idents


class TestMergeProperties:
    def test_group_counts_differ_by_at_most_one(self):
        for seed in range(5):
            rng = np.random.Generator(np.random.PCG64(seed))
            G = int(rng.integers(2, 5))
            pool = man("m", random_pool(rng, 40, G, "real", "id"), G=G)
            total = int(rng.integers(G, 30))
            out = balanced_merge([pool], total)
            if out.shortfalls:
                continue
            counts = [0] * G
            for sc in score_manifest(out):
                counts[sc.group] += 1
            assert max(counts) - min(counts) <= 1

    def test_kept_scores_dominate_dropped_scores(self):
        rng = np.random.Generator(np.random.PCG64(11))
        pool = man("m", random_pool(rng, 40, 3, "real", "id"), G=3)
        out = balanced_merge([pool], 12)
        kept = kept_identities(out)
        pool_scores = score_manifest(pool)
        for g in range(3):
            in_group = [sc for sc in pool_scores if sc.group == g]
            kept_s = [sc.score for sc in in_group if sc.identity_id in kept]
            drop_s = [sc.score for sc in in_group if sc.identity_id not in kept]
            if kept_s and drop_s:
                assert min(kept_s) >= max(drop_s)

    def test_no_sample_appears_twice(self):
        rng = np.random.Generator(np.random.PCG64(3))
        real = man("r", random_pool(rng, 20, 2, "real", "r"), G=2)
        synth = man("s", random_pool(rng, 20, 2, "synthetic", "s"), G=2)
        out = mix_merge([real], [synth], 0.7, 10)
        ids = [e.sample_id for e in out.entries]
        assert len(ids) == len(set(ids))


class TestMixMerge:
    def test_three_real_one_synthetic_per_group(self):
        rng = np.random.Generator(np.random.PCG64(21))
        real = man("r", random_pool(rng, 20, 2, "real", "r"), G=2)
        synth = man("s", random_pool(rng, 20, 2, "synthetic", "s"), G=2)
        out = mix_merge([real], [synth], 0.75, 8)
        stats = manifest_stats(out)
        for g in ("0", "1"):
            assert stats["groups"][g]["real"]["identities"] == 3
            assert stats["groups"][g]["synthetic"]["identities"] == 1

    def test_fraction_near_one_yields_no_synthetic(self):
        rng = np.random.Generator(np.random.PCG64(22))
        real = man("r", random_pool(rng, 30, 2, "real", "r"), G=2)
        synth = man("s", random_pool(rng, 30, 2, "synthetic", "s"), G=2)
        out = mix_merge([real], [synth], 0.99, 8)
        assert all(e.source == "real" for e in out.entries)

    def test_largest_remainder_apportionment_g4(self):
        rng = np.random.Generator(np.random.PCG64(23))
        real = man("r", random_pool(rng, 60, 4, "real", "r"), G=4)
        synth = man("s", random_pool(rng, 60, 4, "synthetic", "s"), G=4)
        out = mix_merge([real], [synth], 0.7, 20)
        stats = manifest_stats(out)
        real_counts = [stats["groups"][str(g)]["real"]["identities"]
                       for g in range(4)]
        synth_counts = [stats["groups"][str(g)]["synthetic"]["identities"]
                        for g in range(4)]
        assert real_counts == [4, 4, 3, 3]
        assert synth_counts == [1, 1, 2, 2]
        assert sum(real_counts) == 14 and sum(synth_counts) == 6

    def test_real_fraction_within_one_over_total(self):
        for seed, frac in ((1, 0.7), (2, 0.3), (3, 0.55), (4, 0.8)):
            rng = np.random.Generator(np.random.PCG64(seed))
            real = man("r", random_pool(rng, 40, 2, "real", "r"), G=2)
            synth = man("s", random_pool(rng, 40, 2, "synthetic", "s"), G=2)
            total = int(rng.integers(4, 25))
            out = mix_merge([real], [synth], frac, total)
            if out.shortfalls:
                continue
            got = manifest_stats(out)["real_identity_fraction"]
            assert abs(got - frac) <= 1.0 / total + 1e-12

    def test_identity_in_both_pools_raises(self):
        real = man("r", [("a", "real", [[1.0, 0.0]]), ("b", "real", [[0.0, 1.0]])])
        synth = DatasetManifest("s", 2, [
            ManifestEntry("sx", "a", "synthetic", (1.0, 0.0), "p"),
            ManifestEntry("sy", "c", "synthetic", (0.0, 1.0), "q")])
        with pytest.raises(DuplicateIdentityAcrossSources):
            mix_merge([real], [synth], 0.5, 2)

    def test_sample_id_shared_across_pools_raises(self):
        real = DatasetManifest(
            "r", 2, [ManifestEntry("s", "a", "real", (1.0, 0.0), "r1")])
        synth = DatasetManifest(
            "s", 2, [ManifestEntry("s", "b", "synthetic", (0.0, 1.0), "r2")])
        with pytest.raises(InvalidManifest):
            mix_merge([real], [synth], 0.5, 2)

    def test_wrong_source_in_pool_rejected(self):
        synth_mislabeled = man("s", [("a", "real", [[1.0, 0.0]])])
        real = man("r", [("b", "real", [[1.0, 0.0]])])
        with pytest.raises(InvalidManifest):
            mix_merge([real], [synth_mislabeled], 0.5, 2)

    def test_same_manifest_in_both_pools_rejected_by_source(self):
        m = man("m", FIVE_IDENTITIES)
        with pytest.raises(InvalidManifest):
            mix_merge([m], [m], 0.5, 4)

    def test_fraction_bounds_enforced(self):
        real = man("r", [("a", "real", [[1.0, 0.0]])])
        synth = man("s", [("b", "synthetic", [[1.0, 0.0]])])
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                mix_merge([real], [synth], bad, 2)


MERGE_FAULTS = ("no_manifests", "no_entries", "group_count",
                "same_manifest_twice", "identity_in_two_manifests",
                "wrong_source", "total_below_groups", "fraction")


def coarse_pool(rng, n_ids, G, source, prefix):
    """Like random_pool, with labels from a coarse grid so scores often tie."""
    idents = []
    for k in range(n_ids):
        raw = rng.integers(1, 4, size=(int(rng.integers(1, 4)), G))
        idents.append((f"{prefix}{k:03d}", source,
                       [tuple(row / row.sum()) for row in raw]))
    rng.shuffle(idents)
    return idents


def split_pool(rng, name, idents, G):
    """The identities of one pool spread over one or two manifests."""
    cut = int(rng.integers(1, len(idents) + 1))
    parts = [idents[:cut], idents[cut:]]
    return [man(f"{name}{k}", part, G) for k, part in enumerate(parts) if part]


def merge_outcome(merge, *args):
    """(name, group count, entries, shortfalls) of a merge, or its error class."""
    try:
        out = merge(*args)
    except FairkdError as exc:
        return type(exc)
    return out.name, out.group_count, out.entries, dict(out.shortfalls)


class TestMergeEquivalence:
    """The merges match the per-pool reference merges of tests/helpers.py:
    the same entries, order and shortfalls, or the same error class on an
    input with a single fault."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), G=st.integers(2, 4),
           mixed=st.booleans(),
           fault=st.one_of(st.none(), st.sampled_from(MERGE_FAULTS)))
    def test_merges_match_reference(self, seed, G, mixed, fault):
        rng = np.random.Generator(np.random.PCG64(seed))
        real = split_pool(rng, "r", coarse_pool(
            rng, int(rng.integers(1, 25)), G, "real", "r"), G)
        synth = split_pool(rng, "s", coarse_pool(
            rng, int(rng.integers(1, 25)), G, "synthetic", "s"), G)
        total = int(rng.integers(G, 61))
        fraction = float(rng.choice([0.25, 0.5, 0.75, rng.uniform(0.05, 0.95)]))
        donor = (real if rng.random() < 0.5 else synth)[0].entries[0]
        # A balanced merge takes both pools as one list of manifests; a mixed
        # merge takes the fault in one of its two pools.
        pools = [real, synth] if mixed else [real + synth]
        pool = pools[int(rng.integers(len(pools)))]
        source = pool[0].entries[0].source
        if fault == "no_manifests":
            pool.clear()
        elif fault == "no_entries":
            pool[:] = [DatasetManifest("empty", G)]
        elif fault == "group_count":
            pool.append(man("wide", [("w", source, [[1.0] + [0.0] * G])], G + 1))
        elif fault == "same_manifest_twice":
            pool.append(pool[0])
        elif fault == "identity_in_two_manifests":
            pool.append(DatasetManifest("dup", G, [dataclasses.replace(
                donor, sample_id="dup_0", source=source)]))
        elif fault == "wrong_source" and mixed:
            wrong = "synthetic" if source == "real" else "real"
            pool.append(man("wrong", [("x", wrong, [[1.0] + [0.0] * (G - 1)])], G))
        elif fault == "total_below_groups":
            total = int(rng.integers(-2, G))
        elif fault == "fraction" and mixed:
            fraction = float(rng.choice([0.0, 1.0, -0.1, 1.5, np.nan]))

        if mixed:
            got = merge_outcome(mix_merge, *pools, fraction, total)
            want = merge_outcome(ref_mix_merge, *pools, fraction, total)
        else:
            got = merge_outcome(balanced_merge, *pools, total)
            want = merge_outcome(ref_balanced_merge, *pools, total)
        assert got == want


class TestManifestStats:
    def test_empty_manifest_all_zeros(self):
        stats = manifest_stats(DatasetManifest("empty", 2))
        assert stats["total_identities"] == 0
        assert stats["total_images"] == 0
        assert all(cell["identities"] == 0 and cell["images"] == 0
                   for grp in stats["groups"].values() for cell in grp.values())

    def test_balanced_output_counts(self):
        out = balanced_merge([man("m", FIVE_IDENTITIES)], 4)
        stats = manifest_stats(out)
        per_group = [sum(cell["identities"] for cell in stats["groups"][g].values())
                     for g in ("0", "1")]
        assert per_group == [2, 2]

    def test_counts_reconcile_with_size(self):
        rng = np.random.Generator(np.random.PCG64(9))
        pool = man("m", random_pool(rng, 25, 3, "real", "id"), G=3)
        stats = manifest_stats(pool)
        images = sum(cell["images"] for grp in stats["groups"].values()
                     for cell in grp.values())
        assert images == stats["total_images"] == len(pool.entries)


# label rows for the check below: right and wrong counts, negatives,
# non-finite values, sums off by about the tolerance and ints
def candidate_rows(g):
    one_hot = tuple(1.0 if k == 0 else 0.0 for k in range(g))
    return [one_hot, one_hot[::-1], tuple(1.0 / g for _ in range(g)),
            (1,) + (0,) * (g - 1), (-0.0,) * (g - 1) + (1.0,),
            one_hot + (0.0,), one_hot[1:], (0.5,) * (g + 1),
            (-0.5,) + (1.5,) + (0.0,) * (g - 2), (float("nan"),) * g,
            (float("inf"),) + (0.0,) * (g - 1), (0.5,) * g,
            (1.0 + 1e-6,) + (0.0,) * (g - 1), (1.0 - 2e-6,) + (0.0,) * (g - 1),
            (1.0 + 5e-7,) + (0.0,) * (g - 1)]


def outcome(check, *args):
    try:
        check(*args)
    except InvalidManifest as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data(), g=st.integers(0, 3))
def test_column_checks_raise_what_the_entry_loop_raises(data, g):
    rows = candidate_rows(max(g, 2))
    entries = [ManifestEntry(
        data.draw(st.sampled_from("abcd")), data.draw(st.sampled_from("xyz")),
        data.draw(st.sampled_from(["real", "real", "synthetic", "other"])),
        data.draw(st.sampled_from(rows)), "ref")
        for _ in range(data.draw(st.integers(0, 7)))]
    want = outcome(ref_validate, g, entries)
    assert outcome(DatasetManifest, "m", g, entries) == want


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 5))
def test_identity_scores_are_bitwise_the_one_identity_path(seed, g):
    rng = np.random.Generator(np.random.PCG64(seed))
    n_ids = int(rng.integers(1, 12))
    entries = []
    for k, iid in enumerate(rng.integers(0, n_ids, int(rng.integers(1, 60)))):
        raw = rng.random(g) * (rng.random(g) < 0.8)
        raw[int(rng.integers(g))] += 1e-3
        # off a sum of 1 by up to 4e-7, so that one group is not all 1.0
        labels = raw / raw.sum() * (1.0 + rng.uniform(-4e-7, 4e-7))
        labels[labels == 0.0] = -0.0 if rng.random() < 0.5 else 0.0
        entries.append(ManifestEntry(f"s{k}", f"id{iid}", "real",
                                     tuple(labels.tolist()), f"s{k}"))
    manifest = DatasetManifest("m", g, entries)
    by_id = manifest.identities()
    want = [score_identity(identity_soft_label(by_id[iid]), iid, "real")
            for iid in sorted(by_id)]
    got = score_manifest(manifest)
    assert [(s.identity_id, s.group, s.score.hex()) for s in got] == \
        [(s.identity_id, s.group, s.score.hex()) for s in want]


def test_text_labels_are_not_numbers():
    # numpy would read "0.5" as a number if asked for floats
    with pytest.raises(TypeError):
        DatasetManifest("m", 2, [ManifestEntry("s", "i", "real", ("0.5", "0.5"), "s")])
