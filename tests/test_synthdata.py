import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairkd.core import FeatureStore, cosine_similarity, feature_rows
from fairkd.errors import InsufficientIdentities, OddPairCount
from fairkd.evaluation import kfold_verification_accuracy, score_pairs
from fairkd.formats import write_protocol
from fairkd.sampling import DatasetManifest, ManifestEntry
from fairkd.synthdata import (
    _STREAM_PROTOCOL,
    POOLS,
    UniverseConfig,
    _stream,
    _two_distinct,
    gen_identities,
    gen_pair_protocol,
    generate_universe,
    group_structure,
)
from helpers import (
    assert_bitwise,
    ref_gen_pair_protocol,
    ref_identities,
    ref_pool,
    ref_pool_features,
)


def small_cfg(**kw):
    base = dict(n_groups=2, identities_per_source=8, eval_identities=6,
                images_per_identity=4, latent_dim=4, feature_dim=6, seed=0)
    base.update(kw)
    return UniverseConfig(**base)


# ---------------------------------------------------------------- config


def test_default_noise_scales_increase_with_group():
    for n_groups in (2, 4, 7):
        cfg = UniverseConfig(n_groups=n_groups,
                             identities_per_source=2 * n_groups,
                             eval_identities=n_groups)
        assert len(cfg.noise_scales) == n_groups
        assert all(a < b for a, b in
                   zip(cfg.noise_scales, cfg.noise_scales[1:]))


@pytest.mark.parametrize("kw", [
    dict(n_groups=1),
    dict(latent_dim=1),
    dict(feature_dim=1),
    dict(identities_per_source=3, n_groups=4),
    dict(eval_identities=3, n_groups=4),
    dict(images_per_identity=0),
    dict(noise_scales=(0.1, 0.2)),          # wrong length for 4 groups
    dict(noise_scales=(0.1, 0.2, 0.3, -0.1)),
    dict(label_concentration=0.0),
    dict(group_separation=-1.0),
    dict(synth_cov_inflation=0.0),
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        UniverseConfig(**kw)


def test_zero_noise_scale_is_allowed():
    cfg = small_cfg(noise_scales=(0.0, 0.0))
    assert cfg.noise_scales == (0.0, 0.0)


# ---------------------------------------------------------- identities


def test_identity_pools_have_expected_counts_and_prefixes():
    cfg = small_cfg()
    real = gen_identities(cfg, "real")
    synth = gen_identities(cfg, "synthetic")
    hold = gen_identities(cfg, "holdout")
    assert len(real) == len(synth) == cfg.identities_per_source
    assert len(hold) == cfg.eval_identities
    assert all(i.identity_id.startswith("re") for i in real)
    assert all(i.identity_id.startswith("sy") for i in synth)
    assert all(i.identity_id.startswith("ev") for i in hold)


def test_group_counts_within_one_of_each_other():
    cfg = UniverseConfig(n_groups=3, identities_per_source=10,
                         eval_identities=5)
    counts = [0] * 3
    for ident in gen_identities(cfg, "real"):
        counts[ident.group] += 1
    assert sum(counts) == 10
    assert max(counts) - min(counts) <= 1


def test_unknown_pool_rejected():
    with pytest.raises(ValueError):
        gen_identities(small_cfg(), "augmented")


def test_identities_deterministic_for_seed():
    cfg = small_cfg(seed=5)
    a = gen_identities(cfg, "real")
    b = gen_identities(cfg, "real")
    assert all(x.identity_id == y.identity_id
               and np.array_equal(x.latent, y.latent)
               and x.soft_labels == y.soft_labels
               for x, y in zip(a, b))


def test_count_override():
    ids = gen_identities(small_cfg(), "real", count=4)
    assert len(ids) == 4


def test_soft_labels_are_a_distribution():
    for ident in gen_identities(small_cfg(), "real"):
        assert all(p >= 0 for p in ident.soft_labels)
        assert sum(ident.soft_labels) == pytest.approx(1.0, abs=1e-12)


def test_argmax_recovers_true_group_on_large_pool():
    # 100 identities per group at the default concentration.
    cfg = UniverseConfig(identities_per_source=400)
    ids = gen_identities(cfg, "real")
    hits = sum(1 for i in ids if int(np.argmax(i.soft_labels)) == i.group)
    assert hits / len(ids) >= 0.95


def test_infinite_concentration_gives_exact_one_hot():
    cfg = small_cfg(label_concentration=float("inf"))
    for ident in gen_identities(cfg, "real"):
        expected = tuple(1.0 if g == ident.group else 0.0
                         for g in range(cfg.n_groups))
        assert ident.soft_labels == expected


def test_higher_concentration_means_purer_labels():
    def mean_true_mass(conc):
        cfg = UniverseConfig(identities_per_source=200,
                             label_concentration=conc)
        ids = gen_identities(cfg, "real")
        return np.mean([i.soft_labels[i.group] for i in ids])

    assert mean_true_mass(40.0) > mean_true_mass(2.0)


def test_synthetic_latents_are_shifted_and_wider():
    cfg = UniverseConfig(identities_per_source=400, synth_mean_shift=1.5,
                         synth_cov_inflation=1.6)
    structure = group_structure(cfg)
    real = gen_identities(cfg, "real")
    synth = gen_identities(cfg, "synthetic")
    for g in range(cfg.n_groups):
        r = np.array([i.latent for i in real if i.group == g])
        s = np.array([i.latent for i in synth if i.group == g])
        gap = np.linalg.norm(r.mean(axis=0) - s.mean(axis=0))
        assert gap == pytest.approx(
            np.linalg.norm(structure.synth_shifts[g]), abs=0.6)
        # variance inflation 1.6 -> factor 2.56 per coordinate
        assert s.var(axis=0).mean() > 1.5 * r.var(axis=0).mean()


# -------------------------------------------------------------- images


def test_image_count_and_sample_ids():
    cfg = small_cfg()
    bundle = generate_universe(cfg)
    ident = bundle.identities["real"][0]
    entries = bundle.real.identities()[ident.identity_id]
    assert len(entries) == cfg.images_per_identity
    assert [e.sample_id for e in entries] == [
        f"{ident.identity_id}_im{j:02d}" for j in range(len(entries))]
    assert all(e.identity_id == ident.identity_id for e in entries)
    assert all(bundle.features[e.sample_id].shape == (cfg.feature_dim,)
               for e in entries)


def test_zero_noise_images_are_identical_and_equal_mapped_latent():
    cfg = small_cfg(noise_scales=(0.0, 0.0))
    structure = group_structure(cfg)
    bundle = generate_universe(cfg)
    ident = bundle.identities["real"][0]
    feats = [bundle.features[e.sample_id]
             for e in bundle.real.identities()[ident.identity_id]]
    expected = structure.maps[ident.group] @ ident.latent
    for f in feats:
        assert np.array_equal(f, expected)
    got = cosine_similarity(feats[0], feats[1])
    assert got <= 1.0
    assert got == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@example(n_groups=6, per_group=1, images=1, feature_dim=7, zero_noise=True,
         seed=0)
@example(n_groups=2, per_group=3, images=1, feature_dim=3, zero_noise=False,
         seed=1)
@given(n_groups=st.integers(2, 6), per_group=st.integers(1, 3),
       images=st.integers(1, 4), feature_dim=st.integers(2, 9),
       zero_noise=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_pool_features_match_per_image_reference(n_groups, per_group, images,
                                                 feature_dim, zero_noise,
                                                 seed):
    cfg = UniverseConfig(
        n_groups=n_groups, identities_per_source=n_groups * per_group + 1,
        eval_identities=n_groups, images_per_identity=images, latent_dim=3,
        feature_dim=feature_dim, seed=seed,
        noise_scales=(0.0,) * n_groups if zero_noise else None)
    bundle = generate_universe(cfg)
    expected = {}
    for pool, manifest in (("real", bundle.real),
                           ("synthetic", bundle.synthetic),
                           ("holdout", bundle.holdout)):
        ref = ref_pool_features(cfg, pool)
        assert [e.sample_id for e in manifest.entries] == list(ref)
        expected.update(ref)
    assert list(bundle.features) == list(expected)
    for sample_id, feature in expected.items():
        assert_bitwise(bundle.features[sample_id], feature)


def test_universe_features_are_rows_of_one_matrix():
    bundle = generate_universe(small_cfg())
    store = bundle.features
    assert isinstance(store, FeatureStore)
    assert store.matrix.shape == (len(store), small_cfg().feature_dim)
    assert all(store[sid].base is store.matrix.base for sid in store)


def test_a_universe_draws_its_noise_into_its_feature_matrix():
    # 20 640 x 16: generation holds at most 0.15x the matrix bytes at its
    # peak beyond what it keeps; a noise array of the largest pool is 0.48x
    cfg = UniverseConfig(identities_per_source=1000, eval_identities=64,
                         images_per_identity=10)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bundle = generate_universe(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert bundle.features.matrix.shape == (20_640, 16)
    assert peak - held <= 0.15 * bundle.features.matrix.nbytes


def _group_cfg(n_groups, **kw):
    return UniverseConfig(n_groups=n_groups, identities_per_source=3 * n_groups + 1,
                          eval_identities=2 * n_groups, **kw)


@pytest.mark.parametrize("cfg", [
    UniverseConfig(), small_cfg(seed=7),
    *(_group_cfg(g, seed=g) for g in range(2, 7)),
    small_cfg(images_per_identity=1), UniverseConfig(images_per_identity=1, seed=3),
    small_cfg(label_concentration=math.inf),
    _group_cfg(5, label_concentration=math.inf, images_per_identity=3, seed=11),
    small_cfg(noise_scales=(0.0, 0.7), latent_dim=9, feature_dim=2, seed=2),
], ids=lambda cfg: f"g{cfg.n_groups}-i{cfg.images_per_identity}-"
                   f"c{cfg.label_concentration}-s{cfg.seed}")
def test_pools_match_the_per_identity_reference(cfg):
    # the draws, their order and every bit of the rows, ids, labels and
    # identities are those of the per-identity loop
    bundle = generate_universe(cfg)
    for pool, manifest in zip(POOLS, (bundle.real, bundle.synthetic, bundle.holdout)):
        rows, sample_ids, identity_ids, labels = ref_pool(cfg, pool)
        assert manifest.sample_ids == manifest.payload_refs == tuple(sample_ids)
        assert manifest.identity_ids == tuple(identity_ids)
        assert manifest.sources == ("synthetic" if pool == "synthetic"
                                    else "real",) * len(sample_ids)
        assert_bitwise(manifest.soft_labels, labels)
        assert_bitwise(feature_rows(bundle.features, sample_ids), rows)
        for identities in (bundle.identities[pool], gen_identities(cfg, pool)):
            want = ref_identities(cfg, pool)
            assert len(identities) == len(want)
            for ident, (iid, group, latent, soft) in zip(identities, want):
                assert (ident.identity_id, ident.group, ident.pool) == (iid, group, pool)
                assert_bitwise(ident.latent, latent)
                assert [type(p) for p in ident.soft_labels] == [float] * cfg.n_groups
                assert [p.hex() for p in ident.soft_labels] == [p.hex() for p in soft]


def unit(x):
    return x / np.linalg.norm(x)


def test_within_identity_cosine_exceeds_between_identity():
    cfg = small_cfg(seed=2)
    bundle = generate_universe(cfg)
    by_id = bundle.real.identities()
    ids = sorted(by_id)
    feats = {i: [unit(bundle.features[e.sample_id]) for e in by_id[i]]
             for i in ids}
    within = np.mean([float(feats[i][0] @ feats[i][1]) for i in ids])
    between = np.mean([float(feats[a][0] @ feats[b][0])
                       for a in ids for b in ids if a < b])
    assert within > between


# -------------------------------------------------------------- bundle


def test_bundle_counts_and_sources():
    cfg = small_cfg()
    b = generate_universe(cfg)
    per_pool = cfg.identities_per_source * cfg.images_per_identity
    assert len(b.real.entries) == per_pool
    assert len(b.synthetic.entries) == per_pool
    assert len(b.holdout.entries) == cfg.eval_identities * cfg.images_per_identity
    assert {e.source for e in b.real.entries} == {"real"}
    assert {e.source for e in b.synthetic.entries} == {"synthetic"}
    assert {e.source for e in b.holdout.entries} == {"real"}
    for manifest in (b.real, b.synthetic, b.holdout):
        manifest.validate()


def test_feature_store_matches_manifests_exactly():
    b = generate_universe(small_cfg())
    referenced = {e.sample_id
                  for m in (b.real, b.synthetic, b.holdout)
                  for e in m.entries}
    assert set(b.features) == referenced
    assert all(e.payload_ref == e.sample_id
               for m in (b.real, b.synthetic, b.holdout)
               for e in m.entries)


def test_holdout_identities_never_in_training_manifests():
    b = generate_universe(small_cfg())
    train = {e.identity_id for e in b.real.entries}
    train |= {e.identity_id for e in b.synthetic.entries}
    eval_ids = {e.identity_id for e in b.holdout.entries}
    assert not train & eval_ids


def test_bundle_bitwise_deterministic():
    cfg = small_cfg(seed=9)
    a = generate_universe(cfg)
    b = generate_universe(cfg)
    assert a.real.entries == b.real.entries
    assert a.synthetic.entries == b.synthetic.entries
    assert a.holdout.entries == b.holdout.entries
    assert all(np.array_equal(a.features[k], b.features[k])
               for k in a.features)


def test_different_seeds_differ():
    a = generate_universe(small_cfg(seed=0))
    b = generate_universe(small_cfg(seed=1))
    shared = set(a.features) & set(b.features)
    assert any(not np.array_equal(a.features[k], b.features[k])
               for k in shared)


# ------------------------------------------------------------ protocol


def test_protocol_is_balanced_per_group():
    b = generate_universe(small_cfg())
    proto = gen_pair_protocol(b.holdout, pairs_per_group=6, seed=3)
    assert len(proto.groups) == 2
    for g in proto.groups:
        assert g.positive_count == 3
        assert g.negative_count == 3


def test_protocol_pairs_respect_identity_and_group():
    b = generate_universe(small_cfg(eval_identities=8))
    proto = gen_pair_protocol(b.holdout, pairs_per_group=8, seed=1)
    owner = {e.sample_id: e.identity_id for e in b.holdout.entries}
    group_of = {}
    for e in b.holdout.entries:
        group_of[e.identity_id] = int(np.argmax(e.soft_labels))
    for g in proto.groups:
        for p in g.pairs:
            ia, ib = owner[p.sample_a], owner[p.sample_b]
            assert (ia == ib) == p.same
            assert group_of[ia] == group_of[ib]


def test_protocol_has_no_duplicate_unordered_pairs():
    b = generate_universe(small_cfg(eval_identities=8))
    proto = gen_pair_protocol(b.holdout, pairs_per_group=10, seed=2)
    for g in proto.groups:
        keys = {frozenset((p.sample_a, p.sample_b)) for p in g.pairs}
        assert len(keys) == len(g.pairs)


def test_odd_pair_count_rejected():
    b = generate_universe(small_cfg())
    with pytest.raises(OddPairCount):
        gen_pair_protocol(b.holdout, pairs_per_group=5, seed=0)


def test_single_identity_group_rejected():
    entries = []
    for ident, labels in (("a", (0.9, 0.1)), ("b", (0.1, 0.9))):
        for j in range(3):
            sid = f"{ident}{j}"
            entries.append(ManifestEntry(sid, ident, "real", labels, sid))
    manifest = DatasetManifest(name="thin", group_count=2, entries=entries)
    with pytest.raises(InsufficientIdentities):
        gen_pair_protocol(manifest, pairs_per_group=2, seed=0)


def test_no_positive_capacity_rejected():
    # one image per identity: negatives exist, positives cannot
    b = generate_universe(small_cfg(images_per_identity=1))
    with pytest.raises(InsufficientIdentities):
        gen_pair_protocol(b.holdout, pairs_per_group=2, seed=0)


def test_demanding_more_pairs_than_capacity_rejected():
    b = generate_universe(small_cfg())
    with pytest.raises(InsufficientIdentities):
        gen_pair_protocol(b.holdout, pairs_per_group=10_000, seed=0)


def test_protocol_files_byte_identical_for_same_seed(tmp_path):
    b = generate_universe(small_cfg())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_protocol(gen_pair_protocol(b.holdout, 6, seed=7), p1)
    write_protocol(gen_pair_protocol(b.holdout, 6, seed=7), p2)
    assert p1.read_bytes() == p2.read_bytes()
    p3 = tmp_path / "c.json"
    write_protocol(gen_pair_protocol(b.holdout, 6, seed=8), p3)
    assert p1.read_bytes() != p3.read_bytes()


@pytest.mark.parametrize("n", [*range(2, 65), 10_000, 10_001, 2**20])
def test_two_distinct_is_choice_without_replacement(n):
    # the same two items as rng.choice(n, 2, replace=False), and the same
    # generator state after: if numpy changes choice, this fails
    ours, theirs = _stream(n, _STREAM_PROTOCOL), _stream(n, _STREAM_PROTOCOL)
    for _ in range(200):
        got = _two_distinct(ours.integers, n)
        assert tuple(map(int, got)) == tuple(theirs.choice(n, 2, replace=False).tolist())
    assert ours.bit_generator.state == theirs.bit_generator.state


@st.composite
def protocol_manifests(draw):
    """A small manifest of 2-3 groups, each of 1-4 identities (mostly 2 or
    more) with 1-4 images each, so single-image identities, uneven counts
    and groups too small for the pairs asked all occur. A random prefix
    interleaves the groups' identity ids."""
    g_count = draw(st.integers(2, 3))
    entries = []
    for g in range(g_count):
        labels = tuple(float(k == g) for k in range(g_count))
        fewest = draw(st.sampled_from((1, 2, 2, 2)))
        sizes = draw(st.lists(st.integers(1, 4), min_size=fewest, max_size=4))
        for k, images in enumerate(sizes):
            iid = f"id{draw(st.integers(0, 99)):02d}{g}{k}"
            entries.extend(ManifestEntry(f"{iid}_{j}", iid, "real", labels, f"{iid}_{j}")
                           for j in range(images))
    return DatasetManifest("m", g_count, entries)


def _protocol_outcome(gen, manifest, pairs_per_group, seed):
    try:
        return [(g.name, g.pairs) for g in gen(manifest, pairs_per_group, seed).groups]
    except InsufficientIdentities:
        return InsufficientIdentities


@settings(max_examples=150, deadline=None)
@example(manifest=DatasetManifest("m", 2, [
    ManifestEntry(f"{iid}_{j}", iid, "real", labels, f"{iid}_{j}")
    for iid, labels, images in (("a", (1.0, 0.0), 3), ("b", (1.0, 0.0), 1),
                                ("c", (0.0, 1.0), 2), ("d", (0.0, 1.0), 4))
    for j in range(images)]), pairs_per_group=6, seed=0)
@given(manifest=protocol_manifests(), pairs_per_group=st.integers(0, 6).map(lambda k: 2 * k),
       seed=st.integers(0, 2**32 - 1))
def test_protocol_matches_the_choice_reference(manifest, pairs_per_group, seed):
    want = _protocol_outcome(ref_gen_pair_protocol, manifest, pairs_per_group, seed)
    assert _protocol_outcome(gen_pair_protocol, manifest, pairs_per_group, seed) == want


def test_protocol_matches_the_choice_reference_on_a_universe():
    bundle = generate_universe(UniverseConfig(eval_identities=40, seed=5))
    for seed in (0, 1, 1000):
        assert gen_pair_protocol(bundle.holdout, 200, seed) == \
            ref_gen_pair_protocol(bundle.holdout, 200, seed)


# ----------------------------------------------------------- hardness


def test_noisier_groups_score_lower_on_raw_features():
    """The group noise ladder must show up as a verification accuracy gap."""
    wins = 0
    for seed in range(5):
        cfg = UniverseConfig(noise_scales=(0.1, 0.3, 0.6, 1.2),
                             eval_identities=24, seed=seed)
        b = generate_universe(cfg)
        proto = gen_pair_protocol(b.holdout, pairs_per_group=60,
                                  seed=cfg.seed + 100)
        accs = []
        for g in proto.groups:
            scored = score_pairs(lambda x: x, g, b.features)
            accs.append(kfold_verification_accuracy(
                [s for s, _ in scored], [y for _, y in scored],
                k=5, seed=0))
        wins += accs[0] > accs[-1]
    assert wins >= 4
