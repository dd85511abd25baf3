"""Procedural toy universe: identities with group structure and soft labels.

Identities live in a latent space with one cluster center per group; images
are a fixed per-group linear map of the identity latent plus isotropic noise.
Two knobs create the phenomena the rest of the pipeline measures:

* per-group noise scales (monotonically increasing by default) make later
  groups harder to verify, so STD/SER have something to detect;
* the "synthetic" pool draws its latents from a shifted, wider copy of the
  "real" distribution, so models trained on it lag on real-distribution
  evaluation data.

Evaluation identities come from a third pool ("holdout") that shares the real
distribution but never enters a training manifest.

Everything is a pure function of UniverseConfig: every operation derives its
generator from the config seed plus a fixed stream tag, so re-running any
piece reproduces identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureStore, check_fields, rule
from .errors import (
    ConfigError,
    InsufficientIdentities,
    InvalidArgument,
    OddPairCount,
)
from .evaluation import GroupProtocol, PairProtocol, VerificationPair
from .sampling import DatasetManifest, group_quotas, identity_rows, score_manifest

POOLS = ("real", "synthetic", "holdout")

# Stream tags so independent draws come from independent generators.
_STREAM_STRUCTURE = 0
_STREAM_IDENTITIES = {"real": 1, "synthetic": 2, "holdout": 3}
_STREAM_IMAGES = {"real": 11, "synthetic": 12, "holdout": 13}
_STREAM_PROTOCOL = 21

_ID_PREFIX = {"real": "re", "synthetic": "sy", "holdout": "ev"}


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


@dataclass(frozen=True)
class UniverseConfig:
    """Shape and hardness knobs of the generated universe."""

    n_groups: int = rule(int, 4, ge=2)
    identities_per_source: int = rule(int, 40)
    eval_identities: int = rule(int, 16)
    images_per_identity: int = rule(int, 8, ge=1)
    latent_dim: int = rule(int, 6, ge=2)
    feature_dim: int = rule(int, 16, ge=2)
    noise_scales: tuple[float, ...] | None = rule(tuple[float, ...], None, ge=0)
    label_concentration: float = rule(float, 20.0, finite=False, gt=0)  # inf: one-hot
    group_separation: float = rule(float, 4.0, ge=0)
    synth_mean_shift: float = rule(float, 1.5, ge=0)
    synth_cov_inflation: float = rule(float, 1.6, gt=0)
    seed: int = rule(int, 0, ge=0)

    def __post_init__(self):
        check_fields(self)
        if min(self.identities_per_source, self.eval_identities) < self.n_groups:
            raise ConfigError("identities_per_source and eval_identities must "
                              f"be >= n_groups = {self.n_groups}")
        if self.noise_scales is None:
            object.__setattr__(self, "noise_scales", tuple(
                np.linspace(0.25, 0.55, self.n_groups).tolist()))
        if len(self.noise_scales) != self.n_groups:
            raise ConfigError(f"{len(self.noise_scales)} noise scales for "
                              f"{self.n_groups} groups")


@dataclass(frozen=True)
class ToyIdentity:
    identity_id: str
    group: int
    pool: str
    latent: np.ndarray
    soft_labels: tuple[float, ...]


@dataclass
class GroupStructure:
    """Per-group geometry shared by every pool of one universe."""

    means: list[np.ndarray]        # latent cluster centers
    synth_shifts: list[np.ndarray]  # added to means for the synthetic pool
    maps: list[np.ndarray]          # latent -> feature mixing maps


def group_structure(cfg: UniverseConfig) -> GroupStructure:
    """Deterministic group geometry derived from the config seed."""
    rng = _stream(cfg.seed, _STREAM_STRUCTURE)
    means, shifts, maps = [], [], []
    for _ in range(cfg.n_groups):
        direction = rng.standard_normal(cfg.latent_dim)
        direction /= np.linalg.norm(direction)
        means.append(cfg.group_separation * direction)
        shift = rng.standard_normal(cfg.latent_dim)
        shift /= np.linalg.norm(shift)
        shifts.append(cfg.synth_mean_shift * shift)
        maps.append(rng.standard_normal((cfg.feature_dim, cfg.latent_dim))
                    / math.sqrt(cfg.latent_dim))
    return GroupStructure(means, shifts, maps)


def gen_identities(cfg: UniverseConfig, pool: str = "real",
                   count: int | None = None) -> list[ToyIdentity]:
    """Identity latents, true groups, and soft labels for one pool.

    The synthetic pool samples from a shifted, covariance-inflated copy of
    the real distribution; the holdout pool shares the real distribution but
    gets its own id namespace so it can never collide with training data.
    """
    if pool not in POOLS:
        raise InvalidArgument(f"unknown pool {pool!r}")
    return _identities(cfg, pool, group_structure(cfg), count)


def _identities(cfg: UniverseConfig, pool: str, structure: GroupStructure,
                count: int | None = None) -> list[ToyIdentity]:
    """Per identity, its latent's standard normals, then (for a finite
    label_concentration) its Dirichlet soft labels, from the pool's stream."""
    if count is None:
        count = (cfg.eval_identities if pool == "holdout"
                 else cfg.identities_per_source)
    rng = _stream(cfg.seed, _STREAM_IDENTITIES[pool])
    one_hot = math.isinf(cfg.label_concentration)
    out = []
    for g, quota in enumerate(group_quotas(count, cfg.n_groups)):
        mean = structure.means[g]
        scale = 1.0
        if pool == "synthetic":
            mean = mean + structure.synth_shifts[g]
            scale = cfg.synth_cov_inflation
        alpha = np.ones(cfg.n_groups)
        alpha[g] = cfg.label_concentration
        hot = tuple(float(k == g) for k in range(cfg.n_groups))
        for _ in range(quota):
            latent = mean + scale * rng.standard_normal(cfg.latent_dim)
            labels = hot if one_hot else tuple(rng.dirichlet(alpha).tolist())
            out.append(ToyIdentity(f"{_ID_PREFIX[pool]}{len(out):04d}", g, pool,
                                   latent, labels))
    return out


@dataclass
class UniverseBundle:
    """Everything one config generates: manifests plus the feature store."""

    real: DatasetManifest
    synthetic: DatasetManifest
    holdout: DatasetManifest
    features: FeatureStore
    identities: dict[str, list[ToyIdentity]] = field(default_factory=dict)


def _pool_manifest(cfg: UniverseConfig, pool: str, name: str,
                   structure: GroupStructure, ids: list, matrix: np.ndarray
                   ) -> tuple[DatasetManifest, list[ToyIdentity]]:
    """Each identity's images are x = M_g z + noise_scale_g * eps, with the
    pool's noise drawn in one call, identity by identity, image by image:
    one M_g z per identity, the noise scaled in place, then one broadcast add
    into the next rows of matrix. Their sample ids extend ids."""
    identities = _identities(cfg, pool, structure)
    images = cfg.images_per_identity
    eps = _stream(cfg.seed, _STREAM_IMAGES[pool]).standard_normal(
        (len(identities), images, cfg.feature_dim))
    eps *= np.array([cfg.noise_scales[i.group] for i in identities])[:, None, None]
    centers = np.array([structure.maps[i.group] @ i.latent for i in identities])
    start = len(ids)
    np.add(centers[:, None, :], eps,
           out=matrix[start:start + eps.shape[0] * images].reshape(eps.shape))
    suffixes = [f"_im{j:02d}" for j in range(images)]
    iids = [i.identity_id for i in identities]
    ids.extend([iid + suffix for iid in iids for suffix in suffixes])
    sample_ids = ids[start:]
    labels = np.array([i.soft_labels for i in identities]).reshape(-1, cfg.n_groups)
    return (DatasetManifest.from_columns(
        name, cfg.n_groups, sample_ids, [iid for iid in iids for _ in suffixes],
        ("synthetic" if pool == "synthetic" else "real",) * len(sample_ids),
        sample_ids, np.repeat(labels, images, axis=0)), identities)


def generate_universe(cfg: UniverseConfig) -> UniverseBundle:
    """All three pools of one universe, with a shared feature store."""
    structure, ids = group_structure(cfg), []
    matrix = np.empty(((2 * cfg.identities_per_source + cfg.eval_identities)
                       * cfg.images_per_identity, cfg.feature_dim))
    pools = {pool: _pool_manifest(cfg, pool, name, structure, ids, matrix)
             for pool, name in (("real", "real-train"),
                                ("synthetic", "synthetic-train"),
                                ("holdout", "holdout-eval"))}
    return UniverseBundle(*(pools[p][0] for p in POOLS), FeatureStore(ids, matrix),
                          {p: pools[p][1] for p in POOLS})


def _pair_capacity(images: list[list[str]]):
    sizes = [len(own) for own in images]
    pos = sum(n * (n - 1) // 2 for n in sizes)
    total = sum(sizes)
    neg = (total * total - sum(n * n for n in sizes)) // 2
    return pos, neg


def _two_distinct(draw, n: int):
    """rng.choice(n, size=2, replace=False) through draw = rng.integers, the
    same three draws: Floyd's sampling of two items, then a one-swap
    shuffle."""
    i, j = draw(n - 1), draw(n)
    if i == j:
        j = n - 1
    return (i, j) if draw(2) else (j, i)


def gen_pair_protocol(manifest: DatasetManifest, pairs_per_group: int,
                      seed: int) -> PairProtocol:
    """Balanced verification pairs per group, deterministic for a seed.

    Positives pair two images of one identity; negatives pair images of two
    identities in the same group. Unordered pairs never repeat.

    Each group's pairs come from one generator, rng, seeded by seed. A
    positive draws an identity with two or more images,
    rng.integers(len(multi)), then two of its images, rng.choice(len(own),
    size=2, replace=False); a negative draws two identities of the group,
    rng.choice(len(members), size=2, replace=False), then one image of each,
    rng.choice(len(images)). Those draws are made as rng.integers calls that
    give the same numbers and leave the same generator state (_two_distinct;
    rng.choice(n) is rng.integers(n)).
    """
    if pairs_per_group < 0:
        raise InvalidArgument(
            f"pairs_per_group must be >= 0, got {pairs_per_group}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    if pairs_per_group % 2 != 0:
        raise OddPairCount(
            f"pairs_per_group must be even, got {pairs_per_group}")
    half = pairs_per_group // 2
    rows_of = identity_rows(manifest.identity_ids)

    group_members: dict[int, list[str]] = {g: [] for g in range(manifest.group_count)}
    for sc in score_manifest(manifest):
        group_members[sc.group].append(sc.identity_id)

    draw = _stream(seed, _STREAM_PROTOCOL).integers
    groups = []
    for g in range(manifest.group_count):
        members = group_members[g]
        images = [[manifest.sample_ids[i] for i in rows_of[iid]] for iid in members]
        pos_cap, neg_cap = _pair_capacity(images)
        if len(members) < 2 or pos_cap < half or neg_cap < half:
            raise InsufficientIdentities(
                f"group {g}: {len(members)} identities support {pos_cap} "
                f"positive / {neg_cap} negative pairs, need {half} of each")

        multi = [own for own in images if len(own) >= 2]
        chosen: set[tuple[str, str]] = set()
        pairs: list[VerificationPair] = []
        while len(pairs) < half:
            own = multi[draw(len(multi))]
            i, j = _two_distinct(draw, len(own))
            a, b = own[i], own[j]
            key = (a, b) if a < b else (b, a)
            if key not in chosen:
                chosen.add(key)
                pairs.append(VerificationPair(a, b, True))
        while len(pairs) < pairs_per_group:
            i, j = _two_distinct(draw, len(images))
            a, b = images[i], images[j]
            a, b = a[draw(len(a))], b[draw(len(b))]
            key = (a, b) if a < b else (b, a)
            if key not in chosen:
                chosen.add(key)
                pairs.append(VerificationPair(a, b, False))
        groups.append(GroupProtocol(f"group{g}", pairs))
    return PairProtocol(groups)
