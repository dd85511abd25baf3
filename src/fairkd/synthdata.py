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
from .sampling import DatasetManifest, ManifestEntry, group_quotas, score_manifest

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


def _draw_soft_labels(group: int, cfg: UniverseConfig,
                      rng: np.random.Generator) -> tuple[float, ...]:
    if math.isinf(cfg.label_concentration):
        return tuple(1.0 if g == group else 0.0 for g in range(cfg.n_groups))
    alpha = np.ones(cfg.n_groups)
    alpha[group] = cfg.label_concentration
    return tuple(float(p) for p in rng.dirichlet(alpha))


def gen_identities(cfg: UniverseConfig, pool: str = "real",
                   count: int | None = None) -> list[ToyIdentity]:
    """Identity latents, true groups, and soft labels for one pool.

    The synthetic pool samples from a shifted, covariance-inflated copy of
    the real distribution; the holdout pool shares the real distribution but
    gets its own id namespace so it can never collide with training data.
    """
    if pool not in POOLS:
        raise InvalidArgument(f"unknown pool {pool!r}")
    if count is None:
        count = (cfg.eval_identities if pool == "holdout"
                 else cfg.identities_per_source)
    structure = group_structure(cfg)
    rng = _stream(cfg.seed, _STREAM_IDENTITIES[pool])
    quotas = group_quotas(count, cfg.n_groups)
    out = []
    k = 0
    for g in range(cfg.n_groups):
        mean = structure.means[g]
        scale = 1.0
        if pool == "synthetic":
            mean = mean + structure.synth_shifts[g]
            scale = cfg.synth_cov_inflation
        for _ in range(quotas[g]):
            latent = mean + scale * rng.standard_normal(cfg.latent_dim)
            labels = _draw_soft_labels(g, cfg, rng)
            out.append(ToyIdentity(f"{_ID_PREFIX[pool]}{k:04d}", g, pool,
                                   latent, labels))
            k += 1
    return out


@dataclass
class UniverseBundle:
    """Everything one config generates: manifests plus the feature store."""

    real: DatasetManifest
    synthetic: DatasetManifest
    holdout: DatasetManifest
    features: FeatureStore
    identities: dict[str, list[ToyIdentity]] = field(default_factory=dict)


def _pool_manifest(cfg: UniverseConfig, pool: str, name: str, ids: list,
                   matrix: np.ndarray) -> tuple[DatasetManifest, list[ToyIdentity]]:
    """Each identity's images are x = M_g z + noise_scale_g * eps, with the
    pool's noise drawn in one call, identity by identity, image by image; they
    fill the next rows of matrix, and their sample ids extend ids."""
    identities = gen_identities(cfg, pool)
    structure = group_structure(cfg)
    eps = _stream(cfg.seed, _STREAM_IMAGES[pool]).standard_normal(
        (len(identities), cfg.images_per_identity, cfg.feature_dim))
    source = "synthetic" if pool == "synthetic" else "real"
    entries = []
    for ident, noise in zip(identities, eps):
        matrix[len(ids):len(ids) + len(noise)] = (
            structure.maps[ident.group] @ ident.latent
            + cfg.noise_scales[ident.group] * noise)
        for j in range(len(noise)):
            ids.append(sample_id := f"{ident.identity_id}_im{j:02d}")
            entries.append(ManifestEntry(sample_id, ident.identity_id, source,
                                         ident.soft_labels, sample_id))
    return (DatasetManifest(name=name, group_count=cfg.n_groups,
                            entries=entries), identities)


def generate_universe(cfg: UniverseConfig) -> UniverseBundle:
    """All three pools of one universe, with a shared feature store."""
    ids: list[str] = []
    matrix = np.empty(((2 * cfg.identities_per_source + cfg.eval_identities)
                       * cfg.images_per_identity, cfg.feature_dim))
    pools = {pool: _pool_manifest(cfg, pool, name, ids, matrix) for pool, name in
             (("real", "real-train"), ("synthetic", "synthetic-train"),
              ("holdout", "holdout-eval"))}
    return UniverseBundle(*(pools[p][0] for p in POOLS), FeatureStore(ids, matrix),
                          {p: pools[p][1] for p in POOLS})


def _pair_capacity(images_by_identity: dict[str, list[str]]):
    sizes = [len(v) for v in images_by_identity.values()]
    pos = sum(n * (n - 1) // 2 for n in sizes)
    total = sum(sizes)
    neg = (total * total - sum(n * n for n in sizes)) // 2
    return pos, neg


def gen_pair_protocol(manifest: DatasetManifest, pairs_per_group: int,
                      seed: int) -> PairProtocol:
    """Balanced verification pairs per group, deterministic for a seed.

    Positives pair two images of one identity; negatives pair images of two
    identities in the same group. Unordered pairs never repeat.
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
    by_id = manifest.identities()

    group_members: dict[int, list[str]] = {g: [] for g in range(manifest.group_count)}
    for sc in score_manifest(manifest):
        group_members[sc.group].append(sc.identity_id)

    rng = _stream(seed, _STREAM_PROTOCOL)
    groups = []
    for g in range(manifest.group_count):
        members = group_members[g]
        images = {iid: [e.sample_id for e in by_id[iid]] for iid in members}
        pos_cap, neg_cap = _pair_capacity(images)
        if len(members) < 2 or pos_cap < half or neg_cap < half:
            raise InsufficientIdentities(
                f"group {g}: {len(members)} identities support {pos_cap} "
                f"positive / {neg_cap} negative pairs, need {half} of each")

        multi = [iid for iid in members if len(images[iid]) >= 2]
        chosen: set[frozenset] = set()
        pairs: list[VerificationPair] = []
        while len(pairs) < half:
            own = images[multi[int(rng.integers(len(multi)))]]
            a, b = (own[k] for k in rng.choice(len(own), size=2, replace=False))
            key = frozenset((a, b))
            if key not in chosen:
                chosen.add(key)
                pairs.append(VerificationPair(a, b, True))
        while len(pairs) < pairs_per_group:
            two = rng.choice(len(members), size=2, replace=False)
            a, b = (images[members[k]] for k in two)
            a, b = a[rng.choice(len(a))], b[rng.choice(len(b))]
            key = frozenset((a, b))
            if key not in chosen:
                chosen.add(key)
                pairs.append(VerificationPair(a, b, False))
        groups.append(GroupProtocol(f"group{g}", pairs))
    return PairProtocol(groups)
