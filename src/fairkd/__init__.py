"""Embedding-level knowledge distillation with group-fairness evaluation,
exercised end-to-end on a procedurally generated toy verification universe.

Modules:
    core        the one rule for a feature vector (feature_rows), the
                zero-norm convention and row-wise cosine similarity
    losses      margin-based heads, distillation objective, analytic gradients
    sampling    group-balanced merging of dataset manifests
    training    SGD loops: from-scratch and frozen-teacher distillation
    evaluation  batch pair scoring, k-fold thresholds, fairness metrics
    synthdata   toy identity/image/protocol generator
    formats     every artifact codec, checkpoints and traces included
    config      one RunConfig document wiring every stage together
    experiment  the paper experiment defined once: its RunConfig (PAPER)
                and run_seed, which trains and scores its arms on a seed
    cli         command-line pipeline driver

The public names imported below are the package's API.
"""

from .core import cosine_similarity
from .errors import ConfigError, FairkdError
from .losses import (
    HeadGradients,
    LossConfig,
    MarginConfig,
    NormStats,
    head_loss_and_grads,
    init_prototypes,
    kd_loss_and_grads,
    margin_logits,
    margin_loss_and_grads,
)
from .sampling import (
    DatasetManifest,
    IdentityScore,
    ManifestEntry,
    balanced_merge,
    group_quotas,
    identity_soft_label,
    largest_remainder,
    manifest_stats,
    mix_merge,
    score_manifest,
)
from .evaluation import (
    EvalReport,
    GroupProtocol,
    PairProtocol,
    VerificationPair,
    best_threshold_accuracy,
    build_report,
    fairness_std,
    kfold_verification_accuracy,
    render_table,
    round2,
    score_pairs,
    ser,
)
from .training import (
    Encoder,
    EncoderSpec,
    EpochStats,
    TrainConfig,
    TrainResult,
    distill,
    lr_at_epoch,
    sgd_step,
    train_from_scratch,
)
from .synthdata import (
    ToyIdentity,
    UniverseBundle,
    UniverseConfig,
    gen_identities,
    gen_pair_protocol,
    generate_universe,
    group_structure,
)
from .formats import (
    checkpoint_load,
    checkpoint_save,
    read_features,
    read_manifest,
    read_protocol,
    read_report,
    read_trace,
    write_features,
    write_manifest,
    write_protocol,
    write_report,
    write_trace,
)
from .config import EvalConfig, PathsConfig, RunConfig, config_digest, load_config

__version__ = "0.1.0"
