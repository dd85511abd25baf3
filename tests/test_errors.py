import os

import numpy as np
import pytest

from fairkd.errors import (
    DimensionMismatch,
    EmptyInput,
    FairkdError,
    InvalidArgument,
    InvalidMergeRequest,
    ZeroVector,
)
from fairkd.evaluation import (
    GroupProtocol,
    PairProtocol,
    VerificationPair,
    build_report,
    fairness_std,
    kfold_verification_accuracy,
    render_table,
    score_pairs,
)
from fairkd.formats import (
    checkpoint_save,
    encode_array,
    write_doc,
    write_features,
    write_protocol,
    write_trace,
)
from fairkd.losses import (
    LossConfig,
    MarginConfig,
    NormStats,
    head_loss_and_grads,
    init_prototypes,
    kd_loss_and_grads,
    margin_logits,
    margin_loss_and_grads,
)
from fairkd.sampling import (
    DatasetManifest,
    ManifestEntry,
    group_quotas,
    largest_remainder,
    score_identity,
)
from fairkd.synthdata import UniverseConfig, gen_identities, gen_pair_protocol
from fairkd.training import (
    Encoder,
    EncoderSpec,
    TrainConfig,
    TrainResult,
    sgd_step,
    train_from_scratch,
)

# Writers must refuse before they touch the file; a write here fails as IoError.
UNWRITABLE = os.path.join(os.devnull, "artifact.json")


def prototypes_with(value):
    """Three valid prototype rows, the last holding one entry set to value."""
    w = np.eye(3, 4)
    w[2, 3] = value
    return w


def model_with(weight=0.0, prototype=0.0, mean_norm=20.0):
    """A small trained model; the defaults make it valid."""
    encoder = Encoder(EncoderSpec(4, (3,), 2, init_seed=1))
    encoder.weights[0][0, 0] = weight
    return TrainResult(encoder, np.full((3, 2), prototype),
                       NormStats(mean_norm, 1.0), [], None)


def protocol_with(names=("g",), same=True):
    """A one-positive, one-negative group under each name, its positive pair
    labelled same; the defaults make it valid."""
    return PairProtocol([GroupProtocol(name, [
        VerificationPair("a", "b", same), VerificationPair("a", "c", False)])
        for name in names])


def backward_with(d_embedding):
    """Encoder.backward of a 5-row forward pass with the given gradient."""
    encoder = Encoder(EncoderSpec(4, (3,), 2))
    _, cache = encoder.forward_cached(np.ones((5, 4)))
    return encoder.backward(cache, d_embedding)


def store_with(value):
    """Feature vectors of samples a, b and c, the last one replaced by value."""
    return {"a": np.ones(4), "b": np.full(4, 2.0), "c": value}


# The three public callers that resolve samples in a feature store.
STORE_CALLERS = {
    "train": lambda store: train_from_scratch(
        EncoderSpec(4, (3,), 2),
        DatasetManifest("m", 2, [
            ManifestEntry(s, f"id-{s}", "real", (1.0, 0.0), s) for s in "abc"]),
        store, LossConfig(), TrainConfig(epochs=1, lr_milestones=())),
    "pairs": lambda store: score_pairs(lambda f: f, GroupProtocol("g", [
        VerificationPair("a", "c", True), VerificationPair("a", "b", False)]),
        store),
    "features": lambda store: write_features(store, UNWRITABLE),
}
BAD_VECTORS = {"ragged": np.ones(5), "text": ["x"] * 4, "scalar": 1.5,
               "nan": np.array([1.0, np.nan, 1.0, 1.0])}


@pytest.mark.parametrize("call, error", [
    (lambda: gen_identities(UniverseConfig(), "bogus"), InvalidArgument),
    (lambda: kfold_verification_accuracy([0.1, 0.9] * 5, [0, 1] * 5, k=1),
     InvalidArgument),
    (lambda: init_prototypes(0, 4, 0), InvalidArgument),
    (lambda: render_table([build_report([90.0, 80.0])], fmt="html"),
     InvalidArgument),
    (lambda: largest_remainder(3, [5.0, 5.0]), InvalidMergeRequest),
    (lambda: head_loss_and_grads(np.ones((2, 4)), np.eye(3, 4), [0, 1],
                                 MarginConfig(kind="elastic_arcface")),
     InvalidArgument),
    (lambda: head_loss_and_grads(np.ones((2, 4)), np.eye(3, 4), [0, 1],
                                 MarginConfig.adaface()), InvalidArgument),
    (lambda: fairness_std([101.0, 50.0]), InvalidArgument),
    (lambda: write_features({"a": np.array([np.nan, 1.0])}, UNWRITABLE),
     InvalidArgument),
    (lambda: encode_array(np.zeros(2, dtype=np.float32)), InvalidArgument),
    (lambda: write_doc(UNWRITABLE, "s", {"a": 1}, {"a": 2}), InvalidArgument),
    (lambda: checkpoint_save(model_with(weight=np.nan), UNWRITABLE),
     InvalidArgument),
    (lambda: checkpoint_save(model_with(prototype=np.inf), UNWRITABLE),
     InvalidArgument),
    (lambda: checkpoint_save(model_with(mean_norm=np.nan), UNWRITABLE),
     InvalidArgument),
    (lambda: write_trace([{"epoch": 0, "lr": 0.1, "cls_loss": np.nan,
                           "kd_loss": 0.5, "total_loss": 3.0}], UNWRITABLE),
     InvalidArgument),
    (lambda: write_doc(UNWRITABLE, "s", {"a": 1}, {"b": np.inf}),
     InvalidArgument),
    (lambda: write_trace([{"epoch": 0, "lr": 0.1, "cls_loss": 2.5}],
                         UNWRITABLE), InvalidArgument),
    (lambda: write_features({1: np.ones(4), "1": np.zeros(4)}, UNWRITABLE),
     InvalidArgument),
    (lambda: write_protocol(protocol_with(names=("g", "g")), UNWRITABLE),
     InvalidArgument),
    (lambda: write_protocol(protocol_with(same=1), UNWRITABLE),
     InvalidArgument),
    (lambda: write_protocol(protocol_with(same=np.True_), UNWRITABLE),
     InvalidArgument),
    (lambda: group_quotas(5, 0), InvalidMergeRequest),
    (lambda: group_quotas(-5, 2), InvalidMergeRequest),
    (lambda: largest_remainder(3, [float("nan"), 1.0]), InvalidMergeRequest),
    (lambda: largest_remainder(3, [float("inf")]), InvalidMergeRequest),
    (lambda: largest_remainder(1, [-1.5, 2.5]), InvalidMergeRequest),
    (lambda: gen_identities(UniverseConfig(), "real", count=-3),
     InvalidMergeRequest),
    (lambda: gen_pair_protocol(DatasetManifest("m", 2), -2, 0),
     InvalidArgument),
    (lambda: kd_loss_and_grads(np.ones((2, 3)), np.zeros((2, 3)),
                               reduction="bogus"), InvalidArgument),
    (lambda: score_identity([]), InvalidArgument),
    (lambda: score_identity([float("nan"), float("nan")]), InvalidArgument),
    (lambda: score_identity([[0.2, 0.8]]), InvalidArgument),
    (lambda: init_prototypes(3, 4, seed=-1), InvalidArgument),
    (lambda: gen_pair_protocol(DatasetManifest("m", 2), 2, seed=-1),
     InvalidArgument),
    (lambda: kfold_verification_accuracy([0.1, 0.9] * 5, [0, 1] * 5, seed=-1),
     InvalidArgument),
    (lambda: head_loss_and_grads(np.ones((2, 4)), prototypes_with(np.nan),
                                 [0, 1], MarginConfig()), ZeroVector),
    (lambda: head_loss_and_grads(np.ones((2, 4)), prototypes_with(np.inf),
                                 [0, 1], MarginConfig()), ZeroVector),
    (lambda: head_loss_and_grads(np.ones((0, 4)), np.eye(3, 4), [],
                                 MarginConfig()), EmptyInput),
    (lambda: kd_loss_and_grads(np.ones((0, 3)), np.ones((0, 3))), EmptyInput),
    (lambda: margin_loss_and_grads(np.ones((5, 4)), np.eye(3, 4), [0] * 5,
                                   16.0, np.zeros(3), 0.0), DimensionMismatch),
    (lambda: margin_loss_and_grads(np.ones((5, 4)), np.eye(3, 4), [0] * 5,
                                   16.0, 0.3, np.zeros(3)), DimensionMismatch),
    (lambda: margin_logits(np.ones((5, 4)), np.eye(3, 4), [0] * 5,
                           16.0, np.zeros(3)), DimensionMismatch),
    (lambda: margin_logits(np.ones((5, 4)), np.eye(3, 4), [0] * 5,
                           16.0, 0.3, np.zeros((5, 1))), DimensionMismatch),
    (lambda: head_loss_and_grads(np.ones((2, 4)), np.eye(3, 4), [1.7, 0.0],
                                 MarginConfig()), InvalidArgument),
    (lambda: NormStats.default().update(np.zeros(0), 0.1), InvalidArgument),
    (lambda: sgd_step([np.ones(2)], [np.ones(2)], float("nan"), 0.9,
                      [np.zeros(2)]), InvalidArgument),
    (lambda: sgd_step([np.ones(2)], [np.ones(2)], 0.1, float("inf"),
                      [np.zeros(2)]), InvalidArgument),
    (lambda: backward_with(np.ones((5, 7))), DimensionMismatch),
    *[(lambda caller=caller, value=value:
       STORE_CALLERS[caller](store_with(value)), InvalidArgument)
      for caller in STORE_CALLERS for value in BAD_VECTORS.values()],
], ids=["pool", "kfold-k", "prototypes", "table-format", "remainder",
        "elastic-rng", "adaface-stats", "accuracy-range", "features-nan", "array-dtype",
        "header-collision", "checkpoint-nan-weight",
        "checkpoint-inf-prototypes", "checkpoint-nan-norm-stat",
        "trace-nan-value", "header-inf-value", "trace-three-fields",
        "features-int-key", "protocol-repeated-group", "protocol-int-same",
        "protocol-numpy-same", "quotas-no-groups", "quotas-negative-total",
        "remainder-nan", "remainder-inf", "remainder-negative",
        "identities-negative-count", "pairs-negative", "kd-reduction",
        "score-empty", "score-nan", "score-2d", "prototypes-negative-seed",
        "pairs-negative-seed", "kfold-negative-seed", "head-nan-prototypes",
        "head-inf-prototypes", "head-empty-batch", "kd-empty-batch",
        "loss-ang-length", "loss-add-length", "logits-ang-length",
        "logits-add-shape", "head-float-labels", "norm-stats-empty-batch",
        "sgd-nan-lr", "sgd-inf-momentum", "backward-wrong-shape",
        *[f"{caller}-{kind}-vector" for caller in STORE_CALLERS
          for kind in BAD_VECTORS]])
def test_public_api_argument_errors_are_fairkd_errors(call, error):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, FairkdError)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("caller", list(STORE_CALLERS))
def test_every_store_caller_names_the_non_finite_sample(caller):
    with pytest.raises(InvalidArgument, match="'c'"):
        STORE_CALLERS[caller](store_with(BAD_VECTORS["nan"]))


def test_zero_total_and_zero_identity_count_stay_allowed():
    assert group_quotas(0, 3) == [0, 0, 0]
    assert gen_identities(UniverseConfig(), "real", count=0) == []
