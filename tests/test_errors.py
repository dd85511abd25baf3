import os

import numpy as np
import pytest

from fairkd.errors import FairkdError, InvalidArgument, InvalidMergeRequest
from fairkd.evaluation import (
    build_report,
    fairness_std,
    kfold_verification_accuracy,
    render_table,
)
from fairkd.formats import encode_array, write_doc, write_features
from fairkd.losses import (
    MarginConfig,
    head_loss_and_grads,
    init_prototypes,
    kd_loss_and_grads,
)
from fairkd.sampling import DatasetManifest, group_quotas, largest_remainder
from fairkd.synthdata import UniverseConfig, gen_identities, gen_pair_protocol

# Writers must refuse before they touch the file; a write here fails as IoError.
UNWRITABLE = os.path.join(os.devnull, "artifact.json")


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
    (lambda: fairness_std([101.0, 50.0]), InvalidArgument),
    (lambda: write_features({"a": np.array([np.nan, 1.0])}, UNWRITABLE),
     InvalidArgument),
    (lambda: encode_array(np.zeros(2, dtype=np.float32)), InvalidArgument),
    (lambda: write_doc(UNWRITABLE, "s", {"a": 1}, {"a": 2}), InvalidArgument),
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
], ids=["pool", "kfold-k", "prototypes", "table-format", "remainder",
        "elastic-rng", "accuracy-range", "features-nan", "array-dtype",
        "header-collision", "quotas-no-groups", "quotas-negative-total",
        "remainder-nan", "remainder-inf", "remainder-negative",
        "identities-negative-count", "pairs-negative", "kd-reduction"])
def test_public_api_argument_errors_are_fairkd_errors(call, error):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, FairkdError)
    assert isinstance(exc.value, ValueError)


def test_zero_total_and_zero_identity_count_stay_allowed():
    assert group_quotas(0, 3) == [0, 0, 0]
    assert gen_identities(UniverseConfig(), "real", count=0) == []
