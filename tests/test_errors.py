import numpy as np
import pytest

from fairkd.errors import FairkdError, InvalidArgument, InvalidMergeRequest
from fairkd.evaluation import build_report, kfold_verification_accuracy, render_table
from fairkd.losses import MarginConfig, head_loss_and_grads, init_prototypes
from fairkd.sampling import largest_remainder
from fairkd.synthdata import UniverseConfig, gen_identities


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
], ids=["pool", "kfold-k", "prototypes", "table-format", "remainder",
        "elastic-rng"])
def test_public_api_argument_errors_are_fairkd_errors(call, error):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, FairkdError)
    assert isinstance(exc.value, ValueError)
