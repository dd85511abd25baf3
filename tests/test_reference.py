"""The in-place margin-head kernel and the flat-buffer training loop against
their out-of-place references in helpers.py: every result must match bit for
bit, because the determinism contract pins trained models exactly."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkd.losses import (
    MARGIN_KINDS,
    LossConfig,
    MarginConfig,
    NormStats,
    adaface_margin_terms,
    head_loss_and_grads,
    kd_loss_and_grads,
    margin_logits,
    margin_loss_and_grads,
)
from fairkd.synthdata import UniverseConfig, generate_universe
from fairkd.training import (
    EncoderSpec,
    TrainConfig,
    distill,
    train_from_scratch,
)
from helpers import (
    assert_bitwise,
    ref_forward,
    ref_head_loss_and_grads,
    ref_kd_loss_and_grads,
    ref_margin_loss_and_grads,
    ref_train,
)

HEAD_SETTINGS = settings(max_examples=80, deadline=None)


def draw_batch(seed, b, c, d, scale, single):
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((b, d)) * scale
    w = rng.standard_normal((c, d))
    y = rng.integers(0, c, size=b)
    if single:
        return z[0], w, int(y[0])
    return z, w, y


def assert_same_head(got, ref):
    assert_bitwise(got.loss, ref.loss)
    assert_bitwise(got.d_embedding, ref.d_embedding)
    assert_bitwise(got.d_prototypes, ref.d_prototypes)


batches = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 9),
                    st.integers(2, 12), st.integers(1, 6),
                    st.floats(0.05, 40.0), st.booleans())


@HEAD_SETTINGS
@given(batch=batches, kind=st.sampled_from(MARGIN_KINDS),
       m=st.sampled_from([0.0, 0.3, 0.5, 1.5]),
       s=st.floats(1.0, 64.0),
       std=st.sampled_from([0.0, 0.05, 1.0]),
       stats=st.tuples(st.floats(0.0, 30.0), st.floats(0.01, 100.0)))
def test_head_dispatch_matches_reference(batch, kind, m, s, std, stats):
    z, w, y = draw_batch(*batch)
    cfg = MarginConfig(kind=kind, s=s, m=m, std=std)
    rngs = [np.random.Generator(np.random.PCG64(batch[0])) for _ in range(2)]
    norm_stats = [NormStats(*stats) for _ in range(2)]
    got = head_loss_and_grads(z, w, y, cfg, rng=rngs[0], stats=norm_stats[0])
    ref = ref_head_loss_and_grads(z, w, y, cfg, rng=rngs[1],
                                  stats=norm_stats[1])
    assert_same_head(got, ref)
    assert norm_stats[0] == norm_stats[1]
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@HEAD_SETTINGS
@given(batch=batches, s=st.floats(1.0, 64.0),
       ang_range=st.sampled_from([(0.0, 0.0), (-0.5, 1.5), (2.5, 4.0)]),
       add=st.floats(-1.0, 1.0))
def test_parametric_head_matches_reference(batch, s, ang_range, add):
    """Zero margins, ordinary ones, and margins that push past pi."""
    z, w, y = draw_batch(*batch)
    n = 1 if np.ndim(z) == 1 else z.shape[0]
    ang = np.random.Generator(np.random.PCG64(batch[0])).uniform(*ang_range, n)
    assert_same_head(margin_loss_and_grads(z, w, y, s, ang, add),
                     ref_margin_loss_and_grads(z, w, y, s, ang, add))
    ref_logits, cache = ref_forward(z, w, y, s, ang, add)
    assert_bitwise(margin_logits(z, w, y, s, ang, add),
                   ref_logits[0] if cache[-1] else ref_logits)


def test_margins_past_pi_are_exercised():
    """The past-pi branch is reached by the draws above, not just allowed."""
    z, w, y = draw_batch(3, 8, 5, 4, 1.0, False)
    ang = np.full(8, 3.0)
    _, (_, z_hat, _, w_hat, *_) = ref_forward(z, w, y, 16.0, ang, 0.0)
    cos_y = np.sum(z_hat * w_hat[y], axis=1)
    assert np.any(np.arccos(np.clip(cos_y, -1.0, 1.0)) + ang > math.pi)
    assert_same_head(margin_loss_and_grads(z, w, y, 16.0, ang, 0.0),
                     ref_margin_loss_and_grads(z, w, y, 16.0, ang, 0.0))


# The shapes training runs at: paper_kd's arcface head (B=64, C=200, D=12),
# cli_artifacts' adaface head over 800 identities, the elastic head, and the
# ragged last batch of an epoch whose size is not a multiple of 64.
@pytest.mark.parametrize("kind, b, c", [
    ("arcface", 64, 200), ("adaface", 64, 800), ("elastic_arcface", 64, 200),
    ("arcface", 16, 200), ("adaface", 16, 800), ("elastic_arcface", 16, 200)])
@pytest.mark.parametrize("seed", [0, 1])
def test_head_matches_reference_at_training_shapes(kind, b, c, seed):
    z, w, y = draw_batch(seed, b, c, 12, 3.0, False)
    cfg = MarginConfig(kind=kind, s=16.0, m=0.3, std=0.05)
    rngs = [np.random.Generator(np.random.PCG64(seed)) for _ in range(2)]
    # Mean and spread near the batch's norms, so norm_hat is clipped at
    # both ends for some rows and interior for the rest.
    norm_stats = [NormStats(10.0, 0.6) for _ in range(2)]
    assert_same_head(
        head_loss_and_grads(z, w, y, cfg, rng=rngs[0], stats=norm_stats[0]),
        ref_head_loss_and_grads(z, w, y, cfg, rng=rngs[1],
                                stats=norm_stats[1]))
    assert norm_stats[0] == norm_stats[1]
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_zero_negative_zero_and_past_pi_margins_in_one_batch():
    """One batch holds all three cases the continuation branch covers, and
    ordinary margins beside them."""
    z, w, y = draw_batch(5, 64, 200, 12, 1.0, False)
    ang = np.random.Generator(np.random.PCG64(5)).uniform(-0.5, 1.5, 64)
    ang[0::4], ang[1::4], ang[2::4] = 0.0, -0.0, 3.0
    _, (_, z_hat, _, w_hat, *_) = ref_forward(z, w, y, 16.0, ang, 0.0)
    theta = np.arccos(np.clip(np.sum(z_hat * w_hat[y], axis=1), -1.0, 1.0))
    assert np.all(theta[2::4] + 3.0 > math.pi)
    assert np.all(np.signbit(ang[1::4])) and not np.any(np.signbit(ang[0::4]))
    add = np.linspace(-0.2, 0.2, 64)
    assert_same_head(margin_loss_and_grads(z, w, y, 16.0, ang, add),
                     ref_margin_loss_and_grads(z, w, y, 16.0, ang, add))
    assert_bitwise(margin_logits(z, w, y, 16.0, ang, add),
                   ref_forward(z, w, y, 16.0, ang, add)[0])


def test_adaface_at_the_mean_norm_takes_a_negative_zero_margin():
    """norm_hat == 0 makes ang = -m * 0.0 = -0.0 for that row."""
    z, w, y = draw_batch(6, 64, 200, 12, 3.0, False)
    mean = float(np.linalg.norm(z, axis=1)[7])
    cfg = MarginConfig.adaface(s=16.0, m=0.3)
    ang = adaface_margin_terms(np.linalg.norm(z, axis=1), cfg,
                               NormStats(mean, 3.0))[0]
    assert ang[7] == 0.0 and np.signbit(ang[7])
    norm_stats = [NormStats(mean, 3.0) for _ in range(2)]
    assert_same_head(head_loss_and_grads(z, w, y, cfg, stats=norm_stats[0]),
                     ref_head_loss_and_grads(z, w, y, cfg,
                                             stats=norm_stats[1]))
    assert norm_stats[0] == norm_stats[1]


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("b", [1, 16, 64])
def test_kd_matches_reference(normalized, reduction, b):
    rng = np.random.Generator(np.random.PCG64(b))
    t, s = rng.standard_normal((2, b, 12)) * 3.0
    got = kd_loss_and_grads(t, s, normalized=normalized, reduction=reduction)
    ref = ref_kd_loss_and_grads(t, s, normalized=normalized,
                                reduction=reduction)
    for g, r in zip(got, ref):
        assert_bitwise(g, r)


# Batches of 12 and a scale of 20 keep divisions by the batch size and
# products with the scale inexact, so a reordered kernel step shows.
TRAIN_CFG = TrainConfig(epochs=4, batch_size=12, base_lr=0.01,
                        lr_milestones=(3,), momentum=0.9, weight_decay=1e-3,
                        hflip_prob=0.5, seed=4)
TEACHER = EncoderSpec(16, (20,), 8, init_seed=1)
STUDENT = EncoderSpec(16, (12,), 8, init_seed=2)


@pytest.fixture(scope="module")
def universe():
    return generate_universe(UniverseConfig(identities_per_source=12,
                                            eval_identities=4,
                                            images_per_identity=6, seed=9))


def assert_same_result(got, ref):
    assert got.encoder.param_digest() == ref.encoder.param_digest()
    assert_bitwise(got.prototypes, ref.prototypes)
    assert got.stats == ref.stats
    assert got.trace == ref.trace
    assert got.rng_state == ref.rng_state


@pytest.mark.parametrize("kind", MARGIN_KINDS)
def test_train_and_distill_match_reference_loop(universe, kind):
    margin = MarginConfig(kind=kind, s=20.0, m=0.3, std=0.05)
    loss = LossConfig(margin=margin, kd_weight=0.5)
    teacher = train_from_scratch(TEACHER, universe.real, universe.features,
                                 loss, TRAIN_CFG)
    assert_same_result(teacher, ref_train(TEACHER, universe.real,
                                          universe.features, loss, TRAIN_CFG))

    frozen = copy.deepcopy(teacher.encoder)
    student = distill(teacher.encoder, STUDENT, universe.synthetic,
                      universe.features, loss, TRAIN_CFG)
    assert_same_result(student, ref_train(STUDENT, universe.synthetic,
                                          universe.features, loss, TRAIN_CFG,
                                          teacher=frozen))
