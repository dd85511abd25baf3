import math

import numpy as np
import pytest

from fairkd.core import cosine_similarity
from fairkd.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ZeroVector,
)
from fairkd.losses import (
    LossConfig,
    MarginConfig,
    NormStats,
    adaface_margin_terms,
    head_loss_and_grads,
    kd_loss_and_grads,
    margin_logits,
    sample_elastic_margins,
)
from helpers import head_cross_entropy

AXES = np.array([[1.0, 0.0], [0.0, 1.0]])


def rotated(angle):
    """Unit embedding at the given angle from the first prototype axis."""
    return np.array([math.cos(angle), math.sin(angle)])


def adaface_logits(emb, cfg, stats):
    """Logits of the adaface head for one embedding against AXES, target 0."""
    ang, add, _ = adaface_margin_terms(np.linalg.norm(np.atleast_2d(emb), axis=1),
                                       cfg, stats)
    return margin_logits(emb, AXES, 0, cfg.s, ang, add)


def kd_loss(teacher, student, reduction="mean"):
    return kd_loss_and_grads(teacher, student, reduction=reduction)[0]


class TestArcface:
    def test_zero_margin_is_plain_scaled_cosine(self):
        cfg = MarginConfig.arcface(s=1.0, m=0.0)
        logits = margin_logits([1.0, 0.0], AXES, 0, cfg.s, cfg.m)
        np.testing.assert_array_equal(logits, [1.0, 0.0])

    def test_aligned_target_gets_cos_m(self):
        # scalar trig oracle: s * cos(m) at theta_y = 0
        cfg = MarginConfig.arcface(s=64.0, m=0.5)
        logits = margin_logits([1.0, 0.0], AXES, 0, cfg.s, cfg.m)
        assert logits[0] == pytest.approx(64.0 * math.cos(0.5), abs=1e-3)
        assert logits[0] == pytest.approx(56.165, abs=1e-3)

    def test_sixty_degree_target(self):
        cfg = MarginConfig.arcface(s=64.0, m=0.5)
        logits = margin_logits(rotated(math.pi / 3), AXES, 0, cfg.s, cfg.m)
        assert logits[0] == pytest.approx(64.0 * math.cos(math.pi / 3 + 0.5), abs=1e-2)
        assert logits[0] == pytest.approx(1.510, abs=1e-2)

    def test_nontarget_logits_untouched(self):
        cfg = MarginConfig.arcface(s=64.0, m=0.5)
        emb = rotated(0.3)
        logits = margin_logits(emb, AXES, 0, cfg.s, cfg.m)
        assert logits[1] == pytest.approx(64.0 * emb[1], abs=1e-12)

    def test_zero_margin_equals_scaled_cosine_for_random_inputs(self):
        cfg = MarginConfig.arcface(s=13.0, m=0.0)
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(50):
            emb = rng.standard_normal(6)
            protos = rng.standard_normal((4, 6))
            y = int(rng.integers(0, 4))
            logits = margin_logits(emb, protos, y, cfg.s, cfg.m)
            e_hat = emb / np.linalg.norm(emb)
            w_hat = protos / np.linalg.norm(protos, axis=1, keepdims=True)
            # BLAS picks different kernels for (1, D) @ (D, C) than for the
            # matvec below, so equality only holds to rounding error.
            np.testing.assert_allclose(logits, 13.0 * (w_hat @ e_hat), rtol=1e-12, atol=1e-14)

    def test_past_pi_fallback_is_monotone(self):
        # theta near pi plus a margin crosses pi; the continuation must keep
        # the target logit decreasing in theta.
        cfg = MarginConfig.arcface(s=1.0, m=0.5)
        thetas = np.linspace(2.6, 3.1, 20)
        vals = [margin_logits(rotated(t), AXES, 0, cfg.s, cfg.m)[0] for t in thetas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_embedding_raises(self):
        cfg = MarginConfig.arcface()
        with pytest.raises(ZeroVector):
            margin_logits([0.0, 0.0], AXES, 0, cfg.s, cfg.m)

    def test_label_out_of_range(self):
        cfg = MarginConfig.arcface()
        with pytest.raises(IndexOutOfRange):
            margin_logits([1.0, 0.0], AXES, 2, cfg.s, cfg.m)

    def test_dimension_mismatch(self):
        cfg = MarginConfig.arcface()
        with pytest.raises(DimensionMismatch):
            margin_logits([1.0, 0.0, 0.0], AXES, 0, cfg.s, cfg.m)


class TestElastic:
    def test_std_zero_bitwise_equals_arcface(self):
        cfg = MarginConfig.elastic_arcface(s=64.0, m=0.5, std=0.0)
        base = MarginConfig.arcface(s=64.0, m=0.5)
        rng = np.random.Generator(np.random.PCG64(123))
        emb = rotated(0.7)
        got = margin_logits(emb, AXES, 0, cfg.s,
                            sample_elastic_margins(cfg, rng, 1))
        want = margin_logits(emb, AXES, 0, base.s, base.m)
        np.testing.assert_array_equal(got, want)

    def test_same_seed_same_output(self):
        cfg = MarginConfig.elastic_arcface()
        emb = rotated(0.4)
        a, b = (margin_logits(emb, AXES, 0, cfg.s, sample_elastic_margins(
            cfg, np.random.Generator(np.random.PCG64(9)), 1)) for _ in range(2))
        np.testing.assert_array_equal(a, b)

    def test_margin_draw_statistics(self):
        # Monte-Carlo: 10k draws, empirical mean within 0.005 of m
        cfg = MarginConfig.elastic_arcface(m=0.5, std=0.05)
        rng = np.random.Generator(np.random.PCG64(42))
        draws = sample_elastic_margins(cfg, rng, 10_000)
        assert abs(float(draws.mean()) - 0.5) < 0.005
        assert abs(float(draws.std()) - 0.05) < 0.005


class TestAdaface:
    def test_norm_at_mean_gives_additive_only_margin(self):
        # norm_hat = 0: ang = 0, add = m, so logits[y] = s * (cos theta - m)
        cfg = MarginConfig.adaface(s=60.0, m=0.4)
        stats = NormStats(mean_norm=1.0, std_norm=1.0)
        logits = adaface_logits([1.0, 0.0], cfg, stats)
        assert logits[0] == pytest.approx(60.0 * (1.0 - 0.4), abs=1e-6)
        assert logits[0] == pytest.approx(36.0, abs=1e-6)

    def test_zero_margin_reduces_to_scaled_cosine(self):
        cfg = MarginConfig.adaface(s=60.0, m=0.0)
        stats = NormStats(mean_norm=1.0, std_norm=1.0)
        emb = 7.3 * rotated(0.9)
        logits = adaface_logits(emb, cfg, stats)
        e_hat = emb / np.linalg.norm(emb)
        np.testing.assert_array_equal(logits, 60.0 * (AXES @ e_hat))

    def test_high_norm_clipped_margin(self):
        # norm_hat clipped to +1: ang = -m, add = 2m; at theta=0 the target
        # logit is s * (cos(-m) - 2m) -- scalar trig oracle
        cfg = MarginConfig.adaface(s=60.0, m=0.4)
        stats = NormStats(mean_norm=1.0, std_norm=0.1)
        logits = adaface_logits([50.0, 0.0], cfg, stats)
        assert logits[0] == pytest.approx(60.0 * (math.cos(-0.4) - 0.8), abs=1e-2)
        assert logits[0] == pytest.approx(7.263, abs=1e-2)

    def test_stats_updated_after_call(self):
        cfg = MarginConfig.adaface(ema_momentum=0.5)
        stats = NormStats(mean_norm=1.0, std_norm=1.0)
        head_loss_and_grads([3.0, 0.0], AXES, 0, cfg, stats=stats)
        # single sample: batch mean 3.0, batch std 0 -> EMA with momentum 0.5
        assert stats.mean_norm == pytest.approx(2.0)
        assert stats.std_norm == pytest.approx(0.5)


class TestCrossEntropy:
    def test_uniform_two_class(self):
        assert head_cross_entropy([0.0, 0.0], 0) == pytest.approx(math.log(2), abs=1e-5)

    def test_saturated_correct_class(self):
        assert head_cross_entropy([100.0, 0.0], 0) < 1e-10

    def test_three_class_hand_value(self):
        # -log(e^3 / (e + e^2 + e^3)) = log(1 + e^-1 + e^-2)
        want = math.log(1 + math.exp(-1) + math.exp(-2))
        assert head_cross_entropy([1.0, 2.0, 3.0], 2) == pytest.approx(want, abs=1e-12)
        assert head_cross_entropy([1.0, 2.0, 3.0], 2) == pytest.approx(0.40761, abs=1e-5)

    def test_shift_invariance(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(50):
            logits = rng.standard_normal(6)
            c = float(rng.uniform(-50, 50))
            assert head_cross_entropy(logits + c, 2) == pytest.approx(
                head_cross_entropy(logits, 2), rel=1e-12, abs=1e-12)

    def test_huge_logits_stable(self):
        assert math.isfinite(head_cross_entropy([1e4, -1e4, 0.0], 1))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            head_cross_entropy([0.0, 0.0], 2)


class TestKDLoss:
    def test_identical_embeddings(self):
        e = np.array([0.3, -1.2, 4.0])
        assert kd_loss(e, e) == 0.0

    def test_single_unit_difference(self):
        assert kd_loss([1.0, 0, 0, 0], [0.0, 0, 0, 0]) == 0.25

    def test_hand_value(self):
        assert kd_loss([1.0, 2.0], [3.0, 2.0]) == 2.0

    def test_symmetric_nonnegative(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(100):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            assert kd_loss(a, b) == kd_loss(b, a) >= 0.0

    def test_zero_iff_equal(self):
        a = np.zeros(4)
        b = np.zeros(4)
        b[2] = 1e-9
        assert kd_loss(a, b) > 0.0

    def test_sum_reduction(self):
        assert kd_loss([1.0, 0, 0, 0], [0.0, 0, 0, 0], reduction="sum") == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kd_loss([1.0, 2.0], [1.0, 2.0, 3.0])


class TestConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            MarginConfig(kind="cosface")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            MarginConfig(s=0.0)

    def test_bad_margin(self):
        with pytest.raises(ValueError):
            MarginConfig(m=math.pi)

    def test_bad_kd_weight(self):
        with pytest.raises(ValueError):
            LossConfig(kd_weight=-0.1)

    def test_paper_parity_presets(self):
        ada = MarginConfig.adaface()
        assert (ada.s, ada.m) == (60.0, 0.4)
        ela = MarginConfig.elastic_arcface()
        assert (ela.s, ela.m, ela.std) == (64.0, 0.5, 0.05)


def test_batched_matches_per_sample():
    cfg = MarginConfig.arcface(s=8.0, m=0.3)
    rng = np.random.Generator(np.random.PCG64(77))
    embs = rng.standard_normal((5, 4))
    protos = rng.standard_normal((3, 4))
    ys = rng.integers(0, 3, size=5)
    batch = margin_logits(embs, protos, ys, cfg.s, cfg.m)
    for i in range(5):
        row = margin_logits(embs[i], protos, int(ys[i]), cfg.s, cfg.m)
        np.testing.assert_allclose(batch[i], row, rtol=1e-12, atol=1e-14)


# ------------------------------------- one rule for a row with no direction

GOOD_ROWS = np.array([[1.0, 0.5, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]])
LABELS = np.array([0, 1, 2])
BAD_ROWS = {
    "nan": [np.nan, 1.0, 0.0],
    "inf": [np.inf, 1.0, 0.0],
    "overflow": [1e200, 1e200, 0.0],   # finite entries, an inf norm
    "zero": [0.0, 0.0, 0.0],
}
KERNELS = {
    "arcface": lambda z: head_loss_and_grads(
        z, GOOD_ROWS, LABELS, MarginConfig.arcface()),
    "elastic_arcface": lambda z: head_loss_and_grads(
        z, GOOD_ROWS, LABELS, MarginConfig.elastic_arcface(),
        rng=np.random.default_rng(0)),
    "adaface": lambda z: head_loss_and_grads(
        z, GOOD_ROWS, LABELS, MarginConfig.adaface(), stats=NormStats.default()),
    "prototypes": lambda w: head_loss_and_grads(
        GOOD_ROWS, w, LABELS, MarginConfig.arcface()),
    "margin_logits": lambda z: margin_logits(z, GOOD_ROWS, LABELS, 16.0, 0.3),
    "kd_raw": lambda z: kd_loss_and_grads(GOOD_ROWS, z),
    "kd_normalized": lambda z: kd_loss_and_grads(GOOD_ROWS, z, normalized=True),
    "cosine_similarity": lambda z: cosine_similarity(z, GOOD_ROWS),
}


def batch_with(row):
    """GOOD_ROWS with its last row replaced by row."""
    return np.vstack([GOOD_ROWS[:2], [row]])


# raw KD needs no direction, so a zero row is no error there (next test)
@pytest.mark.parametrize("kernel, row", [
    (k, r) for k in sorted(KERNELS) for r in sorted(BAD_ROWS)
    if (k, r) != ("kd_raw", "zero")])
def test_every_kernel_refuses_a_row_without_direction(kernel, row):
    # Squaring 1e200 overflows, which numpy reports as a warning before the
    # inf norm is refused; the refusal, not the warning, is under test.
    with np.errstate(over="ignore"), pytest.raises(ZeroVector):
        KERNELS[kernel](batch_with(BAD_ROWS[row]))


def test_raw_kd_takes_a_zero_row():
    # raw KD compares embeddings unnormalized: a zero row has no direction
    # but a well-defined squared distance
    loss, _, d_s = kd_loss_and_grads(GOOD_ROWS, batch_with(BAD_ROWS["zero"]))
    assert loss == pytest.approx(float(np.sum(GOOD_ROWS[2] ** 2)) / 9)
    assert np.isfinite(d_s).all()
