"""Analytic gradients checked against central finite differences.

Margins are per-call constants in the backward pass, so the differentiable
function under test is the parametric head with ang/add frozen at their
sampled (elastic) or norm-derived (adaface) values. The dispatch wrapper is
separately checked to agree with that parametric call at the base point.
"""

import copy

import numpy as np
import pytest

from fairkd.losses import (
    MarginConfig,
    NormStats,
    adaface_margin_terms,
    head_loss_and_grads,
    kd_loss_and_grads,
    margin_loss_and_grads,
    sample_elastic_margins,
)
from helpers import fd_grad, head_cross_entropy, rel_grad_err

REL_TOL = 1e-4
DIM = 8
N_CLASSES = 5
BATCH = 3
SEEDS = list(range(20))


def random_point(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((BATCH, DIM))
    w = rng.standard_normal((N_CLASSES, DIM))
    y = rng.integers(0, N_CLASSES, size=BATCH)
    return rng, z, w, y


def fixed_margins(kind, cfg, rng, z):
    """Freeze ang/add the way the dispatcher would compute them."""
    if kind == "arcface":
        return cfg.m, 0.0
    if kind == "elastic_arcface":
        return sample_elastic_margins(cfg, rng, z.shape[0]), 0.0
    stats = NormStats(mean_norm=3.0, std_norm=1.0)
    ang, add, _ = adaface_margin_terms(np.linalg.norm(z, axis=1), cfg, stats)
    return ang, add


HEAD_CFGS = {
    "arcface": MarginConfig.arcface(s=12.0, m=0.35),
    "elastic_arcface": MarginConfig.elastic_arcface(s=12.0, m=0.35, std=0.05),
    "adaface": MarginConfig.adaface(s=12.0, m=0.3),
}


@pytest.mark.parametrize("kind", list(HEAD_CFGS))
def test_head_gradients_match_finite_differences(kind):
    cfg = HEAD_CFGS[kind]
    for seed in SEEDS:
        rng, z, w, y = random_point(seed)
        ang, add = fixed_margins(kind, cfg, rng, z)
        out = margin_loss_and_grads(z, w, y, cfg.s, ang, add)

        num_z = fd_grad(lambda v: margin_loss_and_grads(v, w, y, cfg.s, ang, add).loss, z)
        num_w = fd_grad(lambda v: margin_loss_and_grads(z, v, y, cfg.s, ang, add).loss, w)
        assert rel_grad_err(out.d_embedding, num_z) <= REL_TOL, f"seed {seed} d_embedding"
        assert rel_grad_err(out.d_prototypes, num_w) <= REL_TOL, f"seed {seed} d_prototypes"


@pytest.mark.parametrize("kind", list(HEAD_CFGS))
def test_dispatch_agrees_with_fixed_margin_head(kind):
    cfg = HEAD_CFGS[kind]
    rng, z, w, y = random_point(123)
    if kind == "arcface":
        via_dispatch = head_loss_and_grads(z, w, y, cfg)
        direct = margin_loss_and_grads(z, w, y, cfg.s, cfg.m, 0.0)
    elif kind == "elastic_arcface":
        r1 = np.random.Generator(np.random.PCG64(9))
        r2 = np.random.Generator(np.random.PCG64(9))
        via_dispatch = head_loss_and_grads(z, w, y, cfg, rng=r1)
        direct = margin_loss_and_grads(z, w, y, cfg.s,
                                       sample_elastic_margins(cfg, r2, z.shape[0]), 0.0)
    else:
        stats = NormStats(mean_norm=3.0, std_norm=1.0)
        ang, add, _ = adaface_margin_terms(np.linalg.norm(z, axis=1), cfg,
                                           copy.deepcopy(stats))
        via_dispatch = head_loss_and_grads(z, w, y, cfg, stats=stats)
        direct = margin_loss_and_grads(z, w, y, cfg.s, ang, add)
    assert via_dispatch.loss == direct.loss
    np.testing.assert_array_equal(via_dispatch.d_embedding, direct.d_embedding)
    np.testing.assert_array_equal(via_dispatch.d_prototypes, direct.d_prototypes)


def test_kd_gradient_zero_at_identical_embeddings():
    rng = np.random.Generator(np.random.PCG64(5))
    e = rng.standard_normal(DIM)
    loss, d_t, d_s = kd_loss_and_grads(e, e.copy())
    assert loss == 0.0
    np.testing.assert_array_equal(d_t, np.zeros(DIM))
    np.testing.assert_array_equal(d_s, np.zeros(DIM))


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("reduction", ["mean", "sum"])
def test_kd_gradients_match_finite_differences(normalized, reduction):
    for seed in SEEDS:
        rng = np.random.Generator(np.random.PCG64(seed))
        t = rng.standard_normal((BATCH, DIM))
        s = rng.standard_normal((BATCH, DIM))
        _, d_t, d_s = kd_loss_and_grads(t, s, normalized=normalized,
                                        reduction=reduction)
        num_t = fd_grad(
            lambda v: kd_loss_and_grads(v, s, normalized=normalized,
                                        reduction=reduction)[0], t)
        num_s = fd_grad(
            lambda v: kd_loss_and_grads(t, v, normalized=normalized,
                                        reduction=reduction)[0], s)
        assert rel_grad_err(d_t, num_t) <= REL_TOL, f"seed {seed} d_teacher"
        assert rel_grad_err(d_s, num_s) <= REL_TOL, f"seed {seed} d_student"


def test_combined_objective_gradient_is_affine_in_kd_weight():
    # grad of cls_loss + lambda * kd_loss w.r.t. the student embedding must be
    # grad_cls + lambda * grad_kd; checked against finite differences of the
    # combined scalar at several weights.
    cfg = MarginConfig.arcface(s=12.0, m=0.35)
    rng, z, w, y = random_point(31)
    t = rng.standard_normal((BATCH, DIM))

    def combined(v, lam):
        cls = margin_loss_and_grads(v, w, y, cfg.s, cfg.m, 0.0).loss
        kd = kd_loss_and_grads(t, v)[0]
        return cls + lam * kd

    grad_cls = margin_loss_and_grads(z, w, y, cfg.s, cfg.m, 0.0).d_embedding
    grad_kd = kd_loss_and_grads(t, z)[2]
    for lam in (0.0, 0.5, 1.0, 2.0):
        analytic = grad_cls + lam * grad_kd
        numeric = fd_grad(lambda v: combined(v, lam), z)
        assert rel_grad_err(analytic, numeric) <= REL_TOL, f"lambda {lam}"
    base = fd_grad(lambda v: combined(v, 0.0), z)
    bumped = fd_grad(lambda v: combined(v, 2.0), z)
    assert rel_grad_err(bumped - base, 2.0 * grad_kd) <= REL_TOL


def test_softmax_gradient_sums_to_zero_under_shift():
    # The cross-entropy gradient w.r.t. logits has zero sum, so adding a
    # constant to every logit changes neither the loss nor the gradient.
    for seed in SEEDS[:5]:
        rng = np.random.Generator(np.random.PCG64(seed))
        logits = rng.standard_normal(N_CLASSES) * 3.0
        y = int(rng.integers(0, N_CLASSES))
        g = fd_grad(lambda v: head_cross_entropy(v, y), logits)
        g_shifted = fd_grad(lambda v: head_cross_entropy(v + 17.0, y), logits)
        assert abs(float(g.sum())) <= 1e-6
        assert abs(float(g_shifted.sum())) <= 1e-6
        np.testing.assert_allclose(g_shifted, g, atol=1e-6)
