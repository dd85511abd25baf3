"""
Three margin heads over one parametric core
===========================================

Every head computes s * (cos(theta_y + ang) - add) on the target logit and
s * cos(theta) elsewhere; they differ only in where ang/add come from.
arcface uses a constant angular margin, elastic redraws it per sample from
Normal(m, std), and adaface trades angular margin for additive margin as a
sample's embedding norm rises above the running batch statistics.
"""

import numpy as np

from fairkd.losses import (
    MarginConfig,
    NormStats,
    adaface_margin_terms,
    head_loss_and_grads,
    init_prototypes,
    margin_logits,
    sample_elastic_margins,
)

rng = np.random.default_rng(0)
D, C = 8, 5
w = init_prototypes(C, D, seed=1)
z = rng.standard_normal(D) * 3.0
y = 2

# A margin only ever hurts the target logit: that is the point, the class
# must be separated by more than plain softmax would require.
plain = margin_logits(z, w, y, scale=16.0, ang_margin=0.0)
arc = margin_logits(z, w, y, scale=16.0, ang_margin=0.5)
print("plain target logit ", round(float(plain[y]), 4))
print("arcface target logit", round(float(arc[y]), 4))
print("non-target logits untouched:", np.allclose(np.delete(plain, y),
                                                  np.delete(arc, y)))
plain_loss, arc_loss = (
    head_loss_and_grads(z, w, y, MarginConfig.arcface(s=16.0, m=m)).loss
    for m in (0.0, 0.5))
print("loss goes up with the margin:",
      round(plain_loss, 4), "->", round(arc_loss, 4))

# Elastic margins are a seeded distribution over arcface heads. The same
# generator state reproduces the same margins, which is how training stays
# replayable.
ecfg = MarginConfig.elastic_arcface(s=16.0, m=0.5, std=0.05)
draws = sample_elastic_margins(ecfg, np.random.default_rng(3), size=6)
print("\nelastic margin draws", np.round(draws, 4))
e1, e2 = (margin_logits(z, w, y, ecfg.s, sample_elastic_margins(
    ecfg, np.random.default_rng(3), size=1)) for _ in range(2))
print("same rng state, same logits:", np.array_equal(e1, e2))

# adaface reads the embedding norm as a quality proxy. Feed it a batch with
# one small-norm and one large-norm sample: the small one gets ang -> +m
# with add -> 0 (a plain angular penalty), the large one ang -> -m with
# add -> 2m (the penalty moves into the additive term).
acfg = MarginConfig.adaface(s=16.0, m=0.4)
stats = NormStats(mean_norm=3.0, std_norm=1.0)
batch = np.stack([z * 0.1, z * 3.0])
ang, add, safe = adaface_margin_terms(np.linalg.norm(batch, axis=1), acfg, stats)
for i, tag in enumerate(("low-norm ", "high-norm")):
    print(f"\n{tag} |z|={safe[i]:6.3f}  ang={ang[i]:+.3f}  add={add[i]:.3f}")
out = margin_logits(batch, w, np.array([y, y]), acfg.s, ang, add)
stats.update(safe, acfg.ema_momentum)   # what the training head does next
print("\nadaface target logits", np.round(out[:, y], 4))
print("stats updated by EMA: mean_norm ->", round(stats.mean_norm, 4))
