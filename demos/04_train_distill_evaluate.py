"""
Closing the synthetic gap with embedding distillation
=====================================================

The core experiment in miniature, one seed end to end: a high-capacity
teacher is trained on the real pool, a small student is trained from
scratch on the corrupted synthetic pool, and a second copy of the student
is trained on the same synthetic pool while also matching the frozen
teacher's embeddings. All three are scored on held-out real identities.
The scratch student inherits the synthetic distortions; the distilled one
recovers most of the teacher's geometry without ever seeing real data.
"""

from fairkd.evaluation import (
    build_report,
    kfold_verification_accuracy,
    render_table,
    score_pairs,
)
from fairkd.losses import LossConfig, MarginConfig
from fairkd.synthdata import UniverseConfig, gen_pair_protocol, generate_universe
from fairkd.training import EncoderSpec, TrainConfig, distill, train_from_scratch

# Noisy features over a low-dimensional latent: encoders earn their keep by
# learning the denoising projection, so there is something real to distill.
universe = UniverseConfig(identities_per_source=200, eval_identities=32,
                          images_per_identity=10,
                          noise_scales=(0.8, 1.0, 1.2, 1.5),
                          synth_mean_shift=2.0, synth_cov_inflation=4.0,
                          seed=0)
bundle = generate_universe(universe)
protocol = gen_pair_protocol(bundle.holdout, pairs_per_group=160, seed=1000)

teacher_spec = EncoderSpec(16, (96,), 12, init_seed=1)
student_spec = EncoderSpec(16, (24,), 12, init_seed=2)
loss = LossConfig(margin=MarginConfig.arcface(s=16.0, m=0.3))
regimen = TrainConfig(epochs=60, batch_size=64, base_lr=0.02,
                      lr_milestones=(40, 52), momentum=0.9, hflip_prob=0.0,
                      weight_decay=1e-3, seed=0)

print("training teacher on the real pool ...")
teacher = train_from_scratch(teacher_spec, bundle.real, bundle.features,
                             loss, regimen)
print("training student from scratch on the synthetic pool ...")
scratch = train_from_scratch(student_spec, bundle.synthetic, bundle.features,
                             loss, regimen)
print("distilling the teacher into the student on the synthetic pool ...")
distilled = distill(teacher.encoder, student_spec, bundle.synthetic,
                    bundle.features, loss, regimen)

# The distillation trace carries both loss components; watch the embedding
# match tighten while classification keeps improving.
print("\nepoch    lr      cls_loss  kd_loss")
for e in distilled.trace[::12] + [distilled.trace[-1]]:
    print(f"{e.epoch:4d}  {e.lr:7.4f}  {e.cls_loss:8.4f}  {e.kd_loss:7.4f}")


def evaluate(result, model, data, was_distilled):
    accs = []
    for group in protocol.groups:
        scored = score_pairs(result.encoder.forward, group, bundle.features)
        accs.append(kfold_verification_accuracy(
            [s for s, _ in scored], [same for _, same in scored], k=5, seed=0))
    return build_report(accs, {"model": model, "data": data,
                               "distilled": was_distilled, "loss": "arcface"})


reports = [
    evaluate(teacher, "teacher", "real", "no"),
    evaluate(scratch, "student", "synthetic", "no"),
    evaluate(distilled, "student", "synthetic", "yes"),
]
print()
print(render_table(reports))

gap = reports[0].average - reports[1].average
recovered = reports[2].average - reports[1].average
print(f"\nsynthetic gap vs teacher {gap:+.2f} points; "
      f"distillation recovers {recovered:+.2f} of it")
