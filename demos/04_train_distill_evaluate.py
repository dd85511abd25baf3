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
The universe, encoders, loss and regimen are fairkd.experiment.PAPER's.
"""

from fairkd.evaluation import build_report, render_table
from fairkd.experiment import run_seed

print("training the teacher on the real pool, the student from scratch and "
      "by distillation on the synthetic pool ...")
arms = run_seed(0, ("teacher", "synthetic", "distilled"))

# The distillation trace carries both loss components; watch the embedding
# match tighten while classification keeps improving.
distilled = arms["distilled"][0]
print("\nepoch    lr      cls_loss  kd_loss")
for e in distilled.trace[::12] + [distilled.trace[-1]]:
    print(f"{e.epoch:4d}  {e.lr:7.4f}  {e.cls_loss:8.4f}  {e.kd_loss:7.4f}")

rows = (("teacher", "teacher", "real", "no"),
        ("synthetic", "student", "synthetic", "no"),
        ("distilled", "student", "synthetic", "yes"))
reports = [build_report(arms[arm][1], {"model": model, "data": data,
                                       "distilled": was_distilled, "loss": "arcface"})
           for arm, model, data, was_distilled in rows]
print()
print(render_table(reports))

gap = reports[0].average - reports[1].average
recovered = reports[2].average - reports[1].average
print(f"\nsynthetic gap vs teacher {gap:+.2f} points; "
      f"distillation recovers {recovered:+.2f} of it")
