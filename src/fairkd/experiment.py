"""The paper experiment at desk scale: PAPER is its RunConfig (written out
with dataclasses.asdict, also a CLI --config), and run_seed trains and
scores its arms on one universe. Noisy features make encoders learn the
denoising projection; the synthetic pool is mostly covariance-inflated,
which misleads a scratch student but still covers the real cloud, where
matching the teacher's embeddings pays off.
"""

from dataclasses import replace

from .config import EvalConfig, RunConfig
from .errors import InvalidArgument
from .evaluation import kfold_verification_accuracy, score_pairs
from .losses import LossConfig, MarginConfig
from .synthdata import UniverseConfig, gen_pair_protocol, generate_universe
from .training import EncoderSpec, TrainConfig, TrainResult, distill, train_from_scratch

_ARMS = ("teacher", "real", "synthetic", "distilled")

PAPER = RunConfig(
    universe=UniverseConfig(identities_per_source=200, eval_identities=32,
                            images_per_identity=10,
                            noise_scales=(0.8, 1.0, 1.2, 1.5),
                            synth_mean_shift=2.0, synth_cov_inflation=4.0),
    train=TrainConfig(epochs=60, batch_size=64, base_lr=0.02,
                      lr_milestones=(40, 52), momentum=0.9, hflip_prob=0.0,
                      weight_decay=1e-3, seed=0),
    loss=LossConfig(margin=MarginConfig.arcface(s=16.0, m=0.3)),
    teacher=EncoderSpec(16, (96,), 12, init_seed=1),
    student=EncoderSpec(16, (24,), 12, init_seed=2),
    eval=EvalConfig(k=5, pairs_per_group=160),
)


def run_seed(seed: int, arms=_ARMS) -> dict[str, tuple[TrainResult, tuple[float, ...]]]:
    """{arm: (trained model, per-group holdout accuracies)} on universe seed.
    The teacher trains on the real pool (only if teacher or distilled is
    asked for), real and synthetic are scratch students on their pools, and
    distilled is the student distilled from the teacher on synthetic."""
    if not set(arms) <= set(_ARMS):
        raise InvalidArgument(f"arms must be among {_ARMS}, got {arms!r}")
    bundle = generate_universe(replace(PAPER.universe, seed=seed))
    protocol = gen_pair_protocol(bundle.holdout, PAPER.eval.pairs_per_group, seed=seed + 1000)
    store, student, loss, train = bundle.features, PAPER.student, PAPER.loss, PAPER.train
    models = {}
    if "teacher" in arms or "distilled" in arms:
        models["teacher"] = train_from_scratch(PAPER.teacher, bundle.real, store, loss, train)
    for arm, pool in (("real", bundle.real), ("synthetic", bundle.synthetic)):
        if arm in arms:
            models[arm] = train_from_scratch(student, pool, store, loss, train)
    if "distilled" in arms:
        models["distilled"] = distill(models["teacher"].encoder, student,
                                      bundle.synthetic, store, loss, train)
    out = {}
    for arm in arms:
        accs = []
        for group in protocol.groups:
            scores, same = zip(*score_pairs(models[arm].encoder.forward, group, store))
            accs.append(kfold_verification_accuracy(scores, same, k=PAPER.eval.k, seed=PAPER.seed))
        out[arm] = (models[arm], tuple(accs))
    return out
