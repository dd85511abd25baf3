"""Training loops: schedule, augmentation, SGD, determinism, distillation."""

import numpy as np
import pytest

from fairkd.errors import (
    ConfigError,
    DimensionMismatch,
    DivergenceDetected,
    EmptyManifest,
    EpochOutOfRange,
    FormatVersionMismatch,
    InvalidArgument,
    IoError,
    MissingSample,
    ShapeMismatch,
)
from fairkd.formats import checkpoint_load, checkpoint_save
from fairkd.losses import LossConfig, MarginConfig, NormStats
from fairkd.sampling import DatasetManifest, ManifestEntry
from fairkd.training import (
    Encoder,
    EncoderSpec,
    TrainConfig,
    TrainResult,
    _augment_batch,
    distill,
    lr_at_epoch,
    sgd_step,
    train_from_scratch,
)

DIM = 10


def toy_universe(n_ids=16, imgs=5, dim=DIM, seed=0, scale=1.0):
    """Class-clustered features: one Gaussian blob per identity."""
    rng = np.random.Generator(np.random.PCG64(seed))
    entries, store = [], {}
    for i in range(n_ids):
        center = rng.standard_normal(dim) * 2.0
        g = i % 2
        soft = (0.9, 0.1) if g == 0 else (0.1, 0.9)
        for j in range(imgs):
            sid = f"id{i:03d}_im{j}"
            store[sid] = (center + 0.3 * rng.standard_normal(dim)) * scale
            entries.append(ManifestEntry(sid, f"id{i:03d}", "real", soft, sid))
    return DatasetManifest("toy", 2, entries), store


def small_cfg(**overrides):
    base = dict(epochs=3, batch_size=16, base_lr=0.05, lr_milestones=(),
                momentum=0.9, hflip_prob=0.5, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


LOSS = LossConfig(margin=MarginConfig.arcface(s=16.0, m=0.3))
SPEC = EncoderSpec(input_dim=DIM, hidden_widths=(24,), embedding_dim=8,
                   init_seed=7)


class TestSchedule:
    def test_reference_lr_values_exact(self):
        cfg = TrainConfig()
        expected = {0: 0.1, 8: 0.01, 14: 0.001, 20: 1e-4, 25: 1e-5}
        for epoch, lr in expected.items():
            assert lr_at_epoch(epoch, cfg) == lr

    def test_decay_is_boundary_inclusive(self):
        cfg = TrainConfig()
        assert lr_at_epoch(7, cfg) == 0.1
        assert lr_at_epoch(8, cfg) == 0.01

    def test_non_increasing_over_all_epochs(self):
        cfg = TrainConfig()
        lrs = [lr_at_epoch(e, cfg) for e in range(cfg.epochs)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range_epoch_rejected(self):
        cfg = TrainConfig()
        for epoch in (-1, 26, 100):
            with pytest.raises(EpochOutOfRange):
                lr_at_epoch(epoch, cfg)

    def test_milestone_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=10)         # default milestones exceed epochs
        with pytest.raises(ConfigError):
            TrainConfig(lr_milestones=(8, 8, 14))
        with pytest.raises(ConfigError):
            TrainConfig(lr_factor=1.0)


class TestHorizontalFlip:
    """The batch flip of the training loop, one coordinate reversal per row."""

    def test_zero_probability_is_identity(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = np.arange(10.0).reshape(2, 5)
        np.testing.assert_array_equal(_augment_batch(x, 0.0, rng), x)

    def test_certain_flip_twice_restores(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = np.arange(10.0).reshape(2, 5)
        once = _augment_batch(x, 1.0, rng)
        twice = _augment_batch(once, 1.0, rng)
        np.testing.assert_array_equal(once, x[:, ::-1])
        np.testing.assert_array_equal(twice, x)

    def test_fixed_seed_repeats_decisions(self):
        x = np.arange(4.0)[None, :]
        r1 = np.random.Generator(np.random.PCG64(9))
        r2 = np.random.Generator(np.random.PCG64(9))
        seq1 = [_augment_batch(x, 0.5, r1).tolist() for _ in range(50)]
        seq2 = [_augment_batch(x, 0.5, r2).tolist() for _ in range(50)]
        assert seq1 == seq2

    def test_probability_bounds_checked(self):
        with pytest.raises(ConfigError):
            TrainConfig(hflip_prob=1.5)


class TestSgdStep:
    def test_plain_step_arithmetic(self):
        p = [np.array([1.0])]
        v = [np.zeros(1)]
        sgd_step(p, [np.array([0.5])], lr=0.1, momentum=0.0, velocity=v)
        np.testing.assert_allclose(p[0], [0.95], rtol=0, atol=0)

    def test_zero_gradient_is_fixed_point(self):
        p = [np.array([2.0, -3.0])]
        v = [np.zeros(2)]
        sgd_step(p, [np.zeros(2)], lr=0.1, momentum=0.9, velocity=v)
        np.testing.assert_array_equal(p[0], [2.0, -3.0])

    def test_momentum_accumulates_over_two_steps(self):
        g = 0.4
        p = [np.array([0.0])]
        v = [np.zeros(1)]
        sgd_step(p, [np.array([g])], lr=0.1, momentum=0.9, velocity=v)
        first = float(p[0][0])
        sgd_step(p, [np.array([g])], lr=0.1, momentum=0.9, velocity=v)
        second_delta = float(p[0][0]) - first
        assert second_delta == pytest.approx(-0.1 * 1.9 * g, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            sgd_step([np.zeros(2)], [np.zeros(3)], 0.1, 0.9, [np.zeros(2)])
        with pytest.raises(ShapeMismatch):
            sgd_step([np.zeros(2)], [np.zeros(2)], 0.1, 0.9, [])


class TestTrainFromScratch:
    def test_zero_epochs_returns_initialization(self):
        manifest, store = toy_universe()
        result = train_from_scratch(SPEC, manifest, store, LOSS,
                                    small_cfg(epochs=0))
        assert result.trace == []
        assert result.encoder.param_digest() == Encoder(SPEC).param_digest()

    def test_loss_decreases_on_toy_run(self):
        manifest, store = toy_universe()
        result = train_from_scratch(SPEC, manifest, store, LOSS, small_cfg())
        assert result.trace[-1].cls_loss < result.trace[0].cls_loss
        assert all(np.isfinite(s.total_loss) for s in result.trace)

    def test_same_seed_bitwise_identical(self):
        manifest, store = toy_universe()
        r1 = train_from_scratch(SPEC, manifest, store, LOSS, small_cfg())
        r2 = train_from_scratch(SPEC, manifest, store, LOSS, small_cfg())
        assert r1.encoder.param_digest() == r2.encoder.param_digest()
        np.testing.assert_array_equal(r1.prototypes, r2.prototypes)
        assert r1.trace == r2.trace

    def test_trace_lr_matches_schedule(self):
        manifest, store = toy_universe()
        cfg = small_cfg(epochs=4, lr_milestones=(1, 3))
        result = train_from_scratch(SPEC, manifest, store, LOSS, cfg)
        assert [s.lr for s in result.trace] == \
            [lr_at_epoch(e, cfg) for e in range(4)]

    def test_empty_manifest_rejected(self):
        with pytest.raises(EmptyManifest):
            train_from_scratch(SPEC, DatasetManifest("empty", 2), {},
                               LOSS, small_cfg())

    def test_unresolvable_payload_rejected(self):
        manifest, store = toy_universe(n_ids=2, imgs=2)
        del store[manifest.entries[0].payload_ref]
        with pytest.raises(MissingSample):
            train_from_scratch(SPEC, manifest, store, LOSS, small_cfg())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_is_refused_before_training(self, value):
        manifest, store = toy_universe(n_ids=2, imgs=2)
        store[manifest.entries[3].payload_ref][4] = value
        with pytest.raises(InvalidArgument, match="'id001_im1'"):
            train_from_scratch(SPEC, manifest, store, LOSS, small_cfg())

    def test_overflowing_features_abort_with_divergence(self):
        # finite features whose embeddings' squared norms overflow: the head
        # refuses the rows it would otherwise normalize to zero
        manifest, store = toy_universe(n_ids=4, imgs=2, scale=1e200)
        with pytest.raises(DivergenceDetected,
                           match="training diverged at epoch 0, batch starting 0"):
            train_from_scratch(SPEC, manifest, store, LOSS, small_cfg())

    def test_adaface_run_updates_norm_stats(self):
        manifest, store = toy_universe()
        loss = LossConfig(margin=MarginConfig.adaface(s=16.0, m=0.3))
        result = train_from_scratch(SPEC, manifest, store, loss,
                                    small_cfg(epochs=1))
        assert result.stats is not None
        assert result.stats.mean_norm != NormStats.default().mean_norm


class TestDistill:
    def setup_method(self):
        self.manifest, self.store = toy_universe()
        self.teacher = train_from_scratch(
            SPEC, self.manifest, self.store, LOSS, small_cfg(epochs=2)).encoder

    def test_teacher_digest_unchanged(self):
        before = self.teacher.param_digest()
        distill(self.teacher, SPEC, self.manifest, self.store,
                LOSS, small_cfg())
        assert self.teacher.param_digest() == before

    def test_zero_weight_matches_scratch_trace(self):
        loss0 = LossConfig(margin=LOSS.margin, kd_weight=0.0)
        scratch = train_from_scratch(SPEC, self.manifest, self.store,
                                     loss0, small_cfg())
        distilled = distill(self.teacher, SPEC, self.manifest, self.store,
                            loss0, small_cfg())
        assert scratch.trace == distilled.trace
        assert scratch.encoder.param_digest() == distilled.encoder.param_digest()

    def test_kd_loss_decreases(self):
        student_spec = EncoderSpec(input_dim=DIM, hidden_widths=(12,),
                                   embedding_dim=8, init_seed=3)
        # lr 0.05 with momentum 0.9 overshoots the KD quadratic on this toy;
        # 0.01 keeps the descent stable.
        result = distill(self.teacher, student_spec, self.manifest,
                         self.store, LOSS, small_cfg(epochs=4, base_lr=0.01))
        assert result.trace[-1].kd_loss < result.trace[0].kd_loss

    def test_embedding_dim_mismatch_rejected(self):
        bad_spec = EncoderSpec(input_dim=DIM, hidden_widths=(12,),
                               embedding_dim=6, init_seed=3)
        with pytest.raises(DimensionMismatch):
            distill(self.teacher, bad_spec, self.manifest, self.store,
                    LOSS, small_cfg())

    def test_overflowing_features_abort_with_divergence(self):
        manifest, store = toy_universe(n_ids=4, imgs=2, scale=1e200)
        with pytest.raises(DivergenceDetected):
            distill(self.teacher, SPEC, manifest, store,
                    LossConfig(margin=LOSS.margin, kd_weight=1.0),
                    small_cfg())

    def test_digest_sensitive_to_parameter_change(self):
        before = self.teacher.param_digest()
        self.teacher.weights[0][0, 0] += 1e-9
        assert self.teacher.param_digest() != before
        self.teacher.weights[0][0, 0] -= 1e-9


class TestEncoder:
    def test_param_count_matches_spec(self):
        enc = Encoder(SPEC)
        assert sum(p.size for p in enc.parameters()) == (DIM + 1) * 24 + (24 + 1) * 8

    def test_forward_shapes(self):
        enc = Encoder(SPEC)
        single = enc.forward(np.zeros(DIM))
        batch = enc.forward(np.zeros((5, DIM)))
        assert single.shape == (8,)
        assert batch.shape == (5, 8)

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(DimensionMismatch):
            Encoder(SPEC).forward(np.zeros(DIM + 1))

    def test_backward_matches_finite_differences(self):
        from helpers import fd_grad, rel_grad_err
        enc = Encoder(EncoderSpec(input_dim=4, hidden_widths=(5,),
                                  embedding_dim=3, init_seed=11))
        rng = np.random.Generator(np.random.PCG64(2))
        x = rng.standard_normal((3, 4))
        target = rng.standard_normal((3, 3))

        def objective():
            emb = enc.forward(x)
            return float(np.sum((emb - target) ** 2))

        emb, cache = enc.forward_cached(x)
        grads = enc.backward(cache, 2.0 * (emb - target))
        for k, p in enumerate(enc.parameters()):
            def f(v, k=k, p=p):
                orig = p.copy()
                p[...] = v
                val = objective()
                p[...] = orig
                return val
            assert rel_grad_err(grads[k], fd_grad(f, p)) <= 1e-4


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        manifest, store = toy_universe()
        loss = LossConfig(margin=MarginConfig.adaface(s=16.0, m=0.3))
        result = train_from_scratch(SPEC, manifest, store, loss,
                                    small_cfg(epochs=1))
        path = tmp_path / "ck.json"
        checkpoint_save(result, path, {"config_digest": "cfg123"})
        loaded, header = checkpoint_load(path)
        assert loaded.encoder.param_digest() == result.encoder.param_digest()
        np.testing.assert_array_equal(loaded.prototypes, result.prototypes)
        assert loaded.stats == result.stats
        assert header["config_digest"] == "cfg123"
        assert loaded.rng_state == result.rng_state

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint_save(TrainResult(Encoder(SPEC), None, None, []), path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(FormatVersionMismatch):
            checkpoint_load(path)

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            checkpoint_load(tmp_path / "absent.json")
