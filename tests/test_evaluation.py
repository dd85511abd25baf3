"""Threshold selection, k-fold verification accuracy, and fairness metrics."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkd.errors import (
    DegenerateDenominator,
    EmptyInput,
    MissingSample,
    TooFewGroups,
    TooFewPairs,
    UnbalancedProtocol,
)
from fairkd.evaluation import (
    GroupProtocol,
    PairProtocol,
    VerificationPair,
    best_threshold_accuracy,
    build_report,
    fairness_std,
    kfold_verification_accuracy,
    render_table,
    round2,
    score_pairs,
    ser,
    stratified_fold_indices,
)
from helpers import (
    ref_best_threshold_accuracy,
    ref_score_pairs,
    ref_stratified_fold_indices,
)

TABLE_ROW_A = (97.40, 96.07, 95.52, 95.95)   # -> 96.24 / 0.81 / 1.72
TABLE_ROW_B = (95.63, 93.20, 92.25, 91.55)   # -> 93.16 / 1.78 / 1.93
TABLE_ROW_C = (97.12, 95.78, 94.93, 95.36)   # -> 95.80 / 0.95 / 1.76


def protocol_of(pairs):
    return GroupProtocol("g", [VerificationPair(a, b, same) for a, b, same in pairs])


class TestScorePairs:
    store = {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 2.0]),
             "z": np.array([1.0, 1.0])}

    def test_identical_samples_score_one(self):
        group = protocol_of([("x", "x", True)])
        scores = score_pairs(lambda f: f, group, self.store)
        assert scores[0][0] == pytest.approx(1.0, abs=1e-6)
        assert scores[0][1] is True

    def test_constant_encoder_scores_all_one(self):
        group = protocol_of([("x", "y", True), ("y", "z", False)])
        scores = score_pairs(lambda f: np.tile([0.3, 0.4], (len(f), 1)),
                             group, self.store)
        assert [s for s, _ in scores] == [pytest.approx(1.0)] * 2

    def test_empty_protocol_gives_empty_list(self):
        assert score_pairs(lambda f: f, protocol_of([]), self.store) == []

    def test_missing_sample_raises(self):
        group = protocol_of([("x", "nope", True)])
        with pytest.raises(MissingSample):
            score_pairs(lambda f: f, group, self.store)

    def test_order_preserved(self):
        group = protocol_of([("x", "y", False), ("x", "z", True)])
        scores = score_pairs(lambda f: f, group, self.store)
        assert scores[0][0] == pytest.approx(0.0, abs=1e-12)
        assert scores[1][0] == pytest.approx(math.sqrt(0.5), abs=1e-6)


REF_SETTINGS = settings(max_examples=100, deadline=None)
POOL = [f"s{i}" for i in range(12)]


@REF_SETTINGS
@given(data=st.data())
def test_score_pairs_matches_per_pair_reference(data):
    """One batch embed per group scores like two encoder calls per pair."""
    n_pairs = data.draw(st.integers(0, 30))
    pairs = [VerificationPair(data.draw(st.sampled_from(POOL)),
                              data.draw(st.sampled_from(POOL)),
                              data.draw(st.booleans()))
             for _ in range(n_pairs)]
    group = GroupProtocol("g", pairs)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.Generator(np.random.PCG64(seed))
    store = {sid: rng.standard_normal(5) * 10.0 ** rng.integers(-3, 4)
             for sid in POOL}
    weights = rng.standard_normal((5, 4))
    calls = []

    def encoder(x):
        calls.append(np.atleast_2d(x))
        return np.tanh(x @ weights) + 0.5

    got = score_pairs(encoder, group, store)
    batched = calls[:]
    calls.clear()
    want = ref_score_pairs(encoder, group, store)
    assert [y for _, y in got] == [y for _, y in want]
    np.testing.assert_allclose([s for s, _ in got], [s for s, _ in want],
                               rtol=0, atol=1e-12)
    if not pairs:
        assert batched == []
        return
    distinct = list(dict.fromkeys(sid for p in pairs
                                  for sid in (p.sample_a, p.sample_b)))
    assert len(batched) == 1
    np.testing.assert_array_equal(batched[0],
                                  np.stack([store[sid] for sid in distinct]))


@REF_SETTINGS
@given(data=st.data())
def test_threshold_sweep_matches_tie_loop(data):
    """The vectorized cut choice equals the loop's, tie-heavy input included."""
    n = data.draw(st.integers(1, 60))
    levels = data.draw(st.integers(1, 8))
    scores = data.draw(st.lists(st.integers(0, levels), min_size=n,
                                max_size=n))
    labels = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    s = np.array(scores, dtype=np.float64) / levels
    assert best_threshold_accuracy(s, labels) == \
        ref_best_threshold_accuracy(s, labels)


class TestBestThreshold:
    def test_separable_scores_reach_full_accuracy(self):
        t, acc = best_threshold_accuracy([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        assert acc == 100.0
        assert 0.3 < t < 0.8

    def test_inverted_two_pairs_cap_at_half(self):
        _, acc = best_threshold_accuracy([0.9, 0.2], [0, 1])
        assert acc == 50.0

    def test_all_positive_accepts_everything(self):
        t, acc = best_threshold_accuracy([0.4, 0.1, 0.7], [1, 1, 1])
        assert (t, acc) == (-math.inf, 100.0)

    def test_all_negative_rejects_everything(self):
        t, acc = best_threshold_accuracy([0.4, 0.1], [0, 0])
        assert (t, acc) == (math.inf, 100.0)

    def test_ties_resolve_to_lowest_threshold(self):
        # accept-all and reject-all are both 50% here; -inf wins.
        t, acc = best_threshold_accuracy([0.3, 0.7], [1, 0])
        assert (t, acc) == (-math.inf, 50.0)

    def test_duplicate_scores_share_one_side(self):
        t, acc = best_threshold_accuracy([0.5, 0.5, 0.2], [1, 1, 0])
        assert acc == 100.0
        assert 0.2 < t < 0.5

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInput):
            best_threshold_accuracy([], [])


def separable(n_pos, n_neg, rng, gap=0.4):
    scores = np.concatenate([rng.uniform(0.5 + gap / 2, 1.0, n_pos),
                             rng.uniform(0.0, 0.5 - gap / 2, n_neg)])
    labels = np.concatenate([np.ones(n_pos, bool), np.zeros(n_neg, bool)])
    return scores, labels


class TestKFold:
    def test_separable_scores_hit_100_for_any_k(self):
        rng = np.random.Generator(np.random.PCG64(0))
        scores, labels = separable(10, 10, rng)
        for k in (2, 5, 10):
            assert kfold_verification_accuracy(scores, labels, k=k, seed=1) == 100.0

    def test_two_folds_on_four_separable_pairs(self):
        acc = kfold_verification_accuracy([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0],
                                          k=2, seed=0)
        assert acc == 100.0

    def test_label_independent_scores_near_chance(self):
        rng = np.random.Generator(np.random.PCG64(42))
        scores = rng.uniform(0.0, 1.0, 2000)
        labels = np.concatenate([np.ones(1000, bool), np.zeros(1000, bool)])
        labels = rng.permutation(labels)
        acc = kfold_verification_accuracy(scores, labels, k=10, seed=7)
        assert 47.0 <= acc <= 53.0

    def test_fewer_pairs_than_folds_raises(self):
        with pytest.raises(TooFewPairs):
            kfold_verification_accuracy([0.5, 0.6], [1, 0], k=3)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            kfold_verification_accuracy([0.5, 0.6], [1, 0], k=1)

    def test_deterministic_given_seed(self):
        rng = np.random.Generator(np.random.PCG64(5))
        scores = rng.uniform(0, 1, 100)
        labels = rng.integers(0, 2, 100).astype(bool)
        a = kfold_verification_accuracy(scores, labels, k=5, seed=3)
        b = kfold_verification_accuracy(scores, labels, k=5, seed=3)
        assert a == b

    def test_holdout_does_not_beat_pooled_oracle_by_much(self):
        for seed in (0, 1, 2):
            rng = np.random.Generator(np.random.PCG64(seed))
            scores = rng.uniform(0, 1, 200)
            labels = rng.integers(0, 2, 200).astype(bool)
            _, pooled = best_threshold_accuracy(scores, labels)
            acc = kfold_verification_accuracy(scores, labels, k=10, seed=seed)
            assert acc <= pooled + 5.0


@REF_SETTINGS
@given(labels=st.lists(st.booleans(), max_size=59), k=st.integers(2, 11),
       seed=st.integers(0, 2**32 - 1))
def test_fold_slicing_matches_the_dealing_loop(labels, k, seed):
    """Slicing the shuffled positives-then-negatives deals like the loop."""
    for y in (labels, [True] * len(labels), [False] * len(labels)):
        got = stratified_fold_indices(y, k, seed)
        want = ref_stratified_fold_indices(y, k, seed)
        assert len(got) == len(want) == k
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)


class TestFairnessStd:
    def test_table_rows(self):
        assert fairness_std(TABLE_ROW_A) == pytest.approx(0.81, abs=0.005)
        assert fairness_std(TABLE_ROW_B) == pytest.approx(1.78, abs=0.005)

    def test_equal_accuracies_give_zero(self):
        assert fairness_std([94.0, 94.0, 94.0]) == 0.0

    def test_single_group_rejected(self):
        with pytest.raises(TooFewGroups):
            fairness_std([95.0])

    def test_translation_invariance_and_scaling(self):
        rng = np.random.Generator(np.random.PCG64(2))
        acc = rng.uniform(80, 99, 4)
        base = fairness_std(acc)
        assert fairness_std(acc + 1.0) == pytest.approx(base, rel=1e-12)
        assert fairness_std(acc * 0.5) == pytest.approx(base * 0.5, rel=1e-12)


class TestSer:
    def test_table_rows(self):
        assert ser(TABLE_ROW_A) == pytest.approx(1.72, abs=0.005)
        assert ser(TABLE_ROW_B) == pytest.approx(1.93, abs=0.005)

    def test_equal_accuracies_give_one(self):
        assert ser([93.5, 93.5]) == 1.0

    def test_perfect_group_is_degenerate(self):
        with pytest.raises(DegenerateDenominator):
            ser([90.0, 100.0])

    def test_at_least_one_and_permutation_invariant(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(20):
            acc = rng.uniform(50, 99.9, 4)
            value = ser(acc)
            assert value >= 1.0
            assert ser(acc[::-1]) == pytest.approx(value, rel=1e-12)


class TestBuildReport:
    def test_table2_row(self):
        rep = build_report(TABLE_ROW_A, {"model": "resnet100"})
        assert rep.average == pytest.approx(96.24, abs=0.005)
        assert rep.std == pytest.approx(0.81, abs=0.005)
        assert rep.ser == pytest.approx(1.72, abs=0.005)
        assert not rep.ser_degenerate

    def test_table3_row(self):
        rep = build_report(TABLE_ROW_C)
        assert rep.average == pytest.approx(95.80, abs=0.005)
        assert rep.std == pytest.approx(0.95, abs=0.005)
        assert rep.ser == pytest.approx(1.76, abs=0.005)

    def test_degenerate_ser_flagged_not_raised(self):
        rep = build_report([90.0, 100.0])
        assert rep.std == pytest.approx(7.0711, abs=1e-3)
        assert rep.ser_degenerate
        assert math.isinf(rep.ser)

    def test_average_is_mean_of_own_groups(self):
        rep = build_report([91.0, 92.0, 96.0])
        assert rep.average == pytest.approx(np.mean(rep.per_group), rel=1e-12)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round2(96.235) == "96.24"
        assert round2(1.005) == "1.01"
        assert round2(-0.005) == "-0.01"

    def test_pads_to_two_decimals(self):
        assert round2(2.0) == "2.00"
        assert round2(0.8) == "0.80"

    def test_infinite_sentinel(self):
        assert round2(math.inf) == "inf"
        assert round2(-math.inf) == "-inf"
        assert round2(math.nan) == "nan"


class TestRenderTable:
    def test_csv_round_trips(self):
        rep = build_report(TABLE_ROW_A, {"model": "resnet100", "data": "real",
                                         "distilled": "no", "loss": "adaface"})
        text = render_table([rep], fmt="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][:4] == ["model", "data", "distilled", "loss"]
        assert rows[1][4:8] == ["97.40", "96.07", "95.52", "95.95"]
        assert rows[1][8:] == ["96.24", "0.81", "1.72"]

    def test_markdown_layout(self):
        rep = build_report(TABLE_ROW_B)
        text = render_table([rep], fmt="markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| model |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert "| 93.16 | 1.78 | 1.93 |" in lines[2]

    def test_empty_metadata_rendered_as_dash(self):
        rep = build_report(TABLE_ROW_A, {"model": ""})
        row = render_table([rep], fmt="csv").splitlines()[1]
        assert row.startswith("-,-,-,-")

    def test_no_reports_rejected(self):
        with pytest.raises(EmptyInput):
            render_table([])


class TestProtocolValidation:
    def test_unbalanced_group_rejected(self):
        group = protocol_of([("a", "b", True), ("c", "d", True), ("e", "f", False)])
        with pytest.raises(UnbalancedProtocol):
            PairProtocol([group]).validate()

    def test_balanced_group_with_pool_passes(self):
        group = protocol_of([("a", "b", True), ("a", "c", False)])
        group.validate()

    def test_built_protocol_cannot_be_altered(self):
        protocol = PairProtocol([protocol_of([("a", "b", True),
                                              ("a", "c", False)])])
        with pytest.raises(dataclasses.FrozenInstanceError):
            protocol.groups = ()
        with pytest.raises(AttributeError):
            protocol.groups.append(protocol.groups[0])
        with pytest.raises(AttributeError):
            protocol.groups[0].pairs.append(VerificationPair("a", "d", True))
        assert len(protocol.groups[0].pairs) == 2
