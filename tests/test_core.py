import numpy as np
import pytest

from fairkd.core import FeatureStore, cosine_similarity, feature_rows, row_norms
from fairkd.errors import (
    DimensionMismatch,
    InvalidArgument,
    MissingSample,
    ZeroVector,
)


# The row normalization inside the row-wise cosine: scoring a row against
# the coordinate axes reads off its unit vector.
AXES = np.eye(2)


def test_normalize_345_triangle():
    # 3-4-5 triangle: unit vector is (0.6, 0.8)
    rows = np.array([[3.0, 4.0], [3.0, 4.0]])
    np.testing.assert_allclose(cosine_similarity(rows, AXES), [0.6, 0.8],
                               atol=1e-12)


def test_normalize_already_unit():
    rows = np.array([[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(cosine_similarity(rows, AXES), [1.0, 0.0])


def test_normalize_zero_vector_raises():
    with pytest.raises(ZeroVector):
        cosine_similarity([[1.0, 0.0], [0.0, 0.0]], AXES)


def test_normalize_rejects_non_finite():
    with pytest.raises(ZeroVector):
        cosine_similarity([[1.0, 0.0], [np.nan, 1.0]], AXES)


def test_cosine_identical_directions():
    assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0


def test_cosine_orthogonal():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_45_degrees():
    # 1/sqrt(2)
    assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70711, abs=1e-5)


def test_cosine_zero_vector_raises():
    with pytest.raises(ZeroVector):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_symmetric():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(100):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        assert cosine_similarity(a, b) == cosine_similarity(b, a)


def test_cosine_scale_invariant():
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(100):
        a = rng.standard_normal(5)
        c = float(rng.uniform(0.01, 100.0))
        got = cosine_similarity(a, c * a)
        assert got <= 1.0
        assert got == pytest.approx(1.0, abs=1e-12)


def test_cosine_clamped_into_range():
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(200):
        a = rng.standard_normal(4) * 1e3
        b = rng.standard_normal(4) * 1e-3
        assert -1.0 <= cosine_similarity(a, b) <= 1.0


def test_rows_match_one_pair_at_a_time():
    rng = np.random.Generator(np.random.PCG64(19))
    a = rng.standard_normal((40, 6))
    b = rng.standard_normal((40, 6))
    rows = cosine_similarity(a, b)
    assert rows.shape == (40,)
    for i in range(40):
        assert isinstance(cosine_similarity(a[i], b[i]), float)
        assert rows[i] == pytest.approx(cosine_similarity(a[i], b[i]),
                                        abs=1e-15)


def test_rows_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        cosine_similarity(np.ones((3, 2)), np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        cosine_similarity(np.ones((1, 1, 2)), np.ones((1, 1, 2)))


def test_row_norms_are_linalg_norms_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(3))
    for shape in [(7,), (5, 12), (64, 12), (3, 4, 5)]:
        m = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        np.testing.assert_array_equal(row_norms(m, "m"),
                                      np.linalg.norm(m, axis=-1))


def test_cosine_of_no_rows_is_empty():
    assert cosine_similarity(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)


# The one rule for a feature vector: a store lookup per id, one matrix out.
STORE = {"a": np.array([0.1, 0.2]), "b": [3, 4], "c": np.float32([0.5, 0.25])}


def test_feature_rows_are_the_store_vectors_in_id_order():
    rows = feature_rows(STORE, ["c", "a", "b", "a"])
    assert rows.dtype == np.float64
    expected = np.stack([np.asarray(STORE[s], dtype=np.float64)
                         for s in ("c", "a", "b", "a")])
    assert rows.tobytes() == expected.tobytes()


def test_no_ids_give_an_empty_matrix():
    rows = feature_rows(STORE, [])
    assert rows.shape == (0, 0) and rows.dtype == np.float64


def test_feature_rows_name_the_missing_sample():
    with pytest.raises(MissingSample, match="'z'"):
        feature_rows(STORE, ["a", "z"])


@pytest.mark.parametrize("value", [
    [1.0, 2.0, 3.0], 1.0, ["1", "2"], [1j, 2j], [None, 1.0], [[1.0, 2.0]],
], ids=["ragged", "scalar", "numeric-text", "complex", "none", "matrix"])
def test_feature_rows_refuse_values_that_are_not_real_vectors(value):
    with pytest.raises(InvalidArgument, match="of one length"):
        feature_rows({**STORE, "b": value}, ["a", "b"])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_feature_rows_name_a_non_finite_vector(value):
    with pytest.raises(InvalidArgument, match="'b' is not finite"):
        feature_rows({**STORE, "b": [1.0, value]}, ["a", "b", "c"])


# Stores larger than one block of feature_rows: its result and refusals are
# those of a single np.array call over every id.
BLOCKS = 2 * 4096 + 5


def big_store(last=None):
    rng = np.random.default_rng(0)
    store = {f"s{i:05d}": rng.standard_normal(3) for i in range(BLOCKS)}
    store["s00000"] = [1, 2, 3]  # ints in the first block, floats after
    if last is not None:
        store[f"s{BLOCKS - 1:05d}"] = last
    return store


def test_feature_rows_across_blocks_are_one_np_array_call():
    store = big_store()
    ids = sorted(store, reverse=True)
    rows = feature_rows(store, ids)
    assert rows.tobytes() == np.array([store[s] for s in ids], np.float64).tobytes()


@pytest.mark.parametrize("value", [[1.0, 2.0], ["1", "2", "3"], 4.0],
                         ids=["ragged", "text", "scalar"])
def test_feature_rows_refuse_a_bad_vector_in_a_later_block(value):
    with pytest.raises(InvalidArgument, match="of one length"):
        feature_rows(big_store(value), sorted(big_store()))


def test_feature_rows_name_a_non_finite_vector_in_a_later_block():
    with pytest.raises(InvalidArgument, match=f"'s{BLOCKS - 1:05d}' is not finite"):
        feature_rows(big_store([1.0, np.inf, 0.0]), sorted(big_store()))


def test_feature_store_maps_ids_to_rows_of_one_read_only_matrix():
    matrix = np.arange(6.0).reshape(3, 2)
    store = FeatureStore(["b", "c", "a"], matrix)
    assert list(store) == ["b", "c", "a"] and len(store) == 3
    assert "a" in store and "z" not in store
    np.testing.assert_array_equal(store["a"], [4.0, 5.0])
    assert np.shares_memory(store["a"], matrix)
    with pytest.raises(ValueError):
        store["a"][0] = 9.0
    with pytest.raises(TypeError):
        store["d"] = np.zeros(2)
    with pytest.raises(MissingSample):
        feature_rows(store, ["a", "d"])
    assert feature_rows(store, ["a", "b"]).tobytes() == matrix[[2, 0]].tobytes()


@pytest.mark.parametrize("ids, matrix", [
    (["a", "a"], np.zeros((2, 2))),
    (["a", "b"], np.zeros((3, 2))),
    (["a"], np.zeros(1)),
    (["a"], np.zeros((1, 2), np.float32)),
], ids=["repeated-id", "rows-for-other-ids", "one-dimensional", "float32"])
def test_feature_store_refuses_ids_that_do_not_name_its_rows(ids, matrix):
    with pytest.raises(InvalidArgument):
        FeatureStore(ids, matrix)
