"""checkpoint_load on malformed documents: every defect is a FairkdError
(FormatVersionMismatch for anything undecodable or non-finite), never a raw
Python exception and never a silently loaded broken model."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairkd.errors import FairkdError, FormatVersionMismatch
from fairkd.formats import (
    checkpoint_load,
    checkpoint_save,
    decode_array,
    encode_array,
)
from fairkd.losses import NormStats
from fairkd.training import Encoder, EncoderSpec, TrainResult

SPEC = EncoderSpec(input_dim=6, hidden_widths=(5,), embedding_dim=4,
                   init_seed=3)


def saved_doc(path):
    checkpoint_save(TrainResult(Encoder(SPEC), np.ones((3, 4)),
                                NormStats.default(), [], {"k": 1}),
                    path, {"config_digest": "abc"})
    return json.loads(path.read_text())


def with_nan(record, index=0):
    arr = decode_array(record)
    arr.flat[index] = np.nan
    return encode_array(arr)


MALFORMED = {
    "top_level_list": lambda d: [d],
    "top_level_string": lambda d: "checkpoint",
    "norm_stat_string": lambda d: {**d, "norm_stats": {"mean_norm": "abc",
                                                       "std_norm": 1.0}},
    "norm_stats_not_object": lambda d: {**d, "norm_stats": "abc"},
    "norm_stat_null": lambda d: {**d, "norm_stats": {"mean_norm": 20.0,
                                                     "std_norm": None}},
    "norm_stat_nan": lambda d: {**d, "norm_stats": {"mean_norm": float("nan"),
                                                    "std_norm": 1.0}},
    "norm_stat_inf": lambda d: {**d, "norm_stats": {"mean_norm": 20.0,
                                                    "std_norm": float("inf")}},
    "nan_weight": lambda d: {**d, "weights": [with_nan(d["weights"][0]),
                                              *d["weights"][1:]]},
    "nan_bias": lambda d: {**d, "biases": [*d["biases"][:-1],
                                           with_nan(d["biases"][-1])]},
    "nan_prototype": lambda d: {**d, "prototypes": with_nan(d["prototypes"],
                                                            5)},
    "infinite_dim": lambda d: {**d, "spec": {**d["spec"],
                                             "input_dim": float("inf")}},
    "huge_dim": lambda d: {**d, "spec": {**d["spec"], "input_dim": 10**12}},
    "weights_not_list": lambda d: {**d, "weights": {"a": 1}},
    "negative_init_seed": lambda d: {**d, "spec": {**d["spec"],
                                                   "init_seed": -3}},
    "init_seed_bool": lambda d: {**d, "spec": {**d["spec"], "init_seed": True}},
    "hidden_widths_string": lambda d: {**d, "spec": {**d["spec"],
                                                     "hidden_widths": "5"}},
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_checkpoint_raises_format_error(tmp_path, name):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(MALFORMED[name](saved_doc(path))))
    with pytest.raises(FormatVersionMismatch):
        checkpoint_load(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


def paths_of(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from paths_of(value, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_or_truncated_checkpoint_is_a_fairkd_error(tmp_path, data):
    path = tmp_path / "ck.json"
    doc = saved_doc(path)
    if data.draw(st.booleans(), label="truncate"):
        text = path.read_text()
        text = text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
    else:
        where = data.draw(st.sampled_from(list(paths_of(doc))), label="path")
        text = json.dumps(replaced(doc, where, data.draw(json_values,
                                                         label="value")))
    path.write_text(text)
    try:
        loaded, _ = checkpoint_load(path)
    except FairkdError:
        return
    assert isinstance(loaded, TrainResult)
    for p in loaded.encoder.parameters():
        assert np.isfinite(p).all()
