"""Round-trip and failure-path coverage for the on-disk formats."""

import ast
import binascii
import copy
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import ref_features_text, ref_manifest_1_text, ref_manifest_text
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fairkd
from fairkd.core import FeatureStore, feature_rows
from fairkd.errors import (
    ConfigError,
    FormatVersionMismatch,
    InvalidArgument,
    InvalidManifest,
    IoError,
    UnbalancedProtocol,
)
from fairkd.evaluation import GroupProtocol, PairProtocol, VerificationPair, build_report
from fairkd.formats import (
    _LABEL_BLOCK,
    _PIECE,
    FEATURES_SCHEMA,
    MANIFEST_SCHEMA,
    canonical_json,
    checkpoint_load,
    checkpoint_save,
    decode_array,
    encode_array,
    read_features,
    read_manifest,
    read_protocol,
    read_report,
    read_trace,
    write_features,
    write_manifest,
    write_protocol,
    write_report,
    write_trace,
)
from fairkd.losses import LossConfig, NormStats
from fairkd.sampling import DatasetManifest, ManifestEntry
from fairkd.training import (
    Encoder,
    EncoderSpec,
    EpochStats,
    TrainConfig,
    TrainResult,
    train_from_scratch,
)


def sample_manifest():
    entries = [
        ManifestEntry("s1", "ida", "real", (0.8, 0.2), "s1"),
        ManifestEntry("s2", "ida", "real", (0.6, 0.4), "s2"),
        ManifestEntry("s3", "idb", "synthetic", (0.1, 0.9), "s3"),
    ]
    return DatasetManifest("toy", 2, entries, shortfalls={"group1": 2})


def sample_protocol():
    g1 = GroupProtocol("g0", [VerificationPair("s1", "s2", True),
                              VerificationPair("s1", "s3", False)])
    g2 = GroupProtocol("g1", [])
    return PairProtocol([g1, g2])


class TestManifestIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        src = sample_manifest()
        write_manifest(src, path)
        loaded, header = read_manifest(path)
        assert loaded == src
        assert header["schema"] == MANIFEST_SCHEMA

    def test_byte_identical_across_writes(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifest(sample_manifest(), p1)
        write_manifest(sample_manifest(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_extra_header_fields_embedded(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(sample_manifest(), path,
                       extra_header={"stats": {"total_images": 3},
                                     "config_digest": "abc"})
        _, header = read_manifest(path)
        assert header["stats"] == {"total_images": 3}
        assert header["config_digest"] == "abc"

    def test_extra_header_cannot_shadow_structural_keys(self, tmp_path):
        with pytest.raises(ValueError):
            write_manifest(sample_manifest(), tmp_path / "m.jsonl",
                           extra_header={"schema": "evil"})

    def test_read_validates_entries(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = canonical_json({"schema": MANIFEST_SCHEMA, "name": "x",
                                 "group_count": 2, "shortfalls": {},
                                 "sample_ids": ["s1"], "identity_ids": ["a"],
                                 "sources": ["real"], "payload_refs": ["s1"]})
        path.write_text(header + "\n[0.9,0.9]\n")
        with pytest.raises(InvalidManifest, match=re.escape(f"{path}: ")) as exc:
            read_manifest(path)
        assert str(exc.value).count(str(path)) == 1

    @pytest.mark.parametrize("shortfalls", [
        {"group0": -3, "zzz": 2}, {"group0": 0}, {"group2": 1},
        {"group0/fake": 1}, {"": 1},
    ])
    def test_read_refuses_impossible_shortfalls(self, tmp_path, shortfalls):
        path = tmp_path / "m.jsonl"
        write_manifest(sample_manifest(), path)
        header, *records = path.read_text().splitlines()
        header = canonical_json({**json.loads(header), "shortfalls": shortfalls})
        path.write_text("\n".join([header, *records]) + "\n")
        with pytest.raises(InvalidManifest, match=re.escape(f"{path}: shortfall")):
            read_manifest(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(canonical_json({"schema": "other/9"}) + "\n")
        with pytest.raises(FormatVersionMismatch):
            read_manifest(path)

    def test_a_manifest_1_file_is_not_read(self, tmp_path):
        # synth-gen rebuilds it: the same header, one JSON object per entry
        path = tmp_path / "m.jsonl"
        path.write_text(ref_manifest_1_text(sample_manifest()))
        with pytest.raises(FormatVersionMismatch, match=re.escape(
                f"{path}: expected schema {MANIFEST_SCHEMA!r}, found 'fairkd/manifest/1'")):
            read_manifest(path)

    def test_manifest_has_one_line_per_entry(self, tmp_path):
        # the benchmark counts a manifest's entries as its non-blank lines
        # after the header
        path = tmp_path / "m.jsonl"
        write_manifest(sample_manifest(), path)
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        assert len(lines) - 1 == len(sample_manifest().entries) == 3

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_manifest(tmp_path / "absent.jsonl")

    def test_unwritable_directory_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            write_manifest(sample_manifest(), tmp_path / "no" / "dir" / "m.jsonl")


class TestProtocolIo:
    def test_round_trip_preserves_empty_groups(self, tmp_path):
        path = tmp_path / "p.jsonl"
        src = sample_protocol()
        write_protocol(src, path)
        loaded, _ = read_protocol(path)
        assert loaded == src
        assert [g.name for g in loaded.groups] == ["g0", "g1"]

    def test_unbalanced_protocol_rejected_on_write(self, tmp_path):
        # an unbalanced protocol cannot be built, so it is never written
        with pytest.raises(UnbalancedProtocol):
            write_protocol(PairProtocol([GroupProtocol(
                "g", [VerificationPair("a", "b", True)])]), tmp_path / "p.jsonl")
        assert not (tmp_path / "p.jsonl").exists()

    def test_unbalanced_protocol_rejected_on_read_naming_the_file(self, tmp_path):
        path = tmp_path / "p.jsonl"
        lines = [canonical_json({"schema": "fairkd/protocol/1",
                                 "group_names": ["g"]}),
                 canonical_json({"group": "g", "sample_a": "a",
                                 "sample_b": "b", "same": True})]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(UnbalancedProtocol, match=re.escape(f"{path}: ")) as exc:
            read_protocol(path)
        assert str(exc.value).count(str(path)) == 1

    def test_unknown_group_in_record_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        lines = [canonical_json({"schema": "fairkd/protocol/1",
                                 "group_names": ["g0"]}),
                 canonical_json({"group": "mystery", "sample_a": "a",
                                 "sample_b": "b", "same": True})]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatVersionMismatch):
            read_protocol(path)


class TestReportIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        reports = [build_report((97.40, 96.07, 95.52, 95.95),
                                {"model": "m", "loss": "adaface"})]
        write_report(reports, path, extra_header={"config_digest": "d1"})
        loaded, doc = read_report(path)
        assert loaded == reports
        assert doc["config_digest"] == "d1"

    def test_degenerate_ser_survives_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        rep = build_report((90.0, 100.0))
        write_report([rep], path)
        (loaded,), _ = read_report(path)
        assert loaded.ser_degenerate
        assert math.isinf(loaded.ser)

    def test_single_report_refused(self, tmp_path):
        # the writer takes the list that read_report returns, nothing else
        path = tmp_path / "r.json"
        with pytest.raises(InvalidArgument, match="list of EvalReport"):
            write_report(build_report((91.0, 92.0)), path)
        assert not path.exists()


class TestFeatureIo:
    def test_bitwise_round_trip(self, tmp_path):
        path = tmp_path / "f.json"
        rng = np.random.Generator(np.random.PCG64(3))
        feats = {f"s{i}": rng.standard_normal(6) for i in range(5)}
        feats["tiny"] = np.full(6, 5e-324)
        feats["edge"] = np.nextafter(np.ones(6), 2.0)
        write_features(feats, path)
        loaded, doc = read_features(path)
        assert doc["schema"] == FEATURES_SCHEMA
        assert set(loaded) == set(feats)
        for k in feats:
            np.testing.assert_array_equal(loaded[k],
                                          np.asarray(feats[k], dtype=np.float64))

    def test_byte_identical_across_writes(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(4))
        feats = {f"s{i}": rng.standard_normal(4) for i in range(3)}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_features(feats, p1)
        write_features(dict(reversed(list(feats.items()))), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mixed_dims_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_features({"a": np.zeros(3), "b": np.zeros(4)},
                           tmp_path / "f.json")

    def test_stored_as_sorted_ids_and_one_matrix(self, tmp_path):
        path = tmp_path / "f.json"
        write_features({"b": np.ones(3), "a": np.zeros(3)}, path)
        header, *pieces = map(json.loads, path.read_text().splitlines())
        assert header["ids"] == ["a", "b"] and header["dim"] == 3
        matrix = np.frombuffer(binascii.a2b_base64("".join(pieces)), "<f8")
        np.testing.assert_array_equal(matrix.reshape(2, 3),
                                      [np.zeros(3), np.ones(3)])

    def test_read_store_is_rows_of_one_matrix(self, tmp_path):
        path = tmp_path / "f.json"
        write_features({"b": np.ones(3), "a": np.zeros(3)}, path)
        store, _ = read_features(path)
        assert isinstance(store, FeatureStore) and list(store) == ["a", "b"]
        assert store["b"].base is store.matrix.base
        np.testing.assert_array_equal(store.matrix, [np.zeros(3), np.ones(3)])

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "f.json"
        write_features({}, path)
        assert read_features(path)[0] == {}

    def test_version_1_store_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(canonical_json({
            "schema": "fairkd/features/1", "dim": 4,
            "features": {"a": encode_array(np.zeros(4))}}))
        with pytest.raises(FormatVersionMismatch):
            read_features(path)

    def test_version_2_store_rejected(self, tmp_path):
        # one document with the matrix as an array record: synth-gen rebuilds it
        path = tmp_path / "f.json"
        path.write_text(canonical_json({
            "schema": "fairkd/features/2", "ids": ["a"], "dim": 4,
            "matrix": encode_array(np.zeros((1, 4)))}) + "\n")
        with pytest.raises(FormatVersionMismatch, match=re.escape(str(path))):
            read_features(path)

    def test_non_finite_vector_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_features({"a": np.array([np.nan, 1.0])}, tmp_path / "f.json")


class TestArrayCodec:
    def test_exact_round_trip_int64(self):
        arr = np.array([[1, -2], [3, 4]], dtype=np.int64)
        out = decode_array(encode_array(arr))
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == np.int64

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            encode_array(np.zeros(3, dtype=np.float32))

    def test_corrupt_payload_rejected(self):
        obj = encode_array(np.zeros(4))
        obj["data"] = obj["data"][:8]
        with pytest.raises(FormatVersionMismatch):
            decode_array(obj)

    def test_shape_payload_disagreement_rejected(self):
        obj = encode_array(np.zeros(4))
        obj["shape"] = [5]
        with pytest.raises(FormatVersionMismatch):
            decode_array(obj)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_array_rejected(self, bad):
        obj = encode_array(np.array([1.0, bad]))
        with pytest.raises(FormatVersionMismatch, match="non-finite"):
            decode_array(obj)


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


class TestTrace:
    EPOCHS = [
        EpochStats(epoch=0, lr=0.1, cls_loss=2.5, kd_loss=0.7, total_loss=3.2),
        EpochStats(epoch=1, lr=0.1, cls_loss=1.25, kd_loss=0.5, total_loss=1.75),
    ]

    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(self.EPOCHS, path, {"config_digest": "abc123"})
        epochs, header = read_trace(path)
        assert epochs == self.EPOCHS
        assert header["config_digest"] == "abc123"

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_trace(self.EPOCHS, a)
        write_trace(self.EPOCHS, b)
        assert a.read_bytes() == b.read_bytes()

    def test_a_training_trace_round_trips(self, tmp_path):
        # read_trace returns TrainResult.trace as it was written
        rng = np.random.Generator(np.random.PCG64(5))
        store = {s: rng.standard_normal(4) for s in "abcd"}
        manifest = DatasetManifest("m", 2, [
            ManifestEntry(s, f"id-{s}", "real", (1.0, 0.0), s) for s in store])
        result = train_from_scratch(EncoderSpec(4, (3,), 2), manifest, store,
                                    LossConfig(),
                                    TrainConfig(epochs=3, lr_milestones=(2,)))
        path = tmp_path / "trace.json"
        write_trace(result.trace, path)
        epochs, _ = read_trace(path)
        assert len(epochs) == 3 and epochs == result.trace
        assert all(type(e) is EpochStats for e in epochs)

    @pytest.mark.parametrize("epochs", [
        [{"epoch": 0, "lr": 0.1, "cls_loss": 2.5, "kd_loss": 0.7,
          "total_loss": 3.2}], (), None], ids=["dicts", "tuple", "none"])
    def test_anything_but_a_list_of_epoch_stats_refused(self, tmp_path, epochs):
        path = tmp_path / "trace.json"
        with pytest.raises(InvalidArgument, match="list of EpochStats"):
            write_trace(epochs, path)
        assert not path.exists()

    @pytest.mark.parametrize("change", [
        {"epoch": -1}, {"epoch": 1.0}, {"lr": float("nan")},
        {"cls_loss": float("inf")}, {"kd_loss": "0.5"}, {"total_loss": True}])
    def test_epoch_stats_holds_its_fields_to_their_rule(self, change):
        values = {"epoch": 0, "lr": 0.1, "cls_loss": 2.5, "kd_loss": 0.7,
                  "total_loss": 3.2, **change}
        with pytest.raises(ConfigError, match=f"^{next(iter(change))}"):
            EpochStats(**values)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text('{"schema": "fairkd/report/1", "epochs": []}')
        with pytest.raises(FormatVersionMismatch):
            read_trace(path)


def sample_report(path):
    write_report([build_report((91.0, 92.5), {"model": "m"})], path)


def sample_features(path):
    write_features({"a": np.zeros(4), "b": np.ones(4)}, path)


WRITE_AND_READ = {
    "manifest": (lambda p: write_manifest(sample_manifest(), p), read_manifest),
    "protocol": (lambda p: write_protocol(sample_protocol(), p), read_protocol),
    "report": (sample_report, read_report),
    "features": (sample_features, read_features),
    "trace": (lambda p: write_trace(TestTrace.EPOCHS, p), read_trace),
    "checkpoint": (lambda p: checkpoint_save(sample_model(), p),
                   checkpoint_load),
}


def with_nan_row(piece):
    """A features piece of 2 x 4 values, its second row NaN."""
    matrix = np.frombuffer(binascii.a2b_base64(piece), "<f8").copy()
    matrix[4:] = np.nan
    return binascii.b2a_base64(matrix.tobytes(), newline=False).decode()


def first_report(docs, **changes):
    return [{**docs[0], "reports": [{**docs[0]["reports"][0], **changes}]}]


def first_entry(column, *value):
    """A manifest's documents with the first item of a header column replaced
    by value, or dropped if no value is given."""
    return lambda d: [{**d[0], column: [*value, *d[0][column][1:]]}, *d[1:]]


# kind, then a map from the documents of a valid file (header first, then
# one per record line) to the malformed ones
MALFORMED = {
    "report_top_level_list": ("report", lambda d: [[d[0]]]),
    "trace_top_level_list": ("trace", lambda d: [[d[0]]]),
    "features_top_level_list": ("features", lambda d: [[d[0]], *d[1:]]),
    "reports_not_a_list": ("report", lambda d: [{**d[0], "reports": 5}]),
    "report_metadata_list": ("report",
                             lambda d: first_report(d, metadata=["m"])),
    "trace_epoch_int": ("trace", lambda d: [{**d[0], "epochs": [5]}]),
    "protocol_record_list": ("protocol",
                             lambda d: [d[0], ["g0", "s1", "s2", True], *d[2:]]),
    "group_names_int": ("protocol",
                        lambda d: [{**d[0], "group_names": 3}, *d[1:]]),
    "group_count_text": ("manifest",
                         lambda d: [{**d[0], "group_count": "x"}, *d[1:]]),
    "shortfalls_list": ("manifest",
                        lambda d: [{**d[0], "shortfalls": [1]}, *d[1:]]),
    "soft_label_text": ("manifest", lambda d: [d[0], ["abc", 0.2], *d[2:]]),
    "manifest_header_list": ("manifest", lambda d: [[d[0]], *d[1:]]),
    "array_shape_text": ("checkpoint", lambda d: [
        {**d[0], "prototypes": {**d[0]["prototypes"], "shape": ["x"]}}]),
    "feature_dim_text": ("features", lambda d: [{**d[0], "dim": "x"}, *d[1:]]),
    "report_nan": ("report", lambda d: first_report(d, average=float("nan"))),
    "features_nan_row": ("features", lambda d: [d[0], with_nan_row(d[1])]),
    "features_dim_mismatch": ("features", lambda d: [{**d[0], "dim": 5}, *d[1:]]),
    # swapped labels that keep the group balanced: "no" is truthy
    "same_text_and_int": ("protocol", lambda d: [
        d[0], {**d[1], "same": 0}, {**d[2], "same": "no"}]),
    "pair_sample_int": ("protocol",
                        lambda d: [d[0], {**d[1], "sample_b": 2}, *d[2:]]),
    "pair_group_int": ("protocol", lambda d: [
        {**d[0], "group_names": [0, "g1"]}, {**d[1], "group": 0},
        {**d[2], "group": 0}]),
    "identity_id_int": ("manifest", first_entry("identity_ids", 5)),
    "sample_id_int": ("manifest", first_entry("sample_ids", 1)),
    "source_list": ("manifest", first_entry("sources", ["real"])),
    "payload_ref_null": ("manifest", first_entry("payload_refs", None)),
    # numbers are JSON numbers: no numeric strings, no bools, no floats
    # where an integer is due
    "per_group_text_and_bool": ("report",
                                lambda d: first_report(d, per_group=["90", True])),
    "average_text": ("report", lambda d: first_report(d, average="91.75")),
    "ser_degenerate_text": ("report",
                            lambda d: first_report(d, ser_degenerate="no")),
    "report_metadata_int": ("report",
                            lambda d: first_report(d, metadata={"model": 5})),
    "group_count_float": ("manifest",
                          lambda d: [{**d[0], "group_count": 2.9}, *d[1:]]),
    "shortfall_text": ("manifest", lambda d: [
        {**d[0], "shortfalls": {"group1": "2"}}, *d[1:]]),
    "shortfall_bool": ("manifest", lambda d: [
        {**d[0], "shortfalls": {"group1": True}}, *d[1:]]),
    "soft_labels_numeric_text": ("manifest",
                                 lambda d: [d[0], ["0.8", "0.2"], *d[2:]]),
    "manifest_name_int": ("manifest", lambda d: [{**d[0], "name": 7}, *d[1:]]),
    "feature_ids_int": ("features", lambda d: [{**d[0], "ids": [0, 1]}, *d[1:]]),
    "feature_dim_float": ("features", lambda d: [{**d[0], "dim": 4.0}, *d[1:]]),
    # the cases of features/2's matrix record, on features/3's piece lines:
    # no piece, a foreign value among them, an empty piece, values that are
    # not base64 bytes, and more bytes than the header's shape
    "features_header_without_matrix": ("features", lambda d: d[:1]),
    "features_matrix_with_zz": ("features", lambda d: [*d, {"zz": 0}]),
    "features_matrix_without_data": ("features", lambda d: [*d, ""]),
    "features_matrix_without_dtype": ("features", lambda d: [d[0], [0.0] * 8]),
    "features_matrix_without_shape": ("features", lambda d: [*d, d[1]]),
    "norm_stat_numeric_text": ("checkpoint", lambda d: [{
        **d[0], "norm_stats": {**d[0]["norm_stats"], "mean_norm": "20.0"}}]),
    "norm_stat_bool": ("checkpoint", lambda d: [{
        **d[0], "norm_stats": {**d[0]["norm_stats"], "std_norm": True}}]),
    # an epoch holds exactly EpochStats' five fields, each a JSON number
    "trace_epoch_foreign_keys": ("trace",
                                 lambda d: [{**d[0], "epochs": [{"foo": "bar"}]}]),
    "trace_lr_text": ("trace", lambda d: [{**d[0], "epochs": [
        {**d[0]["epochs"][0], "lr": "0.1"}]}]),
    "trace_epoch_float": ("trace", lambda d: [{**d[0], "epochs": [
        {**d[0]["epochs"][0], "epoch": 0.5}]}]),
    # a report's summary is computed from its groups, never taken on trust
    "report_average_edited": ("report",
                              lambda d: first_report(d, average=50.0)),
    "report_per_group_out_of_range": ("report", lambda d: first_report(
        d, per_group=[150.0, -20.0])),
    "report_one_group": ("report",
                         lambda d: first_report(d, per_group=[91.0])),
    "report_degenerate_flag_on_finite_ser": ("report", lambda d: first_report(
        d, ser=None, ser_degenerate=True)),
    # a trace or report document holds its list; none or an object is not
    # an empty one
    "trace_epochs_object": ("trace", lambda d: [{**d[0], "epochs": {}}]),
    "reports_object": ("report", lambda d: [{**d[0], "reports": {}}]),
    # a checkpoint's rng_state is null or an object
    "rng_state_int": ("checkpoint", lambda d: [{**d[0], "rng_state": 5}]),
    "rng_state_text": ("checkpoint", lambda d: [{**d[0], "rng_state": "x"}]),
    "rng_state_list": ("checkpoint", lambda d: [{**d[0], "rng_state": [1]}]),
    # a group is named once; a second "g0" would fold into the first
    "group_names_repeated": ("protocol", lambda d: [
        {**d[0], "group_names": ["g0", "g0"]}, *d[1:]]),
    # a manifest entry is one item of each header column and one label line:
    # an entry short of one of them, or with a label too many
    **{f"manifest_record_without_{key}": ("manifest", first_entry(f"{key}s"))
       for key in ("identity_id", "payload_ref", "sample_id", "source")},
    "manifest_record_without_soft_labels": ("manifest", lambda d: [d[0], *d[2:]]),
    "manifest_record_with_zz": ("manifest", lambda d: [d[0], [*d[1], 0.0], *d[2:]]),
    "manifest_label_line_too_many": ("manifest", lambda d: [*d, d[1]]),
    "manifest_column_too_long": ("manifest", lambda d: [
        {**d[0], "sources": [*d[0]["sources"], "real"]}, *d[1:]]),
    "manifest_label_nested_list": ("manifest", lambda d: [d[0], [[0.8], 0.2], *d[2:]]),
    "manifest_label_int": ("manifest", lambda d: [d[0], [1, 0.0], *d[2:]]),
    "manifest_label_nan": ("manifest", lambda d: [d[0], [float("nan"), 0.2], *d[2:]]),
    "manifest_label_inf": ("manifest", lambda d: [d[0], [float("inf"), 0.2], *d[2:]]),
}


ARRAY_KEYS = ("data", "dtype", "shape")
# kind -> {where in a valid file's documents (header first, then one per
# record line): the keys its writer writes there}; the header, at (0,), is
# open to stamps, and every other part is closed
DECLARED = {
    "manifest": {(0,): ("group_count", "identity_ids", "name", "payload_refs",
                        "sample_ids", "shortfalls", "sources")},
    "protocol": {(0,): ("group_names",),
                 (1,): ("group", "sample_a", "sample_b", "same")},
    "report": {(0,): ("reports",),
               (0, "reports", 0): ("average", "metadata", "per_group", "ser",
                                   "ser_degenerate", "std")},
    "features": {(0,): ("dim", "ids")},
    "trace": {(0,): ("epochs",),
              (0, "epochs", 0): ("cls_loss", "epoch", "kd_loss", "lr",
                                 "total_loss")},
    "checkpoint": {(0,): ("biases", "norm_stats", "prototypes", "rng_state",
                          "spec", "weights"),
                   (0, "spec"): ("activation", "embedding_dim", "hidden_widths",
                                 "init_seed", "input_dim"),
                   (0, "norm_stats"): ("mean_norm", "std_norm"),
                   (0, "prototypes"): ARRAY_KEYS,
                   (0, "weights", 0): ARRAY_KEYS,
                   (0, "biases", 0): ARRAY_KEYS},
}


def part(docs, where):
    for step in where:
        docs = docs[step]
    return docs


def edited(where, change):
    def corrupt(docs):
        docs = copy.deepcopy(docs)
        change(part(docs, where))
        return docs
    return corrupt


def declared_cases():
    """Every declared key is required, and a closed part takes no other:
    e.g. checkpoint_spec_without_activation, manifest_record_with_zz."""
    for kind, parts in DECLARED.items():
        for where, keys in parts.items():
            name = {(0,): "header", (1,): "record"}.get(where) or "_".join(
                map(str, where[1:]))
            for key in keys:
                yield f"{kind}_{name}_without_{key}", (
                    kind, edited(where, lambda obj, key=key: obj.pop(key)))
            if where != (0,):
                yield f"{kind}_{name}_with_zz", (
                    kind, edited(where, lambda obj: obj.update(zz=0)))


MALFORMED.update(declared_cases())


@pytest.mark.parametrize("kind", list(DECLARED))
def test_declared_keys_are_the_keys_written(tmp_path, kind):
    path = tmp_path / kind
    WRITE_AND_READ[kind][0](path)
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    for where, keys in DECLARED[kind].items():
        stamps = {"schema"} if where == (0,) else set()
        assert set(part(docs, where)) - stamps == set(keys), where


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_artifact_raises_format_error(tmp_path, case):
    kind, corrupt = MALFORMED[case]
    write, read = WRITE_AND_READ[kind]
    path = tmp_path / kind
    write(path)
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    # json.dumps, not canonical_json: some cases need a NaN literal
    path.write_text("\n".join(json.dumps(d) for d in corrupt(docs)) + "\n")
    with pytest.raises(FormatVersionMismatch, match=re.escape(str(path))):
        read(path)


@pytest.mark.parametrize("rng_state", [5, "x", [1]])
def test_checkpoint_refuses_an_rng_state_that_is_not_an_object(tmp_path,
                                                               rng_state):
    path = tmp_path / "model.ckpt"
    with pytest.raises(InvalidArgument, match="rng_state"):
        checkpoint_save(replace(sample_model(), rng_state=rng_state), path)
    assert not path.exists()


def sample_model():
    rng = np.random.Generator(np.random.PCG64(0))
    return TrainResult(Encoder(EncoderSpec(4, (3,), 2, "tanh", init_seed=1)),
                       rng.standard_normal((3, 2)), NormStats.default(), [],
                       rng.bit_generator.state)


# kind -> (writer, reader, sample value)
CODECS = {
    "manifest": (write_manifest, read_manifest, sample_manifest),
    "protocol": (write_protocol, read_protocol, sample_protocol),
    "report": (write_report, read_report, lambda: [
        build_report((91.0, 92.5), {"model": "m"}), build_report((100.0, 97.0))]),
    "features": (write_features, read_features,
                 lambda: {"a": np.zeros(4), "b": np.full(4, 0.1)}),
    "trace": (write_trace, read_trace, lambda: TestTrace.EPOCHS),
    "checkpoint": (checkpoint_save, checkpoint_load, sample_model),
}


@pytest.mark.parametrize("kind", list(CODECS))
def test_rewriting_what_was_read_gives_the_same_bytes(tmp_path, kind):
    # every reader returns what its writer takes, header keys included
    write, read, sample = CODECS[kind]
    extra = {"config_digest": "abc", "tool_version": "0"}
    first, second = tmp_path / "first", tmp_path / "second"
    write(sample(), first, extra)
    value, header = read(first)
    write(value, second, {key: header[key] for key in extra})
    assert second.read_bytes() == first.read_bytes()


COMPUTE_MODULES = ("core", "losses", "sampling", "evaluation", "synthdata",
                   "training")


def test_compute_modules_do_not_import_formats():
    # formats sits above the compute modules: it imports them, never the
    # reverse, so every artifact codec lives in one module
    offenders = []
    for name in COMPUTE_MODULES:
        path = Path(fairkd.__file__).with_name(f"{name}.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                imported = [base] + [f"{base}.{alias.name}"
                                     for alias in node.names]
            else:
                continue
            if any("formats" in target.split(".") for target in imported):
                offenders.append(f"{name}.py:{node.lineno}")
    assert offenders == []


# ---------------------------------------------------------------------------
# The manifest codec: a template writer, and one JSON value per line


ID_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
# label values whose encodings differ from those of equal values: ints,
# -0.0 and subnormals
COLD = st.sampled_from([0, 0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308])


@st.composite
def label_rows(draw, g):
    if draw(st.booleans()):
        row = [draw(COLD) for _ in range(g)]
        row[draw(st.integers(0, g - 1))] = draw(st.sampled_from([1, 1.0]))
        return tuple(row)
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=g, max_size=g))
    return tuple(x / sum(raw) for x in raw)


@st.composite
def manifests(draw):
    """Valid manifests whose entries share label tuples, among them tuples
    equal to another but encoded differently, such as (1, 0.0) and
    (1.0, 0.0)."""
    g = draw(st.integers(1, 4))
    pool = draw(st.lists(label_rows(g), min_size=1, max_size=4))
    pool.append(tuple(float(abs(p)) for p in pool[0]))
    sources = draw(st.dictionaries(ID_TEXT, st.sampled_from(["real", "synthetic"]),
                                   min_size=1, max_size=3))
    entries = []
    for sid in draw(st.lists(ID_TEXT, unique=True, max_size=8)):
        iid = draw(st.sampled_from(sorted(sources)))
        entries.append(ManifestEntry(sid, iid, sources[iid],
                                     draw(st.sampled_from(pool)), draw(ID_TEXT)))
    cells = [f"group{k}{source}" for k in range(g)
             for source in ("", "/real", "/synthetic")]
    return DatasetManifest(draw(ID_TEXT), g, entries, draw(st.dictionaries(
        st.sampled_from(cells), st.integers(1, 5), max_size=2)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifest=manifests())
def test_template_writer_writes_the_per_record_bytes(tmp_path, manifest):
    path = tmp_path / "m"
    extra = {"note": "naïve"}
    write_manifest(manifest, path, extra)
    assert path.read_bytes() == ref_manifest_text(manifest, extra).encode()


def swap_line(lines, k, line):
    return [*lines[:k], line, *lines[k + 1:]]


# a valid manifest's lines (header, then s1's labels [0.8,0.2], then two
# more label lines) -> malformed text; each line must hold one JSON value
RAW_MANIFESTS = {
    "two_values_on_one_line": lambda ls: [ls[0], ls[1] + ls[2], *ls[3:]],
    "two_values_with_a_comma": lambda ls: [ls[0], ls[1] + "," + ls[2], *ls[3:]],
    "header_and_record_on_one_line": lambda ls: [ls[0] + ls[1], *ls[2:]],
    "record_split_across_lines": lambda ls: [ls[0], ls[1][:5], ls[1][5:],
                                             *ls[2:]],
    # a split whose halves, and the next line, still join into valid JSON
    "record_split_into_the_next_line": lambda ls: [ls[0], "[0.8", "0.2]," + ls[2],
                                                   *ls[3:]],
    "trailing_garbage": lambda ls: swap_line(ls, 1, ls[1] + " x"),
    "leading_garbage": lambda ls: swap_line(ls, 1, "x " + ls[1]),
    "label_1e999": lambda ls: swap_line(ls, 1, ls[1].replace("0.8,", "1e999,")),
    "label_bool": lambda ls: swap_line(ls, 1, ls[1].replace(",0.2]", ",true]")),
    "label_null": lambda ls: swap_line(ls, 1, ls[1].replace(",0.2]", ",null]")),
    "labels_an_object": lambda ls: swap_line(
        ls, 1, ls[1].replace("[0.8,0.2]", '{"a":1}')),
    "label_text": lambda ls: swap_line(ls, 1, '["0.8",0.2]'),
    "label_nested_list": lambda ls: swap_line(ls, 1, "[[0.8],0.2]"),
    "label_nan": lambda ls: swap_line(ls, 1, "[NaN,0.2]"),
    "label_brackets_in_a_string": lambda ls: swap_line(ls, 1, '[0.8,"]["]'),
}


@pytest.mark.parametrize("case", list(RAW_MANIFESTS))
def test_malformed_manifest_text_names_the_file(tmp_path, case):
    path = tmp_path / "m.jsonl"
    write_manifest(sample_manifest(), path)
    lines = path.read_text().splitlines()
    assert lines[1] == "[0.8,0.2]"
    path.write_text("\n".join(RAW_MANIFESTS[case](lines)) + "\n")
    with pytest.raises(FormatVersionMismatch, match=re.escape(str(path))):
        read_manifest(path)


def test_blank_and_padded_lines_still_read(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(sample_manifest(), path)
    lines = path.read_text().splitlines()
    path.write_text("\n\n".join(f" \t{line}\t " for line in lines) + "\n \n")
    assert read_manifest(path)[0] == sample_manifest()


@pytest.mark.parametrize("field", ["sample_id", "identity_id", "payload_ref"])
def test_manifest_with_a_non_string_id_is_not_written(tmp_path, field):
    first, *rest = sample_manifest().entries
    manifest = DatasetManifest("toy", 2, [replace(first, **{field: 1}), *rest])
    path = tmp_path / "m.jsonl"
    with pytest.raises(InvalidArgument):
        write_manifest(manifest, path)
    assert not path.exists()


@pytest.mark.parametrize("ids", [["b", "a"], ["a", "a"]])
def test_feature_ids_out_of_order_or_repeated_are_refused(tmp_path, ids):
    path = tmp_path / "f.json"
    sample_features(path)
    header, *pieces = path.read_text().splitlines()
    path.write_text("\n".join([canonical_json({**json.loads(header), "ids": ids}),
                               *pieces]) + "\n")
    with pytest.raises(FormatVersionMismatch, match="unique and sorted") as err:
        read_features(path)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# The streamed codec: writes in pieces, reads line by line from the file


# ids and header values that look like the pieces of a features/2 file
MARKERS = ['{"data":"', '","dtype":"float64","shape":', "}", '"', "matrix"]
# (rows, dim): empty, under one piece, exactly one piece, and two pieces
# plus 16 bytes, a remainder that is not a multiple of 3
STORE_SHAPES = {"empty": (0, 0), "under_one_piece": (5, 3),
                "one_piece": (_PIECE // 24, 3),
                "pieces_and_a_remainder": (2 * _PIECE // 16 + 1, 2)}


@pytest.mark.parametrize("case", list(STORE_SHAPES))
def test_streamed_features_are_the_one_string_bytes(tmp_path, case):
    rows, dim = STORE_SHAPES[case]
    assert _PIECE % 3 == 0
    if case == "pieces_and_a_remainder":
        assert rows * dim * 8 % _PIECE % 3 != 0
    ids = [*MARKERS, *(f"s{i:06d}" for i in range(rows))][:rows]
    rng = np.random.default_rng(rows)
    features = {sid: rng.standard_normal(dim) for sid in ids}
    # extra keys that sort before and after the body's, with marker values
    extra = {"aa": MARKERS[0], "matrix_": MARKERS[1], "zz": [MARKERS[2], 0.5]}
    path = tmp_path / "f.json"
    write_features(features, path, extra)
    assert path.read_bytes() == ref_features_text(features, extra).encode()
    store, _ = read_features(path)
    assert store.keys() == features.keys()
    assert all(np.array_equal(store[k], v) for k, v in features.items())


def test_feature_codec_holds_the_matrix_about_once(tmp_path):
    # 20 000 x 16: the write peaks at most 3.5x the matrix bytes; the read
    # at most 0.5x of them above the store and header it returns, and at
    # most 2.5x above what was held before it, the store included
    rng = np.random.default_rng(0)
    features = {f"synthetic/id{i // 10:05d}/img{i % 10:02d}":
                rng.standard_normal(16) for i in range(20_000)}
    matrix_bytes = 20_000 * 16 * 8
    path = tmp_path / "f.json"
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write_features(features, path)
        write_peak = tracemalloc.get_traced_memory()[1] - before
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        store, header = read_features(path)
        held, read_peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert write_peak <= 3.5 * matrix_bytes
    assert read_peak - held <= 0.5 * matrix_bytes
    assert read_peak - before <= 2.5 * matrix_bytes
    assert len(store) == 20_000 and header["dim"] == 16


def test_a_store_is_written_without_a_sorted_copy(tmp_path):
    # 20 000 x 16 in no id order: the write peaks at most 1.0x the matrix
    # bytes above what was held before it, which a sorted copy alone fills
    rng = np.random.default_rng(0)
    ids = [f"synthetic/id{i // 10:05d}/img{i % 10:02d}"
           for i in rng.permutation(20_000)]
    store = FeatureStore(ids, rng.standard_normal((20_000, 16)))
    path = tmp_path / "f.json"
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write_features(store, path)
        write_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert write_peak <= 1.0 * store.matrix.nbytes
    read, _ = read_features(path)
    assert list(read) == sorted(ids)
    assert read.matrix.tobytes() == store.matrix[np.argsort(ids)].tobytes()


def test_an_unsorted_store_writes_the_bytes_of_its_vectors_as_a_dict(tmp_path):
    # dim 7: 56-byte rows, so rows straddle the boundaries of three pieces
    rows = 2 * _PIECE // 56 + 100
    assert _PIECE % 56
    rng = np.random.default_rng(7)
    ids = [f"s{i:05d}" for i in rng.permutation(rows)]
    store = FeatureStore(ids, rng.standard_normal((rows, 7)))
    extra = {"aa": MARKERS[0], "zz": [MARKERS[2], 0.5]}
    write_features(store, tmp_path / "store.json", extra)
    write_features({sid: store[sid].copy() for sid in ids}, tmp_path / "dict.json",
                   extra)
    written = (tmp_path / "store.json").read_bytes()
    assert written == (tmp_path / "dict.json").read_bytes()
    assert len(written.splitlines()) == 1 + 3


def test_a_store_with_a_non_finite_row_is_not_written(tmp_path):
    matrix = np.ones((5, 2))
    matrix[[1, 3], 0] = np.inf, np.nan
    store = FeatureStore(["e", "d", "c", "b", "a"], matrix)
    path = tmp_path / "f.json"
    for refuse in (lambda: write_features(store, path),
                   lambda: feature_rows(store, sorted(store))):
        # "b" is the first bad id in sorted order, "d" in the matrix's
        with pytest.raises(InvalidArgument, match="^feature vector 'b' is not finite$"):
            refuse()
    assert list(tmp_path.iterdir()) == []


# the base64 of one float64 1.0 -> malformed base64 for it
BASE64_CASES = {
    "outside_the_alphabet": "AAAA*AAA8D8=",
    "padding_in_the_middle": "AAAA=AAA8D8=",
    "data_after_the_padding": "AAAAAAAA8D8=AAAA",
    "non_ascii": "AAAAAAAA8D8\u00e9",
    "missing_padding": "AAAAAAAA8D8",
}


@pytest.mark.parametrize("case", list(BASE64_CASES))
def test_malformed_base64_names_the_file(tmp_path, case):
    path = tmp_path / "f.json"
    write_features({"a": np.ones(1)}, path)
    header, piece = path.read_text().splitlines()
    assert piece == '"AAAAAAAA8D8="'
    path.write_text(f"{header}\n{json.dumps(BASE64_CASES[case])}\n")
    with pytest.raises(FormatVersionMismatch, match=re.escape(str(path))) as err:
        read_features(path)
    # refused by the base64 decoder, not by a later size check
    cause = err.value.__cause__
    assert type(cause) is binascii.Error or "ASCII" in str(cause)


def feature_lines(rows=2 * _PIECE // 16 + 1, dim=2):
    """The lines of a valid store of rows x dim values: two full pieces and
    a last one of 16 bytes."""
    rng = np.random.default_rng(1)
    return ref_features_text({f"s{i:06d}": rng.standard_normal(dim)
                              for i in range(rows)}).splitlines()


def pieces_of(data: bytes, *sizes):
    """data cut at sizes, each cut base64-encoded as one JSON string line."""
    cuts = np.cumsum([0, *sizes, len(data)])
    return [canonical_json(binascii.b2a_base64(data[a:b], newline=False).decode())
            for a, b in zip(cuts, cuts[1:]) if b > a]


def raw_of(lines) -> bytes:
    return binascii.a2b_base64("".join(map(json.loads, lines[1:])))


def with_value(lines, value):
    raw = bytearray(raw_of(lines))
    raw[-8:] = np.array([value], "<f8").tobytes()
    return [lines[0], *pieces_of(bytes(raw), _PIECE, _PIECE)]


# the lines of a valid three-piece store -> the lines of a malformed one
FEATURE_PIECES = {
    "object_line": lambda ls: [ls[0], '{"data":' + ls[1] + "}", *ls[2:]],
    "number_line": lambda ls: [*ls[:2], "5", *ls[3:]],
    "list_line": lambda ls: [ls[0], "[" + ls[1] + "]", *ls[2:]],
    "short_first_piece": lambda ls: [ls[0], *pieces_of(raw_of(ls), _PIECE - 3)],
    "padded_first_piece": lambda ls: [ls[0], *pieces_of(raw_of(ls), _PIECE - 1,
                                                         _PIECE + 1)],
    "long_first_piece": lambda ls: [ls[0], *pieces_of(raw_of(ls), _PIECE + 3)],
    "one_string": lambda ls: [ls[0], *pieces_of(raw_of(ls))],
    "extra_bytes": lambda ls: [*ls[:3], *pieces_of(raw_of(ls)[-16:] + b"\0" * 8)],
    "missing_last_piece": lambda ls: ls[:3],
    "bytes_short": lambda ls: [*ls[:3], *pieces_of(raw_of(ls)[-16:-8])],
    "empty_last_piece": lambda ls: [*ls, '""'],
    "nan_value": lambda ls: with_value(ls, np.nan),
    "inf_value": lambda ls: with_value(ls, -np.inf),
    "ids_unsorted": lambda ls: [canonical_json(
        {**json.loads(ls[0]), "ids": json.loads(ls[0])["ids"][::-1]}), *ls[1:]],
    "dim_negative": lambda ls: [canonical_json(
        {**json.loads(ls[0]), "dim": -2}), *ls[1:]],
    # more than the address space: refused as the matrix is allocated
    "dim_beyond_memory": lambda ls: [canonical_json(
        {**json.loads(ls[0]), "dim": 2**30}), *ls[1:]],
}


def test_feature_pieces_round_trip_through_the_helpers(tmp_path):
    lines = feature_lines()
    assert len(lines) == 4 and len(json.loads(lines[3])) < len(json.loads(lines[1]))
    assert [lines[0], *pieces_of(raw_of(lines), _PIECE, _PIECE)] == lines
    path = tmp_path / "f.json"
    path.write_text("\n".join(lines) + "\n")
    assert len(read_features(path)[0]) == 2 * _PIECE // 16 + 1


@pytest.mark.parametrize("case", list(FEATURE_PIECES))
def test_malformed_feature_pieces_name_the_file(tmp_path, case):
    path = tmp_path / "f.json"
    path.write_text("\n".join(FEATURE_PIECES[case](feature_lines())) + "\n")
    with pytest.raises(FormatVersionMismatch, match=re.escape(str(path))):
        read_features(path)


def test_a_raw_line_separator_inside_a_string_splits_no_record(tmp_path):
    # the writer escapes U+2028 and U+0085; raw, they stay inside the
    # string, since a line ends only where universal newlines end it
    path = tmp_path / "m.jsonl"
    first, *rest = sample_manifest().entries
    manifest = DatasetManifest("toy", 2, [
        replace(first, sample_id="s1\u2028\x85"), *rest])
    write_manifest(manifest, path)
    text = path.read_text()
    assert "\\u2028\\u0085" in text
    path.write_text(text.replace("\\u2028\\u0085", "\u2028\x85"))
    assert read_manifest(path)[0] == manifest


DEEP = "[" * 100_000


@pytest.mark.parametrize("kind", ["manifest", "features"])
def test_deeply_nested_document_is_a_format_error(tmp_path, kind):
    path = tmp_path / kind
    if kind == "manifest":
        write_manifest(sample_manifest(), path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(DEEP + "\n")
        read = read_manifest
    else:
        path.write_text(f'{{"schema":"{FEATURES_SCHEMA}","ids":{DEEP}')
        read = read_features
    with pytest.raises(FormatVersionMismatch, match=re.escape(str(path))):
        read(path)


def test_label_rows_read_back_bit_for_bit(tmp_path):
    # equal rows are encoded once, but -0.0 == 0.0 and the two encode apart
    rows = [(0.25, 0.75), (0.5, 0.5), (1.0, 0.0), (-0.0, 1.0)]
    entries = [ManifestEntry(f"s{i:03d}", f"id{i % 7}", "real",
                             tuple(list(rows[i % 4])), f"p{i}")
               for i in range(40)]
    path = tmp_path / "m.jsonl"
    write_manifest(DatasetManifest("toy", 2, entries), path)
    manifest, _ = read_manifest(path)
    labels = [e.soft_labels for e in manifest.entries]
    assert labels == [e.soft_labels for e in entries]
    assert manifest.soft_labels.tobytes() == np.array(rows * 10).tobytes()
    assert [math.copysign(1, t[0]) for t in labels[3::4]] == [-1.0] * 10
    assert path.read_text().splitlines()[1:5] == [
        "[0.25,0.75]", "[0.5,0.5]", "[1.0,0.0]", "[-0.0,1.0]"]
    again = tmp_path / "again.jsonl"
    write_manifest(manifest, again)
    assert again.read_bytes() == path.read_bytes()


def test_a_read_manifest_holds_each_id_string_once(tmp_path):
    entries = [ManifestEntry(f"s{i:03d}", f"id{i % 7}", ("real", "synthetic")[i % 7 % 2],
                             (0.5, 0.5), f"s{i:03d}") for i in range(40)]
    path = tmp_path / "m.jsonl"
    write_manifest(DatasetManifest("toy", 2, entries), path)
    manifest, _ = read_manifest(path)
    assert list(manifest.entries) == entries
    assert all(r is s for r, s in zip(manifest.payload_refs, manifest.sample_ids))
    assert len(set(map(id, manifest.identity_ids))) == 7
    assert len(set(map(id, manifest.sources))) == 2
    # payload refs that are not the sample ids are read as written
    entries[-1] = replace(entries[-1], payload_ref="elsewhere")
    write_manifest(DatasetManifest("toy", 2, entries), path)
    manifest, _ = read_manifest(path)
    assert manifest.payload_refs == tuple(e.payload_ref for e in entries)


def test_label_lines_are_checked_in_blocks_past_the_first(tmp_path):
    n = 2 * _LABEL_BLOCK + 3
    entries = [ManifestEntry(f"s{i:05d}", f"id{i % 9}", "real", (0.25, 0.75),
                             f"s{i:05d}") for i in range(n)]
    path = tmp_path / "m.jsonl"
    write_manifest(DatasetManifest("toy", 2, entries), path)
    assert list(read_manifest(path)[0].entries) == entries
    lines = path.read_text().splitlines()
    lines[1 + 2 * _LABEL_BLOCK + 1] = "[[0.25],0.75]"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatVersionMismatch, match=(
            f"label lines {2 * _LABEL_BLOCK} to {n} of {n} are not one flat")):
        read_manifest(path)


def test_a_record_that_fails_mid_stream_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(sample_manifest(), path)
    before = path.read_bytes()
    entries = [ManifestEntry(f"s{i:05d}", f"id{i}", "real", (0.5, 0.5), "p")
               for i in range(5000)]
    entries.append(replace(entries[-1], sample_id=7))
    with pytest.raises(InvalidArgument):
        write_manifest(DatasetManifest("toy", 2, entries), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.jsonl"]
