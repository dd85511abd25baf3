"""On-disk formats: manifests, pair protocols, reports, feature stores,
checkpoints and training traces. No compute module imports this one.

Every artifact is UTF-8 JSON with a schema tag, written atomically (temp file
+ rename) and canonically (sorted keys, fixed separators, repr-exact floats)
as a stream of pieces; manifests and protocols are a header line, then one
record per line. write_doc refuses a header clash, NaN, Infinity or an
unencodable value before the destination is touched; read_doc parses the text
in place or by line, then drops it. Each decoded object holds exactly the keys
its writer writes (_fields): a header is open to stamps (config_digest), all
below it (records, arrays, spec, norm stats, reports, epochs) is closed, and
nothing has a default. Values are taken only as their JSON type (_typed), by
column for line records, null only where None is written; anything else is
FormatVersionMismatch naming the file. Float arrays round-trip bitwise as
base64 of little-endian bytes; a non-finite one is refused both ways.
"""

from __future__ import annotations

import binascii
import json
import math
import os
import re
import tempfile
from dataclasses import asdict, fields
from itertools import chain
from operator import itemgetter

import numpy as np

from .core import feature_rows
from .errors import FairkdError, FormatVersionMismatch, InvalidArgument, IoError
from .evaluation import EvalReport, GroupProtocol, PairProtocol, VerificationPair
from .losses import NormStats
from .sampling import DatasetManifest, ManifestEntry
from .training import Encoder, EncoderSpec, EpochStats, TrainResult

MANIFEST_SCHEMA = "fairkd/manifest/1"
PROTOCOL_SCHEMA = "fairkd/protocol/1"
REPORT_SCHEMA = "fairkd/report/1"
FEATURES_SCHEMA = "fairkd/features/2"
CHECKPOINT_SCHEMA = "fairkd/checkpoint/1"
TRACE_SCHEMA = "fairkd/trace/1"

_ARRAY_DTYPES = ("float64", "int64")
# What a decoder raises on a document of the wrong shape or type.
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError,
                  RecursionError)
# Raw bytes per base64 piece: a multiple of 3, so the pieces join unpadded.
_PIECE = 3 << 16
# Whether str.strip would leave anything of a text, found without a copy.
_filled = re.compile(r"\S").search


# Deterministic single-line JSON, NaN/Inf refused, from one prebuilt encoder.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  allow_nan=False).encode


def atomic_write_text(path, pieces) -> None:
    """Write str pieces in turn to path via a same-directory temp file + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                   suffix=os.path.basename(path))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _array_record(arr) -> dict:
    """encode_array's record with its data an iterator of str pieces, the
    base64 of _PIECE raw bytes each, made as it is read."""
    arr = np.asarray(arr)
    if arr.dtype.name not in _ARRAY_DTYPES:
        raise InvalidArgument(f"unsupported array dtype {arr.dtype.name}")
    raw = np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")).ravel().view(np.uint8)
    return {"dtype": arr.dtype.name, "shape": list(arr.shape),
            "data": (binascii.b2a_base64(raw[i:i + _PIECE], newline=False).decode()
                     for i in range(0, raw.size, _PIECE))}


def encode_array(arr: np.ndarray) -> dict:
    """Bit-exact array snapshot: dtype, shape, base64 little-endian bytes."""
    record = _array_record(arr)
    return {**record, "data": "".join(record["data"])}


def _array_pieces(arr: np.ndarray):
    """canonical_json(encode_array(arr)) as an iterator of pieces; "data"
    sorts first, so the pieces of its value come before the other keys."""
    record = _array_record(arr)
    data = record.pop("data")
    return chain(['{"data":"'], data, ['",', canonical_json(record)[1:]])


def _doc_pieces(doc: dict):
    """canonical_json(doc) as an iterator of pieces, key by key in sorted
    order; values are encoded now, so json refuses one before a byte is
    written, but a top-level ndarray's encode_array record is streamed."""
    parts = [["{"]]
    for i, key in enumerate(sorted(doc)):
        value = doc[key]
        parts += [[f'{"," if i else ""}{canonical_json(key)}:'],
                  _array_pieces(value) if isinstance(value, np.ndarray)
                  else [canonical_json(value)]]
    return chain.from_iterable([*parts, ["}"]])


def _encode_finite(arr: np.ndarray) -> dict:
    """encode_array of an array that decode_array accepts: one that holds
    NaN or Inf is InvalidArgument."""
    if not np.isfinite(arr).all():
        raise InvalidArgument("array holds non-finite values")
    return encode_array(arr)


def decode_array(obj) -> np.ndarray:
    """Inverse of encode_array; any malformed record, or a float array that
    holds NaN or Inf, is FormatVersionMismatch."""
    try:
        dtype, shape, data = _fields(obj, ("dtype", "shape", "data"))
        if dtype not in _ARRAY_DTYPES:
            raise ValueError(f"unsupported array dtype {dtype!r}")
        raw = binascii.a2b_base64(data, strict_mode=True)
        arr = np.frombuffer(raw, dtype=np.dtype(dtype).newbyteorder("<"))
        arr = arr.reshape(tuple(shape)).astype(dtype, copy=True)
        if not np.isfinite(arr).all():
            raise ValueError("array holds non-finite values")
        return arr
    except _DECODE_ERRORS as exc:
        raise FormatVersionMismatch(f"malformed array record: {exc}") from exc


def _typed(value, kind):
    """A decoded JSON value of type kind, or an int as a float where a float
    is due; anything else (a numeric string, a bool for a number) is a TypeError."""
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise TypeError(f"expected a JSON {kind.__name__}, found {value!r}")


def _fields(obj, keys, closed=True) -> list:
    """[obj[k] for k in keys] of a decoded JSON object that holds every key
    and, if closed, no other; anything else is a TypeError or ValueError."""
    if type(obj) is not dict:
        raise TypeError(f"expected a JSON object, found {obj!r:.80}")
    missing, unknown = set(keys) - obj.keys(), obj.keys() - set(keys)
    if missing or closed and unknown:
        raise ValueError(f"missing keys {sorted(missing)}" if missing
                         else f"unknown keys {sorted(unknown)}")
    return [obj[k] for k in keys]


def _record(cls, obj):
    """cls built from a closed JSON object that holds exactly its fields."""
    return cls(*_fields(obj, [f.name for f in fields(cls)]))


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value!r}")
    return number


# One decoder for every read: json.loads with hooks would build one per call.
JSON_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def write_doc(path, schema: str, body: dict, extra_header: dict | None = None,
              records=()) -> None:
    """Write {"schema": schema, **body, **extra_header} as one canonical JSON
    line (an ndarray value as its encode_array record), then records, each
    already one encoded line, atomically, as a stream of pieces.

    extra_header may not shadow a structural key, and no value may be NaN,
    Inf or of a type json refuses (InvalidArgument, and path is not touched).
    """
    header = {"schema": schema, **body}
    extra = dict(extra_header or {})
    clash = set(extra) & set(header)
    if clash:
        raise InvalidArgument(
            f"extra header keys collide with structural keys: {clash}")
    lines = ("\n" + record for record in records)  # one write call per line
    try:
        atomic_write_text(path, chain(_doc_pieces({**header, **extra}),
                                      lines, "\n"))
    except (TypeError, ValueError) as exc:  # json refuses NaN, Infinity or the type
        raise InvalidArgument(f"cannot write {path}: {exc}") from exc


def read_doc(path, schema: str, keys, decode, lines: bool = False):
    """(decode(*values), header) of an artifact written by write_doc: values
    are the header's at keys (it is open: other keys pass through), then, with
    lines=True, an iterator over the records on the later non-blank lines,
    parsed as decode consumes it. A missing file raises IoError; anything
    undecodable, non-finite, of the wrong schema or rejected by decode raises
    FormatVersionMismatch naming path; a record's own FairkdError
    (InvalidManifest) is prefixed with path.
    """
    try:
        text = read_text(path)
        # decode skips whitespace by index, never copying; one value per line or file
        docs = (map(JSON_DECODER.decode, filter(str.strip, text.splitlines()))
                if lines else
                iter([JSON_DECODER.decode(text)] if _filled(text) else []))
        del text  # split or parsed: decode runs without the file text
        if (header := next(docs, None)) is None:
            raise ValueError("empty file")
        if _fields(header, ("schema",), closed=False) != [schema]:
            raise ValueError(f"expected schema {schema!r}, found {header['schema']!r}")
        values = _fields(header, keys, closed=False)
        return decode(*values, docs) if lines else decode(*values), header
    except _DECODE_ERRORS as exc:
        raise FormatVersionMismatch(f"{path}: {exc}") from exc
    except IoError:
        raise  # read_text names the file
    except FairkdError as exc:  # FormatVersionMismatch from decode_array too
        raise type(exc)(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# manifests: one header line, then one JSON object per image entry


def write_manifest(manifest: DatasetManifest, path,
                   extra_header: dict | None = None) -> None:
    write_doc(path, MANIFEST_SCHEMA, {
        "name": manifest.name,
        "group_count": manifest.group_count,
        "shortfalls": dict(manifest.shortfalls),
    }, extra_header, records=_entry_lines(manifest.entries))


def _entry_lines(entries):
    """Each entry's canonical_json line, from a template; each label sequence
    is encoded once, keyed by object: (1, 0.0) == (1.0, 0.0) encode apart."""
    text, labels = json.encoder.encode_basestring_ascii, {}
    for e in entries:
        if (key := id(e.soft_labels)) not in labels:
            labels[key] = canonical_json(list(e.soft_labels))
        yield (f'{{"identity_id":{text(e.identity_id)},"payload_ref":'
               f'{text(e.payload_ref)},"sample_id":{text(e.sample_id)},'
               f'"soft_labels":{labels[key]},"source":{text(e.source)}}}')


def _column(values, kind):
    """[_typed(v, kind) for v in values], in one type scan if all are kind."""
    if set(map(type, values)) <= {kind}:
        return values
    return [_typed(v, kind) for v in values]


def _columns(records, kinds: dict) -> list:
    """The records' columns, _column-typed; each record holds exactly kinds' keys."""
    get = itemgetter(*kinds)
    rows = ((len(r), *get(r)) for r in records)  # sizes ride along: no record is kept
    sizes, *columns = list(zip(*rows)) or [()] * (1 + len(kinds))
    if set(sizes) - {len(kinds)}:
        raise ValueError(f"a record holds keys other than {list(kinds)}")
    return list(map(_column, columns, kinds.values()))


def _manifest_from_doc(name, group_count, shortfalls, records) -> DatasetManifest:
    ids, identities, sources, labels, refs = _columns(records, {
        "sample_id": str, "identity_id": str, "source": str,
        "soft_labels": list, "payload_ref": str})
    rows = (map(tuple, labels)
            if set(map(type, chain.from_iterable(labels))) <= {float}
            else [tuple(_typed(p, float) for p in row) for row in labels])
    shared = {}  # one tuple per row value; not with a zero: -0.0 == 0.0
    labels = (r if 0.0 in r else shared.setdefault(r, r) for r in rows)
    return DatasetManifest(
        name=_typed(name, str), group_count=_typed(group_count, int),
        entries=map(ManifestEntry, ids, identities, sources, labels, refs),
        shortfalls={k: _typed(v, int) for k, v in shortfalls.items()})


def read_manifest(path) -> tuple[DatasetManifest, dict]:
    return read_doc(path, MANIFEST_SCHEMA, ("name", "group_count", "shortfalls"),
                    _manifest_from_doc, lines=True)


# ---------------------------------------------------------------------------
# pair protocols: header line with group names, then one record per pair


def write_protocol(protocol: PairProtocol, path,
                   extra_header: dict | None = None) -> None:
    write_doc(path, PROTOCOL_SCHEMA, {
        "group_names": [g.name for g in protocol.groups],
    }, extra_header, records=map(canonical_json, ({
        "group": g.name,
        "sample_a": p.sample_a,
        "sample_b": p.sample_b,
        "same": p.same,
    } for g in protocol.groups for p in g.pairs)))


def _protocol_from_doc(group_names, records) -> PairProtocol:
    """Groups in group_names order, so a name given twice is refused."""
    names = _column(_typed(group_names, list), str)
    pairs = {name: [] for name in names}
    groups, *pair_fields = _columns(records, {"group": str, "sample_a": str,
                                              "sample_b": str, "same": bool})
    for group, pair in zip(groups, map(VerificationPair, *pair_fields)):
        pairs[group].append(pair)
    return PairProtocol([GroupProtocol(name, pairs[name]) for name in names])


def read_protocol(path) -> tuple[PairProtocol, dict]:
    return read_doc(path, PROTOCOL_SCHEMA, ("group_names",), _protocol_from_doc,
                    lines=True)


# ---------------------------------------------------------------------------
# evaluation reports: one structured document


def _report_to_obj(report: EvalReport) -> dict:
    return {
        "per_group": list(report.per_group),
        "average": report.average,
        "std": report.std,
        # JSON has no Infinity; the flag carries the degenerate case.
        "ser": None if report.ser_degenerate else report.ser,
        "ser_degenerate": report.ser_degenerate,
        "metadata": dict(report.metadata),
    }


def _report_from_obj(obj) -> EvalReport:
    # the stored object must be exactly, JSON types included, what is written
    per_group, metadata = _fields(obj, ("per_group", "metadata"), closed=False)
    report = EvalReport(tuple(_typed(a, float) for a in per_group),
                        {k: _typed(v, str) for k, v in metadata.items()})
    written = _report_to_obj(report)
    for key, value in zip(written, _fields(obj, tuple(written))):
        if (type(value), value) != (type(written[key]), written[key]):
            raise ValueError(f"stored {key} {value!r} is not {written[key]!r}")
    return report


def _list_of(values, cls, path) -> list:
    """values if it is a list of cls, as a reader returns; else InvalidArgument."""
    if type(values) is not list or not all(isinstance(v, cls) for v in values):
        raise InvalidArgument(f"cannot write {path}: expected a list of "
                              f"{cls.__name__}, got {values!r:.80}")
    return values


def write_report(reports, path, extra_header: dict | None = None) -> None:
    reports = [_report_to_obj(r) for r in _list_of(reports, EvalReport, path)]
    write_doc(path, REPORT_SCHEMA, {"reports": reports}, extra_header)


def read_report(path) -> tuple[list[EvalReport], dict]:
    return read_doc(path, REPORT_SCHEMA, ("reports",), lambda reports: [
        _report_from_obj(o) for o in _typed(reports, list)])


# ---------------------------------------------------------------------------
# feature stores: sample_id -> float64 vector, bit-exact, as sorted ids plus
# one (N, dim) matrix


def write_features(features: dict, path,
                   extra_header: dict | None = None) -> None:
    for k in features:
        if not isinstance(k, str):
            raise InvalidArgument(f"feature ids must be strings, got {k!r}")
    ids = sorted(features)
    matrix = feature_rows(features, ids) if ids else np.zeros((0, 0))
    write_doc(path, FEATURES_SCHEMA, {
        "ids": ids,
        "dim": matrix.shape[1],
        "matrix": matrix,
    }, extra_header)


def _features_from_doc(ids, dim, matrix) -> dict:
    ids = _column(_typed(ids, list), str)
    matrix = decode_array(matrix)
    if matrix.shape != (len(ids), _typed(dim, int)):
        raise ValueError(f"matrix of shape {matrix.shape} does not hold "
                         f"{len(ids)} vectors of dim {dim!r}")
    if not all(map(str.__lt__, ids, ids[1:])):
        raise ValueError("feature ids must be unique and sorted")
    return dict(zip(ids, matrix))


def read_features(path) -> tuple[dict, dict]:
    return read_doc(path, FEATURES_SCHEMA, ("ids", "dim", "matrix"), _features_from_doc)


# ---------------------------------------------------------------------------
# checkpoints: an encoder's spec and parameters, bit-exact, plus the head state


def checkpoint_save(result: TrainResult, path,
                    extra_header: dict | None = None) -> None:
    """Bit-exact snapshot of a trained model, written atomically."""
    if not isinstance(result.rng_state, dict | None):
        raise InvalidArgument(f"cannot write {path}: rng_state must be None "
                              f"or a dict, got {result.rng_state!r:.80}")
    write_doc(path, CHECKPOINT_SCHEMA, {
        "spec": asdict(result.encoder.spec),
        "weights": [_encode_finite(w) for w in result.encoder.weights],
        "biases": [_encode_finite(b) for b in result.encoder.biases],
        "prototypes": (None if result.prototypes is None
                       else _encode_finite(result.prototypes)),
        "norm_stats": None if result.stats is None else asdict(result.stats),
        "rng_state": result.rng_state,
    }, extra_header)


def _checkpoint_from_doc(spec, weights, biases, prototypes, norm_stats,
                         rng_state) -> TrainResult:
    spec = _record(EncoderSpec, spec)
    weights, biases = [list(map(decode_array, a)) for a in (weights, biases)]
    stats = None if norm_stats is None else NormStats(*(
        _typed(v, float) for v in _fields(norm_stats, ("mean_norm", "std_norm"))))
    prototypes = None if prototypes is None else decode_array(prototypes)
    rng_state = None if rng_state is None else _typed(rng_state, dict)

    # Shapes come from the spec: a forged one allocates nothing before the mismatch.
    dims = spec.layer_dims
    expected = list(zip(dims, dims[1:])) + [(d,) for d in dims[1:]]
    loaded = [w.shape for w in weights] + [b.shape for b in biases]
    if expected != loaded:
        raise ValueError(f"parameter shapes {loaded} do not match spec {expected}")
    encoder = Encoder(spec)
    encoder.weights, encoder.biases = weights, biases
    # The trace is its own artifact (write_trace), so a loaded model has none.
    return TrainResult(encoder, prototypes, stats, [], rng_state)


def checkpoint_load(path) -> tuple[TrainResult, dict]:
    """(model, header) of a checkpoint written by checkpoint_save."""
    return read_doc(path, CHECKPOINT_SCHEMA, ("spec", "weights", "biases",
                    "prototypes", "norm_stats", "rng_state"), _checkpoint_from_doc)


# ---------------------------------------------------------------------------
# training traces: per-epoch loss/lr records, one document per run


def write_trace(epochs, path, extra_header: dict | None = None) -> None:
    """epochs is a TrainResult's trace: a list of EpochStats."""
    epochs = [asdict(e) for e in _list_of(epochs, EpochStats, path)]
    write_doc(path, TRACE_SCHEMA, {"epochs": epochs}, extra_header)


def read_trace(path) -> tuple[list[EpochStats], dict]:
    return read_doc(path, TRACE_SCHEMA, ("epochs",), lambda epochs: [
        _record(EpochStats, e) for e in _typed(epochs, list)])
