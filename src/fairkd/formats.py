"""On-disk formats: manifests, pair protocols, reports, feature stores,
checkpoints and training traces. No compute module imports this one.

Every artifact is UTF-8 JSON with a schema tag, written atomically (temp file
+ rename) and canonically (sorted keys, fixed separators, repr-exact floats)
as a stream of pieces, a header list _BLOCK items a piece. A line artifact
is a header line, then a protocol's pair records, a manifest's (manifest/2)
soft labels, one array a line, or a feature store's (features/3) matrix, as
base64 of _PIECE little-endian bytes a line; the ids are header columns. A
manifest/1 or features/2 file is not read: synth-gen rebuilds it. read_doc
streams a line artifact from the open file and parses a document in place.
Each decoded object holds exactly the keys its writer writes (_fields): a
header is open to stamps (config_digest), all below it is closed, and nothing
has a default. Values are taken only as their JSON type (_typed), null only
where None is written; anything else, NaN and Infinity included, is
FormatVersionMismatch naming the file, and write_doc refuses them first.
"""

from __future__ import annotations

import binascii
import json
import math
import os
import tempfile
from dataclasses import asdict, fields
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .core import FeatureStore, feature_rows
from .errors import FairkdError, FormatVersionMismatch, InvalidArgument, IoError
from .evaluation import EvalReport, GroupProtocol, PairProtocol, VerificationPair
from .losses import NormStats
from .sampling import DatasetManifest
from .training import Encoder, EncoderSpec, EpochStats, TrainResult

MANIFEST_SCHEMA = "fairkd/manifest/2"
PROTOCOL_SCHEMA = "fairkd/protocol/1"
REPORT_SCHEMA = "fairkd/report/1"
FEATURES_SCHEMA = "fairkd/features/3"
CHECKPOINT_SCHEMA = "fairkd/checkpoint/1"
TRACE_SCHEMA = "fairkd/trace/1"

_ARRAY_DTYPES = ("float64", "int64")
# What a decoder raises on a document of the wrong shape or type.
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError,
                  RecursionError, MemoryError)
# Raw bytes per base64 piece: a multiple of 3, so the pieces join unpadded.
_PIECE = 3 << 16
# Header list items, or manifest label lines, encoded or decoded per call.
_BLOCK = 4096
_MANIFEST_KEYS = ("name", "group_count", "shortfalls", "sample_ids",
                  "identity_ids", "sources", "payload_refs")


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


def _base64_pieces(arr: np.ndarray):
    """The base64 of arr's little-endian bytes, _PIECE raw bytes a piece,
    each made as it is read."""
    raw = np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")).ravel().view(np.uint8)
    return (binascii.b2a_base64(raw[i:i + _PIECE], newline=False).decode()
            for i in range(0, raw.size, _PIECE))


def encode_array(arr: np.ndarray) -> dict:
    """Bit-exact array snapshot: dtype, shape, base64 little-endian bytes."""
    arr = np.asarray(arr)
    if arr.dtype.name not in _ARRAY_DTYPES:
        raise InvalidArgument(f"unsupported array dtype {arr.dtype.name}")
    return {"dtype": arr.dtype.name, "shape": list(arr.shape),
            "data": "".join(_base64_pieces(arr))}


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
# Without hooks, floats are parsed in C; its callers refuse non-finite values.
_PLAIN_DECODER = json.JSONDecoder()


def write_doc(path, schema: str, body: dict, extra_header: dict | None = None,
              records=()) -> None:
    """Write {"schema": schema, **body, **extra_header} as one canonical JSON
    line, then records, each already one encoded line, atomically, as a
    stream of pieces.

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
        header = list(_header_pieces({**header, **extra}))  # before path is touched
        atomic_write_text(path, chain(header, lines, "\n"))
    except (TypeError, ValueError) as exc:  # json refuses NaN, Infinity or the type
        raise InvalidArgument(f"cannot write {path}: {exc}") from exc


def _header_pieces(header: dict):
    """canonical_json(header), key by key, a list or tuple value _BLOCK items
    a piece: no piece holds the encoding of a whole id column."""
    for k, key in enumerate(sorted(header)):
        value = header[key]
        yield ("," if k else "{") + canonical_json(key) + ":"
        if not isinstance(value, list | tuple):
            yield canonical_json(value)
            continue
        for at in range(0, len(value), _BLOCK):
            yield ("," if at else "[") + canonical_json(value[at:at + _BLOCK])[1:-1]
        yield "]" if value else "[]"
    yield "}"


def read_doc(path, schema: str, keys, decode, lines: bool = False):
    """(decode(*values), header) of an artifact written by write_doc: values
    are the header's at keys (it is open: other keys pass through), then, with
    lines=True, an iterator over the later non-blank lines, stripped, read
    from the open file as decode consumes it; a line is what universal
    newlines make it. A missing file raises IoError; anything undecodable,
    non-finite, of the wrong schema or rejected by decode raises
    FormatVersionMismatch naming path; a record's own FairkdError
    (InvalidManifest) is prefixed with path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            # a whole document is parsed in place, its text dropped once parsed
            rest = filter(None, map(str.strip, fh))
            header = JSON_DECODER.decode(next(rest, "") if lines else fh.read())
            if _fields(header, ("schema",), closed=False) != [schema]:
                raise ValueError(f"expected schema {schema!r}, found {header['schema']!r}")
            values = _fields(header, keys, closed=False)
            return decode(*values, rest) if lines else decode(*values), header
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except _DECODE_ERRORS as exc:
        raise FormatVersionMismatch(f"{path}: {exc}") from exc
    except FairkdError as exc:  # FormatVersionMismatch from decode_array too
        raise type(exc)(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# manifests: one header line with the id columns, then each entry's soft
# labels, one JSON array a line


def write_manifest(manifest: DatasetManifest, path,
                   extra_header: dict | None = None) -> None:
    columns = (manifest.sample_ids, manifest.identity_ids, manifest.sources,
               manifest.payload_refs)
    if any(set(map(type, column)) - {str} for column in columns):
        raise InvalidArgument(f"cannot write {path}: manifest ids must be strings")
    write_doc(path, MANIFEST_SCHEMA, dict(zip(_MANIFEST_KEYS, (
        manifest.name, manifest.group_count, dict(manifest.shortfalls), *columns))),
        extra_header, _label_lines(manifest.soft_labels))


def _label_lines(labels: np.ndarray):
    """Each row of labels as a JSON array of repr-exact floats, encoded once
    per bit pattern: -0.0 == 0.0, but the two encode apart."""
    texts = {}
    for row in labels:
        if (key := row.tobytes()) not in texts:
            texts[key] = f"[{','.join(map(repr, row.tolist()))}]"
        yield texts[key]


def _label_matrix(lines, n: int, g: int) -> np.ndarray:
    """The (n, g) matrix of n label lines, each a flat JSON array of g
    floats, decoded _BLOCK lines a call by the hookless C decoder: with every
    line opening with "[" and one "[" and one "]" a line besides the block's
    own, no line holds a nested, a second or a part of an array."""
    labels = np.empty((n, g))
    for at in range(0, n, _BLOCK):
        k = min(_BLOCK, n - at)
        text = "[\n" + ",\n".join(islice(lines, k)) + "]"
        if not k == text.count("\n[") == text.count("[") - 1 == text.count("]") - 1:
            raise ValueError(f"label lines {at} to {at + k} of {n} are not "
                             "one flat array a line")
        rows = _PLAIN_DECODER.decode(text)
        if len(rows) != k or set(map(len, rows)) - {g} or set(
                map(type, chain.from_iterable(rows))) - {float}:
            raise ValueError(f"label lines {at} to {at + k} are not arrays "
                             f"of {g} floats")
        labels[at:at + k] = rows
    if next(lines, None) is not None:
        raise ValueError(f"more label lines than the {n} entries")
    if not np.isfinite(labels).all():
        raise ValueError("soft labels hold non-finite values")
    return labels


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


def _manifest_from_doc(name, group_count, shortfalls, sample_ids, identity_ids,
                       sources, payload_refs, lines) -> DatasetManifest:
    columns = [_column(_typed(c, list), str)
               for c in (sample_ids, identity_ids, sources, payload_refs)]
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"id columns of {[len(c) for c in columns]} entries")
    g = _typed(group_count, int)
    return DatasetManifest.from_columns(
        _typed(name, str), g, *columns, _label_matrix(lines, len(columns[0]), g),
        {k: _typed(v, int) for k, v in shortfalls.items()})


def read_manifest(path) -> tuple[DatasetManifest, dict]:
    return read_doc(path, MANIFEST_SCHEMA, _MANIFEST_KEYS, _manifest_from_doc,
                    lines=True)


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
    groups, *pair_fields = _columns(map(JSON_DECODER.decode, records), {
        "group": str, "sample_a": str, "sample_b": str, "same": bool})
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
# feature stores: sample_id -> float64 vector, bit-exact, as sorted ids, then
# the (N, dim) matrix's bytes as base64, one _PIECE-byte piece a line


def write_features(features, path, extra_header: dict | None = None) -> None:
    for k in features:
        if not isinstance(k, str):
            raise InvalidArgument(f"feature ids must be strings, got {k!r}")
    ids = sorted(features)
    matrix = feature_rows(features, ids)
    write_doc(path, FEATURES_SCHEMA, {"ids": ids, "dim": matrix.shape[1]},
              extra_header, records=(f'"{p}"' for p in _base64_pieces(matrix)))


def _features_from_doc(ids, dim, pieces) -> FeatureStore:
    """A preallocated matrix, filled piece by piece: each is a JSON string
    of strict base64, and all but the last hold exactly _PIECE bytes."""
    ids = _column(_typed(ids, list), str)
    if not all(map(str.__lt__, ids, ids[1:])):
        raise ValueError("feature ids must be unique and sorted")
    matrix = np.empty((len(ids), _typed(dim, int)), "<f8")
    flat, at = matrix.reshape(-1).view(np.uint8), 0
    for piece in map(JSON_DECODER.decode, pieces):
        raw = binascii.a2b_base64(_typed(piece, str), strict_mode=True)
        if at % _PIECE or not 0 < len(raw) <= min(_PIECE, flat.size - at):
            raise ValueError(f"a piece of {len(raw)} bytes at byte {at} of {flat.size}")
        flat[at:at + len(raw)] = np.frombuffer(raw, np.uint8)
        at += len(raw)
    if at != flat.size:
        raise ValueError(f"{at} bytes for {len(ids)} vectors of dim {dim}")
    if not np.isfinite(matrix).all():
        raise ValueError("feature matrix holds non-finite values")
    return FeatureStore(ids, matrix.astype(np.float64, copy=False))


def read_features(path) -> tuple[FeatureStore, dict]:
    return read_doc(path, FEATURES_SCHEMA, ("ids", "dim"), _features_from_doc,
                    lines=True)


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
