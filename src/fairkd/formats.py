"""On-disk formats: manifests, pair protocols, reports, feature stores,
checkpoints and training traces. No compute module imports this one.

Every artifact is UTF-8 JSON with a schema tag, written atomically (temp file
+ rename) and canonically (sorted keys, fixed separators, repr-exact floats),
so identical inputs give byte-identical files, as a stream of pieces (header
keys, base64 pieces of a feature matrix, record lines): no document is ever
one string. Manifests and protocols are a header line, then one record per
line; manifest records come from a template that encodes each label tuple
once, and a read shares equal label rows. write_doc refuses a header clash,
NaN, Infinity or an unencodable value; the destination is then not touched.
read_doc parses a whole document in place or splits it into lines, then
drops the text, so a read peaks at the text plus its values or lines. Each
non-blank line is exactly one JSON value, scanned once by the finite decoder;
read_doc checks the schema and runs the artifact's decoder, so a malformed
file raises FormatVersionMismatch. Decoders take a value only as its JSON
type (_typed), by column for manifest records and feature ids. A report is
rebuilt from its groups, a trace epoch is an EpochStats. Float arrays that
must round-trip bitwise are base64 of their little-endian bytes; a non-finite
one is refused on write and read.
"""

from __future__ import annotations

import binascii
import json
import math
import os
import re
import tempfile
from dataclasses import asdict
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
        dtype = obj["dtype"]
        if dtype not in _ARRAY_DTYPES:
            raise ValueError(f"unsupported array dtype {dtype!r}")
        shape = tuple(obj["shape"])
        raw = binascii.a2b_base64(obj["data"], strict_mode=True)
        arr = np.frombuffer(raw, dtype=np.dtype(dtype).newbyteorder("<"))
        arr = arr.reshape(shape).astype(dtype, copy=True)
        if not np.isfinite(arr).all():
            raise ValueError("array holds non-finite values")
        return arr
    except _DECODE_ERRORS as exc:
        raise FormatVersionMismatch(f"malformed array record: {exc}") from exc


def _typed(value, kind):
    """A decoded JSON value whose type is kind (str, bool, int, float, list
    or dict), or an integer as a float where a float is due; anything else,
    such as a numeric string or a bool for a number, is a TypeError."""
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise TypeError(f"expected a JSON {kind.__name__}, found {value!r}")


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


def read_doc(path, schema: str, decode, lines: bool = False):
    """(decode(header, records), header) of an artifact written by write_doc.

    With lines=True the first non-blank line is the header and each later
    one a record; otherwise the whole file is the header and records is
    empty. records is an iterator, parsed as decode consumes it. A missing
    file raises IoError; anything undecodable, non-finite, of the wrong
    schema or rejected by decode raises FormatVersionMismatch naming path;
    a record's own FairkdError (InvalidManifest) is prefixed with path.
    """
    try:
        text = read_text(path)
        # JSON_DECODER.decode skips JSON whitespace by index, never copying
        # the text, and one value must fill it: one per line, or per file
        docs = (map(JSON_DECODER.decode, filter(str.strip, text.splitlines()))
                if lines else
                iter([JSON_DECODER.decode(text)] if _filled(text) else []))
        del text  # split or parsed: decode runs without the file text
        header = next(docs, None)
        if header is None:
            raise ValueError("empty file")
        if not isinstance(header, dict):
            raise TypeError(f"header must be an object, found "
                            f"{type(header).__name__}")
        if header.get("schema") != schema:
            raise ValueError(f"expected schema {schema!r}, "
                             f"found {header.get('schema')!r}")
        return decode(header, docs), header
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


def _manifest_from_doc(header: dict, records) -> DatasetManifest:
    ids, identities, sources, labels, refs = list(zip(*map(itemgetter(
        "sample_id", "identity_id", "source", "soft_labels", "payload_ref"),
        records))) or [()] * 5
    rows = (map(tuple, labels)
            if set(map(type, chain.from_iterable(labels))) <= {float}
            else [tuple(_typed(p, float) for p in row) for row in labels])
    shared = {}  # one tuple per row value; not with a zero: -0.0 == 0.0
    labels = (r if 0.0 in r else shared.setdefault(r, r) for r in rows)
    return DatasetManifest(
        name=_typed(header.get("name", ""), str),
        group_count=_typed(header.get("group_count", 0), int),
        entries=map(ManifestEntry, _column(ids, str), _column(identities, str),
                    _column(sources, str), labels, _column(refs, str)),
        shortfalls={k: _typed(v, int)
                    for k, v in header.get("shortfalls", {}).items()},
    )


def read_manifest(path) -> tuple[DatasetManifest, dict]:
    return read_doc(path, MANIFEST_SCHEMA, _manifest_from_doc, lines=True)


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


def _protocol_from_doc(header: dict, records) -> PairProtocol:
    """Groups in group_names order, so a name given twice is refused."""
    names = [_typed(name, str) for name in header["group_names"]]
    pairs = {name: [] for name in names}
    for rec in records:
        pairs[_typed(rec["group"], str)].append(VerificationPair(
            _typed(rec["sample_a"], str), _typed(rec["sample_b"], str),
            _typed(rec["same"], bool)))
    return PairProtocol([GroupProtocol(name, pairs[name]) for name in names])


def read_protocol(path) -> tuple[PairProtocol, dict]:
    return read_doc(path, PROTOCOL_SCHEMA, _protocol_from_doc, lines=True)


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


def _report_from_obj(obj: dict) -> EvalReport:
    # the stored summary must be exactly, JSON type included, what is written
    report = EvalReport(
        tuple(_typed(a, float) for a in obj["per_group"]),
        {k: _typed(v, str) for k, v in obj.get("metadata", {}).items()})
    summary = _report_to_obj(report)
    for key in ("average", "std", "ser", "ser_degenerate"):
        if (type(obj[key]), obj[key]) != (type(summary[key]), summary[key]):
            raise ValueError(f"stored {key} {obj[key]!r} is not {summary[key]!r}")
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
    return read_doc(path, REPORT_SCHEMA, lambda doc, _: [
        _report_from_obj(o) for o in _typed(doc["reports"], list)])


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


def _features_from_doc(doc: dict, _) -> dict:
    ids = _column(list(doc["ids"]), str)
    matrix = decode_array(doc["matrix"])
    if matrix.shape != (len(ids), _typed(doc["dim"], int)):
        raise ValueError(f"matrix of shape {matrix.shape} does not hold "
                         f"{len(ids)} vectors of dim {doc['dim']!r}")
    if not all(map(str.__lt__, ids, ids[1:])):
        raise ValueError("feature ids must be unique and sorted")
    return dict(zip(ids, matrix))


def read_features(path) -> tuple[dict, dict]:
    return read_doc(path, FEATURES_SCHEMA, _features_from_doc)


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


def _checkpoint_from_doc(doc: dict, _) -> TrainResult:
    spec = EncoderSpec(**doc["spec"])
    weights = [decode_array(w) for w in doc["weights"]]
    biases = [decode_array(b) for b in doc["biases"]]
    raw_stats = doc.get("norm_stats")
    stats = None if raw_stats is None else NormStats(
        **{k: _typed(v, float) for k, v in raw_stats.items()})
    raw_protos = doc.get("prototypes")
    prototypes = None if raw_protos is None else decode_array(raw_protos)
    raw_rng = doc.get("rng_state")
    rng_state = None if raw_rng is None else _typed(raw_rng, dict)

    # Shapes come from the spec, so a forged spec cannot make the encoder
    # allocate anything before the mismatch is found.
    dims = spec.layer_dims
    expected = list(zip(dims, dims[1:])) + [(d,) for d in dims[1:]]
    loaded = [w.shape for w in weights] + [b.shape for b in biases]
    if expected != loaded:
        raise ValueError(f"parameter shapes {loaded} do not match spec {expected}")
    encoder = Encoder(spec)
    encoder.weights = weights
    encoder.biases = biases
    # The trace is its own artifact (write_trace), so a loaded model has none.
    return TrainResult(encoder, prototypes, stats, [], rng_state)


def checkpoint_load(path) -> tuple[TrainResult, dict]:
    """(model, header) of a checkpoint written by checkpoint_save.

    Every malformed document, including non-finite parameters or norm
    statistics, raises FormatVersionMismatch.
    """
    return read_doc(path, CHECKPOINT_SCHEMA, _checkpoint_from_doc)


# ---------------------------------------------------------------------------
# training traces: per-epoch loss/lr records, one document per run


def write_trace(epochs, path, extra_header: dict | None = None) -> None:
    """epochs is a TrainResult's trace: a list of EpochStats."""
    epochs = [asdict(e) for e in _list_of(epochs, EpochStats, path)]
    write_doc(path, TRACE_SCHEMA, {"epochs": epochs}, extra_header)


def read_trace(path) -> tuple[list[EpochStats], dict]:
    return read_doc(path, TRACE_SCHEMA, lambda doc, _: [
        EpochStats(**e) for e in _typed(doc["epochs"], list)])
