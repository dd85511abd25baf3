"""On-disk formats: manifests, pair protocols, reports, and feature stores.

All artifacts are UTF-8 JSON (line-delimited for manifests and protocols,
single-document for the rest) with an explicit schema tag, written atomically
(temp file + rename) so a crashed command never leaves a partial artifact.
Serialization is canonical: sorted keys, fixed separators, and repr-exact
floats, so identical inputs produce byte-identical files.

Every artifact goes through one codec: write_doc merges the header, checks
it for collisions and writes canonically; read_doc parses, rejects NaN and
Infinity, checks the schema and runs the artifact's decoder, so that any
malformed or non-finite file raises FormatVersionMismatch.

Float arrays that must round-trip bitwise (features, checkpoints) are stored
as base64 of their little-endian raw bytes rather than decimal text.
"""

from __future__ import annotations

import base64
import json
import math
import os
import tempfile

import numpy as np

from .errors import FormatVersionMismatch, InvalidArgument, IoError
from .evaluation import EvalReport, GroupProtocol, PairProtocol, VerificationPair
from .sampling import DatasetManifest, ManifestEntry

MANIFEST_SCHEMA = "fairkd/manifest/1"
PROTOCOL_SCHEMA = "fairkd/protocol/1"
REPORT_SCHEMA = "fairkd/report/1"
FEATURES_SCHEMA = "fairkd/features/2"
CHECKPOINT_SCHEMA = "fairkd/checkpoint/1"
TRACE_SCHEMA = "fairkd/trace/1"

_ARRAY_DTYPES = ("float64", "int64")
# What a decoder raises on a document of the wrong shape or type.
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def canonical_json(obj) -> str:
    """Deterministic single-line JSON; rejects NaN/Inf outright."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                   suffix=os.path.basename(path))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
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


def encode_array(arr: np.ndarray) -> dict:
    """Bit-exact array snapshot: dtype, shape, base64 little-endian bytes."""
    arr = np.asarray(arr)
    if arr.dtype.name not in _ARRAY_DTYPES:
        raise InvalidArgument(f"unsupported array dtype {arr.dtype.name}")
    little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return {"dtype": arr.dtype.name,
            "shape": list(arr.shape),
            "data": base64.b64encode(little.tobytes()).decode("ascii")}


def decode_array(obj) -> np.ndarray:
    """Inverse of encode_array; any malformed record is FormatVersionMismatch."""
    try:
        dtype = obj["dtype"]
        if dtype not in _ARRAY_DTYPES:
            raise ValueError(f"unsupported array dtype {dtype!r}")
        shape = tuple(obj["shape"])
        raw = base64.b64decode(obj["data"], validate=True)
        arr = np.frombuffer(raw, dtype=np.dtype(dtype).newbyteorder("<"))
        return arr.reshape(shape).astype(dtype, copy=True)
    except _DECODE_ERRORS as exc:
        raise FormatVersionMismatch(f"malformed array record: {exc}") from exc


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, found {type(value).__name__}")
    return value


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
    line, then one line per record, atomically.

    extra_header may not shadow a structural key (InvalidArgument).
    """
    header = {"schema": schema, **body}
    extra = dict(extra_header or {})
    clash = set(extra) & set(header)
    if clash:
        raise InvalidArgument(
            f"extra header keys collide with structural keys: {clash}")
    lines = [canonical_json({**header, **extra})]
    lines.extend(map(canonical_json, records))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_doc(path, schema: str, decode, lines: bool = False):
    """(decode(header, records), header) of an artifact written by write_doc.

    With lines=True the first non-blank line is the header and each later
    one a record; otherwise the whole file is the header and records is
    empty. records is an iterator, parsed as decode consumes it. A missing
    file raises IoError; anything undecodable, non-finite, of the wrong
    schema or rejected by decode raises FormatVersionMismatch.
    """
    try:
        text = read_text(path)
        chunks = text.splitlines() if lines else [text]
        docs = map(JSON_DECODER.decode, filter(str.strip, chunks))
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


# ---------------------------------------------------------------------------
# manifests: one header line, then one JSON object per image entry


def write_manifest(manifest: DatasetManifest, path,
                   extra_header: dict | None = None) -> None:
    write_doc(path, MANIFEST_SCHEMA, {
        "name": manifest.name,
        "group_count": manifest.group_count,
        "shortfalls": dict(manifest.shortfalls),
    }, extra_header, records=({
        "sample_id": e.sample_id,
        "identity_id": e.identity_id,
        "source": e.source,
        "soft_labels": list(e.soft_labels),
        "payload_ref": e.payload_ref,
    } for e in manifest.entries))


def _manifest_from_doc(header: dict, records) -> DatasetManifest:
    return DatasetManifest(
        name=header.get("name", ""),
        group_count=int(header.get("group_count", 0)),
        entries=[ManifestEntry(
            sample_id=_text(rec["sample_id"]),
            identity_id=_text(rec["identity_id"]),
            source=_text(rec["source"]),
            soft_labels=tuple(float(p) for p in rec["soft_labels"]),
            payload_ref=_text(rec["payload_ref"]),
        ) for rec in records],
        shortfalls={str(k): int(v)
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
    }, extra_header, records=({
        "group": g.name,
        "sample_a": p.sample_a,
        "sample_b": p.sample_b,
        "same": p.same,
    } for g in protocol.groups for p in g.pairs))


def _protocol_from_doc(header: dict, records) -> PairProtocol:
    pairs = {_text(name): [] for name in header["group_names"]}
    for rec in records:
        if not isinstance(rec["same"], bool):
            raise TypeError(f"'same' must be a JSON bool, found {rec['same']!r}")
        pairs[_text(rec["group"])].append(VerificationPair(
            _text(rec["sample_a"]), _text(rec["sample_b"]), rec["same"]))
    return PairProtocol([GroupProtocol(name, group_pairs)
                         for name, group_pairs in pairs.items()])


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
    degenerate = bool(obj["ser_degenerate"])
    return EvalReport(
        per_group=tuple(_finite(a) for a in obj["per_group"]),
        average=_finite(obj["average"]),
        std=_finite(obj["std"]),
        ser=float("inf") if degenerate else _finite(obj["ser"]),
        ser_degenerate=degenerate,
        metadata={str(k): str(v) for k, v in obj.get("metadata", {}).items()},
    )


def write_report(reports, path, extra_header: dict | None = None) -> None:
    if isinstance(reports, EvalReport):
        reports = [reports]
    write_doc(path, REPORT_SCHEMA,
              {"reports": [_report_to_obj(r) for r in reports]}, extra_header)


def read_report(path) -> tuple[list[EvalReport], dict]:
    return read_doc(path, REPORT_SCHEMA, lambda doc, _: [
        _report_from_obj(o) for o in doc.get("reports", [])])


# ---------------------------------------------------------------------------
# feature stores: sample_id -> float64 vector, bit-exact, as sorted ids plus
# one (N, dim) matrix


def write_features(features: dict, path,
                   extra_header: dict | None = None) -> None:
    store = {str(k): np.asarray(v, dtype=np.float64)
             for k, v in features.items()}
    ids = sorted(store)
    matrix = np.stack([store[k] for k in ids]) if ids else np.zeros((0, 0))
    if matrix.ndim != 2 or not np.isfinite(matrix).all():
        raise InvalidArgument("features must be finite vectors")
    write_doc(path, FEATURES_SCHEMA, {
        "ids": ids,
        "dim": matrix.shape[1],
        "matrix": encode_array(matrix),
    }, extra_header)


def _features_from_doc(doc: dict, _) -> dict:
    ids = doc["ids"]
    matrix = decode_array(doc["matrix"])
    if matrix.shape != (len(ids), doc["dim"]):
        raise ValueError(f"matrix of shape {matrix.shape} does not hold "
                         f"{len(ids)} vectors of dim {doc['dim']!r}")
    if not np.isfinite(matrix).all():
        raise ValueError("feature store holds non-finite values")
    if sorted(set(ids)) != ids:
        raise ValueError("feature ids must be unique and sorted")
    return dict(zip(ids, matrix))


def read_features(path) -> tuple[dict, dict]:
    return read_doc(path, FEATURES_SCHEMA, _features_from_doc)


# ---------------------------------------------------------------------------
# training traces: per-epoch loss/lr records, one document per run


def write_trace(epochs, path, extra_header: dict | None = None) -> None:
    """epochs is a list of flat dicts (epoch, lr, losses...)."""
    write_doc(path, TRACE_SCHEMA, {"epochs": [dict(e) for e in epochs]},
              extra_header)


def read_trace(path) -> tuple[list[dict], dict]:
    # {**e} rather than dict(e): an epoch must be an object, not a pair list
    return read_doc(path, TRACE_SCHEMA, lambda doc, _: [
        {**e} for e in doc.get("epochs", [])])
