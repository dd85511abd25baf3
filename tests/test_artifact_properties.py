"""Byte-level mutations and truncations of valid artifacts: every reader
either loads the file or raises a FairkdError, and the CLI commands that
read them exit 0, 1 or 2 (1 or 2 whenever a reader rejects the file),
never with a traceback."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairkd.cli import main
from fairkd.errors import FairkdError
from fairkd.evaluation import (
    GroupProtocol,
    PairProtocol,
    VerificationPair,
    build_report,
)
from fairkd.formats import (
    checkpoint_load,
    checkpoint_save,
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
from fairkd.sampling import DatasetManifest, ManifestEntry
from fairkd.training import Encoder, EncoderSpec, EpochStats, TrainResult

IDS = [f"s{i}" for i in range(8)]


def _protocol():
    def group(name, ids):
        a, b, c, d = ids
        return GroupProtocol(name, [VerificationPair(a, b, True),
                                    VerificationPair(c, d, True),
                                    VerificationPair(a, c, False),
                                    VerificationPair(b, d, False)])
    return PairProtocol([group("g0", IDS[:4]), group("g1", IDS[4:])])


def _manifest():
    return DatasetManifest("toy", 2, [
        ManifestEntry("s1", "ida", "real", (0.8, 0.2), "s1"),
        ManifestEntry("s2", "idb", "synthetic", (0.1, 0.9), "s2"),
    ], shortfalls={"group1": 2})


def _features():
    rng = np.random.Generator(np.random.PCG64(0))
    return {sid: rng.standard_normal(4) for sid in IDS}


# kind -> (file name, writer, reader)
ARTIFACTS = {
    "manifest": ("m.manifest",
                 lambda p: write_manifest(_manifest(), p), read_manifest),
    "protocol": ("protocol.json",
                 lambda p: write_protocol(_protocol(), p), read_protocol),
    "report": ("report.json", lambda p: write_report(
        [build_report((91.0, 92.5), {"model": "m"})], p), read_report),
    "features": ("features.json",
                 lambda p: write_features(_features(), p), read_features),
    "trace": ("trace.json", lambda p: write_trace(
        [EpochStats(epoch=0, lr=0.1, cls_loss=2.5, kd_loss=0.5,
                    total_loss=3.0)], p), read_trace),
    "checkpoint": ("model.ckpt", lambda p: checkpoint_save(TrainResult(
        Encoder(EncoderSpec(4, (3,), 2, "tanh", init_seed=1)), np.ones((2, 2)),
        None, [], None), p, {"config_digest": "abc"}), checkpoint_load),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """kind -> bytes of a valid artifact of that kind."""
    root = tmp_path_factory.mktemp("valid")
    blobs = {}
    for kind, (name, write, _) in ARTIFACTS.items():
        write(root / name)
        blobs[kind] = (root / name).read_bytes()
    return blobs


@pytest.mark.parametrize("kind", list(ARTIFACTS))
def test_valid_artifact_loads(tmp_path, valid, kind):
    # the mutations below start from a file the reader accepts
    name, _, read = ARTIFACTS[kind]
    (tmp_path / name).write_bytes(valid[kind])
    read(tmp_path / name)


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """blob with one to three byte edits, or cut short."""
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob) - 1))]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(blob) - 1))
        byte = bytes([draw(st.integers(0, 255))])
        op = draw(st.sampled_from(("replace", "delete", "insert")))
        tail = blob[i:] if op == "insert" else blob[i + 1:]
        blob = blob[:i] + (b"" if op == "delete" else byte) + tail
    return blob


def _rejects(read, path) -> bool:
    try:
        read(path)
    except FairkdError:
        return True
    return False


SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("kind", list(ARTIFACTS))
@SETTINGS
@given(data=st.data())
def test_mutated_artifact_loads_or_is_a_fairkd_error(tmp_path, valid, kind,
                                                     data):
    name, _, read = ARTIFACTS[kind]
    path = tmp_path / name
    path.write_bytes(data.draw(mutations(valid[kind]), label="bytes"))
    _rejects(read, path)


def _cli_args(kind, root, valid):
    """Valid artifacts under root, and the argv of the command reading kind."""
    paths = {}
    for name_of, (name, _, _) in ARTIFACTS.items():
        paths[name_of] = root / name
        paths[name_of].write_bytes(valid[name_of])
    if kind == "report":
        return paths, ["report", str(paths["report"])]
    return paths, ["eval", "--set", "eval.k=2",
                   "--checkpoint", str(paths["checkpoint"]),
                   "--protocol", str(paths["protocol"]),
                   "--features", str(paths["features"]),
                   "--out", str(root / "out" / "report.json")]


@pytest.mark.parametrize("kind", ["checkpoint", "report"])
def test_cli_accepts_the_valid_artifacts(tmp_path, valid, kind):
    assert main(_cli_args(kind, tmp_path, valid)[1]) == 0


@pytest.mark.parametrize("kind", ["checkpoint", "protocol", "features",
                                  "report"])
@SETTINGS
@given(data=st.data())
def test_cli_on_mutated_artifact_exits_cleanly(tmp_path, valid, kind, data):
    paths, argv = _cli_args(kind, tmp_path, valid)
    paths[kind].write_bytes(data.draw(mutations(valid[kind]), label="bytes"))
    code = main(argv)
    assert code in (0, 1, 2)
    if _rejects(ARTIFACTS[kind][2], paths[kind]):
        assert code in (1, 2)
