import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairkd
from fairkd.cli import main
from fairkd.config import CONFIG_DIR_ENV, config_digest, load_config
from fairkd.evaluation import build_report
from fairkd.formats import (
    checkpoint_load,
    checkpoint_save,
    decode_array,
    encode_array,
    read_features,
    read_manifest,
    read_protocol,
    read_report,
    read_trace,
    write_report,
)
from fairkd.sampling import manifest_stats
from fairkd.training import Encoder, EncoderSpec, TrainResult

TINY = {
    "universe": {"n_groups": 2, "identities_per_source": 12,
                 "eval_identities": 8, "images_per_identity": 6,
                 "latent_dim": 4, "feature_dim": 10, "seed": 3},
    "teacher": {"input_dim": 10, "hidden_widths": [16], "embedding_dim": 8,
                "init_seed": 1},
    "student": {"input_dim": 10, "hidden_widths": [8], "embedding_dim": 8,
                "init_seed": 2},
    "train": {"epochs": 2, "batch_size": 16, "base_lr": 0.01,
              "lr_milestones": [], "seed": 1},
    "loss": {"margin": {"kind": "arcface", "s": 16.0, "m": 0.3}},
    "eval": {"k": 5, "pairs_per_group": 20},
    "seed": 5,
}


def write_config(root, extra=None):
    doc = json.loads(json.dumps(TINY))
    doc["paths"] = {"manifests": str(root / "m"),
                    "checkpoints": str(root / "c"),
                    "reports": str(root / "r")}
    if extra:
        doc.update(extra)
    path = root / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with generated data and a trained teacher checkpoint."""
    root = tmp_path_factory.mktemp("cli-ws")
    cfg = write_config(root)
    assert main(["synth-gen", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg), "--encoder", "teacher"]) == 0
    return root


def cfg_of(ws):
    return str(ws / "config.json")


# ------------------------------------------------------------- synth-gen


def test_synth_gen_outputs_match_config(ws):
    for name in ("real-train.manifest", "synthetic-train.manifest",
                 "holdout-eval.manifest", "features.json", "protocol.json"):
        assert (ws / "m" / name).exists()
    manifest, header = read_manifest(ws / "m" / "real-train.manifest")
    stats = header["stats"]
    assert stats["total_identities"] == TINY["universe"]["identities_per_source"]
    assert stats["total_images"] == 12 * 6
    assert header["config_digest"] and header["tool_version"]
    protocol, _ = read_protocol(ws / "m" / "protocol.json")
    assert len(protocol.groups) == 2
    assert all(len(g.pairs) == 20 for g in protocol.groups)


def test_synth_gen_is_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["synth-gen", "--config", str(cfg)]) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "m").iterdir()}
    assert main(["synth-gen", "--config", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "m").iterdir()}
    assert first == second


def test_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["synth-gen", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()
    assert not (tmp_path / "runs").exists()


def test_non_utf8_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": 1}\xff')
    assert main(["verify-tables", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_override_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["synth-gen", "--config", str(cfg),
                 "--set", "train.epocs=3"]) == 2
    assert "train.epocs" in capsys.readouterr().err


# ------------------------------------------------------------ merge / mix


def test_merge_with_target_sum_is_concatenation(ws):
    out = ws / "m" / "all-train.manifest"
    assert main(["merge", "--config", cfg_of(ws),
                 str(ws / "m" / "real-train.manifest"),
                 str(ws / "m" / "synthetic-train.manifest"),
                 "--total", "24", "--out", str(out)]) == 0
    merged, header = read_manifest(out)
    real, _ = read_manifest(ws / "m" / "real-train.manifest")
    synth, _ = read_manifest(ws / "m" / "synthetic-train.manifest")
    want = {e.sample_id for e in real.entries} | {e.sample_id for e in synth.entries}
    assert {e.sample_id for e in merged.entries} == want
    assert header["stats"]["total_identities"] == 24
    assert header["config_digest"] and header["tool_version"]


def test_mix_header_reports_fraction_within_tolerance(ws):
    out = ws / "m" / "mix-train.manifest"
    assert main(["mix", "--config", cfg_of(ws),
                 "--real", str(ws / "m" / "real-train.manifest"),
                 "--synthetic", str(ws / "m" / "synthetic-train.manifest"),
                 "--fraction", "0.7", "--total", "12",
                 "--out", str(out)]) == 0
    _, header = read_manifest(out)
    assert abs(header["stats"]["real_identity_fraction"] - 0.7) <= 1 / 12


def test_duplicate_identity_across_inputs_exits_1(ws, capsys):
    path = str(ws / "m" / "real-train.manifest")
    code = main(["merge", "--config", cfg_of(ws), path, path,
                 "--total", "24", "--out", str(ws / "m" / "dup.manifest")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, args", [
    ("merge", ["{m}/real-train.manifest", "--total", "0"]),
    ("mix", ["--real", "{m}/real-train.manifest",
             "--synthetic", "{m}/synthetic-train.manifest",
             "--fraction", "0.5", "--total", "0"]),
    ("mix", ["--real", "{m}/real-train.manifest",
             "--synthetic", "{m}/synthetic-train.manifest",
             "--fraction", "1.5", "--total", "8"]),
], ids=["merge_total_0", "mix_total_0", "mix_fraction_1.5"])
def test_merge_argument_out_of_range_exits_1(ws, tmp_path, capsys,
                                             command, args):
    out = tmp_path / "out.manifest"
    argv = [a.format(m=ws / "m") for a in args]
    assert main([command, "--config", cfg_of(ws), *argv,
                 "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_manifest_exits_1(ws, capsys):
    code = main(["merge", "--config", cfg_of(ws),
                 str(ws / "m" / "absent.manifest"),
                 "--total", "4", "--out", str(ws / "m" / "x.manifest")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_merge_on_a_manifest_header_without_name_exits_1(ws, tmp_path, capsys):
    # such a header once read as a manifest named ""
    header, *records = (ws / "m" / "real-train.manifest").read_text().splitlines()
    bad = tmp_path / "no-name.manifest"
    bad.write_text("\n".join([json.dumps({k: v for k, v in json.loads(header).items()
                                          if k != "name"}), *records]) + "\n")
    out = tmp_path / "out.manifest"
    assert main(["merge", "--config", cfg_of(ws), str(bad), "--total", "8",
                 "--out", str(out)]) == 1
    assert f"error: {bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args, blocked", [
    ("synth-gen", ["--set", "paths.manifests={afile}/sub"], "{afile}/sub"),
    ("merge", ["{m}/real-train.manifest", "--total", "8",
               "--out", "{afile}/x.manifest"], "{afile}/x.manifest"),
    ("report", ["{report}", "--out", "{afile}/x.md"], "{afile}/x.md"),
], ids=["synth_gen", "merge_out", "report_out"])
def test_output_directory_that_cannot_be_made_exits_1(ws, tmp_path, capsys,
                                                      command, args, blocked):
    afile = tmp_path / "afile"
    afile.touch()
    report = tmp_path / "report.json"
    write_report([build_report((91.0, 92.5))], report)
    names = {"afile": afile, "m": ws / "m", "report": report}
    argv = [a.format(**names) for a in args]
    assert main([command, "--config", cfg_of(ws), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and blocked.format(**names) in err
    assert "Traceback" not in err


# --------------------------------------------------------- train / distill


def test_train_on_int_identity_id_exits_1(ws, tmp_path, capsys):
    lines = (ws / "m" / "real-train.manifest").read_text().splitlines()
    header = json.loads(lines[0])
    lines[0] = json.dumps({**header, "identity_ids": [5, *header["identity_ids"][1:]]})
    bad = tmp_path / "int-id.manifest"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["train", "--config", cfg_of(ws), "--manifest", str(bad),
                 "--out", str(tmp_path / "x.ckpt")]) == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_train_on_corrupt_feature_matrix_exits_1(ws, tmp_path, capsys):
    header, *pieces = (ws / "m" / "features.json").read_text().splitlines()
    bad = tmp_path / "features.json"
    bad.write_text("\n".join([header, '"not base64!"', *pieces[1:]]) + "\n")
    assert main(["train", "--config", cfg_of(ws), "--features", str(bad),
                 "--out", str(tmp_path / "x.ckpt")]) == 1
    assert f"error: {bad}" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "distill"])
def test_zero_epochs_writes_empty_trace(ws, tmp_path, capsys, command):
    ckpt, trace = tmp_path / "zero.ckpt", tmp_path / "zero-trace.json"
    assert main([command, "--config", cfg_of(ws),
                 "--set", "train.epochs=0", "--set", "train.lr_milestones=[]",
                 "--out", str(ckpt), "--trace", str(trace)]) == 0
    epochs, _ = read_trace(trace)
    assert epochs == []
    assert ckpt.exists()
    assert "no epochs" in capsys.readouterr().out


def test_trace_lr_column_follows_schedule(ws):
    ckpt = ws / "c" / "sched.ckpt"
    trace = ws / "r" / "sched-trace.json"
    assert main(["train", "--config", cfg_of(ws),
                 "--set", "train.epochs=26",
                 "--set", "train.lr_milestones=[8,14,20,25]",
                 "--set", "train.base_lr=0.1",
                 "--out", str(ckpt), "--trace", str(trace)]) == 0
    epochs, header = read_trace(trace)
    assert len(epochs) == 26
    lr = {e.epoch: e.lr for e in epochs}
    assert lr[0] == 0.1
    assert lr[8] == 0.01
    assert lr[14] == 0.001
    assert lr[20] == 1e-4
    assert lr[25] == 1e-5
    assert header["schema"] == "fairkd/trace/1"
    assert header["config_digest"] and header["tool_version"]


def test_train_is_byte_identical_across_runs(ws):
    paths = []
    for tag in ("rep1", "rep2"):
        ckpt = ws / "c" / f"{tag}.ckpt"
        trace = ws / "r" / f"{tag}.json"
        assert main(["train", "--config", cfg_of(ws),
                     "--out", str(ckpt), "--trace", str(trace)]) == 0
        paths.append((ckpt.read_bytes(), trace.read_bytes()))
    assert paths[0] == paths[1]


def test_distill_with_zero_kd_weight_matches_scratch(ws):
    scratch_trace = ws / "r" / "scratch0.json"
    assert main(["train", "--config", cfg_of(ws),
                 "--out", str(ws / "c" / "scratch0.ckpt"),
                 "--trace", str(scratch_trace)]) == 0
    kd_trace = ws / "r" / "kd0.json"
    kd_ckpt = ws / "c" / "kd0.ckpt"
    assert main(["distill", "--config", cfg_of(ws),
                 "--set", "loss.kd_weight=0",
                 "--teacher", str(ws / "c" / "teacher-scratch.ckpt"),
                 "--manifest", str(ws / "m" / "real-train.manifest"),
                 "--out", str(kd_ckpt), "--trace", str(kd_trace)]) == 0
    scratch_epochs, _ = read_trace(scratch_trace)
    kd_epochs, _ = read_trace(kd_trace)
    assert scratch_epochs == kd_epochs
    scratch_doc = json.loads((ws / "c" / "scratch0.ckpt").read_text())
    kd_doc = json.loads(kd_ckpt.read_text())
    assert scratch_doc["weights"] == kd_doc["weights"]
    assert scratch_doc["biases"] == kd_doc["biases"]
    assert scratch_doc["prototypes"] == kd_doc["prototypes"]


def test_distill_without_teacher_checkpoint_exits_2(ws, capsys):
    code = main(["distill", "--config", cfg_of(ws),
                 "--teacher", str(ws / "c" / "nowhere.ckpt")])
    assert code == 2
    assert "teacher checkpoint not found" in capsys.readouterr().err


def test_diverging_distill_exits_1_with_one_message(ws, tmp_path):
    # At a runaway rate the student blows up in epoch 0. The child process
    # has no warnings-as-errors filter, so a numpy warning would show on
    # its stderr next to the divergence.
    env = dict(os.environ, PYTHONPATH=str(Path(fairkd.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "fairkd", "distill", "--config", cfg_of(ws),
         "--set", "train.base_lr=10", "--out", str(tmp_path / "kd.ckpt")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: training diverged at epoch 0")
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "kd.ckpt").exists()


# ------------------------------------------------------------------ eval


def test_eval_report_is_internally_consistent(ws):
    out = ws / "r" / "teacher-report.json"
    assert main(["eval", "--config", cfg_of(ws),
                 "--checkpoint", str(ws / "c" / "teacher-scratch.ckpt"),
                 "--model", "teacher", "--data", "real",
                 "--out", str(out)]) == 0
    reports, header = read_report(out)
    (report,) = reports
    assert len(report.per_group) == 2
    assert report.average == pytest.approx(float(np.mean(report.per_group)))
    assert report.metadata["model"] == "teacher"
    assert header["config_digest"] and header["tool_version"]


def test_eval_is_byte_identical_across_runs(ws):
    blobs = []
    for tag in ("e1", "e2"):
        out = ws / "r" / f"{tag}.json"
        assert main(["eval", "--config", cfg_of(ws),
                     "--checkpoint", str(ws / "c" / "teacher-scratch.ckpt"),
                     "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


# an artifact's name -> its reader, for every file the pipeline below writes
READERS = {".manifest": read_manifest, "features.json": read_features,
           "protocol.json": read_protocol, ".ckpt": checkpoint_load,
           "-trace.json": read_trace, "report.json": read_report}


def test_synth_gen_computes_the_config_digest_once(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(fairkd.cli, "config_digest",
                        lambda cfg: calls.append(cfg) or config_digest(cfg))
    assert main(["synth-gen", "--config", str(write_config(tmp_path))]) == 0
    assert len(calls) == 1


def test_every_artifact_header_names_its_config_and_version(tmp_path):
    cfg = write_config(tmp_path)
    m = tmp_path / "m"
    commands = [
        ["synth-gen"],
        ["merge", str(m / "real-train.manifest"),
         str(m / "synthetic-train.manifest"), "--total", "24",
         "--out", str(m / "all-train.manifest")],
        ["mix", "--real", str(m / "real-train.manifest"),
         "--synthetic", str(m / "synthetic-train.manifest"),
         "--fraction", "0.5", "--total", "12",
         "--out", str(m / "mix-train.manifest")],
        ["train", "--encoder", "teacher"],
        ["distill"],
        ["eval", "--checkpoint", str(tmp_path / "c" / "student-distilled.ckpt")],
    ]
    for command in commands:
        assert main([*command, "--config", str(cfg)]) == 0
    digest = config_digest(load_config(str(cfg)))
    written = sorted(p for p in tmp_path.rglob("*") if p.is_file()
                     and p != cfg)
    assert len(written) == 12
    for path in written:
        (read,) = [r for suffix, r in READERS.items()
                   if path.name.endswith(suffix)]
        value, header = read(path)
        assert header["config_digest"] == digest, path
        assert header["tool_version"] == fairkd.__version__, path
        if read is read_manifest:
            assert header["stats"] == manifest_stats(value), path
        else:
            assert "stats" not in header, path


def test_eval_on_separable_universe_flags_degenerate_ser(tmp_path):
    # zero noise makes positives score exactly 1.0; a higher latent dim and
    # mild group separation keep all negative cosines well below that
    cfg = write_config(tmp_path, extra={
        "universe": {**TINY["universe"], "noise_scales": [0.0, 0.0],
                     "latent_dim": 8, "group_separation": 1.0}})
    assert main(["synth-gen", "--config", str(cfg)]) == 0
    # an untrained linear encoder keeps zero-noise identities separable
    ckpt = tmp_path / "c" / "linear.ckpt"
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    checkpoint_save(TrainResult(
        Encoder(EncoderSpec(10, (), 8, activation="identity")), None, None, []),
        ckpt)
    out = tmp_path / "r" / "sep.json"
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    reports, _ = read_report(out)
    (report,) = reports
    assert report.per_group == (100.0, 100.0)
    assert report.std == 0.0
    assert report.ser_degenerate
    assert report.ser == float("inf")
    assert '"ser":null' in out.read_text()


def _nan_first_weight(doc):
    weights = [decode_array(w) for w in doc["weights"]]
    weights[0][0, 0] = np.nan
    return {**doc, "weights": [encode_array(w) for w in weights]}


def _with_first_weight(doc, **changes):
    return {**doc, "weights": [{**doc["weights"][0], **changes},
                               *doc["weights"][1:]]}


@pytest.mark.parametrize("corrupt", [
    _nan_first_weight,
    lambda doc: [doc],
    lambda doc: {**doc, "norm_stats": {"mean_norm": "abc", "std_norm": 1.0}},
    lambda doc: _with_first_weight(doc, data="not base64!"),
    lambda doc: _with_first_weight(doc, shape=[3]),
    # a spec without its activation once loaded as a relu model
    lambda doc: {**doc, "spec": {k: v for k, v in doc["spec"].items()
                                 if k != "activation"}},
], ids=["nan_weight", "top_level_list", "string_norm_stat", "bad_base64",
        "shape_payload_mismatch", "spec_without_activation"])
def test_eval_on_malformed_checkpoint_exits_1(ws, tmp_path, capsys, corrupt):
    doc = json.loads((ws / "c" / "teacher-scratch.ckpt").read_text())
    bad = tmp_path / "bad.ckpt"
    bad.write_text(json.dumps(corrupt(doc)))
    out = tmp_path / "report.json"
    assert main(["eval", "--config", cfg_of(ws), "--checkpoint", str(bad),
                 "--out", str(out)]) == 1
    assert f"error: {bad}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_on_deeply_nested_features_exits_1(ws, tmp_path, capsys):
    bad = tmp_path / "features.json"
    bad.write_text('{"schema":"fairkd/features/3","ids":' + "[" * 100_000)
    out = tmp_path / "report.json"
    assert main(["eval", "--config", cfg_of(ws), "--checkpoint",
                 str(ws / "c" / "teacher-scratch.ckpt"), "--features", str(bad),
                 "--out", str(out)]) == 1
    assert f"error: {bad}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- report


def test_report_renders_markdown_and_csv(ws, capsys):
    for tag in ("ra", "rb"):
        assert main(["eval", "--config", cfg_of(ws),
                     "--checkpoint", str(ws / "c" / "teacher-scratch.ckpt"),
                     "--model", tag, "--out", str(ws / "r" / f"{tag}.json")]) == 0
    capsys.readouterr()
    assert main(["report", str(ws / "r" / "ra.json"),
                 str(ws / "r" / "rb.json")]) == 0
    text = capsys.readouterr().out
    assert "| model |" in text
    assert "| ra |" in text and "| rb |" in text
    out = ws / "r" / "table.csv"
    assert main(["report", str(ws / "r" / "ra.json"), "--format", "csv",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].startswith("model,data,distilled")


def test_report_with_nan_exits_1(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"schema": "fairkd/report/1", "reports": [{
        "per_group": [91.0, 92.0], "average": float("nan"), "std": 0.7,
        "ser": 1.1, "ser_degenerate": False, "metadata": {}}]}))
    assert main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


def test_report_with_edited_summary_exits_1(tmp_path, capsys):
    path = tmp_path / "edited.json"
    write_report([build_report((91.0, 92.5))], path)
    doc = json.loads(path.read_text())
    doc["reports"][0]["average"] = 50.0
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and "average" in captured.err


# --------------------------------------------------------- verify-tables


def test_verify_tables_default_fixture_passes(capsys):
    assert main(["verify-tables"]) == 0
    out = capsys.readouterr().out
    assert "36/36 rows pass" in out
    assert "FAIL" not in out


def test_verify_tables_reports_delta_on_perturbed_row(tmp_path, capsys):
    fixture = tmp_path / "rows.csv"
    fixture.write_text(
        "label,acc_g1,acc_g2,acc_g3,acc_g4,average,std,ser\n"
        "good,97.40,96.07,95.52,95.95,96.24,0.81,1.72\n"
        "skewed,97.40,96.07,95.52,95.95,96.24,0.91,1.72\n")
    assert main(["verify-tables", "--fixture", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "PASS good" in out
    assert "FAIL skewed" in out
    assert "delta -0.10" in out
    assert "1/2 rows pass" in out


def test_verify_tables_checks_rows_after_a_perfect_group(tmp_path, capsys):
    """A 100% group makes SER infinite, as in an eval report: that row fails
    and the rows after it are still checked."""
    fixture = tmp_path / "rows.csv"
    fixture.write_text(
        "label,acc_g1,acc_g2,acc_g3,acc_g4,average,std,ser\n"
        "perfect,100.00,96.00,96.00,96.00,97.00,2.00,1.72\n"
        "good,97.40,96.07,95.52,95.95,96.24,0.81,1.72\n")
    assert main(["verify-tables", "--fixture", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "FAIL perfect" in out
    assert "ser inf (printed 1.72, delta +inf)" in out
    assert "PASS good" in out
    assert "1/2 rows pass" in out


def test_verify_tables_rejects_malformed_header(tmp_path, capsys):
    fixture = tmp_path / "rows.csv"
    fixture.write_text("name,a,b\nx,1,2\n")
    assert main(["verify-tables", "--fixture", str(fixture)]) == 1
    assert "header" in capsys.readouterr().err


def test_verify_tables_rejects_non_numeric_cell(tmp_path, capsys):
    fixture = tmp_path / "rows.csv"
    fixture.write_text(
        "label,acc_g1,acc_g2,acc_g3,acc_g4,average,std,ser\n"
        "row,97.40,oops,95.52,95.95,96.24,0.81,1.72\n")
    assert main(["verify-tables", "--fixture", str(fixture)]) == 1


@pytest.mark.parametrize("cell", [b"\xff", b"9" * 131_073],
                         ids=["not_utf8", "over_csv_field_limit"])
def test_verify_tables_rejects_undecodable_cell(tmp_path, capsys, cell):
    fixture = tmp_path / "rows.csv"
    fixture.write_bytes(b"label,acc_g1,acc_g2,acc_g3,acc_g4,average,std,ser\n"
                        b"row,97.40," + cell + b",95.52,95.95,96.24,0.81,1.72\n")
    assert main(["verify-tables", "--fixture", str(fixture)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rows.csv" in err


@pytest.mark.parametrize("cell", ["100.5", "-1", "nan", "inf"])
def test_verify_tables_rejects_accuracy_outside_percent_range(tmp_path, capsys,
                                                             cell):
    fixture = tmp_path / "rows.csv"
    fixture.write_text(
        "label,acc_g1,acc_g2,acc_g3,acc_g4,average,std,ser\n"
        f"row,97.40,{cell},95.52,95.95,96.24,0.81,1.72\n")
    assert main(["verify-tables", "--fixture", str(fixture)]) == 1
    assert "rows.csv:2" in capsys.readouterr().err


@pytest.mark.parametrize("column", [5, 6, 7])
@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_verify_tables_rejects_non_finite_printed_cell(tmp_path, capsys,
                                                      column, cell):
    cells = "row,97.40,96.23,95.52,95.95,96.24,0.81,1.72".split(",")
    cells[column] = cell
    fixture = tmp_path / "rows.csv"
    fixture.write_text("label,acc_g1,acc_g2,acc_g3,acc_g4,average,std,ser\n"
                       + ",".join(cells) + "\n")
    assert main(["verify-tables", "--fixture", str(fixture)]) == 1
    assert "rows.csv:2" in capsys.readouterr().err


def test_verify_tables_missing_fixture_exits_1(tmp_path):
    assert main(["verify-tables",
                 "--fixture", str(tmp_path / "absent.csv")]) == 1


# ------------------------------------------------------------- plumbing


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fairkd" in capsys.readouterr().out


def test_config_dir_env_fallback(tmp_path, monkeypatch):
    write_config(tmp_path)
    (tmp_path / "tiny.json").write_text((tmp_path / "config.json").read_text())
    monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path))
    assert main(["synth-gen", "--config", "tiny"]) == 0
    assert (tmp_path / "m" / "real-train.manifest").exists()


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "fairkd", "verify-tables"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "36/36 rows pass" in proc.stdout
