"""Command-line pipeline: generate data, merge it, train, distill, evaluate.

Every command loads one RunConfig (JSON file, dotted --set overrides, or the
built-in defaults), stamps the resolved config digest and tool version into
each artifact it writes, and is deterministic: identical inputs and seed give
byte-identical outputs. main() parses with one parser, built at import.

Exit codes: 0 success, 1 domain error, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .config import RunConfig, config_digest, load_config
from .errors import ConfigError, FairkdError, FixtureFormatError, IoError
from .evaluation import (
    EvalReport,
    build_report,
    kfold_verification_accuracy,
    render_table,
    round2,
    score_pairs,
)
from .formats import (
    _finite,
    atomic_write_text,
    checkpoint_load,
    checkpoint_save,
    read_features,
    read_manifest,
    read_protocol,
    read_report,
    write_features,
    write_manifest,
    write_protocol,
    write_report,
    write_trace,
)
from .sampling import balanced_merge, manifest_stats, mix_merge
from .synthdata import gen_pair_protocol, generate_universe
from .training import distill, train_from_scratch


def _prepare(path) -> Path:
    """path, once its directory exists; every command's output comes here."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory for {path}: {exc}") from exc
    return path


def _write(args, write, value, path, **extra) -> Path:
    """write(value, path, header) into a made directory; the one place that
    stamps an artifact's header: args.stamp (config digest, tool version), extra."""
    path = _prepare(path)
    write(value, path, {**args.stamp, **extra})
    return path


def _write_manifest(args, manifest, path) -> dict:
    stats = manifest_stats(manifest)
    _write(args, write_manifest, manifest, path, stats=stats)
    return stats


def _manifest_path(cfg: RunConfig, name: str) -> Path:
    return Path(cfg.paths.manifests) / name


# ---------------------------------------------------------------- commands


def cmd_synth_gen(cfg: RunConfig, args) -> int:
    bundle = generate_universe(cfg.universe)
    protocol = gen_pair_protocol(bundle.holdout, cfg.eval.pairs_per_group,
                                 seed=cfg.seed)
    out = []
    for manifest in (bundle.real, bundle.synthetic, bundle.holdout):
        out.append(_manifest_path(cfg, f"{manifest.name}.manifest"))
        _write_manifest(args, manifest, out[-1])
    out.append(_write(args, write_features, bundle.features,
                      _manifest_path(cfg, "features.json")))
    out.append(_write(args, write_protocol, protocol,
                      _manifest_path(cfg, "protocol.json")))
    for path in out:
        print(f"wrote {path}")
    return 0


def cmd_merge(cfg: RunConfig, args) -> int:
    manifests = [read_manifest(p)[0] for p in args.inputs]
    merged = balanced_merge(manifests, args.total, name=args.name)
    stats = _write_manifest(args, merged, args.out)
    print(f"wrote {args.out}: {stats['total_identities']} identities, "
          f"{stats['total_images']} images")
    return 0


def cmd_mix(cfg: RunConfig, args) -> int:
    real = [read_manifest(p)[0] for p in args.real]
    synthetic = [read_manifest(p)[0] for p in args.synthetic]
    mixed = mix_merge(real, synthetic, args.fraction, args.total,
                      name=args.name)
    stats = _write_manifest(args, mixed, args.out)
    print(f"wrote {args.out}: {stats['total_identities']} identities, "
          f"real fraction {stats['real_identity_fraction']:.4f}")
    return 0


def _load_training_inputs(cfg: RunConfig, args):
    manifest_path = args.manifest or _manifest_path(cfg, args.default_manifest)
    features_path = args.features or _manifest_path(cfg, "features.json")
    # [0]: a manifest's header holds its id columns as decoded, unshared
    return read_manifest(manifest_path)[0], read_features(features_path)[0]


def _write_training_outputs(cfg: RunConfig, args, result, stem: str) -> int:
    """Checkpoint and loss trace at --out/--trace, else named after stem."""
    ckpt = args.out or Path(cfg.paths.checkpoints) / f"{stem}.ckpt"
    trace = args.trace or Path(cfg.paths.reports) / f"{stem}-trace.json"
    _write(args, checkpoint_save, result, ckpt)
    _write(args, write_trace, result.trace, trace)
    final = (f"final epoch loss {result.trace[-1].total_loss:.4f}"
             if result.trace else "no epochs")
    print(f"wrote {ckpt}")
    print(f"wrote {trace} ({final})")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    spec = cfg.teacher if args.encoder == "teacher" else cfg.student
    manifest, store = _load_training_inputs(cfg, args)
    result = train_from_scratch(spec, manifest, store, cfg.loss, cfg.train)
    return _write_training_outputs(cfg, args, result, f"{args.encoder}-scratch")


def cmd_distill(cfg: RunConfig, args) -> int:
    teacher_path = args.teacher or Path(cfg.paths.checkpoints) / "teacher-scratch.ckpt"
    if not Path(teacher_path).exists():
        raise ConfigError(f"teacher checkpoint not found: {teacher_path}")
    teacher, _ = checkpoint_load(teacher_path)
    manifest, store = _load_training_inputs(cfg, args)
    result = distill(teacher.encoder, cfg.student, manifest, store,
                     cfg.loss, cfg.train)
    return _write_training_outputs(cfg, args, result, "student-distilled")


def cmd_eval(cfg: RunConfig, args) -> int:
    model = checkpoint_load(args.checkpoint)[0]
    protocol = read_protocol(args.protocol or _manifest_path(cfg, "protocol.json"))[0]
    store = read_features(args.features or _manifest_path(cfg, "features.json"))[0]
    accuracies = []
    for group in protocol.groups:
        scored = score_pairs(model.encoder.forward, group, store)
        accuracies.append(kfold_verification_accuracy(
            [s for s, _ in scored], [same for _, same in scored],
            k=cfg.eval.k, seed=cfg.seed))
    metadata = {"model": args.model, "data": args.data,
                "distilled": args.distilled, "loss": args.loss_label}
    reports = [build_report(accuracies, metadata)]
    out = args.out or Path(cfg.paths.reports) / "report.json"
    _write(args, write_report, reports, out)
    print(render_table(reports))
    print(f"wrote {out}")
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    reports = []
    for path in args.reports:
        loaded, _ = read_report(path)
        reports.extend(loaded)
    table = render_table(reports, fmt=args.format)
    if args.out:
        atomic_write_text(_prepare(args.out), (table, "\n"))
        print(f"wrote {args.out}")
    else:
        print(table)
    return 0


# ------------------------------------------------------------ verify-tables


def _read_fixture(path) -> list[tuple[str, EvalReport, str, str, str]]:
    """Rows of (label, report, printed average, printed std, printed ser)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(f"cannot read fixture {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FixtureFormatError(f"{path}: {exc}") from exc
    if not rows:
        raise FixtureFormatError(f"{path}: empty fixture")
    header = rows[0]
    if (len(header) < 6 or header[0] != "label"
            or header[-3:] != ["average", "std", "ser"]):
        raise FixtureFormatError(
            f"{path}: header must be label,acc_g1..acc_gN,average,std,ser")
    n_groups = len(header) - 4
    expected_acc = [f"acc_g{i + 1}" for i in range(n_groups)]
    if header[1:1 + n_groups] != expected_acc:
        raise FixtureFormatError(
            f"{path}: accuracy columns must be {','.join(expected_acc)}")
    if not rows[1:]:
        raise FixtureFormatError(f"{path}: fixture has no data rows")
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FixtureFormatError(
                f"{path}:{i}: expected {len(header)} fields, got {len(row)}")
        label = row[0]
        try:
            report = build_report([float(v) for v in row[1:1 + n_groups]])
            printed = [round2(_finite(v)) for v in row[-3:]]
        except ValueError as exc:
            raise FixtureFormatError(f"{path}:{i}: {exc}") from exc
        out.append((label, report, *printed))
    return out


def cmd_verify_tables(cfg: RunConfig, args) -> int:
    if args.fixture:
        fixture = Path(args.fixture)
    else:
        fixture = resources.files("fairkd") / "data" / "reference_rows.csv"
    failures = 0
    rows = _read_fixture(fixture)
    width = max(len(label) for label, *_ in rows)
    for label, report, p_avg, p_std, p_ser in rows:
        got = tuple(map(round2, (report.average, report.std, report.ser)))
        printed = (p_avg, p_std, p_ser)
        if got == printed:
            print(f"PASS {label:<{width}}  avg {got[0]}  std {got[1]}  ser {got[2]}")
        else:
            failures += 1
            deltas = []
            for metric, g, p in zip(("avg", "std", "ser"), got, printed):
                mark = "" if g == p else f" (printed {p}, delta {float(g) - float(p):+.2f})"
                deltas.append(f"{metric} {g}{mark}")
            print(f"FAIL {label:<{width}}  {'  '.join(deltas)}")
    total = len(rows)
    print(f"{total - failures}/{total} rows pass")
    return 0 if failures == 0 else 1


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="RunConfig JSON file (or a name under "
                             "$FAIRKD_CONFIG_DIR); defaults are used when omitted")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        dest="overrides", default=[],
                        help="override any config key, e.g. train.epochs=3")
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--manifest", default=None)
    training.add_argument("--features", default=None)
    training.add_argument("--out", default=None, help="checkpoint path")
    training.add_argument("--trace", default=None, help="per-epoch loss trace path")

    parser = argparse.ArgumentParser(
        prog="fairkd",
        description="Toy-scale fairness-aware face verification pipeline.")
    parser.add_argument("--version", action="version",
                        version=f"fairkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", parents=[common],
                       help="generate manifests, features, and the eval protocol")
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("merge", parents=[common],
                       help="balanced merge of manifests to a target identity count")
    p.add_argument("inputs", nargs="+", metavar="MANIFEST")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--name", default="balanced")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("mix", parents=[common],
                       help="mix real and synthetic manifests at a real fraction")
    p.add_argument("--real", nargs="+", required=True, metavar="MANIFEST")
    p.add_argument("--synthetic", nargs="+", required=True, metavar="MANIFEST")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--name", default="mix")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("train", parents=[common, training],
                       help="train an encoder from scratch on a manifest")
    p.add_argument("--encoder", choices=("teacher", "student"), default="student")
    p.set_defaults(func=cmd_train, default_manifest="real-train.manifest")

    p = sub.add_parser("distill", parents=[common, training],
                       help="train the student against a frozen teacher checkpoint")
    p.add_argument("--teacher", default=None, help="teacher checkpoint path")
    p.set_defaults(func=cmd_distill, default_manifest="synthetic-train.manifest")

    p = sub.add_parser("eval", parents=[common],
                       help="verification accuracy per group plus fairness metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--protocol", default=None)
    p.add_argument("--features", default=None)
    p.add_argument("--out", default=None, help="report path")
    p.add_argument("--model", default="-")
    p.add_argument("--data", default="-")
    p.add_argument("--distilled", default="-")
    p.add_argument("--loss-label", default="-")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[common],
                       help="render stored reports as one table")
    p.add_argument("reports", nargs="+", metavar="REPORT")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify-tables", parents=[common],
                       help="recompute average/STD/SER for the reference rows")
    p.add_argument("--fixture", default=None,
                   help="CSV of rows to check (defaults to the shipped file)")
    p.set_defaults(func=cmd_verify_tables)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        args.stamp = {"config_digest": config_digest(cfg), "tool_version": __version__}
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FairkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
