"""fairkd benchmark: one workload per process, metrics on the last line.

    python3 bench/run.py --workload paper_kd --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload cli_artifacts --seed 0 --seconds 20 --trace 1
    python3 bench/run.py --steadiness --runs 10            # two sets, all workloads

A run sets the workload up several times, before the first timed iteration
and between iterations (``setup_s`` is the median), and repeats timed
iterations until ``--seconds`` would be exceeded, checking every
iteration's outputs. With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it alternates untraced and
traced iterations, runs the fixed-shape microbenchmarks and reports the
per-layer metrics. Human-readable lines come first; the last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}.

BLAS is pinned to one thread (override with OPENBLAS_NUM_THREADS, at most
nproc). The fairkd package is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402 - BLAS threads must be pinned before numpy loads
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".bench_work"

# Set-up runs 3 times before the first iteration (the first is cold), and
# again in each gap between untraced iterations until SETUP_GAP_S is spent
# there, so that setup_s samples the whole run, as iteration_s does, and
# host drift within a run reaches both alike.
SETUP_FIRST_REPEATS = 3
SETUP_GAP_S = 0.3
HARD_LIMIT_S = 150.0      # stop starting iterations past this point
WORKLOAD_NAMES = ("paper_kd", "cli_artifacts")
STEADINESS_SETS = 2


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or spec)."""


def load_spec() -> dict:
    if not SPEC_PATH.is_file():
        raise BenchError(f"{SPEC_PATH.name} not found next to {HERE.name}/")
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def import_fairkd():
    if not (SRC / "fairkd" / "__init__.py").is_file():
        raise BenchError(f"no fairkd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fairkd
    if Path(fairkd.__file__).resolve().parent != (SRC / "fairkd").resolve():
        raise BenchError(f"imported fairkd from {fairkd.__file__}, "
                         f"not from {SRC}")
    return fairkd


# --------------------------------------------------------------- environment


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(fairkd) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    lines = 0
    for path in sorted((SRC / "fairkd").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for line in fh if line.strip())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fairkd": getattr(fairkd, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "src_nonblank_lines": lines,
    }


# --------------------------------------------------------------- one run


def _fmt(value) -> str:
    if value is None:
        return "absent"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _timing_line(name, samples, unit="s") -> str:
    from spans import tail
    label, value = tail(samples)
    return (f"  {name:<28} {statistics.median(samples):.6g} {unit}"
            f"  ({label} {value:.6g}, n={len(samples)})")


def _repeat_setup(workload, min_repeats: int, budget_s: float,
                  times: list[float]) -> None:
    """Set up min_repeats times, then again while under budget_s."""
    from spans import NullTracer
    null = NullTracer()
    spent = 0.0
    for k in itertools.count():
        if k >= min_repeats and spent >= budget_s:
            return
        t0 = perf_counter()
        workload.setup(null)
        times.append(perf_counter() - t0)
        spent += times[-1]


def _timed_loop(workload, seconds: float, trace: bool, tracer, started,
                setup_times: list[float]):
    """Iterate until the next iteration would pass ``seconds``.

    Returns (seconds, traced?, outcome) per iteration, in order. When
    tracing, odd iterations run with the wrappers installed, and a failed
    one's root span is renamed so its partial work stays out of the layer
    metrics; otherwise set-up is repeated between iterations, adding to
    setup_times.
    """
    from fairkd.errors import FairkdError
    from spans import NullTracer
    from workloads import Outcome
    import layers

    null = NullTracer()
    runs = []
    loop_start = perf_counter()
    min_iters = 4 if trace else workload.min_iterations
    i = 0
    gap = 0.0 if trace else SETUP_GAP_S
    while True:
        if i >= min_iters:
            guess = statistics.median(r[0] for r in runs) + gap
            if perf_counter() - loop_start + guess > seconds \
                    or perf_counter() - started + guess > HARD_LIMIT_S:
                break
        if gap and i > 0:
            _repeat_setup(workload, 1, gap, setup_times)
        use_trace = trace and i % 2 == 1
        tr = tracer if use_trace else null
        if use_trace:
            layers.install(tracer)
        t0 = perf_counter()
        root = None
        try:
            with tr.span(layers.ITER) as root:
                out = workload.iterate(i, tr)
        except FairkdError as exc:
            out = Outcome(error=f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - a crash is a wrong output
            out = Outcome(problems=[f"crashed: {type(exc).__name__}: {exc}"])
        finally:
            dt = perf_counter() - t0
            tracer.unwrap_all()
        if use_trace and not out.ok:
            root[0] = "bench.failed_iteration"
        runs.append((dt, use_trace, out))
        i += 1
    return runs


def _end_to_end(workload, setup_times, runs) -> dict:
    """End-to-end values; those of the iterations are taken from the ones
    that succeeded, and are absent when none did."""
    good = [o for _, _, o in runs if o.ok]
    good_times = [dt for dt, _, o in runs if o.ok]
    values = {"setup_s": statistics.median(setup_times),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    shown = {}
    print("timings")
    print(_timing_line("setup_s", setup_times))
    if good:
        values["iteration_s"] = statistics.median(good_times)
        gated, shown = workload.summary(good, good_times)
        values.update(gated)
        print(_timing_line("iteration_s", good_times))
    print("workload figures (printed, not gated)")
    for key, (value, unit) in shown.items():
        print(f"  {key:<28} {_fmt(value)} {unit}")
    failed = len(runs) - len(good)
    print(f"  {'error_rate':<28} {failed / len(runs):.6g} "
          f"(failed {failed} of {len(runs)})")
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> int:
    fairkd = import_fairkd()
    # The modules next to this file import fairkd, so they load only now.
    import layers
    import micro
    from spans import Tracer
    from workloads import WORKLOADS

    started = perf_counter()
    print(f"workload {name}  seed {seed}  seconds {seconds}  "
          f"trace {int(trace)}")
    print("env " + json.dumps(environment(fairkd), sort_keys=True))
    # Each run has its own directory, so concurrent runs do not collide.
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    workload = WORKLOADS[name](seed, workdir)
    tracer = Tracer()
    setup_times: list[float] = []
    try:
        if trace:
            layers.install(tracer)
            try:
                workload.setup(tracer)
            finally:
                tracer.unwrap_all()
        else:
            _repeat_setup(workload, SETUP_FIRST_REPEATS, 0.0, setup_times)
        runs = _timed_loop(workload, seconds, trace, tracer, started,
                           setup_times)
        micro_samples = micro.run(seed, workdir) if trace else {}
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    outcomes = [o for _, _, o in runs]
    for o in outcomes:
        for problem in o.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if o.error:
            print(f"operation failed: {o.error}", file=sys.stderr)

    if trace:
        # Both sides of the overhead count only iterations that succeeded.
        plain = [dt for dt, traced, o in runs if o.ok and not traced]
        traced = [dt for dt, traced, o in runs if o.ok and traced]
        overhead = (100.0 * (statistics.median(traced)
                             / statistics.median(plain) - 1.0)
                    if plain and traced else None)
        values = layers.metrics(tracer, len(traced),
                                workload.distinct_embedded, overhead,
                                micro_samples, micro.op_names())
        wanted = spec["per_layer"]
    else:
        values = _end_to_end(workload, setup_times, runs)
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(values) - set(units):
        raise BenchError(f"metric names not in {SPEC_PATH.name}: "
                         f"{sorted(set(values) - set(units))}")
    print("metrics")
    for key in units:
        print(f"  {key:<40} {_fmt(values.get(key))} {units[key]}")
    failed = sum(1 for o in outcomes if not o.ok)
    result = {
        # A run in which no iteration succeeded measured nothing.
        "correct": (not any(o.problems for o in outcomes)
                    and failed < len(outcomes)),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]}
                    for key in units if key in values},
    }
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------- steadiness


def _spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def _run_once(name: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in a child process; its result, or None."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    for line in proc.stderr.splitlines():
        if " failed: " in line:
            print(f"    {line}", flush=True)
    return json.loads(lines[-1])


def steadiness(args, spec: dict) -> int:
    """Two sets of --runs runs of the same code; spreads and shifts vs bounds.

    The sets are interleaved (for each seed and workload, the set 1 run and
    then the set 2 run), as runs of a parent and a change are alternated, so
    host drift lasting minutes reaches both sets alike. ``setup_s`` is held
    to its bound only on the shift between the sets' medians; its spread
    within a set is printed but not gated, since set-up is a short interval
    timed on whatever else the host is running.
    """
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = range(args.seed, args.seed + args.runs)
    metrics = spec["end_to_end"]
    runs = {name: [[] for _ in range(STEADINESS_SETS)] for name in names}
    for seed in seeds:
        for name in names:
            for k in range(STEADINESS_SETS):
                t0 = perf_counter()
                result = _run_once(name, seed, seconds)
                if result is None:
                    return 1
                runs[name][k].append(result)
                vals = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                    for m in metrics if m["name"] in result["metrics"])
                print(f"set {k + 1} {name} seed {seed} "
                      f"({perf_counter() - t0:.1f} s, correct "
                      f"{result['correct']}, failed {result['failed']}/"
                      f"{result['attempted']}): {vals}", flush=True)

    ok = True
    print("\nspread = IQR / median of one set; shift = how much worse set "
          "2's median is than set 1's")
    for name in names:
        print(f"\n{name}")
        for m in metrics:
            key, bound = m["name"], m["bound"]
            sets = [[r["metrics"][key]["value"] for r in one
                     if key in r["metrics"]] for one in runs[name]]
            if any(len(v) < 2 for v in sets):
                print(f"  {key:<14} measured in fewer than 2 runs of a set")
                ok = False
                continue
            meds = [statistics.median(v) for v in sets]
            spreads = [_spread(v) for v in sets]
            shift = _worse_by(meds[0], meds[1], m["better"])
            gated_spread = max(spreads) if key != "setup_s" else 0.0
            bad = shift > bound or gated_spread > bound
            ok = ok and not bad
            verdict = ("FAIL" if bad else
                       "ok" if gated_spread < bound / 3 else "ok, > bound/3")
            print(f"  {key:<14} bound {bound:<5} medians "
                  f"{' '.join(f'{x:.5g}' for x in meds)}  spreads "
                  f"{' '.join(f'{x:.3f}' for x in spreads)}  "
                  f"shift {shift:+.3f}  {verdict}")
        correct = all(r["correct"] for one in runs[name] for r in one)
        failed = sum(r["failed"] for one in runs[name] for r in one)
        attempted = sum(r["attempted"] for one in runs[name] for r in one)
        print(f"  all runs correct: {correct}; failed operations "
              f"{failed} of {attempted}")
        ok = ok and correct
    return 0 if ok else 1


# --------------------------------------------------------------- entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable with --steadiness)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two interleaved sets of runs and "
                             "compare their spreads with the bounds")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload (steadiness)")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.steadiness:
            import_fairkd()
            return steadiness(args, spec)
        if not args.workload or len(args.workload) != 1:
            parser.error("give exactly one --workload")
        seconds = args.seconds or spec["run_seconds"]
        return run_workload(args.workload[0], args.seed, seconds,
                            bool(args.trace), spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
