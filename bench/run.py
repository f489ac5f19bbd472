"""ptchain benchmark: runs one workload through the CLI's own code path and
checks every output.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from a ptchain checkout (it imports the package from ``src/``). A
run measures set-up in fresh processes, then repeats passes over the
workload's configs -- ``ptchain.cli.validate_config`` then
``ptchain.cli.execute`` on each, exactly what ``ptchain fig`` runs -- for
``--seconds`` seconds, checking each run's written outputs. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in turn, each in its own process.
See ``bench/NOTES.md`` for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pbc_kspace", "obc_dense", "disorder_ensemble")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------


def _blas_threads(package) -> int | str:
    """Thread count of the OpenBLAS bundled with a numpy or scipy wheel."""
    libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    for package in (numpy, scipy):
        dep = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[package.__name__] = {
            "name": dep.get("name"),
            "version": dep.get("version"),
            "threads": _blas_threads(package),
        }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {key: os.environ.get(key, "unset") for key in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds of SETUP_REPEATS fresh processes importing ptchain and
    generating and validating the workload's configs."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_pass(cli, configs, out_root: Path, pass_no: int, recorder=None):
    """One pass over the configs; returns (wall seconds, one record per run).

    Only validate_config + execute are timed; the output checks are not.
    """
    from workloads import check_run, load_summary

    wall = 0.0
    earlier: dict[str, dict] = {}
    records = []
    for name, config in configs:
        if recorder is not None:
            recorder.run_id = f"{pass_no}/{name}"
        record = {"name": name, "error": None, "checks": [], "bytes": 0}
        records.append(record)
        start = time.perf_counter()
        try:
            cli.validate_config(config)
            result = cli.execute(config, out_dir=str(out_root / name))
        except Exception as exc:  # a raising run is a failed run, not a crash
            wall += time.perf_counter() - start
            record["error"] = f"{type(exc).__name__}: {exc}"
            continue
        wall += time.perf_counter() - start
        outputs = result["outputs"]
        try:
            record["bytes"] = sum(os.path.getsize(p) for p in outputs)
            summary = load_summary(outputs)
            earlier[name] = summary
            record["checks"] = check_run(name, config, summary, outputs, earlier)
        except (KeyError, OSError, StopIteration, ValueError) as exc:
            record["error"] = f"output unreadable: {type(exc).__name__}: {exc}"
    return wall, records


def run_passes(cli, configs, out_root: Path, seconds: float, recorder=None):
    """Passes while the next one is expected to end within ``seconds``.

    At least one pass runs. With a recorder, passes alternate untraced and
    traced, at least one of each; the wrappers are installed only for the
    traced ones. Returns the untraced pass times, the traced pass times and
    every run's record.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    records = []
    start = time.perf_counter()
    pass_no = 0
    while True:
        elapsed = time.perf_counter() - start
        if pass_no >= (1 if recorder is None else 2) and \
                elapsed * (pass_no + 1) / pass_no > seconds:
            break
        traced = recorder is not None and pass_no % 2 == 1
        if traced:
            recorder.install()
        try:
            wall, recs = run_pass(cli, configs, out_root, pass_no,
                                  recorder if traced else None)
        finally:
            if traced:
                recorder.uninstall()
        walls[traced].append(wall)
        records.extend(recs)
        pass_no += 1
    return walls[False], walls[True], records


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def outcome(records) -> tuple[int, int, float, str]:
    """(runs attempted, runs failed, worst check frac, label of the worst check).

    A run fails when it raised, its outputs were unreadable, or any of its
    checks failed. Checks without a tolerance count only toward failures.
    """
    failed = 0
    worst, worst_label = 0.0, "none"
    for rec in records:
        failed += rec["error"] is not None or not all(c.ok for c in rec["checks"])
        for c in rec["checks"]:
            if c.frac is not None and c.frac >= worst:
                worst, worst_label = c.frac, c.label
    return len(records), failed, worst, worst_label


def per_layer(workload: str, recorder, traced_walls, untraced_walls):
    """Per-pass layer metrics {name: (value, unit)} and the predictions
    the trace contradicts."""
    from spans import DIM3
    from workloads import PREDICTED_SHARES, PREDICTED_ZERO_CALLS

    n = len(traced_walls)
    metrics: dict[str, tuple[float, str]] = {}
    for name, row in recorder.totals().items():
        metrics[f"{name}.calls"] = (row["calls"] / n, "count")
        metrics[f"{name}.total_s"] = (row["total_s"] / n, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / n, "s")
        metrics[f"{name}.errors"] = (row["errors"] / n, "count")
    for name in DIM3:
        metrics[f"{name}.dim3"] = (recorder.dim3[name] / n, "count")

    contradictions = []
    for name in PREDICTED_ZERO_CALLS[workload]:
        calls = metrics[f"{name}.calls"][0]
        if calls:
            contradictions.append(f"{name}: {calls:g} calls per pass, predicted 0")
    wall = statistics.mean(traced_walls)
    for wl, metric, kind, bound in PREDICTED_SHARES:
        share = metrics[metric][0] / wall
        if wl == workload and ((share < bound) if kind == "min" else (share > bound)):
            contradictions.append(
                f"{metric}: {share:.1%} of wall_s, predicted {kind} {bound:.0%}")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        "ratio")
    metrics["trace.contradictions"] = (float(len(contradictions)), "count")
    return metrics, contradictions


def write_spans(recorder, workload: str, seed: int, env: dict) -> Path:
    """Write the recorded spans, times relative to the first span's start."""
    out = ROOT / ".bench_trace" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    origin = recorder.spans[0]["start"] if recorder.spans else 0.0
    spans = [{**s, "start": s["start"] - origin, "end": s["end"] - origin}
             for s in recorder.spans]
    out.write_text(json.dumps({"environment": env, "spans": spans}) + "\n")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(seed)
    print("environment " + json.dumps(env, sort_keys=True))
    setup_times = measure_setup(workload, seed)

    sys.path.insert(0, str(SRC))
    from ptchain import cli
    from spans import SPAN_NAMES, Recorder
    from workloads import build_configs

    configs = build_configs(workload, seed)
    for _, config in configs:
        cli.validate_config(config)

    recorder = Recorder() if trace else None
    out_root = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
    out_root.mkdir(parents=True)
    try:
        walls, traced_walls, records = run_passes(cli, configs, out_root, seconds, recorder)
    finally:
        shutil.rmtree(out_root)
        try:
            out_root.parent.rmdir()
        except OSError:  # another run still writes there
            pass
    n_passes = len(walls) + len(traced_walls)

    attempted, failed, worst, worst_label = outcome(records)
    print("checks of the first pass, |deviation|/tolerance ('-': no tolerance):")
    for rec in records[:len(configs)]:
        for c in rec["checks"]:
            frac = "-" if c.frac is None else f"{c.frac:.3g}"
            print(f"  {c.label:52s} {frac:>9s}  {'ok' if c.ok else 'FAILED'}")
    for rec in records:
        if rec["error"] is not None:
            print(f"FAILED run {rec['name']}: {rec['error']}")
        for c in rec["checks"]:
            if not c.ok:
                print(f"FAILED check {c.label}: |deviation|/tolerance = {c.frac}")
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {workload}: {n_passes} passes of {len(configs)} CLI runs, "
          f"{len(traced_walls)} of them traced")
    print(f"  wall_s            {wall_s:.4f} s  (median of {len(walls)} untraced passes; "
          f"max {max(walls):.4f} s; all {', '.join(f'{w:.3f}' for w in walls)})")
    print(f"  setup_s           {setup_s:.4f} s  (median of {len(setup_times)} fresh "
          f"processes; all {', '.join(f'{t:.3f}' for t in setup_times)})")
    print(f"  peak_rss_mb       {peak_rss_mb:.1f} MB")
    print(f"  failed_frac       {failed / attempted:.4g} ratio  ({failed} of {attempted} runs)")
    print(f"  worst_check_frac  {worst:.4g} ratio  ({worst_label})")

    if trace:
        metrics, contradictions = per_layer(workload, recorder, traced_walls, walls)
        metrics["cli.bytes_written"] = (
            sum(r["bytes"] for r in records) / n_passes, "B")
        metrics["worst_check_frac"] = (worst, "ratio")
        path = write_spans(recorder, workload, seed, env)
        print(f"  trace.overhead_frac {metrics['trace.overhead_frac'][0]:+.4f} ratio  "
              f"(median traced / median untraced pass - 1; spans in "
              f"{path.relative_to(ROOT)})")
        print("  per layer, per traced pass:           calls   total_s    self_s errors")
        for name in SPAN_NAMES:
            print(f"    {name:36s} {metrics[name + '.calls'][0]:7g} "
                  f"{metrics[name + '.total_s'][0]:9.4f} {metrics[name + '.self_s'][0]:9.4f} "
                  f"{metrics[name + '.errors'][0]:6g}")
        for line in contradictions:
            print(f"  CONTRADICTED PREDICTION {line}")
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="disorder realization r uses SplitMix64(seed + r); >= 0")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time per run, set-up excluded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ptchain" / "__init__.py").is_file():
        print(f"error: no ptchain sources under {SRC}; run from a ptchain checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
