#!/usr/bin/env python3
"""Pipeline benchmark for uccvqe: the real CLI on seeded synthetic integrals.

    python3 perfbench/run.py --workload vqe-cas44 --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ``src/``. One
process calls ``uccvqe.cli.main`` one command at a time (closed loop, no
worker threads). It runs the paper anchors and one cold repetition of the
workload, then warm repetitions: at least one, and more while another
still ends within ``--seconds`` of the start. ``wall_s`` is the mean of
the cold time and the median warm time.
Inputs come only from ``--seed``. Every command's output is checked; a
failed check counts in ``failed`` and does not stop the run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics (see tracing.py), per traced repetition. Each traced
repetition runs the anchors and the workload, and follows an untraced one
to measure the tracing overhead. The last line of standard output is the
JSON result. ``--save FILE`` also writes it with the run metadata, for
compare.py.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> dict[str, str]:
    """BLAS/OpenMP pools no wider than the CPUs this process may use.
    Runs before numpy is imported; the set-up children inherit it."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, str(nproc()))
    return {var: os.environ[var] for var in BLAS_VARS}


def parse_args(argv, workloads) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="also write result and metadata to this JSON file")
    p.add_argument("--setup-only", action="store_true",
                   help="write the inputs and exit; used to time set-up in a fresh interpreter")
    return p.parse_args(argv)


def time_setup(args) -> float:
    """Median wall time of fresh interpreters that import uccvqe and write
    the workload's inputs: process start to ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_commands(cmds, main) -> float:
    """Run CLI commands back to back; returns their total wall time."""
    total = 0.0
    for cmd in cmds:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            cmd.rc = main(cmd.argv)
            cmd.seconds = time.perf_counter() - start
        cmd.stdout = buf.getvalue()
        total += cmd.seconds
    return total


def fresh(cmds) -> None:
    for cmd in cmds:
        shutil.rmtree(cmd.out, ignore_errors=True)


def metadata(args, threads: dict, cold_wall_s: float, walls: list[float]) -> dict:
    import numpy
    import scipy
    from uccvqe import kernels

    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                      capture_output=True, timeout=SETUP_TIMEOUT_S
                                      ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cold_wall_s": cold_wall_s, "repetition_walls_s": walls,
        "git_revision": revision,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "backend": kernels.backend(), "nproc": nproc(),
        "blas_threads": threads,
    }


def layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json lists them. The
    layer map in layers.json must name the same metrics."""
    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    layers = json.loads((HERE / "layers.json").read_text())["layers"].values()
    mapped = {name for layer in layers for name in layer["metrics"]}
    if mapped != set(units):
        raise SystemExit(f"perfbench: layers.json and BENCHMARK.json disagree on "
                         f"{sorted(mapped ^ set(units))}")
    return units


def layer_metrics(tracer, units: dict[str, str], untraced: list[float], traced: list[float],
                  windows: list[float], energy_error: float) -> dict[str, float]:
    """Per-layer numbers, per traced repetition. ".s" is self time: span time
    minus the time of child spans. Counters are summed over every traced
    call; gauges come from the last one. Every traced repetition runs the
    same commands, anchors included, so every layer is reached on every
    workload and a count depends only on the code that runs."""
    reps = len(windows)
    values = {name: 0.0 for name in units}
    for name, seconds in tracer.self_times().items():
        values[name + ".s"] = seconds / reps
    for name in values:
        if name.endswith(".calls"):
            values[name] = tracer.calls(name[: -len(".calls")]) / reps
    values.update({name: total / reps for name, total in tracer.counters.items()})
    values.update(tracer.gauges)
    values["vqe.evals_per_iteration"] = values["vqe.energy_evals"] / max(values["vqe.iterations"], 1)
    values["vqe.energy_error_mha"] = energy_error
    values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    values["trace.coverage"] = tracer.top_level_seconds() / sum(windows)
    return values


def energy_error_mha(cmds) -> float | None:
    """Variational minus exact sector ground energy of the last vqe call
    (on synth-cas88, the H2 anchor's)."""
    for cmd in reversed(cmds):
        if cmd.check == "vqe" and cmd.rc == 0:
            e = json.loads(cmd.stdout)
            return (e["variational"] - e["exact_ground"]) * 1e3
    return None


def main(argv=None) -> int:
    threads = cap_blas_threads()
    if not (SRC / "uccvqe" / "__init__.py").is_file():
        print(f"perfbench: no uccvqe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    args = parse_args(argv, wl.WORKLOAD_INSTANCE)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            import uccvqe.cli  # noqa: F401  (what the command-line entry point loads)

            wl.write_inputs(args.workload, args.seed, work)
            return 0
        return benchmark(args, threads, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def benchmark(args, threads, wl, work: Path) -> int:
    from uccvqe.cli import main as cli_main

    inputs = wl.write_inputs(args.workload, args.seed, work)
    setup_s = time_setup(args)

    attempted = 0
    failures: list[str] = []

    def run_checked(cmds, tracer=None) -> float:
        """Run and check the commands; returns their wall time. Tracing is on
        only while they run, not while their outputs are checked."""
        nonlocal attempted
        fresh(cmds)
        if tracer is not None:
            tracer.install()
        try:
            seconds = run_commands(cmds, cli_main)
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted += len(cmds)
        failures.extend(wl.check(cmds))
        return seconds

    def anchors():
        return wl.anchor_commands(inputs, work, args.seed)

    def workload():
        return wl.workload_commands(args.workload, inputs, work, args.seed)

    # The first repetition in a process runs cold: on synth-cas88 it takes
    # ~40% longer, from page faults while malloc adapts to 1 MB statevectors.
    # A command-line user pays that on every command, a library user once.
    # wall_s weighs the cold repetition and the median of the warm ones half
    # and half, so the cold share does not depend on how many warm ones fit.
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer, units = Tracer(), layer_units()
    start = time.perf_counter()
    run_checked(anchors())
    cold_wall_s = run_checked(workload())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    walls, traced, windows, rep_seconds = [], [], [], []
    while not rep_seconds or (time.perf_counter() - start
                              + statistics.median(rep_seconds) <= args.seconds):
        rep_start = time.perf_counter()
        cmds = workload()
        walls.append(run_checked(cmds))
        if tracer is not None:
            traced_cmds = anchors() + workload()
            windows.append(run_checked(traced_cmds, tracer))
            traced.append(sum(c.seconds for c in traced_cmds[-len(cmds):]))
        gc.collect()
        rep_seconds.append(time.perf_counter() - rep_start)

    if tracer is not None:
        values = layer_metrics(tracer, units, walls, traced, windows,
                               energy_error_mha(traced_cmds))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        report_path = cmds[0].out / "report.json"
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        metrics = {
            "wall_s": {"value": (cold_wall_s + statistics.median(walls)) / 2, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "two_qubit_gates": {"value": report.get("two_qubit_gate_count", 0), "unit": "count"},
            "qwc_groups": {"value": report.get("qwc_group_count", 0), "unit": "count"},
        }

    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    meta = metadata(args, threads, cold_wall_s, walls)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    if args.save:
        Path(args.save).write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
