"""Benchmark driver: runs one workload and prints one JSON result line.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 20 --trace 0

Untraced (--trace 0), it repeats the workload's job, a closed loop of one
client in one process, until --seconds have passed, times each job, gates
every output, and reports the end-to-end metrics. Traced (--trace 1), it
alternates an untraced and a traced job on the same inputs, requires their
output bytes to be identical, and reports the per-layer metrics. The last
line of standard output is the result; a fuller record, with machine
information, is written under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import forkserver, resource_tracker
from pathlib import Path

import numpy as np
import scipy

from .clock import Clock
from .tracing import Tracer, layer_counts
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 5
SETUP_REF_S = 0.5

# A fresh interpreter imports the package and evaluates one point.
SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
import entharvest
if not entharvest.__file__.startswith({src!r}):
    sys.exit("imported " + entharvest.__file__)
entharvest.negativity(entharvest.DetectorSettings(1.0, 1.0), entharvest.EncounterGeometry(1.0, 0.5))
"""


class SetupError(RuntimeError):
    """The checkout does not hold a package this benchmark can run."""


def load_package(root: Path):
    """Import entharvest from the checkout's `src/`, and nowhere else."""
    src = root / "src"
    if not (src / "entharvest" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'entharvest'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("entharvest")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"entharvest imported from {pkg.__file__}, not from {src}")
    for name in ("cli", "model", "oracle", "quadrature", "sweep", "validate"):
        importlib.import_module(f"entharvest.{name}")
    return pkg


def machine_info(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def _interpreter(argv: list[str], root: Path) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return elapsed


def measure_setup(root: Path, runs: int, log: list) -> float:
    """Time for a fresh interpreter to import the package and evaluate one
    point, rescaled to a host where importing numpy and scipy.special in a
    fresh interpreter takes SETUP_REF_S.

    Start-up is file and memory work that the calibration kernel does not
    track, so each run is bracketed by that reference import instead; the
    median ratio is reported. One unmeasured run first fills the bytecode
    cache.
    """
    argv = [sys.executable, "-c", SETUP_CODE.format(src=str((root / "src").resolve()))]
    ref_argv = [sys.executable, "-c", "import numpy, scipy.special"]
    ref = [_interpreter(ref_argv, root)]
    ratios = []
    for i in range(runs + 1):
        elapsed = _interpreter(argv, root)
        ref.append(_interpreter(ref_argv, root))
        log.append({"setup_s": elapsed, "reference_s": ref[-2:]})
        if i:
            ratios.append(elapsed / statistics.mean(ref[-2:]))
    return SETUP_REF_S * statistics.median(ratios)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _main_raises(pkg, argv: list[str]) -> bool:
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            pkg.cli.main(argv)
        except Exception:  # a crashed job is a failed job, counted by the gate
            return True
    return False


def run_job(pkg, job, workers: int, clock: Clock) -> tuple[float, str, bool]:
    """Run one job through the CLI: (rescaled seconds, output text, raised)."""
    job.out.unlink(missing_ok=True)
    wall, raised = clock.time(_main_raises, pkg, ["--workers", str(workers), *job.argv])
    try:
        text = job.out.read_text(encoding="utf-8")
    except OSError:
        text = ""
    return wall, text, raised


class Tally:
    """Attempted and failed work units, over every job of a run."""

    def __init__(self):
        self.jobs = 0
        self.attempted = 0
        self.failed = 0
        self.first_good: dict = {}

    def add(self, workload, pkg, job, text: str, raised: bool) -> None:
        failed, rows = workload.check(pkg, job, text)
        if raised:
            failed = set(range(job.units))
        self.attempted += job.units
        self.failed += len(failed)
        if not self.jobs:  # the deep gate checks the first job's good rows
            self.first_good = {i: r for i, r in enumerate(rows) if i not in failed}
        self.jobs += 1

    def deep_gate(self, workload, pkg, seed: int) -> None:
        self.failed += len(workload.deep_check(pkg, seed, self.first_good))


def _job_loop(pkg, workload, seed, seconds, workdir, clock, tally) -> tuple[list, int]:
    walls, units, rep = [], 0, 0
    start = time.perf_counter()
    while rep == 0 or time.perf_counter() - start < seconds:
        job = workload.job(seed, rep, workdir)
        wall, text, raised = run_job(pkg, job, workload.workers, clock)
        tally.add(workload, pkg, job, text, raised)
        walls.append(wall)
        units = job.units
        rep += 1
    return walls, units


def run_untraced(pkg, workload, seed, seconds, workdir, setup_runs):
    tally = Tally()
    if workload.workers > 1:
        n = workload.workers - 1
        # fork, like the package's own pool: spawn would start a resource
        # tracker process that outlives this one
        with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork")) as helpers:
            clock = Clock(sample=False, helpers=helpers, n_helpers=n)
            walls, units = _job_loop(pkg, workload, seed, seconds, workdir, clock, tally)
            rss = peak_rss_mb()  # helpers are not reaped yet, so they do not count
    else:
        clock = Clock(sample=True)
        walls, units = _job_loop(pkg, workload, seed, seconds, workdir, clock, tally)
        rss = peak_rss_mb()
    tally.deep_gate(workload, pkg, seed)
    setup_log: list = []
    metrics = {
        "setup_s": measure_setup(ROOT, setup_runs, setup_log),
        "wall_s": statistics.median(walls),
        "points_per_s": statistics.median(units / w for w in walls),
        "peak_rss_mb": rss,
    }
    detail = {"rescaled_walls_s": walls, "jobs": clock.log, "setup": setup_log}
    return tally, True, metrics, detail


def run_traced(pkg, workload, seed, seconds, workdir):
    """Pairs of untraced and traced jobs on the same inputs.

    The traced job runs at workers=1, so every span is recorded in this
    process; for a pooled workload each pair also times an untraced
    workers=1 job, which gives the pool efficiency and the untraced side of
    the tracing overhead. Layer metrics come from
    the first pair and the deep gate that follows it, whose inputs depend
    only on the seed; overhead and pool efficiency are medians over pairs.
    """
    tally, identical, clock = Tally(), True, Clock(sample=False)
    overhead, efficiency = [], []
    first = None
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        job = workload.job(seed, rep, workdir)
        wall_u, text_u, raised_u = run_job(pkg, job, workload.workers, clock)
        tally.add(workload, pkg, job, text_u, raised_u)
        wall_1 = wall_u
        if workload.workers > 1:
            wall_1, _, _ = run_job(pkg, job, 1, clock)
            efficiency.append(wall_1 / (workload.workers * wall_u))
        tracer = Tracer(pkg)
        with tracer, tracer.span("bench.job"):
            wall_t, text_t, raised_t = run_job(pkg, job, 1, clock)
        identical = identical and not raised_t and text_t == text_u
        overhead.append(wall_t / wall_1)
        if first is None:
            first, units = tracer, job.units
            with tracer, tracer.span("bench.gate"):
                tally.deep_gate(workload, pkg, seed)
        rep += 1

    metrics = layer_counts(first.spans, units)
    metrics["sweep.pool_efficiency"] = statistics.median(efficiency) if efficiency else 1.0
    metrics["trace.overhead"] = statistics.median(overhead)
    trace_path = OUT_DIR / f"trace-{workload.name}-s{seed}.jsonl"
    first.write(trace_path)
    detail = {"trace": trace_path.name, "pairs": rep, "overhead": overhead,
              "pool_efficiency": efficiency, "jobs": clock.log}
    return tally, identical, metrics, detail


def run_benchmark(workload, seed: int, seconds: float, trace: bool,
                  setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload; returns the result object printed on the last line."""
    pkg = load_package(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        if trace:
            tally, identical, metrics, detail = run_traced(pkg, workload, seed, seconds, workdir)
        else:
            tally, identical, metrics, detail = run_untraced(
                pkg, workload, seed, seconds, workdir, setup_runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, declared {sorted(units)}")
    result = {
        "correct": identical and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_info(ROOT), "detail": detail, "result": result,
    }
    path = OUT_DIR / f"result-{workload.name}-s{seed}-t{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


def stop_servers() -> None:
    """Stop and reap the server processes multiprocessing may have started.

    The package's pool, or this benchmark's, may use a start method that
    launches a forkserver or a resource tracker; both would otherwise
    outlive this process. Objects that still hold named semaphores are
    collected first, so that no finalizer restarts the tracker at exit.
    """
    gc.collect()
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        seed = args.seed % 2**32  # numpy seeds must be non-negative
        result = run_benchmark(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_servers()
    print(json.dumps(result))
    return 0
