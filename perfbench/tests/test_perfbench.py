"""Tests of the benchmark itself, at tiny sizes.

Run with `PYTHONPATH=src python3 -m pytest perfbench/tests -q` from the
repository root.
"""

import dataclasses
import json
import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

from perfbench import bench
from perfbench.clock import Clock
from perfbench.workloads import WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "sweep-dense": dict(d=(0.5, 4.0, 3, "log"), gap=(0.0, 4.0, 3), v=(0.0, 0.99, 3),
                        oracle_samples=1),
    "sweep-lightspeed": dict(d=(0.5, 4.0, 3, "log"), gap=(0.0, 4.0, 3),
                             v=(0.0, 1.0 - 1e-9, 8, "lightspeed"), oracle_samples=1),
    "region-map": dict(d=(0.5, 3.0, 2), gap=(0.0, 2.0, 2), oracle_samples=1),
    "validate-coarse": {},
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_emits_every_metric(name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.run_benchmark(tiny(name), seed=1, seconds=0, trace=trace, setup_runs=1)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        assert units == declared(kind)


@pytest.mark.parametrize("name", ["sweep-dense", "region-map"])
def test_fixed_seed_counts_repeat(name):
    runs = [bench.run_benchmark(tiny(name), seed=7, seconds=0, trace=True) for _ in range(2)]
    for metric in ("quadrature.nodes_per_integral", "model.x_integrals_per_point",
                   "quadrature.interval_calls"):
        first, second = (r["metrics"][metric]["value"] for r in runs)
        assert first == second > 0


def test_lightspeed_bytes_match_across_workers():
    pkg = bench.load_package(bench.ROOT)
    workload = tiny("sweep-lightspeed")
    with tempfile.TemporaryDirectory() as tmp:
        job = workload.job(seed=3, rep=0, workdir=Path(tmp))
        outputs = [bench.run_job(pkg, job, workers, Clock(sample=False))[1] for workers in (1, 2)]
    assert outputs[0] and outputs[0] == outputs[1]


def test_gate_counts_corrupted_rows():
    pkg = bench.load_package(bench.ROOT)
    workload = tiny("sweep-dense")
    with tempfile.TemporaryDirectory() as tmp:
        job = workload.job(seed=5, rep=0, workdir=Path(tmp))
        _, text, raised = bench.run_job(pkg, job, 1, Clock(sample=False))
    assert not raised
    assert workload.check(pkg, job, text)[0] == set()
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[8] = repr(float(cells[8]) + 1e-3)  # negativity no longer max(x_abs - p, 0)
    lines[1] = ",".join(cells)
    assert workload.check(pkg, job, "\n".join(lines) + "\n")[0] == {0}


def test_missing_source_is_refused(tmp_path):
    with pytest.raises(bench.SetupError):
        bench.load_package(tmp_path)


def test_stop_servers_reaps_the_resource_tracker():
    # a spawn pool launches the tracker, which would outlive the benchmark
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(abs, -1).result() == 1
    del pool
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    bench.stop_servers()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(pid, 0)
