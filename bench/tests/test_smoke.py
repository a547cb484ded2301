"""Smoke test of the benchmark: every workload, both trace modes, tiny graphs.

Lives outside ``testpaths`` (tier-1 is ``tests/``); run it with

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402


def run_smoke(job: tuple[str, int]) -> tuple[int, dict, str]:
    workload, trace = job
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else {}, done.stdout + done.stderr


@pytest.fixture(scope="module")
def results() -> dict:
    jobs = [(w, t) for w in spec.ALL_WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(run_smoke, jobs)))


@pytest.mark.parametrize("workload", list(spec.ALL_WORKLOADS))
def test_end_to_end_metrics(results, workload):
    code, last, output = results[(workload, 0)]
    assert code == 0, output
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(spec.END_TO_END)
    for name, entry in last["metrics"].items():
        assert entry["unit"] == spec.END_TO_END[name][0]
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name


@pytest.mark.parametrize("workload", list(spec.ALL_WORKLOADS))
def test_per_layer_metrics(results, workload):
    code, last, output = results[(workload, 1)]
    assert code == 0, output
    assert last["failed"] == 0
    assert set(last["metrics"]) == set(spec.PER_LAYER)
    measured = spec.measured_by(workload)
    for name, entry in last["metrics"].items():
        assert entry["unit"] == spec.PER_LAYER[name][0]
        assert math.isfinite(entry["value"]), name
        if name not in measured:
            assert entry["value"] == 0, f"{name} is not a layer of {workload}"
    if workload == "native":
        assert last["metrics"]["native.fallbacks"]["value"] == 0
        assert last["metrics"]["native.build_ms"]["value"] > 0


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the benchmark
    must fail without printing a result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", ".out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "road_interp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
