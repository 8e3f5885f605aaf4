"""Smoke tests of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest vorbench
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


#: Attribute overrides that shrink each workload to a second or less.
TINY = {
    "sorp_overflow": {"users": 3},
    "roomy_cycle": {"users": 3},
    "gateway_rush": {"users": 6, "seals": 3, "max_batch": 12, "queue_depth": 2},
    "faulted_horizon": {"users": 2, "cycles": 2, "fault_events": 2},
}


def tiny(name):
    workload = copy.copy(workloads.WORKLOADS[name])
    for attr, value in TINY[name].items():
        setattr(workload, attr, value)
    workload.nominal_s = 1.0
    return workload


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name in TINY:
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))


def run_main(args) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(args) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_names_match_benchmark_json(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    names = list(layers.layer_metrics(layers.Recorder(), [], [])) + [
        "trace.overhead_s"
    ]
    assert per_layer == {name: layers.unit_of(name) for name in names}


@pytest.mark.parametrize("name", list(TINY))
def test_each_workload_runs_and_checks_clean(name):
    workload = tiny(name)
    first = run.measure(workload, 7)
    second = run.measure(workload, 7)
    assert first.error == "" and first.outcome.problems == []
    assert first.outcome.fingerprint == second.outcome.fingerprint
    assert run.problems_of([first, second]) == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_command_prints_every_metric(tiny_workloads, benchmark_json, name, trace):
    result = run_main(
        ["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in benchmark_json[kind]
    }


def test_corrupted_schedule_trips_the_check():
    workload = tiny("sorp_overflow")
    instance = workload.setup(5)
    report = workload.run(instance)
    assert workload.check(instance, report, 1.0).problems == []
    next(iter(report.cycle.schedule)).deliveries.pop()
    problems = workload.check(instance, report, 1.0).problems
    assert any("deliveries do not match" in p for p in problems)
    assert any("differs from recomputed" in p for p in problems)


def test_differing_results_of_one_seed_are_reported():
    workload = tiny("roomy_cycle")
    first = run.measure(workload, 2)
    second = run.measure(workload, 2)
    second.outcome.fingerprint = ("tampered",)
    assert any("differ between two runs" in p for p in run.problems_of([first, second]))


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "vorbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "vorbench/run.py", "--workload", "roomy_cycle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
