"""Tests for the benchmark baseline-comparison gate.

The scheduler report lives under ``benchmarks/`` (not collected by the tier-1
run), so its pure comparison logic is imported here by file path and pinned
against the committed ``BENCH_phase1.json`` baseline's shape.
"""

import importlib.util
import json
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_BASELINE = _ROOT / "benchmarks" / "BENCH_phase1.json"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_scheduler_perf", _ROOT / "benchmarks" / "bench_scheduler_perf.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def baseline():
    return json.loads(_BASELINE.read_text())


class TestCompareReports:
    def test_identical_reports_pass(self, bench, baseline):
        assert bench.compare_reports(baseline, baseline) == []

    def test_timing_changes_do_not_gate(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["phase1"]["wall_time_seconds"] *= 100
        current["sorp"]["wall_time_seconds"] *= 100
        assert bench.compare_reports(baseline, current) == []

    def test_psi_drift_fails(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["solve"]["psi_total_dollars"] += 0.01
        problems = bench.compare_reports(baseline, current)
        assert len(problems) == 1
        assert "psi_total_dollars" in problems[0]

    def test_overflow_iteration_drift_fails(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["solve"]["overflow_iterations"] += 1
        problems = bench.compare_reports(baseline, current)
        assert any("overflow_iterations" in p for p in problems)

    def test_config_mismatch_fails_before_solve_check(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["config"]["n_videos"] = 999
        current["solve"]["psi_total_dollars"] += 1  # masked by config gate
        problems = bench.compare_reports(baseline, current)
        assert len(problems) == 1
        assert "config.n_videos" in problems[0]

    def test_different_benchmark_name_fails(self, bench, baseline):
        problems = bench.compare_reports(baseline, {"benchmark": "other"})
        assert len(problems) == 1
        assert "benchmark name differs" in problems[0]

    def test_recovery_outcome_drift_fails(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["recovery"]["requests_saved"] -= 1
        current["recovery"]["requests_lost"] += 1
        problems = bench.compare_reports(baseline, current)
        assert any("recovery.requests_saved" in p for p in problems)
        assert any("recovery.requests_lost" in p for p in problems)

    def test_recovery_psi_delta_drift_fails(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["recovery"]["psi_delta_dollars"] += 0.01
        problems = bench.compare_reports(baseline, current)
        assert len(problems) == 1
        assert "recovery.psi_delta_dollars" in problems[0]

    def test_recovery_and_sorp_timing_do_not_gate(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["recovery"]["wall_time_seconds"] *= 100
        current["sorp"]["wall_time_seconds"] *= 100
        assert bench.compare_reports(baseline, current) == []

    def test_scale_timing_does_not_gate(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        for point in current["scale"].values():
            point["wall_time_seconds"] *= 100
        assert bench.compare_reports(baseline, current) == []

    def test_scale_work_drift_fails(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["scale"]["1520"]["serves_served"] += 1
        problems = bench.compare_reports(baseline, current)
        assert problems == [
            "scale.1520.serves_served regressed: baseline "
            f"{baseline['scale']['1520']['serves_served']} vs "
            f"{baseline['scale']['1520']['serves_served'] + 1}"
        ]

    def test_stance_sweep_drift_fails(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["stances"]["windowed"]["raised"] -= 1
        current["stances"]["windowed"]["violations"]["fault-capacity"] = 1
        current["stances"]["windowed"]["wall_time_seconds"] *= 100
        problems = bench.compare_reports(baseline, current)
        assert [p.split(" regressed")[0] for p in problems] == [
            "stances.windowed.raised",
            "stances.windowed.violations",
        ]

    def test_online_outcome_drift_fails(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["online"]["requests_lost_windowed"] += 1
        current["online"]["retries"] += 1
        problems = bench.compare_reports(baseline, current)
        assert any("online.requests_lost_windowed" in p for p in problems)
        assert any("online.retries" in p for p in problems)

    def test_online_timing_does_not_gate(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["online"]["wall_time_seconds"] *= 100
        current["online"]["amendment_seconds_max"] *= 100
        current["online"]["amendment_seconds_mean"] *= 100
        assert bench.compare_reports(baseline, current) == []

    def test_horizon_outcome_drift_fails(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["horizon"]["psi_total_dollars"] += 0.01
        current["horizon"]["migrations_accepted"] += 1
        problems = bench.compare_reports(baseline, current)
        assert any("horizon.psi_total_dollars" in p for p in problems)
        assert any("horizon.migrations_accepted" in p for p in problems)

    def test_horizon_trajectory_drift_fails(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["horizon"]["psi_trajectory"][0] += 1.0
        problems = bench.compare_reports(baseline, current)
        assert any("horizon.psi_trajectory" in p for p in problems)

    def test_horizon_timing_does_not_gate(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        current["horizon"]["wall_time_seconds"] *= 100
        assert bench.compare_reports(baseline, current) == []

    def test_every_gated_key_fails_alone(self, bench, baseline):
        for path, keys in bench._GATED_SECTIONS:
            label = ".".join(path)
            for key in keys:
                current = json.loads(json.dumps(baseline))
                section = current
                for name in path:
                    section = section[name]
                section[key] = "drifted"
                problems = bench.compare_reports(baseline, current)
                assert len(problems) == 1, (label, key, problems)
                assert problems[0].startswith(f"{label}.{key} regressed")

    def test_missing_section_fails(self, bench, baseline):
        current = json.loads(json.dumps(baseline))
        del current["gateway"]
        problems = bench.compare_reports(baseline, current)
        assert len(problems) == len(bench._DETERMINISTIC_GATEWAY_KEYS)
        assert all(p.startswith("gateway.") for p in problems)


class TestCommittedBaseline:
    def test_baseline_has_the_gating_keys(self, bench, baseline):
        assert baseline["benchmark"] == "phase1_speedup"
        for key in bench._DETERMINISTIC_SOLVE_KEYS:
            assert key in baseline["solve"]
        for key in bench._CONFIG_KEYS:
            assert key in baseline["config"]
        assert baseline["config"]["quick"] is True

    def test_baseline_has_the_recovery_keys(self, bench, baseline):
        for key in bench._DETERMINISTIC_RECOVERY_KEYS:
            assert key in baseline["recovery"]
        assert "wall_time_seconds" in baseline["recovery"]
        assert "wall_time_seconds" in baseline["sorp"]
        # the committed drill must demonstrate survivable warehouse loss
        assert baseline["recovery"]["requests_saved"] >= 1

    def test_baseline_has_the_online_keys(self, bench, baseline):
        for key in bench._DETERMINISTIC_ONLINE_KEYS:
            assert key in baseline["online"]
        assert "wall_time_seconds" in baseline["online"]
        # the committed drill must exercise the retry path...
        assert baseline["online"]["failures_injected"] >= 1
        assert baseline["online"]["retries"] >= 1
        # ...and an outage that costs requests
        assert baseline["online"]["requests_lost_windowed"] >= 1

    def test_baseline_has_every_gated_key(self, bench, baseline):
        for path, keys in bench._GATED_SECTIONS:
            section = baseline
            for name in path:
                section = section[name]
            for key in keys:
                assert key in section, (path, key)

    def test_baseline_has_the_scale_points(self, bench, baseline):
        assert sorted(baseline["scale"], key=int) == [
            str(n) for n in bench._SCALE_REQUESTS
        ]
        for point in baseline["scale"].values():
            assert "wall_time_seconds" in point
            # one victim per round, and the sweep exercises trial resumes
            assert point["rounds"] == point["victims"] > 0
            assert point["trials_resumed"] > 0 and point["serves_kept"] > 0

    def test_baseline_has_the_horizon_keys(self, bench, baseline):
        for key in bench._DETERMINISTIC_HORIZON_KEYS:
            assert key in baseline["horizon"]
        assert "wall_time_seconds" in baseline["horizon"]
        # the committed drill must accept a migration, pay real staging,
        # resume an interrupted stream, and beat the frozen-map horizon
        assert baseline["horizon"]["migrations_accepted"] >= 1
        assert baseline["horizon"]["staging_dollars"] > 0
        assert baseline["horizon"]["resumed"] >= 1
        assert (
            baseline["horizon"]["psi_total_dollars"]
            <= baseline["horizon"]["psi_frozen_dollars"]
        )
