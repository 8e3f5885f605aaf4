"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

from .cli_env import horizon_env, paper_env


def _tight_link_env(tmp_path):
    """An environment the base scheduler solves but that breaks the links.

    Two different videos stream to IS1 at the same instant over a link that
    only fits 1.5 streams; the scheduler ignores link bandwidth, so its
    schedule fails end-to-end validation.
    """
    from repro import (
        Request,
        RequestBatch,
        Topology,
        VideoCatalog,
        VideoFile,
        units,
    )
    from repro.io import save_environment

    size, playback = units.gb(2.5), units.minutes(90)
    stream_bw = size / playback
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage(
        "IS1", srate=units.per_gb_hour(5), capacity=units.gb(50)
    )
    topo.add_edge(
        "VW", "IS1", nrate=units.per_gb(500), bandwidth=1.5 * stream_bw
    )
    catalog = VideoCatalog(
        [VideoFile(v, size=size, playback=playback) for v in ("v0", "v1")]
    )
    batch = RequestBatch(
        [
            Request(units.HOUR, "v0", "u1", "IS1"),
            Request(units.HOUR, "v1", "u2", "IS1"),
        ]
    )
    path = tmp_path / "tight.json"
    save_environment(path, topology=topo, catalog=catalog, batch=batch)
    return path


class TestCli:
    def test_worked_example(self, capsys):
        assert main(["worked-example"]) == 0
        out = capsys.readouterr().out
        assert "259.200" in out and "138.975" in out

    def test_fig7_quick(self, capsys):
        assert main(["fig7", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "fig7" in captured.out
        assert "network only system" in captured.out
        # the status line is logging output, not part of the artifact
        assert "completed in" in captured.err

    def test_fig9_quick(self, capsys):
        assert main(["fig9", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "IS size=" in out

    def test_seed_flag(self, capsys):
        assert main(["fig7", "--quick", "--seed", "7"]) == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figZZZ"])

    def test_gap(self, capsys):
        assert main(["gap"]) == 0
        out = capsys.readouterr().out
        assert "optimum" in out

    def test_run_env(self, capsys, tmp_path):
        assert main(["run-env", str(paper_env(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "total cost" in out
        assert "network-only baseline" in out

    def test_run_env_requires_path(self):
        with pytest.raises(SystemExit, match="requires"):
            main(["run-env"])

    def test_run_env_requires_requests(self, tmp_path):
        path = paper_env(tmp_path, requests=False)
        with pytest.raises(SystemExit, match="requests"):
            main(["run-env", str(path)])

    def test_run_env_exits_nonzero_on_infeasible(self, capsys, tmp_path):
        path = _tight_link_env(tmp_path)
        assert main(["run-env", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INFEASIBLE" in out
        assert "[bandwidth]" in out

    def test_simulate(self, capsys, tmp_path):
        path = paper_env(tmp_path)
        assert main(["simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "events replayed" in out
        assert "feasible: no violations" in out

    def test_simulate_exits_nonzero_on_infeasible(self, capsys, tmp_path):
        path = _tight_link_env(tmp_path)
        assert main(["simulate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INFEASIBLE" in out
        assert "feasible: no violations" not in out

    def test_run_faults_generated_scenario(self, capsys, tmp_path):
        path = paper_env(tmp_path)
        scenario = tmp_path / "scenario.json"
        report = tmp_path / "drill.json"
        assert (
            main(
                [
                    "run-faults",
                    str(path),
                    "--seed",
                    "3",
                    "--scenario-out",
                    str(scenario),
                    "--report-out",
                    str(report),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fault drill" in out
        assert "recovery feasible" in out
        # the generated scenario replays: loading it gives the same plan
        from repro import FaultPlan

        plan = FaultPlan.load(scenario)
        assert len(plan) == 3 and plan.seed == 3
        doc = json.loads(report.read_text())
        assert set(doc) == {
            "environment",
            "degraded",
            "recovery",
            "patched_violations",
        }
        assert doc["patched_violations"] == []
        assert doc["recovery"]["plan"] == plan.to_dict()

    def test_run_faults_from_scenario_file(self, capsys, tmp_path):
        from repro import FaultKind, FaultPlan, FaultSpec, units

        path = paper_env(tmp_path)
        scenario = tmp_path / "outage.json"
        FaultPlan(
            (
                FaultSpec(
                    kind=FaultKind.IS_OUTAGE,
                    target="IS1",
                    t_start=0.0,
                    t_end=2 * units.DAY,
                ),
            ),
            name="is1-outage",
        ).save(scenario)
        assert (
            main(["run-faults", str(path), "--scenario", str(scenario)]) == 0
        )
        out = capsys.readouterr().out
        assert "is1-outage" in out
        assert "recovery feasible" in out

    def test_run_faults_requires_path(self):
        with pytest.raises(SystemExit, match="requires"):
            main(["run-faults"])

    def test_run_online_generated_feed(self, capsys, tmp_path):
        path = paper_env(tmp_path)
        feed_out = tmp_path / "feed.jsonl"
        report_out = tmp_path / "online.json"
        assert (
            main(
                [
                    "run-online",
                    str(path),
                    "--seed",
                    "3",
                    "--feed-events",
                    "3",
                    "--feed-out",
                    str(feed_out),
                    "--online-report-out",
                    str(report_out),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "online drill" in out
        assert "online run alive" in out
        from repro import FaultFeed

        feed = FaultFeed.load(feed_out)
        assert len(feed) == 3 and feed.seed == 3
        doc = json.loads(report_out.read_text())
        assert doc["alive"] is True and doc["final_feasible"] is True
        assert doc["deterministic"]["events_total"] == 3

    def test_run_online_replay_is_deterministic(self, tmp_path):
        path = paper_env(tmp_path)
        docs = []
        for i in range(2):
            report_out = tmp_path / f"online{i}.json"
            assert (
                main(
                    [
                        "run-online",
                        str(path),
                        "--seed",
                        "5",
                        "--inject-failures",
                        "0:1",
                        "--max-retries",
                        "1",
                        "--online-report-out",
                        str(report_out),
                    ]
                )
                == 0
            )
            docs.append(json.loads(report_out.read_text()))
        assert docs[0]["deterministic"] == docs[1]["deterministic"]

    def test_run_online_injected_failures_degrade_not_crash(
        self, capsys, tmp_path
    ):
        path = paper_env(tmp_path)
        assert (
            main(
                [
                    "run-online",
                    str(path),
                    "--seed",
                    "3",
                    "--feed-events",
                    "3",
                    "--max-retries",
                    "0",
                    "--breaker-threshold",
                    "1",
                    "--breaker-cooldown",
                    "1e12",
                    "--cycle-fraction",
                    "0.5",
                    "--inject-failures",
                    "0:1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "online run alive" in out
        assert "breaker state      open" in out

    def test_run_online_from_feed_file(self, capsys, tmp_path):
        from repro import FaultFeed, FaultKind, FaultSpec, units
        from repro.faults import FaultEvent

        path = paper_env(tmp_path)
        feed_path = tmp_path / "feed.jsonl"
        FaultFeed(
            events=(
                FaultEvent(
                    at=units.HOUR,
                    fault=FaultSpec(
                        kind=FaultKind.IS_OUTAGE,
                        target="IS1",
                        t_start=2 * units.HOUR,
                        t_end=4 * units.HOUR,
                    ),
                ),
            ),
            name="drill",
        ).save(feed_path)
        assert main(["run-online", str(path), "--feed", str(feed_path)]) == 0
        out = capsys.readouterr().out
        assert "drill" in out

    def test_run_online_malformed_feed_one_line_diagnostic(self, tmp_path):
        path = paper_env(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format_version": 1, "name": "x"}\n{"oops\n')
        with pytest.raises(SystemExit) as exc:
            main(["run-online", str(path), "--feed", str(bad)])
        message = str(exc.value)
        assert message.startswith("invalid --feed")
        assert "bad.jsonl:2" in message
        assert "\n" not in message

    def test_run_online_unreadable_feed_one_line_diagnostic(self, tmp_path):
        path = paper_env(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(
                ["run-online", str(path), "--feed", str(tmp_path / "no.jsonl")]
            )
        message = str(exc.value)
        assert message.startswith("invalid --feed")
        assert "\n" not in message

    def test_run_online_requires_path(self):
        with pytest.raises(SystemExit, match="requires"):
            main(["run-online"])

    def test_run_online_bad_injection_spec(self, tmp_path):
        path = paper_env(tmp_path)
        with pytest.raises(SystemExit, match="invalid online options"):
            main(
                ["run-online", str(path), "--inject-failures", "garbage"]
            )

    def test_run_online_bad_cycle_fraction(self, tmp_path, monkeypatch):
        from repro.service import VORService

        def no_booking(*args, **kwargs):
            raise AssertionError("booked before checking --cycle-fraction")

        monkeypatch.setattr(VORService, "reserve", no_booking)
        path = paper_env(tmp_path)
        with pytest.raises(SystemExit, match="cycle-fraction"):
            main(["run-online", str(path), "--cycle-fraction", "0"])

    def test_report_writes_all_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        assert main(["report", "--quick", "--out", str(out_dir)]) == 0
        written = {p.name for p in out_dir.iterdir()}
        for expected in (
            "worked_example.txt",
            "fig5.txt",
            "fig9.txt",
            "table5.txt",
            "optimality_gap.txt",
            "ablation_bandwidth.txt",
            "INDEX.txt",
        ):
            assert expected in written
        assert "259.200" in (out_dir / "worked_example.txt").read_text()


class TestRunHorizon:
    def test_writes_report_with_deterministic_slice(self, capsys, tmp_path):
        path = horizon_env(tmp_path)
        report_out = tmp_path / "horizon.json"
        assert main([
            "run-horizon", str(path),
            "--cycles", "2", "--users", "2", "--seed", "2",
            "--horizon-report-out", str(report_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "horizon" in out
        doc = json.loads(report_out.read_text())
        det = doc["deterministic"]
        assert det["feasible"] is True
        assert len(det["cycles"]) == 2
        assert det["total_psi"] > 0
        assert doc["migration"] is True
        assert doc["cycles_requested"] == 2

    def test_no_migrate_freezes_the_replica_map(self, capsys, tmp_path):
        path = horizon_env(tmp_path)
        report_out = tmp_path / "frozen.json"
        assert main([
            "run-horizon", str(path),
            "--cycles", "2", "--users", "2", "--seed", "2",
            "--no-migrate",
            "--horizon-report-out", str(report_out),
        ]) == 0
        doc = json.loads(report_out.read_text())
        assert doc["migration"] is False
        assert doc["deterministic"]["migrations_accepted"] == 0
        assert doc["deterministic"]["staging_cost"] == 0

    def test_replay_is_byte_identical(self, capsys, tmp_path):
        path = horizon_env(tmp_path)
        outs = []
        for i in (1, 2):
            report_out = tmp_path / f"horizon-{i}.json"
            journal_out = tmp_path / f"journal-{i}.jsonl"
            assert main([
                "run-horizon", str(path),
                "--cycles", "2", "--users", "2", "--seed", "2",
                "--horizon-report-out", str(report_out),
                "--journal-out", str(journal_out),
            ]) == 0
            outs.append(
                (report_out.read_bytes(), journal_out.read_bytes())
            )
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_report_dashboard_renders_horizon_section(
        self, capsys, tmp_path
    ):
        path = horizon_env(tmp_path)
        report_out = tmp_path / "horizon.json"
        assert main([
            "run-horizon", str(path),
            "--cycles", "2", "--users", "2", "--seed", "2",
            "--horizon-report-out", str(report_out),
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--horizon-report", str(report_out)]) == 0
        out = capsys.readouterr().out
        assert "horizon cycles" in out
        assert "total psi" in out

    def test_requires_environment_path(self):
        with pytest.raises(SystemExit, match="environment"):
            main(["run-horizon"])

    def test_feed_out_without_feed_exits(self, tmp_path):
        path = horizon_env(tmp_path)
        out = tmp_path / "feed.jsonl"
        with pytest.raises(SystemExit, match="--feed-out needs --feed") as exc:
            main(["run-horizon", str(path), "--feed-out", str(out)])
        assert "\n" not in str(exc.value)
        assert not out.exists()
