"""The run-gateway CLI: replay determinism, diagnostics, dashboards."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

from ..cli_env import assert_usage_error, paper_env


class TestRunGateway:
    def test_generated_feed_runs_feasible(self, capsys, tmp_path):
        env = paper_env(tmp_path, requests=False)
        assert main(["run-gateway", str(env), "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "gateway for" in out
        assert "gateway run feasible" in out
        assert "objective" in out  # the SLO verdict table rendered

    def test_requires_environment_path(self, capsys):
        assert_usage_error(capsys, ["run-gateway"], "required: env_file")

    def test_replay_is_byte_identical(self, capsys, tmp_path):
        env = paper_env(tmp_path, requests=False)
        feed = tmp_path / "feed.jsonl"
        assert (
            main(
                [
                    "run-gateway", str(env), "--seed", "2",
                    "--request-feed-out", str(feed),
                ]
            )
            == 0
        )
        artifacts = []
        for tag in ("a", "b"):
            report = tmp_path / f"report-{tag}.json"
            journal = tmp_path / f"journal-{tag}.jsonl"
            assert (
                main(
                    [
                        "run-gateway", str(env),
                        "--request-feed", str(feed),
                        "--policy", "rate-limit:0.001:3",
                        "--max-batch", "20", "--queue-depth", "5",
                        "--seals", "2",
                        "--gateway-report-out", str(report),
                        "--journal-out", str(journal),
                    ]
                )
                == 0
            )
            artifacts.append((report.read_bytes(), journal.read_bytes()))
        capsys.readouterr()
        assert artifacts[0] == artifacts[1]

    def test_report_document_shape(self, capsys, tmp_path):
        env = paper_env(tmp_path, requests=False)
        report = tmp_path / "report.json"
        assert (
            main(
                [
                    "run-gateway", str(env), "--seed", "2",
                    "--gateway-report-out", str(report),
                ]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads(report.read_text())
        det = doc["deterministic"]
        assert doc["feasible"] is True
        assert det["offered"] > 0
        assert det["admitted"] > 0
        assert len(det["cycles"]) == 1
        assert "gateway_admission_ratio" in doc["slo"]["indicators"]

    def test_slo_check_regates_against_the_embedded_gateway_policy(
        self, capsys, tmp_path
    ):
        # a price ceiling nothing meets admits no booking: the run breaches
        # the gateway policy, and slo-check without --slo must re-gate
        # against that policy (embedded in the report), not the online one
        env = paper_env(tmp_path, requests=False)
        report = tmp_path / "report.json"
        assert main([
            "run-gateway", str(env), "--seed", "2", "--users", "1",
            "--policy", "price-ceiling:0.0001",
            "--gateway-report-out", str(report),
        ]) == 0
        assert "slo: BREACHED" in capsys.readouterr().out
        assert main(["slo-check", str(report)]) == 1
        out = capsys.readouterr().out
        assert "BREACHED" in out and "gateway-admission-ratio" in out

    def test_invalid_feed_diagnosed(self, tmp_path):
        env = paper_env(tmp_path, requests=False)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit, match="invalid --request-feed"):
            main(["run-gateway", str(env), "--request-feed", str(bad)])

    def test_invalid_policy_diagnosed(self, tmp_path):
        env = paper_env(tmp_path, requests=False)
        with pytest.raises(SystemExit, match="invalid gateway options"):
            main(
                [
                    "run-gateway", str(env), "--seed", "2",
                    "--policy", "warp-drive",
                ]
            )

    def test_invalid_seals_diagnosed(self, tmp_path):
        env = paper_env(tmp_path, requests=False)
        with pytest.raises(SystemExit, match="--seals"):
            main(["run-gateway", str(env), "--seed", "2", "--seals", "0"])


class TestGatewayDashboard:
    def test_report_renders_gateway_sections(self, capsys, tmp_path):
        env = paper_env(tmp_path, requests=False)
        report = tmp_path / "report.json"
        journal = tmp_path / "journal.jsonl"
        assert (
            main(
                [
                    "run-gateway", str(env), "--seed", "2",
                    "--gateway-report-out", str(report),
                    "--journal-out", str(journal),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "report",
                    "--gateway-report", str(report),
                    "--journal", str(journal),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "gateway cycles" in out
        assert "gateway summary" in out
        assert "gate-admitted" in out

    def test_stale_journal_exits_with_taxonomy_message(self, tmp_path):
        stale = tmp_path / "stale.jsonl"
        stale.write_text(
            json.dumps({"seq": 0, "event": "warp-drive", "attrs": {}}) + "\n"
        )
        with pytest.raises(SystemExit, match="event taxonomy") as excinfo:
            main(["report", "--journal", str(stale)])
        assert "cannot load --journal" in str(excinfo.value)
        assert "re-export" in str(excinfo.value)
