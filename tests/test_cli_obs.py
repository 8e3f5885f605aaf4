"""CLI coverage for the audit journal, SLO gate, dashboard, and profiler.

Acceptance contract of the observability surfaces:

* ``--journal-out`` replayed on the same inputs produces byte-identical
  JSONL, and turning the journal on never changes the run's
  deterministic outcome;
* ``explain`` timelines are complete -- every admitted request either
  reaches a terminal event or is a legitimately still-pending
  reservation beyond the cycle close;
* ``slo-check`` exits 0/1 on pass/breach, re-gating against the policy
  the report embeds unless ``--slo`` names another;
* ``report --telemetry`` renders the dashboard and ``--profile`` writes
  a stable hotspot artifact.
"""

import json

import pytest

from repro.cli import main
from repro.obs.events import load_journal_jsonl

from .cli_env import assert_usage_error, paper_env


def _run_online(path, tmp_path, tag, *extra):
    report_out = tmp_path / f"report-{tag}.json"
    journal_out = tmp_path / f"journal-{tag}.jsonl"
    code = main(
        [
            "run-online",
            str(path),
            "--seed",
            "5",
            "--inject-failures",
            "0:1",
            "--max-retries",
            "0",
            "--breaker-threshold",
            "1",
            "--breaker-cooldown",
            "1e12",
            "--cycle-fraction",
            "0.8",
            "--online-report-out",
            str(report_out),
            "--journal-out",
            str(journal_out),
            *extra,
        ]
    )
    assert code == 0
    return report_out, journal_out


class TestJournalDeterminism:
    def test_replay_byte_identical(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        _, j1 = _run_online(path, tmp_path, "a")
        _, j2 = _run_online(path, tmp_path, "b")
        assert j1.read_bytes() == j2.read_bytes()
        assert j1.stat().st_size > 0

    def test_journal_off_outcome_identical(self, tmp_path, capsys):
        # journaling must not perturb the run: the deterministic report
        # section matches a run with no journal at all
        path = paper_env(tmp_path)
        with_journal, _ = _run_online(path, tmp_path, "on")
        report_off = tmp_path / "report-off.json"
        assert (
            main(
                [
                    "run-online",
                    str(path),
                    "--seed", "5",
                    "--inject-failures", "0:1",
                    "--max-retries", "0",
                    "--breaker-threshold", "1",
                    "--breaker-cooldown", "1e12",
                    "--cycle-fraction", "0.8",
                    "--online-report-out", str(report_off),
                ]
            )
            == 0
        )
        from repro.obs.slo import deterministic_slice

        on = json.loads(with_journal.read_text())
        off = json.loads(report_off.read_text())
        assert on["deterministic"] == off["deterministic"]
        # latency indicators are wall clock; the ratio slice must match
        assert deterministic_slice(
            on["slo"]["indicators"]
        ) == deterministic_slice(off["slo"]["indicators"])

    def test_journal_covers_lifecycle(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        _, jpath = _run_online(path, tmp_path, "mix")
        journal = load_journal_jsonl(jpath)
        counts = journal.counts()
        for kind in (
            "admitted",
            "phase1-assigned",
            "cycle-closed",
            "online-batch",
            "shed",
        ):
            assert counts.get(kind, 0) > 0, f"no {kind} events"

    def test_explain_timelines_complete(self, tmp_path, capsys):
        # every admitted request reaches phase-1 (scheduled) or shed, or
        # is a still-pending reservation starting beyond the cycle close
        path = paper_env(tmp_path)
        _, jpath = _run_online(path, tmp_path, "complete")
        journal = load_journal_jsonl(jpath)
        scheduled_starts, pending_starts = [], []
        for rid in journal.request_ids():
            events = journal.explain(rid)
            assert events, rid
            kinds = [e.kind for e in events]
            # journal order: admission precedes every other event
            assert kinds[0] in ("admitted", "rejected"), (rid, kinds)
            start = float(rid.split("@")[1].split("->")[0])
            if set(kinds) == {"admitted"}:
                # admitted-only = the still-pending tail beyond the
                # cycle close (--cycle-fraction 0.8), verified below
                pending_starts.append(start)
            else:
                assert set(kinds) & {
                    "phase1-assigned", "shed", "saved", "lost", "sorp-placed"
                }, (rid, kinds)
                if "phase1-assigned" in kinds:
                    scheduled_starts.append(start)
        # the cutoff splits cleanly: every pending reservation starts
        # after every scheduled one, so no orphan timelines exist
        assert pending_starts and scheduled_starts
        assert min(pending_starts) > max(scheduled_starts)


class TestExplainFlag:
    def test_prints_timeline_for_request(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        _, jpath = _run_online(path, tmp_path, "seed")
        rid = load_journal_jsonl(jpath).request_ids()[0]
        capsys.readouterr()
        _run_online(path, tmp_path, "explained", "--explain", rid)
        out = capsys.readouterr().out
        assert f"timeline for {rid}:" in out
        assert "admitted" in out


class TestSloSurfaces:
    def test_run_online_prints_slo_verdict(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        _run_online(path, tmp_path, "slo")
        out = capsys.readouterr().out
        assert "slo: OK" in out
        assert "deadline-hit-rate" in out

    def test_report_embeds_slo_section(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        report, _ = _run_online(path, tmp_path, "embed")
        doc = json.loads(report.read_text())
        slo = doc["slo"]
        assert set(slo) == {"indicators", "policy", "evaluation"}
        assert 0.0 <= slo["indicators"]["deadline_hit_rate"] <= 1.0
        assert slo["evaluation"]["ok"] is True

    def test_slo_check_passes_on_healthy_report(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        report, _ = _run_online(path, tmp_path, "gate")
        assert main(["slo-check", str(report)]) == 0
        assert "slo: OK" in capsys.readouterr().out

    def test_slo_check_exits_one_on_breach(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        report, _ = _run_online(path, tmp_path, "breach")
        strict = tmp_path / "strict.json"
        strict.write_text(
            json.dumps(
                {
                    "slos": [
                        {
                            "name": "impossible",
                            "indicator": "deadline_hit_rate",
                            "objective": 1.1,
                            "op": ">=",
                        }
                    ]
                }
            )
        )
        assert main(["slo-check", str(report), "--slo", str(strict)]) == 1
        assert "BREACHED" in capsys.readouterr().out

    def test_slo_check_with_committed_policy(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        report, _ = _run_online(path, tmp_path, "committed")
        assert (
            main(
                [
                    "slo-check",
                    str(report),
                    "--slo",
                    "benchmarks/scenarios/online_slo.json",
                ]
            )
            == 0
        )

    def test_slo_check_requires_path(self, capsys):
        assert_usage_error(capsys, ["slo-check"], "required: report")

    def test_slo_check_rejects_report_without_slo_section(self, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text("{}")
        with pytest.raises(SystemExit, match="slo.indicators"):
            main(["slo-check", str(bare)])

    def test_slo_check_rejects_report_without_embedded_policy(self, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"slo": {"indicators": {"shed_rate": 0}}}))
        with pytest.raises(SystemExit, match="embeds no 'slo.policy'") as exc:
            main(["slo-check", str(bare)])
        assert "\n" not in str(exc.value)

    def test_slo_check_rejects_bad_policy(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        report, _ = _run_online(path, tmp_path, "badpolicy")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SystemExit, match="invalid --slo"):
            main(["slo-check", str(report), "--slo", str(bad)])

    def test_slo_check_rejects_policy_with_bad_name(self, tmp_path):
        path = paper_env(tmp_path)
        report, _ = _run_online(path, tmp_path, "badname")
        bad = tmp_path / "bad.json"
        for name, says in (
            (["a"], "name must be a string"),
            (5, "name must be a string"),
            (None, "name must be a string"),
            ("", "non-empty string"),
        ):
            slo = {"name": name, "indicator": "shed_rate", "objective": 0.1}
            bad.write_text(json.dumps({"slos": [slo]}))
            with pytest.raises(SystemExit, match="invalid --slo") as exc:
                main(["slo-check", str(report), "--slo", str(bad)])
            assert says in str(exc.value)
            assert "\n" not in str(exc.value)


class TestDashboard:
    def test_renders_all_sections(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        metrics = tmp_path / "metrics.json"
        journal = tmp_path / "journal.jsonl"
        assert (
            main(
                [
                    "run-env",
                    str(path),
                    "--metrics-out",
                    str(metrics),
                    "--journal-out",
                    str(journal),
                ]
            )
            == 0
        )
        rid = load_journal_jsonl(journal).request_ids()[0]
        capsys.readouterr()
        assert (
            main(
                [
                    "report",
                    "--telemetry",
                    str(metrics),
                    "--journal",
                    str(journal),
                    "--explain",
                    rid,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "phase wall time" in out
        assert "critical path" in out
        assert "metrics (" in out
        assert "journal event mix" in out
        assert f"timeline for {rid}:" in out

    def test_telemetry_only(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        metrics = tmp_path / "metrics.json"
        assert (
            main(["run-env", str(path), "--metrics-out", str(metrics)]) == 0
        )
        capsys.readouterr()
        assert main(["report", "--telemetry", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "phase wall time" in out
        assert "journal event mix" not in out

    def test_missing_journal_diagnostic(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load --journal") as exc:
            main(["report", "--journal", str(tmp_path / "no.jsonl")])
        assert "cannot read journal" in str(exc.value)

    def test_unreadable_telemetry_diagnostic(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read --telemetry"):
            main(["report", "--telemetry", str(tmp_path / "no.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SystemExit, match="cannot read --telemetry") as exc:
            main(["report", "--telemetry", str(bad)])
        assert "not JSON" in str(exc.value)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize(
        "argv, content, says",
        [
            (["slo-check"], [1], "invalid report"),
            (["slo-check"], {"slo": {"indicators": {"a": "x"}}}, "invalid report"),
            (["report", "--telemetry"], [1], "invalid --telemetry"),
            (["report", "--telemetry"], {"phases": {"a": 1}}, "invalid --telemetry"),
            (["report", "--telemetry"], {"spans": [{"name": 1}]}, "invalid --telemetry"),
            (["report", "--horizon-report"], [1], "invalid --horizon-report"),
            (
                ["report", "--horizon-report"],
                {"deterministic": {"cycles": [1]}},
                "invalid --horizon-report",
            ),
            (["report", "--gateway-report"], [1], "invalid --gateway-report"),
            (
                ["report", "--gateway-report"],
                {"deterministic": {"cycles": [{"rejected": {"a": "x"}}]}},
                "invalid --gateway-report",
            ),
            (["report", "--journal"], '{"event": []}\n', "cannot load --journal"),
        ],
    )
    def test_malformed_artifact_diagnostic(self, tmp_path, argv, content, says):
        bad = tmp_path / "bad"
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
        with pytest.raises(SystemExit, match=says) as exc:
            main([*argv, str(bad)])
        assert "\n" not in str(exc.value)


class TestProfile:
    def test_cprofile_artifact(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        out = tmp_path / "profile.json"
        assert (
            main(
                [
                    "run-env",
                    str(path),
                    "--profile",
                    "cprofile",
                    "--profile-out",
                    str(out),
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["profiler"] == "cprofile"
        assert 0 < len(doc["top"]) <= 25
        for row in doc["top"]:
            assert set(row) == {"function", "ncalls", "tottime", "cumtime"}
        # deterministic ordering: hottest cumulative time first
        cums = [r["cumtime"] for r in doc["top"]]
        assert cums == sorted(cums, reverse=True)

    def test_tracemalloc_artifact(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        out = tmp_path / "mem.json"
        assert (
            main(
                [
                    "run-env",
                    str(path),
                    "--profile",
                    "tracemalloc",
                    "--profile-out",
                    str(out),
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["profiler"] == "tracemalloc"
        assert doc["top"]
        for row in doc["top"]:
            assert set(row) == {"location", "size_bytes", "count"}

    def test_no_profile_no_artifact(self, tmp_path, capsys):
        path = paper_env(tmp_path)
        out = tmp_path / "profile.json"
        assert (
            main(["run-env", str(path), "--profile-out", str(out)]) == 0
        )
        assert not out.exists()
