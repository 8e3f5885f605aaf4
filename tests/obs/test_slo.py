"""SLO policy evaluation, burn-rate math, and indicator derivation."""

import json
import math

import pytest

from repro.obs import Observability
from repro.obs.slo import (
    DETERMINISTIC_INDICATORS,
    SLOError,
    SLOPolicy,
    SLOSpec,
    deterministic_slice,
    online_indicators,
)


class TestSpecValidation:
    def test_valid_ops(self):
        SLOSpec("a", "x", 0.5, ">=")
        SLOSpec("b", "x", 0.5, "<=")

    def test_bad_op_rejected(self):
        with pytest.raises(SLOError, match="op"):
            SLOSpec("a", "x", 0.5, "==")

    def test_non_finite_objective_rejected(self):
        with pytest.raises(SLOError, match="finite"):
            SLOSpec("a", "x", math.inf)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SLOError, match="duplicate"):
            SLOPolicy(specs=(SLOSpec("a", "x", 0.5), SLOSpec("a", "y", 0.5)))


class TestBurnMath:
    def test_floor_objective_burn(self):
        # objective >= 0.9 leaves a 0.1 budget; value 0.95 burns half
        policy = SLOPolicy(specs=(SLOSpec("hit", "v", 0.9, ">="),))
        (r,) = policy.evaluate({"v": 0.95}).results
        assert r.met and r.status == "ok"
        assert r.burn_rate == pytest.approx(0.5)
        assert r.budget_remaining == pytest.approx(0.5)

    def test_floor_breach(self):
        policy = SLOPolicy(specs=(SLOSpec("hit", "v", 0.9, ">="),))
        (r,) = policy.evaluate({"v": 0.7}).results
        assert not r.met and r.status == "breach"
        assert r.burn_rate == pytest.approx(3.0)
        assert r.budget_remaining == 0.0

    def test_ceiling_objective_burn(self):
        policy = SLOPolicy(specs=(SLOSpec("rej", "v", 0.25, "<="),))
        (r,) = policy.evaluate({"v": 0.125}).results
        assert r.met
        assert r.burn_rate == pytest.approx(0.5)

    def test_exact_objective_met_with_budget_spent(self):
        policy = SLOPolicy(specs=(SLOSpec("rej", "v", 0.25, "<="),))
        (r,) = policy.evaluate({"v": 0.25}).results
        assert r.met
        assert r.burn_rate == pytest.approx(1.0)
        assert r.budget_remaining == 0.0

    def test_zero_budget_floor(self):
        # objective >= 1.0 has no budget: perfection burns 0, less is inf
        policy = SLOPolicy(specs=(SLOSpec("hit", "v", 1.0, ">="),))
        (ok,) = policy.evaluate({"v": 1.0}).results
        assert ok.met and ok.burn_rate == 0.0
        (bad,) = policy.evaluate({"v": 0.999}).results
        assert not bad.met and bad.burn_rate == math.inf

    def test_missing_indicator_is_no_data_pass(self):
        policy = SLOPolicy(specs=(SLOSpec("rec", "recovery_s", 30.0, "<="),))
        (r,) = policy.evaluate({}).results
        assert r.met and r.status == "no-data"
        assert r.value is None
        assert r.burn_rate == 0.0 and r.budget_remaining == 1.0

    def test_report_ok_and_breaches(self):
        policy = SLOPolicy(
            specs=(
                SLOSpec("good", "a", 0.5, ">="),
                SLOSpec("bad", "b", 0.1, "<="),
            )
        )
        report = policy.evaluate({"a": 0.9, "b": 0.9})
        assert not report.ok
        assert [r.spec.name for r in report.breaches] == ["bad"]


class TestPolicySerialization:
    def test_round_trip_via_dict(self):
        policy = SLOPolicy.default()
        again = SLOPolicy.from_dict(policy.to_dict())
        assert again == policy

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(SLOPolicy.default().to_dict()))
        assert SLOPolicy.load(path) == SLOPolicy.default()

    def test_committed_drill_policy_parses(self):
        policy = SLOPolicy.load("benchmarks/scenarios/online_slo.json")
        assert "deadline-hit-rate" in policy.names
        assert len(policy.names) == 4

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text("{nope")
        with pytest.raises(SLOError, match="cannot read"):
            SLOPolicy.load(path)

    def test_from_dict_rejects_wrong_shapes(self):
        with pytest.raises(SLOError):
            SLOPolicy.from_dict({"wrong": []})
        with pytest.raises(SLOError, match="slos\\[0\\]"):
            SLOPolicy.from_dict({"slos": [{"name": "a"}]})


class TestRecordGauges:
    def test_burn_and_budget_gauges_published(self):
        obs = Observability.on()
        policy = SLOPolicy(specs=(SLOSpec("hit", "v", 0.9, ">="),))
        policy.evaluate({"v": 0.95}).record(obs.metrics)
        snap = obs.metrics.snapshot()
        (burn,) = snap["vor_slo_burn_rate"]["values"]
        assert burn["labels"] == {"slo": "hit"}
        assert burn["value"] == pytest.approx(0.5)
        (left,) = snap["vor_slo_error_budget_remaining_ratio"]["values"]
        assert left["value"] == pytest.approx(0.5)
        assert not snap["vor_slo_burn_rate"]["deterministic"]

    def test_null_registry_untouched(self):
        policy = SLOPolicy(specs=(SLOSpec("hit", "v", 0.9, ">="),))
        policy.evaluate({"v": 0.95}).record(Observability.off().metrics)


class TestFormatReport:
    def test_renders_pass_fail_and_verdict(self):
        policy = SLOPolicy(
            specs=(
                SLOSpec("good", "a", 0.5, ">="),
                SLOSpec("bad", "b", 0.1, "<="),
            )
        )
        text = policy.evaluate({"a": 0.9, "b": 0.9}).format_report()
        assert text.startswith("slo: BREACHED (1)")
        assert "PASS  good" in text and "FAIL  bad" in text

    def test_empty_policy(self):
        assert SLOPolicy(specs=()).evaluate({}).format_report() == (
            "slo: empty policy"
        )


class _Rec:
    def __init__(self, outcome="amended", lost=0, duration_s=0.0):
        self.outcome = outcome
        self.lost = lost
        self.duration_s = duration_s


class _Run:
    def __init__(self, records, shed_total=0):
        self.records = records
        self.shed_total = shed_total
        self.batches_total = len(records)


class TestOnlineIndicators:
    def test_standard_derivation(self):
        run = _Run(
            [
                _Rec(outcome="amended", lost=1, duration_s=0.2),
                _Rec(outcome="failed", lost=2, duration_s=0.5),
            ],
            shed_total=1,
        )
        ind = online_indicators(run, reservations=20)
        assert "rejection_rate" not in ind
        assert ind["deadline_hit_rate"] == pytest.approx(0.8)  # 1-(3+1)/20
        assert ind["shed_rate"] == pytest.approx(0.05)
        assert ind["amendment_failure_rate"] == pytest.approx(0.5)
        assert ind["amendment_latency_seconds"] == pytest.approx(0.5)

    def test_hit_rate_clamped_at_zero(self):
        run = _Run([_Rec(lost=50)])
        ind = online_indicators(run, reservations=10)
        assert ind["deadline_hit_rate"] == 0.0

    def test_empty_run_yields_partial_dict(self):
        ind = online_indicators(_Run([]), reservations=0)
        assert ind == {}  # all no-data: zero reservations, zero batches

    def test_deterministic_slice_drops_latency(self):
        ind = {
            "deadline_hit_rate": 1.0,
            "amendment_latency_seconds": 0.3,
            "shed_rate": 0.0,
        }
        sliced = deterministic_slice(ind)
        assert sliced == {"deadline_hit_rate": 1.0, "shed_rate": 0.0}
        assert set(sliced) <= set(DETERMINISTIC_INDICATORS)
