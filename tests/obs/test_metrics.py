"""Unit tests for the metrics registry: instruments, labels, snapshots."""

import pickle

import pytest

from repro.obs.metrics import (
    COUNT_BUCKETS,
    DOLLAR_BUCKETS,
    Histogram,
    MetricsError,
    MetricsRegistry,
    MetricsTape,
    NullRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError, match=">= 0"):
            reg.counter("hits_total").inc(-1)

    def test_labelled_children_are_independent(self):
        reg = MetricsRegistry()
        reg.counter("evals_total", phase="sorp").inc(3)
        reg.counter("evals_total", phase="costing").inc(7)
        assert reg.counter("evals_total", phase="sorp").value == 3
        assert reg.counter("evals_total", phase="costing").value == 7

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("x_total", a="1", b="2").inc()
        assert reg.counter("x_total", b="2", a="1").value == 1


class TestGauge:
    def test_last_mode_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("cost")
        g.set(5.0)
        g.set(3.0)
        assert g.value == 3.0

    def test_max_mode_keeps_peak_on_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("peak", mode="max")
        g.set(5.0)
        g.set(3.0)
        assert g.value == 5.0

    def test_unknown_mode_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError, match="mode"):
            reg.gauge("g", mode="avg")


class TestHistogram:
    def test_observe_buckets_by_upper_bound(self):
        h = Histogram((1, 10, 100))
        for v in (0.5, 1, 5, 50, 5000):
            h.observe(v)
        assert h.bucket_counts() == {"1": 2, "10": 1, "100": 1, "+Inf": 1}
        assert h.count == 5
        assert h.sum == pytest.approx(5056.5)

    def test_cumulative_counts_are_prometheus_style(self):
        h = Histogram((1, 10))
        h.observe(0.5)
        h.observe(5)
        h.observe(500)
        assert h.cumulative_counts() == [("1", 1), ("10", 2), ("+Inf", 3)]

    def test_boundaries_must_increase(self):
        with pytest.raises(MetricsError, match="increasing"):
            Histogram((10, 1))
        with pytest.raises(MetricsError, match="increasing"):
            Histogram((1, 1))


class TestRegistrySpecConflicts:
    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricsError, match="incompatibly"):
            reg.gauge("x")

    def test_gauge_mode_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.gauge("g", mode="max")
        with pytest.raises(MetricsError, match="incompatibly"):
            reg.gauge("g", mode="last")

    def test_histogram_boundary_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", boundaries=COUNT_BUCKETS)
        with pytest.raises(MetricsError, match="incompatibly"):
            reg.histogram("h", boundaries=DOLLAR_BUCKETS)

    def test_compatible_reregistration_returns_same_child(self):
        reg = MetricsRegistry()
        reg.counter("x", help="first").inc()
        reg.counter("x").inc()
        assert reg.counter("x").value == 2


class TestSnapshot:
    def test_snapshot_flags_deterministic_families(self):
        reg = MetricsRegistry()
        reg.counter("work_total").inc()
        reg.counter("cache_hits_total", deterministic=False).inc()
        full = reg.snapshot()
        assert set(full) == {"work_total", "cache_hits_total"}
        assert full["work_total"]["deterministic"] is True
        assert full["cache_hits_total"]["deterministic"] is False

    def test_snapshot_is_json_shaped(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c_total", phase="ivsp").inc(2)
        reg.histogram("h", boundaries=(1, 10)).observe(5)
        dumped = json.loads(json.dumps(reg.snapshot()))
        assert dumped["c_total"]["values"][0]["labels"] == {"phase": "ivsp"}
        assert dumped["h"]["values"][0]["buckets"] == {"1": 0, "10": 1, "+Inf": 0}


class TestNullRegistry:
    def test_disabled_and_inert(self):
        null = NullRegistry()
        assert not null.enabled
        null.counter("x").inc()
        null.gauge("g").set(1.0)
        null.histogram("h").observe(2.0)
        assert null.snapshot() == {}
        assert list(null.families()) == []

    def test_shared_instruments(self):
        null = NullRegistry()
        assert null.counter("a") is null.counter("b")
        assert null.gauge("a") is null.gauge("b", anything="goes")


class TestMetricsTape:
    @staticmethod
    def _record(reg):
        reg.counter("dollars_total", help="spend").inc(0.2)
        reg.counter("dollars_total").inc(0.3)
        for v in (3.0, 1.0):
            reg.gauge("peak", mode="max", site="a").set(v)
        reg.gauge("share", mode="max").set(0.7)
        reg.gauge("share", mode="max").set(0.1)
        reg.histogram("overhead", boundaries=DOLLAR_BUCKETS)  # no observation
        reg.histogram("size", boundaries=COUNT_BUCKETS).observe(0.3)

    def test_replay_equals_recording_directly(self):
        """Replayed after earlier values, the registry matches one that
        recorded the same calls at that point: float sums keep their
        order ((0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)), gauge modes apply
        per value, and an accessed but unobserved family is registered."""
        direct, replayed = MetricsRegistry(), MetricsRegistry()
        for reg in (direct, replayed):
            reg.counter("dollars_total").inc(0.1)
            reg.gauge("share", mode="max").set(0.5)
        self._record(direct)
        tape = MetricsTape()
        self._record(tape)
        assert replayed.snapshot() != direct.snapshot()  # nothing yet
        tape.replay(replayed)
        assert replayed.snapshot() == direct.snapshot()
        assert replayed.snapshot()["overhead"]["values"][0]["count"] == 0
        (spend,) = replayed.snapshot()["dollars_total"]["values"]
        assert spend["value"].hex() == ((0.1 + 0.2) + 0.3).hex()

    def test_tape_is_a_live_registry(self):
        assert MetricsTape.enabled


class TestPickling:
    def test_registry_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c_total", phase="ivsp").inc(3)
        reg.gauge("peak", mode="max").set(7.0)
        reg.histogram("h", boundaries=(1, 10)).observe(5)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.snapshot() == reg.snapshot()
