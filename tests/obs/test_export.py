"""Exporter tests: Prometheus text, JSON snapshot, JSONL trace."""

import json

import pytest

from repro.obs import Observability
from repro.obs.export import (
    json_snapshot,
    prometheus_text,
    write_metrics,
    write_trace_jsonl,
)


@pytest.fixture
def populated_obs():
    obs = Observability.on()
    obs.metrics.counter(
        "vor_deliveries_total", help="Deliveries scheduled"
    ).inc(5)
    obs.metrics.gauge(
        "vor_storage_peak_reserved_bytes", mode="max", location="IS1"
    ).set(2.5e9)
    h = obs.metrics.histogram("vor_requests_per_video", boundaries=(1, 10))
    h.observe(3)
    h.observe(40)
    with obs.tracer.span("solve", requests=5):
        with obs.tracer.span("ivsp"):
            pass
    return obs


class TestPrometheusText:
    def test_headers_and_series(self, populated_obs):
        text = prometheus_text(populated_obs.metrics)
        assert "# HELP vor_deliveries_total Deliveries scheduled" in text
        assert "# TYPE vor_deliveries_total counter" in text
        assert "vor_deliveries_total 5" in text
        assert (
            'vor_storage_peak_reserved_bytes{location="IS1"} 2.5e+09' in text
        )

    def test_histogram_buckets_cumulative_with_inf(self, populated_obs):
        text = prometheus_text(populated_obs.metrics)
        assert 'vor_requests_per_video_bucket{le="1"} 0' in text
        assert 'vor_requests_per_video_bucket{le="10"} 1' in text
        assert 'vor_requests_per_video_bucket{le="+Inf"} 2' in text
        assert "vor_requests_per_video_sum 43" in text
        assert "vor_requests_per_video_count 2" in text

    def test_label_values_escaped(self):
        obs = Observability.on()
        obs.metrics.counter("c_total", path='we"ird\\name').inc()
        text = prometheus_text(obs.metrics)
        assert r'path="we\"ird\\name"' in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(Observability.on().metrics) == ""


class TestPrometheusEscaping:
    """Label-value escaping per the text exposition format."""

    @staticmethod
    def _render(value):
        obs = Observability.on()
        obs.metrics.counter("c_total", path=value).inc()
        return prometheus_text(obs.metrics)

    def test_backslashes(self):
        assert r'path="a\\b"' in self._render("a\\b")

    def test_newlines(self):
        text = self._render("line1\nline2")
        assert r'path="line1\nline2"' in text
        # no raw newline may survive inside a label value
        for line in text.splitlines():
            assert not line.startswith("line2")

    def test_quotes(self):
        assert r'path="say \"hi\""' in self._render('say "hi"')

    def test_backslash_escaped_before_quote(self):
        # a pre-escaped quote in the value must not collapse: the
        # backslash pass runs first, so \" renders as \\\"
        assert 'path="\\\\\\""' in self._render('\\"')

    def test_all_three_combined(self):
        text = self._render('a\\b"c\nd')
        assert r'path="a\\b\"c\nd"' in text


class TestPrometheusOrdering:
    """# TYPE line order is sorted-by-name, not registration order."""

    def test_type_lines_sorted(self):
        obs = Observability.on()
        for name in ("z_total", "a_total", "m_total"):
            obs.metrics.counter(name).inc()
        names = [
            line.split()[2]
            for line in prometheus_text(obs.metrics).splitlines()
            if line.startswith("# TYPE")
        ]
        assert names == sorted(names) == ["a_total", "m_total", "z_total"]

    def test_registration_order_does_not_change_output(self):
        def build(order):
            obs = Observability.on()
            for name in order:
                obs.metrics.counter(name, help=f"{name} help").inc()
            return prometheus_text(obs.metrics)

        assert build(("z_total", "a_total")) == build(("a_total", "z_total"))


class TestJsonSnapshot:
    def test_layout(self, populated_obs):
        doc = json.loads(json_snapshot(populated_obs.telemetry()))
        assert set(doc) == {"metrics", "phases", "spans"}
        assert doc["metrics"]["vor_deliveries_total"]["kind"] == "counter"
        assert doc["phases"]["ivsp"]["count"] == 1
        names = [s["name"] for s in doc["spans"]]
        assert names == ["ivsp", "solve"]  # completion order


class TestWriteMetrics:
    def test_json_suffix_writes_telemetry_bundle(self, populated_obs, tmp_path):
        path = write_metrics(tmp_path / "metrics.json", populated_obs)
        doc = json.loads(path.read_text())
        assert "phases" in doc and "metrics" in doc

    def test_prom_suffix_writes_exposition(self, populated_obs, tmp_path):
        path = write_metrics(tmp_path / "metrics.prom", populated_obs)
        assert "# TYPE vor_deliveries_total counter" in path.read_text()

    def test_prom_from_snapshot_rejected(self, populated_obs, tmp_path):
        with pytest.raises(ValueError, match="live"):
            write_metrics(tmp_path / "m.prom", populated_obs.telemetry())


class TestWriteTraceJsonl:
    def test_one_line_per_span(self, populated_obs, tmp_path):
        path = write_trace_jsonl(
            tmp_path / "trace.jsonl", populated_obs.tracer.records
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["name"] == "ivsp"
        assert parsed[0]["parent"] == "solve"
        assert parsed[1]["attrs"] == {"requests": 5}
