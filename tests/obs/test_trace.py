"""Unit tests for span tracing: nesting, attributes, absorption."""

import pytest

from repro.obs.trace import NullTracer, SpanRecord, Tracer, NULL_TRACER


class FakeClock:
    """Deterministic clock: each read advances one second."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class TestTracer:
    def test_records_name_and_duration(self):
        tracer = Tracer(FakeClock())
        with tracer.span("solve", requests=3):
            pass
        (record,) = tracer.records
        assert record.name == "solve"
        assert record.duration == 1.0  # one clock tick inside the span
        assert record.attributes == {"requests": 3}

    def test_nesting_sets_parent(self):
        tracer = Tracer(FakeClock())
        with tracer.span("solve"):
            with tracer.span("ivsp"):
                with tracer.span("ivsp.video"):
                    pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["solve"].parent is None
        assert by_name["ivsp"].parent == "solve"
        assert by_name["ivsp.video"].parent == "ivsp"

    def test_completion_order_is_inner_first(self):
        tracer = Tracer(FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [r.name for r in tracer.records] == ["inner", "outer"]

    def test_set_attaches_late_attributes(self):
        tracer = Tracer(FakeClock())
        with tracer.span("sorp", residencies=4) as span:
            span.set(iterations=2, victims=1)
        (record,) = tracer.records
        assert record.attributes == {
            "residencies": 4,
            "iterations": 2,
            "victims": 1,
        }

    def test_exception_recorded_with_error_attr(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("solve"):
                raise ValueError("boom")
        (record,) = tracer.records
        assert record.attributes["error"] == "ValueError"
        assert tracer._stack == []  # stack unwound despite the raise

    def test_counts(self):
        tracer = Tracer(FakeClock())
        for _ in range(3):
            with tracer.span("ivsp.video"):
                pass
        with tracer.span("ivsp"):
            pass
        assert tracer.counts() == {"ivsp": 1, "ivsp.video": 3}

    def test_span_record_to_dict_round_trips_json(self):
        import json

        record = SpanRecord(
            "solve", 0.5, 1.5, parent=None, attrs=(("requests", 3),)
        )
        dumped = json.loads(json.dumps(record.to_dict()))
        assert dumped == {
            "name": "solve",
            "start": 0.5,
            "duration": 1.5,
            "parent": None,
            "attrs": {"requests": 3},
            "span_id": 0,
            "parent_id": 0,
        }


class TestNullTracer:
    def test_inert(self):
        null = NullTracer()
        assert not null.enabled
        with null.span("anything", x=1) as span:
            span.set(y=2)
        assert null.records == ()
        assert null.counts() == {}

    def test_shared_span_object(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
