"""Critical-path reduction over stitched span trees."""

import pytest

from repro.obs import Observability
from repro.obs.critpath import (
    critical_paths,
    format_critical_path,
    format_critical_paths,
)
from repro.obs.trace import SpanRecord


def _span(name, span_id, parent_id, duration, start=0.0):
    return SpanRecord(
        name=name,
        start=start,
        duration=duration,
        parent=None,
        span_id=span_id,
        parent_id=parent_id,
    )


@pytest.fixture
def tree():
    # solve(1.0) -> ivsp(0.7) -> video-a(0.5), video-b(0.1); sorp(0.2)
    return (
        _span("solve", 1, 0, 1.0),
        _span("ivsp", 2, 1, 0.7, start=0.0),
        _span("video-a", 3, 2, 0.5, start=0.0),
        _span("video-b", 4, 2, 0.1, start=0.5),
        _span("sorp", 5, 1, 0.2, start=0.7),
    )


class TestDescent:
    def test_follows_longest_child_chain(self, tree):
        (path,) = critical_paths(tree)
        assert [s.name for s in path.steps] == ["solve", "ivsp", "video-a"]
        assert [s.depth for s in path.steps] == [0, 1, 2]

    def test_shares_relative_to_root(self, tree):
        (path,) = critical_paths(tree)
        assert path.steps[0].share == 1.0
        assert path.steps[1].share == pytest.approx(0.7)
        assert path.total_seconds == 1.0

    def test_self_time_subtracts_direct_children(self, tree):
        (path,) = critical_paths(tree)
        by_name = {s.name: s for s in path.steps}
        assert by_name["solve"].self_time == pytest.approx(0.1)  # 1.0-0.7-0.2
        assert by_name["ivsp"].self_time == pytest.approx(0.1)  # 0.7-0.5-0.1
        assert by_name["video-a"].self_time == pytest.approx(0.5)  # leaf

    def test_dominant_is_largest_self_time(self, tree):
        (path,) = critical_paths(tree)
        assert path.dominant.name == "video-a"

    def test_duration_ties_break_by_start_then_name(self):
        records = (
            _span("root", 1, 0, 1.0),
            _span("late", 2, 1, 0.4, start=0.5),
            _span("early", 3, 1, 0.4, start=0.1),
        )
        (path,) = critical_paths(records)
        assert [s.name for s in path.steps] == ["root", "early"]


class TestRootsAndOrphans:
    def test_one_path_per_root_longest_first(self):
        records = (
            _span("small", 1, 0, 0.2),
            _span("big", 2, 0, 0.9),
        )
        paths = critical_paths(records)
        assert [p.root.name for p in paths] == ["big", "small"]

    def test_orphan_parent_id_treated_as_root(self):
        # a parent_id that matches no record (truncated trace) roots the span
        records = (_span("stray", 7, 99, 0.3),)
        (path,) = critical_paths(records)
        assert path.root.name == "stray"

    def test_legacy_records_without_ids_are_single_step_roots(self):
        records = (
            SpanRecord(name="old-a", start=0.0, duration=0.5),
            SpanRecord(name="old-b", start=0.0, duration=0.2),
        )
        paths = critical_paths(records)
        assert [p.root.name for p in paths] == ["old-a", "old-b"]
        assert all(len(p.steps) == 1 for p in paths)

    def test_empty_trace(self):
        assert critical_paths(()) == ()
        assert format_critical_paths(()) == "no spans recorded"


class TestRealTracerStitching:
    def test_nested_spans_reduce_to_expected_chain(self):
        obs = Observability.on()
        with obs.tracer.span("solve"):
            with obs.tracer.span("ivsp"):
                with obs.tracer.span("ivsp.video"):
                    pass
            with obs.tracer.span("sorp"):
                pass
        (path,) = critical_paths(obs.tracer.records)
        assert path.root.name == "solve"
        names = [s.name for s in path.steps]
        assert names[0] == "solve" and len(names) >= 2


class TestFormatting:
    def test_marks_hot_frame_and_indents(self, tree):
        text = format_critical_path(critical_paths(tree)[0])
        lines = text.splitlines()
        assert lines[0].startswith("critical path (1000.00 ms total)")
        hot = [line for line in lines if line.endswith(" *")]
        assert len(hot) == 1 and "video-a" in hot[0]
        assert lines[2].startswith("    ivsp")  # depth-1 indent

    def test_limit_caps_rendered_paths(self):
        records = tuple(
            _span(f"root{i}", i + 1, 0, 1.0 - i * 0.1) for i in range(5)
        )
        text = format_critical_paths(records, limit=2)
        assert text.count("critical path") == 2
