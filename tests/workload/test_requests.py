"""Tests for Request and RequestBatch."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Request, RequestBatch
from repro.errors import WorkloadError


def _req(t, video="v1", user="u1", loc="IS1"):
    return Request(t, video, user, loc)


class TestRequest:
    def test_fields(self):
        r = _req(10.0)
        assert (r.start_time, r.video_id, r.user_id, r.local_storage) == (
            10.0,
            "v1",
            "u1",
            "IS1",
        )

    def test_chronological_ordering(self):
        assert _req(1.0) < _req(2.0)

    def test_invalid_start_time(self):
        with pytest.raises(WorkloadError):
            _req(float("nan"))

    @pytest.mark.parametrize("field", ["video_id", "user_id", "local_storage"])
    def test_empty_strings_rejected(self, field):
        kwargs = dict(
            start_time=0.0, video_id="v", user_id="u", local_storage="IS1"
        )
        kwargs[field] = ""
        with pytest.raises(WorkloadError):
            Request(**kwargs)


def _fields(r):
    return (r.start_time, r.video_id, r.user_id, r.local_storage)


#: Few distinct values per field, so ties at every position are common.
requests = st.builds(
    Request,
    st.sampled_from([-0.0, 0.0, 1.5, 2.0, 1e9]) | st.floats(-1e6, 1e6),
    st.sampled_from(["v1", "v2", "v10"]),
    st.sampled_from(["u1", "u2"]),
    st.sampled_from(["IS1", "IS2"]),
)

ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


class TestRequestOrder:
    """The hand-written comparisons are the field-tuple order."""

    @given(a=requests, b=requests)
    @settings(max_examples=500, deadline=None)
    def test_comparisons_follow_the_field_tuple_order(self, a, b):
        for op in ORDER:
            assert op(a, b) == op(_fields(a), _fields(b))
        assert (a == b) == (_fields(a) == _fields(b))

    @given(batch=st.lists(requests, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_sorting_follows_the_field_tuple_order(self, batch):
        assert [_fields(r) for r in sorted(batch)] == sorted(map(_fields, batch))

    def test_other_types_are_not_comparable(self):
        r = _req(1.0)
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(r, name)(_fields(r)) is NotImplemented
        for op in ORDER:
            with pytest.raises(TypeError):
                op(r, 1.0)


class TestRequestBatch:
    def test_sorted_on_construction(self):
        b = RequestBatch([_req(5.0), _req(1.0), _req(3.0)])
        assert [r.start_time for r in b] == [1.0, 3.0, 5.0]

    def test_add_keeps_order(self):
        b = RequestBatch([_req(1.0), _req(5.0)])
        b.add(_req(3.0))
        assert [r.start_time for r in b] == [1.0, 3.0, 5.0]

    def test_by_video_partition(self):
        b = RequestBatch(
            [
                _req(2.0, video="a"),
                _req(1.0, video="b"),
                _req(3.0, video="a", user="u2"),
            ]
        )
        parts = b.by_video()
        assert set(parts) == {"a", "b"}
        assert [r.start_time for r in parts["a"]] == [2.0, 3.0]

    def test_by_video_cache_invalidated_on_add(self):
        b = RequestBatch([_req(1.0, video="a")])
        assert set(b.by_video()) == {"a"}
        b.add(_req(2.0, video="b"))
        assert set(b.by_video()) == {"a", "b"}

    def test_by_video_returns_copies(self):
        b = RequestBatch([_req(1.0, video="a")])
        b.by_video()["a"].append("junk")
        assert b.by_video()["a"] == [_req(1.0, video="a")]

    def test_for_missing_video_empty(self):
        assert "zzz" not in RequestBatch().by_video()
        assert "zzz" not in RequestBatch([_req(1.0, video="a")]).by_video()

    def test_video_ids_first_seen_order(self):
        b = RequestBatch([_req(2.0, video="b"), _req(1.0, video="a")])
        assert b.video_ids == ["a", "b"]

    def test_span(self):
        b = RequestBatch([_req(4.0), _req(1.5)])
        assert b.span == (1.5, 4.0)

    def test_empty_span_raises(self):
        with pytest.raises(WorkloadError):
            _ = RequestBatch().span

    def test_len_and_index(self):
        b = RequestBatch([_req(2.0), _req(1.0)])
        assert len(b) == 2
        assert b[0].start_time == 1.0
