"""Unit tests for the request-lifecycle audit journal."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Request, units
from repro.obs.events import (
    EVENT_KINDS,
    JournalError,
    NULL_JOURNAL,
    RequestJournal,
    load_journal_jsonl,
    request_key,
    write_journal_jsonl,
)


def _request(user="alice", video="m0", start=5 * units.HOUR, storage="IS1"):
    return Request(
        user_id=user, video_id=video, start_time=start, local_storage=storage
    )


class TestRequestKey:
    def test_derived_from_identifying_fields(self):
        assert request_key(_request()) == "alice/m0@18000.0->IS1"

    def test_identical_reservations_share_a_key(self):
        assert request_key(_request()) == request_key(_request())

    def test_distinct_fields_distinct_keys(self):
        base = _request()
        for other in (
            _request(user="bob"),
            _request(video="m1"),
            _request(start=6 * units.HOUR),
            _request(start=5 * units.HOUR + 0.01),  # equal to 6 digits
            _request(storage="IS2"),
        ):
            assert request_key(other) != request_key(base)

    @given(
        start=st.floats(allow_nan=False, allow_infinity=False),
        user=st.text(min_size=1),
    )
    def test_start_text_round_trips_exactly(self, start, user):
        request = _request(user=user, start=start)
        # parse from the right: user ids may contain "/" or "@"
        head, _, storage = request_key(request).rpartition("->")
        start_text = head.rpartition("@")[2]
        assert storage == request.local_storage
        assert float(start_text).hex() == request.start_time.hex()


class TestEmit:
    def test_seq_is_append_order(self):
        j = RequestJournal()
        j.emit("admitted", request=_request())
        j.emit("shed", request=_request())
        assert [e.seq for e in j] == [0, 1]
        assert [e.kind for e in j] == ["admitted", "shed"]

    def test_request_fills_id_and_video(self):
        j = RequestJournal()
        j.emit("admitted", request=_request())
        (e,) = j.events
        assert e.request_id == "alice/m0@18000.0->IS1"
        assert e.video_id == "m0"

    def test_attrs_sorted_by_name(self):
        j = RequestJournal()
        j.emit("rejected", request_id="r", zeta=1, alpha=2)
        (e,) = j.events
        assert e.attrs == (("alpha", 2), ("zeta", 1))

    def test_unknown_kind_rejected(self):
        j = RequestJournal()
        with pytest.raises(JournalError, match="unknown event kind"):
            j.emit("exploded")

    def test_every_declared_kind_accepted(self):
        j = RequestJournal()
        for kind in EVENT_KINDS:
            j.emit(kind)
        assert len(j) == len(EVENT_KINDS)

    def test_counts_sorted_per_kind(self):
        j = RequestJournal()
        j.emit("shed")
        j.emit("admitted")
        j.emit("shed")
        assert j.counts() == {"admitted": 1, "shed": 2}
        assert list(j.counts()) == ["admitted", "shed"]


class TestExtend:
    def test_extend_renumbers_like_emitting_here(self):
        direct, joined, aside = RequestJournal(), RequestJournal(), RequestJournal()
        for journal in (direct, joined):
            journal.emit("admitted", request=_request(), start=1.0)
        for journal in (direct, aside):
            journal.emit("shed", request=_request(user="bob"))
            journal.emit("cycle-closed", index=0, requests=2)
        joined.extend(aside)
        assert joined.events == direct.events
        assert [e.seq for e in joined] == [0, 1, 2]


class TestExplain:
    @pytest.fixture
    def journal(self):
        j = RequestJournal()
        j.emit("admitted", request_id="alice/m0@18000->IS1", video_id="m0")
        j.emit("admitted", request_id="bob/m1@21600->IS2", video_id="m1")
        j.emit(
            "phase1-assigned",
            request_id="alice/m0@18000->IS1",
            video_id="m0",
            source="VW",
        )
        j.emit("sorp-placed", video_id="m0", location="IS2", heat=0.5)
        j.emit("sorp-placed", video_id="m1", location="IS1", heat=0.2)
        j.emit("cycle-closed", index=0, requests=2)
        return j

    def test_own_events_in_journal_order(self, journal):
        kinds = [e.kind for e in journal.explain("alice/m0@18000->IS1")]
        assert kinds == ["admitted", "phase1-assigned", "sorp-placed"]

    def test_video_scoped_events_included_for_touched_videos_only(self, journal):
        events = journal.explain("alice/m0@18000->IS1")
        placed = [e for e in events if e.kind == "sorp-placed"]
        assert [e.video_id for e in placed] == ["m0"]  # not m1's move

    def test_global_events_excluded(self, journal):
        assert all(
            e.kind != "cycle-closed"
            for e in journal.explain("alice/m0@18000->IS1")
        )

    def test_unknown_request_empty(self, journal):
        assert journal.explain("nobody/m9@0->IS9") == ()

    def test_request_ids_first_appearance_order(self, journal):
        assert journal.request_ids() == (
            "alice/m0@18000->IS1",
            "bob/m1@21600->IS2",
        )

    def test_format_timeline_renders_every_event(self, journal):
        text = journal.format_timeline("alice/m0@18000->IS1")
        assert text.startswith("timeline for alice/m0@18000->IS1:")
        assert "phase1-assigned" in text
        assert "[video m0]" in text  # video-scoped marker on the SORP line

    def test_format_timeline_unknown_request(self, journal):
        assert "no events" in journal.format_timeline("nobody/m9@0->IS9")


class TestJsonl:
    def test_round_trip(self, tmp_path):
        j = RequestJournal()
        j.emit("admitted", request_id="r0", video_id="m0", start=5.0)
        j.emit("overflowed", location="IS1", videos=("m0", "m1"), excess=2.5)
        path = write_journal_jsonl(tmp_path / "j.jsonl", j)
        loaded = load_journal_jsonl(path)
        assert loaded.events == j.events
        resaved = write_journal_jsonl(tmp_path / "resaved.jsonl", loaded)
        assert resaved.read_bytes() == path.read_bytes()

    def test_bytes_identical_for_identical_journals(self, tmp_path):
        def build():
            j = RequestJournal()
            j.emit("admitted", request_id="r0", video_id="m0", start=5.0)
            j.emit("shed", request_id="r0", video_id="m0")
            return j

        a = write_journal_jsonl(tmp_path / "a.jsonl", build())
        b = write_journal_jsonl(tmp_path / "b.jsonl", build())
        assert a.read_bytes() == b.read_bytes()

    def test_lines_are_sorted_key_json(self, tmp_path):
        j = RequestJournal()
        j.emit("admitted", request_id="r0", video_id="m0")
        path = write_journal_jsonl(tmp_path / "j.jsonl", j)
        (line,) = path.read_text().splitlines()
        doc = json.loads(line)
        assert list(doc) == sorted(doc)

    def test_load_missing_path_raises_journal_error(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read journal"):
            load_journal_jsonl(tmp_path / "absent.jsonl")

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(JournalError, match="not JSON"):
            load_journal_jsonl(path)

    def test_load_rejects_malformed_event(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0}\n')
        with pytest.raises(JournalError, match="malformed"):
            load_journal_jsonl(path)

    def test_load_rejects_unknown_kind_with_taxonomy_message(self, tmp_path):
        """A journal from another library version fails loudly at load,
        naming the offending line -- never a raw ``KeyError`` downstream."""
        path = tmp_path / "stale.jsonl"
        path.write_text(
            json.dumps({"seq": 0, "event": "warp-drive", "attrs": {}}) + "\n"
        )
        with pytest.raises(JournalError) as excinfo:
            load_journal_jsonl(path)
        message = str(excinfo.value)
        assert "stale.jsonl:1" in message
        assert "unknown event kind 'warp-drive'" in message
        assert f"({len(EVENT_KINDS)} kinds)" in message
        assert "re-export" in message

    def test_blank_lines_skipped(self, tmp_path):
        j = RequestJournal()
        j.emit("admitted", request_id="r0")
        path = write_journal_jsonl(tmp_path / "j.jsonl", j)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_journal_jsonl(path)) == 1


class TestNullJournal:
    def test_inert_everything(self):
        NULL_JOURNAL.emit("admitted", request_id="r")
        assert not NULL_JOURNAL.enabled
        assert NULL_JOURNAL.events == ()
        assert len(NULL_JOURNAL) == 0
        assert list(NULL_JOURNAL) == []
        assert NULL_JOURNAL.counts() == {}
        assert NULL_JOURNAL.request_ids() == ()
        assert NULL_JOURNAL.explain("r") == ()
        assert NULL_JOURNAL.format_timeline("r") == "journal disabled"
