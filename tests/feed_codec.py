"""The JSONL feed codec cases, written once for every feed type.

:class:`FeedCodecCases` is bound per feed by a subclass in that feed's
test module: it sets ``feed_cls`` and ``error`` (the feed's domain
error) and provides a non-empty ``feed`` fixture.  The base class has no
``Test`` prefix, so pytest collects only the bound subclasses.
"""

from __future__ import annotations

import pytest

HEADER = '{"format_version": 1, "name": "f"}\n'


class FeedCodecCases:
    feed_cls: type
    error: type

    def _load_text(self, tmp_path, text):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        return self.feed_cls.load(path)

    def test_save_load_round_trip(self, feed, tmp_path):
        path = tmp_path / "feed.jsonl"
        feed.save(path)
        assert self.feed_cls.load(path) == feed

    def test_resave_is_byte_identical(self, feed, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        feed.save(a)
        self.feed_cls.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_blank_lines_skipped(self, feed, tmp_path):
        path = tmp_path / "feed.jsonl"
        feed.save(path)
        path.write_text(path.read_text() + "\n\n")
        assert self.feed_cls.load(path) == feed

    def test_missing_file_diagnosed(self, tmp_path):
        match = f"cannot read {self.feed_cls.noun}"
        with pytest.raises(self.error, match=match):
            self.feed_cls.load(tmp_path / "absent.jsonl")

    def test_non_json_line_names_path_and_lineno(self, tmp_path):
        with pytest.raises(self.error, match=r"bad\.jsonl:2: not JSON"):
            self._load_text(tmp_path, HEADER + "not json\n")

    def test_non_object_line_rejected(self, tmp_path):
        with pytest.raises(self.error, match="expected a JSON object"):
            self._load_text(tmp_path, HEADER + "[1, 2]\n")

    def test_missing_header_rejected(self, tmp_path):
        with pytest.raises(self.error, match="missing feed header"):
            self._load_text(tmp_path, '{"at": 0.0}\n')

    def test_unsupported_version_rejected(self, tmp_path):
        with pytest.raises(self.error, match="unsupported feed format"):
            self._load_text(tmp_path, '{"format_version": 99}\n')

    def test_malformed_event_names_lineno(self, tmp_path):
        with pytest.raises(self.error, match=r"bad\.jsonl:2: malformed"):
            self._load_text(tmp_path, HEADER + '{"at": 0.0}\n')

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(self.error, match="empty feed file"):
            self._load_text(tmp_path, "")
