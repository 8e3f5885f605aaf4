"""Logging conventions: level parsing and idempotent configuration."""

import io
import logging
import sys

import pytest

from repro.obs.logs import configure_logging, parse_level


class TestParseLevel:
    def test_names_map_to_levels(self):
        assert parse_level("debug") == logging.DEBUG
        assert parse_level("INFO") == logging.INFO
        assert parse_level(" warning ") == logging.WARNING

    def test_ints_pass_through(self):
        assert parse_level(logging.ERROR) == logging.ERROR

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            parse_level("loud")


class TestConfigureLogging:
    def _managed_handlers(self):
        root = logging.getLogger("repro")
        return [
            h for h in root.handlers if getattr(h, "_repro_managed", False)
        ]

    def test_attaches_one_stream_handler(self):
        stream = io.StringIO()
        root = configure_logging("info", stream=stream)
        assert root.level == logging.INFO
        assert len(self._managed_handlers()) == 1
        logging.getLogger("repro.core.sorp").info("hello from sorp")
        assert "repro.core.sorp: hello from sorp" in stream.getvalue()

    def test_reconfiguring_replaces_instead_of_stacking(self):
        first = io.StringIO()
        second = io.StringIO()
        configure_logging("info", stream=first)
        configure_logging("debug", stream=second)
        assert len(self._managed_handlers()) == 1
        logging.getLogger("repro.x").debug("only in second")
        assert "only in second" not in first.getvalue()
        assert "only in second" in second.getvalue()

    def test_level_filters(self):
        stream = io.StringIO()
        configure_logging("warning", stream=stream)
        logging.getLogger("repro.y").info("quiet")
        logging.getLogger("repro.y").warning("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_foreign_handlers_left_alone(self):
        root = logging.getLogger("repro")
        foreign = logging.NullHandler()
        root.addHandler(foreign)
        try:
            configure_logging("info", stream=io.StringIO())
            assert foreign in root.handlers
        finally:
            root.removeHandler(foreign)

    def test_default_stream_is_stderr_at_emit_time(self, monkeypatch):
        """A handler configured under a swapped-in stderr that is then
        closed writes to the stderr of the moment, not the closed one."""
        swapped = io.StringIO()
        monkeypatch.setattr(sys, "stderr", swapped)
        configure_logging("info")
        swapped.close()
        current = io.StringIO()
        monkeypatch.setattr(sys, "stderr", current)
        logging.getLogger("repro.z").info("after the swap")
        assert "--- Logging error ---" not in current.getvalue()
        assert "repro.z: after the swap" in current.getvalue()
