"""Stdlib-logging conventions for the ``repro`` package.

Every module that wants to log does the standard thing::

    import logging
    _log = logging.getLogger(__name__)

which roots all library loggers under ``"repro"``.  The library itself
never configures handlers (library best practice); applications -- the
CLI, benchmark harnesses, notebooks -- call :func:`configure_logging`
once to get a human-readable stderr stream at a chosen level::

    from repro.obs.logs import configure_logging
    configure_logging("debug")          # or "info", "warning", ...

The CLI exposes this as ``--log-level``.
"""

from __future__ import annotations

import logging
import sys
from typing import TextIO

#: Human-readable default format: time, level, logger, message.
DEFAULT_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
DEFAULT_DATEFMT = "%H:%M:%S"

LEVELS = ("debug", "info", "warning", "error", "critical")


def parse_level(level: str | int) -> int:
    """Map a ``--log-level`` string (case-insensitive) to a logging level."""
    if isinstance(level, int):
        return level
    name = level.strip().upper()
    value = logging.getLevelName(name)
    if not isinstance(value, int):
        raise ValueError(
            f"unknown log level {level!r}; expected one of {', '.join(LEVELS)}"
        )
    return value


class _StderrHandler(logging.StreamHandler):
    """Writes to the ``sys.stderr`` of the moment it emits, as CPython's
    last-resort handler does, never to one since swapped out and closed."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self) -> TextIO:
        return sys.stderr


def configure_logging(
    level: str | int = "info",
    *,
    stream: TextIO | None = None,
    fmt: str = DEFAULT_FORMAT,
    datefmt: str = DEFAULT_DATEFMT,
) -> logging.Logger:
    """Attach one stream handler to the ``repro`` root logger.

    Idempotent: reconfiguring replaces the previous handler rather than
    stacking duplicates, so tests and REPL sessions can call it freely.
    Without ``stream`` the handler looks ``sys.stderr`` up each time it
    emits.  Returns the ``repro`` logger.
    """
    root = logging.getLogger("repro")
    root.setLevel(parse_level(level))
    for handler in list(root.handlers):
        if getattr(handler, "_repro_managed", False):
            root.removeHandler(handler)
    handler = _StderrHandler() if stream is None else logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(fmt, datefmt=datefmt))
    handler._repro_managed = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.propagate = False
    return root
