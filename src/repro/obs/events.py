"""Request-lifecycle audit journal: deterministic wide events.

The metrics registry answers "how many"; the :class:`RequestJournal`
answers "what happened to request R and why".  Every phase of the
pipeline emits *wide events* -- one self-contained record per decision:

=================  ==========================================================
kind               emitted when
=================  ==========================================================
``admitted``       :meth:`repro.service.VORService.reserve` accepts a booking
``rejected``       the same call refuses one (unknown title, lead time, ...)
``phase1-assigned``  the Phase-1 greedy commits a delivery (chosen source,
                   route, Ψ_C/Ψ_D split)
``overflowed``     SORP detects an initial overflow situation
``sorp-placed``    SORP commits a victim reschedule
``cycle-closed``   the rolling scheduler finishes a cycle
``fault-hit``      contingency recovery classifies a request of an impacted
                   video
``saved``/``lost``  ... and records its outcome
``amended``        :meth:`~repro.service.VORService.amend_cycle` patches the
                   cycle
``online-batch``   the online loop settles one debounced amendment batch
``shed``           :meth:`~repro.service.VORService.shed_pending` drops a
                   pending reservation
``horizon-cycle``  the horizon orchestrator settles one cycle of a
                   multi-cycle run
``migration``      the between-cycle migration planner decides one video's
                   replica move (accepted or rejected, with pricing)
``resumed``        the carryover ledger classifies an interrupted stream as
                   resumable (blocks survived; only the tail re-ships)
``restarted``      ... or as restarted from byte zero (and why)
``quoted``         the admission gateway prices a booking (basis + Ψ split)
``gate-admitted``  ... and admits it into the solver-bound batch
``gate-rejected``  ... or refuses it (validity pre-screen or policy reason)
``gate-queued``    ... or parks it in the bounded pending queue
``gate-shed``      ... or sheds it (queue overflow / final seal)
``cycle-sealed``   the gateway seals a cycle's batch (intake counters +
                   quote-vs-realized reconciliation totals)
=================  ==========================================================

Determinism contract: the journal is **append-only** and records *no wall
clock* -- only the decisions, which are deterministic for a seeded run.
Replaying the same feed twice therefore produces byte-identical JSONL
exports.

Requests carry no synthetic id: a :class:`~repro.workload.requests.Request`
value is its own identity, and :func:`request_key` renders it as the
journal's display id.  Two identical reservations (same user, title, start,
neighborhood) share an id and therefore a timeline; two different ones
never do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import ReproError
from repro.io import field, read_jsonl, write_jsonl


class JournalError(ReproError):
    """Invalid journal emission or query."""


#: Every event kind the pipeline emits (see the module docstring).
EVENT_KINDS = (
    "admitted",
    "rejected",
    "phase1-assigned",
    "overflowed",
    "sorp-placed",
    "cycle-closed",
    "fault-hit",
    "saved",
    "lost",
    "amended",
    "online-batch",
    "shed",
    "horizon-cycle",
    "migration",
    "resumed",
    "restarted",
    "quoted",
    "gate-admitted",
    "gate-rejected",
    "gate-queued",
    "gate-shed",
    "cycle-sealed",
)

_EVENT_KIND_SET = frozenset(EVENT_KINDS)


def request_key(request: Any) -> str:
    """The journal's display id of a request: ``user/video@start->storage``.

    ``start`` is the ``repr`` of the start time, the shortest text that
    parses back to the same float, so the id is exact: it is deterministic
    across runs and processes, and distinct requests never share one.
    """
    return (
        f"{request.user_id}/{request.video_id}"
        f"@{float(request.start_time)!r}->{request.local_storage}"
    )


@dataclass(frozen=True)
class JournalEvent:
    """One wide event.  Immutable.

    ``seq`` is the event's position in its journal (0..N-1).
    """

    seq: int
    kind: str
    request_id: str | None = None
    video_id: str | None = None
    attrs: tuple[tuple[str, Any], ...] = ()

    @property
    def attributes(self) -> dict[str, Any]:
        return dict(self.attrs)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (one JSONL line in journal exports)."""
        return {
            "seq": self.seq,
            "event": self.kind,
            "request_id": self.request_id,
            "video_id": self.video_id,
            "attrs": {k: _jsonable(v) for k, v in self.attrs},
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


class RequestJournal:
    """Append-only, deterministic event log (see the module docstring)."""

    enabled = True

    def __init__(self) -> None:
        self._events: list[JournalEvent] = []

    def emit(
        self,
        kind: str,
        *,
        request: Any = None,
        request_id: str | None = None,
        video_id: str | None = None,
        **attrs: Any,
    ) -> None:
        """Record one event.

        ``request`` (a :class:`~repro.workload.requests.Request`) fills
        ``request_id`` and ``video_id``; attribute values must be
        JSON-serializable scalars or (nested) tuples of them.
        """
        if kind not in _EVENT_KIND_SET:
            raise JournalError(
                f"unknown event kind {kind!r} (expected one of {EVENT_KINDS})"
            )
        if request is not None:
            request_id = request_key(request)
            video_id = request.video_id
        self._events.append(
            JournalEvent(
                seq=len(self._events),
                kind=kind,
                request_id=request_id,
                video_id=video_id,
                attrs=tuple(sorted(attrs.items())),
            )
        )

    def extend(self, events: Iterable[JournalEvent]) -> None:
        """Append ``events`` (recorded by another journal) in order.

        Each is re-numbered to its position here, so the result equals
        having emitted the same events on this journal directly.
        """
        for event in events:
            self._events.append(replace(event, seq=len(self._events)))

    @property
    def events(self) -> tuple[JournalEvent, ...]:
        """Every event in append order."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[JournalEvent]:
        return iter(self._events)

    def counts(self) -> dict[str, int]:
        """Event count per kind (deterministic for a seeded run)."""
        out: dict[str, int] = {}
        for e in self._events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return dict(sorted(out.items()))

    # -- queries -------------------------------------------------------------

    def request_ids(self) -> tuple[str, ...]:
        """Distinct request ids in first-appearance order."""
        seen: dict[str, None] = {}
        for e in self._events:
            if e.request_id is not None:
                seen.setdefault(e.request_id)
        return tuple(seen)

    def explain(self, request_id: str) -> tuple[JournalEvent, ...]:
        """The request's timeline, in journal order.

        Includes the request's own events plus video-scoped events (no
        ``request_id`` of their own) for any video the request touched --
        so a timeline shows the SORP victim commits and overflow
        situations that moved the request's file around.
        """
        videos = {
            e.video_id
            for e in self._events
            if e.request_id == request_id and e.video_id is not None
        }
        return tuple(
            e
            for e in self._events
            if e.request_id == request_id
            or (
                e.request_id is None
                and e.video_id is not None
                and e.video_id in videos
            )
        )

    def format_timeline(self, request_id: str) -> str:
        """Human-readable ``explain`` rendering (one line per event)."""
        events = self.explain(request_id)
        if not events:
            return f"no events for request {request_id!r}"
        lines = [f"timeline for {request_id}:"]
        for e in events:
            attrs = ", ".join(f"{k}={_fmt(v)}" for k, v in e.attrs)
            scope = "" if e.request_id is not None else f" [video {e.video_id}]"
            lines.append(f"  #{e.seq:<5d} {e.kind}{scope}" + (f"  {attrs}" if attrs else ""))
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, tuple):
        return "(" + ",".join(_fmt(v) for v in value) + ")"
    return str(value)


class NullJournal:
    """Inert journal: records nothing, answers every query empty."""

    enabled = False

    def emit(self, kind: str, **kw: Any) -> None:
        pass

    @property
    def events(self) -> tuple[JournalEvent, ...]:
        return ()

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[JournalEvent]:
        return iter(())

    def counts(self) -> dict[str, int]:
        return {}

    def request_ids(self) -> tuple[str, ...]:
        return ()

    def explain(self, request_id: str) -> tuple[JournalEvent, ...]:
        return ()

    def format_timeline(self, request_id: str) -> str:
        return "journal disabled"


NULL_JOURNAL = NullJournal()


def write_journal_jsonl(
    path: str | Path, journal: RequestJournal | NullJournal
) -> Path:
    """Write the journal as JSON Lines (one event object per line).

    Keys are sorted, so identical journals produce byte-identical files
    -- the replay-determinism artifact CI diffs.
    """
    write_jsonl(path, (event.to_dict() for event in journal.events))
    return Path(path)


def load_journal_jsonl(path: str | Path) -> RequestJournal:
    """Rebuild a journal from a JSONL export (for offline ``explain``).

    Raises :class:`JournalError` on an unreadable path and (with a
    ``path:lineno`` diagnostic) on non-JSON lines, malformed events, and
    events whose kind is not in the current :data:`EVENT_KINDS` taxonomy
    -- a journal written by a newer
    (or incompatible older) version of this library must fail loudly, not
    crash downstream consumers with a raw ``KeyError``.
    """
    journal = RequestJournal()
    for lineno, doc in read_jsonl(path, JournalError, "journal"):
        what = f"{path}:{lineno}: malformed journal event"
        kind = field(doc, "event", str, JournalError, what)
        if kind not in _EVENT_KIND_SET:
            raise JournalError(
                f"{path}:{lineno}: unknown event kind {kind!r} -- this "
                f"journal does not match the current event taxonomy "
                f"({len(EVENT_KINDS)} kinds); re-export it with this "
                f"version of the library"
            )
        attrs = field(doc, "attrs", dict, JournalError, what, {})
        journal._events.append(
            JournalEvent(
                seq=len(journal._events),
                kind=kind,
                request_id=field(doc, "request_id", str, JournalError, what, None),
                video_id=field(doc, "video_id", str, JournalError, what, None),
                attrs=tuple(sorted((k, _tupled(v)) for k, v in attrs.items())),
            )
        )
    return journal


def _tupled(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


__all__ = [
    "EVENT_KINDS",
    "JournalError",
    "JournalEvent",
    "NullJournal",
    "NULL_JOURNAL",
    "RequestJournal",
    "load_journal_jsonl",
    "request_key",
    "write_journal_jsonl",
]
