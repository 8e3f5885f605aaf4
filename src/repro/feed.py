"""Replayable event feeds: the container and file format every feed shares.

Bookings (:class:`~repro.gateway.feed.RequestFeed`) and fault reports
(:class:`~repro.faults.feed.FaultFeed`) are both streams of events in
virtual time.  :class:`EventFeed` holds everything the two have in
common -- canonical ordering, the sequence protocol, :attr:`~EventFeed.span`,
:meth:`~EventFeed.until` and the file codec; a concrete feed binds its
event type, its domain error and the noun its diagnostics use, and adds
only its own views and its seeded generator.

File format (one JSON object per line, keys sorted)::

    {"format_version": 1, "name": "feed-seed7", "seed": 7}
    {"at": 10080.0, ...one event...}

:meth:`EventFeed.load` reads it through :func:`repro.io.read_jsonl`:
it skips blank lines and raises the feed's domain error with a
single-line ``path:lineno`` diagnostic on unreadable files, non-JSON or
non-object lines, missing or unsupported headers, and malformed events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Generic, Iterator, TypeVar

from repro.errors import ReproError
from repro.io import FORMAT_VERSION, check_version, field, read_jsonl, write_jsonl

E = TypeVar("E")
F = TypeVar("F", bound="EventFeed")


@dataclass(frozen=True)
class EventFeed(Generic[E]):
    """An ordered, replayable stream of events, each stamped ``at``.

    Events are kept in canonical arrival order (the event type's
    ``_sort_key``), so two feeds with the same events compare equal and
    replay identically regardless of construction order.  Duplicate
    events are kept.

    Subclasses set three class attributes: ``event_type`` (a class with
    ``at``, ``_sort_key()``, ``to_dict()`` and ``from_dict()``),
    ``error`` (raised for every failure) and ``noun`` (e.g. ``"fault
    feed"``, used in diagnostics).
    """

    events: tuple[E, ...] = ()
    name: str = ""
    seed: int | None = None

    event_type: ClassVar[type]
    error: ClassVar[type[ReproError]]
    noun: ClassVar[str]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "events",
            tuple(sorted(self.events, key=self.event_type._sort_key)),
        )

    def __iter__(self) -> Iterator[E]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def span(self) -> tuple[float, float]:
        """(first arrival, last arrival); raises when empty."""
        if not self.events:
            raise self.error(f"empty {self.noun} has no span")
        return (self.events[0].at, self.events[-1].at)

    def until(self: F, t: float) -> F:
        """The sub-feed of events arriving at or before instant ``t``."""
        return type(self)(
            events=tuple(e for e in self.events if e.at <= t),
            name=self.name,
            seed=self.seed,
        )

    # -- serialization -----------------------------------------------------

    def save(self, path) -> None:
        """Write the feed as JSONL: one header line, then one event/line."""
        header: dict = {"format_version": FORMAT_VERSION, "name": self.name}
        if self.seed is not None:
            header["seed"] = self.seed
        write_jsonl(path, [header, *(e.to_dict() for e in self.events)])

    @classmethod
    def load(cls: type[F], path) -> F:
        """Read a feed written by :meth:`save` (diagnostics: module doc)."""
        err = cls.error
        header: dict | None = None
        events = []
        for lineno, doc in read_jsonl(path, err, cls.noun):
            try:
                if header is None:
                    if "format_version" not in doc:
                        raise err("missing feed header (format_version)")
                    check_version(doc, err, "feed", required=True)
                    what = "malformed feed header"
                    header = {
                        "name": field(doc, "name", str, err, what, ""),
                        "seed": field(doc, "seed", int, err, what, None),
                    }
                else:
                    events.append(cls.event_type.from_dict(doc))
            except err as exc:
                raise err(f"{path}:{lineno}: {exc}") from exc
        if header is None:
            raise err(f"{path}:1: empty feed file (no header line)")
        return cls(events=tuple(events), **header)


__all__ = ["EventFeed"]
