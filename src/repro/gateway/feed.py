"""Live reservation intake: booking requests arriving over (virtual) time.

A :class:`RequestFeed` is an ordered stream of :class:`RequestEvent`
records -- each a :class:`~repro.workload.requests.Request` plus the
virtual instant ``at`` at which the user *booked* it.  Where a
:class:`~repro.workload.requests.RequestBatch` is the frozen cycle
workload the solver consumes, a feed is how that workload comes into
being: booking by booking, each some lead time before its showing.  The
reservation gateway (:mod:`repro.gateway.gateway`) consumes feeds and
quotes/admits/queues/sheds requests as they arrive.

Feeds are plain data and fully deterministic, like
:class:`~repro.faults.feed.FaultFeed`:

* a **JSONL file feed** (:meth:`RequestFeed.load` / :meth:`RequestFeed.save`,
  the codec shared with every feed in :mod:`repro.feed`) replays a
  committed scenario bit-identically;
* a **seeded generator feed** (:meth:`RequestFeed.generate`) draws the
  requests through :class:`~repro.workload.generators.WorkloadGenerator`
  (neighborhoods x users x Zipf x an arrival process) and derives each
  booking's arrival instant from the same seed, so equal arguments always
  yield an equal feed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.catalog.catalog import VideoCatalog
from repro.errors import GatewayError
from repro.feed import EventFeed
from repro.io import field, request_from_dict, request_to_dict
from repro.topology.graph import Topology
from repro.workload.generators import WorkloadGenerator
from repro.workload.requests import Request, RequestBatch

#: Seconds between a generated booking and its showing, drawn uniformly.
LEAD_RANGE = (3600.0, 14400.0)


@dataclass(frozen=True)
class RequestEvent:
    """One booking: the request plus its virtual arrival instant.

    Attributes:
        at: When the user booked the reservation (virtual seconds, the
            same clock as the request start times and cycle boundaries).
        request: The booked :class:`~repro.workload.requests.Request`.
    """

    at: float
    request: Request

    def __post_init__(self) -> None:
        if not math.isfinite(self.at):
            raise GatewayError(f"booking arrival time must be finite, got {self.at}")

    @property
    def lead(self) -> float:
        """Seconds between booking and showing (may be negative)."""
        return self.request.start_time - self.at

    def _sort_key(self) -> tuple:
        r = self.request
        return (self.at, r.start_time, r.video_id, r.user_id, r.local_storage)

    def to_dict(self) -> dict:
        return {"at": self.at, "request": request_to_dict(self.request)}

    @classmethod
    def from_dict(cls, data: dict) -> "RequestEvent":
        what = "malformed request event"
        return cls(
            at=field(data, "at", float, GatewayError, what),
            request=request_from_dict(
                field(data, "request", dict, GatewayError, what),
                GatewayError, f"{what} request",
            ),
        )


class RequestFeed(EventFeed[RequestEvent]):
    """An ordered, replayable stream of booking requests.

    Events are kept in canonical arrival order (ties broken by the
    request's identifying fields).  Duplicate bookings are *kept* -- two
    identical reservations are two streams of demand, and deduplication
    (if any) is an admission policy's job.
    """

    event_type = RequestEvent
    error = GatewayError
    noun = "request feed"

    @property
    def showing_span(self) -> tuple[float, float]:
        """(earliest, latest) showing start time; raises when empty."""
        if not self.events:
            raise GatewayError("empty request feed has no showings")
        starts = [e.request.start_time for e in self.events]
        return (min(starts), max(starts))

    def batch(self) -> RequestBatch:
        """Every booked request as one frozen batch (the offline view)."""
        return RequestBatch(e.request for e in self.events)

    # -- seeded generation -------------------------------------------------

    @classmethod
    def generate(
        cls,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        seed: int,
        users_per_neighborhood: int = 4,
    ) -> "RequestFeed":
        """Draw a deterministic booking feed from ``seed``.

        The requests come from
        :class:`~repro.workload.generators.WorkloadGenerator` with the
        same arguments (so the feed's :meth:`batch` equals the offline
        workload a direct run would schedule); each booking's arrival is
        the showing's start time minus a seeded lead uniform in
        ``LEAD_RANGE`` (clamped to 0) -- VOR users book "some time in
        advance".  Equal arguments always yield an equal feed.
        """
        lo, hi = LEAD_RANGE
        batch = WorkloadGenerator(
            topology, catalog, users_per_neighborhood=users_per_neighborhood
        ).generate(seed)
        # Derived arithmetically (never via hash()) so feeds replay
        # bit-identically across interpreter runs.
        rng = random.Random(seed * 1_000_003 + 29)
        events = tuple(
            RequestEvent(
                at=max(0.0, r.start_time - rng.uniform(lo, hi)),
                request=r,
            )
            for r in batch
        )
        return cls(events=events, name=f"requests-seed{seed}", seed=seed)


__all__ = ["RequestEvent", "RequestFeed"]
