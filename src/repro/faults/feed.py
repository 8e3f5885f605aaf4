"""Online fault feeds: fault reports arriving over (virtual) time.

A :class:`FaultFeed` is an ordered stream of :class:`FaultEvent` records --
each a :class:`~repro.faults.plan.FaultSpec` plus the virtual instant ``at``
at which the monitoring plane *reported* it.  Where a
:class:`~repro.faults.plan.FaultPlan` is the omniscient after-the-fact
scenario, a feed is how the scenario becomes known: fault by fault, usually
shortly before (or exactly when) each window opens.  The online amendment
loop (:mod:`repro.online.loop`) consumes feeds and amends the running cycle
incrementally as events arrive.

Feeds are plain data and fully deterministic:

* a **JSONL file feed** (:meth:`FaultFeed.load` / :meth:`FaultFeed.save`,
  the codec shared with every feed in :mod:`repro.feed`) replays a
  committed scenario bit-identically;
* a **seeded generator feed** (:meth:`FaultFeed.generate`) draws the faults
  through :meth:`FaultPlan.generate` and derives each report's arrival time
  from the same seed, so equal arguments always yield an equal feed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import FaultError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.feed import EventFeed
from repro.io import field
from repro.topology.graph import Topology

#: :meth:`FaultFeed.generate` reports each fault up to this fraction of the
#: horizon span before its window opens.
LEAD_FRACTION = 0.05


@dataclass(frozen=True)
class FaultEvent:
    """One fault report: the spec plus its virtual arrival instant.

    Attributes:
        at: When the monitoring plane reported the fault (virtual seconds,
            same clock as the fault windows and request start times).
        fault: The reported :class:`~repro.faults.plan.FaultSpec`.
    """

    at: float
    fault: FaultSpec

    def __post_init__(self) -> None:
        if not math.isfinite(self.at):
            raise FaultError(f"event arrival time must be finite, got {self.at}")

    def _sort_key(self) -> tuple:
        return (self.at, *self.fault._sort_key())

    def to_dict(self) -> dict:
        return {"at": self.at, "fault": self.fault.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        what = "malformed fault event"
        return cls(
            at=field(data, "at", float, FaultError, what),
            fault=FaultSpec.from_dict(
                field(data, "fault", dict, FaultError, what), f"{what} fault"
            ),
        )


class FaultFeed(EventFeed[FaultEvent]):
    """An ordered, replayable stream of fault reports.

    Events are kept in canonical arrival order (ties broken by the fault's
    sort key).  Unlike :class:`FaultPlan`, duplicate reports are *kept* --
    deduplication is the amendment loop's job (it amends with the
    cumulative :meth:`plan`, whose canonicalization merges same-fault
    repeats).
    """

    event_type = FaultEvent
    error = FaultError
    noun = "fault feed"

    def plan(self) -> FaultPlan:
        """The cumulative :class:`FaultPlan` of every reported fault.

        Canonicalization merges duplicate/overlapping same-fault reports,
        so replaying a feed and loading its plan agree on the scenario.
        """
        return FaultPlan(
            faults=tuple(e.fault for e in self.events),
            name=self.name,
            seed=self.seed,
        )

    # -- seeded generation -------------------------------------------------

    @classmethod
    def generate(
        cls,
        topology: Topology,
        *,
        seed: int,
        horizon: tuple[float, float],
        n_events: int = 4,
        kinds: tuple[FaultKind, ...] | None = None,
    ) -> "FaultFeed":
        """Draw a deterministic feed for ``topology`` from ``seed``.

        The faults come from :meth:`FaultPlan.generate` with the same
        arguments; each report's arrival is the fault's ``t_start`` minus a
        seeded lead uniform in ``[0, LEAD_FRACTION * span]`` (clamped to the
        horizon start) -- monitoring usually warns shortly before the
        window opens.  Equal arguments always yield an equal feed.
        """
        plan = FaultPlan.generate(
            topology,
            seed=seed,
            horizon=horizon,
            n_faults=n_events,
            kinds=kinds,
        )
        # Derived arithmetically (never via hash()) so feeds replay
        # bit-identically across interpreter runs.
        rng = random.Random(seed * 1_000_003 + 17)
        t0, t1 = horizon
        span = t1 - t0
        events = tuple(
            FaultEvent(
                at=max(t0, f.t_start - rng.uniform(0.0, LEAD_FRACTION * span)),
                fault=f,
            )
            for f in plan
        )
        return cls(events=events, name=f"feed-seed{seed}", seed=seed)


__all__ = ["FaultEvent", "FaultFeed"]
