"""Mid-stream resume accounting: the carryover ledger.

The contingency scheduler re-solves every impacted video from scratch,
which implicitly assumes an interrupted stream restarts from byte zero.
In a real service the blocks already played out of the neighborhood
storage *survive the fault* -- only the un-delivered tail must be shipped
again.  :func:`build_resume_ledger` reconstructs that distinction after a
recovery pass:

* A saved request whose original stream had **already started** when a
  total fault first struck its route is classified ``resumed``: the
  delivered fraction is ``(t_hit - start) / playback``, and that fraction
  of the *replacement* delivery's Ψ_D is returned as a **resume credit**
  (the tail is the only re-transfer actually needed).
* A saved request whose neighborhood storage itself went down loses its
  buffered blocks (``restarted``, reason ``is-lost``); one whose stream
  had not begun when the fault hit restarts trivially (``restarted``,
  reason ``not-started``).
* Saved requests whose original delivery never intersected a total fault
  were merely re-routed, not interrupted; they do not enter the ledger.

Which fault strikes a stream, and whether it downs the neighborhood
storage, is :func:`~repro.faults.inject.fault_hits` over the plan's
per-fault effects: the rule recovery and the degraded replay apply.

Credits are pure accounting: the schedule and its billing stay as the
recovery produced them, and the horizon layer subtracts the ledger's
credit total when reporting horizon-wide Ψ.  Everything is derived from
committed schedules and the fault plan -- no wall clock, no RNG -- so the
ledger is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import CostModel
from repro.core.schedule import DeliveryInfo, Schedule
from repro.faults.inject import fault_effects, fault_hits
from repro.faults.plan import FaultPlan
from repro.workload.requests import Request

#: Ledger outcomes.
RESUME_OUTCOMES = ("resumed", "restarted")


@dataclass(frozen=True)
class ResumeEntry:
    """One interrupted stream's fate after recovery."""

    request: Request
    outcome: str  # "resumed" | "restarted"
    #: Fraction of the playback already delivered when the fault struck.
    fraction: float = 0.0
    #: Ψ_D credit: the delivered fraction of the replacement delivery's
    #: network cost (0 for restarts).
    credit: float = 0.0
    #: Why a restart was needed ("" for resumes).
    reason: str = ""

    def to_json_dict(self) -> dict:
        return {
            "user_id": self.request.user_id,
            "video_id": self.request.video_id,
            "start_time": self.request.start_time,
            "local_storage": self.request.local_storage,
            "outcome": self.outcome,
            "fraction": round(self.fraction, 6),
            "credit": round(self.credit, 6),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class CarryoverLedger:
    """All interrupted streams of one amended cycle, classified."""

    entries: tuple[ResumeEntry, ...] = ()

    @property
    def resumed(self) -> int:
        return sum(1 for e in self.entries if e.outcome == "resumed")

    @property
    def restarted(self) -> int:
        return sum(1 for e in self.entries if e.outcome == "restarted")

    @property
    def credit_total(self) -> float:
        """Total Ψ_D already paid for delivered blocks that survived."""
        return math.fsum(e.credit for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "resumed": self.resumed,
            "restarted": self.restarted,
            "credit_total": round(self.credit_total, 6),
            "entries": [e.to_json_dict() for e in self.entries],
        }


def build_resume_ledger(
    original: Schedule,
    amended: Schedule,
    plan: FaultPlan,
    cost_model: CostModel,
    catalog: VideoCatalog,
) -> CarryoverLedger:
    """Classify every interrupted-but-saved stream of an amended cycle.

    Scans the *original* schedule for deliveries struck mid-window by a
    total fault and looks each one up in the amended schedule.  Requests
    the amendment dropped entirely (lost) get no entry -- there is
    nothing to resume.

    Args:
        original: The cycle's schedule *before* amendment (the streams
            that were actually playing when the faults struck).
        amended: The schedule after the (possibly multi-batch) amendment
            loop settled.
        plan: The cumulative fault plan the amendments ran under.
        cost_model: Prices the replacement deliveries' Ψ_D.
        catalog: Supplies playback durations.
    """
    per_fault = fault_effects(cost_model.topology, plan)
    entries: list[ResumeEntry] = []
    hit_deliveries = []
    for fs in original:
        video = catalog[fs.video_id]
        for old_d in fs.deliveries:
            t0 = old_d.start_time
            hits = fault_hits(
                per_fault, t0, t0 + video.playback, route=old_d.route
            )
            if hits:
                # the earliest fault that cuts the stream
                hit_deliveries.append((old_d, hits[0][0], video))
    hit_deliveries.sort(key=lambda t: t[0].request)
    for old_d, hit, video in hit_deliveries:
        request = old_d.request
        new_d = _find_delivery(amended, request)
        if new_d is None:
            continue  # lost, not resumed: the journal already records it
        t0 = old_d.start_time
        if fault_hits(
            per_fault, t0, t0 + video.playback, storage=request.local_storage
        ):
            # the neighborhood storage itself went down mid-stream
            entries.append(ResumeEntry(request, "restarted", reason="is-lost"))
            continue
        fraction = (hit.t_start - old_d.start_time) / video.playback
        fraction = max(0.0, min(1.0, fraction))
        if fraction <= 0.0:
            entries.append(
                ResumeEntry(request, "restarted", reason="not-started")
            )
            continue
        credit = fraction * cost_model.delivery_cost(new_d)
        entries.append(
            ResumeEntry(request, "resumed", fraction=fraction, credit=credit)
        )
    return CarryoverLedger(entries=tuple(entries))


def _find_delivery(schedule: Schedule, request: Request) -> DeliveryInfo | None:
    if request.video_id not in schedule:
        return None
    for d in schedule.file(request.video_id).deliveries:
        if d.request == request:
            return d
    return None
