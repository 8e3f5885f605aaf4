"""Degraded-mode analysis: what a fault scenario does to a schedule.

:func:`build_degraded_report` replays a schedule's per-resource loads
through the simulation engine and classifies the damage a fault plan does
to it *window-aware*:

* **dropped** requests -- a delivery whose source, route node or route link
  is totally down at the moment the stream starts: the service cannot begin;
* **late** requests -- the fault begins mid-stream; the service is
  interrupted and, restarted after recovery, finishes ``delay`` seconds
  late;
* **stranded** residencies -- a cache whose storage goes down while its
  blocks are resident, or whose fill source, or a node or link of the
  route its depositing stream took to it, goes down while it fills (a
  cache cannot fill from a lost warehouse): the copy is lost and every
  service it would have fed is at risk;
* **saturated links** -- degraded links (or browned-out warehouse egress)
  whose concurrent-stream load exceeds the *remaining* bandwidth during the
  fault window;
* **storage overflows** -- shrunk storages whose Eq. 6 reserved usage
  exceeds the remaining capacity during the window.

Both stresses judge against ``capacity_slack`` of the remaining capacity,
the tolerance of the healthy storage and link checks.  Only links that a
fault downs, or degrades while they have a finite bandwidth, read their
load timeline, so the replay builds no other link timeline.

The report is pure data (deterministic for a given schedule + plan) and
feeds both the CLI's degraded-mode output and
:func:`repro.sim.validate.fault_violations`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.core.costmodel import CostModel
from repro.core.schedule import Schedule
from repro.core.spacefunc import UsageTimeline, capacity_slack
from repro.faults.inject import fault_effects, fault_hits, fill_hits
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import NULL_OBS, Observability
from repro.sim.engine import SimulationEngine, SimulationReport

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceImpact:
    """One request whose delivery a fault drops or delays."""

    user_id: str
    video_id: str
    start_time: float
    fault: str  # FaultSpec.key
    resource: str  # the failed node or "a-b" link the route uses
    outcome: str  # "dropped" | "late"
    delay: float = 0.0  # restart-after-recovery lateness (0 when dropped)


@dataclass(frozen=True)
class StrandedResidency:
    """A cached copy lost to an outage of its storage or fill source."""

    video_id: str
    location: str
    t_start: float
    t_last: float
    fault: str


@dataclass(frozen=True)
class LinkStress:
    """A link whose load exceeds its degraded bandwidth during a fault."""

    edge: tuple[str, str]
    fault: str
    effective_bandwidth: float
    peak: float
    intervals: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class StorageStress:
    """A storage whose reserved usage exceeds its shrunk capacity."""

    location: str
    fault: str
    effective_capacity: float
    peak: float
    intervals: tuple[tuple[float, float], ...]


@dataclass
class DegradedModeReport:
    """Everything a fault scenario breaks in one schedule replay."""

    n_requests: int = 0
    n_faults: int = 0
    dropped: tuple[ServiceImpact, ...] = ()
    late: tuple[ServiceImpact, ...] = ()
    stranded: tuple[StrandedResidency, ...] = ()
    saturated_links: tuple[LinkStress, ...] = ()
    storage_overflows: tuple[StorageStress, ...] = ()
    #: Videos with at least one dropped/late delivery or stranded residency.
    impacted_videos: tuple[str, ...] = ()

    @property
    def requests_dropped(self) -> int:
        return len(self.dropped)

    @property
    def requests_late(self) -> int:
        return len(self.late)

    @property
    def degraded(self) -> bool:
        """Whether the scenario damages the schedule at all."""
        return bool(
            self.dropped
            or self.late
            or self.stranded
            or self.saturated_links
            or self.storage_overflows
        )

    def summary(self) -> str:
        lines = [
            f"degraded mode: {self.n_faults} fault(s) against "
            f"{self.n_requests} request(s)",
            f"  dropped: {self.requests_dropped}, late: {self.requests_late}, "
            f"stranded residencies: {len(self.stranded)}",
            f"  saturated links: {len(self.saturated_links)}, "
            f"storage overflows: {len(self.storage_overflows)}",
            f"  impacted videos: {len(self.impacted_videos)}",
        ]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "n_faults": self.n_faults,
            "requests_dropped": self.requests_dropped,
            "requests_late": self.requests_late,
            "dropped": [vars(i) for i in self.dropped],
            "late": [vars(i) for i in self.late],
            "stranded": [vars(s) for s in self.stranded],
            "saturated_links": [
                {
                    "edge": list(s.edge),
                    "fault": s.fault,
                    "effective_bandwidth": s.effective_bandwidth,
                    "peak": s.peak,
                    "intervals": [list(i) for i in s.intervals],
                }
                for s in self.saturated_links
            ],
            "storage_overflows": [
                {
                    "location": s.location,
                    "fault": s.fault,
                    "effective_capacity": s.effective_capacity,
                    "peak": s.peak,
                    "intervals": [list(i) for i in s.intervals],
                }
                for s in self.storage_overflows
            ],
            "impacted_videos": list(self.impacted_videos),
        }


def _clip(
    intervals: list[tuple[float, float]], lo: float, hi: float
) -> tuple[tuple[float, float], ...]:
    out = []
    for a, b in intervals:
        a2, b2 = max(a, lo), min(b, hi)
        if b2 > a2:
            out.append((a2, b2))
    return tuple(out)


def _stress(
    timeline: UsageTimeline, remaining: float, fault: FaultSpec
) -> tuple[float, tuple[tuple[float, float], ...]] | None:
    """``(peak, intervals)`` of usage above ``remaining`` during ``fault``.

    ``None`` unless the peak over the fault window exceeds
    ``capacity_slack(remaining)``: the tolerance SORP places under and the
    bandwidth tracker admits within, as in the healthy capacity checks.
    """
    intervals = _clip(
        timeline.intervals_above(remaining), fault.t_start, fault.t_end
    )
    if not intervals:
        return None
    peak = timeline.max_over(fault.t_start, fault.t_end)
    if peak <= capacity_slack(remaining):
        return None
    return peak, intervals


def build_degraded_report(
    schedule: Schedule,
    cost_model: CostModel,
    plan: FaultPlan,
    *,
    obs: Observability | None = None,
) -> DegradedModeReport:
    """Replay ``schedule`` and classify the damage ``plan`` does to it."""
    obs = obs if obs is not None else NULL_OBS
    simulation = SimulationEngine(cost_model, obs=obs).run(schedule)
    report = _classify_damage(schedule, cost_model, plan, simulation)
    metrics = obs.metrics
    if metrics.enabled:
        if report.n_faults:
            metrics.counter(
                "vor_faults_injected_total",
                help="Faults injected into simulation replays",
            ).inc(report.n_faults)
        for outcome, count in (
            ("dropped", report.requests_dropped),
            ("late", report.requests_late),
        ):
            metrics.counter(
                "vor_degraded_requests_total",
                help="Requests impacted by injected faults, by outcome",
                outcome=outcome,
            ).inc(count)
        metrics.counter(
            "vor_stranded_residencies_total",
            help="Cache residencies lost to storage outages",
        ).inc(len(report.stranded))
    return report


def _classify_damage(
    schedule: Schedule,
    cost_model: CostModel,
    plan: FaultPlan,
    simulation: SimulationReport,
) -> DegradedModeReport:
    """Classify what ``plan`` does to ``schedule``, given its replay."""
    catalog = cost_model.catalog
    topology = cost_model.topology
    per_fault = fault_effects(topology, plan)
    dropped: list[ServiceImpact] = []
    late: list[ServiceImpact] = []
    stranded: list[StrandedResidency] = []
    impacted: dict[str, None] = {}

    for fs in schedule:
        video = catalog[fs.video_id]
        for d in fs.deliveries:
            t0 = d.start_time
            verdict: ServiceImpact | None = None
            for fault, resource in fault_hits(
                per_fault, t0, t0 + video.playback, route=d.route
            ):
                if fault.active_at(t0):
                    verdict = ServiceImpact(
                        user_id=d.request.user_id,
                        video_id=d.video_id,
                        start_time=t0,
                        fault=fault.key,
                        resource=resource,
                        outcome="dropped",
                    )
                    break  # dropped dominates any lateness
                delay = fault.t_end - t0
                if verdict is None or delay > verdict.delay:
                    verdict = ServiceImpact(
                        user_id=d.request.user_id,
                        video_id=d.video_id,
                        start_time=t0,
                        fault=fault.key,
                        resource=resource,
                        outcome="late",
                        delay=delay,
                    )
            if verdict is not None:
                impacted.setdefault(fs.video_id)
                (dropped if verdict.outcome == "dropped" else late).append(verdict)
        for c in fs.residencies:
            # a copy is lost when its storage goes down while resident, or
            # its fill [t_start, t_start + P) loses its source or the route
            # its depositing stream took to it
            hits = fault_hits(
                per_fault, c.t_start, c.t_last + video.playback,
                storage=c.location,
            ) or fill_hits(per_fault, c, video.playback, fs.deliveries)
            if hits:
                impacted.setdefault(fs.video_id)
                stranded.append(
                    StrandedResidency(
                        video_id=c.video_id,
                        location=c.location,
                        t_start=c.t_start,
                        t_last=c.t_last,
                        fault=hits[0][0].key,
                    )
                )

    saturated: list[LinkStress] = []
    overflows: list[StorageStress] = []
    for fault, effects in per_fault:
        bw = effects.bandwidth_factor_map
        for key, load in sorted(simulation.links.items()):
            if key in effects.down_edges:
                remaining = 0.0
            elif key in bw and load.capacity != float("inf"):
                remaining = load.capacity * bw[key]
            else:
                continue
            stress = _stress(load.timeline, remaining, fault)
            if stress is not None:
                saturated.append(
                    LinkStress(key, fault.key, remaining, *stress)
                )
        for location, factor in effects.capacity_factors:
            load = simulation.storages.get(location)
            if load is None or load.capacity == float("inf"):
                continue
            remaining = load.capacity * factor
            stress = _stress(load.reserved, remaining, fault)
            if stress is not None:
                overflows.append(
                    StorageStress(location, fault.key, remaining, *stress)
                )

    report = DegradedModeReport(
        n_requests=len(schedule.deliveries),
        n_faults=len(plan),
        dropped=tuple(dropped),
        late=tuple(late),
        stranded=tuple(stranded),
        saturated_links=tuple(saturated),
        storage_overflows=tuple(overflows),
        impacted_videos=tuple(impacted),
    )
    _log.info(
        "degraded-mode analysis: %d dropped, %d late, %d stranded under "
        "%d fault(s)",
        report.requests_dropped,
        report.requests_late,
        len(report.stranded),
        report.n_faults,
    )
    return report


__all__ = [
    "ServiceImpact",
    "StrandedResidency",
    "LinkStress",
    "StorageStress",
    "DegradedModeReport",
    "build_degraded_report",
]
