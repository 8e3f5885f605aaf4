"""Replay of a service schedule as per-resource loads.

:class:`SimulationEngine` walks a schedule once and aggregates what it
puts on each resource:

* per-storage occupancy timelines under both the **fluid** physical model and
  the paper's **Eq. 6 reserved** model,
* per-link concurrent-bandwidth timelines (each delivery occupies every edge
  of its route at the video's bandwidth for one playback length),
* stream and residency counts and the makespan, from which the replayed
  event counts (4 per stream, 3 per residency) are derived.

The engine observes; it does not judge.  Feasibility checks live in
:mod:`repro.sim.validate`, which consumes the engine's report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import CostModel
from repro.core.schedule import Schedule
from repro.core.spacefunc import SpaceProfile, UsageTimeline, LinearSegment
from repro.obs import NULL_OBS, Observability, RunTelemetry
from repro.sim.fluid import fluid_occupancy_profile

_log = logging.getLogger(__name__)


@dataclass
class LinkLoad:
    """Bandwidth usage on one undirected link."""

    edge: tuple[str, str]
    timeline: UsageTimeline
    capacity: float

    @property
    def peak(self) -> float:
        return self.timeline.peak

    @property
    def saturated_intervals(self) -> list[tuple[float, float]]:
        if self.capacity == float("inf"):
            return []
        return self.timeline.intervals_above(self.capacity)


@dataclass
class StorageLoad:
    """Occupancy at one storage under both space models."""

    location: str
    fluid: UsageTimeline
    reserved: UsageTimeline
    capacity: float

    @property
    def fluid_peak(self) -> float:
        return self.fluid.peak

    @property
    def reserved_peak(self) -> float:
        return self.reserved.peak


#: Each delivery starts and ends a stream and a service; each residency
#: opens, starts its last service, and releases.
_STREAM_KINDS = ("stream_start", "stream_end", "service_start", "service_end")
_CACHE_KINDS = ("cache_open", "cache_last_service", "cache_release")


@dataclass
class SimulationReport:
    """Per-resource loads of one schedule replay, plus its counts."""

    storages: dict[str, StorageLoad] = field(default_factory=dict)
    links: dict[tuple[str, str], LinkLoad] = field(default_factory=dict)
    n_streams: int = 0
    n_residencies: int = 0
    #: (first, last) instant the schedule touches: the earliest stream
    #: start or cache open, the latest stream end or cache release;
    #: (0, 0) for an empty schedule.
    makespan: tuple[float, float] = (0.0, 0.0)
    #: Telemetry snapshot taken as the run finished (``None`` when the
    #: engine runs with the default null observability handle).
    telemetry: RunTelemetry | None = None

    def events_by_kind(self) -> dict[str, int]:
        """Replayed event count per kind, kinds with no event omitted."""
        out: dict[str, int] = {}
        for kinds, count in (
            (_STREAM_KINDS, self.n_streams),
            (_CACHE_KINDS, self.n_residencies),
        ):
            if count:
                out.update(dict.fromkeys(kinds, count))
        return out

    @property
    def n_events(self) -> int:
        """Replayed events: 4 per stream and 3 per residency."""
        return sum(self.events_by_kind().values())


class SimulationEngine:
    """Replays a schedule under the fluid-flow semantics.

    Args:
        cost_model: Supplies topology + catalog.
        obs: Observability handle; when live, each run records a
            ``simulate`` span, per-kind event counters, and per-resource
            peak gauges, and attaches a telemetry snapshot to the report.
    """

    def __init__(self, cost_model: CostModel, *, obs: Observability | None = None):
        self._cm = cost_model
        self._topo = cost_model.topology
        self._catalog: VideoCatalog = cost_model.catalog
        self._obs = obs if obs is not None else NULL_OBS

    def run(self, schedule: Schedule) -> SimulationReport:
        """Replay ``schedule`` and return its per-resource loads."""
        with self._obs.tracer.span(
            "simulate",
            deliveries=len(schedule.deliveries),
            residencies=len(schedule.residencies),
        ) as span:
            report = self._run(schedule)
            span.set(events=report.n_events)
        self._record_metrics(report)
        if self._obs.enabled:
            report.telemetry = self._obs.telemetry()
        _log.debug(
            "simulated %d event(s): %d stream(s), %d residenc(ies)",
            report.n_events, report.n_streams, report.n_residencies,
        )
        return report

    def _run(self, schedule: Schedule) -> SimulationReport:
        report = SimulationReport()
        link_profiles: dict[tuple[str, str], list[SpaceProfile]] = {}
        by_loc: dict[str, tuple[list[SpaceProfile], list[SpaceProfile]]] = {}
        firsts: list[float] = []
        lasts: list[float] = []

        for fs in schedule:
            video = self._catalog[fs.video_id]
            for d in fs.deliveries:
                t0, t1 = d.start_time, d.start_time + video.playback
                firsts.append(t0)
                lasts.append(t1)
                report.n_streams += 1
                for a, b in zip(d.route, d.route[1:]):
                    key = (a, b) if a <= b else (b, a)
                    link_profiles.setdefault(key, []).append(
                        SpaceProfile(
                            (
                                LinearSegment(
                                    t0, t1, video.bandwidth, video.bandwidth
                                ),
                            )
                        )
                    )
            for c in fs.residencies:
                firsts.append(c.t_start)
                lasts.append(c.t_last + video.playback)
                report.n_residencies += 1
                fl, rs = by_loc.setdefault(c.location, ([], []))
                fl.append(
                    fluid_occupancy_profile(
                        video.size, video.playback, c.t_start, c.t_last
                    )
                )
                rs.append(c.profile(video))
        if firsts:
            report.makespan = (min(firsts), max(lasts))

        for spec in self._topo.storages:
            fl, rs = by_loc.get(spec.name, ([], []))
            report.storages[spec.name] = StorageLoad(
                location=spec.name,
                fluid=UsageTimeline(fl),
                reserved=UsageTimeline(rs),
                capacity=spec.capacity,
            )

        for key, profiles in link_profiles.items():
            report.links[key] = LinkLoad(
                edge=key,
                timeline=UsageTimeline(profiles),
                capacity=self._topo.edge(*key).bandwidth,
            )
        return report

    def _record_metrics(self, report: SimulationReport) -> None:
        metrics = self._obs.metrics
        if not metrics.enabled:
            return
        for kind, count in sorted(report.events_by_kind().items()):
            metrics.counter(
                "vor_sim_events_total",
                help="Simulation events replayed, by kind",
                kind=kind,
            ).inc(count)
        for name, load in report.storages.items():
            metrics.gauge(
                "vor_storage_peak_reserved_bytes",
                mode="max",
                help="Peak reserved (Eq. 6) occupancy per intermediate storage",
                location=name,
            ).set(load.reserved_peak)
            metrics.gauge(
                "vor_storage_peak_fluid_bytes",
                mode="max",
                help="Peak fluid-model occupancy per intermediate storage",
                location=name,
            ).set(load.fluid_peak)
        for (a, b), load in report.links.items():
            metrics.gauge(
                "vor_link_peak_bytes_per_second",
                mode="max",
                help="Peak concurrent bandwidth per undirected link",
                link=f"{a}-{b}",
            ).set(load.peak)
