"""Replay of a service schedule as per-resource loads.

:class:`SimulationEngine` walks a schedule once and aggregates what it
puts on each resource:

* per-storage occupancy timelines under the paper's **Eq. 6 reserved**
  model (built by the replay: every validation's capacity check reads
  them) and the **fluid** physical model (built on first read),
* per-link concurrent-bandwidth timelines, built on first read (each
  delivery occupies every edge of its route at the video's bandwidth for
  one playback length),
* stream and residency counts and the makespan, from which the replayed
  event counts (4 per stream, 3 per residency) are derived.

A lazy load keeps its inputs as plain tuples in replay order and builds
its timeline from the same profiles in the same order the first time it
is read, so every reader gets the timeline an eager replay would build.
A validation on a topology without link capacities therefore builds one
timeline per storage and nothing else.

The engine observes; it does not judge.  Feasibility checks live in
:mod:`repro.sim.validate`, which consumes the engine's report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

from repro.catalog.catalog import VideoCatalog
from repro.catalog.video import VideoFile
from repro.core.costmodel import CostModel
from repro.core.schedule import ResidencyInfo, Schedule
from repro.core.spacefunc import (
    SpaceProfile,
    UsageTimeline,
    capacity_slack,
    flat_timeline,
)
from repro.obs import NULL_OBS, Observability
from repro.sim.fluid import fluid_occupancy_profile

_log = logging.getLogger(__name__)


@dataclass
class LinkLoad:
    """Bandwidth usage on one undirected link."""

    edge: tuple[str, str]
    capacity: float
    #: ``(t0, t1, bandwidth)`` of every stream over the link, in replay order.
    streams: list[tuple[float, float, float]] = field(
        default_factory=list, repr=False
    )

    @cached_property
    def timeline(self) -> UsageTimeline:
        return flat_timeline(self.streams)

    @property
    def peak(self) -> float:
        return self.timeline.peak

    @property
    def saturated(self) -> bool:
        """Whether the load peaks above ``capacity_slack`` of the capacity."""
        if self.capacity == float("inf"):
            return False
        return self.peak > capacity_slack(self.capacity)


@dataclass
class StorageLoad:
    """Occupancy at one storage under both space models."""

    location: str
    reserved: UsageTimeline
    capacity: float
    #: ``(video, residency)`` of every residency here, in replay order.
    residencies: list[tuple[VideoFile, ResidencyInfo]] = field(
        default_factory=list, repr=False
    )

    @cached_property
    def fluid(self) -> UsageTimeline:
        return UsageTimeline(
            fluid_occupancy_profile(v.size, v.playback, c.t_start, c.t_last)
            for v, c in self.residencies
        )

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
            peak gauges.
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
        _log.debug(
            "simulated %d event(s): %d stream(s), %d residenc(ies)",
            report.n_events, report.n_streams, report.n_residencies,
        )
        return report

    def _run(self, schedule: Schedule) -> SimulationReport:
        report = SimulationReport()
        links = report.links
        by_loc: dict[
            str, tuple[list[tuple[VideoFile, ResidencyInfo]], list[SpaceProfile]]
        ] = {}
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
                    load = links.get(key)
                    if load is None:
                        load = links[key] = LinkLoad(
                            key, self._topo.edge(a, b).bandwidth
                        )
                    load.streams.append((t0, t1, video.bandwidth))
            for c in fs.residencies:
                firsts.append(c.t_start)
                lasts.append(c.t_last + video.playback)
                report.n_residencies += 1
                residencies, profiles = by_loc.setdefault(c.location, ([], []))
                residencies.append((video, c))
                profiles.append(c.profile(video))
        if firsts:
            report.makespan = (min(firsts), max(lasts))

        for spec in self._topo.storages:
            residencies, profiles = by_loc.get(spec.name, ([], []))
            report.storages[spec.name] = StorageLoad(
                location=spec.name,
                reserved=UsageTimeline(profiles),
                capacity=spec.capacity,
                residencies=residencies,
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
