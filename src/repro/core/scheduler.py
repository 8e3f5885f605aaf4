"""The two-phase video scheduler facade (paper Sec. 3.1).

:func:`solve_two_phase` is the paper's heuristic as one pipeline:

1. **Individual Video Scheduling** -- per-file greedy schedules assuming
   unbounded intermediate storage (:mod:`repro.core.individual`);
2. **Integration + Storage Overflow Resolution** -- merge, detect
   over-commitments, and reschedule victims until feasible
   (:mod:`repro.core.sorp`).

:class:`VideoScheduler` runs it for one isolated cycle; the rolling
scheduler and whole-cycle fault recovery run it with carryover seeds, a
capacity background or a kept base schedule.  :func:`scheduling_model` is
how every scheduler gets its cost model.

The returned :class:`ScheduleResult` carries the feasible schedule, its cost
breakdown, and the Phase-1/Phase-2 statistics the paper reports (overflow
counts, victims, relative cost increase).  With a live observability handle
(``obs=``), a solve additionally records ``solve``/``ivsp``/``sorp``/
``overflow`` spans, Ψ-evaluation counters, and per-IS peak-storage gauges
-- all without changing a single bit of the schedule.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import (
    CacheStats,
    CacheStatsDetail,
    CostBreakdown,
    CostModel,
    record_cache_metrics,
)
from repro.core.heat import HeatMetric
from repro.core.parallel import ParallelIndividualScheduler
from repro.core.schedule import ResidencyInfo, Schedule
from repro.core.sorp import ResolutionStats, resolve_overflows
from repro.core.spacefunc import UsageTimeline
from repro.errors import ScheduleError
from repro.obs import NULL_OBS, Observability
from repro.topology.graph import Topology
from repro.topology.validation import validate_topology
from repro.workload.requests import RequestBatch

_log = logging.getLogger(__name__)


@dataclass
class ScheduleResult:
    """Outcome of a full two-phase scheduling run."""

    schedule: Schedule
    cost: CostBreakdown
    resolution: ResolutionStats
    #: Per-cache (Ψ_C vs Ψ_D) cost-evaluation cache activity over the whole
    #: solve.  Excluded from equality: two runs that produce identical
    #: schedules may reach them with different hit/miss mixes.
    cache_detail: CacheStatsDetail = field(
        default_factory=CacheStatsDetail, compare=False
    )

    @property
    def total_cost(self) -> float:
        """Ψ of the final feasible schedule."""
        return self.cost.total

    @property
    def phase1_cost(self) -> float:
        """Ψ of the integrated Phase-1 schedule, before SORP."""
        return self.resolution.phase1_cost

    @property
    def overflow_cost_ratio(self) -> float:
        """Relative cost added by overflow resolution (Sec. 5.5)."""
        return self.resolution.cost_increase_ratio

    @property
    def cache_stats(self) -> CacheStats:
        """Cache activity of both caches combined."""
        return self.cache_detail.combined

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of Ψ evaluations served from the memoization cache."""
        return self.cache_stats.hit_rate


def record_schedule_metrics(
    obs: Observability,
    schedule: Schedule,
    cost_model: CostModel,
    *,
    scope: str = "final",
) -> None:
    """Record schedule-derived gauges: per-IS peak storage and Ψ split.

    Every intermediate storage gets a ``vor_storage_peak_reserved_bytes``
    gauge (Eq. 6 reserved model, zero when unused), so capacity pressure
    is visible per site.  All values are pure functions of the schedule,
    so they are deterministic for a seeded batch.
    """
    metrics = obs.metrics
    if not metrics.enabled:
        return
    catalog = cost_model.catalog
    by_loc: dict[str, list] = {}
    for fs in schedule:
        video = catalog[fs.video_id]
        for c in fs.residencies:
            by_loc.setdefault(c.location, []).append(c.profile(video))
    for spec in cost_model.topology.storages:
        metrics.gauge(
            "vor_storage_peak_reserved_bytes",
            mode="max",
            help="Peak reserved (Eq. 6) occupancy per intermediate storage",
            location=spec.name,
        ).set(UsageTimeline(by_loc.get(spec.name, [])).peak)
    cost = cost_model.schedule_cost(schedule)
    for component, value in (("storage", cost.storage), ("network", cost.network)):
        metrics.gauge(
            "vor_schedule_cost_dollars",
            mode="last",
            help="Ψ of the schedule by resource component",
            component=component,
            scope=scope,
        ).set(value)


def scheduling_model(
    topology: Topology,
    catalog: VideoCatalog,
    *,
    cost_model: CostModel | None = None,
    replicas=None,
) -> CostModel:
    """The cost model a scheduler over ``topology`` prices against.

    ``replicas`` and a ``cost_model`` carrying a different map are
    rejected; the topology is validated against the map the returned model
    carries.  Without a ``cost_model`` the flat-rate paper model is built.
    """
    if cost_model is not None:
        if replicas is not None and cost_model.replicas is not replicas:
            raise ScheduleError(
                "pass replicas either directly or on the cost model, not both"
            )
        replicas = cost_model.replicas
    validate_topology(topology, replicas=replicas)
    if cost_model is None:
        cost_model = CostModel(topology, catalog, replicas=replicas)
    return cost_model


def solve_two_phase(
    batch: RequestBatch,
    cost_model: CostModel,
    *,
    heat_metric: HeatMetric,
    obs: Observability,
    seeds: dict[str, tuple[ResidencyInfo, ...]] | None = None,
    background=None,
    base: Schedule | None = None,
    pricing: CostModel | None = None,
) -> ScheduleResult:
    """IVSP per file, integrate, then SORP: the paper's heuristic (Table 3).

    ``seeds`` (carryover residencies per video id) seed the Phase-1 greedy
    and are committed for SORP; ``background`` is SORP's capacity
    background.  ``base`` holds files kept verbatim: the Phase-1 files are
    grafted over it, and SORP resolves the requests the grafted schedule
    delivers.  The pruned result is priced once on ``pricing`` (default
    ``cost_model``), recorded as ``phase="costing"``.
    """
    pricing = pricing if pricing is not None else cost_model
    start = cost_model.cache_stats_detail
    schedule = ParallelIndividualScheduler(cost_model, obs=obs).run(
        batch, seeds=seeds
    ).schedule
    if base is not None:
        grafted = base.copy()
        for fs in schedule:
            grafted.set_file(fs)
        schedule = grafted
        batch = RequestBatch(d.request for d in schedule.deliveries)
    resolved, stats = resolve_overflows(
        schedule,
        batch,
        cost_model,
        metric=heat_metric,
        background=background,
        committed=seeds,
        obs=obs,
    )
    final = resolved.pruned()
    detail = cost_model.cache_stats_detail - start
    before = pricing.cache_stats_detail
    cost = pricing.schedule_cost(final)
    costing = pricing.cache_stats_detail - before
    record_cache_metrics(obs.metrics, costing, phase="costing")
    return ScheduleResult(final, cost, stats, cache_detail=detail + costing)


class VideoScheduler:
    """End-to-end scheduler for one cycle of VOR requests.

    Args:
        topology: The delivery infrastructure (validated on construction).
        catalog: All schedulable videos.
        heat_metric: Victim-selection criterion for Phase 2; defaults to the
            paper's best performer, method 4 (``ΔS / overhead``, Eq. 11).
        cost_model: Optional custom Ψ (e.g. a time-of-day tariff from
            :mod:`repro.extensions.pricing`); must be built over the same
            topology and catalog.  Defaults to the flat-rate paper model.
        obs: Observability handle (:class:`repro.obs.Observability`);
            defaults to the inert :data:`repro.obs.NULL_OBS`.
        replicas: Optional :class:`~repro.replication.ReplicaMap` homing
            each video at a subset of the warehouses; the Phase-1 greedy
            then serves each request from the cheapest reachable copy among
            the video's homes and open caches.  Mutually exclusive with a
            ``cost_model`` that already carries a different map.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        heat_metric: HeatMetric = HeatMetric.SPACE_TIME_PER_COST,
        cost_model: CostModel | None = None,
        obs: Observability | None = None,
        replicas=None,
    ):
        self.topology = topology
        self.catalog = catalog
        self.heat_metric = heat_metric
        self.cost_model = scheduling_model(
            topology, catalog, cost_model=cost_model, replicas=replicas
        )
        self.obs = obs if obs is not None else NULL_OBS

    def solve(self, batch: RequestBatch) -> ScheduleResult:
        """Full two-phase solve: greedy + overflow resolution."""
        with self.obs.tracer.span("solve", requests=len(batch)) as span:
            result = solve_two_phase(
                batch, self.cost_model, heat_metric=self.heat_metric, obs=self.obs
            )
            final = result.schedule
            span.set(
                deliveries=len(final.deliveries),
                residencies=len(final.residencies),
                overflow_fixes=result.resolution.iterations,
            )
        record_schedule_metrics(self.obs, final, self.cost_model, scope="final")
        if self.obs.metrics.enabled:
            self.obs.metrics.gauge(
                "vor_schedule_cost_dollars",
                mode="last",
                help="Ψ of the schedule by resource component",
                component="total",
                scope="phase1",
            ).set(result.phase1_cost)
        _log.info(
            "solved %d requests: $%.2f (%d deliveries, %d residencies, "
            "%d overflow fixes)",
            len(batch),
            result.total_cost,
            len(final.deliveries),
            len(final.residencies),
            result.resolution.iterations,
        )
        return result
