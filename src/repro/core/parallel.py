"""Phase-1 engine: the ``IVSP_solve`` loop over a whole batch.

Individual Video Scheduling (paper Sec. 3.2) partitions the cycle's
requests into per-video sets ``R_i`` and computes each file's schedule
independently.  :class:`ParallelIndividualScheduler` runs that loop in the
deterministic ``RequestBatch.by_video()`` order (first-request order),
seeding each video's greedy with its carryover residencies, and reports
the cost-cache activity the run caused.

Observability: every run is wrapped in an ``ivsp`` span and each per-video
solve records an ``ivsp.video`` span (see :mod:`repro.core.individual`).
With the default :data:`repro.obs.NULL_OBS` nothing is recorded and
schedules are unchanged.

Phase 2 (overflow resolution) is a sequential victim-selection loop over
the resulting schedule; see :mod:`repro.core.sorp`.
"""

# Names kept: vorbench/layers.py wraps ParallelIndividualScheduler.run as
# its "ivsp" layer, so the two-phase pipeline (core/scheduler.py) runs
# Phase 1 through this class rather than IndividualScheduler.solve.

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import (
    CacheStats,
    CacheStatsDetail,
    CostModel,
    record_cache_metrics,
)
from repro.core.individual import IndividualScheduler
from repro.core.schedule import ResidencyInfo, Schedule
from repro.obs import NULL_OBS, Observability
from repro.workload.requests import RequestBatch


@dataclass(frozen=True)
class Phase1Result:
    """Outcome of one Phase-1 run."""

    schedule: Schedule
    #: Cost-cache activity of this run (the cost model's counter delta).
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Per-cache (Ψ_C vs Ψ_D) breakdown of :attr:`cache_stats`.
    detail: CacheStatsDetail = field(default_factory=CacheStatsDetail)


class ParallelIndividualScheduler:
    """Run ``IVSP_solve`` for a whole batch, one video at a time.

    Args:
        cost_model: Pricing + topology + catalog.
        obs: Observability handle; defaults to the inert
            :data:`repro.obs.NULL_OBS`.

    The engine is stateless between runs and safe to reuse across batches.
    """

    def __init__(
        self,
        cost_model: CostModel,
        *,
        obs: Observability | None = None,
    ):
        self._cm = cost_model
        self._obs = obs if obs is not None else NULL_OBS
        self._scheduler = IndividualScheduler(cost_model, obs=self._obs)

    def run(
        self,
        batch: RequestBatch,
        catalog: VideoCatalog | None = None,
        *,
        seeds: dict[str, tuple[ResidencyInfo, ...]] | None = None,
    ) -> Phase1Result:
        """Solve Phase 1 for ``batch``.

        Args:
            batch: The cycle's requests.
            catalog: Video lookup; defaults to the cost model's catalog.
            seeds: Optional carryover residencies per video id (rolling
                cycles); missing ids seed empty.
        """
        with self._obs.tracer.span(
            "ivsp", videos=len(batch.video_ids), requests=len(batch)
        ):
            before = self._cm.cache_stats_detail
            schedule = self._scheduler.solve(batch, catalog, seeds=seeds)
            detail = self._cm.cache_stats_detail - before
        record_cache_metrics(self._obs.metrics, detail, phase="ivsp")
        return Phase1Result(schedule, cache_stats=detail.combined, detail=detail)
