"""Phase-1 engine: the ``IVSP_solve`` loop over a whole batch.

Individual Video Scheduling (paper Sec. 3.2) partitions the cycle's
requests into per-video sets ``R_i`` and computes each file's schedule
independently.  :class:`ParallelIndividualScheduler` runs that loop in the
deterministic ``RequestBatch.by_video()`` order (first-request order),
seeding each video's greedy with its carryover residencies.  The greedy
prices with :func:`repro.core.costmodel.storage_cost`, so a run makes no
route-table lookups.

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

from dataclasses import dataclass

from repro.core.costmodel import CostModel
from repro.core.individual import IndividualScheduler
from repro.core.schedule import ResidencyInfo, Schedule
from repro.obs import NULL_OBS, Observability
from repro.workload.requests import RequestBatch


@dataclass(frozen=True)
class Phase1Result:
    """Outcome of one Phase-1 run."""

    schedule: Schedule


class ParallelIndividualScheduler:
    """Run ``IVSP_solve`` for a whole batch, one video at a time.

    Args:
        cost_model: Pricing + topology + catalog.
        obs: Observability handle; defaults to the inert
            :data:`repro.obs.NULL_OBS`.
        route_policy: Optional :class:`~repro.core.individual.RoutePolicy`;
            defaults to cheapest-path routing.

    The engine is stateless between runs and safe to reuse across batches.
    """

    def __init__(
        self,
        cost_model: CostModel,
        *,
        obs: Observability | None = None,
        route_policy=None,
    ):
        self._obs = obs if obs is not None else NULL_OBS
        self._scheduler = IndividualScheduler(
            cost_model, route_policy=route_policy, obs=self._obs
        )

    def run(
        self,
        batch: RequestBatch,
        *,
        seeds: dict[str, tuple[ResidencyInfo, ...]] | None = None,
    ) -> Phase1Result:
        """Solve Phase 1 for ``batch``.

        Args:
            batch: The cycle's requests.
            seeds: Optional carryover residencies per video id (rolling
                cycles); missing ids seed empty.
        """
        with self._obs.tracer.span(
            "ivsp", videos=len(batch.video_ids), requests=len(batch)
        ):
            schedule = self._scheduler.solve(batch, seeds=seeds)
        return Phase1Result(schedule)
