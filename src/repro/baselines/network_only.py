"""The "network only system" baseline.

Figures 5 and 7 of the paper compare the distributed-caching scheduler
against an environment *without* intermediate storage: every request is an
independent stream from the video warehouse to the user's local storage.
Its cost is pure network cost and scales linearly in the network charging
rate, which is exactly the straight line the paper plots.

On a replicated multi-warehouse topology each request streams from the
cheapest *home* warehouse of its video, as
:meth:`~repro.core.costmodel.CostModel.cheapest_home` prices it for the
greedy and the gateway quote (every warehouse, without a
:class:`~repro.replication.ReplicaMap` on the cost model), so the baseline
stays well-defined beyond the paper's single-VW environment.
"""

from __future__ import annotations

from repro.core.costmodel import CostModel
from repro.core.schedule import DeliveryInfo, FileSchedule, Schedule
from repro.errors import ScheduleError
from repro.workload.requests import RequestBatch


def network_only_schedule(batch: RequestBatch, cost_model: CostModel) -> Schedule:
    """Direct-from-warehouse schedule: one VW stream per request, no caching."""
    schedule = Schedule()
    for video_id, requests in batch.by_video().items():
        fs = FileSchedule(video_id)
        for req in requests:
            home = cost_model.cheapest_home(
                video_id,
                req.start_time,
                cost_model.router.routes_to(req.local_storage),
            )
            if home is None:
                raise ScheduleError(
                    f"no home warehouse can reach {req.local_storage!r} for "
                    f"video {video_id!r}"
                )
            route = home[1]
            fs.add_delivery(
                DeliveryInfo(
                    video_id=video_id,
                    route=route.nodes,
                    start_time=req.start_time,
                    request=req,
                )
            )
        schedule.set_file(fs)
    return schedule


def network_only_cost(batch: RequestBatch, cost_model: CostModel) -> float:
    """Ψ of the network-only schedule (the paper's straight-line baseline)."""
    return cost_model.total(network_only_schedule(batch, cost_model))
