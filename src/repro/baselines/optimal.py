"""Exhaustive optimal scheduler for tiny instances.

``VSP`` is NP-complete (paper Sec. 2.3), but on toy instances we can
enumerate every schedule in the family the heuristics search over and obtain
a true optimum to measure the heuristic's gap against (Sec. 5.5 claims the
two-phase result is within ~30 % of optimal on average).

The schedule family: every request is served from some *copy* -- a home
warehouse of its video (every warehouse, without a replica map), or a cache
at an intermediate storage that some earlier stream passed through.  Streams travel on cheapest-rate routes and deposit caching
opportunities at every storage they traverse; a cache's residency starts at
the **latest deposit not later than its first service** (minimizing the
Eq. 2/3 space-time) and is extended by each further service taken from it.
This family strictly contains everything the greedy/rejective schedulers can
emit, so ``optimal <= heuristic`` always holds.

The search is depth-first over chronological requests with partial-cost
pruning (both network and storage costs are monotone as services are added),
plus an optional final capacity-feasibility filter.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass

from repro.core.costmodel import CostModel
from repro.core.overflow import detect_overflows
from repro.core.schedule import DeliveryInfo, FileSchedule, ResidencyInfo, Schedule
from repro.errors import RoutingError, ScheduleError
from repro.workload.requests import Request, RequestBatch


@dataclass
class _CacheState:
    """Mutable residency under construction at one (video, storage)."""

    t_start: float
    t_last: float
    services: tuple[str, ...]
    source: str


class OptimalScheduler:
    """Brute-force optimum over the copy-assignment schedule family.

    Args:
        cost_model: Pricing + topology + catalog.  Each request's
            warehouse sources are its video's
            :meth:`~repro.core.costmodel.CostModel.homes`, so the optimum
            is computed over the same schedule family the replica-aware
            greedy searches, and each stream is priced under the model's
            tariff, as it is billed.
        max_nodes: Upper bound on the enumeration size (the product over
            requests of ``#homes + #storages``); larger instances raise
            :class:`~repro.errors.ScheduleError` instead of hanging.
    """

    def __init__(self, cost_model: CostModel, *, max_nodes: int = 2_000_000):
        self._cm = cost_model
        self._router = cost_model.router
        self._topo = cost_model.topology
        if not self._topo.warehouses:
            raise ScheduleError("topology has no warehouse to serve from")
        self._storages = tuple(s.name for s in self._topo.storages)
        self._max_nodes = max_nodes

    # -- public API ----------------------------------------------------------

    def solve(self, batch: RequestBatch, *, respect_capacity: bool = True) -> Schedule:
        """Globally optimal schedule over all requests (joint across files)."""
        requests = sorted(batch)
        self._check_size(requests)
        best = self._search(requests, respect_capacity)
        if best is None:
            raise ScheduleError("no feasible schedule found (capacity too small?)")
        return best

    def optimal_cost(self, batch: RequestBatch) -> float:
        """Ψ of the optimal schedule."""
        return self._cm.total(self.solve(batch))

    # -- search --------------------------------------------------------------

    def _check_size(self, requests: list[Request]) -> None:
        space = 1
        for req in requests:
            space *= len(self._cm.homes(req.video_id)) + len(self._storages)
        if space > self._max_nodes:
            raise ScheduleError(
                f"search space {space} exceeds max_nodes={self._max_nodes}; "
                "the optimal baseline is for tiny instances only"
            )

    def _search(
        self, requests: list[Request], respect_capacity: bool
    ) -> Schedule | None:
        best_cost = math.inf
        best_schedule: Schedule | None = None
        catalog = self._cm.catalog
        # deposits[(video, storage)] = sorted stream times passing that node
        deposits: dict[tuple[str, str], list[float]] = {}
        caches: dict[tuple[str, str], _CacheState] = {}
        assignment: list[tuple[Request, tuple[str, ...]]] = []

        def storage_cost_now() -> float:
            return math.fsum(
                self._cm.residency_cost_for(v, loc, cs.t_start, cs.t_last)
                for (v, loc), cs in caches.items()
            )

        def recurse(idx: int, net_cost: float) -> None:
            nonlocal best_cost, best_schedule
            partial = net_cost + storage_cost_now()
            if partial >= best_cost:
                return
            if idx == len(requests):
                schedule = self._materialize(assignment, caches)
                if respect_capacity and detect_overflows(
                    schedule, catalog, self._topo
                ):
                    return
                total = self._cm.total(schedule)
                if total < best_cost:
                    best_cost = total
                    best_schedule = schedule
                return
            req = requests[idx]
            # Ψ_D per unit route rate, tariff included, so the partial cost
            # never over-states a schedule's Ψ and the bound prunes soundly
            volume = catalog[req.video_id].network_volume * (
                self._cm.network_multiplier(req.start_time)
            )
            homes = self._cm.homes(req.video_id)
            for source in homes + self._storages:
                key = (req.video_id, source)
                undo_cache = None
                created = False
                if source in homes:
                    ext_cost = 0.0
                else:
                    cs = caches.get(key)
                    if cs is not None:
                        if cs.t_start > req.start_time:
                            continue
                        before = self._cm.residency_cost_for(
                            req.video_id, source, cs.t_start, cs.t_last
                        )
                        undo_cache = _CacheState(
                            cs.t_start, cs.t_last, cs.services, cs.source
                        )
                        cs.t_last = max(cs.t_last, req.start_time)
                        cs.services = cs.services + (req.user_id,)
                        after = self._cm.residency_cost_for(
                            req.video_id, source, cs.t_start, cs.t_last
                        )
                        ext_cost = after - before
                    else:
                        dep = deposits.get(key)
                        t0 = _latest_at_or_before(dep, req.start_time)
                        if t0 is None:
                            continue  # no stream has passed this storage yet
                        caches[key] = _CacheState(
                            t0, req.start_time, (req.user_id,), "?"
                        )
                        created = True
                        ext_cost = self._cm.residency_cost_for(
                            req.video_id, source, t0, req.start_time
                        )
                try:
                    route = self._router.route(source, req.local_storage)
                except RoutingError:
                    if created:
                        del caches[key]
                    elif undo_cache is not None:
                        caches[key] = undo_cache
                    continue  # this copy cannot reach the neighborhood
                step_net = volume * route.rate
                # record deposits along this stream's route
                new_deposits = []
                for node in route.nodes:
                    if node == source or not self._topo.node(node).is_storage:
                        continue
                    dkey = (req.video_id, node)
                    deposits.setdefault(dkey, [])
                    insort(deposits[dkey], req.start_time)
                    new_deposits.append(dkey)
                assignment.append((req, route.nodes))

                recurse(idx + 1, net_cost + step_net)

                assignment.pop()
                for dkey in new_deposits:
                    deposits[dkey].remove(req.start_time)
                if created:
                    del caches[key]
                elif undo_cache is not None:
                    caches[key] = undo_cache

        recurse(0, 0.0)
        return best_schedule

    def _materialize(
        self,
        assignment: list[tuple[Request, tuple[str, ...]]],
        caches: dict[tuple[str, str], _CacheState],
    ) -> Schedule:
        files: dict[str, FileSchedule] = {}
        for req, route in assignment:
            fs = files.setdefault(req.video_id, FileSchedule(req.video_id))
            fs.add_delivery(DeliveryInfo(req.video_id, route, req.start_time, req))
        for (video_id, loc), cs in caches.items():
            fs = files.setdefault(video_id, FileSchedule(video_id))
            # a cache exists only downstream of a stream from some home
            source = self._cm.homes(video_id)[0]
            fs.add_residency(
                ResidencyInfo(
                    video_id, loc, source, cs.t_start, cs.t_last, cs.services
                )
            )
        return Schedule(files.values())


def _latest_at_or_before(times: list[float] | None, t: float) -> float | None:
    """Latest element of a sorted list that is <= t, else None."""
    if not times:
        return None
    idx = bisect_right(times, t) - 1
    if idx < 0:
        return None
    return times[idx]
