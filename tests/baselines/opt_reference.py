"""Reference optimum: every source assignment replayed, nothing pruned.

:class:`~repro.baselines.optimal.OptimalScheduler` searches the
copy-assignment schedule family depth-first and prunes a branch once its
partial cost reaches the best total found.  This enumerates the same family
without any bound: every request (in chronological order) takes each home
warehouse and each storage as its source, each assignment is replayed on
its own, and every valid schedule is priced by the cost model.  It shares
no code with the search -- only the router, the capacity check and the
cost model's billing -- so a bound that cuts off the optimum shows as a
difference.

Test-only, and exponential: keep instances to a handful of requests.
"""

from __future__ import annotations

import itertools
import math

from repro.core.overflow import detect_overflows
from repro.core.schedule import DeliveryInfo, FileSchedule, ResidencyInfo, Schedule
from repro.errors import RoutingError
from repro.topology import Router


def _homes(cost_model, video_id):
    warehouses = [w.name for w in cost_model.topology.warehouses]
    replicas = cost_model.replicas
    if replicas is None:
        return warehouses
    return [h for h in replicas.homes(video_id) if h in warehouses]


def _replay(cost_model, router, storages, requests, sources):
    """The schedule one assignment builds, or None when it is not in the
    family (a cache used before it is filled, a storage no stream has
    passed, an unroutable source)."""
    deposits: dict[tuple[str, str], list[float]] = {}
    caches: dict[tuple[str, str], list] = {}
    files: dict[str, FileSchedule] = {}
    for req, source in zip(requests, sources):
        t = req.start_time
        key = (req.video_id, source)
        if source in storages:
            cache = caches.get(key)
            if cache is not None:
                if cache[0] > t:
                    return None
                cache[1] = max(cache[1], t)
                cache[2] += (req.user_id,)
            else:
                # the residency starts at the latest stream to pass here
                passed = [d for d in deposits.get(key, ()) if d <= t]
                if not passed:
                    return None
                caches[key] = [max(passed), t, (req.user_id,)]
        try:
            route = router.route(source, req.local_storage)
        except RoutingError:
            return None
        for node in route.nodes:
            if node != source and node in storages:
                deposits.setdefault((req.video_id, node), []).append(t)
        fs = files.setdefault(req.video_id, FileSchedule(req.video_id))
        fs.add_delivery(DeliveryInfo(req.video_id, route.nodes, t, req))
    for (video_id, loc), (t_start, t_last, users) in caches.items():
        files[video_id].add_residency(
            ResidencyInfo(
                video_id, loc, _homes(cost_model, video_id)[0],
                t_start, t_last, users,
            )
        )
    return Schedule(files.values())


def unpruned_optimum(cost_model, batch, *, respect_capacity: bool = True):
    """Least Ψ over every schedule of the family (``inf`` when none is
    feasible)."""
    topo = cost_model.topology
    router = Router(topo)
    storages = tuple(s.name for s in topo.storages)
    requests = sorted(batch)
    options = [tuple(_homes(cost_model, r.video_id)) + storages for r in requests]
    best = math.inf
    for sources in itertools.product(*options):
        schedule = _replay(cost_model, router, storages, requests, sources)
        if schedule is None:
            continue
        if respect_capacity and detect_overflows(
            schedule, cost_model.catalog, topo
        ):
            continue
        best = min(best, cost_model.total(schedule))
    return best
