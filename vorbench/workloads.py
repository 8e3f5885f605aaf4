"""The four benchmark workloads: seeded instances, the timed call, output checks.

Every workload builds its inputs from an instance seed, drives only public
entry points of the service (``VORService.reserve``/``close_cycle``,
``ReservationGateway.intake``/``seal`` through ``ReservationGateway.run``,
and ``HorizonOrchestrator.run``) on the serial Phase-1 path, and checks
what comes back.  A :class:`Workload` has three steps:

* :meth:`Workload.setup` -- catalog, topology, workload or feed
  generation and booking: everything before the first timed call;
* :meth:`Workload.run` -- the timed call;
* :meth:`Workload.check` -- output checks and the :class:`Outcome`.

A run consumes its instance, so every run gets a fresh setup.
``Outcome.fingerprint`` holds the deterministic results (Ψ, SORP rounds,
the admit/reject/shed split, migration decisions); two runs of one
instance seed must produce equal fingerprints.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import (
    CostModel,
    GatewayConfig,
    HorizonConfig,
    HorizonOrchestrator,
    MigrationConfig,
    OnlineLoopConfig,
    ReplicaMap,
    RequestFeed,
    ReservationGateway,
    VORService,
    build_policy,
    paper_catalog,
    paper_topology,
    units,
)
from repro.core.overflow import detect_overflows
from repro.faults import FaultFeed
from repro.workload.churn import RankChurn
from repro.workload.requests import Request, RequestBatch
from repro.workload.zipf import ZipfPopularity

#: Every workload uses the 500-video paper catalog drawn from this seed
#: and the paper's Zipf skew.
CATALOG_SEED = 4
ALPHA = 0.271
NRATE = units.per_gb(500)
SRATE = units.per_gb_hour(5)

#: Relative tolerance of the independent Ψ recomputation.
PSI_RTOL = 1e-9


@dataclass
class Outcome:
    """What one run of one instance produced."""

    #: Wall time of every schedule-producing call: one close, the 24
    #: seals, or one horizon run.
    solve_s: list[float]
    #: Wall time the caller waited in all (gateway: intake plus seal).
    busy_s: float
    offered: int
    served: int
    psi: float
    fingerprint: tuple
    problems: list[str] = field(default_factory=list)
    #: Per-booking ``intake`` latencies (gateway only).
    intake_s: list[float] = field(default_factory=list)
    #: Per-layer numbers only the workload sees, for this instance.
    layer: dict[str, float] = field(default_factory=dict)


class Workload:
    """One named workload; subclasses fill in the three steps."""

    name = ""
    why = ""
    #: Typical seconds of one setup plus run on a 2-vCPU x86 VM; sizes
    #: the instance pool so that one pass over it lasts about ``--seconds``.
    nominal_s = 1.0

    def pool_size(self, seconds: float) -> int:
        return max(2, round(seconds / self.nominal_s))

    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, instance):
        raise NotImplementedError

    def check(self, instance, result, elapsed: float) -> Outcome:
        raise NotImplementedError


def _catalog():
    return paper_catalog(n_videos=500, seed=CATALOG_SEED)


def _topology(capacity_gb: float):
    return paper_topology(nrate=NRATE, srate=SRATE, capacity=units.gb(capacity_gb))


def stratified_batch(
    topology, catalog, users: int, seed: int, *, day: int = 0, titles=None
) -> RequestBatch:
    """One request per user, with ranks and start times sampled systematically.

    Every seed offers the same Zipf rank histogram and the same evenly
    spaced start times over day ``day``; the seed draws their offsets and
    which user gets which title at which time.  Instances are then about
    equally hard, so a run's figures follow the code more than the seed.
    ``titles`` optionally maps popularity rank to catalog index, as
    :class:`~repro.workload.churn.RankChurn` permutations do.
    """
    rng = np.random.default_rng(seed)
    users_at = [(s.name, u) for s in topology.storages for u in range(users)]
    n = len(users_at)
    cdf = np.cumsum(ZipfPopularity(len(catalog), ALPHA).pmf)
    cdf[-1] = 1.0
    ranks = np.searchsorted(cdf, (np.arange(n) + rng.random()) / n)
    ranks = ranks[rng.permutation(n)]
    if titles is not None:
        ranks = np.asarray(titles)[ranks]
    starts = (day + (np.arange(n) + rng.random()) / n) * units.DAY
    starts = starts[rng.permutation(n)]
    return RequestBatch(
        Request(
            start_time=float(starts[k]),
            video_id=catalog.by_rank(int(ranks[k])).video_id,
            user_id=f"{storage}/user{u:03d}",
            local_storage=storage,
        )
        for k, (storage, u) in enumerate(users_at)
    )


def drifting_cycles(topology, catalog, users: int, cycles: int, seed: int):
    """``cycles`` daily stratified batches whose title popularity churns.

    The stratified counterpart of
    :func:`repro.horizon.generate_drifting_cycles`: each day's rank ->
    title map is the previous one churned by half.
    """
    churner = RankChurn(len(catalog), churn=0.5, seed=seed)
    titles = churner.permutation
    out = []
    for day in range(cycles):
        batch = stratified_batch(
            topology, catalog, users, seed + day, day=day, titles=titles
        )
        out.append((batch, (day + 1) * units.DAY))
        titles = churner.advance()
    return out


def schedule_problems(schedule, cost_model, psi, *, requests=None, label=""):
    """Checks of one cycle's schedule that do not trust the solver.

    Every request is delivered once (and, given ``requests``, exactly the
    booked ones), no storage overflows, and Ψ recomputed on an uncached
    cost model matches the reported one.
    """
    problems = []
    delivered = Counter(d.request for d in schedule.deliveries)
    if requests is not None and delivered != Counter(requests):
        problems.append(
            f"{label}deliveries do not match the booked requests "
            f"({sum(delivered.values())} delivered, {len(requests)} booked)"
        )
    twice = sum(1 for n in delivered.values() if n > 1)
    if twice:
        problems.append(f"{label}{twice} request(s) delivered more than once")
    overflows = detect_overflows(
        schedule, cost_model.catalog, cost_model.topology
    )
    if overflows:
        problems.append(f"{label}{len(overflows)} storage overflow(s) left")
    fresh = CostModel(cost_model.topology, cost_model.catalog, cache=False)
    recomputed = fresh.total(schedule)
    if not math.isclose(recomputed, psi, rel_tol=PSI_RTOL):
        problems.append(
            f"{label}psi {psi!r} differs from recomputed {recomputed!r}"
        )
    return problems


def _violations(report, label=""):
    return [f"{label}validation: {v.kind}: {v.message}" for v in report.violations]


class CycleWorkload(Workload):
    """One ``close_cycle`` over a day of stratified bookings."""

    def __init__(self, name, why, *, users, capacity_gb, nominal_s):
        self.name = name
        self.why = why
        self.users = users
        self.capacity_gb = capacity_gb
        self.nominal_s = nominal_s

    def setup(self, seed: int):
        catalog = _catalog()
        topology = _topology(self.capacity_gb)
        batch = stratified_batch(topology, catalog, self.users, seed)
        service = VORService(topology, catalog, lead_time=0.0)
        for r in batch:
            service.reserve(
                r.user_id, r.video_id, r.start_time,
                local_storage=r.local_storage, now=0.0,
            )
        return service, batch

    def run(self, instance):
        service, _ = instance
        return service.close_cycle(cycle_end=units.DAY)

    def check(self, instance, report, elapsed: float) -> Outcome:
        service, batch = instance
        cycle = report.cycle
        problems = _violations(report) + schedule_problems(
            cycle.schedule, service.cost_model, cycle.total_cost,
            requests=list(batch),
        )
        resolution = cycle.resolution
        return Outcome(
            solve_s=[elapsed],
            busy_s=elapsed,
            offered=len(batch),
            served=len(cycle.schedule.deliveries),
            psi=cycle.total_cost,
            fingerprint=(
                cycle.total_cost,
                resolution.iterations,
                len(resolution.victims),
                len(cycle.schedule.deliveries),
            ),
            problems=problems,
            layer={"sim.infeasible_ratio": float(not report.feasible)},
        )


class _TimedGateway(ReservationGateway):
    """The gateway, with the caller's wall time around each public call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.intake_s: list[float] = []
        self.seal_s: list[float] = []
        self.queue_max = 0

    def intake(self, event):
        t0 = time.perf_counter()
        disposition = super().intake(event)
        self.intake_s.append(time.perf_counter() - t0)
        self.queue_max = max(self.queue_max, self.queue_length)
        return disposition

    def seal(self, *, cycle_end, final=False):
        t0 = time.perf_counter()
        sealed = super().seal(cycle_end=cycle_end, final=final)
        self.seal_s.append(time.perf_counter() - t0)
        return sealed


class GatewayWorkload(Workload):
    """A seeded booking feed replayed through the admission gateway.

    One caller replays the feed in order on its virtual clock: a closed
    loop where the next booking goes in when the previous call returns,
    and nothing sleeps.  ``ReservationGateway.run`` promotes the queue and
    seals at each of 24 evenly spaced boundaries; every ``intake`` and
    ``seal`` call is timed.
    """

    name = "gateway_rush"
    why = (
        "1,900 bookings through intake with reject, queue and shed paths "
        "and 24 small seals: many small writes between small solves"
    )
    nominal_s = 0.35
    users = 100
    seals = 24
    policy = "headroom:4,price-ceiling:6000,rate-limit:0.004:4"
    max_batch = 72
    queue_depth = 12

    def setup(self, seed: int):
        catalog = _catalog()
        topology = _topology(5)
        feed = RequestFeed.generate(
            topology, catalog, seed=seed, users_per_neighborhood=self.users
        )
        gateway = _TimedGateway(
            VORService(topology, catalog),
            policy=build_policy(self.policy, topology=topology, catalog=catalog),
            config=GatewayConfig(
                max_batch=self.max_batch, queue_depth=self.queue_depth
            ),
        )
        a0, a1 = feed.span
        boundaries = [
            a0 + (i + 1) / self.seals * (a1 - a0) for i in range(self.seals - 1)
        ]
        boundaries.append(max(a1, feed.showing_span[1]))
        return gateway, feed, boundaries

    def run(self, instance):
        gateway, feed, boundaries = instance
        return gateway.run(feed, boundaries)

    def check(self, instance, run, elapsed: float) -> Outcome:
        gateway = instance[0]
        problems = []
        psi = 0.0
        delivered = Counter()
        for sealed in run.cycles:
            cycle = sealed.report.cycle
            label = f"seal {sealed.index}: "
            problems += _violations(sealed.report, label) + schedule_problems(
                cycle.schedule, gateway.service.cost_model, cycle.total_cost,
                label=label,
            )
            psi += cycle.net_total_cost
            delivered.update(d.request for d in cycle.schedule.deliveries)
        # A seal books its batch, but showings after the boundary are
        # scheduled by a later seal; the last boundary covers them all.
        served = len(delivered)
        if served != run.admitted or sum(delivered.values()) != served:
            problems.append(
                f"{sum(delivered.values())} deliveries of {served} bookings "
                f"for {run.admitted} admitted"
            )
        if run.unconsumed:
            problems.append(f"{run.unconsumed} bookings never reached intake")
        return Outcome(
            solve_s=list(gateway.seal_s),
            busy_s=math.fsum(gateway.intake_s) + math.fsum(gateway.seal_s),
            offered=run.offered,
            served=served,
            psi=psi,
            fingerprint=(
                psi,
                run.offered,
                run.admitted,
                tuple(run.rejected.items()),
                run.shed,
                tuple(c.queued for c in run.cycles),
            ),
            problems=problems,
            intake_s=list(gateway.intake_s),
            layer={
                "gateway.queue_depth_max": float(gateway.queue_max),
                "gateway.shed": float(run.shed),
                "gateway.refused_ratio": 1.0 - run.admitted / run.offered,
                "sim.infeasible_ratio": sum(
                    not c.feasible for c in run.cycles
                ) / len(run.cycles),
            },
        )


class HorizonWorkload(Workload):
    """Five drifting cycles with replica migration and a seeded fault feed."""

    name = "faulted_horizon"
    why = (
        "5 churning cycles with replica migration and 6 faults: the only "
        "path through contingency, online amendment, migration and carryover"
    )
    nominal_s = 0.8
    users = 8
    cycles = 5
    capacity_gb = 3
    fault_events = 6

    def setup(self, seed: int):
        catalog = _catalog()
        topology = _topology(self.capacity_gb)
        topology.add_warehouse("VW2")
        topology.add_edge("IS15", "VW2", nrate=units.per_gb(100))
        cycles = drifting_cycles(topology, catalog, self.users, self.cycles, seed)
        replicas = ReplicaMap.heat_placement(
            topology, catalog, cycles[0][0], degree=1, seed=seed
        )
        tail = max(v.playback for v in catalog)
        feed = FaultFeed.generate(
            topology, seed=seed, n_events=self.fault_events,
            horizon=(0.0, self.cycles * units.DAY + tail),
        )
        # Retries back off without sleeping: the amendment failures here
        # are deterministic, so waiting would only pad the wall time.
        config = HorizonConfig(
            migration=MigrationConfig(degree=1, seed=seed),
            online=OnlineLoopConfig(seed=seed, backoff_base=0.0),
        )
        orchestrator = HorizonOrchestrator(
            topology, catalog, replicas=replicas, config=config
        )
        return orchestrator, cycles, feed

    def run(self, instance):
        orchestrator, cycles, feed = instance
        return orchestrator.run(cycles, feed=feed)

    def check(self, instance, report, elapsed: float) -> Outcome:
        cycles = instance[1]
        problems = []
        if len(report.cycles) != len(cycles):
            problems.append(
                f"{len(report.cycles)} cycle outcomes for {len(cycles)} cycles"
            )
        problems += [
            f"cycle {c.index}: schedule failed validation"
            for c in report.cycles
            if not c.feasible
        ]
        requests = sum(c.requests for c in report.cycles)
        # Counted from the final schedules: CycleOutcome.requests_lost
        # holds only the last amendment's losses, not the cycle's.
        delivered = sum(c.deliveries for c in report.cycles)
        return Outcome(
            solve_s=[elapsed],
            busy_s=elapsed,
            offered=requests,
            served=delivered,
            psi=report.total_psi,
            fingerprint=(
                report.total_psi,
                report.migrations_accepted,
                report.migrations_rejected,
                tuple(c.amendment_outcomes for c in report.cycles),
                delivered,
            ),
            problems=problems,
            layer={
                "contingency.lost_ratio": 1.0 - delivered / requests,
                "sim.infeasible_ratio": sum(
                    not c.feasible for c in report.cycles
                ) / len(report.cycles),
            },
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        CycleWorkload(
            "sorp_overflow",
            "342 bookings into 3 GB caches: one close where SORP overflow "
            "resolution is nearly all of the time",
            users=18, capacity_gb=3, nominal_s=1.1,
        ),
        CycleWorkload(
            "roomy_cycle",
            "3,800 bookings into caches too large to overflow: SORP runs 0 "
            "rounds, so Phase 1 and validation carry the close",
            users=200, capacity_gb=1e6, nominal_s=1.0,
        ),
        GatewayWorkload(),
        HorizonWorkload(),
    )
}
