"""Feasibility validation of service schedules.

``validate_schedule`` exercises a schedule end-to-end against the request
batch it is supposed to serve and returns a list of :class:`Violation`
records (empty = feasible):

* **coverage** -- every request is served by exactly one delivery at its
  start time, ending at the user's local storage;
* **causality** -- every delivery from a non-warehouse source is backed by a
  residency there whose caching started no later than the service and whose
  last-service time covers it; every residency's filling source is a node
  that plausibly streamed the file (warehouse, or a node with an earlier or
  simultaneous copy);
* **storage capacity** -- the Eq. 6 reserved usage stays within capacity at
  every storage (the scheduler's own model);
* **link bandwidth** -- concurrent streams on a link stay within its
  bandwidth, when finite, with the storage check's tolerance (the base
  paper leaves links uncapacitated; the bandwidth extension uses this
  check);
* **replica coverage** -- with a :class:`~repro.replication.ReplicaMap`
  (passed explicitly or carried by the cost model), every warehouse-sourced
  delivery and residency fill must come from a *home* warehouse of its
  video: a copy cannot be served from a site that never held it.

With ``faults=`` (a :class:`~repro.faults.plan.FaultPlan`), the same replay
is also classified in degraded mode and every dropped/late service,
stranded residency, saturated link and shrunk-storage overflow becomes a
``fault-*`` violation (see :func:`fault_violations`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costmodel import CostModel
from repro.core.schedule import Schedule
from repro.core.spacefunc import EPS, capacity_slack
from repro.obs import NULL_OBS, Observability
from repro.sim.engine import SimulationEngine, SimulationReport
from repro.workload.requests import RequestBatch


@dataclass(frozen=True)
class Violation:
    """One feasibility violation found in a schedule."""

    kind: str  # "coverage" | "causality" | "capacity" | "bandwidth" | "replica" | "fault-*"
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.message}"


def validate_schedule(
    schedule: Schedule,
    batch: RequestBatch,
    cost_model: CostModel,
    *,
    trusted_residencies=(),
    faults=None,
    obs: Observability | None = None,
) -> list[Violation]:
    """Run every feasibility check; return all violations found.

    ``trusted_residencies`` marks residencies whose *filling* happened
    outside this schedule -- e.g. caches carried over from the previous
    scheduling cycle, whose feeder streams belong to that cycle's schedule.
    They are exempt from the feeder-causality check (matched on
    ``(video_id, location, t_start)``); everything else about them is still
    validated.

    ``faults`` optionally names a :class:`~repro.faults.plan.FaultPlan`;
    the schedule's replay is then also classified in degraded mode and
    every service the plan breaks is reported as a ``fault-*`` violation.
    A fault that downs a warehouse surfaces as ``fault-warehouse-loss``.

    With a :class:`~repro.replication.ReplicaMap` on the cost model,
    warehouse sources outside a video's home set are reported as
    ``replica`` violations.

    ``obs`` optionally instruments the run: one ``validate`` span plus
    per-kind ``vor_validate_violations_total`` counters.
    """
    obs = obs if obs is not None else NULL_OBS
    with obs.tracer.span(
        "validate", services=len(schedule), requests=len(batch)
    ) as span:
        violations: list[Violation] = []
        violations.extend(_check_coverage(schedule, batch))
        violations.extend(
            _check_causality(schedule, cost_model, trusted_residencies)
        )
        # one replay serves the storage, link and degraded-mode checks
        report = SimulationEngine(cost_model).run(schedule)
        violations.extend(_check_capacity(report))
        violations.extend(_check_links(report))
        if cost_model.replicas is not None:
            violations.extend(_check_replicas(schedule, cost_model))
        if faults is not None:
            violations.extend(
                _fault_violations(schedule, cost_model, faults, report, obs)
            )
        span.set(violations=len(violations))
    metrics = obs.metrics
    if metrics.enabled and violations:
        for v in violations:
            metrics.counter(
                "vor_validate_violations_total",
                help="Feasibility violations found by validate_schedule",
                kind=v.kind,
            ).inc()
    return violations


def fault_violations(schedule, cost_model, plan) -> list[Violation]:
    """Degraded-mode replay of ``schedule`` under ``plan`` as violations.

    Each dropped or late service, stranded residency, saturated link and
    shrunk-storage overflow found by
    :func:`repro.faults.report.build_degraded_report` becomes one
    :class:`Violation` whose kind carries a ``fault-`` prefix, so callers
    can separate hard infeasibilities from fault-induced degradation.
    """
    simulation = SimulationEngine(cost_model).run(schedule)
    return _fault_violations(schedule, cost_model, plan, simulation, NULL_OBS)


def _fault_violations(
    schedule,
    cost_model,
    plan,
    simulation: SimulationReport,
    obs: Observability,
) -> list[Violation]:
    """:func:`fault_violations` against an already made ``simulation``."""
    # Imported lazily: repro.faults.report imports this module's siblings.
    from repro.faults.report import _classify_damage

    with obs.tracer.span("degraded_replay", faults=len(plan)):
        report = _classify_damage(schedule, cost_model, plan, simulation)
    out: list[Violation] = []
    for i in report.dropped:
        out.append(
            Violation(
                _impact_kind(i, "fault-drop"),
                f"request {i.user_id}/{i.video_id}@{i.start_time:g} dropped: "
                f"{i.resource} down ({i.fault})",
            )
        )
    for i in report.late:
        out.append(
            Violation(
                _impact_kind(i, "fault-late"),
                f"request {i.user_id}/{i.video_id}@{i.start_time:g} delayed "
                f"{i.delay:g}s: {i.resource} down mid-stream ({i.fault})",
            )
        )
    for s in report.stranded:
        out.append(
            Violation(
                "fault-stranded",
                f"residency of {s.video_id} at {s.location} lost to {s.fault}",
            )
        )
    for ls in report.saturated_links:
        out.append(
            Violation(
                "fault-bandwidth",
                f"link {ls.edge}: load peaks at {ls.peak:g} > degraded "
                f"bandwidth {ls.effective_bandwidth:g} during {ls.fault}",
            )
        )
    for ss in report.storage_overflows:
        out.append(
            Violation(
                "fault-capacity",
                f"{ss.location}: reserved usage peaks at {ss.peak:g} > shrunk "
                f"capacity {ss.effective_capacity:g} during {ss.fault}",
            )
        )
    return out


def _impact_kind(impact, default: str) -> str:
    """Violation kind of a service impact: warehouse losses get their own.

    A service broken by a downed *warehouse* is a survivability event (the
    archive itself is gone), not a mere delivery drop, so it reports as
    ``fault-warehouse-loss`` -- replica-aware recovery is the remedy.
    """
    from repro.faults.plan import FaultKind

    if impact.fault.startswith(f"{FaultKind.WAREHOUSE_LOSS.value}:"):
        return "fault-warehouse-loss"
    return default


def _check_replicas(schedule: Schedule, cost_model: CostModel) -> list[Violation]:
    """Warehouse-sourced schedule elements must come from home warehouses.

    Reads the map itself rather than
    :meth:`~repro.core.costmodel.CostModel.homes`: the check stays
    independent of the path the schedulers decide homes by."""
    out: list[Violation] = []
    replicas = cost_model.replicas
    warehouses = {w.name for w in cost_model.topology.warehouses}
    for fs in schedule:
        homes = set(replicas.homes(fs.video_id)) if fs.video_id in replicas else None
        for d in fs.deliveries:
            src = d.source
            if src in warehouses and homes is not None and src not in homes:
                out.append(
                    Violation(
                        "replica",
                        f"delivery of {d.video_id} from {src}@{d.start_time:g}"
                        f" but the video is homed at {sorted(homes)}",
                    )
                )
        for c in fs.residencies:
            if (
                c.source in warehouses
                and homes is not None
                and c.source not in homes
            ):
                out.append(
                    Violation(
                        "replica",
                        f"residency of {c.video_id} at {c.location} filled "
                        f"from {c.source} but the video is homed at "
                        f"{sorted(homes)}",
                    )
                )
    return out


def _check_coverage(schedule: Schedule, batch: RequestBatch) -> list[Violation]:
    out: list[Violation] = []
    deliveries_by_user: dict[tuple[str, str, float], int] = {}
    for d in schedule.deliveries:
        key = (d.request.user_id, d.video_id, d.start_time)
        deliveries_by_user[key] = deliveries_by_user.get(key, 0) + 1
    for r in batch:
        key = (r.user_id, r.video_id, r.start_time)
        n = deliveries_by_user.get(key, 0)
        if n == 0:
            out.append(
                Violation(
                    "coverage",
                    f"request {r.user_id}/{r.video_id}@{r.start_time:g} unserved",
                )
            )
        elif n > 1:
            out.append(
                Violation(
                    "coverage",
                    f"request {r.user_id}/{r.video_id}@{r.start_time:g} served "
                    f"{n} times",
                )
            )
    return out


def _check_causality(
    schedule: Schedule, cost_model: CostModel, trusted_residencies=()
) -> list[Violation]:
    out: list[Violation] = []
    topo = cost_model.topology
    warehouses = {w.name for w in topo.warehouses}
    trusted = {
        (c.video_id, c.location, c.t_start) for c in trusted_residencies
    }
    for fs in schedule:
        residencies = fs.residencies
        for d in fs.deliveries:
            src = d.source
            if src in warehouses:
                continue
            backing = [
                c
                for c in residencies
                if c.location == src
                and c.t_start <= d.start_time + EPS
                and c.t_last >= d.start_time - EPS
            ]
            if not backing:
                out.append(
                    Violation(
                        "causality",
                        f"delivery of {d.video_id} from {src}@{d.start_time:g} "
                        "has no backing residency",
                    )
                )
        for c in residencies:
            if c.source in warehouses:
                continue
            if (c.video_id, c.location, c.t_start) in trusted:
                continue  # filled by a previous cycle's stream
            feeder = [
                d
                for d in fs.deliveries
                if d.source == c.source and d.start_time <= c.t_start + EPS
            ] + [
                c2
                for c2 in residencies
                if c2.location == c.source and c2.t_start <= c.t_start + EPS
            ]
            if not feeder:
                out.append(
                    Violation(
                        "causality",
                        f"residency of {c.video_id} at {c.location} sources from "
                        f"{c.source} with no copy there by t={c.t_start:g}",
                    )
                )
    return out


def _check_capacity(report: SimulationReport) -> list[Violation]:
    out: list[Violation] = []
    for loc, load in report.storages.items():
        # the tolerance SORP places under
        if load.reserved_peak > capacity_slack(load.capacity):
            intervals = load.reserved.intervals_above(load.capacity)
            out.append(
                Violation(
                    "capacity",
                    f"{loc}: reserved usage peaks at {load.reserved_peak:g} > "
                    f"capacity {load.capacity:g} over {len(intervals)} "
                    "interval(s)",
                )
            )
    return out


def _check_links(report: SimulationReport) -> list[Violation]:
    out: list[Violation] = []
    for key, load in report.links.items():
        # capacity_slack, the tolerance of the storage check
        if load.saturated:
            out.append(
                Violation(
                    "bandwidth",
                    f"link {key}: concurrent bandwidth peaks at {load.peak:g} "
                    f"> capacity {load.capacity:g}",
                )
            )
    return out
