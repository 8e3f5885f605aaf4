"""Mapping fault scenarios onto concrete resource effects.

:func:`fault_effects` says what a plan breaks and when -- one pair per
fault over its own window -- and :func:`fault_hits` asks those pairs the
one question every consumer has: which faults break this route or this
storage during this interval; :func:`fill_hits` asks it of a cache's
fill.  The degraded-mode analyzer
(:mod:`repro.faults.report`), the contingency scheduler
(:mod:`repro.faults.contingency`), the rolling scheduler's carryover
re-roll and the horizon's resume ledger all ask it.

Recovery re-solves on the healthy cost model, routing each stream on the
:func:`masked_graph` of the faults in effect during it (failed resources
removed, degraded ones shrunk) with :func:`fault_background` as SORP's
capacity background, so the Phase-1 + SORP machinery runs without knowing
faults exist.

Severity is the remaining fraction of the resource (see
:mod:`repro.faults.plan`); a warehouse brownout scales every link incident
to the warehouse, which is how "the archive can only push so many streams"
is expressed in a model whose warehouses are otherwise infinite.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.schedule import DeliveryInfo, ResidencyInfo
from repro.core.spacefunc import LinearSegment, SpaceProfile
from repro.errors import FaultError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.topology.graph import Topology, edge_key


@dataclass(frozen=True)
class ResourceEffects:
    """The concrete resource impact of one fault (or a combined plan).

    Attributes:
        down_nodes: Nodes completely unusable while the fault is active.
        down_edges: Links completely unusable (canonical keys).
        bandwidth_factors: Per-link remaining-bandwidth fraction in (0, 1).
        capacity_factors: Per-storage remaining-capacity fraction in (0, 1].
    """

    down_nodes: frozenset[str] = frozenset()
    down_edges: frozenset[tuple[str, str]] = frozenset()
    bandwidth_factors: tuple[tuple[tuple[str, str], float], ...] = ()
    capacity_factors: tuple[tuple[str, float], ...] = ()

    @property
    def bandwidth_factor_map(self) -> dict[tuple[str, str], float]:
        return dict(self.bandwidth_factors)

    @property
    def capacity_factor_map(self) -> dict[str, float]:
        return dict(self.capacity_factors)

    @property
    def empty(self) -> bool:
        return not (
            self.down_nodes
            or self.down_edges
            or self.bandwidth_factors
            or self.capacity_factors
        )


@dataclass
class _EffectsBuilder:
    down_nodes: set = field(default_factory=set)
    down_edges: set = field(default_factory=set)
    bandwidth: dict = field(default_factory=dict)
    capacity: dict = field(default_factory=dict)

    def scale_bandwidth(self, key: tuple[str, str], factor: float) -> None:
        if factor <= 0.0:
            self.down_edges.add(key)
            self.bandwidth.pop(key, None)
        else:
            self.bandwidth[key] = min(self.bandwidth.get(key, 1.0), factor)

    def frozen(self) -> ResourceEffects:
        bandwidth = {
            k: v for k, v in self.bandwidth.items() if k not in self.down_edges
        }
        return ResourceEffects(
            down_nodes=frozenset(self.down_nodes),
            down_edges=frozenset(self.down_edges),
            bandwidth_factors=tuple(sorted(bandwidth.items())),
            capacity_factors=tuple(sorted(self.capacity.items())),
        )


def _apply(builder: _EffectsBuilder, topology: Topology, fault: FaultSpec) -> None:
    kind = fault.kind
    if kind is FaultKind.IS_OUTAGE:
        spec = topology.node(_require_node(topology, fault))
        if not spec.is_storage:
            raise FaultError(
                f"is_outage target {spec.name!r} is not an intermediate storage"
            )
        builder.down_nodes.add(spec.name)
    elif kind is FaultKind.CAPACITY_SHRINK:
        spec = topology.node(_require_node(topology, fault))
        if not spec.is_storage:
            raise FaultError(
                f"capacity_shrink target {spec.name!r} is not a storage"
            )
        builder.capacity[spec.name] = min(
            builder.capacity.get(spec.name, 1.0), fault.severity
        )
    elif kind is FaultKind.WAREHOUSE_BROWNOUT:
        spec = topology.node(_require_node(topology, fault))
        if not spec.is_warehouse:
            raise FaultError(
                f"warehouse_brownout target {spec.name!r} is not a warehouse"
            )
        for neighbor in topology.neighbors(spec.name):
            builder.scale_bandwidth(edge_key(spec.name, neighbor), fault.severity)
    elif kind is FaultKind.WAREHOUSE_LOSS:
        spec = topology.node(_require_node(topology, fault))
        if not spec.is_warehouse:
            raise FaultError(
                f"warehouse_loss target {spec.name!r} is not a warehouse"
            )
        builder.down_nodes.add(spec.name)
    elif kind is FaultKind.LINK_DOWN:
        builder.down_edges.add(_require_edge(topology, fault))
    elif kind is FaultKind.LINK_DEGRADED:
        builder.scale_bandwidth(_require_edge(topology, fault), fault.severity)
    else:  # pragma: no cover - exhaustive over FaultKind
        raise FaultError(f"unhandled fault kind {kind!r}")


def _require_node(topology: Topology, fault: FaultSpec) -> str:
    if fault.target not in topology:
        raise FaultError(
            f"fault {fault.key} targets unknown node {fault.target!r}"
        )
    return fault.target  # type: ignore[return-value]


def _require_edge(topology: Topology, fault: FaultSpec) -> tuple[str, str]:
    a, b = fault.target  # type: ignore[misc]
    if not topology.has_edge(a, b):
        raise FaultError(f"fault {fault.key} targets unknown link {(a, b)}")
    return edge_key(a, b)


def effects_of(topology: Topology, fault: FaultSpec) -> ResourceEffects:
    """Resolve a single fault against the topology (window ignored)."""
    builder = _EffectsBuilder()
    _apply(builder, topology, fault)
    return builder.frozen()


def combined_effects(
    topology: Topology, plan: FaultPlan | FaultSpec
) -> ResourceEffects:
    """Union of every fault's effects: down sets merge, factors take the min."""
    faults = [plan] if isinstance(plan, FaultSpec) else list(plan)
    builder = _EffectsBuilder()
    for fault in faults:
        _apply(builder, topology, fault)
    return builder.frozen()


def fault_effects(
    topology: Topology, plan: FaultPlan
) -> list[tuple[FaultSpec, ResourceEffects]]:
    """What ``plan`` breaks and when: one ``(fault, effects)`` pair per
    fault, active over the fault's own window."""
    return [(f, effects_of(topology, f)) for f in plan]


def route_failure(
    route: tuple[str, ...], effects: ResourceEffects
) -> str | None:
    """The first totally-failed resource a route uses, or ``None``."""
    for node in route:
        if node in effects.down_nodes:
            return node
    for a, b in zip(route, route[1:]):
        key = edge_key(a, b)
        if key in effects.down_edges:
            return f"{key[0]}-{key[1]}"
    return None


def fault_hits(
    per_fault: list[tuple[FaultSpec, ResourceEffects]],
    t0: float,
    t1: float,
    *,
    route: tuple[str, ...] = (),
    storage: str | None = None,
    shrink: bool = False,
) -> list[tuple[FaultSpec, str]]:
    """Which :func:`fault_effects` pairs break ``route`` or ``storage``
    during ``[t0, t1)``, and the resource each one breaks.

    A pair counts when its fault is in effect over the interval and either
    downs a node or link of ``route`` (the resource :func:`route_failure`
    names) or downs ``storage`` -- with ``shrink``, also when it shrinks it.
    Returns ``(fault, resource)`` pairs in ``per_fault`` order, which for a
    plan is the canonical order, so the first hit is the earliest fault.
    """
    hits = []
    for fault, effects in per_fault:
        if not fault.overlaps(t0, t1):
            continue  # not in effect over the interval
        resource = route_failure(route, effects)
        if resource is None and storage is not None and (
            storage in effects.down_nodes
            or (
                shrink
                and any(loc == storage for loc, _ in effects.capacity_factors)
            )
        ):
            resource = storage
        if resource is not None:
            hits.append((fault, resource))
    return hits


def fill_hits(
    per_fault: list[tuple[FaultSpec, ResourceEffects]],
    residency: ResidencyInfo,
    playback: float,
    deliveries: Iterable[DeliveryInfo],
) -> list[tuple[FaultSpec, str]]:
    """:func:`fault_hits` on the fill of ``residency`` during ``[t_start,
    t_start + playback)``: its source, then the route of its depositing
    stream up to its location.

    The depositing stream is a delivery of ``deliveries`` (the file's)
    with the residency's source and start that passes its location; a
    cache filled over a node or link that is down meanwhile never fills.
    """
    t0, t1 = residency.t_start, residency.t_start + playback
    hits = fault_hits(per_fault, t0, t1, storage=residency.source)
    for d in deliveries:
        if hits:
            break
        route = d.route
        if (
            d.start_time == t0
            and d.source == residency.source
            and residency.location in route
        ):
            reach = route[: route.index(residency.location) + 1]
            hits = fault_hits(per_fault, t0, t1, route=reach)
    return hits


def fault_background(
    topology: Topology, plan: FaultPlan
) -> dict[str, list[SpaceProfile]]:
    """The space ``plan``'s outages and shrinks take, as SORP background.

    At each instant a storage's background is ``(1 - r) * capacity``, where
    ``r`` is the least remaining fraction among the outages (``r = 0``) and
    shrinks (``r = severity``) in effect then: the tightest fault binds, as
    in the degraded replay and in :func:`combined_effects`, so the
    background never exceeds the capacity.  It is one flat ``SpaceProfile``
    per run of equal height between fault boundaries.  Unbounded storages
    get none.
    """
    windows: dict[str, list[tuple[float, float, float]]] = {}
    for fault in plan:
        if fault.kind is FaultKind.IS_OUTAGE:
            remaining = 0.0
        elif fault.kind is FaultKind.CAPACITY_SHRINK:
            remaining = fault.severity
        else:
            continue
        windows.setdefault(_require_node(topology, fault), []).append(
            (fault.t_start, fault.t_end, remaining)
        )
    background: dict[str, list[SpaceProfile]] = {}
    for storage, faults in windows.items():
        capacity = topology.capacity(storage)
        if math.isinf(capacity):
            continue
        cuts = sorted({t for t0, t1, _ in faults for t in (t0, t1)})
        runs: list[list[float]] = []  # [start, end, height]
        for a, b in zip(cuts, cuts[1:]):
            active = [r for t0, t1, r in faults if t0 <= a and b <= t1]
            height = (1.0 - min(active)) * capacity if active else 0.0
            if height <= 0.0:
                continue
            if runs and runs[-1][1] == a and runs[-1][2] == height:
                runs[-1][1] = b
            else:
                runs.append([a, b, height])
        if runs:
            background[storage] = [
                SpaceProfile((LinearSegment(a, b, h, h),)) for a, b, h in runs
            ]
    return background


def masked_topology(topology: Topology, plan: FaultPlan | FaultSpec) -> Topology:
    """A copy of ``topology`` with the plan's failed resources removed.

    Down nodes disappear (with every incident link), down links disappear,
    degraded links keep ``severity * bandwidth``, shrunk storages keep
    ``severity * capacity``.  Explicit end-to-end pair rates survive for
    pairs whose endpoints both survive.  The mask is *time-agnostic*: any
    resource the plan ever fails is masked for the whole cycle.  Callers
    mask a time window by passing ``plan.overlapping(t0, t1)``.

    Raises :class:`~repro.errors.FaultError` when the mask would leave no
    warehouse, since no schedule can exist without an archive.
    """
    out = masked_graph(topology, plan)
    if not out.warehouses:
        raise FaultError(
            "fault plan leaves no warehouse standing: recovery impossible"
        )
    return out


def masked_graph(topology: Topology, plan: FaultPlan | FaultSpec) -> Topology:
    """:func:`masked_topology` without the standing-warehouse check: caches
    still stream to their neighbours while every warehouse is down."""
    effects = combined_effects(topology, plan)
    bw = effects.bandwidth_factor_map
    cap = effects.capacity_factor_map
    out = Topology(charging_basis=topology.charging_basis)
    for spec in topology.nodes:
        if spec.name in effects.down_nodes:
            continue
        if spec.is_warehouse:
            out.add_warehouse(spec.name)
        else:
            out.add_storage(
                spec.name,
                srate=spec.srate,
                capacity=spec.capacity * cap.get(spec.name, 1.0),
            )
    for e in topology.edges:
        if e.key in effects.down_edges:
            continue
        if e.a in effects.down_nodes or e.b in effects.down_nodes:
            continue
        out.add_edge(
            e.a, e.b, nrate=e.nrate, bandwidth=e.bandwidth * bw.get(e.key, 1.0)
        )
    for (a, b), rate in sorted(topology._pair_rates.items()):
        if a in out and b in out:
            out.set_pair_rate(a, b, rate)
    return out


__all__ = [
    "ResourceEffects",
    "effects_of",
    "combined_effects",
    "fault_effects",
    "fault_background",
    "masked_topology",
    "route_failure",
    "fault_hits",
]
