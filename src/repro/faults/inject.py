"""Mapping fault scenarios onto concrete resource effects.

Two consumers need to know *what* a fault breaks:

* the degraded-mode analyzer (:mod:`repro.faults.report`) resolves each
  fault individually and respects its time window;
* the contingency scheduler (:mod:`repro.faults.contingency`) combines the
  whole plan into one conservative :func:`masked_topology` -- failed
  resources removed, degraded ones shrunk -- and a
  :func:`masked_cost_model` over it that the existing Phase-1 + SORP
  machinery can re-solve against without knowing faults exist.

Severity is the remaining fraction of the resource (see
:mod:`repro.faults.plan`); a warehouse brownout scales every link incident
to the warehouse, which is how "the archive can only push so many streams"
is expressed in a model whose warehouses are otherwise infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costmodel import CostModel
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

    def touches_node(self, name: str) -> bool:
        return name in self.down_nodes

    def touches_edge(self, key: tuple[str, str]) -> bool:
        return key in self.down_edges

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
    topology: Topology,
    plan: FaultPlan | FaultSpec,
    *,
    window: tuple[float, float] | None = None,
) -> ResourceEffects:
    """Union of every fault's effects: down sets merge, factors take the min.

    ``window`` optionally restricts the union to faults whose windows
    intersect the half-open ``[t0, t1)`` -- the *windowed* view a time-aware
    recovery masks against, as opposed to the default whole-plan union.
    """
    faults = [plan] if isinstance(plan, FaultSpec) else list(plan)
    if window is not None:
        t0, t1 = window
        faults = [f for f in faults if f.overlaps(t0, t1)]
    builder = _EffectsBuilder()
    for fault in faults:
        _apply(builder, topology, fault)
    return builder.frozen()


def masked_topology(
    topology: Topology,
    plan: FaultPlan | FaultSpec,
    *,
    window: tuple[float, float] | None = None,
) -> Topology:
    """A copy of ``topology`` with the plan's failed resources removed.

    Down nodes disappear (with every incident link), down links disappear,
    degraded links keep ``severity * bandwidth``, shrunk storages keep
    ``severity * capacity``.  Explicit end-to-end pair rates survive for
    pairs whose endpoints both survive.  By default the mask is
    *time-agnostic*: any resource the plan ever fails is masked for the
    whole cycle, the conservative stance of whole-cycle recovery.  With
    ``window=(t0, t1)`` only faults intersecting the half-open window
    contribute, so callers can mask per service interval.

    Raises :class:`~repro.errors.FaultError` when the mask would leave no
    warehouse, since no schedule can exist without an archive.
    """
    effects = combined_effects(topology, plan, window=window)
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
    if not out.warehouses:
        raise FaultError(
            "fault plan leaves no warehouse standing: recovery impossible"
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


def masked_cost_model(cost_model: CostModel, masked: Topology) -> CostModel:
    """A flat-rate model over ``masked`` carrying ``cost_model``'s homes.

    The replica map, if any, is restricted to the nodes the mask keeps.
    Only the topology, catalog and map carry over: a tariff subclass such
    as :class:`~repro.extensions.pricing.DiurnalCostModel` does not.
    """
    replicas = cost_model.replicas
    return CostModel(
        masked,
        cost_model.catalog,
        replicas=(
            replicas.restricted_to(masked.node_names)
            if replicas is not None
            else None
        ),
    )


__all__ = [
    "ResourceEffects",
    "effects_of",
    "combined_effects",
    "masked_cost_model",
    "masked_topology",
]
