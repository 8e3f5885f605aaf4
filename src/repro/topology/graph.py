"""Topology model: video warehouse + intermediate storages + priced links.

Nodes are identified by string names.  Each node is either a *warehouse*
(permanent, free archive of every video -- ``srate(VW) = 0`` per the paper) or
an *intermediate storage* with a storage charging rate ``srate`` in
``$/(byte*s)`` and a capacity in bytes.  Undirected edges carry a network
charging rate ``nrate`` in ``$/byte`` and an optional bandwidth capacity in
bytes/s (used by the bandwidth-constraint extension; ``inf`` means
unconstrained, which matches the base paper).

The paper allows network charging on a *per-hop* or an *end-to-end* basis
(Eq. 4).  :class:`Topology` supports both through :class:`ChargingBasis` plus
an optional explicit end-to-end rate table; when no explicit pair rate is
given, the end-to-end rate defaults to the cheapest per-hop path cost, which
makes the two bases coincide on the default experiments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import TopologyError


class NodeKind(enum.Enum):
    """Role of a node in the delivery infrastructure."""

    WAREHOUSE = "warehouse"
    STORAGE = "storage"


class ChargingBasis(enum.Enum):
    """How network transfer cost is assessed (paper Eq. 4)."""

    PER_HOP = "per_hop"
    END_TO_END = "end_to_end"


@dataclass(frozen=True)
class NodeSpec:
    """Immutable description of one node.

    Attributes:
        name: Unique node identifier.
        kind: Warehouse or intermediate storage.
        srate: Storage charging rate in ``$/(byte*s)``.  Always 0 for
            warehouses (videos reside there permanently for free).
        capacity: Usable cache capacity in bytes.  ``inf`` for warehouses.
    """

    name: str
    kind: NodeKind
    srate: float = 0.0
    capacity: float = math.inf

    @property
    def is_warehouse(self) -> bool:
        return self.kind is NodeKind.WAREHOUSE

    @property
    def is_storage(self) -> bool:
        return self.kind is NodeKind.STORAGE


@dataclass(frozen=True)
class Edge:
    """Undirected priced link between two nodes.

    Attributes:
        a, b: Endpoint node names (stored in sorted order).
        nrate: Network charging rate in ``$/byte`` for traffic on this link.
        bandwidth: Link bandwidth capacity in bytes/s (``inf`` = unlimited).
    """

    a: str
    b: str
    nrate: float
    bandwidth: float = math.inf

    @property
    def key(self) -> tuple[str, str]:
        return (self.a, self.b)

    def other(self, node: str) -> str:
        """Return the endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"node {node!r} is not an endpoint of edge {self.key}")


def edge_key(a: str, b: str) -> tuple[str, str]:
    """Canonical (sorted) key for the undirected edge ``{a, b}``."""
    return (a, b) if a <= b else (b, a)


@dataclass
class Topology:
    """Mutable builder + queryable model of the delivery infrastructure.

    A topology is assembled with :meth:`add_warehouse`, :meth:`add_storage`
    and :meth:`add_edge`; afterwards it behaves as an immutable-by-convention
    graph that routers and schedulers query.  All mutation methods validate
    eagerly and raise :class:`~repro.errors.TopologyError` on misuse.
    """

    charging_basis: ChargingBasis = ChargingBasis.PER_HOP
    _nodes: dict[str, NodeSpec] = field(default_factory=dict)
    _edges: dict[tuple[str, str], Edge] = field(default_factory=dict)
    _adjacency: dict[str, list[str]] = field(default_factory=dict)
    _pair_rates: dict[tuple[str, str], float] = field(default_factory=dict)
    # warehouse nodes in insertion order, kept by _add_node: every gateway
    # quote asks for them, so they are not re-found by a scan of _nodes
    _warehouses: list[NodeSpec] = field(
        default_factory=list, compare=False, repr=False
    )

    # -- construction -----------------------------------------------------

    def add_warehouse(self, name: str) -> NodeSpec:
        """Add a video warehouse node (free, infinite storage)."""
        return self._add_node(NodeSpec(name, NodeKind.WAREHOUSE, 0.0, math.inf))

    def add_storage(self, name: str, *, srate: float, capacity: float = math.inf) -> NodeSpec:
        """Add an intermediate storage with rate ``srate`` and ``capacity``."""
        if srate < 0:
            raise TopologyError(f"srate must be >= 0, got {srate}")
        if capacity <= 0:
            raise TopologyError(f"capacity must be > 0, got {capacity}")
        return self._add_node(NodeSpec(name, NodeKind.STORAGE, srate, capacity))

    def _add_node(self, spec: NodeSpec) -> NodeSpec:
        if spec.name in self._nodes:
            raise TopologyError(f"duplicate node {spec.name!r}")
        self._nodes[spec.name] = spec
        self._adjacency[spec.name] = []
        if spec.is_warehouse:
            self._warehouses.append(spec)
        return spec

    def add_edge(self, a: str, b: str, *, nrate: float, bandwidth: float = math.inf) -> Edge:
        """Add an undirected link with charging rate ``nrate`` ($/byte)."""
        if a == b:
            raise TopologyError(f"self-loop on {a!r}")
        for n in (a, b):
            if n not in self._nodes:
                raise TopologyError(f"unknown node {n!r}")
        if nrate < 0:
            raise TopologyError(f"nrate must be >= 0, got {nrate}")
        if bandwidth <= 0:
            raise TopologyError(f"bandwidth must be > 0, got {bandwidth}")
        key = edge_key(a, b)
        if key in self._edges:
            raise TopologyError(f"duplicate edge {key}")
        edge = Edge(key[0], key[1], nrate, bandwidth)
        self._edges[key] = edge
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        return edge

    def set_pair_rate(self, a: str, b: str, nrate: float) -> None:
        """Set an explicit end-to-end charging rate for the pair ``{a, b}``.

        Only consulted when :attr:`charging_basis` is ``END_TO_END``.
        """
        for n in (a, b):
            if n not in self._nodes:
                raise TopologyError(f"unknown node {n!r}")
        if nrate < 0:
            raise TopologyError(f"nrate must be >= 0, got {nrate}")
        self._pair_rates[edge_key(a, b)] = nrate

    # -- queries ----------------------------------------------------------

    @property
    def node_names(self) -> list[str]:
        return list(self._nodes)

    @property
    def nodes(self) -> list[NodeSpec]:
        return list(self._nodes.values())

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    @property
    def warehouses(self) -> list[NodeSpec]:
        return list(self._warehouses)

    @property
    def storages(self) -> list[NodeSpec]:
        return [n for n in self._nodes.values() if n.is_storage]

    @property
    def warehouse(self) -> NodeSpec:
        """The unique warehouse; raises if there is not exactly one."""
        ws = self.warehouses
        if len(ws) != 1:
            raise TopologyError(f"expected exactly one warehouse, found {len(ws)}")
        return ws[0]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> NodeSpec:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def neighbors(self, name: str) -> list[str]:
        if name not in self._adjacency:
            raise TopologyError(f"unknown node {name!r}")
        return list(self._adjacency[name])

    def edge(self, a: str, b: str) -> Edge:
        try:
            return self._edges[edge_key(a, b)]
        except KeyError:
            raise TopologyError(f"no edge between {a!r} and {b!r}") from None

    def has_edge(self, a: str, b: str) -> bool:
        return edge_key(a, b) in self._edges

    def pair_rate(self, a: str, b: str) -> float | None:
        """Explicit end-to-end rate for ``{a, b}``, or ``None`` if unset."""
        return self._pair_rates.get(edge_key(a, b))

    def srate(self, name: str) -> float:
        return self.node(name).srate

    def capacity(self, name: str) -> float:
        return self.node(name).capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({len(self.warehouses)} warehouse(s), "
            f"{len(self.storages)} storage(s), {len(self._edges)} edge(s))"
        )
