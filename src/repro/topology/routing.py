"""Cheapest-path routing over a priced topology.

The scheduler charges a network transfer at ``size * sum(nrate(hop))`` along
its route (per-hop basis) or ``size * nrate(src, dst)`` (end-to-end basis),
see Eq. 4.  Either way it always wants the *cheapest* route, so the router's
core primitive is Dijkstra over edge ``nrate`` weights.  Routes and transfer
rates are memoised: topologies are static for the lifetime of a scheduling
cycle and the greedy scheduler issues many repeated queries.

The router also exposes Yen's k-cheapest-paths, used by the bandwidth
extension to divert streams around saturated links.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.errors import RoutingError
from repro.topology.graph import ChargingBasis, Topology, edge_key


@dataclass(frozen=True)
class Route:
    """A concrete path through the topology plus its transfer pricing.

    Attributes:
        nodes: Node names from source to destination (inclusive).  A
            zero-length route (``src == dst``) has a single node.
        hop_cost: Sum of per-hop ``nrate`` over the route's edges, $/byte.
        rate: The effective charging rate applied to transfers on this route,
            $/byte.  Equals ``hop_cost`` under per-hop charging; may differ
            under end-to-end charging with an explicit pair rate.
        hops: ``len(nodes) - 1``, computed once; not part of equality,
            hashing or the repr.
    """

    nodes: tuple[str, ...]
    hop_cost: float
    rate: float
    hops: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hops", len(self.nodes) - 1)

    @property
    def src(self) -> str:
        return self.nodes[0]

    @property
    def dst(self) -> str:
        return self.nodes[-1]

    @property
    def edges(self) -> list[tuple[str, str]]:
        """Canonical edge keys along the route."""
        return [edge_key(a, b) for a, b in zip(self.nodes, self.nodes[1:])]


class Router:
    """Memoising cheapest-path router for a fixed topology."""

    def __init__(self, topology: Topology):
        self._topo = topology
        #: Dijkstra results per source: {src: ({node: cost}, {node: prev})}
        self._sssp: dict[str, tuple[dict[str, float], dict[str, str | None]]] = {}
        self._routes: dict[tuple[str, str], Route] = {}
        self._tables: dict[str, Mapping[str, Route]] = {}  # per destination

    @property
    def topology(self) -> Topology:
        return self._topo

    # -- single-source shortest paths --------------------------------------

    def _dijkstra(self, src: str) -> tuple[dict[str, float], dict[str, str | None]]:
        if src in self._sssp:
            return self._sssp[src]
        if src not in self._topo:
            raise RoutingError(f"unknown source node {src!r}")
        dist: dict[str, float] = {src: 0.0}
        prev: dict[str, str | None] = {src: None}
        # Tie-break on hop count so equal-cost routes prefer fewer hops,
        # keeping the chosen routes deterministic and physically sensible.
        hopcnt: dict[str, int] = {src: 0}
        heap: list[tuple[float, int, str]] = [(0.0, 0, src)]
        done: set[str] = set()
        while heap:
            d, h, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v in self._topo.neighbors(u):
                w = self._topo.edge(u, v).nrate
                nd, nh = d + w, h + 1
                if (
                    v not in dist
                    or nd < dist[v] - 1e-15
                    or (abs(nd - dist[v]) <= 1e-15 and nh < hopcnt[v])
                ):
                    dist[v] = nd
                    hopcnt[v] = nh
                    prev[v] = u
                    heapq.heappush(heap, (nd, nh, v))
        self._sssp[src] = (dist, prev)
        return dist, prev

    # -- public queries -----------------------------------------------------

    def route(self, src: str, dst: str) -> Route:
        """Cheapest route from ``src`` to ``dst``.

        Raises :class:`~repro.errors.RoutingError` when the nodes are
        disconnected.
        """
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        if dst not in self._topo:
            raise RoutingError(f"unknown destination node {dst!r}")
        dist, prev = self._dijkstra(src)
        if dst not in dist:
            raise RoutingError(f"no route from {src!r} to {dst!r}")
        path: list[str] = []
        cur: str | None = dst
        while cur is not None:
            path.append(cur)
            cur = prev[cur]
        path.reverse()
        hop_cost = dist[dst]
        rate = self._effective_rate(src, dst, hop_cost)
        route = Route(tuple(path), hop_cost, rate)
        self._routes[key] = route
        return route

    def routes_to(self, dst: str) -> Mapping[str, Route]:
        """Read-only ``{src: route(src, dst)}`` over every node that reaches
        ``dst`` (``dst`` included), built once; raises for an unknown ``dst``."""
        table = self._tables.get(dst)
        if table is None:
            if dst not in self._topo:
                raise RoutingError(f"unknown destination node {dst!r}")
            table = self._tables[dst] = MappingProxyType(
                {src: self.route(src, dst) for src in sorted(self.reachable(dst))}
            )
        return table

    def _effective_rate(self, src: str, dst: str, hop_cost: float) -> float:
        if self._topo.charging_basis is ChargingBasis.END_TO_END:
            explicit = self._topo.pair_rate(src, dst)
            if explicit is not None:
                return explicit
        return hop_cost

    def reachable(self, src: str) -> set[str]:
        """All nodes reachable from ``src`` (including ``src`` itself)."""
        dist, _ = self._dijkstra(src)
        return set(dist)

    # -- k-cheapest paths (Yen) ---------------------------------------------

    def k_cheapest_routes(self, src: str, dst: str, k: int) -> list[Route]:
        """Up to ``k`` loop-free cheapest routes, ascending by hop cost.

        Implements Yen's algorithm on top of restricted Dijkstra runs.  Used
        by the bandwidth-constraint extension to find alternates when the
        cheapest route's links are saturated.
        """
        if k < 1:
            raise RoutingError(f"k must be >= 1, got {k}")
        first = self.route(src, dst)
        paths: list[Route] = [first]
        candidates: list[tuple[float, tuple[str, ...]]] = []
        seen: set[tuple[str, ...]] = {first.nodes}
        while len(paths) < k:
            prev_path = paths[-1].nodes
            for i in range(len(prev_path) - 1):
                spur = prev_path[i]
                root = prev_path[: i + 1]
                banned_edges: set[tuple[str, str]] = set()
                for p in paths:
                    if p.nodes[: i + 1] == root and len(p.nodes) > i + 1:
                        banned_edges.add(edge_key(p.nodes[i], p.nodes[i + 1]))
                banned_nodes = set(root[:-1])
                tail = self._restricted_dijkstra(spur, dst, banned_nodes, banned_edges)
                if tail is None:
                    continue
                full = root[:-1] + tail
                if full in seen:
                    continue
                seen.add(full)
                cost = self._path_cost(full)
                heapq.heappush(candidates, (cost, full))
            if not candidates:
                break
            cost, nodes = heapq.heappop(candidates)
            paths.append(Route(nodes, cost, self._effective_rate(src, dst, cost)))
        return paths

    def _restricted_dijkstra(
        self,
        src: str,
        dst: str,
        banned_nodes: set[str],
        banned_edges: set[tuple[str, str]],
    ) -> tuple[str, ...] | None:
        dist: dict[str, float] = {src: 0.0}
        prev: dict[str, str | None] = {src: None}
        heap: list[tuple[float, str]] = [(0.0, src)]
        done: set[str] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u == dst:
                path: list[str] = []
                cur: str | None = dst
                while cur is not None:
                    path.append(cur)
                    cur = prev[cur]
                path.reverse()
                return tuple(path)
            if u in done:
                continue
            done.add(u)
            for v in self._topo.neighbors(u):
                if v in banned_nodes or edge_key(u, v) in banned_edges:
                    continue
                nd = d + self._topo.edge(u, v).nrate
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        return None

    def _path_cost(self, nodes: tuple[str, ...]) -> float:
        return math.fsum(
            self._topo.edge(a, b).nrate for a, b in zip(nodes, nodes[1:])
        )
