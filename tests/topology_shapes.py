"""Small topology shapes the property and differential tests sweep.

The package builds only the paper's layouts (``paper_topology``,
``worked_example_topology``) and the chain; these star, ring, tree and
random shapes exist for tests that check invariants across layouts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.topology import Topology


def star_topology(
    n_storages: int, *, nrate: float, srate: float, capacity: float
) -> Topology:
    """Warehouse at the hub, each storage one hop away."""
    _check_count(n_storages)
    topo = Topology()
    topo.add_warehouse("VW")
    for i in range(1, n_storages + 1):
        name = f"IS{i}"
        topo.add_storage(name, srate=srate, capacity=capacity)
        topo.add_edge("VW", name, nrate=nrate)
    return topo


def ring_topology(
    n_storages: int, *, nrate: float, srate: float, capacity: float
) -> Topology:
    """Warehouse and storages on a single ring."""
    _check_count(n_storages)
    topo = Topology()
    names = ["VW"] + [f"IS{i}" for i in range(1, n_storages + 1)]
    topo.add_warehouse("VW")
    for name in names[1:]:
        topo.add_storage(name, srate=srate, capacity=capacity)
    for a, b in zip(names, names[1:]):
        topo.add_edge(a, b, nrate=nrate)
    if len(names) > 2:
        topo.add_edge(names[-1], names[0], nrate=nrate)
    return topo


def tree_topology(
    n_storages: int, *, nrate: float, srate: float, capacity: float
) -> Topology:
    """Complete binary distribution tree rooted at the warehouse."""
    _check_count(n_storages)
    topo = Topology()
    topo.add_warehouse("VW")
    names = ["VW"] + [f"IS{i}" for i in range(1, n_storages + 1)]
    for name in names[1:]:
        topo.add_storage(name, srate=srate, capacity=capacity)
    for idx in range(1, len(names)):
        topo.add_edge(names[(idx - 1) // 2], names[idx], nrate=nrate)
    return topo


def random_topology(
    n_storages: int, *, nrate: float, srate: float, capacity: float, seed: int
) -> Topology:
    """Connected random topology: random spanning tree + extra random links.

    Each new node attaches to a uniformly random earlier node (random
    recursive tree), then each remaining pair becomes an edge with
    probability 0.15.  Deterministic for a given seed.
    """
    _check_count(n_storages)
    rng = np.random.default_rng(seed)
    topo = Topology()
    names = ["VW"] + [f"IS{i}" for i in range(1, n_storages + 1)]
    topo.add_warehouse("VW")
    for name in names[1:]:
        topo.add_storage(name, srate=srate, capacity=capacity)
    for idx in range(1, len(names)):
        topo.add_edge(names[int(rng.integers(0, idx))], names[idx], nrate=nrate)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if not topo.has_edge(names[i], names[j]) and rng.random() < 0.15:
                topo.add_edge(names[i], names[j], nrate=nrate)
    return topo


def _check_count(n_storages: int) -> None:
    if n_storages < 1:
        raise TopologyError(f"need at least one storage, got {n_storages}")
