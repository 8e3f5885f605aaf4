"""Deterministic topology builders.

:func:`paper_topology` reconstructs the experimental layout of the paper's
Fig. 4 -- one video warehouse plus 19 intermediate storages.  The printed
figure is not legible enough to recover the exact wiring, so we use a
documented metro-style layout with the same node counts: the warehouse feeds
four regional hubs joined in a ring, and each hub serves a small neighborhood
cluster.  The paper's experiments sweep a single *network charging rate* and a
single *storage charging rate* applied uniformly, so only the rough shape
(multi-hop, ~2 average hops from the warehouse) matters for reproducing the
result shapes.

:func:`worked_example_topology` builds the tiny two-storage chain of the
paper's Fig. 2, used by the worked-example tests that check Ψ(S1) = $259.20
and Ψ(S2) = $138.975 exactly.  :func:`chain_topology` is the linear layout
the optimality-gap experiment draws its small instances on.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.graph import Topology
from repro import units


#: Fixed wiring of the 20-node experimental topology (see module docstring).
PAPER_TOPOLOGY_EDGES: tuple[tuple[str, str], ...] = (
    # warehouse to regional hubs
    ("VW", "IS1"),
    ("VW", "IS2"),
    ("VW", "IS3"),
    ("VW", "IS4"),
    # hub ring
    ("IS1", "IS2"),
    ("IS2", "IS3"),
    ("IS3", "IS4"),
    ("IS4", "IS1"),
    # cluster behind IS1
    ("IS1", "IS5"),
    ("IS1", "IS6"),
    ("IS5", "IS7"),
    ("IS6", "IS7"),
    # cluster behind IS2
    ("IS2", "IS8"),
    ("IS2", "IS9"),
    ("IS8", "IS10"),
    ("IS9", "IS11"),
    ("IS10", "IS11"),
    # cluster behind IS3
    ("IS3", "IS12"),
    ("IS3", "IS13"),
    ("IS12", "IS14"),
    ("IS13", "IS15"),
    ("IS14", "IS15"),
    # cluster behind IS4
    ("IS4", "IS16"),
    ("IS4", "IS17"),
    ("IS16", "IS18"),
    ("IS17", "IS19"),
    ("IS18", "IS19"),
)

#: Number of intermediate storages in the paper topology.
PAPER_STORAGE_COUNT = 19


def paper_topology(
    *,
    nrate: float,
    srate: float,
    capacity: float,
) -> Topology:
    """The 20-node experimental topology (paper Fig. 4).

    Args:
        nrate: Per-link network charging rate, $/byte (uniform, as in the
            paper's single "Network Charging Rate" sweep parameter).
        srate: Per-storage charging rate, $/(byte*s) (uniform).
        capacity: Per-storage capacity in bytes ("Intermediate Storage Size").
    """
    topo = Topology()
    topo.add_warehouse("VW")
    for i in range(1, PAPER_STORAGE_COUNT + 1):
        topo.add_storage(f"IS{i}", srate=srate, capacity=capacity)
    for a, b in PAPER_TOPOLOGY_EDGES:
        topo.add_edge(a, b, nrate=nrate)
    return topo


def worked_example_topology() -> Topology:
    """The Fig. 2 layout: ``VW -- IS1 -- IS2`` with the paper's link rates.

    Link rates are 0.2 and 0.1 cents per (Mbps*second); IS1/IS2 charge
    $1.00/(GB*hour), which together with the 90 min / 2.5 GB / 6 Mbps video
    reproduces the paper's Ψ(S1) = $259.20 and Ψ(S2) = $138.975 exactly.
    """
    topo = Topology()
    topo.add_warehouse("VW")
    srate = units.per_gb_hour(1.0)
    topo.add_storage("IS1", srate=srate, capacity=units.gb(10.0))
    topo.add_storage("IS2", srate=srate, capacity=units.gb(10.0))
    topo.add_edge("VW", "IS1", nrate=units.per_mbps_second(0.002, units.mbps(6)))
    topo.add_edge("IS1", "IS2", nrate=units.per_mbps_second(0.001, units.mbps(6)))
    return topo


def chain_topology(
    n_storages: int,
    *,
    nrate: float,
    srate: float,
    capacity: float,
) -> Topology:
    """Linear chain ``VW -- IS1 -- IS2 -- ... -- ISn``.

    The worst case for direct delivery (cost grows with distance from the
    warehouse), so the configuration where intermediate caching helps most.
    """
    if n_storages < 1:
        raise TopologyError(f"need at least one storage, got {n_storages}")
    topo = Topology()
    topo.add_warehouse("VW")
    prev = "VW"
    for i in range(1, n_storages + 1):
        name = f"IS{i}"
        topo.add_storage(name, srate=srate, capacity=capacity)
        topo.add_edge(prev, name, nrate=nrate)
        prev = name
    return topo
