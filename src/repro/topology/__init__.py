"""Network/storage topology substrate.

The paper's environment (Fig. 1 / Fig. 4) is a single *video warehouse* (VW)
plus a set of *intermediate storages* (IS), one per user neighborhood, joined
by a priced high-speed network.  This subpackage provides:

* :class:`~repro.topology.graph.Topology` -- the node/edge model with per-edge
  network charging rates (``nrate``) and per-storage charging rates/capacities
  (``srate``, capacity),
* :class:`~repro.topology.routing.Router` -- cheapest-path routing and
  all-pairs cost queries over a topology,
* :mod:`~repro.topology.generators` -- the paper's 20-node experimental
  layout, the Fig. 2 worked-example chain and a plain chain builder.
"""

from repro.topology.graph import ChargingBasis, Edge, NodeKind, NodeSpec, Topology
from repro.topology.routing import Route, Router
from repro.topology.generators import (
    chain_topology,
    paper_topology,
    worked_example_topology,
)
from repro.topology.validation import validate_topology

__all__ = [
    "ChargingBasis",
    "Edge",
    "NodeKind",
    "NodeSpec",
    "Topology",
    "Route",
    "Router",
    "chain_topology",
    "paper_topology",
    "worked_example_topology",
    "validate_topology",
]
