"""Workload generator: neighborhoods x users x Zipf popularity x arrivals.

Reproduces the paper's experimental workload (Sec. 5.1): each intermediate
storage serves one neighborhood of ``users_per_neighborhood`` users (10 in
the paper); every user issues one reservation per cycle, picking a title by
Zipf popularity and a start time from the arrival process.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.catalog import VideoCatalog
from repro.errors import WorkloadError
from repro.topology.graph import Topology
from repro.workload.arrival import ArrivalProcess, UniformArrivals
from repro.workload.requests import Request, RequestBatch
from repro.workload.zipf import ZipfPopularity


class WorkloadGenerator:
    """Deterministic generator of one cycle's request batch.

    Args:
        topology: Supplies the neighborhoods -- one per storage node.
        catalog: Titles, ranked by popularity (catalog order = rank).
        alpha: Zipf skew parameter in [0, 1]; larger = less biased.
        users_per_neighborhood: Requests issued per storage per cycle.
        arrivals: Start-time process; defaults to uniform over 24 h.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        alpha: float = 0.271,
        users_per_neighborhood: int = 10,
        arrivals: ArrivalProcess | None = None,
    ):
        if users_per_neighborhood < 1:
            raise WorkloadError(
                f"users_per_neighborhood must be >= 1, got {users_per_neighborhood}"
            )
        if len(catalog) < 1:
            raise WorkloadError("catalog is empty")
        if not topology.storages:
            raise WorkloadError("topology has no storage (no neighborhoods)")
        self.topology = topology
        self.catalog = catalog
        self.popularity = ZipfPopularity(len(catalog), alpha)
        self.users_per_neighborhood = users_per_neighborhood
        self.arrivals = arrivals if arrivals is not None else UniformArrivals()

    @property
    def n_requests(self) -> int:
        """Total requests produced per cycle."""
        return len(self.topology.storages) * self.users_per_neighborhood

    def generate(self, seed: int = 0, *, rank_permutation=None) -> RequestBatch:
        """Produce the request batch for one cycle, deterministically.

        ``rank_permutation`` optionally remaps popularity ranks to catalog
        indices (``perm[rank] -> index``), e.g. from
        :class:`~repro.workload.churn.RankChurn` in multi-cycle studies;
        by default rank k is the k-th catalog entry.
        """
        if rank_permutation is not None and len(rank_permutation) != len(
            self.catalog
        ):
            raise WorkloadError(
                f"rank_permutation has {len(rank_permutation)} entries for a "
                f"catalog of {len(self.catalog)}"
            )
        rng = np.random.default_rng(seed)
        n = self.n_requests
        ranks = self.popularity.sample(n, rng)
        starts = self.arrivals.sample(n, rng)
        requests: list[Request] = []
        k = 0
        for storage in self.topology.storages:
            for u in range(self.users_per_neighborhood):
                rank = int(ranks[k])
                if rank_permutation is not None:
                    rank = int(rank_permutation[rank])
                requests.append(
                    Request(
                        start_time=float(starts[k]),
                        video_id=self.catalog.by_rank(rank).video_id,
                        user_id=f"{storage.name}/user{u:03d}",
                        local_storage=storage.name,
                    )
                )
                k += 1
        return RequestBatch(requests)
