"""Experiment runner: builds environments and executes scheduling runs.

One :class:`ExperimentRunner` owns a catalog (fixed per configuration) and
memoises request batches per ``(alpha, arrivals, seed)`` -- the workload does
not depend on charging rates or capacities, so a sweep over rates reuses the
same batch, exactly as the paper varies one attribute at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.network_only import network_only_cost
from repro.catalog.catalog import VideoCatalog, paper_catalog
from repro.core.costmodel import CostModel
from repro.core.heat import HeatMetric
from repro.core.scheduler import ScheduleResult, VideoScheduler
from repro.experiments.config import ExperimentConfig
from repro.topology.generators import paper_topology
from repro.topology.graph import Topology
from repro.workload.arrival import (
    ArrivalProcess,
    PeakHourArrivals,
    SlottedArrivals,
    UniformArrivals,
)
from repro.workload.generators import WorkloadGenerator
from repro.workload.requests import RequestBatch
from repro import units


@dataclass(frozen=True)
class RunRecord:
    """One scheduling run: the grid point plus every reported quantity."""

    nrate_per_gb: float
    srate_per_gb_hour: float
    capacity_gb: float
    alpha: float
    heat_metric: HeatMetric
    seed: int
    n_requests: int
    total_cost: float
    storage_cost: float
    network_cost: float
    phase1_cost: float
    overflow_count: int
    resolution_iterations: int
    cost_increase_ratio: float

    @property
    def had_overflow(self) -> bool:
        return self.overflow_count > 0


class ExperimentRunner:
    """Executes scheduling runs over the Table 4 environment."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._catalog: VideoCatalog = paper_catalog(
            config.n_files,
            mean_size=config.mean_file_size,
            seed=config.catalog_seed,
        )
        self._batches: dict[tuple[float, str, int], RequestBatch] = {}

    @property
    def catalog(self) -> VideoCatalog:
        return self._catalog

    # -- environment construction -------------------------------------------

    def topology(
        self,
        *,
        nrate_per_gb: float | None = None,
        srate_per_gb_hour: float | None = None,
        capacity_gb: float | None = None,
    ) -> Topology:
        cfg = self.config
        return paper_topology(
            nrate=units.per_gb(
                cfg.nrate_per_gb if nrate_per_gb is None else nrate_per_gb
            ),
            srate=units.per_gb_hour(
                cfg.srate_per_gb_hour
                if srate_per_gb_hour is None
                else srate_per_gb_hour
            ),
            capacity=units.gb(
                cfg.capacity_gb if capacity_gb is None else capacity_gb
            ),
        )

    def _arrivals(self) -> ArrivalProcess:
        kind = self.config.arrivals
        if kind == "uniform":
            return UniformArrivals()
        if kind == "peak":
            return PeakHourArrivals()
        return SlottedArrivals()

    def batch(self, *, alpha: float | None = None, seed: int | None = None) -> RequestBatch:
        """The request batch for a workload setting (memoised)."""
        cfg = self.config
        a = cfg.alpha if alpha is None else alpha
        s = cfg.workload_seed if seed is None else seed
        key = (a, cfg.arrivals, s)
        cached = self._batches.get(key)
        if cached is not None:
            return cached
        topo = self.topology()  # rates are irrelevant to workload structure
        gen = WorkloadGenerator(
            topo,
            self._catalog,
            alpha=a,
            users_per_neighborhood=cfg.users_per_neighborhood,
            arrivals=self._arrivals(),
        )
        batch = gen.generate(seed=s)
        self._batches[key] = batch
        return batch

    # -- runs ------------------------------------------------------------------

    def run(
        self,
        *,
        nrate_per_gb: float | None = None,
        srate_per_gb_hour: float | None = None,
        capacity_gb: float | None = None,
        alpha: float | None = None,
        heat_metric: HeatMetric | None = None,
        seed: int | None = None,
    ) -> RunRecord:
        """One full two-phase scheduling run at a grid point."""
        cfg = self.config
        topo = self.topology(
            nrate_per_gb=nrate_per_gb,
            srate_per_gb_hour=srate_per_gb_hour,
            capacity_gb=capacity_gb,
        )
        batch = self.batch(alpha=alpha, seed=seed)
        metric = cfg.heat_metric if heat_metric is None else heat_metric
        scheduler = VideoScheduler(topo, self._catalog, heat_metric=metric)
        result = scheduler.solve(batch)
        return self._record(
            result,
            nrate_per_gb=cfg.nrate_per_gb if nrate_per_gb is None else nrate_per_gb,
            srate_per_gb_hour=(
                cfg.srate_per_gb_hour
                if srate_per_gb_hour is None
                else srate_per_gb_hour
            ),
            capacity_gb=cfg.capacity_gb if capacity_gb is None else capacity_gb,
            alpha=cfg.alpha if alpha is None else alpha,
            metric=metric,
            seed=cfg.workload_seed if seed is None else seed,
            n_requests=len(batch),
        )

    def mean_total_cost(self, seed: int, **params) -> float:
        """``run(seed=seed, ...).total_cost``: the paper reports
        single-seed curves, so a figure point is one run's total cost."""
        return self.run(seed=seed, **params).total_cost

    def network_only(
        self,
        *,
        nrate_per_gb: float | None = None,
        alpha: float | None = None,
        seed: int | None = None,
    ) -> float:
        """Total cost of the no-intermediate-storage baseline."""
        topo = self.topology(nrate_per_gb=nrate_per_gb)
        batch = self.batch(alpha=alpha, seed=seed)
        cm = CostModel(topo, self._catalog)
        return network_only_cost(batch, cm)

    def mean_network_only(self, seed: int, **params) -> float:
        """``network_only(seed=seed, ...)``, a figure's baseline point."""
        return self.network_only(seed=seed, **params)

    @staticmethod
    def _record(
        result: ScheduleResult,
        *,
        nrate_per_gb: float,
        srate_per_gb_hour: float,
        capacity_gb: float,
        alpha: float,
        metric: HeatMetric,
        seed: int,
        n_requests: int,
    ) -> RunRecord:
        return RunRecord(
            nrate_per_gb=nrate_per_gb,
            srate_per_gb_hour=srate_per_gb_hour,
            capacity_gb=capacity_gb,
            alpha=alpha,
            heat_metric=metric,
            seed=seed,
            n_requests=n_requests,
            total_cost=result.total_cost,
            storage_cost=result.cost.storage,
            network_cost=result.cost.network,
            phase1_cost=result.phase1_cost,
            overflow_count=result.resolution.initial_overflows,
            resolution_iterations=result.resolution.iterations,
            cost_increase_ratio=result.overflow_cost_ratio,
        )
