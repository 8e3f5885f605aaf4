"""Experiment 4: heat metrics and rescheduling cost (paper Table 5, Sec. 5.5).

For every combination of network rate, storage rate, storage size and access
pattern, run the full two-phase scheduler once per heat metric and compare
the final costs.  The paper reports, over 785 combinations of which 622
incurred overflow-resolution cost:

* method 2 (``chi/overhead``) best in 63 % of the cost-incurring cases,
* method 4 (``dS/overhead``)  best in 70 %,
* method 2 or 4 best in 98 %,
* resolution cost increase: 12 % average, 34 % worst case,
* end-to-end result empirically within ~30 % of optimal.

``table5`` reproduces the win-rate table; ``optimality_gap`` reproduces the
optimal-bound measurement on exhaustively solvable instances.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import format_table
from repro.baselines.optimal import OptimalScheduler
from repro.catalog.catalog import VideoCatalog, uniform_catalog
from repro.core.costmodel import CostModel
from repro.core.heat import HeatMetric
from repro.core.scheduler import VideoScheduler
from repro.experiments.runner import ExperimentRunner
from repro.topology.generators import chain_topology
from repro.workload.generators import WorkloadGenerator
from repro import units

#: Cost-equality tolerance when deciding which metric "won" a case.
_TIE_TOL = 1e-7


@dataclass
class HeatComparison:
    """Aggregated Table 5 results."""

    total_cases: int = 0
    cases_with_cost: int = 0
    wins: dict[HeatMetric, int] = field(
        default_factory=lambda: {m: 0 for m in HeatMetric}
    )
    wins_2_or_4: int = 0
    increase_ratios: list[float] = field(default_factory=list)

    def win_rate(self, metric: HeatMetric) -> float:
        if self.cases_with_cost == 0:
            return 0.0
        return self.wins[metric] / self.cases_with_cost

    @property
    def rate_2_or_4(self) -> float:
        if self.cases_with_cost == 0:
            return 0.0
        return self.wins_2_or_4 / self.cases_with_cost

    @property
    def increase_summary(self) -> Summary:
        return summarize(self.increase_ratios or [0.0])

    def as_table(self) -> str:
        rows: list[list[object]] = [
            ["Total number of cases", self.total_cases, ""],
            ["Cases with overflow-resolution cost", self.cases_with_cost, ""],
        ]
        for m in HeatMetric:
            rows.append(
                [
                    f"Method {m.value} best (Eq. {7 + m.value})",
                    self.wins[m],
                    f"{100 * self.win_rate(m):.0f} %",
                ]
            )
        rows.append(
            ["Method 2 or Method 4 best", self.wins_2_or_4, f"{100 * self.rate_2_or_4:.0f} %"]
        )
        s = self.increase_summary
        rows.append(
            [
                "Resolution cost increase (avg / max)",
                "",
                f"{100 * s.mean:.1f} % / {100 * s.maximum:.1f} %",
            ]
        )
        return format_table(
            ["quantity", "count", "share"],
            rows,
            title="Table 5: performance of each heat metric",
        )


def table5(
    runner: ExperimentRunner,
    *,
    nrates: Sequence[float] | None = None,
    srates: Sequence[float] | None = None,
    capacities: Sequence[float] | None = None,
    alphas: Sequence[float] | None = None,
    seeds: Sequence[int] | None = None,
) -> HeatComparison:
    """Sweep the Table 4 grid and score the four heat metrics.

    A grid point is a *case*; only cases where overflow resolution changed
    the cost participate in the win-rate statistics (like the paper's
    622-of-785).  Every metric achieving the minimum final cost at a case is
    credited (ties count for all winners, which is how "method 2 or 4 wins
    98 %" can coexist with 63 % + 70 %).
    """
    cfg = runner.config
    nrates = list(nrates if nrates is not None else cfg.nrate_axis)
    srates = list(srates if srates is not None else cfg.srate_axis)
    capacities = list(capacities if capacities is not None else cfg.capacity_axis)
    alphas = list(alphas if alphas is not None else cfg.alpha_axis)
    seeds = list(seeds if seeds is not None else (cfg.workload_seed,))

    comparison = HeatComparison()
    for nrate, srate, cap, alpha, seed in itertools.product(
        nrates, srates, capacities, alphas, seeds
    ):
        comparison.total_cases += 1
        results: dict[HeatMetric, float] = {}
        any_increase = False
        for metric in HeatMetric:
            rec = runner.run(
                nrate_per_gb=nrate,
                srate_per_gb_hour=srate,
                capacity_gb=cap,
                alpha=alpha,
                heat_metric=metric,
                seed=seed,
            )
            results[metric] = rec.total_cost
            if rec.cost_increase_ratio > 1e-12:
                any_increase = True
                if metric is HeatMetric.SPACE_TIME_PER_COST:
                    comparison.increase_ratios.append(rec.cost_increase_ratio)
        if not any_increase:
            continue
        comparison.cases_with_cost += 1
        best = min(results.values())
        winners = {
            m for m, v in results.items() if v <= best * (1 + _TIE_TOL) + _TIE_TOL
        }
        for m in winners:
            comparison.wins[m] += 1
        if HeatMetric.TIME_PER_COST in winners or (
            HeatMetric.SPACE_TIME_PER_COST in winners
        ):
            comparison.wins_2_or_4 += 1
    return comparison


@dataclass
class GapResult:
    """Optimality-gap measurement over exhaustively solvable instances."""

    gaps: list[float] = field(default_factory=list)

    @property
    def summary(self) -> Summary:
        return summarize(self.gaps or [0.0])

    def as_table(self) -> str:
        s = self.summary
        return format_table(
            ["quantity", "value"],
            [
                ["instances", s.n],
                ["mean gap vs optimal", f"{100 * s.mean:.1f} %"],
                ["median gap", f"{100 * s.median:.1f} %"],
                ["max gap", f"{100 * s.maximum:.1f} %"],
            ],
            title="Sec. 5.5: two-phase heuristic vs exhaustive optimum",
        )


def optimality_gap(
    *,
    n_instances: int = 20,
    seed: int = 0,
) -> GapResult:
    """Measure ``(heuristic - optimal) / optimal`` on tiny random instances.

    Instances use a two-storage chain topology (where caching decisions
    matter most) with 110-260 byte caches and three users per
    neighborhood.  Those never overflow: every instance of the
    default draw, and of ``n_instances=12, seed=3``, runs 0 SORP rounds, so
    the gap compares the Phase-1 greedy alone with the optimum.  The paper
    claims the two-phase heuristic lands within ~30 % of optimal on
    average; this measurement checks that bound on solvable sizes, but not
    under overflow.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    result = GapResult()
    for _ in range(n_instances):
        srate = float(rng.uniform(0.5, 4.0)) * 1e-3
        nrate = float(rng.uniform(0.5, 3.0))
        capacity = float(rng.uniform(110.0, 260.0))
        topo = chain_topology(2, nrate=nrate, srate=srate, capacity=capacity)
        n_videos = int(rng.integers(1, 3))
        catalog: VideoCatalog = uniform_catalog(
            n_videos, size=100.0, playback=10.0, prefix="m"
        )
        gen = WorkloadGenerator(topo, catalog, alpha=0.5, users_per_neighborhood=3)
        batch = gen.generate(seed=int(rng.integers(0, 2**31)))
        cm = CostModel(topo, catalog)
        heur = VideoScheduler(topo, catalog).solve(batch).total_cost
        opt = OptimalScheduler(cm, max_nodes=5_000_000).optimal_cost(batch)
        if opt <= 0:
            continue
        result.gaps.append((heur - opt) / opt)
    return result
