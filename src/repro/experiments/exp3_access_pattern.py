"""Experiment 3: effect of the data access pattern (paper Fig. 9).

Total cost against the Zipf skew parameter alpha for several intermediate
storage sizes.  Expected shapes (Sec. 5.4): cost increases as the access
pattern becomes less biased (larger alpha); smaller storages cost more; and
the advantage of a larger storage is most pronounced for skewed patterns
(the vertical gaps between size-curves widen as alpha decreases).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.series import Series
from repro.experiments.figures import FigureResult
from repro.experiments.runner import ExperimentRunner


def fig9(
    runner: ExperimentRunner,
    *,
    capacities: Sequence[float] | None = None,
) -> FigureResult:
    """Total cost vs Zipf alpha for several intermediate storage sizes."""
    cfg = runner.config
    alphas = sorted(cfg.alpha_axis)
    capacities = list(capacities if capacities is not None else cfg.capacity_axis)
    seed = cfg.workload_seed
    fig = FigureResult(
        figure_id="fig9",
        title=(
            f"access skew vs total cost per storage size "
            f"(srate={cfg.srate_per_gb_hour:g}, nrate={cfg.nrate_per_gb:g})"
        ),
        xlabel="zipf alpha (larger = less biased)",
        ylabel="total service cost ($)",
    )
    for cap in capacities:
        ys = [
            runner.mean_total_cost(seed, alpha=a, capacity_gb=cap)
            for a in alphas
        ]
        fig.series.append(
            Series(f"IS size={cap:g} GB", tuple(alphas), tuple(ys))
        )
    fig.notes = (
        "Expected shape: every curve increases with alpha; smaller storage "
        "sizes sit above larger ones; the gap between sizes narrows as the "
        "access pattern flattens (paper Sec. 5.4)."
    )
    return fig
