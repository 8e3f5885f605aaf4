"""Experiment 1: effect of the network charging rate (paper Figs. 5 & 6).

Fig. 5 plots total service cost against the network charging rate for
several storage charging rates, together with the cost of the environment
*without* intermediate storage.  The paper's findings, which the series
reproduce:

* total cost grows (essentially linearly) with the network rate;
* the no-cache line grows faster, so the advantage of intermediate storage
  becomes more significant as the network rate increases;
* cheaper storage shifts the cached curves down.

Fig. 6 repeats the sweep across Zipf skews: less biased access patterns
(larger alpha) yield more expensive schedules because fewer requests share a
cached copy.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.series import Series
from repro.experiments.figures import FigureResult
from repro.experiments.runner import ExperimentRunner


def fig5(
    runner: ExperimentRunner,
    *,
    srates: Sequence[float] | None = None,
) -> FigureResult:
    """Total cost vs network charging rate under different storage rates."""
    cfg = runner.config
    srates = list(srates if srates is not None else cfg.srate_axis)
    nrates = list(cfg.nrate_axis)
    seed = cfg.workload_seed
    fig = FigureResult(
        figure_id="fig5",
        title=(
            f"network rate vs total cost (alpha={cfg.alpha}, "
            f"IS={cfg.capacity_gb} GB)"
        ),
        xlabel="network charging rate ($/GB)",
        ylabel="total service cost ($)",
    )
    for srate in srates:
        ys = [
            runner.mean_total_cost(seed, nrate_per_gb=n, srate_per_gb_hour=srate)
            for n in nrates
        ]
        fig.series.append(
            Series(f"srate={srate:g}", tuple(nrates), tuple(ys))
        )
    baseline = [runner.mean_network_only(seed, nrate_per_gb=n) for n in nrates]
    fig.series.append(
        Series("no intermediate storage", tuple(nrates), tuple(baseline))
    )
    fig.notes = (
        "Expected shape: all curves increase with the network rate; the "
        "no-storage line dominates and diverges, so caching's advantage "
        "grows with network cost (paper Sec. 5.2)."
    )
    return fig


def fig6(
    runner: ExperimentRunner,
    *,
    alphas: Sequence[float] | None = None,
) -> FigureResult:
    """Total cost vs network charging rate under different access skews."""
    cfg = runner.config
    alphas = list(alphas if alphas is not None else cfg.alpha_axis)
    nrates = list(cfg.nrate_axis)
    seed = cfg.workload_seed
    fig = FigureResult(
        figure_id="fig6",
        title=(
            f"network rate vs total cost per access pattern "
            f"(srate={cfg.srate_per_gb_hour:g}, IS={cfg.capacity_gb} GB)"
        ),
        xlabel="network charging rate ($/GB)",
        ylabel="total service cost ($)",
    )
    for alpha in alphas:
        ys = [
            runner.mean_total_cost(seed, nrate_per_gb=n, alpha=alpha)
            for n in nrates
        ]
        fig.series.append(Series(f"alpha={alpha:g}", tuple(nrates), tuple(ys)))
    fig.notes = (
        "Expected shape: cost increases with the network rate for every "
        "alpha, and more evenly distributed requests (larger alpha) cost "
        "more at the same rate (paper Sec. 5.2)."
    )
    return fig
