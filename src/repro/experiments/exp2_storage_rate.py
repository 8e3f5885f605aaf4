"""Experiment 2: effect of the storage charging rate (paper Figs. 7 & 8).

Fig. 7: total cost against the storage charging rate, next to the
network-only system's (storage-rate-independent) cost.  At low storage rates
the scheduler caches aggressively, so cost is sensitive to the rate; as
storage gets dearer, caching is abandoned and the curve saturates toward the
network-only asymptote.

Fig. 8: the same sweep under several network charging rates -- the effect of
the storage rate is "substantial only when the storage charging rate is
low", while the network rate shifts the whole curve up roughly linearly.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.series import Series
from repro.experiments.figures import FigureResult
from repro.experiments.runner import ExperimentRunner


def fig7(runner: ExperimentRunner) -> FigureResult:
    """Storage charging rate vs total cost, with the network-only asymptote."""
    cfg = runner.config
    srates = list(cfg.srate_wide_axis)
    nrate = cfg.nrate_per_gb
    seed = cfg.workload_seed
    fig = FigureResult(
        figure_id="fig7",
        title=(
            f"storage rate vs total cost (alpha={cfg.alpha}, "
            f"IS={cfg.capacity_gb} GB, nrate={nrate:g})"
        ),
        xlabel="storage charging rate ($/GB/hour)",
        ylabel="total service cost ($)",
    )
    ys = [
        runner.mean_total_cost(seed, srate_per_gb_hour=s, nrate_per_gb=nrate)
        for s in srates
    ]
    fig.series.append(Series("with intermediate storage", tuple(srates), tuple(ys)))
    baseline = runner.mean_network_only(seed, nrate_per_gb=nrate)
    fig.series.append(
        Series(
            "network only system",
            tuple(srates),
            tuple(baseline for _ in srates),
        )
    )
    fig.notes = (
        "Expected shape: the cached curve rises with the storage rate, "
        "flattens, and approaches the network-only system's constant cost "
        "from below (paper Sec. 5.3)."
    )
    return fig


def fig8(
    runner: ExperimentRunner,
    *,
    nrates: Sequence[float] | None = None,
) -> FigureResult:
    """Storage charging rate vs total cost under several network rates."""
    cfg = runner.config
    srates = list(cfg.srate_wide_axis)
    nrates = list(nrates if nrates is not None else (300, 600, 1000))
    seed = cfg.workload_seed
    fig = FigureResult(
        figure_id="fig8",
        title=(
            f"storage rate vs total cost per network rate "
            f"(alpha={cfg.alpha}, IS={cfg.capacity_gb} GB)"
        ),
        xlabel="storage charging rate ($/GB/hour)",
        ylabel="total service cost ($)",
    )
    for nrate in nrates:
        ys = [
            runner.mean_total_cost(seed, srate_per_gb_hour=s, nrate_per_gb=nrate)
            for s in srates
        ]
        fig.series.append(Series(f"nrate={nrate:g}", tuple(srates), tuple(ys)))
    fig.notes = (
        "Expected shape: each curve rises then saturates in the storage "
        "rate; raising the network rate shifts curves up roughly "
        "proportionally because most of the cost is unavoidable network "
        "delivery (paper Sec. 5.3)."
    )
    return fig
