"""Phase 2: Storage Overflow Resolution (paper Sec. 4.3, Table 3).

``SORP_solve`` iterates until the integrated schedule is capacity-feasible:
detect every overflow situation, price the rescheduling of every member
residency's file with the rejective greedy, pick the member with the largest
*heat* as the victim, commit its new file schedule, and re-detect.

Termination: the rejective greedy (a) never lets the victim occupy the
overflowing ``(Δt, IS_j)`` and (b) only places residencies that fit in the
currently available space, so each commit strictly reduces the total
over-capacity space-time and never creates a new overflow (placement and
detection share one tolerance, :func:`~repro.core.spacefunc.capacity_slack`).
A generous iteration cap guards against pathological numerical edge cases.

Evaluation is incremental within one run, with results bit-identical to
rebuilding every trial from scratch.  A :class:`LocationIndex` mirrors the
working schedule per storage and stamps each storage with a version that
bumps only where a committed victim's old or new file has residencies.
Trials share "everyone but video v" timelines and ``fits`` answers per
``(v, location, stamp)``.  The greedy is deterministic given its oracle's
answers, so identical answers replay the identical schedule: a memoized
trial is reused in later rounds while every location its oracle consulted
keeps its stamp, and revalidated -- without running the greedy -- when its
recorded queries at the re-stamped locations still answer the same.
Detection re-sweeps only re-stamped storages.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from repro.core.costmodel import CacheStats, CostModel, record_cache_metrics
from repro.core.heat import HeatMetric, compute_heat
from repro.core.overflow import LocationIndex, OverflowSituation, detect_overflows
from repro.core.rejective import AvailabilityOracle, RejectiveGreedyScheduler
from repro.core.schedule import FileSchedule, Schedule
from repro.core.spacefunc import SpaceProfile
from repro.errors import OverflowResolutionError
from repro.obs import DOLLAR_BUCKETS, NULL_OBS, Observability
from repro.workload.requests import RequestBatch

_log = logging.getLogger(__name__)


@dataclass
class VictimRecord:
    """One committed reschedule: who was evicted from where, at what cost."""

    video_id: str
    location: str
    interval: tuple[float, float]
    heat: float
    overhead_cost: float


@dataclass
class ResolutionStats:
    """Summary of one SORP run (feeds the Sec. 5.5 statistics)."""

    iterations: int = 0
    initial_overflows: int = 0
    victims: list[VictimRecord] = field(default_factory=list)
    phase1_cost: float = 0.0
    resolved_cost: float = 0.0
    #: Cost-cache activity during resolution.  Excluded from equality so
    #: that determinism checks compare the *decisions*, not the cache
    #: temperature they were computed under.
    cache_stats: CacheStats = field(default_factory=CacheStats, compare=False)

    @property
    def had_overflow(self) -> bool:
        return self.initial_overflows > 0

    @property
    def cost_increase(self) -> float:
        """Absolute cost added by overflow resolution."""
        return self.resolved_cost - self.phase1_cost

    @property
    def cost_increase_ratio(self) -> float:
        """``(Ψ(S_SORP) - Ψ(S)) / Ψ(S)`` as reported in Sec. 5.5."""
        if self.phase1_cost == 0.0:
            return 0.0
        return self.cost_increase / self.phase1_cost


def resolve_overflows(
    schedule: Schedule,
    batch: RequestBatch,
    cost_model: CostModel,
    *,
    metric: HeatMetric = HeatMetric.SPACE_TIME_PER_COST,
    max_iterations: int | None = None,
    background=None,
    committed=None,
    obs: Observability | None = None,
) -> tuple[Schedule, ResolutionStats]:
    """Run ``SORP_solve`` on an integrated Phase-1 schedule.

    Args:
        schedule: The integrated per-file schedules (not mutated).
        batch: The cycle's requests (needed to rebuild victims' schedules).
        cost_model: Pricing + topology + catalog.
        metric: Victim-selection heat metric (the paper's best default is
            method 4, ``ΔS / overhead``).
        max_iterations: Safety cap; defaults to ``10 * #residencies + 100``.
        background: Optional ``{location: [SpaceProfile, ...]}`` of space
            committed outside this schedule (rolling cycles); counts toward
            capacity, never victimized.
        committed: Optional ``{video_id: (ResidencyInfo, ...)}`` of carryover
            residencies a victim rebuild must retain (rolling cycles).
        obs: Observability handle; when live, the run records a ``sorp``
            span, one ``sorp.round`` span per iteration, ``overflow``
            spans around each detection sweep, and victim/iteration
            counters.  Defaults to the inert :data:`repro.obs.NULL_OBS`.

    Returns:
        ``(feasible_schedule, stats)``.  The input schedule is left intact.

    Raises:
        OverflowResolutionError: If the cap is hit (should not occur; see
            the termination argument in the module docstring).
    """
    catalog = cost_model.catalog
    topology = cost_model.topology
    obs = obs if obs is not None else NULL_OBS
    working = schedule.copy()
    cache_base = cost_model.cache_stats_detail
    stats = ResolutionStats(phase1_cost=cost_model.total(working))
    cap = (
        max_iterations
        if max_iterations is not None
        else 10 * max(len(working.residencies), 1) + 100
    )
    selector = _VictimSelector(
        working,
        cost_model,
        batch.by_video(),
        metric,
        background,
        committed or {},
    )
    index = selector.index

    with obs.tracer.span("sorp", residencies=len(working.residencies)) as sorp_span:
        with obs.tracer.span("overflow") as detect_span:
            overflows = detect_overflows(
                working, catalog, topology, background=background, index=index
            )
            detect_span.set(overflows=len(overflows))
        stats.initial_overflows = len(overflows)
        if obs.journal.enabled:
            for of in overflows:
                obs.journal.emit("overflowed", **of.journal_attrs())
        if overflows:
            _log.debug(
                "SORP: %d initial overflow situation(s) to resolve",
                len(overflows),
            )

        while overflows:
            stats.iterations += 1
            if stats.iterations > cap:
                raise OverflowResolutionError(
                    f"storage overflow unresolved after {cap} iterations "
                    f"({len(overflows)} overflow(s) remain)"
                )
            with obs.tracer.span(
                "sorp.round", iteration=stats.iterations, overflows=len(overflows)
            ) as round_span:
                ran, reused, revalidated = (
                    selector.trials_run,
                    selector.trials_reused,
                    selector.trials_revalidated,
                )
                victim = selector.select(overflows)
                round_span.set(
                    trials=selector.trials_run - ran,
                    reused=selector.trials_reused - reused,
                    revalidated=selector.trials_revalidated - revalidated,
                )
                if victim is None:
                    raise OverflowResolutionError(
                        "no reschedulable member in any overflow set"
                    )
                heat, overhead, overflow, new_fs = victim
                selector.commit(new_fs)
                stats.victims.append(
                    VictimRecord(
                        video_id=new_fs.video_id,
                        location=overflow.location,
                        interval=overflow.interval,
                        heat=heat,
                        overhead_cost=overhead,
                    )
                )
                round_span.set(
                    victim=new_fs.video_id, location=overflow.location
                )
                obs.journal.emit(
                    "sorp-placed",
                    video_id=new_fs.video_id,
                    location=overflow.location,
                    interval=overflow.interval,
                    heat=heat,
                    overhead=overhead,
                )
                with obs.tracer.span("overflow") as detect_span:
                    overflows = detect_overflows(
                        working, catalog, topology, background=background,
                        index=index,
                    )
                    detect_span.set(overflows=len(overflows))

        stats.resolved_cost = cost_model.total(working)
        detail = cost_model.cache_stats_detail - cache_base
        stats.cache_stats = detail.combined
        sorp_span.set(
            iterations=stats.iterations,
            victims=len(stats.victims),
            trials=selector.trials_run,
            reused=selector.trials_reused,
            revalidated=selector.trials_revalidated,
        )

    metrics = obs.metrics
    if metrics.enabled:
        record_cache_metrics(metrics, detail, phase="sorp")
        metrics.counter(
            "vor_sorp_iterations_total",
            help="SORP victim-selection rounds",
        ).inc(stats.iterations)
        metrics.counter(
            "vor_overflow_situations_total",
            help="Overflow situations detected on the integrated schedule",
        ).inc(stats.initial_overflows)
        overhead_hist = metrics.histogram(
            "vor_sorp_victim_overhead_dollars",
            boundaries=DOLLAR_BUCKETS,
            help="Cost overhead per committed SORP victim reschedule",
        )
        for record in stats.victims:
            overhead_hist.observe(record.overhead_cost)
        trials_help = "SORP rejective trial reschedules, run, reused or revalidated"
        for outcome, n in (
            ("run", selector.trials_run),
            ("reused", selector.trials_reused),
            ("revalidated", selector.trials_revalidated),
        ):
            metrics.counter(
                "vor_sorp_trials_total", help=trials_help, outcome=outcome
            ).inc(n)
        metrics.counter(
            "vor_sorp_timeline_builds_total",
            help="Usage timelines SORP built for detection and availability views",
        ).inc(index.timeline_builds)
    if stats.iterations:
        _log.info(
            "SORP resolved %d overflow(s) in %d round(s), cost +%.2f%%",
            stats.initial_overflows,
            stats.iterations,
            100 * stats.cost_increase_ratio,
        )
    return working, stats


@dataclass
class _Trial:
    """A memoized rejective reschedule and what its result depended on."""

    new_fs: FileSchedule
    new_cost: float
    #: Every capacity query the trial's oracle answered, in the order
    #: first asked (:attr:`AvailabilityOracle.queries`).
    queries: dict[tuple[str, float, float], tuple[SpaceProfile, bool]]
    #: ``{location: stamp}`` the queries were answered at.
    stamps: dict[str, int]


class _VictimSelector:
    """``SORP_solve``'s victim selection over one run, evaluated incrementally.

    Owns the run's :class:`LocationIndex` and a memo of trial reschedules
    keyed on ``(video, overflow location, overflow interval)``.  A memoized
    trial is reused as is while every location its oracle consulted keeps
    its stamp, and revalidated when re-asking its recorded queries at the
    re-stamped locations gives the same answers.  Trials that do run go
    through :meth:`RejectiveGreedyScheduler.reschedule`.
    """

    def __init__(
        self,
        working: Schedule,
        cost_model: CostModel,
        requests_by_video: dict,
        metric: HeatMetric,
        background,
        committed: dict,
    ):
        self.index = LocationIndex(working, cost_model.catalog, background)
        self._cm = cost_model
        self._rejective = RejectiveGreedyScheduler(cost_model)
        self._requests = requests_by_video
        self._metric = metric
        self._background = background
        self._committed = committed
        self._trials: dict[tuple, _Trial] = {}
        #: The incumbent file cost per video; dropped when a video is victim.
        self._old_costs: dict[str, float] = {}
        self.trials_run = 0
        self.trials_reused = 0
        self.trials_revalidated = 0

    def select(
        self, overflows: list[OverflowSituation]
    ) -> tuple[float, float, OverflowSituation, FileSchedule] | None:
        """Price every (overflow, member) reschedule and return the hottest.

        Ties break toward the lower overhead, then lexicographic video id, so
        runs are fully deterministic.
        """
        catalog = self._cm.catalog
        working = self.index.schedule
        best_key: tuple[float, float, str] | None = None
        best: tuple[float, float, OverflowSituation, FileSchedule] | None = None
        trials: dict[tuple, _Trial] = {}
        for of in overflows:
            for c in of.members:
                video = catalog[c.video_id]
                requests = self._requests.get(c.video_id)
                if not requests:
                    continue  # e.g. a pure-carryover file: cannot be victimized
                seeds = self._committed.get(c.video_id, ())
                if any(
                    s.location == c.location
                    and s.t_start == c.t_start
                    and s.t_last >= c.t_last
                    for s in seeds
                ):
                    continue  # this residency IS the committed carryover itself
                key = (c.video_id, of.location, of.interval)
                trial = self._trials.get(key)
                if trial is None or not self._still_valid(c.video_id, trial):
                    trial = self._run_trial(video, requests, of, tuple(seeds))
                trials[key] = trial
                old_cost = self._old_costs.get(c.video_id)
                if old_cost is None:
                    old_cost = self._cm.file_cost(working.file(c.video_id)).total
                    self._old_costs[c.video_id] = old_cost
                overhead = trial.new_cost - old_cost
                heat = compute_heat(self._metric, c, video, of, overhead)
                if math.isnan(heat):  # pragma: no cover - defensive
                    continue
                rank = (heat, -overhead, c.video_id)
                if best_key is None or _key_greater(rank, best_key):
                    best_key = rank
                    best = (heat, overhead, of, trial.new_fs)
        # keep only this round's trials: stale overflow keys never recur
        self._trials = trials
        return best

    def commit(self, new_fs: FileSchedule) -> None:
        """Install the victim's new schedule and re-stamp what it touched."""
        self.index.set_file(new_fs)
        self._old_costs.pop(new_fs.video_id, None)

    def _oracle(self, video_id: str) -> AvailabilityOracle:
        return AvailabilityOracle(
            self.index.schedule,
            self._cm.catalog,
            self._cm.topology,
            video_id,
            self._background,
            index=self.index,
        )

    def _still_valid(self, video_id: str, trial: _Trial) -> bool:
        """Would re-running ``trial`` replay its memoized schedule?

        The greedy's inputs other than its oracle's answers are fixed by the
        trial key, and it is deterministic, so it replays exactly when every
        recorded query answers as before.  Only queries at re-stamped
        locations can answer differently; they are re-asked in the order
        the greedy first asked them, stopping at the first changed answer,
        so every answer computed here is one a re-run would compute too.
        """
        version = self.index.version
        moved = {loc for loc, v in trial.stamps.items() if version(loc) != v}
        if not moved:
            self.trials_reused += 1
            return True
        oracle = self._oracle(video_id)
        for (loc, t_start, t_last), (profile, ok) in trial.queries.items():
            if loc in moved and oracle.answer(loc, t_start, t_last, profile) != ok:
                return False
        trial.stamps = {loc: version(loc) for loc in trial.stamps}
        self.trials_revalidated += 1
        return True

    def _run_trial(self, video, requests, of: OverflowSituation, seeds) -> _Trial:
        self.trials_run += 1
        oracle = self._oracle(video.video_id)
        new_fs = self._rejective.reschedule(
            video,
            requests,
            self.index.schedule,
            forbidden=[(of.location, of.interval)],
            background=self._background,
            initial_residencies=seeds,
            oracle=oracle,
        )
        version = self.index.version
        return _Trial(
            new_fs,
            self._cm.file_cost(new_fs).total,
            oracle.queries,
            {loc: version(loc) for loc, _, _ in oracle.queries},
        )


def _key_greater(a: tuple[float, float, str], b: tuple[float, float, str]) -> bool:
    """Lexicographic 'greater' with the video-id component compared *less*.

    Heat and negated overhead are maximized; the id tie-break prefers the
    lexicographically smallest id for determinism.
    """
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] > b[1]
    return a[2] < b[2]
