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
rebuilding every trial from scratch.  A
:class:`~repro.core.overflow.StorageLedger` mirrors the working schedule
with one slot per storage; each commit of a victim renews only the slots
where its old or new file has residencies, and the ledger numbers its
commits.  A slot holds the storage's full
timeline, which detection sweeps and which every video with no residency
there reads as its "everyone but v" view (the same profiles in the same
order, so the same timeline), plus the other videos' views and the
``fits`` answers, so every trial between two commits shares them.  The
rejective greedy is a deterministic function of its fixed inputs and of
the ordered decisions it receives (see
:class:`~repro.core.rejective.DecisionLog`), so each trial is priced from
a predecessor -- the trial of the same video, overflow location and
interval, else the video's latest trial at any overflow location -- and
remembers the one commit number it was decided at: reused as is while no
later commit touched a location in its log and the forbidden (location,
interval) is the same; revalidated, without serving a request, when its
decisions at the touched locations (and at the old and new forbidden
location, if that changed) come out the same; and otherwise resumed at
the request that made the first decision that differs, keeping the
deliveries before it.  Detection re-sweeps only renewed slots.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from repro.core.costmodel import (
    CacheStats,
    CostBreakdown,
    CostModel,
    record_cache_metrics,
)
from repro.core.heat import HeatMetric, compute_heat
from repro.core.individual import copies_of
from repro.core.overflow import OverflowSituation, StorageLedger, detect_overflows
from repro.core.rejective import (
    DecisionLog,
    RejectiveGreedyScheduler,
    ResidencyConstraints,
)
from repro.core.schedule import FileSchedule, Schedule
from repro.errors import OverflowResolutionError, ScheduleError
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
    #: Ψ of the resolved schedule, split by resource.
    resolved: CostBreakdown = CostBreakdown(0.0, 0.0)
    #: Route-table activity during resolution.  Excluded from equality so
    #: that determinism checks compare the *decisions*, not the cache
    #: temperature they were computed under.
    cache_stats: CacheStats = field(default_factory=CacheStats, compare=False)

    @property
    def had_overflow(self) -> bool:
        return self.initial_overflows > 0

    @property
    def resolved_cost(self) -> float:
        return self.resolved.total

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
    route_policy=None,
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
        route_policy: Optional :class:`~repro.core.individual.RoutePolicy`
            the trials route by; defaults to cheapest-path routing.

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
    cache_base = cost_model.cache_stats
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
        route_policy,
    )
    stats = ResolutionStats(phase1_cost=selector.cost().total)
    ledger = selector.ledger

    with obs.tracer.span("sorp", residencies=len(working.residencies)) as sorp_span:
        with obs.tracer.span("overflow") as detect_span:
            overflows = detect_overflows(
                working, catalog, topology, background=background, ledger=ledger
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
                before = selector.counts()
                victim = selector.select(overflows)
                round_span.set(
                    **{k: v - before[k] for k, v in selector.counts().items()}
                )
                if victim is None:
                    raise OverflowResolutionError(
                        "no reschedulable member in any overflow set"
                    )
                heat, overhead, overflow, trial = victim
                selector.commit(trial)
                new_fs = trial.new_fs
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
                        ledger=ledger,
                    )
                    detect_span.set(overflows=len(overflows))

        stats.resolved = selector.cost()
        stats.cache_stats = cost_model.cache_stats - cache_base
        sorp_span.set(
            iterations=stats.iterations,
            victims=len(stats.victims),
            **selector.counts(),
        )

    metrics = obs.metrics
    if metrics.enabled:
        record_cache_metrics(metrics, stats.cache_stats, phase="sorp")
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
        trials_help = (
            "SORP rejective trial reschedules, run, reused, revalidated or resumed"
        )
        for outcome, n in (
            ("run", selector.trials_run),
            ("reused", selector.trials_reused),
            ("revalidated", selector.trials_revalidated),
            ("resumed", selector.trials_resumed),
        ):
            metrics.counter(
                "vor_sorp_trials_total", help=trials_help, outcome=outcome
            ).inc(n)
        serves_help = (
            "Requests of SORP trials kept from a predecessor or served by the greedy"
        )
        for part, n in (
            ("kept", selector.serves_kept),
            ("served", selector.serves_served),
        ):
            metrics.counter(
                "vor_sorp_trial_serves_total", help=serves_help, part=part
            ).inc(n)
        decisions_help = (
            "Capacity decisions logged by SORP trials the greedy served, "
            "and logged decisions re-decided to price a trial from its predecessor"
        )
        for part, n in (
            ("logged", selector.decisions_logged),
            ("redecided", selector.decisions_redecided),
        ):
            metrics.counter(
                "vor_sorp_decisions_total", help=decisions_help, part=part
            ).inc(n)
        metrics.counter(
            "vor_sorp_timeline_builds_total",
            help="Usage timelines SORP built for detection and availability views",
        ).inc(ledger.timeline_builds)
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
    cost: CostBreakdown
    #: The ``(location, interval)`` the victim was forbidden from.
    forbidden: tuple[str, tuple[float, float]]
    #: The run's decisions and marks (:class:`DecisionLog`).
    log: DecisionLog
    #: The ledger commit its decisions were last made or re-decided at.
    commit: int


class _VictimSelector:
    """``SORP_solve``'s victim selection over one run, evaluated incrementally.

    Owns the run's :class:`StorageLedger`, a memo of trial reschedules
    keyed on ``(video, overflow location, overflow interval)``, and the
    per-file costs Ψ(S_i) of the working schedule.  Each trial is priced
    from a predecessor: the trial of the same key, or else the video's
    latest trial, whatever its overflow.  The predecessor is reused as is
    while no later commit touched a location in its decision log and the
    forbidden pair is the same.  Otherwise its decisions at the touched
    locations, and at the old and the new forbidden location when the
    pair changed, are re-decided in log order: if none differs the trial
    is revalidated, and at the first one that differs the greedy resumes
    at the request that made it.  Trials the greedy serves go through
    :meth:`RejectiveGreedyScheduler.reschedule`.

    Ψ is additive over files (Eq. 1): each file is priced once and a
    commit writes in the victim trial's breakdown, so the costs summed in
    schedule order give the floats :meth:`CostModel.schedule_cost` would.
    """

    def __init__(
        self,
        working: Schedule,
        cost_model: CostModel,
        requests_by_video: dict,
        metric: HeatMetric,
        background,
        committed: dict,
        route_policy=None,
    ):
        self.ledger = StorageLedger(
            working, cost_model.catalog, cost_model.topology, background
        )
        #: Ψ(S_i) per video of the working schedule, in schedule order.
        self.costs = {fs.video_id: cost_model.file_cost(fs) for fs in working}
        self._cm = cost_model
        self._rejective = RejectiveGreedyScheduler(cost_model, route_policy)
        self._requests = requests_by_video
        self._metric = metric
        self._committed = committed
        self._trials: dict[tuple, _Trial] = {}
        #: The latest trial per video.
        self._latest: dict[str, _Trial] = {}
        self.trials_run = 0
        self.trials_reused = 0
        self.trials_revalidated = 0
        self.trials_resumed = 0
        #: Requests resumed trials kept from their predecessor, and
        #: requests the greedy served in run and resumed trials.
        self.serves_kept = 0
        self.serves_served = 0
        #: Decisions the greedy logged in run and resumed trials, and
        #: logged decisions :meth:`_replay` re-decided.
        self.decisions_logged = 0
        self.decisions_redecided = 0

    def cost(self) -> CostBreakdown:
        """Ψ of the working schedule: the costs summed in schedule order."""
        return sum(self.costs.values(), CostBreakdown(0.0, 0.0))

    def counts(self) -> dict[str, int]:
        """The work counters, as span attributes."""
        return {
            "trials": self.trials_run,
            "reused": self.trials_reused,
            "revalidated": self.trials_revalidated,
            "resumed": self.trials_resumed,
            "kept": self.serves_kept,
            "logged": self.decisions_logged,
            "redecided": self.decisions_redecided,
        }

    def select(
        self, overflows: list[OverflowSituation]
    ) -> tuple[float, float, OverflowSituation, _Trial] | None:
        """Price every (overflow, member) reschedule and return the hottest.

        Ties break toward the lower overhead, then lexicographic video id, so
        runs are fully deterministic.  Members that cannot be victimized are
        skipped: pure-carryover files, committed carryover residencies, and
        files whose trial finds no feasible source under the route policy
        (never the case for the default policy on a healthy topology).
        """
        catalog = self._cm.catalog
        best_key: tuple[float, float, str] | None = None
        best: tuple[float, float, OverflowSituation, _Trial] | None = None
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
                try:
                    trial = self._price(video, requests, of, tuple(seeds))
                except ScheduleError:
                    continue  # no feasible source under the route policy
                trials[(c.video_id, of.location, of.interval)] = trial
                overhead = trial.cost.total - self.costs[c.video_id].total
                profile = self.ledger.profile(c.video_id, c.t_start, c.t_last)
                heat = compute_heat(self._metric, c, video, of, overhead, profile)
                if math.isnan(heat):  # pragma: no cover - defensive
                    continue
                rank = (heat, -overhead, c.video_id)
                if best_key is None or _key_greater(rank, best_key):
                    best_key = rank
                    best = (heat, overhead, of, trial)
        # keep only this round's trials by key; older ones live on as
        # predecessors in _latest
        self._trials = trials
        return best

    def commit(self, trial: _Trial) -> None:
        """Install the victim's new schedule and cost: one ledger commit."""
        self.ledger.set_file(trial.new_fs)
        self.costs[trial.new_fs.video_id] = trial.cost

    def _price(self, video, requests, of: OverflowSituation, seeds) -> _Trial:
        """The trial of ``video`` forbidden from ``of``, from its predecessor."""
        vid = video.video_id
        prior = self._trials.get((vid, of.location, of.interval))
        prior = prior or self._latest.get(vid)
        if prior is None:
            trial = self._serve(
                video, requests, of, DecisionLog(), copies_of(seeds), ()
            )
        else:
            trial = self._replay(prior, video, requests, of)
        self._latest[vid] = trial
        return trial

    def _replay(self, prior: _Trial, video, requests, of: OverflowSituation) -> _Trial:
        """Re-decide ``prior``'s decisions that may have changed; resume the
        greedy at the request that made the first one that did.

        The greedy's inputs other than its decisions are fixed by the
        video, and it is deterministic, so it replays ``prior`` exactly up
        to its first decision that comes out differently.  Only decisions
        at locations a later commit touched can change their capacity
        answer, and only those at the old or the new forbidden location
        their forbidden answer.  They are re-decided in log order, stopping
        at the first change, so every answer computed here is one a fresh
        run would compute too.
        """
        log = prior.log
        moved = self.ledger.touched_since(prior.commit) & log.at.keys()
        forbidden = (of.location, of.interval)
        if forbidden != prior.forbidden:
            moved.update((of.location, prior.forbidden[0]))
        elif not moved:
            self.trials_reused += 1
            return prior
        decide = ResidencyConstraints(self.ledger, [forbidden]).decide
        vid = video.video_id
        order = log.in_order(moved)
        for n, i in enumerate(order, 1):
            location, t_start, t_last, profile, allowed = log.decisions[i]
            if decide(vid, location, t_start, t_last, profile) != allowed:
                self.decisions_redecided += n
                k = log.owner(i)
                prefix, copies = log.cut(k)
                kept = tuple(prior.new_fs.deliveries[:k])
                return self._serve(video, requests, of, prefix, copies, kept)
        self.decisions_redecided += len(order)
        self.trials_revalidated += 1
        return _Trial(prior.new_fs, prior.cost, forbidden, log, self.ledger.commits)

    def _serve(self, video, requests, of, log, copies, kept) -> _Trial:
        """Run the greedy from request ``len(kept)`` on (0: a fresh trial)."""
        if kept:
            self.trials_resumed += 1
            self.serves_kept += len(kept)
        else:
            self.trials_run += 1
        self.serves_served += len(requests) - len(kept)
        prefix = len(log.decisions)
        forbidden = (of.location, of.interval)
        new_fs = self._rejective.reschedule(
            video,
            requests,
            self.ledger,
            forbidden=[forbidden],
            copies=copies,
            log=log,
            kept=kept,
        )
        self.decisions_logged += len(log.decisions) - prefix
        return _Trial(
            new_fs, self._cm.file_cost(new_fs), forbidden, log, self.ledger.commits
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
