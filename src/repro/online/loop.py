"""The online fault-feed amendment loop.

:class:`OnlineAmendmentLoop` turns a :class:`~repro.faults.feed.FaultFeed`
into a sequence of cycle amendments against a running
:class:`~repro.service.VORService`:

1. **Debounce** -- events arriving within ``debounce`` virtual seconds of a
   batch's first report amend together (monitoring storms become one
   re-solve).
2. **Amend** -- each batch amends the cycle with the *cumulative* plan of
   every fault reported so far.  Amendments are idempotent (amending twice
   with the same plan equals amending once), so a batch that ultimately
   fails is healed by the next successful one.
3. **Retry** -- injected transient failures back off under
   :meth:`OnlineLoopConfig.delays` (capped exponential, seeded jitter) and
   try again.  Any other error (a scheduler error, an amendment that fails
   validation) would fail the same way again, so it fails the batch at
   once.  An amendment that overruns its ``deadline`` is counted as a
   miss and stands: the service has already committed it, and since VOR
   bookings are known in advance a rerun could only repeat it.
4. **Break** -- failed batches (retries exhausted, or a deterministic
   failure) feed the
   :class:`~repro.online.breaker.CircuitBreaker`; while it is open the loop
   degrades: each batch is amended once, without retries, and the
   lowest-priority pending reservations are shed.  A degraded amendment is
   not a probe, so its success does not close the breaker; after the
   cooldown a half-open probe returns to normal operation.

Determinism: batching, amendment results, retry counts and breaker
trajectory depend only on ``(feed, seed, injected failures)`` -- the
breaker runs on *virtual* feed time and backoff jitter is seeded.  Wall
time only enters the deadline-miss count and the latency histogram, both
flagged non-deterministic in telemetry; neither changes an outcome.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field

from repro.errors import OnlineError, ReproError, TransientResolveError
from repro.faults.feed import FaultEvent, FaultFeed
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import Observability, SECONDS_BUCKETS
from repro.online.breaker import CLOSED, OPEN, CircuitBreaker
from repro.service import CycleReport, VORService

_log = logging.getLogger(__name__)

#: Batch outcomes recorded per amendment attempt group.
OUTCOMES = ("amended", "failed", "degraded", "degraded_failed")

#: Upper bound on any retry delay in seconds (before jitter).
BACKOFF_CAP = 2.0
#: Relative jitter amplitude of each retry delay.
JITTER = 0.1


@dataclass(frozen=True)
class OnlineLoopConfig:
    """Tuning of the online amendment loop.

    Attributes:
        debounce: Events within this many virtual seconds of a batch's
            first report amend together (0 = one batch per arrival
            instant).
        deadline: Optional wall-clock budget (seconds) per amendment
            attempt; an overrun is counted as a deadline miss and the
            amendment stands.  ``None`` disables the deadline (the
            default).
        max_retries: Re-attempts per batch after transient failures.
        backoff_base: First retry delay in seconds.
        seed: Seed for the backoff jitter stream (see :meth:`delays`).
        breaker_threshold: Consecutive exhausted batches that open the
            circuit breaker.
        breaker_cooldown: Virtual seconds the breaker stays open before a
            half-open probe.
        shed_per_degraded_batch: Pending reservations shed on each batch
            processed while the breaker is open.
    """

    debounce: float = 0.0
    deadline: float | None = None
    max_retries: int = 3
    backoff_base: float = 0.05
    seed: int = 0
    breaker_threshold: int = 3
    breaker_cooldown: float = 0.0
    shed_per_degraded_batch: int = 1

    def __post_init__(self) -> None:
        if self.debounce < 0.0:
            raise OnlineError(f"debounce must be >= 0, got {self.debounce}")
        if self.deadline is not None and self.deadline <= 0.0:
            raise OnlineError(
                f"deadline must be > 0 (or None), got {self.deadline}"
            )
        if self.max_retries < 0:
            raise OnlineError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0.0:
            raise OnlineError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.shed_per_degraded_batch < 0:
            raise OnlineError(
                "shed_per_degraded_batch must be >= 0, got "
                f"{self.shed_per_degraded_batch}"
            )

    def delays(self, batch_index: int) -> tuple[float, ...]:
        """The backoff delays (seconds) before each of one batch's retries.

        Retry ``i`` (0-based) sleeps
        ``min(BACKOFF_CAP, backoff_base * 2**i) * (1 + JITTER * u)``,
        clamped at 0, with ``u`` uniform in ``[-1, 1]`` drawn from a
        per-batch rng derived arithmetically from ``seed`` -- never from
        ``hash()``, so replays sleep the same schedule across interpreter
        runs.
        """
        rng = random.Random(self.seed * 1_000_003 + batch_index)
        out = []
        for i in range(self.max_retries):
            delay = min(BACKOFF_CAP, self.backoff_base * (2.0**i))
            delay *= 1.0 + JITTER * rng.uniform(-1.0, 1.0)
            out.append(max(0.0, delay))
        return tuple(out)


class TransientFailureInjector:
    """Deterministically fail the first N amendment attempts of chosen batches.

    The spec maps batch index to how many attempts of that batch should
    raise :class:`~repro.errors.TransientResolveError`.  ``parse`` reads the
    CLI form ``"0:2,3:1"`` (batch 0 fails twice, batch 3 once); a count
    larger than the retry budget exhausts the batch and feeds the circuit
    breaker.
    """

    def __init__(self, spec: dict[int, int] | None = None) -> None:
        self._remaining = dict(spec or {})
        self.injected = 0

    @classmethod
    def parse(cls, text: str) -> "TransientFailureInjector":
        """Build an injector from ``"batch:count[,batch:count...]"``."""
        spec: dict[int, int] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                batch_s, count_s = part.split(":")
                batch, count = int(batch_s), int(count_s)
            except ValueError as exc:
                raise OnlineError(
                    f"bad failure-injection spec {part!r} "
                    "(expected batch:count)"
                ) from exc
            if batch < 0 or count < 1:
                raise OnlineError(
                    f"bad failure-injection spec {part!r}: batch must be "
                    ">= 0 and count >= 1"
                )
            spec[batch] = spec.get(batch, 0) + count
        return cls(spec)

    def check(self, batch_index: int) -> None:
        """Raise :class:`~repro.errors.TransientResolveError` if this
        attempt must fail."""
        remaining = self._remaining.get(batch_index, 0)
        if remaining > 0:
            self._remaining[batch_index] = remaining - 1
            self.injected += 1
            raise TransientResolveError(
                f"injected transient failure (batch {batch_index}, "
                f"{remaining - 1} left)"
            )


@dataclass(frozen=True)
class AmendmentRecord:
    """What happened to one debounced batch of fault events."""

    batch_index: int
    at: float  # virtual arrival instant of the batch's last event
    events: int
    faults_total: int  # cumulative plan size after this batch
    outcome: str  # one of OUTCOMES
    attempts: int
    breaker_state: str  # state after the batch settled
    saved: int = 0
    lost: int = 0
    shed: int = 0
    error: str = ""
    #: Wall-clock seconds of the last attempt (non-deterministic).
    duration_s: float = 0.0

    @property
    def retries(self) -> int:
        return self.attempts - 1

    def deterministic_dict(self) -> dict:
        return {
            "batch_index": self.batch_index,
            "at": self.at,
            "events": self.events,
            "faults_total": self.faults_total,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "retries": self.retries,
            "breaker_state": self.breaker_state,
            "saved": self.saved,
            "lost": self.lost,
            "shed": self.shed,
        }


@dataclass
class OnlineRunReport:
    """Outcome of replaying one feed through the amendment loop."""

    records: list[AmendmentRecord] = field(default_factory=list)
    #: The last successfully amended cycle report (the initial report when
    #: every batch failed -- the loop never leaves the service without a
    #: valid schedule).
    final: CycleReport | None = None
    #: Cumulative plan of every fault the feed reported.
    plan: FaultPlan = field(default_factory=FaultPlan)
    breaker_transitions: list = field(default_factory=list)
    events_total: int = 0
    batches_total: int = 0
    retries_total: int = 0
    deadline_misses: int = 0
    shed_total: int = 0
    failures_injected: int = 0

    @property
    def amended(self) -> int:
        return sum(
            1 for r in self.records if r.outcome in ("amended", "degraded")
        )

    @property
    def degraded_batches(self) -> int:
        return sum(1 for r in self.records if r.outcome.startswith("degraded"))

    @property
    def alive(self) -> bool:
        """Whether the loop ended with a valid (possibly degraded) schedule."""
        return self.final is not None

    def deterministic_dict(self) -> dict:
        """The replay-invariant slice of the report.

        Everything here depends only on ``(feed, seed, injected
        failures)`` -- wall-clock latencies and deadline misses are
        excluded.  CI drills diff this dict across repeated runs.
        """
        return {
            "events_total": self.events_total,
            "batches_total": self.batches_total,
            "retries_total": self.retries_total,
            "shed_total": self.shed_total,
            "failures_injected": self.failures_injected,
            "faults_total": len(self.plan),
            "breaker_transitions": [
                t.to_dict() for t in self.breaker_transitions
            ],
            "batches": [r.deterministic_dict() for r in self.records],
        }

    def summary(self) -> str:
        outcomes: dict[str, int] = {}
        for r in self.records:
            outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
        trail = " -> ".join([CLOSED] + [t.to for t in self.breaker_transitions])
        lines = [
            f"online run: {self.events_total} event(s) in "
            f"{self.batches_total} batch(es), {len(self.plan)} distinct "
            f"fault(s)",
            "  outcomes: "
            + (
                ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
                or "none"
            ),
            f"  retries: {self.retries_total}, deadline misses: "
            f"{self.deadline_misses}, shed: {self.shed_total}",
            f"  breaker: {trail}",
        ]
        if self.final is not None and self.final.recovery is not None:
            rec = self.final.recovery
            lines.append(
                f"  final recovery: {rec.requests_saved} saved / "
                f"{rec.requests_lost} lost (psi {rec.cost_delta:+.2f})"
            )
        return "\n".join(lines)


class OnlineAmendmentLoop:
    """Drives a :class:`VORService` from a fault feed (see module docs).

    Args:
        service: The running service whose last closed cycle is amended.
        config: Loop tuning; defaults are deterministic (no deadline).
        obs: Observability handle; defaults to the service's.
        clock: Wall-clock source for deadlines/latency (monotonic seconds).
        sleep: Backoff sleeper; inject a no-op in tests for instant replay.
        failure_injector: Optional deterministic transient-failure source
            (see :class:`TransientFailureInjector`).
    """

    def __init__(
        self,
        service: VORService,
        config: OnlineLoopConfig | None = None,
        *,
        obs: Observability | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
        failure_injector: TransientFailureInjector | None = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else OnlineLoopConfig()
        self.obs = obs if obs is not None else service.obs
        self._clock = clock
        self._sleep = sleep
        self._injector = failure_injector
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        self._transitions_recorded = 0

    # -- public API --------------------------------------------------------

    def run(self, feed: FaultFeed, report: CycleReport) -> OnlineRunReport:
        """Replay ``feed`` against the cycle in ``report``; never raises
        for amendment failures (they degrade instead)."""
        out = OnlineRunReport(final=report)
        cumulative: list[FaultSpec] = []
        current = report
        with self.obs.tracer.span("online_run", events=len(feed)) as span:
            for batch_index, batch in enumerate(self._debounce(feed)):
                cumulative.extend(e.fault for e in batch)
                plan = FaultPlan(
                    faults=tuple(cumulative),
                    name=feed.name or "online",
                    seed=feed.seed,
                )
                record, amended = self._process_batch(
                    batch_index, batch, plan, current, out
                )
                out.records.append(record)
                out.events_total += record.events
                out.batches_total += 1
                out.retries_total += record.retries
                out.shed_total += record.shed
                if amended is not None:
                    current = amended
                out.plan = plan
                self.obs.journal.emit(
                    "online-batch",
                    index=record.batch_index,
                    at=record.at,
                    events=record.events,
                    faults=record.faults_total,
                    outcome=record.outcome,
                    attempts=record.attempts,
                    retries=record.retries,
                    breaker=record.breaker_state,
                    saved=record.saved,
                    lost=record.lost,
                    shed=record.shed,
                )
                self._record_batch_metrics(record)
            out.final = current
            out.breaker_transitions = list(self.breaker.transitions)
            if self._injector is not None:
                out.failures_injected = self._injector.injected
            span.set(
                batches=out.batches_total,
                retries=out.retries_total,
                breaker=self.breaker.state,
            )
        _log.info("%s", out.summary())
        return out

    # -- internals ---------------------------------------------------------

    def _debounce(self, feed: FaultFeed) -> list[list[FaultEvent]]:
        batches: list[list[FaultEvent]] = []
        current: list[FaultEvent] = []
        for event in feed:
            if current and event.at > current[0].at + self.config.debounce:
                batches.append(current)
                current = []
            current.append(event)
        if current:
            batches.append(current)
        return batches

    def _process_batch(
        self,
        batch_index: int,
        batch: list[FaultEvent],
        plan: FaultPlan,
        current: CycleReport,
        out: OnlineRunReport,
    ) -> tuple[AmendmentRecord, CycleReport | None]:
        now = batch[-1].at
        state = self.breaker.state_at(now)
        degraded = state == OPEN
        retries_budget = 0 if degraded else self.config.max_retries
        delays = self.config.delays(batch_index)

        with self.obs.tracer.span(
            "online_batch",
            index=batch_index,
            at=now,
            events=len(batch),
            breaker=state,
        ) as span:
            amended: CycleReport | None = None
            error = ""
            attempts = 0
            duration = 0.0
            for attempt in range(retries_budget + 1):
                attempts = attempt + 1
                if attempt > 0:
                    delay = delays[attempt - 1]
                    metrics = self.obs.metrics
                    if metrics.enabled:
                        metrics.counter(
                            "vor_online_retries_total",
                            help="Amendment attempts retried after a "
                            "transient failure",
                        ).inc()
                    self._sleep(delay)
                try:
                    amended, duration = self._attempt(
                        batch_index, plan, current, out
                    )
                    break
                except ReproError as exc:
                    error = str(exc)
                    _log.warning(
                        "batch %d attempt %d failed: %s",
                        batch_index, attempts, error,
                    )
                    if not isinstance(exc, TransientResolveError):
                        break
            shed = 0
            if degraded and self.config.shed_per_degraded_batch > 0:
                shed = len(
                    self.service.shed_pending(
                        self.config.shed_per_degraded_batch
                    )
                )
            if amended is not None:
                if degraded:
                    # An amendment while open is not a probe: only a
                    # half-open probe's success closes the breaker.
                    outcome = "degraded"
                else:
                    self.breaker.record_success(now)
                    outcome = "amended"
            else:
                self.breaker.record_failure(now)
                outcome = "degraded_failed" if degraded else "failed"
            span.set(
                outcome=outcome,
                attempts=attempts,
                breaker_after=self.breaker.state,
            )
        recovery = amended.recovery if amended is not None else None
        record = AmendmentRecord(
            batch_index=batch_index,
            at=now,
            events=len(batch),
            faults_total=len(plan),
            outcome=outcome,
            attempts=attempts,
            breaker_state=self.breaker.state,
            saved=recovery.requests_saved if recovery is not None else 0,
            lost=recovery.requests_lost if recovery is not None else 0,
            shed=shed,
            error=error,
            duration_s=duration,
        )
        return record, amended

    def _attempt(
        self,
        batch_index: int,
        plan: FaultPlan,
        current: CycleReport,
        out: OnlineRunReport,
    ) -> tuple[CycleReport, float]:
        if self._injector is not None:
            self._injector.check(batch_index)
        t0 = self._clock()
        amended = self.service.amend_cycle(current, plan)
        duration = self._clock() - t0
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.histogram(
                "vor_online_amendment_seconds",
                boundaries=SECONDS_BUCKETS,
                help="Wall-clock latency of online cycle amendments",
                deterministic=False,
            ).observe(duration)
        if not amended.feasible:
            # Never hand the loop an invalid schedule: an amendment whose
            # patched schedule fails validation counts as a failed attempt
            # and the last-good report stays current.
            raise OnlineError(
                f"amended schedule failed validation with "
                f"{len(amended.violations)} violation(s): "
                f"{amended.violations[0]}"
            )
        deadline = self.config.deadline
        if deadline is not None and duration > deadline:
            out.deadline_misses += 1
            if metrics.enabled:
                metrics.counter(
                    "vor_online_deadline_misses_total",
                    help="Amendment attempts that overran their deadline",
                    deterministic=False,
                ).inc()
            _log.warning(
                "batch %d amendment overran its deadline: %.3fs > %ss",
                batch_index, duration, deadline,
            )
        return amended, duration

    def _record_batch_metrics(self, record: AmendmentRecord) -> None:
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        metrics.counter(
            "vor_online_events_total", help="Fault-feed events consumed"
        ).inc(record.events)
        metrics.counter(
            "vor_online_batches_total",
            help="Debounced amendment batches processed",
            outcome=record.outcome,
        ).inc()
        if record.shed:
            metrics.counter(
                "vor_online_shed_total",
                help="Pending reservations shed in degraded mode",
            ).inc(record.shed)
        for transition in self.breaker.transitions[
            self._transitions_recorded :
        ]:
            metrics.counter(
                "vor_online_breaker_transitions_total",
                help="Circuit-breaker state transitions",
                to=transition.to,
            ).inc()
        self._transitions_recorded = len(self.breaker.transitions)


__all__ = [
    "AmendmentRecord",
    "OnlineAmendmentLoop",
    "OnlineLoopConfig",
    "OnlineRunReport",
    "OUTCOMES",
    "TransientFailureInjector",
]
