"""End-to-end tests for the online fault-feed amendment loop."""

import itertools

import pytest

from repro import (
    Topology,
    VideoCatalog,
    VideoFile,
    VORService,
    units,
)
from repro.cli import main
from repro.faults import FaultEvent, FaultFeed, FaultKind, FaultSpec
from repro.obs import Observability
from repro.online import (
    CLOSED,
    OPEN,
    OnlineAmendmentLoop,
    OnlineLoopConfig,
    TransientFailureInjector,
)

H = units.HOUR


def _service(extra_pending=0):
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=units.per_gb_hour(2), capacity=units.gb(8))
    topo.add_storage("IS2", srate=units.per_gb_hour(2), capacity=units.gb(8))
    topo.add_edge("VW", "IS1", nrate=units.per_gb(500))
    topo.add_edge("IS1", "IS2", nrate=units.per_gb(300))
    topo.add_edge("VW", "IS2", nrate=units.per_gb(900))
    catalog = VideoCatalog(
        [
            VideoFile(f"m{i}", size=units.gb(2.5), playback=units.minutes(90))
            for i in range(4)
        ]
    )
    svc = VORService(topo, catalog)
    for t in (5, 9, 15):
        svc.reserve("alice", "m0", t * H, local_storage="IS1")
    for t in (6, 10):
        svc.reserve("bob", "m1", t * H, local_storage="IS2")
    for i in range(extra_pending):
        svc.reserve("carl", "m2", (30 + i) * H, local_storage="IS2")
    report = svc.close_cycle(cycle_end=24 * H)
    assert report.feasible
    return svc, report


def _late_service():
    """A chain VW-IS1-IS2 whose closed cycle carries a residency at IS2
    into the next one, and a feed whose outage the amendment routes around
    (the carryover changes when, and only when, it is committed)."""
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=units.per_gb_hour(2), capacity=units.gb(8))
    topo.add_storage("IS2", srate=units.per_gb_hour(2), capacity=units.gb(8))
    topo.add_edge("VW", "IS1", nrate=units.per_gb(500))
    topo.add_edge("IS1", "IS2", nrate=units.per_gb(300))
    catalog = VideoCatalog(
        [
            VideoFile(f"m{i}", size=units.gb(2.5), playback=units.minutes(90))
            for i in range(4)
        ]
    )
    svc = VORService(topo, catalog, obs=Observability.on(journal=True))
    for t in (20, 21, 23.5):
        svc.reserve("alice", "m0", t * H, local_storage="IS2")
    report = svc.close_cycle(cycle_end=24 * H)
    assert report.feasible
    feed = _feed(
        FaultEvent(at=19 * H, fault=_outage(21.9 * H, 23 * H, "IS2"))
    )
    return svc, report, feed


def _carryover(svc):
    return [(c.location, c.t_start, c.t_last) for c in svc._rolling.carryover]


def _outage(t0, t1, target="IS1"):
    return FaultSpec(
        kind=FaultKind.IS_OUTAGE, target=target, t_start=t0, t_end=t1
    )


def _feed(*events, name="t", seed=None):
    return FaultFeed(events=tuple(events), name=name, seed=seed)


class TestHappyPath:
    def test_every_batch_amends(self):
        svc, report = _service()
        feed = _feed(
            FaultEvent(at=1 * H, fault=_outage(4 * H, 8 * H)),
            FaultEvent(at=2 * H, fault=_outage(11 * H, 12 * H, "IS2")),
        )
        loop = OnlineAmendmentLoop(svc, OnlineLoopConfig())
        run = loop.run(feed, report)
        assert run.alive
        assert run.batches_total == 2
        assert [r.outcome for r in run.records] == ["amended", "amended"]
        assert run.final is not report  # an amended report took over
        assert run.final.feasible
        assert len(run.plan) == 2
        assert loop.breaker.state == CLOSED

    def test_debounce_groups_nearby_events(self):
        svc, report = _service()
        feed = _feed(
            FaultEvent(at=1 * H, fault=_outage(4 * H, 8 * H)),
            FaultEvent(at=1.1 * H, fault=_outage(11 * H, 12 * H, "IS2")),
            FaultEvent(at=5 * H, fault=_outage(18 * H, 19 * H)),
        )
        loop = OnlineAmendmentLoop(
            svc, OnlineLoopConfig(debounce=0.5 * H)
        )
        run = loop.run(feed, report)
        assert run.batches_total == 2
        assert [r.events for r in run.records] == [2, 1]

    def test_empty_feed_is_a_noop(self):
        svc, report = _service()
        run = OnlineAmendmentLoop(svc).run(_feed(), report)
        assert run.batches_total == 0
        assert run.final is report

    def test_replay_is_deterministic(self):
        def one_run():
            svc, report = _service()
            feed = _feed(
                FaultEvent(at=1 * H, fault=_outage(4 * H, 8 * H)),
                FaultEvent(at=2 * H, fault=_outage(11 * H, 12 * H, "IS2")),
            )
            injector = TransientFailureInjector({0: 1})
            loop = OnlineAmendmentLoop(
                svc,
                OnlineLoopConfig(backoff_base=0.0),
                failure_injector=injector,
            )
            return loop.run(feed, report)

        a, b = one_run(), one_run()
        assert a.deterministic_dict() == b.deterministic_dict()
        assert (
            a.final.cycle.schedule.deliveries
            == b.final.cycle.schedule.deliveries
        )
        assert (
            a.final.cycle.schedule.residencies
            == b.final.cycle.schedule.residencies
        )


class TestRetries:
    def test_transient_failure_retried_then_succeeds(self):
        svc, report = _service()
        feed = _feed(FaultEvent(at=1 * H, fault=_outage(4 * H, 8 * H)))
        slept = []
        loop = OnlineAmendmentLoop(
            svc,
            OnlineLoopConfig(max_retries=2, backoff_base=0.01, seed=7),
            sleep=slept.append,
            failure_injector=TransientFailureInjector({0: 2}),
        )
        run = loop.run(feed, report)
        assert run.records[0].outcome == "amended"
        assert run.records[0].attempts == 3
        assert run.retries_total == 2
        assert run.failures_injected == 2
        assert slept == list(
            OnlineLoopConfig(max_retries=2, backoff_base=0.01, seed=7).delays(0)
        )

    def test_exhausted_retries_fail_the_batch_not_the_loop(self):
        svc, report = _service()
        feed = _feed(FaultEvent(at=1 * H, fault=_outage(4 * H, 8 * H)))
        loop = OnlineAmendmentLoop(
            svc,
            OnlineLoopConfig(max_retries=1, backoff_base=0.0),
            failure_injector=TransientFailureInjector({0: 5}),
        )
        run = loop.run(feed, report)
        assert run.records[0].outcome == "failed"
        assert "injected transient failure" in run.records[0].error
        assert run.alive
        assert run.final is report  # last-good report retained

    def test_deadline_overrun_stands(self):
        # The service commits an amendment before its duration is known,
        # so an overrun is counted, never retried or reported failed.
        def one_run(deadline):
            svc, report, feed = _late_service()
            ticks = itertools.count()
            loop = OnlineAmendmentLoop(
                svc,
                OnlineLoopConfig(
                    deadline=deadline, max_retries=1, backoff_base=0.0
                ),
                clock=lambda: float(next(ticks)),  # every amendment takes 1s
                sleep=lambda s: None,
            )
            return svc, report, loop.run(feed, report)

        svc, report, run = one_run(0.5)
        twin_svc, _, twin = one_run(None)
        (record,) = run.records
        assert (record.outcome, record.attempts, record.error) == (
            "amended", 1, "",
        )
        assert run.deadline_misses == 1 and twin.deadline_misses == 0
        assert run.final is not report
        kinds = [e.kind for e in svc.obs.journal.events]
        assert kinds.count("amended") == 1
        assert kinds == [e.kind for e in twin_svc.obs.journal.events]
        assert _carryover(svc) == _carryover(twin_svc)
        assert run.deterministic_dict() == twin.deterministic_dict()

    def test_deterministic_failure_is_not_retried(self, monkeypatch):
        import repro.service

        svc, report, feed = _late_service()
        before = _carryover(svc)
        calls = []

        def counted_amendment(current, plan, **kwargs):
            calls.append(plan)
            return VORService.amend_cycle(svc, current, plan, **kwargs)

        # the service's own validation rejects the amendment, so it is
        # never committed
        monkeypatch.setattr(
            repro.service,
            "validate_schedule",
            lambda *args, **kwargs: ["storage IS2 over capacity"],
        )
        svc.amend_cycle = counted_amendment
        slept = []
        loop = OnlineAmendmentLoop(
            svc,
            # one counted failure opens a threshold-1 breaker
            OnlineLoopConfig(
                max_retries=3, backoff_base=0.01, breaker_threshold=1
            ),
            sleep=slept.append,
        )
        run = loop.run(feed, report)
        (record,) = run.records
        assert len(calls) == 1 and slept == []
        assert (record.outcome, record.attempts, record.retries) == (
            "failed", 1, 0,
        )
        assert "failed validation" in record.error
        assert run.retries_total == 0
        assert record.breaker_state == OPEN
        assert [t.to for t in run.breaker_transitions] == [OPEN]
        assert run.final is report
        assert before and _carryover(svc) == before


class TestFailedAmendmentLeavesCarryover:
    @pytest.mark.parametrize("path", ["retries-exhausted", "infeasible"])
    def test_carryover_untouched(self, path, monkeypatch):
        svc, report, feed = _late_service()
        before = _carryover(svc)
        injector = None
        if path == "retries-exhausted":
            injector = TransientFailureInjector({0: 2})
        else:
            import repro.service

            monkeypatch.setattr(
                repro.service,
                "validate_schedule",
                lambda *args, **kwargs: ["storage IS2 over capacity"],
            )
        loop = OnlineAmendmentLoop(
            svc,
            OnlineLoopConfig(max_retries=1, backoff_base=0.0),
            sleep=lambda s: None,
            failure_injector=injector,
        )
        run = loop.run(feed, report)
        assert run.records[0].outcome == "failed"
        assert run.final is report
        assert before and _carryover(svc) == before


class TestDegradedMode:
    def test_breaker_opens_and_degrades_with_shedding(self):
        svc, report = _service(extra_pending=3)
        assert svc.pending == 3
        feed = _feed(
            FaultEvent(at=1 * H, fault=_outage(4 * H, 8 * H)),
            FaultEvent(at=2 * H, fault=_outage(11 * H, 12 * H, "IS2")),
            FaultEvent(at=3 * H, fault=_outage(18 * H, 19 * H)),
        )
        loop = OnlineAmendmentLoop(
            svc,
            OnlineLoopConfig(
                max_retries=0,
                breaker_threshold=1,
                breaker_cooldown=1e9,  # stays open for the whole feed
                shed_per_degraded_batch=2,
            ),
            failure_injector=TransientFailureInjector({0: 1}),
        )
        run = loop.run(feed, report)
        assert [r.outcome for r in run.records] == [
            "failed",
            "degraded",
            "degraded",
        ]
        assert run.shed_total == 3  # 2 on the first degraded batch, 1 left
        assert svc.pending == 0
        assert loop.breaker.state == OPEN
        assert run.alive and run.final.feasible

    def test_half_open_probe_recovers(self):
        svc, report = _service()
        feed = _feed(
            FaultEvent(at=1 * H, fault=_outage(4 * H, 8 * H)),
            FaultEvent(at=10 * H, fault=_outage(11 * H, 12 * H, "IS2")),
        )
        loop = OnlineAmendmentLoop(
            svc,
            OnlineLoopConfig(
                max_retries=0, breaker_threshold=1, breaker_cooldown=5 * H
            ),
            failure_injector=TransientFailureInjector({0: 1}),
        )
        run = loop.run(feed, report)
        # Batch 1 arrives after the cooldown: a half-open probe whose
        # success closes the breaker.
        assert [r.outcome for r in run.records] == ["failed", "amended"]
        assert [t.to for t in run.breaker_transitions] == [
            OPEN,
            "half_open",
            CLOSED,
        ]
        assert loop.breaker.state == CLOSED

    def test_open_breaker_amends_once_without_retries(self):
        svc, report = _service(extra_pending=3)
        feed = _feed(
            FaultEvent(at=1 * H, fault=_outage(4 * H, 8 * H)),
            FaultEvent(at=2 * H, fault=_outage(11 * H, 12 * H, "IS2")),
            FaultEvent(at=3 * H, fault=_outage(18 * H, 19 * H)),
        )
        loop = OnlineAmendmentLoop(
            svc,
            OnlineLoopConfig(
                max_retries=2,
                backoff_base=0.0,
                breaker_threshold=1,
                breaker_cooldown=1e9,  # stays open for the whole feed
            ),
            sleep=lambda _: None,
            # batch 0 exhausts its retries; batch 2 would need one retry
            failure_injector=TransientFailureInjector({0: 3, 2: 1}),
        )
        calls = []
        amend = svc.amend_cycle

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return amend(*args, **kwargs)

        svc.amend_cycle = counted
        run = loop.run(feed, report)
        assert [
            (r.outcome, r.attempts, r.retries, r.shed) for r in run.records
        ] == [
            ("failed", 3, 2, 0),
            ("degraded", 1, 0, 1),
            ("degraded_failed", 1, 0, 1),
        ]
        # batch 1 is the one amendment that ran, with the cumulative plan
        assert calls == [2]
        assert run.final.recovery is not None
        assert len(run.final.recovery.plan) == 2
        assert run.final.feasible
        # a degraded success is not a probe: the breaker stays open
        assert [t.to for t in run.breaker_transitions] == [OPEN]
        assert loop.breaker.state == OPEN

    def test_failed_batch_healed_by_next_cumulative_amendment(self):
        svc, report = _service()
        feed = _feed(
            FaultEvent(at=1 * H, fault=_outage(4 * H, 8 * H)),
            FaultEvent(at=2 * H, fault=_outage(11 * H, 12 * H, "IS2")),
        )
        loop = OnlineAmendmentLoop(
            svc,
            OnlineLoopConfig(max_retries=0, breaker_threshold=10),
            failure_injector=TransientFailureInjector({0: 1}),
        )
        run = loop.run(feed, report)
        assert [r.outcome for r in run.records] == ["failed", "amended"]
        # The second amendment carries the *cumulative* plan, so the final
        # report accounts for both faults despite batch 0 failing.
        assert run.records[1].faults_total == 2
        assert len(run.final.recovery.plan) == 2


class TestConfigValidation:
    def test_masking_is_not_an_option(self, capsys):
        # Recovery has one stance; neither the config nor the CLI offers
        # a choice.
        with pytest.raises(TypeError, match="masking"):
            OnlineLoopConfig(masking="cycle")
        with pytest.raises(SystemExit) as exc:
            main(["run-online", "env.json", "--masking", "cycle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --masking" in capsys.readouterr().err

    def test_bad_debounce_rejected(self):
        with pytest.raises(Exception, match="debounce"):
            OnlineLoopConfig(debounce=-1.0)
