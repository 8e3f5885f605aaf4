"""Amendment idempotency regressions.

Amending with an empty plan must be a bit-identical no-op, and amending
an already-amended cycle with the same plan must change nothing -- for an
outage over the whole cycle and for one over a window of it.  The online
loop's cumulative re-amendment depends on both properties.
"""

import dataclasses

import pytest

from repro import (
    Request,
    RequestBatch,
    Topology,
    VideoCatalog,
    VideoFile,
    VORService,
    units,
)
from repro.extensions import RollingScheduler
from repro.faults import FaultKind, FaultPlan, FaultSpec

H = units.HOUR
#: The IS1 outage's window: the whole cycle, or 4-8 h.
WINDOWS = {"cycle": (0.0, units.DAY), "windowed": (4 * H, 8 * H)}


def _env():
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
            for i in range(3)
        ]
    )
    return topo, catalog


def _plan(window):
    t_start, t_end = WINDOWS[window]
    return FaultPlan(
        faults=(
            FaultSpec(
                kind=FaultKind.IS_OUTAGE,
                target="IS1",
                t_start=t_start,
                t_end=t_end,
            ),
        ),
        name="outage",
    )


def _closed_service():
    topo, catalog = _env()
    svc = VORService(topo, catalog)
    for t in (5, 9, 15):
        svc.reserve("alice", "m0", t * H, local_storage="IS1")
    for t in (6, 10):
        svc.reserve("bob", "m1", t * H, local_storage="IS2")
    report = svc.close_cycle(cycle_end=units.DAY)
    assert report.feasible
    return svc, report


def _schedule_key(schedule):
    return (tuple(schedule.deliveries), tuple(schedule.residencies))


class TestServiceIdempotency:
    @pytest.mark.parametrize("window", list(WINDOWS))
    def test_empty_plan_is_bit_identical_noop(self, window):
        # on the closed cycle, and on that cycle amended around the outage
        svc, report = _closed_service()
        outage = svc.amend_cycle(report, _plan(window))
        assert outage.feasible
        for cycle in (report, outage):
            amended = svc.amend_cycle(cycle, FaultPlan())
            assert amended.feasible
            assert _schedule_key(amended.cycle.schedule) == _schedule_key(
                cycle.cycle.schedule
            )
            assert amended.recovery.saved == ()
            assert amended.recovery.lost == ()

    @pytest.mark.parametrize("window", list(WINDOWS))
    def test_amend_twice_equals_amend_once(self, window):
        svc, report = _closed_service()
        plan = _plan(window)
        once = svc.amend_cycle(report, plan)
        assert once.feasible
        twice = svc.amend_cycle(once, plan)
        assert twice.feasible
        assert _schedule_key(twice.cycle.schedule) == _schedule_key(
            once.cycle.schedule
        )
        assert set(twice.recovery.lost) <= set(once.recovery.lost)


class TestRollingIdempotency:
    def _closed_cycle(self):
        topo, catalog = _env()
        rolling = RollingScheduler(topo, catalog)
        batch = RequestBatch(
            [
                Request(5 * H, "m0", "u1", "IS1"),
                Request(9 * H, "m0", "u2", "IS1"),
                Request(6 * H, "m1", "u3", "IS2"),
            ]
        )
        result = rolling.schedule_cycle(batch, cycle_end=units.DAY)
        return rolling, result

    @pytest.mark.parametrize("window", list(WINDOWS))
    def test_empty_plan_is_bit_identical_noop(self, window):
        # on the closed cycle, and on that cycle amended around the outage
        rolling, result = self._closed_cycle()
        outage = rolling.amend_cycle(result, _plan(window))
        amended = dataclasses.replace(result, schedule=outage.schedule)
        for cycle in (result, amended):
            recovery = rolling.amend_cycle(cycle, FaultPlan())
            assert _schedule_key(recovery.schedule) == _schedule_key(
                cycle.schedule
            )
            assert recovery.saved == () and recovery.lost == ()

    @pytest.mark.parametrize("window", list(WINDOWS))
    def test_amend_twice_equals_amend_once(self, window):
        rolling, result = self._closed_cycle()
        plan = _plan(window)
        rec1 = rolling.amend_cycle(result, plan)
        rolling.commit_amendment(rec1)
        carry_once = tuple(rolling.carryover)
        amended = dataclasses.replace(result, schedule=rec1.schedule)
        rec2 = rolling.amend_cycle(amended, plan)
        rolling.commit_amendment(rec2)
        assert _schedule_key(rec2.schedule) == _schedule_key(rec1.schedule)
        assert tuple(rolling.carryover) == carry_once
        assert rec2.lost == ()
