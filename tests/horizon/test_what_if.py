"""What-if solves become the close: reuse is exact, and anything that
changes the close's problem forces a fresh solve."""

from __future__ import annotations

import pytest

from repro import (
    CostModel,
    Observability,
    ReplicaMap,
    Request,
    RequestBatch,
    units,
)
from repro.billing import allocate_costs
from repro.obs.events import write_journal_jsonl
from repro.service import VORService

from .conftest import brownout_feed

L = units.DAY
H = units.HOUR
SOLVES = "vor_rolling_solves_total"


def _squeeze(batch, lo, hi):
    return RequestBatch(
        Request(
            lo + (r.start_time % L) / L * (hi - lo),
            r.video_id, r.user_id, r.local_storage,
        )
        for r in batch
    )


@pytest.fixture(scope="module")
def cycles(drill_cycles):
    """Drill cycle 0's bookings squeezed into the last hours of day 0 and
    again into the first hours of day 1: cycle 0 hands cached titles to
    cycle 1, and both overflow the 3 GB caches."""
    batch = drill_cycles[0][0]
    return [
        (_squeeze(batch, L - 3 * H, L - 0.5 * H), L),
        (_squeeze(batch, L + 1.0, L + 3 * H), 2 * L),
    ]


def _service(topology, catalog, replicas):
    return VORService(
        topology,
        catalog,
        lead_time=0.0,
        replicas=replicas,
        obs=Observability.on(journal=True),
    )


def _book(service, batch, now):
    for r in batch:
        service.reserve(
            r.user_id, r.video_id, r.start_time,
            local_storage=r.local_storage, now=now,
        )


def _at_boundary(topology, catalog, cycles, replicas):
    """A service that closed cycle 0 and holds cycle 1's bookings."""
    service = _service(topology, catalog, replicas)
    _book(service, cycles[0][0], 0.0)
    first = service.close_cycle(cycle_end=cycles[0][1])
    _book(service, cycles[1][0], cycles[0][1])
    return service, first


def _solves(service) -> dict[str, float]:
    family = service.obs.telemetry().metrics[SOLVES]
    return {v["labels"]["kind"]: v["value"] for v in family["values"]}


def _journal_bytes(service, path):
    return write_journal_jsonl(path, service.obs.journal).read_bytes()


def _deterministic_metrics(service):
    """The deterministic telemetry, minus the solve counter: the work two
    equal closes did differs by design, and is checked on its own."""
    metrics = service.obs.telemetry().metrics
    metrics.pop(SOLVES)
    return {k: v for k, v in metrics.items() if v["deterministic"]}


@pytest.fixture(scope="module")
def moved_map(drill_topology, drill_catalog, drill_cycles):
    """A map placed for cycle 1's heat: a different home set."""
    return ReplicaMap.heat_placement(
        drill_topology, drill_catalog, drill_cycles[1][0], degree=1, seed=0
    )


def _assert_same_close(a, b):
    """The two close reports agree bit for bit: schedule, Ψ, SORP's
    statistics and the invoices."""
    ca, cb = a.cycle, b.cycle
    assert ca.schedule == cb.schedule
    assert ca.total_cost.hex() == cb.total_cost.hex()
    assert ca.cost.storage.hex() == cb.cost.storage.hex()
    assert ca.cost.network.hex() == cb.cost.network.hex()
    assert ca.resolution == cb.resolution
    assert a.billing == b.billing


class TestReuseIsExact:
    def test_adopted_what_if_equals_a_fresh_close(
        self, tmp_path, drill_topology, drill_catalog, cycles,
        drill_replicas, moved_map,
    ):
        reusing, first = _at_boundary(
            drill_topology, drill_catalog, cycles, drill_replicas
        )
        fresh, _ = _at_boundary(
            drill_topology, drill_catalog, cycles, drill_replicas
        )
        assert first.cycle.carried_out > 0  # the what-if sees carryover
        end = cycles[1][1]
        due = reusing.due(end)
        model = reusing.cost_model
        for replicas in (model.replicas, moved_map):  # as the planner does
            reusing.what_if(due, model.with_replicas(replicas))
        for service in (reusing, fresh):
            service.migrate_replicas(moved_map)
        a = reusing.close_cycle(cycle_end=end)
        b = fresh.close_cycle(cycle_end=end)

        assert a.cycle.reused_solve and not b.cycle.reused_solve
        _assert_same_close(a, b)
        assert allocate_costs(a.cycle.schedule, reusing.cost_model) == (
            allocate_costs(b.cycle.schedule, fresh.cost_model)
        )
        assert a.cycle.resolution.iterations > 0  # SORP events replayed
        assert _journal_bytes(reusing, tmp_path / "a.jsonl") == (
            _journal_bytes(fresh, tmp_path / "b.jsonl")
        )
        assert _deterministic_metrics(reusing) == _deterministic_metrics(fresh)
        assert _solves(reusing) == {"close": 1, "what-if": 2}
        assert _solves(fresh) == {"close": 2}
        close = [r for r in reusing.obs.tracer.records if r.name == "close_cycle"]
        assert [r.attributes["reused"] for r in close] == [False, True]


class TestFreshSolveTriggers:
    """Each change to the close's problem after the what-if forces a fresh
    solve, and the fresh close equals one that never had a what-if."""

    def _check_fresh(self, tmp_path, service, twin, end):
        a = service.close_cycle(cycle_end=end)
        b = twin.close_cycle(cycle_end=end)
        assert not a.cycle.reused_solve
        _assert_same_close(a, b)
        assert _journal_bytes(service, tmp_path / "a.jsonl") == (
            _journal_bytes(twin, tmp_path / "b.jsonl")
        )
        assert _deterministic_metrics(service) == _deterministic_metrics(twin)
        assert _solves(service)["close"] == 2

    def _pair(self, drill_topology, drill_catalog, cycles, drill_replicas):
        return tuple(
            _at_boundary(
                drill_topology, drill_catalog, cycles, drill_replicas
            )
            for _ in range(2)
        )

    def test_booking_added_after_planning(
        self, tmp_path, drill_topology, drill_catalog, cycles,
        drill_replicas,
    ):
        (service, _), (twin, _) = self._pair(
            drill_topology, drill_catalog, cycles, drill_replicas
        )
        end = cycles[1][1]
        service.what_if(service.due(end), service.cost_model)
        late = cycles[1][0][0]
        for s in (service, twin):
            s.reserve(
                "late-user", late.video_id, late.start_time,
                local_storage=late.local_storage, now=cycles[0][1],
            )
        self._check_fresh(tmp_path, service, twin, end)

    def test_amendment_committed_between_plan_and_close(
        self, tmp_path, drill_topology, drill_catalog, cycles,
        drill_replicas,
    ):
        (service, first), (twin, twin_first) = self._pair(
            drill_topology, drill_catalog, cycles, drill_replicas
        )
        end = cycles[1][1]
        service.what_if(service.due(end), service.cost_model)
        plan = brownout_feed().plan()
        amended = service.amend_cycle(first, plan)
        assert amended.feasible  # so the amendment re-rolled the carryover
        twin.amend_cycle(twin_first, plan)
        self._check_fresh(tmp_path, service, twin, end)

    def test_map_tried_but_not_adopted(
        self, tmp_path, drill_topology, drill_catalog, cycles,
        drill_replicas, moved_map,
    ):
        (service, _), (twin, _) = self._pair(
            drill_topology, drill_catalog, cycles, drill_replicas
        )
        end = cycles[1][1]
        service.what_if(
            service.due(end), service.cost_model.with_replicas(moved_map)
        )
        self._check_fresh(tmp_path, service, twin, end)

    def test_model_that_prices_differently(
        self, tmp_path, drill_topology, drill_catalog, cycles,
        drill_replicas,
    ):
        """Same map object, but a separately built model: not a clone of
        the service's, so the close cannot take its what-if on trust."""
        (service, _), (twin, _) = self._pair(
            drill_topology, drill_catalog, cycles, drill_replicas
        )
        end = cycles[1][1]
        other = CostModel(drill_topology, drill_catalog, replicas=drill_replicas)
        assert not other.prices_like(service.cost_model)
        service.what_if(service.due(end), other)
        self._check_fresh(tmp_path, service, twin, end)
