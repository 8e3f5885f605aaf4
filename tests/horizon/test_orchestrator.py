"""Horizon-level properties: migration pays, carryover credits, and the
whole run is bit-identical on replay."""

from __future__ import annotations

import math

import pytest

from repro import (
    Observability,
    ReplicaMap,
    paper_catalog,
    units,
)
from repro.errors import ScheduleError
from repro.faults.feed import FaultFeed
from repro.horizon import (
    HorizonConfig,
    HorizonOrchestrator,
    MigrationConfig,
    generate_drifting_cycles,
    split_events,
)
from repro.obs.events import write_journal_jsonl
from repro.online import OnlineLoopConfig
from repro.service import VORService

from .conftest import brownout_feed, brownout_topology

L = units.DAY


def run_horizon(
    topology,
    catalog,
    cycles,
    *,
    replicas=None,
    migrate=True,
    feed=None,
    obs=None,
):
    config = HorizonConfig(
        migration=MigrationConfig(degree=1, seed=0) if migrate else None
    )
    orch = HorizonOrchestrator(
        topology,
        catalog,
        replicas=replicas,
        obs=obs,
        config=config,
    )
    return orch.run(cycles, feed=feed)


class TestDrill:
    @pytest.fixture(scope="class")
    def drill_report(self, drill_topology, drill_catalog, drill_cycles,
                     drill_replicas, drill_feed):
        return run_horizon(
            drill_topology, drill_catalog, drill_cycles,
            replicas=drill_replicas, feed=drill_feed,
        )

    def test_boundary_fault_amends_both_cycles_it_touches(self, drill_report):
        """The brownout window (0.9L, 1.15L) straddles the cycle-0/1 seam:
        both cycles must see the reports, cycle 1 as carried copies."""
        faulted = [c.index for c in drill_report.cycles if c.fault_events]
        carried = [c.index for c in drill_report.cycles if c.carried_events]
        assert faulted == [0, 1]
        assert carried == [1]
        assert drill_report.cycles[2].fault_events == 0

    def test_drill_migrates_resumes_and_stays_feasible(self, drill_report):
        assert drill_report.feasible
        assert drill_report.migrations_accepted >= 1
        assert drill_report.staging_cost > 0
        assert drill_report.resumed >= 1
        assert drill_report.resume_credit > 0

    def test_report_moves_carry_exactly_four_keys(self, drill_report):
        doc = drill_report.to_json_dict()
        moves = [
            move
            for plan in doc["migrations"]
            for decision in (*plan["accepted"], *plan["rejected"])
            for move in decision["moves"]
        ]
        assert moves
        for move in moves:
            assert set(move) == {"action", "warehouse", "source", "transfer_cost"}

    def test_total_psi_identity(self, drill_report):
        assert drill_report.total_psi == pytest.approx(
            math.fsum(c.psi_net for c in drill_report.cycles)
            + drill_report.staging_cost
            - drill_report.resume_credit
        )
        assert drill_report.psi_trajectory == tuple(
            c.psi_net for c in drill_report.cycles
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_accepted_migrations_never_raise_horizon_psi(self, seed):
        """The acceptance rule is a trial solve *including* staging, so a
        migrating horizon can never end costlier than a frozen one."""
        topo = brownout_topology()
        catalog = paper_catalog(60, seed=4)
        cycles = generate_drifting_cycles(
            topo, catalog, cycles=3, cycle_length=L,
            seed=seed, churn=0.5, users_per_neighborhood=4,
        )
        replicas = ReplicaMap.heat_placement(
            topo, catalog, cycles[0][0], degree=1, seed=0
        )
        migrated = run_horizon(
            topo, catalog, cycles, replicas=replicas, migrate=True
        )
        frozen = run_horizon(
            topo, catalog, cycles, replicas=replicas, migrate=False
        )
        assert migrated.feasible and frozen.feasible
        assert migrated.total_psi <= frozen.total_psi + 1e-6


class TestLossAccounting:
    @pytest.mark.parametrize("seed", [2, 5, 10, 11])
    def test_every_request_is_delivered_or_lost(self, seed):
        """A cycle amended several times loses requests in more than one
        amendment; ``requests_lost`` must count all of them, not just the
        last amendment's."""
        topo = brownout_topology()
        catalog = paper_catalog(60, seed=4)
        cycles = generate_drifting_cycles(
            topo, catalog, cycles=3, cycle_length=L,
            seed=seed, churn=0.5, users_per_neighborhood=4,
        )
        replicas = ReplicaMap.heat_placement(
            topo, catalog, cycles[0][0], degree=1, seed=seed
        )
        tail = max(v.playback for v in catalog)
        feed = FaultFeed.generate(
            topo, seed=seed, n_events=6, horizon=(0.0, 3 * L + tail)
        )
        config = HorizonConfig(
            migration=MigrationConfig(degree=1, seed=seed),
            online=OnlineLoopConfig(seed=seed, backoff_base=0.0),
        )
        report = HorizonOrchestrator(
            topo, catalog, replicas=replicas, config=config
        ).run(cycles, feed=feed)
        assert any(len(c.amendment_outcomes) > 1 for c in report.cycles)
        for c in report.cycles:
            assert c.deliveries + c.requests_lost == c.requests, c.index


class TestDeterminism:
    def test_bit_identical_on_replay(
        self, tmp_path, drill_topology, drill_catalog, drill_cycles,
        drill_replicas,
    ):
        docs, journals = [], []
        for run in ("a", "b"):
            obs = Observability.on(journal=True)
            report = run_horizon(
                drill_topology, drill_catalog, drill_cycles,
                replicas=drill_replicas, feed=brownout_feed(),
                obs=obs,
            )
            docs.append(report.to_json_dict())
            path = write_journal_jsonl(
                tmp_path / f"journal-{run}.jsonl", obs.journal
            )
            journals.append(path.read_bytes())
        assert docs[0] == docs[1]
        assert journals[0] == journals[1]


class TestFrozenEquivalence:
    def test_migration_off_matches_chained_service_cycles(
        self, drill_topology, drill_catalog, drill_cycles, drill_replicas
    ):
        """With migration off and no feed, the orchestrator is exactly
        back-to-back VORService cycles -- same per-cycle net psi."""
        report = run_horizon(
            drill_topology, drill_catalog, drill_cycles,
            replicas=drill_replicas, migrate=False,
        )
        service = VORService(
            drill_topology, drill_catalog, lead_time=0.0,
            replicas=drill_replicas,
        )
        prev_end = 0.0
        for (batch, cycle_end), outcome in zip(drill_cycles, report.cycles):
            for r in sorted(batch):
                service.reserve(
                    r.user_id, r.video_id, r.start_time,
                    local_storage=r.local_storage, now=prev_end,
                )
            cycle_report = service.close_cycle(cycle_end=cycle_end)
            assert outcome.psi_net == pytest.approx(
                cycle_report.cycle.net_total_cost
            )
            assert outcome.deliveries == len(
                cycle_report.cycle.schedule.deliveries
            )
            prev_end = cycle_end
        assert report.migrations_accepted == 0
        assert report.staging_cost == 0.0
        assert report.resume_credit == 0.0


class TestSplitEvents:
    def test_buckets_by_arrival_window(self, drill_feed):
        buckets = split_events(drill_feed, [L, 2 * L, 3 * L])
        assert [len(b) for b in buckets] == [2, 0, 0]

    def test_first_window_reaches_back_forever(self, drill_feed):
        shifted = FaultFeed(
            events=tuple(
                type(e)(at=e.at - 10 * L, fault=e.fault) for e in drill_feed
            ),
            name=drill_feed.name,
            seed=drill_feed.seed,
        )
        buckets = split_events(shifted, [L, 2 * L])
        assert len(buckets[0]) == 2

    def test_post_horizon_arrivals_land_in_last_cycle(self, drill_feed):
        buckets = split_events(drill_feed, [0.1 * L, 0.2 * L])
        assert [len(b) for b in buckets] == [0, 2]

    def test_boundary_is_inclusive_on_the_left_cycle(self, drill_feed):
        first = drill_feed.events[0]
        buckets = split_events(drill_feed, [first.at, 3 * L])
        assert len(buckets[0]) == 1
        assert len(buckets[1]) == 1

    def test_empty_boundaries_rejected(self, drill_feed):
        with pytest.raises(ScheduleError):
            split_events(drill_feed, [])

    def test_unsorted_boundaries_rejected(self, drill_feed):
        with pytest.raises(ScheduleError):
            split_events(drill_feed, [2 * L, L])


class TestGuards:
    def test_empty_horizon_rejected(
        self, drill_topology, drill_catalog, drill_replicas
    ):
        orch = HorizonOrchestrator(
            drill_topology, drill_catalog, replicas=drill_replicas
        )
        with pytest.raises(ScheduleError):
            orch.run([])

    def test_migration_without_replicas_rejected(
        self, drill_topology, drill_catalog
    ):
        with pytest.raises(ScheduleError):
            HorizonOrchestrator(drill_topology, drill_catalog)

    def test_unsorted_cycle_boundaries_rejected(
        self, drill_topology, drill_catalog, drill_cycles, drill_replicas
    ):
        orch = HorizonOrchestrator(
            drill_topology, drill_catalog, replicas=drill_replicas
        )
        (b0, _), (b1, _) = drill_cycles[0], drill_cycles[1]
        with pytest.raises(ScheduleError):
            orch.run([(b0, 2 * L), (b1, L)])


class TestSolvesPerBoundary:
    def test_a_trial_boundary_costs_two_solves_not_three(
        self, drill_topology, drill_catalog, drill_cycles, drill_replicas,
        drill_feed,
    ):
        """Both trials of a boundary are what-ifs of the next close, and
        the adopted map's trial is that close: the program's own solve
        counter reads 2 solves per trial boundary and a close only for the
        other cycles."""
        obs = Observability.on()
        report = run_horizon(
            drill_topology, drill_catalog, drill_cycles,
            replicas=drill_replicas, feed=drill_feed, obs=obs,
        )
        trials = sum(
            m.trial_psi_incumbent is not None for m in report.migrations
        )
        assert trials >= 1
        family = obs.telemetry().metrics["vor_rolling_solves_total"]
        solves = {v["labels"]["kind"]: v["value"] for v in family["values"]}
        assert solves == {
            "what-if": 2 * trials,
            "close": len(report.cycles) - trials,
        }
