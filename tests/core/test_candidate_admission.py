"""The greedy kernel equals the record-based reference greedy.

The kernel (:mod:`repro.core.individual`) keeps each file's copies as
plain tuples with their Ψ_C, skips copies dearer on the network alone
than the best key so far, and asks its constraints only about the copies
that beat the cheapest warehouse, cheapest first.
:class:`~tests.core.greedy_reference.ReferenceGreedy` keeps
:class:`~repro.core.schedule.ResidencyInfo` records and reprices every
copy through :meth:`~repro.core.costmodel.CostModel.residency_cost_for`.

* ``TestLazyEqualsEager`` holds the kernel's picks to the eager reference,
  which asks about every cache candidate in residency order: equal file
  schedules in Phase 1 (also under a diurnal tariff, on an uncached model,
  with carryover seeds held past a request's start and over a two-warehouse
  replica map), in the rejective greedy with the reference constraints,
  and in the bandwidth-aware scheduler with live capacity constraints.
* ``TestKernelEqualsRecordReference`` holds the kernel to the cost-first
  reference, which asks in the kernel's order: equal file schedules,
  ``phase1-assigned`` events and rejective ``DecisionLog`` decisions and
  marks, also for resumed runs.
* ``TestAskOnlyWhatCanWin`` and ``TestExtensionIsNonNegative`` pin the two
  facts the exactness argument rests on: copies that cannot beat the
  cheapest warehouse are never asked about, and a Ψ_C extension is never
  negative, also where the span crosses the playback length.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CostModel,
    IndividualScheduler,
    ReplicaMap,
    Request,
    ResidencyInfo,
    Topology,
    VideoCatalog,
    VideoFile,
    WorkloadGenerator,
    chain_topology,
    detect_overflows,
    paper_catalog,
    paper_topology,
    units,
)
from repro.core import individual
from repro.core.costmodel import storage_cost
from repro.core.individual import copies_of
from repro.core.overflow import StorageLedger
from repro.core.rejective import DecisionLog, RejectiveGreedyScheduler
from repro.extensions import (
    BandwidthAwareScheduler,
    DiurnalCostModel,
    TimeOfDayTariff,
)
from repro.obs import Observability
from repro.topology.generators import PAPER_STORAGE_COUNT, PAPER_TOPOLOGY_EDGES

from .greedy_reference import (
    ReferenceGreedy,
    ReferenceLiveConstraints,
    reference_reschedule,
)
from .sorp_reference import ReferenceConstraints, ReferenceOracle

instances = st.tuples(
    st.sampled_from([1.0, 2.0, 5.0]),  # capacity, GB
    st.sampled_from([0.5, 5.0, 50.0]),  # srate, $/(GB*hour)
    st.integers(min_value=12, max_value=40),  # catalog size
    st.integers(min_value=1, max_value=4),  # users per neighborhood
    st.integers(min_value=0, max_value=10_000),  # workload seed
)


def _instance(capacity_gb, srate, n_videos, users, seed):
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(srate),
        capacity=units.gb(capacity_gb),
    )
    catalog = paper_catalog(n_videos=n_videos, seed=seed % 7)
    batch = WorkloadGenerator(
        topo, catalog, alpha=0.271, users_per_neighborhood=users
    ).generate(seed=seed)
    return topo, catalog, batch


def _held_seeds(topo, batch):
    """Two carried-over caches per video, held to the middle of its
    requests: one at its first requester's storage (so that request is
    served from it at a zero Ψ_C extension) and one elsewhere."""
    storages = [s.name for s in topo.storages]
    seeds = {}
    for i, (video_id, requests) in enumerate(batch.by_video().items()):
        first = min(requests)
        last = max(requests)
        held = first.start_time + 0.5 * (last.start_time - first.start_time)
        other = [s for s in storages if s != first.local_storage]
        seeds[video_id] = tuple(
            ResidencyInfo(
                video_id, location, "VW", first.start_time - 600.0, held + 1.0
            )
            for location in (first.local_storage, other[i % len(other)])
        )
    return seeds


def _model(topo, catalog, diurnal):
    if diurnal:
        return DiurnalCostModel(topo, catalog, TimeOfDayTariff.evening_peak())
    return CostModel(topo, catalog)


class TestLazyEqualsEager:
    @given(inst=instances)
    @settings(max_examples=30, deadline=None)
    def test_phase1(self, inst):
        topo, catalog, batch = _instance(*inst)
        cm = CostModel(topo, catalog)
        lazy = IndividualScheduler(cm).solve(batch)
        eager = ReferenceGreedy(cm).solve(batch)
        assert lazy == eager

    @given(inst=instances)
    @settings(max_examples=15, deadline=None)
    def test_phase1_diurnal_tariff(self, inst):
        topo, catalog, batch = _instance(*inst)
        cm = DiurnalCostModel(topo, catalog, TimeOfDayTariff.evening_peak())
        lazy = IndividualScheduler(cm).solve(batch)
        eager = ReferenceGreedy(cm).solve(batch)
        assert lazy == eager

    @given(inst=instances)
    @settings(max_examples=15, deadline=None)
    def test_phase1_uncached_model(self, inst):
        topo, catalog, batch = _instance(*inst)
        cm = CostModel(topo, catalog, cache=False)
        lazy = IndividualScheduler(cm).solve(batch)
        eager = ReferenceGreedy(cm).solve(batch)
        assert lazy == eager

    @given(inst=instances)
    @settings(max_examples=15, deadline=None)
    def test_phase1_seeds_held_past_the_start(self, inst):
        topo, catalog, batch = _instance(*inst)
        cm = CostModel(topo, catalog)
        seeds = _held_seeds(topo, batch)
        lazy = IndividualScheduler(cm).solve(batch, seeds=seeds)
        eager = ReferenceGreedy(cm).solve(batch, seeds=seeds)
        assert lazy == eager
        for fs in lazy:
            local = seeds[fs.video_id][0]
            first = min(fs.deliveries, key=lambda d: d.start_time)
            assert first.route == (local.location,)
            assert first.start_time < local.t_last

    @given(inst=instances)
    @settings(max_examples=15, deadline=None)
    def test_phase1_two_warehouse_replicas(self, inst):
        topo, catalog, batch = _instance(*inst)
        topo.add_warehouse("VW2")
        topo.add_edge(
            "VW2", f"IS{PAPER_STORAGE_COUNT}", nrate=units.per_gb(500)
        )
        homes = (("VW",), ("VW2",), ("VW", "VW2"))
        replicas = ReplicaMap(
            {v.video_id: homes[i % 3] for i, v in enumerate(catalog)}
        )
        cm = CostModel(topo, catalog, replicas=replicas)
        lazy = IndividualScheduler(cm).solve(batch)
        eager = ReferenceGreedy(cm).solve(batch)
        assert lazy == eager

    @given(inst=instances)
    @settings(max_examples=20, deadline=None)
    def test_rejective_reference_constraints(self, inst):
        topo, catalog, batch = _instance(*inst)
        cm = CostModel(topo, catalog)
        working = IndividualScheduler(cm).solve(batch)
        by_video = batch.by_video()
        for of in detect_overflows(working, catalog, topo):
            forbidden = [(of.location, of.interval)]
            for c in of.members:
                files = []
                for greedy in (IndividualScheduler, ReferenceGreedy):
                    oracle = ReferenceOracle(working, catalog, topo, c.video_id)
                    constraints = ReferenceConstraints(forbidden, oracle)
                    files.append(
                        greedy(cm, constraints).schedule_file(
                            catalog[c.video_id], by_video[c.video_id]
                        )
                    )
                assert files[0] == files[1]

    @given(
        inst=instances,
        streams=st.sampled_from([1.0, 1.5, 3.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_live_capacity_with_bandwidth_routes(self, inst, streams):
        _, catalog, batch = _instance(*inst)
        capacity_gb, srate = inst[:2]
        # links carry a few streams each: routes divert and requests are
        # refused, so the route policy's answers matter
        link = streams * max(v.bandwidth for v in catalog)
        topo = Topology()
        topo.add_warehouse("VW")
        for i in range(1, PAPER_STORAGE_COUNT + 1):
            topo.add_storage(
                f"IS{i}",
                srate=units.per_gb_hour(srate),
                capacity=units.gb(capacity_gb),
            )
        for a, b in PAPER_TOPOLOGY_EDGES:
            topo.add_edge(a, b, nrate=units.per_gb(500), bandwidth=link)
        results = []
        for greedy, live in (
            (IndividualScheduler, None),
            (ReferenceGreedy, ReferenceLiveConstraints),
        ):
            scheduler = BandwidthAwareScheduler(topo, catalog)
            if live is not None:
                scheduler._capacity = live(topo, catalog)
            scheduler._greedy = greedy(
                scheduler.cost_model,
                constraints=scheduler._capacity,
                route_policy=scheduler._policy,
            )
            results.append(scheduler.solve(batch))
        lazy, eager = results
        assert lazy.schedule == eager.schedule
        assert lazy.rejected == eager.rejected
        assert lazy.diverted_streams == eager.diverted_streams
        assert lazy.total_cost == eager.total_cost


def _assert_logs_equal(kernel, reference, video_id):
    """The kernel's log equals the reference's: its marks hold plain
    copies where the reference's hold records."""
    assert kernel.decisions == reference.decisions
    assert kernel.at == reference.at
    assert [
        (n, tuple(ResidencyInfo(video_id, *c) for c in copies))
        for n, copies in kernel.marks
    ] == reference.marks


class TestKernelEqualsRecordReference:
    """The kernel against the reference that asks in the kernel's order:
    the same schedules, journal events and decision logs."""

    @given(
        inst=instances,
        seeded=st.booleans(),
        diurnal=st.booleans(),
        scope=st.sampled_from(["route", "destination"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_phase1_schedules_and_events(self, inst, seeded, diurnal, scope):
        topo, catalog, batch = _instance(*inst)
        cm = _model(topo, catalog, diurnal)
        seeds = _held_seeds(topo, batch) if seeded else None
        runs = []
        for greedy in (IndividualScheduler, ReferenceGreedy):
            options = {} if greedy is IndividualScheduler else {"eager": False}
            obs = Observability.on(journal=True)
            schedule = greedy(cm, deposit_scope=scope, obs=obs, **options).solve(
                batch, seeds=seeds
            )
            runs.append((schedule, list(obs.journal)))
        assert runs[0] == runs[1]
        assert runs[0][1]  # the journal saw every serve

    @given(
        inst=instances,
        seeded=st.booleans(),
        diurnal=st.booleans(),
        at=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_rejective_logs_and_resumed_runs(self, inst, seeded, diurnal, at):
        topo, catalog, batch = _instance(*inst)
        cm = _model(topo, catalog, diurnal)
        seeds = _held_seeds(topo, batch) if seeded else {}
        working = IndividualScheduler(cm).solve(batch, seeds=seeds)
        ledger = StorageLedger(working, catalog, topo)
        by_video = batch.by_video()
        overflows = detect_overflows(working, catalog, topo)
        # each member is rescheduled away from its overflow, then resumed
        # at a drawn request away from the next overflow's window
        for of, nxt in zip(overflows, overflows[1:] + overflows[:1]):
            for c in of.members[:3]:
                video, requests = catalog[c.video_id], by_video[c.video_id]
                held = seeds.get(c.video_id, ())
                forbidden = [(of.location, of.interval)]
                klog, rlog = DecisionLog(), DecisionLog()
                kernel = RejectiveGreedyScheduler(cm).reschedule(
                    video, requests, ledger, forbidden=forbidden,
                    copies=copies_of(held), log=klog,
                )
                reference = reference_reschedule(
                    cm, video, requests, ledger, forbidden=forbidden,
                    residencies=held, log=rlog,
                )
                assert kernel == reference
                _assert_logs_equal(klog, rlog, c.video_id)
                k = min(int(at * len(requests)), len(requests) - 1)
                kept = tuple(kernel.deliveries[:k])
                kprefix, copies = klog.cut(k)
                rprefix, records = rlog.cut(k)
                forbidden = [(nxt.location, nxt.interval)]
                kernel = RejectiveGreedyScheduler(cm).reschedule(
                    video, requests, ledger, forbidden=forbidden,
                    copies=copies, log=kprefix, kept=kept,
                )
                reference = reference_reschedule(
                    cm, video, requests, ledger, forbidden=forbidden,
                    residencies=records, log=rprefix, kept=kept,
                )
                assert kernel == reference
                _assert_logs_equal(kprefix, rprefix, c.video_id)

    @given(
        inst=instances,
        streams=st.sampled_from([1.0, 1.5, 3.0]),
        scope=st.sampled_from(["route", "destination"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_bandwidth_routes_with_live_capacity(self, inst, streams, scope):
        _, catalog, batch = _instance(*inst)
        capacity_gb, srate = inst[:2]
        link = streams * max(v.bandwidth for v in catalog)
        topo = Topology()
        topo.add_warehouse("VW")
        for i in range(1, PAPER_STORAGE_COUNT + 1):
            topo.add_storage(
                f"IS{i}",
                srate=units.per_gb_hour(srate),
                capacity=units.gb(capacity_gb),
            )
        for a, b in PAPER_TOPOLOGY_EDGES:
            topo.add_edge(a, b, nrate=units.per_gb(500), bandwidth=link)
        runs = []
        for reference in (False, True):
            scheduler = BandwidthAwareScheduler(topo, catalog)
            obs = Observability.on(journal=True)
            greedy, options = IndividualScheduler, {}
            if reference:
                scheduler._capacity = ReferenceLiveConstraints(topo, catalog)
                greedy, options = ReferenceGreedy, {"eager": False}
            scheduler._greedy = greedy(
                scheduler.cost_model,
                constraints=scheduler._capacity,
                route_policy=scheduler._policy,
                deposit_scope=scope,
                obs=obs,
                **options,
            )
            result = scheduler.solve(batch)
            runs.append(
                (result.schedule, result.rejected, result.diverted_streams,
                 list(obs.journal))
            )
        assert runs[0] == runs[1]


class _Recording:
    """Constraints that log every cache-candidate question and answer from
    a per-location table (default: allowed).  A deposit is zero-extent and
    occupies no space, so the greedy must never ask about one."""

    def __init__(self, answers=None):
        self.answers = answers or {}
        self.asked = []

    def allows(self, video, location, t_start, t_last, *, replacing=None):
        assert replacing is not None, f"asked about a deposit at {location}"
        self.asked.append(location)
        return self.answers.get(location, True)


class TestAskOnlyWhatCanWin:
    """``VW - IS1 - ... - IS5``, one request at ``IS2`` (2 hops from the
    warehouse).  Open copies: ``IS2`` and ``IS1`` (cheap extensions, so
    they beat the warehouse), ``IS3`` (1 hop, but its 100 s extension
    outprices the warehouse) and ``IS5`` (3 hops: dearer than the
    warehouse on the network alone)."""

    SEEDS = (
        ResidencyInfo("v", "IS5", "VW", 99.0, 99.0),
        ResidencyInfo("v", "IS3", "VW", 0.0, 0.0),
        ResidencyInfo("v", "IS1", "VW", 99.0, 99.0),
        ResidencyInfo("v", "IS2", "VW", 99.0, 99.0),
    )

    def _serve(self, greedy_cls, answers, seeds=SEEDS):
        topo = chain_topology(5, nrate=1.0, srate=0.1, capacity=1e15)
        catalog = VideoCatalog([VideoFile("v", size=100.0, playback=10.0)])
        cm = CostModel(topo, catalog)
        constraints = _Recording(answers)
        session = greedy_cls(cm, constraints).session(
            catalog["v"], initial_residencies=seeds
        )
        session.serve(Request(100.0, "v", "u", "IS2"))
        return constraints.asked, session.schedule.deliveries[0].route

    def test_losers_are_never_asked(self):
        asked, route = self._serve(IndividualScheduler, {"IS2": False})
        # cheapest first; the first allowed copy wins
        assert asked == ["IS2", "IS1"]
        assert route == ("IS1", "IS2")

    def test_cheapest_allowed_copy_is_the_only_question(self):
        asked, route = self._serve(IndividualScheduler, {})
        assert asked == ["IS2"]
        assert route == ("IS2",)

    def test_no_allowed_copy_falls_back_to_the_warehouse(self):
        asked, route = self._serve(
            IndividualScheduler, {"IS1": False, "IS2": False}
        )
        assert asked == ["IS2", "IS1"]
        assert route == ("VW", "IS1", "IS2")

    def test_network_tie_with_the_warehouse_is_asked(self):
        # IS4 is as far from IS2 as the warehouse and its extension is
        # free: equal cost and hops, and a cache wins the tie
        seeds = (ResidencyInfo("v", "IS4", "VW", 100.0, 100.0),)
        asked, route = self._serve(IndividualScheduler, {}, seeds)
        assert asked == ["IS4"]
        assert route == ("IS4", "IS3", "IS2")

    def test_eager_reference_asks_every_copy(self):
        asked, route = self._serve(ReferenceGreedy, {"IS2": False})
        assert asked == ["IS5", "IS3", "IS1", "IS2"]
        assert route == ("IS1", "IS2")

    def test_dearer_network_copy_is_not_priced(self, monkeypatch):
        # SEEDS with distinct fill times, so the span a copy is extended to
        # names the copy
        seeds = (
            ResidencyInfo("v", "IS5", "VW", 98.0, 98.0),
            ResidencyInfo("v", "IS3", "VW", 0.0, 0.0),
            ResidencyInfo("v", "IS1", "VW", 97.0, 97.0),
            ResidencyInfo("v", "IS2", "VW", 99.0, 99.0),
        )
        extended_to = {100.0 - c.t_start: c.location for c in seeds}
        priced = []
        real = individual.storage_cost

        def recording(srate, size, playback, span):
            if span in extended_to:
                priced.append(extended_to[span])
            return real(srate, size, playback, span)

        monkeypatch.setattr(individual, "storage_cost", recording)
        self._serve(IndividualScheduler, {}, seeds)
        assert "IS3" in priced  # priced, then loses to the warehouse
        assert "IS5" not in priced


class TestExtensionIsNonNegative:
    """A cache copy dearer than the warehouse on the network alone is
    skipped unpriced; that is exact only because Ψ_C never falls as a
    residency's span grows, in floats too."""

    @staticmethod
    def _extension(srate, size, playback, t_start, t_last, start):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=srate, capacity=math.inf)
        topo.add_edge("VW", "IS1", nrate=1.0)
        cm = CostModel(topo, VideoCatalog([VideoFile("v", size, playback)]))
        priced = cm.residency_cost_for(
            "v", "IS1", t_start, start
        ) - cm.residency_cost_for("v", "IS1", t_start, t_last)
        # the greedy's own pricing: the same floats, so the same sign
        direct = storage_cost(
            srate, size, playback, start - t_start
        ) - storage_cost(srate, size, playback, t_last - t_start)
        assert direct == priced
        return direct

    @given(
        srate=st.floats(min_value=1e-12, max_value=1e3),
        size=st.floats(min_value=1.0, max_value=1e12),
        playback=st.floats(min_value=1e-3, max_value=1e5),
        t_start=st.floats(min_value=0.0, max_value=1e7),
        before=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        after=st.floats(min_value=1.0, max_value=3.0),
        network=st.floats(min_value=0.0, max_value=1e12),
    )
    @settings(max_examples=300, deadline=None)
    def test_spans_crossing_playback(
        self, srate, size, playback, t_start, before, after, network
    ):
        t_last = t_start + before * playback
        start = max(t_last, t_start + after * playback)
        ext = self._extension(srate, size, playback, t_start, t_last, start)
        assert ext >= 0.0
        # so the candidate's cost is never below its network share
        assert network + ext >= network

    @pytest.mark.parametrize("playback", [10.0, 5400.0, 0.1])
    def test_spans_at_the_playback_boundary(self, playback):
        below = math.nextafter(playback, 0.0)
        for t_last, start in (
            (below, playback),
            (below, math.nextafter(playback, math.inf)),
            (playback, playback),
            (0.0, below),
        ):
            assert self._extension(1e-3, 100.0, playback, 0.0, t_last, start) >= 0
