"""Incremental SORP must be bit-identical to from-scratch evaluation.

``resolve_overflows`` reuses trial reschedules, timelines and ``fits``
answers across rounds, and revalidates a stale trial by re-asking its
recorded ``fits`` queries (see :mod:`repro.core.sorp`).  These tests hold it
to the reference in :mod:`tests.core.sorp_reference`, which rebuilds every
trial from scratch: same schedule, same ``ResolutionStats`` and the same
``sorp-placed`` journal sequence, over all heat metrics, rolling cycles
with carryover background and committed seeds, and contingency recovery
on fault-masked cost models.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CostModel,
    FileSchedule,
    HeatMetric,
    IndividualScheduler,
    Request,
    RequestBatch,
    ResidencyInfo,
    Schedule,
    Topology,
    VideoCatalog,
    VideoFile,
    WorkloadGenerator,
    detect_overflows,
    paper_catalog,
    paper_topology,
    resolve_overflows,
    units,
)
from repro.core import sorp as sorp_module
from repro.core.overflow import LocationIndex
from repro.core.rejective import AvailabilityOracle, fits_under
from repro.core.spacefunc import UsageTimeline, residency_profile
from repro.extensions import rolling as rolling_module
from repro.extensions.rolling import RollingScheduler
from repro.faults import ContingencyScheduler, FaultKind, FaultPlan, FaultSpec
from repro.faults import contingency as contingency_module
from repro.obs import Observability

from .sorp_reference import reference_reschedule, reference_resolve_overflows


def _instance(capacity_gb, n_videos, users, seed):
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(capacity_gb),
    )
    catalog = paper_catalog(n_videos=n_videos, seed=seed % 7)
    batch = WorkloadGenerator(
        topo, catalog, alpha=0.271, users_per_neighborhood=users
    ).generate(seed=seed)
    return topo, catalog, batch


def _placed(journal):
    return [e for e in journal.events if e.kind == "sorp-placed"]


def assert_matches_reference(schedule, batch, cost_model, *, obs=None, **kwargs):
    """Run both paths on one SORP input and require identical results."""
    obs = obs if obs is not None else Observability.on(journal=True)
    ref_obs = Observability.on(journal=True)
    got, stats = resolve_overflows(schedule, batch, cost_model, obs=obs, **kwargs)
    want, ref_stats = reference_resolve_overflows(
        schedule, batch, cost_model, obs=ref_obs, **kwargs
    )
    assert got == want
    assert stats == ref_stats  # iterations, victims, costs (not cache temp)
    assert stats.victims == ref_stats.victims
    assert [e.attrs for e in _placed(obs.journal)] == [
        e.attrs for e in _placed(ref_obs.journal)
    ]
    return stats


def _trial_outcomes(obs):
    """``{outcome: count}`` of the run's ``vor_sorp_trials_total``."""
    return {
        dict(key)["outcome"]: child.value
        for f in obs.metrics.families()
        if f.name == "vor_sorp_trials_total"
        for key, child in f.children.items()
    }


def _capture(module):
    """Patch ``module.resolve_overflows`` to record every call's inputs."""
    calls = []
    real = resolve_overflows

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    return calls, mock.patch.object(module, "resolve_overflows", recording)


instances = st.tuples(
    st.sampled_from([1.0, 1.5, 2.0]),  # capacity, GB
    st.integers(min_value=12, max_value=40),  # catalog size
    st.integers(min_value=1, max_value=4),  # users per neighborhood
    st.integers(min_value=0, max_value=10_000),  # workload seed
)


class TestBitIdentity:
    @given(inst=instances, metric=st.sampled_from(list(HeatMetric)))
    @settings(max_examples=30, deadline=None)
    def test_phase1_schedules(self, inst, metric):
        topo, catalog, batch = _instance(*inst)
        cm = CostModel(topo, catalog)
        phase1 = IndividualScheduler(cm).solve(batch)
        assert_matches_reference(phase1, batch, cm, metric=metric)

    @pytest.mark.parametrize("metric", list(HeatMetric))
    def test_heavy_overflow_every_metric(self, metric):
        topo, catalog, batch = _instance(1.0, 20, 5, 5)
        cm = CostModel(topo, catalog)
        phase1 = IndividualScheduler(cm).solve(batch)
        obs = Observability.on(journal=True)
        stats = assert_matches_reference(phase1, batch, cm, metric=metric, obs=obs)
        assert stats.iterations >= 5  # the rounds reuse earlier trials
        # ...and revalidate stale ones, so the identity covers that path
        assert _trial_outcomes(obs)["revalidated"] > 0

    @staticmethod
    def _rolling_calls(inst, metric, cycles):
        """SORP inputs of a rolling run whose cycles are 2 h windows, short
        next to a playback, so residency tails carry over as background
        (unrequested titles) and committed seeds (requested ones)."""
        capacity, n_videos, users, seed = inst
        span = 2 * units.HOUR
        calls, patch = _capture(rolling_module)
        topo, catalog, _ = _instance(capacity, 3 * n_videos, users, seed)
        with patch:
            rolling = RollingScheduler(topo, catalog, heat_metric=metric)
            for k in range(cycles):
                _, _, day = _instance(capacity, 3 * n_videos, users, seed + k)
                part = RequestBatch(
                    Request(
                        k * span + r.start_time * span / units.DAY,
                        r.video_id, f"{r.user_id}.{k}", r.local_storage,
                    )
                    for r in day
                )
                rolling.schedule_cycle(part, cycle_end=(k + 1) * span)
        assert len(calls) == cycles
        return calls

    @given(
        inst=instances,
        metric=st.sampled_from(list(HeatMetric)),
        cycles=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_rolling_background_and_committed_seeds(self, inst, metric, cycles):
        for args, kwargs in self._rolling_calls(inst, metric, cycles):
            kwargs = dict(kwargs)
            kwargs.pop("obs", None)
            assert_matches_reference(*args, **kwargs)

    def test_rolling_cases_cover_background_and_seeds(self):
        background = committed = 0
        for seed in (7, 8, 9):
            calls = self._rolling_calls(
                (1.0, 30, 3, seed), HeatMetric.SPACE_TIME_PER_COST, 3
            )
            for args, kwargs in calls:
                kwargs = dict(kwargs)
                kwargs.pop("obs", None)
                stats = assert_matches_reference(*args, **kwargs)
                if stats.iterations:
                    background += bool(kwargs["background"])
                    committed += any(kwargs["committed"].values())
        assert background and committed

    @given(
        inst=instances,
        metric=st.sampled_from(list(HeatMetric)),
        target=st.sampled_from(["IS1", "IS4", "IS7", "IS12"]),
        masking=st.sampled_from(["cycle", "windowed"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_contingency_masked_cost_models(self, inst, metric, target, masking):
        topo, catalog, batch = _instance(*inst)
        cm = CostModel(topo, catalog)
        schedule, _ = resolve_overflows(
            IndividualScheduler(cm).solve(batch), batch, cm, metric=metric
        )
        plan = FaultPlan(
            (
                FaultSpec(
                    FaultKind.CAPACITY_SHRINK, target, 0.0, units.DAY,
                    severity=0.5,
                ),
                FaultSpec(FaultKind.IS_OUTAGE, "IS2", 0.3 * units.DAY,
                          0.6 * units.DAY),
            )
        )
        calls, patch = _capture(contingency_module)
        with patch:
            ContingencyScheduler(
                cm, heat_metric=metric, masking=masking
            ).recover(schedule, plan, batch=batch)
        for args, kwargs in calls:
            kwargs = dict(kwargs)
            kwargs.pop("obs", None)
            assert_matches_reference(*args, **kwargs)


def _two_branch_env():
    """Two branches ``VW - ISk - ISkb``; users sit behind the small ``ISkb``
    edge caches, two contended files per branch.  A victim evicted from
    ``ISkb`` falls back to caching at ``ISk``, so each trial's oracle
    consults only its own branch.  File ``e`` is cached at ``IS2`` for
    users there and takes part in no overflow.  File ``f`` is never
    requested; a test installs it to fill ``IS2``."""
    topo = Topology()
    topo.add_warehouse("VW")
    for k in ("1", "2"):
        topo.add_storage(f"IS{k}", srate=1e-3, capacity=1000.0)
        topo.add_storage(f"IS{k}b", srate=1e-3, capacity=150.0)
        topo.add_edge("VW", f"IS{k}", nrate=1.0)
        topo.add_edge(f"IS{k}", f"IS{k}b", nrate=1.0)
    catalog = VideoCatalog(
        [VideoFile(v, size=100.0, playback=10.0) for v in "abcde"]
        + [VideoFile("f", size=850.0, playback=10.0)]
    )
    reqs = []
    for i, (video, loc) in enumerate(
        (("a", "IS1b"), ("b", "IS1b"), ("c", "IS2b"), ("d", "IS2b"), ("e", "IS2"))
    ):
        reqs.append(Request(0.0 + i, video, f"{video}1", loc))
        reqs.append(Request(50.0 + i, video, f"{video}2", loc))
    return topo, catalog, CostModel(topo, catalog), RequestBatch(reqs)


class TestTrialReuse:
    def _selector(self):
        topo, catalog, cm, batch = _two_branch_env()
        working = IndividualScheduler(cm).solve(batch)
        working.set_file(FileSchedule("f", [], []))  # unrequested, empty
        selector = sorp_module._VictimSelector(
            working, cm, batch.by_video(), HeatMetric.SPACE_TIME_PER_COST,
            None, {},
        )
        overflows = detect_overflows(
            working, catalog, topo, index=selector.index
        )
        assert [of.location for of in overflows] == ["IS1b", "IS2b"]
        return selector, overflows, catalog, topo

    def test_untouched_trials_are_reused(self):
        selector, overflows, _, _ = self._selector()
        selector.select(overflows)
        assert selector.trials_run == 4 and selector.trials_reused == 0
        first = dict(selector._trials)
        selector.select(overflows)  # nothing committed: all reused
        assert selector.trials_run == 4 and selector.trials_reused == 4
        assert all(selector._trials[k] is t for k, t in first.items())

    @staticmethod
    def _restamp_is2(selector, catalog, topo, fs, overflows):
        """Install ``fs`` (a file with residencies only at ``IS2``) and
        re-detect; the overflows must come back unchanged."""
        assert selector.index.set_file(fs) == {"IS2"}
        assert selector.index.version("IS2") == 1
        assert selector.index.version("IS1") == 0
        again = detect_overflows(
            selector.index.schedule, catalog, topo, index=selector.index
        )
        assert again == overflows
        return again

    def test_unchanged_restamp_revalidates(self):
        selector, overflows, catalog, topo = self._selector()
        selector.select(overflows)
        first = dict(selector._trials)
        consulted = {k[0]: set(t.stamps) for k, t in first.items()}
        assert consulted == {
            "a": {"IS1"}, "b": {"IS1"}, "c": {"IS2"}, "d": {"IS2"}
        }
        new_fs = {k: t.new_fs for k, t in first.items()}
        # re-install e's file unchanged: IS2 is re-stamped although its
        # usage is the same -- stamps are per location, never per content
        # or time window
        e_fs = selector.index.schedule.file("e")
        again = self._restamp_is2(
            selector, catalog, topo,
            FileSchedule("e", list(e_fs.deliveries), list(e_fs.residencies)),
            overflows,
        )
        selector.select(again)
        # consulted only IS1: reused; consulted the re-stamped IS2: every
        # recorded answer holds there, so revalidated without a re-run
        assert selector.trials_run == 4
        assert selector.trials_reused == 2
        assert selector.trials_revalidated == 2
        for key, trial in first.items():
            assert selector._trials[key] is trial
            assert trial.new_fs == new_fs[key]
            assert trial.stamps == ({"IS1": 0} if key[0] in "ab" else {"IS2": 1})

    def test_flipped_answer_forces_rerun(self):
        selector, overflows, catalog, topo = self._selector()
        selector.select(overflows)
        first = dict(selector._trials)
        # f fills IS2 without overflowing it: the c/d trials' IS2 caches
        # no longer fit, so their recorded answers flip
        again = self._restamp_is2(
            selector, catalog, topo,
            FileSchedule("f", [], [ResidencyInfo("f", "IS2", "VW", 0.0, 100.0)]),
            overflows,
        )
        selector.select(again)
        assert selector.trials_run == 6
        assert selector.trials_reused == 2
        assert selector.trials_revalidated == 0
        working = selector.index.schedule
        by_video = _two_branch_env()[3].by_video()
        for key, trial in first.items():
            if key[0] in "ab":
                assert selector._trials[key] is trial
                continue
            rerun = selector._trials[key]
            assert rerun is not trial
            assert rerun.new_fs != trial.new_fs
            assert rerun.new_fs == reference_reschedule(
                selector._cm, catalog[key[0]], by_video[key[0]], working,
                forbidden=[(key[1], key[2])], background=None, seeds=(),
            )

    def test_work_counters_and_round_spans(self):
        topo, catalog, cm, batch = _two_branch_env()
        heavy_topo, heavy_catalog, heavy_batch = _instance(1.0, 20, 5, 5)
        heavy_cm = CostModel(heavy_topo, heavy_catalog)
        for cm, batch in ((cm, batch), (heavy_cm, heavy_batch)):
            obs = Observability.on()
            phase1 = IndividualScheduler(cm).solve(batch)
            with mock.patch.object(
                sorp_module, "compute_heat", wraps=sorp_module.compute_heat
            ) as priced:
                _, stats = resolve_overflows(phase1, batch, cm, obs=obs)
            rounds = [r for r in obs.tracer.records if r.name == "sorp.round"]
            assert len(rounds) == stats.iterations >= 2
            counts = {
                outcome: sum(dict(r.attrs)[attr] for r in rounds)
                for outcome, attr in (
                    ("run", "trials"),
                    ("reused", "reused"),
                    ("revalidated", "revalidated"),
                )
            }
            (sorp_span,) = [r for r in obs.tracer.records if r.name == "sorp"]
            assert dict(sorp_span.attrs)["revalidated"] == counts["revalidated"]
            assert _trial_outcomes(obs) == counts
            # every priced trial is run, reused or revalidated
            assert sum(counts.values()) == priced.call_count
            assert counts["reused"] > 0  # the untouched trials are reused
            builds = obs.metrics.snapshot()["vor_sorp_timeline_builds_total"]
            assert builds["values"][0]["value"] > 0
        assert counts["revalidated"] > 0  # the heavy instance revalidates


class TestOracleQueries:
    def test_records_every_answer_cached_ones_included(self):
        topo, catalog, cm, batch = _two_branch_env()
        working = IndividualScheduler(cm).solve(batch)
        index = LocationIndex(working, catalog)
        fits = ResidencyInfo("c", "IS2", "VW", 2.0, 52.0)
        too_big = ResidencyInfo("f", "IS2b", "VW", 0.0, 100.0)
        first = AvailabilityOracle(working, catalog, topo, "c", index=index)
        assert first.fits_residency(fits, index.profile(fits))
        with mock.patch(
            "repro.core.rejective.fits_under", side_effect=AssertionError
        ):
            # same victim, same stamp: answered from the shared cache
            second = AvailabilityOracle(working, catalog, topo, "c", index=index)
            assert second.fits_residency(fits, index.profile(fits))
        assert not second.fits_residency(too_big, index.profile(too_big))
        assert second.fits_residency(fits, index.profile(fits))  # asked again
        assert first.queries == {("IS2", 2.0, 52.0): (index.profile(fits), True)}
        assert list(second.queries.items()) == [
            (("IS2", 2.0, 52.0), (index.profile(fits), True)),
            (("IS2b", 0.0, 100.0), (index.profile(too_big), False)),
        ]


class TestCapacityTolerance:
    """Placement and detection share one slack: no phantom overflows."""

    GB = 1e9

    def _pair(self):
        resident = ResidencyInfo("a", "IS1", "VW", 0.0, 150.0)
        candidate = ResidencyInfo("b", "IS1", "VW", 50.0, 200.0)
        catalog = VideoCatalog(
            [
                VideoFile("a", size=1 * self.GB, playback=50.0),
                VideoFile("b", size=2 * self.GB + 1e-3, playback=50.0),
            ]
        )
        return resident, candidate, catalog

    def test_fits_under_accepts_the_pair(self):
        resident, candidate, catalog = self._pair()
        timeline = UsageTimeline([resident.profile(catalog["a"])])
        assert fits_under(timeline, candidate.profile(catalog["b"]), 3 * self.GB)
        # the raw threshold sweep does see usage above capacity + EPS
        both = UsageTimeline(
            [resident.profile(catalog["a"]), candidate.profile(catalog["b"])]
        )
        ((t0, t1),) = both.intervals_above(3 * self.GB)
        assert t0 == 50.0 and t1 == pytest.approx(150.00000000005, abs=1e-12)

    def test_detection_does_not_flag_what_placement_accepted(self):
        resident, candidate, catalog = self._pair()
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=1e-3, capacity=3 * self.GB)
        topo.add_edge("VW", "IS1", nrate=1.0)
        schedule = Schedule(
            [FileSchedule("a", [], [resident]), FileSchedule("b", [], [candidate])]
        )
        assert detect_overflows(schedule, catalog, topo) == []
        index = LocationIndex(schedule, catalog)
        assert detect_overflows(schedule, catalog, topo, index=index) == []

    def test_real_overflow_still_detected(self):
        resident, _, catalog = self._pair()
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=1e-3, capacity=3 * self.GB)
        topo.add_edge("VW", "IS1", nrate=1.0)
        bigger = VideoCatalog(
            [catalog["a"], VideoFile("b", size=2 * self.GB + 1e4, playback=50.0)]
        )
        schedule = Schedule(
            [
                FileSchedule("a", [], [resident]),
                FileSchedule("b", [], [ResidencyInfo("b", "IS1", "VW", 50.0, 200.0)]),
            ]
        )
        (of,) = detect_overflows(schedule, bigger, topo)
        assert of.location == "IS1"
        assert {c.video_id for c in of.members} == {"a", "b"}


class TestLocationIndex:
    def test_entries_mirror_schedule_order(self):
        topo, catalog, batch = _instance(1.5, 30, 2, 11)
        cm = CostModel(topo, catalog)
        schedule = IndividualScheduler(cm).solve(batch)
        index = LocationIndex(schedule, catalog)
        for spec in topo.storages:
            want = schedule.residencies_at(spec.name)
            got = index.entries(spec.name)
            assert [c for c, _ in got] == want
            assert [p for _, p in got] == [
                residency_profile(
                    catalog[c.video_id].size, catalog[c.video_id].playback,
                    c.t_start, c.t_last,
                )
                for c in want
            ]

    def test_detect_with_index_equals_full_sweep(self):
        topo, catalog, batch = _instance(1.0, 20, 4, 3)
        cm = CostModel(topo, catalog)
        schedule = IndividualScheduler(cm).solve(batch)
        index = LocationIndex(schedule, catalog)
        full = detect_overflows(schedule, catalog, topo)
        assert full
        assert detect_overflows(schedule, catalog, topo, index=index) == full
        # a second sweep is served from the per-location memo
        builds = index.timeline_builds
        assert detect_overflows(schedule, catalog, topo, index=index) == full
        assert index.timeline_builds == builds

    def test_index_must_mirror_the_swept_schedule(self):
        topo, catalog, batch = _instance(1.0, 12, 1, 3)
        schedule = IndividualScheduler(CostModel(topo, catalog)).solve(batch)
        index = LocationIndex(schedule.copy(), catalog)
        with pytest.raises(ValueError):
            detect_overflows(schedule, catalog, topo, index=index)
