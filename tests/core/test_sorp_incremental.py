"""Incremental SORP must be bit-identical to from-scratch evaluation.

``resolve_overflows`` reuses trial reschedules, timelines and ``fits``
answers across rounds, and prices each trial from a predecessor by
re-deciding its logged decisions, resuming the greedy at the first one
that differs (see :mod:`repro.core.sorp`).  These tests hold it to the
reference in :mod:`tests.core.sorp_reference`, which rebuilds every trial
from scratch: same schedule, same ``ResolutionStats`` and the same
``sorp-placed`` journal sequence, over all heat metrics, rolling cycles
with carryover background and committed seeds, contingency recovery on
fault-masked cost models, and forced divergence, window and location
changes and full replays of single trials.
"""

from __future__ import annotations

import contextlib
import random
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
    VideoScheduler,
    WorkloadGenerator,
    detect_overflows,
    paper_catalog,
    paper_topology,
    resolve_overflows,
    units,
)
from repro.core import scheduler as scheduler_module
from repro.core import sorp as sorp_module
from repro.core.overflow import OverflowSituation, StorageLedger
from repro.core.rejective import (
    DecisionLog,
    ResidencyConstraints,
    fits_under,
)
from repro.core.spacefunc import UsageTimeline, residency_profile
from repro.extensions.rolling import RollingScheduler
from repro.faults import ContingencyScheduler, FaultKind, FaultPlan, FaultSpec
from repro.obs import Observability

from .sorp_reference import (
    ReferenceOracle,
    reference_reschedule,
    reference_resolve_overflows,
)


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


#: An overflow-heavy instance whose SORP rounds run, reuse, revalidate and
#: resume trials under every heat metric.
HEAVY = (1.0, 20, 4, 5)


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


def _capture(*modules):
    """Patch each module's ``resolve_overflows`` to record every call's
    inputs."""
    calls = []
    real = resolve_overflows

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    @contextlib.contextmanager
    def patched():
        with contextlib.ExitStack() as stack:
            for module in modules:
                stack.enter_context(
                    mock.patch.object(module, "resolve_overflows", recording)
                )
            yield

    return calls, patched()


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
        topo, catalog, batch = _instance(*HEAVY)
        cm = CostModel(topo, catalog)
        phase1 = IndividualScheduler(cm).solve(batch)
        obs = Observability.on(journal=True)
        stats = assert_matches_reference(phase1, batch, cm, metric=metric, obs=obs)
        assert stats.iterations >= 5  # the rounds reuse earlier trials
        # ...revalidate stale ones and resume diverging ones, so the
        # identity covers every path
        outcomes = _trial_outcomes(obs)
        assert set(outcomes) == {"run", "reused", "revalidated", "resumed"}
        assert all(n > 0 for n in outcomes.values()), outcomes

    @staticmethod
    def _rolling_calls(inst, cycles):
        """SORP inputs of a rolling run whose cycles are 2 h windows, short
        next to a playback, so residency tails carry over as background
        (unrequested titles) and committed seeds (requested ones)."""
        capacity, n_videos, users, seed = inst
        span = 2 * units.HOUR
        calls, patch = _capture(scheduler_module)
        topo, catalog, _ = _instance(capacity, 3 * n_videos, users, seed)
        with patch:
            rolling = RollingScheduler(topo, catalog)
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
        # the rolling engine runs one metric; replay its inputs under each
        for args, kwargs in self._rolling_calls(inst, cycles):
            kwargs = dict(kwargs, metric=metric)
            kwargs.pop("obs", None)
            assert_matches_reference(*args, **kwargs)

    def test_rolling_cases_cover_background_and_seeds(self):
        background = committed = 0
        for seed in (7, 8, 9):
            calls = self._rolling_calls((1.0, 30, 3, seed), 3)
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
    )
    @settings(max_examples=15, deadline=None)
    def test_contingency_masked_cost_models(self, inst, metric, target):
        topo, catalog, batch = _instance(*inst)
        cm = CostModel(topo, catalog)
        solved = VideoScheduler(
            topo, catalog, heat_metric=metric, cost_model=cm
        ).solve(batch)
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
        calls, patch = _capture(scheduler_module)
        with patch:
            ContingencyScheduler(cm, heat_metric=metric).recover(solved, plan)
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
            working, catalog, topo, ledger=selector.ledger
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
        assert selector.ledger.set_file(fs) == {"IS2"}
        # the run's first commit, and it renewed IS2 alone
        assert selector.ledger.commits == 1
        assert selector.ledger.touched_since(0) == {"IS2"}
        again = detect_overflows(
            selector.ledger.schedule, catalog, topo, ledger=selector.ledger
        )
        assert again == overflows
        return again

    def test_unchanged_restamp_revalidates(self):
        selector, overflows, catalog, topo = self._selector()
        selector.select(overflows)
        first = dict(selector._trials)
        # each trial decided at its fallback cache and (forbidden) at the
        # overflowing edge cache
        decided = {k[0]: set(t.log.at) for k, t in first.items()}
        assert decided == {
            "a": {"IS1", "IS1b"}, "b": {"IS1", "IS1b"},
            "c": {"IS2", "IS2b"}, "d": {"IS2", "IS2b"},
        }
        assert all(t.commit == 0 for t in first.values())
        new_fs = {k: t.new_fs for k, t in first.items()}
        # re-install e's file unchanged: IS2's slot is renewed although
        # its usage is the same -- slots are per location, never per
        # content or time window
        e_fs = selector.ledger.schedule.file("e")
        again = self._restamp_is2(
            selector, catalog, topo,
            FileSchedule("e", list(e_fs.deliveries), list(e_fs.residencies)),
            overflows,
        )
        selector.select(again)
        # decided only on branch 1: reused; decided at the renewed IS2:
        # every decision there comes out the same, so revalidated without
        # serving a request
        assert selector.trials_run == 4
        assert selector.trials_reused == 2
        assert selector.trials_revalidated == 2
        assert selector.trials_resumed == selector.serves_kept == 0
        assert selector.serves_served == 8  # the first round's only
        for key, trial in first.items():
            now = selector._trials[key]
            if key[0] in "ab":
                assert now is trial
                continue
            assert now.new_fs is trial.new_fs and now.log is trial.log
            assert now.new_fs == new_fs[key]
            # revalidated at the commit that renewed IS2 (and not IS2b)
            assert now.commit == selector.ledger.commits == 1
            assert set(now.log.at) == {"IS2", "IS2b"}

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
        # the flipped decisions belong to each file's second request: the
        # greedy resumes there and keeps the first delivery
        assert selector.trials_run == 4
        assert selector.trials_reused == 2
        assert selector.trials_revalidated == 0
        assert selector.trials_resumed == 2
        assert selector.serves_kept == 2
        assert selector.serves_served == 8 + 2
        working = selector.ledger.schedule
        by_video = _two_branch_env()[3].by_video()
        for key, trial in first.items():
            if key[0] in "ab":
                assert selector._trials[key] is trial
                continue
            rerun = selector._trials[key]
            assert rerun is not trial
            assert rerun.new_fs != trial.new_fs
            assert rerun.new_fs.deliveries[0] is trial.new_fs.deliveries[0]
            assert rerun.new_fs == reference_reschedule(
                selector._cm, catalog[key[0]], by_video[key[0]], working,
                forbidden=[(key[1], key[2])], background=None, seeds=(),
            )

    def test_work_counters_and_round_spans(self):
        topo, catalog, cm, batch = _two_branch_env()
        heavy_topo, heavy_catalog, heavy_batch = _instance(*HEAVY)
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
                    ("resumed", "resumed"),
                )
            }
            kept = sum(dict(r.attrs)["kept"] for r in rounds)
            decisions = {
                part: sum(dict(r.attrs)[part] for r in rounds)
                for part in ("logged", "redecided")
            }
            (sorp_span,) = [r for r in obs.tracer.records if r.name == "sorp"]
            attrs = dict(sorp_span.attrs)
            assert attrs["revalidated"] == counts["revalidated"]
            assert attrs["resumed"] == counts["resumed"]
            assert attrs["kept"] == kept
            assert {part: attrs[part] for part in decisions} == decisions
            assert {
                v["labels"]["part"]: v["value"]
                for v in obs.metrics.snapshot()["vor_sorp_decisions_total"][
                    "values"
                ]
            } == decisions
            # every revalidated trial re-decided at least one decision
            assert decisions["redecided"] >= counts["revalidated"]
            assert _trial_outcomes(obs) == counts
            # every priced trial is run, reused, revalidated or resumed
            assert sum(counts.values()) == priced.call_count
            assert counts["reused"] > 0  # the untouched trials are reused
            serves = {
                v["labels"]["part"]: v["value"]
                for v in obs.metrics.snapshot()["vor_sorp_trial_serves_total"][
                    "values"
                ]
            }
            assert serves["kept"] == kept
            # a run serves every request of its file, a resume the rest
            assert serves["served"] >= counts["run"] + counts["resumed"]
            builds = obs.metrics.snapshot()["vor_sorp_timeline_builds_total"]
            assert builds["values"][0]["value"] > 0
        # the heavy instance revalidates and resumes
        assert counts["revalidated"] > 0 and counts["resumed"] > 0 and kept > 0
        assert decisions["logged"] > 0 and decisions["redecided"] > 0

    def test_decision_counters(self):
        selector, overflows, catalog, topo = self._selector()
        selector.select(overflows)
        # each trial's second request asks about the forbidden edge cache,
        # then the fallback: two logged decisions per trial
        assert selector.decisions_logged == 4 * 2
        assert selector.decisions_redecided == 0
        e_fs = selector.ledger.schedule.file("e")
        self._restamp_is2(
            selector, catalog, topo,
            FileSchedule("e", list(e_fs.deliveries), list(e_fs.residencies)),
            overflows,
        )
        selector.select(overflows)
        # the c/d trials re-decide their one IS2 decision and revalidate
        assert selector.trials_revalidated == 2
        assert selector.decisions_redecided == 2
        assert selector.decisions_logged == 8
        blocker = ResidencyInfo("f", "IS2", "VW", 0.0, 100.0)
        assert selector.ledger.set_file(FileSchedule("f", [], [blocker])) == {"IS2"}
        again = detect_overflows(
            selector.ledger.schedule, catalog, topo, ledger=selector.ledger
        )
        assert again == overflows
        selector.select(again)
        # now that decision flips: each resumes at request 1 and logs both
        # of its decisions again
        assert selector.trials_resumed == 2
        assert selector.decisions_redecided == 2 + 2
        assert selector.decisions_logged == 8 + 2 * 2

def _chain_env(n, gap, a_last):
    """``VW - IS1 - IS1b``: file ``v`` is requested ``n`` times, ``gap``
    apart, and ``a`` at 0.5 and ``a_last``, all behind the small edge
    cache ``IS1b``.  Both cache there and overflow it, so each trial falls
    back to ``IS1`` and decides there once per request after the first,
    until the edge cache is free again.  File ``f`` is never requested; a
    test installs it at ``IS1`` to block it."""
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=1e-3, capacity=1000.0)
    topo.add_storage("IS1b", srate=1e-3, capacity=150.0)
    topo.add_edge("VW", "IS1", nrate=1.0)
    topo.add_edge("IS1", "IS1b", nrate=1.0)
    catalog = VideoCatalog(
        [
            VideoFile("v", size=100.0, playback=10.0),
            VideoFile("a", size=100.0, playback=10.0),
            VideoFile("f", size=950.0, playback=10.0),
        ]
    )
    reqs = [Request(j * gap, "v", f"v{j}", "IS1b") for j in range(n)]
    reqs += [
        Request(0.5, "a", "a0", "IS1b"),
        Request(a_last, "a", "a1", "IS1b"),
    ]
    return topo, catalog, CostModel(topo, catalog), RequestBatch(reqs)


def _chain_selector(n, gap, a_last=None):
    a_last = n * gap + 0.5 if a_last is None else a_last
    topo, catalog, cm, batch = _chain_env(n, gap, a_last)
    working = IndividualScheduler(cm).solve(batch)
    working.set_file(FileSchedule("f", [], []))
    selector = sorp_module._VictimSelector(
        working, cm, batch.by_video(), HeatMetric.SPACE_TIME_PER_COST, None, {}
    )
    (of,) = detect_overflows(working, catalog, topo, ledger=selector.ledger)
    assert of.location == "IS1b"
    return selector, of, batch


def _first_divergence(selector, trial, of):
    """Owner of ``trial``'s first decision that the from-scratch reference
    oracle, on the current working schedule, decides differently."""
    working = selector.ledger.schedule
    oracle = ReferenceOracle(
        working, selector._cm.catalog, selector._cm.topology,
        trial.new_fs.video_id,
    )
    for i, (loc, t_start, t_last, profile, allowed) in enumerate(
        trial.log.decisions
    ):
        forbidden = loc == of.location and profile.positive_in(*of.interval)
        if (not forbidden and oracle.fits(loc, profile)) != allowed:
            return trial.log.owner(i)
    return None


def _assert_trials_match_reference(selector, batch):
    by_video = batch.by_video()
    catalog = selector._cm.catalog
    for (vid, loc, window), trial in selector._trials.items():
        assert trial.forbidden == (loc, window)
        assert trial.new_fs == reference_reschedule(
            selector._cm, catalog[vid], by_video[vid], selector.ledger.schedule,
            forbidden=[(loc, window)], background=None, seeds=(),
        )
    # the whole SORP run from this state agrees with the reference too
    assert_matches_reference(selector.ledger.schedule, batch, selector._cm)


class TestReplay:
    """Trials priced from a predecessor equal from-scratch reschedules."""

    def _block(self, selector, start):
        """Fill ``IS1`` from ``start`` on with the unrequested ``f``."""
        blocker = ResidencyInfo("f", "IS1", "VW", start, start + 100.0)
        assert selector.ledger.set_file(FileSchedule("f", [], [blocker])) == {
            "IS1"
        }

    def test_divergence_at_request_k_keeps_k_serves(self):
        selector, of, batch = _chain_selector(6, 20.0)
        selector.select([of])
        prior = selector._trials[("v", "IS1b", of.interval)]
        assert {loc for loc, *_ in prior.log.decisions} == {"IS1", "IS1b"}
        # v's IS1 caches still holding more than 50 past t = 61 no longer
        # fit beside f; request 2's drains out by t = 50, request 3's
        # (served at t = 60) does not: its decision flips first
        self._block(selector, 61.0)
        kept, served = selector.serves_kept, selector.serves_served
        selector.select([of])
        trial = selector._trials[("v", "IS1b", of.interval)]
        assert _first_divergence(selector, prior, of) == 3
        assert selector.trials_resumed == 2  # v at request 3, a at 1
        assert selector.serves_kept - kept == 3 + 1
        assert selector.serves_served - served == (6 - 3) + (2 - 1)
        assert trial.new_fs.deliveries[:3] == prior.new_fs.deliveries[:3]
        assert all(
            d is p for d, p in zip(trial.new_fs.deliveries[:3], prior.new_fs.deliveries)
        )
        assert trial.new_fs.deliveries[3:] != prior.new_fs.deliveries[3:]
        assert trial.log.decisions[: prior.log.marks[3][0]] == (
            prior.log.decisions[: prior.log.marks[3][0]]
        )
        _assert_trials_match_reference(selector, batch)

    @given(
        n=st.integers(min_value=3, max_value=8),
        gap=st.sampled_from([5.0, 12.5, 20.0, 40.0]),
        at=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_forced_divergence(self, n, gap, at):
        selector, of, batch = _chain_selector(n, gap)
        selector.select([of])
        prior = selector._trials[("v", "IS1b", of.interval)]
        self._block(selector, at * (n - 1) * gap + 10.0)
        expected = _first_divergence(selector, prior, of)
        kept = selector.serves_kept
        selector.select([of])
        trial = selector._trials[("v", "IS1b", of.interval)]
        if expected is None:
            assert trial.new_fs is prior.new_fs
        else:
            assert expected > 0  # request 0 decides nothing
            assert selector.serves_kept - kept >= expected
            assert trial.new_fs.deliveries[:expected] == (
                prior.new_fs.deliveries[:expected]
            )
        _assert_trials_match_reference(selector, batch)

    @given(
        n=st.integers(min_value=3, max_value=8),
        gap=st.sampled_from([5.0, 12.5, 20.0, 40.0]),
        a_last=st.floats(min_value=0.0, max_value=1.0),
        lo=st.floats(min_value=0.0, max_value=1.0),
        width=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_change_replay(self, n, gap, a_last, lo, width):
        # a caches a full copy (span >= playback) for the overflow to exist
        selector, of, batch = _chain_selector(n, gap, 10.5 + a_last * n * gap)
        selector.select([of])
        span = (n + 1) * gap
        window = (lo * span, lo * span + width * span + 1e-3)
        moved = OverflowSituation(
            of.location, window, of.members, of.peak_usage, of.capacity,
            of.excess_spacetime,
        )
        before = (selector.trials_run, selector.trials_reused)
        selector.select([moved])
        # a new key: priced from the predecessor under the old window,
        # never reused as is and never run from scratch
        assert (selector.trials_run, selector.trials_reused) == before
        assert selector.trials_revalidated + selector.trials_resumed == 2
        _assert_trials_match_reference(selector, batch)

    @given(
        n=st.integers(min_value=3, max_value=8),
        gap=st.sampled_from([5.0, 12.5, 20.0, 40.0]),
        a_last=st.floats(min_value=0.0, max_value=1.0),
        lo=st.floats(min_value=0.0, max_value=1.0),
        width=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_location_change_replay(self, n, gap, a_last, lo, width):
        selector, of, batch = _chain_selector(n, gap, 10.5 + a_last * n * gap)
        selector.select([of])  # both files priced at IS1b, from scratch
        span = (n + 1) * gap
        window = (lo * span, lo * span + width * span + 1e-3)
        at_is1 = OverflowSituation(
            "IS1", window, of.members, of.peak_usage, of.capacity,
            of.excess_spacetime,
        )
        before = (selector.trials_run, selector.trials_reused)
        selector.select([at_is1])
        # a new location: priced from each file's latest trial, the one
        # at IS1b, never reused as is and never run from scratch
        assert (selector.trials_run, selector.trials_reused) == before
        assert selector.trials_revalidated + selector.trials_resumed == 2
        assert {v: t.forbidden for v, t in selector._latest.items()} == {
            "v": ("IS1", window), "a": ("IS1", window),
        }
        _assert_trials_match_reference(selector, batch)

    def test_two_overflows_in_one_round(self):
        selector, of, batch = _chain_selector(6, 20.0)
        at_is1 = OverflowSituation(
            "IS1", of.interval, of.members, of.peak_usage, of.capacity,
            of.excess_spacetime,
        )
        selector.select([of, at_is1])
        # each file runs once, at IS1b; its IS1 trial is priced from that
        # one in the same round: forbidding IS1 flips each file's first
        # decision there, made by its request 1, so both resume there
        assert selector.trials_run == 2
        assert selector.trials_resumed == 2 and selector.serves_kept == 2
        assert selector.serves_served == (6 + 2) + (5 + 1)
        assert set(selector._trials) == {
            (v, loc, of.interval) for v in "va" for loc in ("IS1b", "IS1")
        }
        assert {v: t.forbidden for v, t in selector._latest.items()} == {
            "v": ("IS1", of.interval), "a": ("IS1", of.interval),
        }
        first = dict(selector._trials)
        _assert_trials_match_reference(selector, batch)
        # nothing committed: the trial of the same key, not the file's
        # latest, is each one's predecessor, so all four are reused
        selector.select([of, at_is1])
        assert selector.trials_reused == 4
        assert selector.trials_run == selector.trials_resumed == 2
        assert all(selector._trials[k] is t for k, t in first.items())

    def test_window_change_covers_both_outcomes(self):
        # the overflow ends as a drains (t = 35.5), so v caches at the edge
        # again from its request 3 (t = 60) on
        selector, of, _ = _chain_selector(6, 20.0, 30.5)
        selector.select([of])
        t0, t1 = of.interval
        assert (t0, t1) == pytest.approx((0.5, 35.5))
        for window in ((t0 + 1.0, t1), (0.0, 1000.0)):
            selector.select(
                [
                    OverflowSituation(
                        of.location, window, of.members, of.peak_usage,
                        of.capacity, of.excess_spacetime,
                    )
                ]
            )
        # a slightly narrower window forbids the same caches: revalidated;
        # one over the whole day forbids v's later edge cache: v resumes
        # at request 3, a (never allowed there) revalidates again
        assert selector.trials_revalidated == 3
        assert selector.trials_resumed == 1
        assert selector.serves_kept == 3

    @given(inst=instances)
    @settings(max_examples=15, deadline=None)
    def test_full_replay(self, inst):
        topo, catalog, batch = _instance(*inst)
        cm = CostModel(topo, catalog)
        working = IndividualScheduler(cm).solve(batch)
        selector = sorp_module._VictimSelector(
            working, cm, batch.by_video(), HeatMetric.SPACE_TIME_PER_COST,
            None, {},
        )
        overflows = detect_overflows(working, catalog, topo, ledger=selector.ledger)
        selector.select(overflows)
        first = dict(selector._trials)
        # re-install every file unchanged: every slot is renewed, so
        # every trial replays all its decisions and none comes out different
        for fs in list(working):
            selector.ledger.set_file(
                FileSchedule(fs.video_id, list(fs.deliveries), list(fs.residencies))
            )
        again = detect_overflows(working, catalog, topo, ledger=selector.ledger)
        assert again == overflows
        before = selector.counts()
        served = selector.serves_served
        selector.select(again)
        after = selector.counts()
        assert after["revalidated"] - before["revalidated"] == len(first)
        assert {k: after[k] for k in ("trials", "resumed", "kept")} == {
            k: before[k] for k in ("trials", "resumed", "kept")
        }
        assert selector.serves_served == served
        for key, trial in first.items():
            assert selector._trials[key].new_fs is trial.new_fs
        _assert_trials_match_reference(selector, batch)


class TestOracleQueries:
    def test_records_every_answer_cached_ones_included(self):
        topo, catalog, cm, batch = _two_branch_env()
        working = IndividualScheduler(cm).solve(batch)
        ledger = StorageLedger(working, catalog, topo)
        video = catalog["c"]

        def constraints(forbidden=()):
            return ResidencyConstraints(ledger, list(forbidden))

        first = constraints()
        assert first.allows(video, "IS2", 2.0, 52.0)
        with mock.patch(
            "repro.core.overflow.fits_under", side_effect=AssertionError
        ):
            # same victim, same slot: answered from the shared cache...
            second = constraints([("IS2b", (0.0, 1.0))])
            assert second.allows(video, "IS2", 2.0, 52.0)
            # ...and a forbidden residency never reaches the oracle
            assert not second.allows(video, "IS2b", 0.0, 100.0)
        assert second.allows(video, "IS2", 2.0, 52.0)  # asked again
        assert second.allows(video, "IS2", 52.0, 52.0)  # zero extent
        fits = ledger.profile("c", 2.0, 52.0)
        assert first.log.decisions == [("IS2", 2.0, 52.0, fits, True)]
        assert second.log.decisions == [
            ("IS2", 2.0, 52.0, fits, True),
            ("IS2b", 0.0, 100.0, ledger.profile("c", 0.0, 100.0), False),
            ("IS2", 2.0, 52.0, fits, True),
        ]
        assert second.log.at == {"IS2": [0, 2], "IS2b": [1]}
        assert list(second.log.in_order({"IS2", "IS2b"})) == [0, 1, 2]
        assert list(second.log.in_order({"IS2", "IS7"})) == [0, 2]

    def test_marks_owner_and_cut(self):
        log = DecisionLog()
        profile = residency_profile(100.0, 10.0, 0.0, 5.0)
        seeds = (ResidencyInfo("v", "IS1", "VW", 0.0, 0.0),)
        log.mark(list(seeds))  # request 0 decides nothing
        log.mark(list(seeds))
        log.record("IS1", 0.0, 5.0, profile, True)
        log.record("IS2", 0.0, 5.0, profile, False)
        later = (ResidencyInfo("v", "IS1", "VW", 0.0, 5.0, ("u1",)),)
        log.mark(list(later))
        log.record("IS1", 0.0, 9.0, profile, True)
        assert [log.owner(i) for i in range(3)] == [1, 1, 2]
        prefix, residencies = log.cut(2)
        assert residencies == later
        assert prefix.decisions == log.decisions[:2]
        assert prefix.marks == log.marks[:2]
        assert prefix.at == {"IS1": [0], "IS2": [1]}
        assert log.cut(1) == (DecisionLog([], log.marks[:1], {}), seeds)


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
        ledger = StorageLedger(schedule, catalog, topo)
        assert detect_overflows(schedule, catalog, topo, ledger=ledger) == []

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


class TestStorageLedger:
    def test_entries_mirror_schedule_order(self):
        topo, catalog, batch = _instance(1.5, 30, 2, 11)
        cm = CostModel(topo, catalog)
        schedule = IndividualScheduler(cm).solve(batch)
        ledger = StorageLedger(schedule, catalog, topo)
        for spec in topo.storages:
            want = schedule.residencies_at(spec.name)
            got = ledger.entries(spec.name)
            assert [c for c, _ in got] == want
            assert [p for _, p in got] == [
                residency_profile(
                    catalog[c.video_id].size, catalog[c.video_id].playback,
                    c.t_start, c.t_last,
                )
                for c in want
            ]

    def test_detect_with_ledger_equals_full_sweep(self):
        topo, catalog, batch = _instance(1.0, 20, 4, 3)
        cm = CostModel(topo, catalog)
        schedule = IndividualScheduler(cm).solve(batch)
        ledger = StorageLedger(schedule, catalog, topo)
        full = detect_overflows(schedule, catalog, topo)
        assert full
        assert detect_overflows(schedule, catalog, topo, ledger=ledger) == full
        # a second sweep is served from the slots
        builds = ledger.timeline_builds
        assert detect_overflows(schedule, catalog, topo, ledger=ledger) == full
        assert ledger.timeline_builds == builds

    def test_ledger_must_mirror_the_swept_schedule(self):
        topo, catalog, batch = _instance(1.0, 12, 1, 3)
        schedule = IndividualScheduler(CostModel(topo, catalog)).solve(batch)
        ledger = StorageLedger(schedule.copy(), catalog, topo)
        with pytest.raises(ValueError):
            detect_overflows(schedule, catalog, topo, ledger=ledger)

    def test_absent_victim_shares_the_detection_timeline(self):
        topo, catalog, cm, batch = _two_branch_env()
        working = IndividualScheduler(cm).solve(batch)
        ledger = StorageLedger(working, catalog, topo)
        detect_overflows(working, catalog, topo, ledger=ledger)
        swept = ledger.view("IS2b")  # built by the sweep: IS2b overflows
        builds = ledger.timeline_builds
        # e caches only at IS2: at IS2b it sees the swept timeline itself
        assert "e" not in {c.video_id for c, _ in ledger.entries("IS2b")}
        assert ledger.view("IS2b", "e") is swept
        profile = ledger.profile("e", 2.0, 52.0)
        assert ledger.fits("IS2b", "e", 2.0, 52.0, profile) == fits_under(
            swept, profile, topo.capacity("IS2b")
        )
        assert ledger.timeline_builds == builds
        # a present victim gets its own view, built once per slot
        own = ledger.view("IS2b", "c")
        assert own is not swept and ledger.view("IS2b", "c") is own
        assert ledger.timeline_builds == builds + 1
        # a commit at IS2b renews its slot: the next sweep builds afresh
        c_fs = working.file("c")
        assert "IS2b" in ledger.set_file(
            FileSchedule("c", list(c_fs.deliveries), list(c_fs.residencies))
        )
        assert ledger.view("IS2b", "e") is not swept

    @given(
        inst=instances,
        with_background=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_fits_matches_reference_oracle(self, inst, with_background, seed):
        # uniform queries from a drawn seed: shrunk float draws cluster on
        # boundary values, where every victim's answer agrees
        rng = random.Random(seed)
        topo, catalog, batch = _instance(*inst)
        working = IndividualScheduler(CostModel(topo, catalog)).solve(batch)
        storages = [spec.name for spec in topo.storages]
        videos = [v.video_id for v in catalog]
        t_lo, t_hi = batch.span

        def window():
            # spans under a playback keep profiles partial (γ < 1), so
            # answers mix
            t_start = rng.uniform(t_lo, t_hi)
            return t_start, t_start + rng.uniform(0.0, units.HOUR)

        background = None
        if with_background:
            background = {}
            for loc in rng.sample(storages, 6):
                video = catalog[rng.choice(videos)]
                background[loc] = [
                    residency_profile(video.size, video.playback, *window())
                ]
        ledger = StorageLedger(working, catalog, topo, background)

        def check(location, video_id, t_start, t_last):
            profile = ledger.profile(video_id, t_start, t_last)
            video = catalog[video_id]
            assert profile == residency_profile(
                video.size, video.playback, t_start, t_last
            )
            reference = ReferenceOracle(
                working, catalog, topo, video_id, background
            )
            got = ledger.fits(location, video_id, t_start, t_last, profile)
            assert got == reference.fits(location, profile)

        for _ in range(2):  # before and after a commit
            for _ in range(10):
                location = rng.choice(storages)
                present = sorted({c.video_id for c, _ in ledger.entries(location)})
                absent = [v for v in videos if v not in present]
                t_start, t_last = window()  # one window for both victims
                if present:
                    check(location, rng.choice(present), t_start, t_last)
                check(location, rng.choice(absent), t_start, t_last)
            # commit a file without its first residency
            fs = working.file(rng.choice([f.video_id for f in working]))
            ledger.set_file(
                FileSchedule(fs.video_id, list(fs.deliveries), fs.residencies[1:])
            )
