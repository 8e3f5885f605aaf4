"""Tests for replayable fault feeds: ordering, the cumulative plan, seeded
generation, and the shared JSONL codec cases (:mod:`tests.feed_codec`)."""

import pytest

from repro import Topology, units
from repro.errors import FaultError
from repro.faults import FaultEvent, FaultFeed, FaultKind, FaultPlan, FaultSpec

from ..feed_codec import FeedCodecCases


def _spec(t0=1.0, t1=2.0, target="IS1", kind=FaultKind.IS_OUTAGE):
    return FaultSpec(kind=kind, target=target, t_start=t0, t_end=t1)


def _topo():
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=units.per_gb_hour(2), capacity=units.gb(6))
    topo.add_storage("IS2", srate=units.per_gb_hour(2), capacity=units.gb(6))
    topo.add_edge("VW", "IS1", nrate=units.per_gb(500))
    topo.add_edge("IS1", "IS2", nrate=units.per_gb(300))
    return topo


class TestFaultEvent:
    def test_nonfinite_arrival_rejected(self):
        with pytest.raises(FaultError, match="finite"):
            FaultEvent(at=float("nan"), fault=_spec())

    def test_roundtrips_through_dict(self):
        e = FaultEvent(at=3.5, fault=_spec())
        assert FaultEvent.from_dict(e.to_dict()) == e


class TestFaultFeed:
    def test_events_sorted_by_arrival(self):
        late = FaultEvent(at=9.0, fault=_spec(10.0, 11.0))
        early = FaultEvent(at=1.0, fault=_spec(2.0, 3.0, target="IS2"))
        feed = FaultFeed(events=(late, early))
        assert [e.at for e in feed] == [1.0, 9.0]

    def test_len_bool_span(self):
        assert not FaultFeed()
        feed = FaultFeed(
            events=(
                FaultEvent(at=1.0, fault=_spec(2.0, 3.0)),
                FaultEvent(at=5.0, fault=_spec(6.0, 7.0, target="IS2")),
            )
        )
        assert len(feed) == 2
        assert feed.span == (1.0, 5.0)

    def test_plan_is_canonical_cumulative_plan(self):
        feed = FaultFeed(
            events=(
                FaultEvent(at=1.0, fault=_spec(2.0, 5.0)),
                FaultEvent(at=2.0, fault=_spec(4.0, 8.0)),  # merges
            ),
            name="n",
            seed=7,
        )
        plan = feed.plan()
        assert plan == FaultPlan(
            faults=(_spec(2.0, 8.0),), name="n", seed=7
        )

    def test_until_keeps_prefix(self):
        feed = FaultFeed(
            events=(
                FaultEvent(at=1.0, fault=_spec(2.0, 3.0)),
                FaultEvent(at=5.0, fault=_spec(6.0, 7.0, target="IS2")),
            )
        )
        assert len(feed.until(1.0)) == 1
        assert len(feed.until(10.0)) == 2


class TestFeedSerialization(FeedCodecCases):
    feed_cls, error = FaultFeed, FaultError

    @pytest.fixture
    def feed(self):
        return FaultFeed(
            events=(
                FaultEvent(at=1.0, fault=_spec(2.0, 3.0)),
                FaultEvent(at=5.0, fault=_spec(6.0, 7.0, target="IS2")),
            ),
            name="drill",
            seed=11,
        )


class TestGenerate:
    def test_same_seed_same_feed(self):
        topo = _topo()
        kw = dict(seed=5, horizon=(0.0, 100.0), n_events=4)
        assert FaultFeed.generate(topo, **kw) == FaultFeed.generate(topo, **kw)

    def test_different_seeds_differ(self):
        topo = _topo()
        a = FaultFeed.generate(topo, seed=5, horizon=(0.0, 100.0))
        b = FaultFeed.generate(topo, seed=6, horizon=(0.0, 100.0))
        assert a != b

    def test_arrivals_lead_their_faults(self):
        feed = FaultFeed.generate(_topo(), seed=5, horizon=(0.0, 100.0))
        assert len(feed) == 4
        for event in feed:
            assert 0.0 <= event.at <= event.fault.t_start

    def test_generated_feed_roundtrips(self, tmp_path):
        feed = FaultFeed.generate(_topo(), seed=9, horizon=(0.0, 50.0))
        path = tmp_path / "gen.jsonl"
        feed.save(path)
        assert FaultFeed.load(path) == feed
