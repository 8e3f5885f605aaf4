"""The replayable booking feed: canonical order, views, seeded generation,
and the shared JSONL codec cases (:mod:`tests.feed_codec`)."""

from __future__ import annotations

import math

import pytest

from repro import Request, WorkloadGenerator, units
from repro.errors import GatewayError
from repro.gateway import RequestEvent, RequestFeed

from ..feed_codec import FeedCodecCases


def _event(at=0.0, start=5 * units.HOUR, video="m0", user="u1", storage="IS1"):
    return RequestEvent(at=at, request=Request(start, video, user, storage))


class TestRequestEvent:
    def test_lead_is_booking_to_showing(self):
        assert _event(at=units.HOUR, start=5 * units.HOUR).lead == 4 * units.HOUR

    def test_non_finite_arrival_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(GatewayError, match="finite"):
                _event(at=bad)

    def test_dict_round_trip(self):
        event = _event(at=120.0)
        assert RequestEvent.from_dict(event.to_dict()) == event

    def test_from_dict_malformed(self):
        with pytest.raises(GatewayError, match="malformed request event"):
            RequestEvent.from_dict({"at": 0.0})


class TestCanonicalOrder:
    def test_events_sorted_on_construction(self):
        feed = RequestFeed(events=(_event(at=10.0), _event(at=0.0)))
        assert [e.at for e in feed] == [0.0, 10.0]

    def test_ties_broken_by_request_fields(self):
        a = _event(at=0.0, video="m0")
        b = _event(at=0.0, video="m1")
        assert RequestFeed(events=(b, a)).events == (a, b)

    def test_construction_order_irrelevant_for_equality(self):
        a, b = _event(at=0.0), _event(at=10.0)
        assert RequestFeed(events=(a, b)) == RequestFeed(events=(b, a))

    def test_duplicates_kept(self):
        feed = RequestFeed(events=(_event(), _event()))
        assert len(feed) == 2


class TestViews:
    def test_span_and_showing_span(self):
        feed = RequestFeed(
            events=(
                _event(at=5.0, start=4 * units.HOUR),
                _event(at=30.0, start=6 * units.HOUR),
            )
        )
        assert feed.span == (5.0, 30.0)
        assert feed.showing_span == (4 * units.HOUR, 6 * units.HOUR)

    def test_empty_feed_spans_raise(self):
        empty = RequestFeed()
        assert not empty
        with pytest.raises(GatewayError, match="empty"):
            empty.span
        with pytest.raises(GatewayError, match="empty"):
            empty.showing_span

    def test_until_keeps_prefix_and_identity(self):
        feed = RequestFeed(
            events=(_event(at=0.0), _event(at=10.0), _event(at=20.0)),
            name="f",
            seed=7,
        )
        sub = feed.until(10.0)
        assert [e.at for e in sub] == [0.0, 10.0]
        assert (sub.name, sub.seed) == ("f", 7)

    def test_batch_is_the_offline_view(self):
        feed = RequestFeed(events=(_event(at=0.0), _event(at=10.0, user="u2")))
        assert len(feed.batch()) == 2


class TestGenerate:
    def test_equal_arguments_equal_feed(self, gw_topology, gw_catalog):
        a = RequestFeed.generate(gw_topology, gw_catalog, seed=2)
        b = RequestFeed.generate(gw_topology, gw_catalog, seed=2)
        assert a == b

    def test_distinct_seeds_distinct_feeds(self, gw_topology, gw_catalog):
        a = RequestFeed.generate(gw_topology, gw_catalog, seed=2)
        b = RequestFeed.generate(gw_topology, gw_catalog, seed=3)
        assert a != b

    def test_batch_matches_direct_workload_generator(
        self, gw_topology, gw_catalog, gw_feed
    ):
        direct = WorkloadGenerator(
            gw_topology, gw_catalog, users_per_neighborhood=2
        ).generate(2)
        assert sorted(gw_feed.batch(), key=repr) == sorted(direct, key=repr)

    def test_bookings_arrive_before_their_showings(self, gw_feed):
        assert all(e.lead >= 0 for e in gw_feed)
        assert all(e.at >= 0.0 for e in gw_feed)


class TestJsonl(FeedCodecCases):
    feed_cls, error = RequestFeed, GatewayError

    @pytest.fixture
    def feed(self, gw_feed):
        return gw_feed
