"""The admission gateway: pre-screen, backpressure, sealing, determinism."""

from __future__ import annotations

import math

import pytest

from repro import (
    Request,
    Topology,
    VideoCatalog,
    VideoFile,
    units,
    worked_example_topology,
)
from repro.errors import GatewayError
from repro.gateway import (
    GatewayConfig,
    Reconciliation,
    RequestEvent,
    RequestFeed,
    ReservationGateway,
    TokenBucketPolicy,
)
from repro.obs.events import write_journal_jsonl

from .conftest import make_service

H = units.HOUR


def _movie_catalog():
    return VideoCatalog(
        [
            VideoFile(
                "movie",
                size=units.gb(2.5),
                playback=units.minutes(90),
                bandwidth=units.mbps(6),
            )
        ]
    )


def _ev(at, start, user, *, storage="IS1", video="movie"):
    return RequestEvent(at=at, request=Request(start, video, user, storage))


@pytest.fixture
def fig2_gateway():
    service = make_service(worked_example_topology(), _movie_catalog())
    return ReservationGateway(service)


class TestConfig:
    def test_negative_bounds_rejected(self):
        with pytest.raises(GatewayError, match="max_batch"):
            GatewayConfig(max_batch=-1)
        with pytest.raises(GatewayError, match="queue_depth"):
            GatewayConfig(queue_depth=-1)

    def test_boundaries_validated(self, fig2_gateway):
        feed = RequestFeed(events=(_ev(0.0, 13 * H, "U1"),))
        with pytest.raises(GatewayError, match="at least one"):
            fig2_gateway.run(feed, boundaries=[])
        with pytest.raises(GatewayError, match="ascending"):
            fig2_gateway.run(feed, boundaries=[20 * H, 10 * H])


class TestPrescreen:
    def test_unknown_title(self, fig2_gateway):
        assert fig2_gateway.intake(_ev(0.0, 13 * H, "U1", video="ghost")) == (
            "rejected"
        )
        report = fig2_gateway.seal(cycle_end=20 * H, final=True)
        assert report.rejected == {"unknown-title": 1}

    def test_unknown_storage(self, fig2_gateway):
        assert fig2_gateway.intake(_ev(0.0, 13 * H, "U1", storage="IS9")) == (
            "rejected"
        )
        report = fig2_gateway.seal(cycle_end=20 * H, final=True)
        assert report.rejected == {"unknown-storage": 1}

    def test_lead_time_against_the_booking_instant(self, fig2_gateway):
        # booked half an hour before the showing: under the 1 h service lead
        assert fig2_gateway.intake(_ev(12.5 * H, 13 * H, "U1")) == "rejected"
        report = fig2_gateway.seal(cycle_end=20 * H, final=True)
        assert report.rejected == {"lead-time": 1}

    def test_unreachable_neighborhood(self, fig2_gateway, monkeypatch):
        # a validated topology always routes, so stub the quote: the
        # gateway must turn a routing hole into a rejection, not a raise
        monkeypatch.setattr(fig2_gateway.quotes, "quote", lambda request: None)
        assert fig2_gateway.intake(_ev(0.0, 13 * H, "U1")) == "rejected"
        report = fig2_gateway.seal(cycle_end=20 * H, final=True)
        assert report.rejected == {"unreachable": 1}


class TestBackpressure:
    @pytest.fixture
    def gateway(self):
        service = make_service(worked_example_topology(), _movie_catalog())
        return ReservationGateway(
            service, config=GatewayConfig(max_batch=2, queue_depth=1)
        )

    def test_batch_then_queue_then_shed(self, gateway):
        assert gateway.intake(_ev(0.0, 13 * H, "U1")) == "admitted"
        assert gateway.intake(_ev(0.0, 14 * H, "U2")) == "admitted"
        assert gateway.intake(_ev(0.0, 16 * H, "U3")) == "queued"
        assert gateway.queue_length == 1

    def test_overflow_sheds_the_latest_showing(self, gateway):
        for at, start, user in ((0.0, 13 * H, "U1"), (0.0, 14 * H, "U2"),
                                (0.0, 16 * H, "U3")):
            gateway.intake(_ev(at, start, user))
        # newcomer shows later than everything queued: it is the victim
        assert gateway.intake(_ev(0.0, 18 * H, "U4")) == "shed"
        assert gateway.queue_length == 1

    def test_urgent_newcomer_displaces_the_queued_victim(self, gateway):
        for at, start, user in ((0.0, 13 * H, "U1"), (0.0, 14 * H, "U2"),
                                (0.0, 16 * H, "U3")):
            gateway.intake(_ev(at, start, user))
        # shows earlier than the queued 16:00 booking: that one is shed
        assert gateway.intake(_ev(0.0, 15 * H, "U5")) == "queued"
        assert gateway.queue_length == 1
        report = gateway.seal(cycle_end=20 * H, final=True)
        assert report.offered == 4
        assert report.admitted == 2
        # U3 at overflow, then the queued U5 at the final seal
        assert report.shed == 2
        assert report.queued == 0

    def test_zero_queue_depth_sheds_on_overflow(self):
        service = make_service(worked_example_topology(), _movie_catalog())
        gateway = ReservationGateway(
            service, config=GatewayConfig(max_batch=1, queue_depth=0)
        )
        assert gateway.intake(_ev(0.0, 13 * H, "U1")) == "admitted"
        assert gateway.intake(_ev(0.0, 14 * H, "U2")) == "shed"


class TestPromotion:
    def test_queued_bookings_promote_into_the_next_cycle(self):
        service = make_service(worked_example_topology(), _movie_catalog())
        gateway = ReservationGateway(
            service, config=GatewayConfig(max_batch=1, queue_depth=2)
        )
        feed = RequestFeed(
            events=(
                _ev(0.0, 13 * H, "U1"),
                _ev(0.0, 14 * H, "U2", storage="IS2"),
                _ev(0.0, 16 * H, "U3", storage="IS2"),
            )
        )
        run = gateway.run(feed, boundaries=[4 * H, 20 * H])
        first, second = run.cycles
        assert (first.offered, first.admitted, first.queued) == (3, 1, 2)
        # the most urgent queued booking (14:00) is promoted, the other
        # has no batch slot and no next cycle: shed at the final seal
        assert (second.offered, second.admitted, second.promoted) == (0, 1, 1)
        assert second.shed == 1
        assert run.feasible

    def test_expired_queued_booking_shed_at_the_boundary(self):
        """A queued showing the sealed cycle closed over can never move
        forward into a later cycle: it is shed as ``expired`` instead of
        poisoning the next seal."""
        service = make_service(worked_example_topology(), _movie_catalog())
        gateway = ReservationGateway(
            service, config=GatewayConfig(max_batch=1, queue_depth=2)
        )
        feed = RequestFeed(
            events=(
                _ev(0.0, 13 * H, "U1"),
                _ev(0.0, 13.5 * H, "U2"),  # queued, shows before the seal
                _ev(0.0, 16 * H, "U3", storage="IS2"),  # still promotable
            )
        )
        run = gateway.run(feed, boundaries=[14 * H, 20 * H])
        first, second = run.cycles
        assert first.shed == 1
        assert second.promoted == 1
        assert second.shed == 0
        assert run.feasible
        expired = [
            e for e in service.obs.journal
            if e.kind == "gate-shed" and dict(e.attrs)["reason"] == "expired"
        ]
        assert len(expired) == 1

    def test_idle_cycle_reports_ratio_one(self, fig2_gateway):
        report = fig2_gateway.seal(cycle_end=1 * H)
        assert report.admission_ratio == 1.0
        assert report.shed_rate == 0.0
        assert report.quote_error == 0.0


class TestSealing:
    def test_seal_books_solves_and_reconciles(self, fig2_gateway):
        for event in (
            _ev(0.0, 13 * H, "U1", storage="IS1"),
            _ev(0.0, 14.5 * H, "U2", storage="IS2"),
            _ev(0.0, 16 * H, "U3", storage="IS2"),
        ):
            assert fig2_gateway.intake(event) == "admitted"
        report = fig2_gateway.seal(cycle_end=20 * H, final=True)
        assert report.feasible
        assert report.admitted == 3
        assert report.quote_total > 0
        assert report.realized_total > 0
        assert math.isfinite(report.quote_error)
        assert len(report.reconciliation) == 3
        assert all(r.realized > 0 for r in report.reconciliation)

    def test_requests_agreeing_to_six_digits_stay_distinct(self, fig2_gateway):
        # one user, title and storage; the start times differ past the 6th
        # significant digit, which a ``:g``-formatted id would drop
        events = (_ev(0.0, 43210.61, "U1"), _ev(0.0, 43210.64, "U1"))
        for event in events:
            assert fig2_gateway.intake(event) == "admitted"
        report = fig2_gateway.seal(cycle_end=20 * H, final=True)
        requests = {e.request for e in events}
        assert set(report.report.billing.requests) == requests
        assert len(report.reconciliation) == 2
        journal = fig2_gateway.obs.journal
        admitted = [e.request_id for e in journal if e.kind == "admitted"]
        assert len(set(admitted)) == 2
        assert {r.request_id for r in report.reconciliation} == set(admitted)
        timelines = [journal.explain(rid) for rid in admitted]
        assert timelines[0] != timelines[1]
        for rid, timeline in zip(admitted, timelines):
            own = [e for e in timeline if e.request_id is not None]
            assert own and all(e.request_id == rid for e in own)

    def test_seal_resets_for_the_next_cycle(self, fig2_gateway):
        fig2_gateway.intake(_ev(0.0, 13 * H, "U1"))
        fig2_gateway.seal(cycle_end=20 * H)
        follow_up = fig2_gateway.seal(cycle_end=21 * H, final=True)
        assert follow_up.index == 1
        assert follow_up.offered == 0
        assert follow_up.reconciliation == ()  # nothing re-booked

    def test_run_counts_unconsumed_arrivals(self, fig2_gateway):
        feed = RequestFeed(
            events=(_ev(0.0, 13 * H, "U1"), _ev(21 * H, 23 * H, "U2"))
        )
        run = fig2_gateway.run(feed, boundaries=[20 * H])
        assert run.unconsumed == 1
        assert run.offered == 1

    def test_reconciliation_error_definition(self):
        assert Reconciliation("r", quoted=8.0, realized=10.0).error == (
            pytest.approx(0.2)
        )
        assert Reconciliation("r", quoted=0.0, realized=0.0).error == 0.0
        assert math.isinf(Reconciliation("r", quoted=1.0, realized=0.0).error)


class TestDeterminism:
    def _run(self, topology, catalog, feed, tmp_path, tag):
        service = make_service(topology, catalog)
        gateway = ReservationGateway(
            service,
            policy=TokenBucketPolicy(rate=0.001, burst=3),
            config=GatewayConfig(max_batch=20, queue_depth=5),
        )
        a0, a1 = feed.span
        last = max(a1, feed.showing_span[1])
        run = gateway.run(feed, boundaries=[(a0 + a1) / 2, last])
        path = write_journal_jsonl(
            tmp_path / f"journal-{tag}.jsonl", service.obs.journal
        )
        return run, path.read_bytes()

    def test_replay_is_bit_identical(
        self, gw_topology, gw_catalog, gw_feed, tmp_path
    ):
        first, journal_a = self._run(
            gw_topology, gw_catalog, gw_feed, tmp_path, "a"
        )
        second, journal_b = self._run(
            gw_topology, gw_catalog, gw_feed, tmp_path, "b"
        )
        assert first.to_json_dict() == second.to_json_dict()
        assert journal_a == journal_b


class TestDirectBatchEquivalence:
    """Accept-all + zero backpressure must be a no-op wrapper: the sealed
    cycle's schedule is bit-identical to feeding the service the same
    batch directly."""

    def test_matches_direct_batch_feed(self, gw_topology, gw_catalog, gw_feed):
        last = max(gw_feed.span[1], gw_feed.showing_span[1])

        service = make_service(gw_topology, gw_catalog)
        gateway = ReservationGateway(service)
        run = gateway.run(gw_feed, boundaries=[last])
        (sealed,) = run.cycles

        direct = make_service(gw_topology, gw_catalog)
        admissible = [
            e.request
            for e in gw_feed
            if e.request.start_time >= e.at + direct.lead_time
        ]
        for r in admissible:
            direct.reserve(
                r.user_id,
                r.video_id,
                r.start_time,
                local_storage=r.local_storage,
                now=r.start_time - direct.lead_time,
            )
        baseline = direct.close_cycle(cycle_end=last)

        assert sealed.admitted == len(admissible)
        assert sealed.report.cycle.schedule == baseline.cycle.schedule
        assert sealed.report.cycle.total_cost == baseline.cycle.total_cost
        assert sealed.feasible and baseline.feasible
