"""Incremental quoting: fresh delivery vs residency extension."""

from __future__ import annotations

import pytest

from repro import (
    CostModel,
    IndividualScheduler,
    Request,
    RequestBatch,
    Topology,
    paper_catalog,
    paper_topology,
    units,
)
from repro.extensions import DiurnalCostModel, TimeOfDayTariff
from repro.gateway import QUOTE_BASES, QuoteEngine
from repro.obs import Observability

ONE_PM = 13 * units.HOUR
TWO_THIRTY_PM = 14.5 * units.HOUR
FOUR_PM = 16 * units.HOUR


@pytest.fixture
def engine(fig2_topology, fig2_catalog):
    return QuoteEngine(CostModel(fig2_topology, fig2_catalog))


def _request(start, user, storage):
    return Request(start, "movie", user, storage)


class TestFreshDelivery:
    def test_first_quote_is_cheapest_route_psi_d(self, engine, fig2_video):
        request = _request(TWO_THIRTY_PM, "U2", "IS2")
        quote = engine.quote(request)
        cm = engine.cost_model
        psi_d, route = cm.cheapest_home(
            "movie", TWO_THIRTY_PM, cm.router.routes_to("IS2")
        )
        assert quote.basis == "delivery"
        assert quote.basis in QUOTE_BASES
        assert quote.price == psi_d
        assert quote.price == pytest.approx(
            fig2_video.network_volume * route.rate
        )
        assert quote.psi_d_fresh == quote.price
        assert quote.psi_c_extension is None

    def test_quoting_does_not_mutate_state(self, engine):
        request = _request(TWO_THIRTY_PM, "U2", "IS2")
        first = engine.quote(request)
        assert engine.quote(request) == first


class TestQuoteEqualsJournal:
    """The quote's fresh-delivery price is the warehouse price the greedy
    journals for the same request, to the last bit."""

    @pytest.mark.parametrize("tariffed", [False, True])
    def test_psi_d_fresh_is_the_journaled_warehouse_price(self, tariffed):
        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(5),
            capacity=units.gb(5),
        )
        catalog = paper_catalog(60, seed=4)
        tariff = TimeOfDayTariff.evening_peak()
        start, storage = 19 * units.HOUR, "IS7"
        # a video whose tariffed Ψ_D depends on the operand order, so
        # pricing the two paths differently shows
        rate = CostModel(topo, catalog).router.route("VW", storage).rate
        m = tariff.multiplier(start)
        video_id = next(
            v for v in catalog.ids
            if catalog[v].network_volume * rate * m
            != catalog[v].network_volume * m * rate
        )
        cm = (
            DiurnalCostModel(topo, catalog, tariff) if tariffed
            else CostModel(topo, catalog)
        )
        request = Request(start, video_id, "u1", storage)
        quote = QuoteEngine(cm).quote(request)
        obs = Observability.on(journal=True)
        IndividualScheduler(cm, obs=obs).solve(RequestBatch([request]))
        (event,) = [e for e in obs.journal if e.kind == "phase1-assigned"]
        assert float.hex(quote.psi_d_fresh) == float.hex(
            dict(event.attrs)["warehouse_psi_d"]
        )


class TestResidencyExtension:
    def test_extension_beats_second_delivery(self, engine):
        """The Fig. 2 economics: caching at IS2 between the 2:30 and 4:00
        showings is cheaper than a second independent stream."""
        engine.admit(_request(TWO_THIRTY_PM, "U2", "IS2"))
        quote = engine.quote(_request(FOUR_PM, "U3", "IS2"))
        assert quote.basis == "residency-extension"
        assert quote.psi_c_extension is not None
        assert 0 < quote.price < quote.psi_d_fresh

    def test_showing_inside_admitted_span_is_marginal_free(self, engine):
        engine.admit(_request(ONE_PM, "U1", "IS2"))
        engine.admit(_request(FOUR_PM, "U3", "IS2"))
        quote = engine.quote(_request(TWO_THIRTY_PM, "U2", "IS2"))
        assert quote.basis == "residency-extension"
        assert quote.price == 0.0

    def test_other_storage_does_not_share_the_copy(self, engine):
        engine.admit(_request(TWO_THIRTY_PM, "U2", "IS2"))
        quote = engine.quote(_request(FOUR_PM, "U3", "IS1"))
        assert quote.basis == "delivery"
        assert quote.psi_c_extension is None

    def test_reset_forgets_the_building_batch(self, engine):
        engine.admit(_request(TWO_THIRTY_PM, "U2", "IS2"))
        engine.reset()
        quote = engine.quote(_request(FOUR_PM, "U3", "IS2"))
        assert quote.basis == "delivery"

    def test_admit_widens_span_both_ways(self, engine):
        engine.admit(_request(TWO_THIRTY_PM, "U2", "IS2"))
        engine.admit(_request(ONE_PM, "U1", "IS2"))
        quote = engine.quote(_request(TWO_THIRTY_PM, "U4", "IS2"))
        assert quote.price == 0.0


class TestReachability:
    def test_connected_neighborhood_reachable(self, engine):
        assert engine.quote(_request(ONE_PM, "U1", "IS1")) is not None

    def test_isolated_neighborhood_unreachable(self, fig2_catalog):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage(
            "IS1", srate=units.per_gb_hour(1.0), capacity=units.gb(10)
        )
        topo.add_storage(
            "ISX", srate=units.per_gb_hour(1.0), capacity=units.gb(10)
        )
        topo.add_edge("VW", "IS1", nrate=units.per_gb(500))
        engine = QuoteEngine(CostModel(topo, fig2_catalog))
        assert engine.quote(_request(ONE_PM, "U1", "ISX")) is None
        assert engine.quote(_request(ONE_PM, "U1", "IS_unknown")) is None

    def test_json_dict_carries_provenance(self, engine):
        doc = engine.quote(_request(ONE_PM, "U1", "IS1")).to_json_dict()
        assert set(doc) == {"price", "basis", "psi_d_fresh", "psi_c_extension"}
