"""Property-based invariants of the cost model.

Each seeded-``random`` property fuzzes ~200 parameter tuples:

* **Ψ_C continuity** at the long/short residency boundary ``t_f - t_s = P``
  (where Eq. 3 hands over to the Eq. 6-7 gamma form);
* **Ψ_C monotonicity** in residency length and in ``srate``;
* **Ψ_D additivity** over hops (per-hop charging is a sum of edge rates);
* **route-table transparency**: evaluation with the route table equals
  evaluation without it bit-for-bit on random evaluation sequences.

A Hypothesis property pins :func:`~repro.core.costmodel.storage_cost`, the
one Eq. 2/3 expression the greedy and the cost model share, bit-for-bit to
the formula and to ``residency_cost_for`` with and without the route table.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostModel, Request, Topology, VideoCatalog, VideoFile
from repro.core.costmodel import storage_cost
from repro.core.schedule import DeliveryInfo, ResidencyInfo
from repro.core.spacefunc import charged_space_time, gamma_coefficient

N_TUPLES = 200


def _psi_c(srate: float, size: float, playback: float, span: float) -> float:
    """Reference Ψ_C straight from Eqs. 2-3 / 7."""
    return srate * charged_space_time(size, playback, span)


class TestPsiCContinuity:
    def test_continuous_at_long_short_boundary(self):
        rng = random.Random(0xC0)
        for _ in range(N_TUPLES):
            srate = rng.uniform(1e-12, 1e-6)
            size = rng.uniform(1e6, 1e10)
            playback = rng.uniform(60.0, 4 * 3600.0)
            at = _psi_c(srate, size, playback, playback)
            eps = playback * 1e-9
            below = _psi_c(srate, size, playback, playback - eps)
            above = _psi_c(srate, size, playback, playback + eps)
            scale = max(abs(at), 1e-30)
            assert abs(at - below) / scale < 1e-6
            assert abs(above - at) / scale < 1e-6

    def test_gamma_continuous_at_boundary(self):
        rng = random.Random(0xC1)
        for _ in range(N_TUPLES):
            playback = rng.uniform(1.0, 1e5)
            eps = playback * 1e-12
            g_below = gamma_coefficient(0.0, playback - eps, playback)
            assert gamma_coefficient(0.0, playback, playback) == 1.0
            assert abs(g_below - 1.0) < 1e-9


class TestPsiCMonotonicity:
    def test_monotone_in_residency_length(self):
        rng = random.Random(0xC2)
        for _ in range(N_TUPLES):
            srate = rng.uniform(1e-12, 1e-6)
            size = rng.uniform(1e6, 1e10)
            playback = rng.uniform(60.0, 4 * 3600.0)
            # straddle the long/short boundary deliberately
            a = rng.uniform(0.0, 2.0 * playback)
            b = rng.uniform(0.0, 2.0 * playback)
            lo, hi = min(a, b), max(a, b)
            assert _psi_c(srate, size, playback, lo) <= _psi_c(
                srate, size, playback, hi
            ) * (1 + 1e-12)

    def test_monotone_and_linear_in_srate(self):
        rng = random.Random(0xC3)
        for _ in range(N_TUPLES):
            size = rng.uniform(1e6, 1e10)
            playback = rng.uniform(60.0, 4 * 3600.0)
            span = rng.uniform(0.0, 3.0 * playback)
            s1 = rng.uniform(1e-12, 1e-6)
            s2 = s1 * rng.uniform(1.0, 100.0)
            c1 = _psi_c(s1, size, playback, span)
            c2 = _psi_c(s2, size, playback, span)
            assert c1 <= c2 * (1 + 1e-12)
            if c1 > 0:
                assert c2 / c1 == pytest.approx(s2 / s1, rel=1e-9)

    def test_zero_span_cost_is_half_playback_charge(self):
        """A zero-extent residency is free: gamma = 0 (Eq. 7)."""
        rng = random.Random(0xC4)
        for _ in range(N_TUPLES):
            size = rng.uniform(1e6, 1e10)
            playback = rng.uniform(60.0, 4 * 3600.0)
            assert _psi_c(rng.uniform(1e-12, 1e-6), size, playback, 0.0) == 0.0


def _chain_topology(rng: random.Random, n_storages: int) -> Topology:
    topo = Topology()
    topo.add_warehouse("VW")
    prev = "VW"
    for i in range(1, n_storages + 1):
        name = f"IS{i}"
        topo.add_storage(name, srate=rng.uniform(1e-12, 1e-9), capacity=1e12)
        topo.add_edge(prev, name, nrate=rng.uniform(1e-10, 1e-7))
        prev = name
    return topo


class TestPsiDAdditivity:
    def test_delivery_cost_is_sum_of_hop_costs(self):
        rng = random.Random(0xD0)
        for _ in range(N_TUPLES):
            n = rng.randint(1, 5)
            topo = _chain_topology(rng, n)
            video = VideoFile("v", size=rng.uniform(1e8, 5e9), playback=5400.0)
            cm = CostModel(topo, VideoCatalog([video]))
            route = ("VW",) + tuple(f"IS{i}" for i in range(1, n + 1))
            req = Request(0.0, "v", "u", route[-1])
            d = DeliveryInfo("v", route, 0.0, req)
            expected = video.network_volume * math.fsum(
                topo.edge(a, b).nrate for a, b in zip(route, route[1:])
            )
            assert cm.delivery_cost(d) == pytest.approx(expected, rel=1e-12)

    def test_full_route_equals_sum_of_single_hop_legs(self):
        rng = random.Random(0xD1)
        for _ in range(N_TUPLES):
            n = rng.randint(2, 5)
            topo = _chain_topology(rng, n)
            video = VideoFile("v", size=rng.uniform(1e8, 5e9), playback=5400.0)
            cm = CostModel(topo, VideoCatalog([video]))
            nodes = ("VW",) + tuple(f"IS{i}" for i in range(1, n + 1))
            full = cm.delivery_cost(
                DeliveryInfo("v", nodes, 0.0, Request(0.0, "v", "u", nodes[-1]))
            )
            legs = 0.0
            for a, b in zip(nodes, nodes[1:]):
                if b == "VW":
                    continue
                legs += cm.delivery_cost(
                    DeliveryInfo("v", (a, b), 0.0, Request(0.0, "v", "u", b))
                )
            assert full == pytest.approx(legs, rel=1e-9)

    def test_zero_hop_delivery_is_free(self):
        rng = random.Random(0xD2)
        topo = _chain_topology(rng, 2)
        video = VideoFile("v", size=1e9, playback=5400.0)
        cm = CostModel(topo, VideoCatalog([video]))
        d = DeliveryInfo("v", ("IS1",), 0.0, Request(0.0, "v", "u", "IS1"))
        assert cm.delivery_cost(d) == 0.0


class TestCacheTransparency:
    def test_cached_matches_uncached_bit_for_bit(self):
        rng = random.Random(0xE0)
        topo = _chain_topology(rng, 3)
        videos = [
            VideoFile(f"v{i}", size=rng.uniform(1e8, 5e9), playback=rng.uniform(1800, 7200))
            for i in range(4)
        ]
        catalog = VideoCatalog(videos)
        cached = CostModel(topo, catalog, cache=True)
        plain = CostModel(topo, catalog, cache=False)
        locations = ["IS1", "IS2", "IS3"]
        for _ in range(N_TUPLES):
            v = rng.choice(videos)
            loc = rng.choice(locations)
            t0 = rng.uniform(0.0, 1e5)
            span = rng.uniform(0.0, 3.0 * v.playback)
            assert cached.residency_cost_for(
                v.video_id, loc, t0, t0 + span
            ) == plain.residency_cost_for(v.video_id, loc, t0, t0 + span)
            c = ResidencyInfo(v.video_id, loc, "VW", t0, t0 + span)
            assert cached.residency_cost(c) == plain.residency_cost(c)
            # routes repeat, so the route table answers hits as well
            route = ("VW",) + tuple(locations[: locations.index(loc) + 1])
            d = DeliveryInfo(v.video_id, route, t0, Request(t0, v.video_id, "u", loc))
            assert cached.delivery_cost(d) == plain.delivery_cost(d)
        assert cached.cache_stats.hits > 0
        assert plain.cache_stats.lookups == 0


@st.composite
def _storage_cost_inputs(draw):
    """(srate, size, P, span), the span at 0, tiny, around P or huge."""
    srate = draw(st.floats(min_value=1e-12, max_value=1e3))
    size = draw(st.floats(min_value=1.0, max_value=1e12))
    playback = draw(st.floats(min_value=1e-3, max_value=1e5))
    span = draw(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=5e-324, max_value=1e-300),
            st.sampled_from(
                (
                    math.nextafter(playback, 0.0),
                    playback,
                    math.nextafter(playback, math.inf),
                )
            ),
            st.floats(min_value=0.0, max_value=3.0 * playback),
            st.floats(min_value=1e15, max_value=1e200),
        )
    )
    return srate, size, playback, span


class TestStorageCost:
    @given(inputs=_storage_cost_inputs())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_formula_and_both_model_paths(self, inputs):
        srate, size, playback, span = inputs
        got = storage_cost(srate, size, playback, span)
        g = gamma_coefficient(0.0, span, playback)
        assert got.hex() == (srate * size * g * (span + 0.5 * playback)).hex()
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=srate)
        topo.add_edge("VW", "IS1", nrate=1.0)
        catalog = VideoCatalog([VideoFile("v", size, playback)])
        for cache in (True, False):
            cm = CostModel(topo, catalog, cache=cache)
            via_model = cm.residency_cost_for("v", "IS1", 0.0, span)
            assert via_model.hex() == got.hex()
