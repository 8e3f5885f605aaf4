"""Regression: the null obs layer adds no allocations to the Ψ_C hot path.

The cost model computes Ψ_C with ``storage_cost`` and never consults the
observability handle while pricing; instrumented call sites hold the
shared null instruments.  This test pins both properties so a future
"just one little metric in the inner loop" change fails loudly.
"""

import tracemalloc

from repro import units
from repro.core.costmodel import CostModel
from repro.core.schedule import ResidencyInfo
from repro.obs import NULL_REGISTRY, NULL_TRACER
from repro.topology import worked_example_topology
from repro.catalog import VideoCatalog, VideoFile


def _warm_model():
    topo = worked_example_topology()
    catalog = VideoCatalog(
        [
            VideoFile(
                "movie",
                size=units.gb(2.5),
                playback=units.minutes(90),
                bandwidth=units.mbps(6),
            )
        ]
    )
    cm = CostModel(topo, catalog)
    residency = ResidencyInfo(
        video_id="movie",
        location="IS1",
        source="VW",
        t_start=units.HOUR,
        t_last=3 * units.HOUR,
    )
    cm.residency_cost(residency)  # warm the catalog and topology lookups
    return cm, residency


class TestNullOverhead:
    def test_warm_psi_c_path_allocates_nothing(self):
        cm, residency = _warm_model()
        baseline = cm.cache_stats
        tracemalloc.start()
        try:
            for _ in range(200):
                cm.residency_cost(residency)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cm.cache_stats == baseline  # Ψ_C makes no table lookups
        # only transient frame-local objects may appear (tracemalloc
        # itself can account a few bytes)
        assert peak < 4096, f"warm Ψ_C path allocated {peak} bytes"

    def test_null_instruments_are_shared_singletons(self):
        reg = NULL_REGISTRY
        assert reg.counter("vor_x_total", phase="ivsp") is reg.counter(
            "vor_y_total"
        )
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_null_counter_calls_do_not_grow_memory(self):
        counter = NULL_REGISTRY.counter("vor_anything_total")
        span = NULL_TRACER.span("anything")
        tracemalloc.start()
        try:
            for _ in range(1000):
                counter.inc()
                with span:
                    pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096, f"null instruments allocated {peak} bytes"
