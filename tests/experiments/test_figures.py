"""Shape tests for the reproduced figures (quick configuration).

Each test asserts the qualitative claims the paper makes about its figure --
the reproduction's acceptance criteria -- on the scaled-down grid.
"""

import pytest

from repro.analysis import gap_between
from repro.experiments import (
    ExperimentRunner,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    quick_config,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(quick_config())


class TestFig5:
    @pytest.fixture(scope="class")
    def fig(self, runner):
        return fig5(runner, srates=(3, 8))

    def test_all_curves_increase_with_network_rate(self, fig):
        for s in fig.series:
            assert s.is_increasing(strict=True), s.name

    def test_no_storage_line_dominates(self, fig):
        baseline = fig.series_by_name("no intermediate storage")
        for s in fig.series:
            if s is baseline:
                continue
            assert baseline.dominates(s), s.name

    def test_advantage_grows_with_network_rate(self, fig):
        """The vertical gap to the no-cache line widens (paper Sec. 5.2)."""
        baseline = fig.series_by_name("no intermediate storage")
        cached = fig.series_by_name("srate=3")
        gaps = gap_between(baseline, cached)
        assert gaps[-1] > gaps[0] > 0

    def test_cheaper_storage_cheaper_schedule(self, fig):
        s3 = fig.series_by_name("srate=3")
        s8 = fig.series_by_name("srate=8")
        assert s8.dominates(s3)

    def test_baseline_is_linear(self, fig):
        baseline = fig.series_by_name("no intermediate storage")
        assert baseline.linearity() > 0.999

    def test_render_smoke(self, fig):
        out = fig.render()
        assert "fig5" in out and "no intermediate storage" in out


class TestFig6:
    @pytest.fixture(scope="class")
    def fig(self):
        runner = ExperimentRunner(quick_config(nrate_axis=(300, 600, 1000)))
        return fig6(runner, alphas=(0.1, 0.5, 0.9))

    def test_increasing_in_network_rate(self, fig):
        for s in fig.series:
            assert s.is_increasing(strict=True), s.name

    def test_flatter_access_patterns_cost_more(self, fig):
        lo = fig.series_by_name("alpha=0.1")
        hi = fig.series_by_name("alpha=0.9")
        assert hi.dominates(lo)
        assert hi.y[-1] > hi.y[0]


class TestFig7:
    @pytest.fixture(scope="class")
    def fig(self, runner):
        return fig7(runner)

    def test_cached_curve_increases_with_storage_rate(self, fig):
        assert fig.series_by_name("with intermediate storage").is_increasing()

    def test_network_only_flat(self, fig):
        base = fig.series_by_name("network only system")
        assert base.is_increasing() and base.is_decreasing()  # constant

    def test_saturates_toward_network_only_from_below(self, fig):
        cached = fig.series_by_name("with intermediate storage")
        base = fig.series_by_name("network only system")
        assert base.dominates(cached)
        gaps = gap_between(base, cached)
        # the gap shrinks as the storage rate grows
        assert gaps[-1] < gaps[0]
        assert gaps[-1] >= -1e-9

    def test_diminishing_sensitivity(self, fig):
        """Cost is most sensitive at low storage rates (paper Sec. 5.3)."""
        s = fig.series_by_name("with intermediate storage")
        xs, ys = s.x, s.y
        first_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        last_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        assert first_slope > last_slope >= 0


class TestFig8:
    @pytest.fixture(scope="class")
    def fig(self, runner):
        return fig8(runner, nrates=(300, 600, 1000))

    def test_each_curve_increasing(self, fig):
        for s in fig.series:
            assert s.is_increasing(), s.name

    def test_higher_network_rate_dominates(self, fig):
        s300 = fig.series_by_name("nrate=300")
        s1000 = fig.series_by_name("nrate=1000")
        assert s1000.dominates(s300)

    def test_network_rate_effect_roughly_linear(self, fig):
        """Total cost scales ~linearly in the network rate (Sec. 5.3)."""
        y300 = fig.series_by_name("nrate=300").y[0]
        y600 = fig.series_by_name("nrate=600").y[0]
        y1000 = fig.series_by_name("nrate=1000").y[0]
        # interpolate 600 between 300 and 1000 assuming linearity
        expected = y300 + (y1000 - y300) * (600 - 300) / (1000 - 300)
        assert y600 == pytest.approx(expected, rel=0.1)


class TestFig9:
    @pytest.fixture(scope="class")
    def fig(self):
        # Fig. 9's gap-narrowing claim needs enough per-neighborhood sharing
        # to show; use the paper's 10 users with a mid-size catalog.
        contended = ExperimentRunner(
            quick_config(n_files=150, users_per_neighborhood=10)
        )
        return fig9(contended, capacities=(5, 11))

    def test_cost_increases_with_alpha(self, fig):
        for s in fig.series:
            assert s.is_increasing(), s.name

    def test_smaller_storage_costs_more(self, fig):
        small = fig.series_by_name("IS size=5 GB")
        large = fig.series_by_name("IS size=11 GB")
        assert small.dominates(large)

    def test_storage_size_advantage_shrinks_with_alpha(self, fig):
        """Vertical distance between sizes narrows as alpha grows (Sec 5.4)."""
        small = fig.series_by_name("IS size=5 GB")
        large = fig.series_by_name("IS size=11 GB")
        gaps = gap_between(small, large)
        assert gaps[0] >= gaps[-1] >= -1e-9
