"""Tests for the Table 5 harness and the optimality-gap measurement."""

import pytest

from repro.core.heat import HeatMetric
from repro.experiments import (
    ExperimentRunner,
    optimality_gap,
    quick_config,
    table5,
)


class TestTable5:
    @pytest.fixture(scope="class")
    def comparison(self):
        runner = ExperimentRunner(quick_config(users_per_neighborhood=10, n_files=150))
        return table5(
            runner,
            nrates=(300, 1000),
            srates=(3, 8),
            capacities=(5, 8),
            alphas=(0.1, 0.5),
        )

    def test_case_counting(self, comparison):
        assert comparison.total_cases == 16
        assert 0 <= comparison.cases_with_cost <= comparison.total_cases

    def test_win_counts_bounded(self, comparison):
        for m in HeatMetric:
            assert 0 <= comparison.wins[m] <= comparison.cases_with_cost
        assert comparison.wins_2_or_4 <= comparison.cases_with_cost

    def test_some_overflow_cases_exist(self, comparison):
        """The quick grid must be contended enough to exercise SORP."""
        assert comparison.cases_with_cost > 0

    def test_methods_2_or_4_do_well(self, comparison):
        """Paper: methods 2/4 win 98 % of cost-incurring cases."""
        assert comparison.rate_2_or_4 >= 0.5

    def test_increase_ratios_sane(self, comparison):
        s = comparison.increase_summary
        assert 0.0 <= s.mean < 1.0
        assert s.maximum < 1.0

    def test_table_rendering(self, comparison):
        out = comparison.as_table()
        assert "Table 5" in out
        assert "Method 2" in out and "Method 4" in out

    def test_win_rate_empty_safe(self):
        from repro.experiments.exp4_heat_metrics import HeatComparison

        empty = HeatComparison()
        assert empty.win_rate(HeatMetric.TIME) == 0.0
        assert empty.rate_2_or_4 == 0.0


class TestOptimalityGap:
    @pytest.fixture(scope="class")
    def gap(self):
        return optimality_gap(n_instances=8, seed=2)

    def test_gaps_nonnegative(self, gap):
        assert all(g >= -1e-9 for g in gap.gaps)

    def test_within_papers_30_percent_bound_on_average(self, gap):
        assert gap.summary.mean <= 0.30

    def test_table_rendering(self, gap):
        out = gap.as_table()
        assert "optimum" in out
        assert "mean gap" in out

    def test_deterministic(self):
        a = optimality_gap(n_instances=3, seed=5)
        b = optimality_gap(n_instances=3, seed=5)
        assert a.gaps == b.gaps
