"""Tests for multi-seed averaging in the experiment harness."""

import pytest

from repro.experiments import ExperimentRunner, quick_config


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(quick_config())


class TestMeanTotalCost:
    def test_single_seed_equals_run(self, runner):
        a = runner.mean_total_cost([5], nrate_per_gb=400)
        b = runner.run(seed=5, nrate_per_gb=400).total_cost
        assert a == pytest.approx(b)

    def test_mean_of_seeds(self, runner):
        costs = [runner.run(seed=s, nrate_per_gb=400).total_cost for s in (1, 2, 3)]
        mean = runner.mean_total_cost([1, 2, 3], nrate_per_gb=400)
        assert mean == pytest.approx(sum(costs) / 3)

    def test_empty_seeds_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.mean_total_cost([])
        with pytest.raises(ValueError):
            runner.mean_network_only([])

    def test_network_only_mean(self, runner):
        costs = [runner.network_only(seed=s) for s in (1, 2)]
        assert runner.mean_network_only([1, 2]) == pytest.approx(
            sum(costs) / 2
        )

