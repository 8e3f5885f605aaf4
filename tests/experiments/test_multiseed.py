"""Tests for the runner's figure-point helpers, one workload seed each.

The figure runners (fig5-fig9) pass ``cfg.workload_seed``; a point is the
cost of that one run, bit for bit.
"""

import pytest

from repro.experiments import ExperimentRunner, quick_config


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(quick_config())


class TestMeanTotalCost:
    def test_single_seed_equals_run(self, runner):
        a = runner.mean_total_cost(5, nrate_per_gb=400)
        b = runner.run(seed=5, nrate_per_gb=400).total_cost
        assert a == b

    def test_network_only_mean(self, runner):
        assert runner.mean_network_only(1) == runner.network_only(seed=1)
