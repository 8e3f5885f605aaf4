"""Unit tests for the loop config's retry policy, the failure injector,
and the circuit breaker."""

import pytest

import repro.online.loop
from repro.errors import ReproError
from repro.online import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    OnlineError,
    OnlineLoopConfig,
    TransientFailureInjector,
    TransientResolveError,
)


class TestRetryPolicy:
    """The backoff half of :class:`OnlineLoopConfig`."""

    def test_delays_are_capped_exponential(self, monkeypatch):
        monkeypatch.setattr(repro.online.loop, "JITTER", 0.0)
        config = OnlineLoopConfig(max_retries=7, backoff_base=0.1)
        assert config.delays(0) == (0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0)

    def test_jitter_is_seeded_and_batch_dependent(self):
        config = OnlineLoopConfig(max_retries=3, seed=42)
        assert config.delays(1) == config.delays(1)
        assert config.delays(1) != config.delays(2)
        other = OnlineLoopConfig(max_retries=3, seed=43)
        assert config.delays(1) != other.delays(1)

    def test_jittered_delays_are_pinned(self):
        # The seeded stream is part of the replay contract: these are the
        # exact floats every earlier release slept.
        assert OnlineLoopConfig(
            max_retries=2, backoff_base=0.01, seed=7
        ).delays(0) == (0.010945442097653819, 0.02086910539245028)
        assert OnlineLoopConfig().delays(0) == (
            0.05344421851525049,
            0.10515908805880606,
            0.1968228632332338,
        )

    def test_capped_jittered_delays_are_pinned(self):
        # Eight retries from 0.1 s reach the 2 s cap at the sixth: these are
        # the exact floats earlier releases slept with the cap and the
        # jitter at their defaults, 2.0 and 0.1.
        config = OnlineLoopConfig(max_retries=8, backoff_base=0.1, seed=42)
        assert [d.hex() for d in config.delays(0)] == [
            "0x1.ab6c14145e9f5p-4",
            "0x1.bc9c0a7685f62p-3",
            "0x1.8f4dea661d6e0p-2",
            "0x1.a2ee2297bf5e0p-1",
            "0x1.935318ca2a944p+0",
            "0x1.00fcc924dfd2dp+1",
            "0x1.1062d887a1276p+1",
            "0x1.021254ab1d704p+1",
        ]
        assert [d.hex() for d in config.delays(3)] == [
            "0x1.899bad92a6649p-4",
            "0x1.9184ff6ca75b4p-3",
            "0x1.713641b797b4dp-2",
            "0x1.a2c475efa29c8p-1",
            "0x1.adc0dafdbfbf5p+0",
            "0x1.0e8f50a9799c2p+1",
            "0x1.e08c1aaf06048p+0",
            "0x1.13c52e8815aa0p+1",
        ]

    def test_jitter_bounded(self):
        config = OnlineLoopConfig(max_retries=8, backoff_base=0.1)
        for i, delay in enumerate(config.delays(7)):
            nominal = min(2.0, 0.1 * 2.0**i)
            assert 0.9 * nominal <= delay <= 1.1 * nominal

    def test_validation(self):
        with pytest.raises(OnlineError, match="max_retries"):
            OnlineLoopConfig(max_retries=-1)
        with pytest.raises(OnlineError, match="backoff_base"):
            OnlineLoopConfig(backoff_base=-0.1)

    def test_errors_are_repro_errors(self):
        assert issubclass(TransientResolveError, OnlineError)
        assert issubclass(OnlineError, ReproError)


class TestTransientFailureInjector:
    def test_fails_exactly_n_times(self):
        injector = TransientFailureInjector({0: 2})
        with pytest.raises(TransientResolveError):
            injector.check(0)
        with pytest.raises(TransientResolveError):
            injector.check(0)
        injector.check(0)  # budget spent: no raise
        injector.check(1)  # other batches unaffected
        assert injector.injected == 2

    def test_parse_cli_spec(self):
        injector = TransientFailureInjector.parse("0:2, 3:1")
        assert injector._remaining == {0: 2, 3: 1}

    def test_parse_rejects_garbage(self):
        with pytest.raises(OnlineError, match="expected batch:count"):
            TransientFailureInjector.parse("nope")
        with pytest.raises(OnlineError, match="count >= 1"):
            TransientFailureInjector.parse("0:0")
        with pytest.raises(OnlineError, match="batch must be"):
            TransientFailureInjector.parse("-1:2")


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED
        breaker.record_failure(3.0)
        assert breaker.state == OPEN

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        assert breaker.state == CLOSED

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert breaker.state_at(5.0) == OPEN
        assert breaker.state_at(10.0) == HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        breaker.state_at(10.0)
        breaker.record_success(11.0)
        assert breaker.state == CLOSED
        assert [t.to for t in breaker.transitions] == [OPEN, HALF_OPEN, CLOSED]

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        breaker.state_at(10.0)
        breaker.record_failure(11.0)
        assert breaker.state == OPEN
        assert breaker.state_at(20.0) == OPEN  # cooldown restarted at 11
        assert breaker.state_at(21.0) == HALF_OPEN

    def test_transitions_record_virtual_time(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0)
        breaker.record_failure(3.0)
        breaker.state_at(9.0)
        assert [(t.at, t.to) for t in breaker.transitions] == [
            (3.0, OPEN),
            (9.0, HALF_OPEN),
        ]

    def test_validation(self):
        with pytest.raises(OnlineError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(OnlineError, match="cooldown"):
            CircuitBreaker(cooldown=-1.0)
