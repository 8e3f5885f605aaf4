"""Unit tests for the loop config's retry policy, the failure injector,
and the circuit breaker."""

import pytest

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

    def test_delays_are_capped_exponential(self):
        config = OnlineLoopConfig(
            max_retries=6, backoff_base=0.1, backoff_cap=1.0, jitter=0.0
        )
        assert config.delays(0) == (0.1, 0.2, 0.4, 0.8, 1.0, 1.0)

    def test_jitter_is_seeded_and_batch_dependent(self):
        config = OnlineLoopConfig(max_retries=3, jitter=0.5, seed=42)
        assert config.delays(1) == config.delays(1)
        assert config.delays(1) != config.delays(2)
        other = OnlineLoopConfig(max_retries=3, jitter=0.5, seed=43)
        assert config.delays(1) != other.delays(1)

    def test_jittered_delays_are_pinned(self):
        # The seeded stream is part of the replay contract: these are the
        # exact floats every earlier release slept.
        assert OnlineLoopConfig(max_retries=3, jitter=0.5, seed=42).delays(
            1
        ) == (0.05024319503981938, 0.12716755102579552, 0.225979127544271)
        assert OnlineLoopConfig(max_retries=3, jitter=0.5, seed=42).delays(
            2
        ) == (0.054075342805507236, 0.149051284515502, 0.13636961619104246)
        assert OnlineLoopConfig(
            max_retries=2, backoff_base=0.01, seed=7
        ).delays(0) == (0.010945442097653819, 0.02086910539245028)
        assert OnlineLoopConfig().delays(0) == (
            0.05344421851525049,
            0.10515908805880606,
            0.1968228632332338,
        )

    def test_jitter_bounded(self):
        config = OnlineLoopConfig(
            max_retries=8, backoff_base=0.1, backoff_cap=1.0, jitter=0.25
        )
        for i, delay in enumerate(config.delays(7)):
            nominal = min(1.0, 0.1 * 2.0**i)
            assert 0.75 * nominal <= delay <= 1.25 * nominal

    def test_validation(self):
        with pytest.raises(OnlineError, match="max_retries"):
            OnlineLoopConfig(max_retries=-1)
        with pytest.raises(OnlineError, match="jitter"):
            OnlineLoopConfig(jitter=1.5)
        with pytest.raises(OnlineError, match="base/cap"):
            OnlineLoopConfig(backoff_base=-0.1)
        with pytest.raises(OnlineError, match="base/cap"):
            OnlineLoopConfig(backoff_cap=-1.0)

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
