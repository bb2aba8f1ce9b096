"""Circuit breaker guarding the KV-store feature reads.

A scoring request that keeps hammering a down KV-store burns its whole
deadline budget inside retries; a :class:`CircuitBreaker` notices the
failure rate, *opens*, and lets requests fail over to the rules rung
instantly until a cool-down passes, then *half-opens* to probe the
store with a bounded number of trial reads before closing again.

Retries compose *inside* the breaker: one :func:`~repro.reliability.retry.retry_call`
invocation (all its attempts) is a single breaker outcome, so a read
that succeeds on attempt 3 counts as a success and a read that exhausts
its retries counts as one failure — the breaker reacts to the store
being *down*, not to individual transient blips the retry layer already
absorbs.

States follow the classic closed → open → half-open → closed machine,
with a sliding outcome window for the failure rate and an injectable
monotonic clock for deterministic chaos tests. Every transition is
recorded (:class:`~repro.serving.stats.ServiceStats` reports the
service breaker's journey from that record) so operators can replay an
incident.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Tuple

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitOpenError(RuntimeError):
    """The breaker is open: the guarded dependency is presumed down."""

    def __init__(self, name: str, retry_in_s: float) -> None:
        super().__init__(f"circuit {name!r} is open (retry in {retry_in_s:.3f}s)")
        self.name = name
        self.retry_in_s = retry_in_s


@dataclass(frozen=True)
class BreakerTransition:
    """One observed state change, timestamped on the breaker's clock."""

    at: float
    from_state: str
    to_state: str
    reason: str = ""


class CircuitBreaker:
    """Sliding-window failure-rate breaker with half-open probing.

    Closed: calls flow; the last ``window`` outcomes are kept and the
    breaker opens when at least ``min_calls`` are recorded and the
    failure fraction reaches ``failure_threshold``. Open: calls raise
    :class:`CircuitOpenError` until ``cooldown_s`` elapses, then the
    breaker half-opens. Half-open: up to ``half_open_probes`` calls are
    let through; all succeeding closes the breaker (window reset), any
    failure re-opens it and restarts the cool-down.
    """

    def __init__(
        self,
        failure_threshold: float = 0.5,
        window: int = 8,
        min_calls: int = 4,
        cooldown_s: float = 0.25,
        half_open_probes: int = 2,
        clock: Callable[[], float] = time.monotonic,
        name: str = "kv",
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if window < 1 or min_calls < 1 or half_open_probes < 1:
            raise ValueError("window, min_calls and half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.window = window
        self.min_calls = min_calls
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self.name = name
        self._clock = clock
        self.state = CLOSED
        self.transitions: List[BreakerTransition] = []
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0

    # ------------------------------------------------------------------
    def _transition(self, to_state: str, reason: str) -> None:
        if to_state == self.state:
            return
        event = BreakerTransition(self._clock(), self.state, to_state, reason)
        self.transitions.append(event)
        self.state = to_state

    def _failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return 1.0 - (sum(self._outcomes) / len(self._outcomes))

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a call proceed right now? (May move open → half-open.)"""
        if self.state == OPEN:
            if self._clock() - self._opened_at >= self.cooldown_s:
                self._probes_in_flight = 0
                self._probe_successes = 0
                self._transition(HALF_OPEN, "cooldown elapsed")
            else:
                return False
        if self.state == HALF_OPEN:
            return self._probes_in_flight < self.half_open_probes
        return True

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._outcomes.clear()
                self._transition(CLOSED, "probes succeeded")
            return
        self._outcomes.append(True)

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._opened_at = self._clock()
            self._transition(OPEN, "half-open probe failed")
            return
        self._outcomes.append(False)
        if (
            self.state == CLOSED
            and len(self._outcomes) >= self.min_calls
            and self._failure_rate() >= self.failure_threshold
        ):
            self._opened_at = self._clock()
            self._transition(OPEN, f"failure rate {self._failure_rate():.2f}")

    def call(self, fn: Callable[[], object]):
        """Run ``fn`` through the breaker.

        Raises :class:`CircuitOpenError` without calling ``fn`` when
        open; otherwise records the outcome and re-raises failures.
        """
        if not self.allow():
            retry_in = max(0.0, self.cooldown_s - (self._clock() - self._opened_at))
            raise CircuitOpenError(self.name, retry_in)
        if self.state == HALF_OPEN:
            self._probes_in_flight += 1
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    # ------------------------------------------------------------------
    def transition_path(self) -> Tuple[str, ...]:
        """The visited states in order, starting from closed."""
        if not self.transitions:
            return (self.state,)
        return (self.transitions[0].from_state,) + tuple(t.to_state for t in self.transitions)
