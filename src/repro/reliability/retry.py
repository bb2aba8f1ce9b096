"""Deterministic retry with exponential backoff and jitter.

Transient read faults are a fact of life for a KV-store-backed
production graph (Appendix H.5: the deployed system reads features
from a remote store on every scoring request). :func:`retry_call`
implements capped exponential backoff whose jitter is drawn from a
*seeded* generator, so a retry schedule is reproducible — the same
property the rest of this reproduction demands of training.

:class:`RetryingKVStore` wraps any :class:`~repro.storage.kvstore.KVStore`
and retries reads that raise :class:`TransientReadError` (injected by
:class:`~repro.reliability.faults.FlakyKVStore`, or raised by real
transports) or :class:`~repro.storage.kvstore.CorruptStoreError`
(checksum failures, which may be transient bit-flips in transit). When
retries are exhausted the *original* typed error is re-raised — callers
always see a checksum failure as :class:`CorruptStoreError`, never
garbage bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Type

import numpy as np

from ..storage.kvstore import (
    CorruptStoreError,
    DelegatingKVStore,
    KVStore,
    kv_read_metrics,
    propagate_instrument,
)


class TransientReadError(IOError):
    """A read failed for a reason that may succeed on retry."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded (deterministic) jitter.

    The delay before retry ``i`` (0-based) is
    ``min(base_delay * multiplier**i, max_delay) * (1 + jitter * u_i)``
    with ``u_i`` drawn from ``default_rng(seed)`` — two policies with
    the same fields produce identical schedules.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delays(self) -> List[float]:
        """The full backoff schedule (``max_attempts - 1`` sleeps)."""
        rng = np.random.default_rng(self.seed)
        schedule = []
        for attempt in range(self.max_attempts - 1):
            base = min(self.base_delay * self.multiplier**attempt, self.max_delay)
            schedule.append(base * (1.0 + self.jitter * float(rng.random())))
        return schedule


def _annotate(error: BaseException, note: str) -> None:
    """Attach ``note`` to an exception: ``__notes__`` on 3.11+, args before."""
    add_note = getattr(error, "add_note", None)
    if callable(add_note):
        add_note(note)
    else:  # Python < 3.11: notes surface through the args tuple instead.
        error.args = (*error.args, note)


def retry_call(
    fn: Callable[[], object],
    policy: Optional[RetryPolicy] = None,
    retry_on: Tuple[Type[BaseException], ...] = (TransientReadError,),
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
):
    """Call ``fn`` up to ``policy.max_attempts`` times.

    Only exceptions in ``retry_on`` are retried; anything else (e.g.
    ``KeyError`` for a genuinely missing key) propagates immediately.
    ``sleep`` is injectable so tests (and simulated-clock serving) can
    assert the backoff schedule without real delays.

    After the final attempt the last error is re-raised with the retry
    history attached: ``retry_attempts`` / ``retry_backoff_s``
    attributes plus a note (``__notes__`` on 3.11+, appended to
    ``args`` on older interpreters) summarising attempts and total
    backoff slept.
    """
    policy = policy or RetryPolicy()
    schedule = policy.delays()
    last: Optional[BaseException] = None
    slept = 0.0
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except retry_on as error:
            last = error
            if attempt < len(schedule):
                delay = schedule[attempt]
                if on_retry is not None:
                    on_retry(attempt, error, delay)
                sleep(delay)
                slept += delay
    assert last is not None
    last.retry_attempts = policy.max_attempts
    last.retry_backoff_s = slept
    _annotate(
        last,
        f"retry_call: {policy.max_attempts} attempts exhausted "
        f"({slept:.4f}s total backoff)",
    )
    raise last


class RetryingKVStore(DelegatingKVStore):
    """Read-retry wrapper around any KV-store.

    ``retries`` counts the retry sleeps taken over the wrapper's
    lifetime (observability for the fault-injection harness).
    """

    def __init__(
        self,
        store: KVStore,
        policy: Optional[RetryPolicy] = None,
        retry_on: Tuple[Type[BaseException], ...] = (TransientReadError, CorruptStoreError),
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(store)
        self.policy = policy or RetryPolicy()
        self.retry_on = retry_on
        self.retries = 0
        self._sleep = sleep
        self._reads_total = None
        self._read_seconds = None

    def instrument(self, registry) -> "RetryingKVStore":
        """Attach the read counter + latency histogram to a
        :class:`repro.obs.registry.MetricsRegistry` (the shared
        ``kv_reads_total`` / ``kv_read_seconds`` family under
        ``store="retrying"``) and let it read ``retries`` as
        ``kv_retries_total``. Returns self for chaining.

        Instrumentation propagates *inward*: the wrapped store (and any
        deeper layer reachable through ``.store``) is instrumented too,
        so composition order never decides whether the backing store's
        metrics exist — instrumenting the outermost wrapper is always
        enough. Inner layers without an ``instrument`` method (e.g. the
        fault injectors) are transparently walked through."""
        self._reads_total, self._read_seconds = kv_read_metrics(registry)
        registry.collect(self._collect)
        propagate_instrument(self.store, registry)
        return self

    def _collect(self):
        help = "Retry sleeps taken on KV reads."
        yield "counter", "kv_retries_total", help, {"store": "retrying"}, self.retries

    def _count(self, attempt: int, error: BaseException, delay: float) -> None:
        self.retries += 1

    def get(self, key: str) -> bytes:
        started = time.perf_counter() if self._read_seconds is not None else 0.0
        try:
            return retry_call(
                lambda: self.store.get(key),
                policy=self.policy,
                retry_on=self.retry_on,
                sleep=self._sleep,
                on_retry=self._count,
            )
        finally:
            if self._read_seconds is not None:
                self._read_seconds.observe(time.perf_counter() - started, store="retrying")
                self._reads_total.inc(store="retrying")
