"""Admission control: token-bucket rate limiting + a bounded queue.

An online scorer under heavy traffic must *shed* load it cannot serve
within deadline rather than queue it unboundedly (a verdict delivered
after the transaction completed is worthless). Two mechanisms compose:

* :class:`TokenBucket` — smooths the admitted rate to ``rate``
  requests/s with bursts up to ``capacity``; refills continuously on
  an injectable monotonic clock.
* :class:`AdmissionQueue` — a bounded FIFO backlog. ``offer`` never
  blocks: a request is either queued or rejected immediately with a
  typed shed reason, and the service converts the rejection into a
  static-prior verdict (reject-with-verdict, never reject-with-error).

Both are deterministic under a
:class:`~repro.reliability.faults.ManualClock`, which is how the chaos
tests script deadline storms and burst arrivals.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Callable, Deque, Optional, Tuple

SHED_QUEUE_FULL = "queue_full"
SHED_RATE_LIMITED = "rate_limited"


def check_bucket(rate: float, capacity: float) -> None:
    """Refuse a bucket that would not limit as configured: a NaN rate
    admits everything and a -inf one reads as unlimited, a NaN capacity
    sheds everything."""
    if not rate > 0:
        raise ValueError(f"rate must be positive (or inf to disable limiting), got {rate}")
    if not capacity > 0:
        raise ValueError(f"burst capacity must be positive, got {capacity}")


class TokenBucket:
    """Continuous-refill token bucket (``rate`` tokens/s, burst ``capacity``)."""

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_bucket(rate, capacity)
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = float(capacity)
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        if math.isinf(self.rate):
            self._tokens = self.capacity
        else:
            self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_acquire(self) -> bool:
        """Take one token if available; never blocks."""
        return self.grant(1) == 1

    def grant(self, wanted: int) -> int:
        """Take up to ``wanted`` whole tokens at one clock read and
        return how many: the first ``k`` of ``wanted`` requests are
        admitted, as ``wanted`` calls of :meth:`try_acquire` at that
        instant would admit them (taking 1 from a float of at least 1
        is exact, so ``k`` is the floor of the tokens held; at an
        infinite rate each of those calls refills the bucket first)."""
        self._refill()
        if math.isinf(self.rate) and self._tokens >= 1:
            return wanted
        granted = wanted if self._tokens >= wanted else int(self._tokens)
        self._tokens -= granted
        return granted


class AdmissionQueue:
    """Bounded backlog with immediate, typed load-shedding.

    ``offer`` admits a request only if the bucket grants a token *and*
    the backlog has room; the order matters — a full queue sheds before
    consuming a token, so rate capacity is not burned on requests that
    were never going to be served.
    """

    def __init__(
        self,
        capacity: int,
        bucket: Optional[TokenBucket] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.bucket = bucket
        self._queue: Deque[object] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def offer(self, item: object) -> Tuple[bool, Optional[str]]:
        """Queue ``item`` or return ``(False, shed_reason)`` immediately."""
        if len(self._queue) >= self.capacity:
            return False, SHED_QUEUE_FULL
        if self.bucket is not None and not self.bucket.try_acquire():
            return False, SHED_RATE_LIMITED
        self._queue.append(item)
        return True, None

    def drain(self):
        """Yield queued items FIFO until the backlog is empty."""
        while self._queue:
            yield self._queue.popleft()
