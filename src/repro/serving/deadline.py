"""Per-request deadline budgets on a monotonic clock.

Fraud scoring is a latency-bounded online decision (Appendix H.5: the
deployed system must answer while the transaction is in flight). A
:class:`Deadline` is one request's budget, *propagated* through every
stage that can stall — neighbour sampling, KV feature fetch, model
forward; the service checks a micro-batch's budgets as one group with
the same ``check`` — so a slow stage surfaces as a typed
:class:`DeadlineExceeded` carrying the stage name, which the service
converts into a degraded verdict rather than an error.

The clock is injectable (``clock=time.monotonic`` by default) so chaos
tests drive deadlines with a :class:`~repro.reliability.faults.ManualClock`
and stay fully deterministic. Samplers and models take the deadline as
a duck-typed optional argument (they only call :meth:`check`), keeping
``repro.graph`` / ``repro.models`` free of serving imports.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional


class DeadlineExceeded(RuntimeError):
    """A request ran out of its latency budget.

    ``stage`` names where the budget died ("sampling hop 1",
    "feature-fetch", ...), which the degradation ladder records in the
    response so operators can see *which* stage is slow.
    """

    def __init__(self, stage: str, budget_s: float, elapsed_s: float) -> None:
        super().__init__(
            f"deadline exceeded during {stage}: "
            f"{elapsed_s * 1000:.1f}ms elapsed of {budget_s * 1000:.1f}ms budget"
        )
        self.stage = stage
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


class Deadline:
    """A monotonic-clock latency budget for one scoring request."""

    def __init__(
        self,
        budget_s: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not budget_s > 0:  # NaN too: a NaN budget would never expire
            raise ValueError("budget_s must be positive (or inf for no deadline)")
        self.budget_s = float(budget_s)
        self._clock = clock
        self.started = clock()

    @classmethod
    def never(cls, clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline that never expires (offline / batch paths)."""
        return cls(math.inf, clock=clock)

    def elapsed(self) -> float:
        return self._clock() - self.started

    def remaining(self) -> float:
        """Seconds left; negative once the budget is blown."""
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent.

        Called at stage boundaries (per sampling hop, per feature-fetch
        chunk), so a request overruns its budget by at most one stage —
        the "one sampling step" bound the chaos tests assert.
        """
        elapsed = self.elapsed()
        if elapsed >= self.budget_s:
            raise DeadlineExceeded(stage, self.budget_s, elapsed)
