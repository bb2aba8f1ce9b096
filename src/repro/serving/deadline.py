"""The scoring path's deadline: one micro-batch's budgets on one clock.

Fraud scoring is a latency-bounded online decision (Appendix H.5: the
deployed system must answer while the transaction is in flight). Every
admitted request carries a budget; the service scores requests in
micro-batches, so a :class:`Deadline` holds a batch's one start instant
and its members' budgets, and is *propagated* through every stage that
can stall — neighbour sampling, KV feature fetch, model forward. A
stage check demotes the members whose budget is spent; once none is
left the shared work aborts with a typed :class:`DeadlineExceeded`
carrying the stage name, which the service converts into degraded
verdicts rather than an error.

The clock is injectable so chaos tests drive deadlines with a
:class:`~repro.reliability.faults.ManualClock` and stay fully
deterministic. Samplers, the subgraph cache and models take the
deadline as a duck-typed optional argument (they only call ``check``),
keeping ``repro.graph`` / ``repro.models`` free of serving imports.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class DeadlineExceeded(RuntimeError):
    """A request ran out of its latency budget.

    ``stage`` names where the budget died ("sampling hop 1",
    "feature fetch", ...), which the degradation ladder records in the
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
    """The budgets of every request in one micro-batch, from one start.

    ``budgets[i]`` is member ``i``'s budget in seconds from ``started``
    on ``clock``; ``stats`` is anything with a ``deadline_hits`` tally
    (the service's :class:`~repro.serving.stats.ServiceStats`). A stage
    :meth:`check` demotes, by mask, every live member whose budget is
    spent — a budget equal to the elapsed time is spent — and each
    records the ``deadline:<stage>`` reason it would have received
    scored alone and drops out of the batch, while the survivors keep
    going. Only when no member is left live does ``check`` raise,
    aborting the shared work: expiry is per member, the exception is
    per batch.

    A check first asks whether any member *can* have expired: none has
    while less time has passed since the start than the tightest
    budget, and then no mask is computed.
    """

    def __init__(
        self, started: float, budgets: np.ndarray, stats, clock: Callable[[], float]
    ) -> None:
        self.started = started
        self.budgets = budgets
        self.live = np.arange(len(budgets))  # the members still on the GNN rung
        self.reasons = np.full(len(budgets), None, dtype=object)
        self._stats = stats
        self._clock = clock
        # No member: -inf, so every check demotes (and raises).
        self._tightest = min(budgets.tolist(), default=-math.inf)

    def check(self, stage: str) -> None:
        """Demote the live members whose budget is spent; raise
        :class:`DeadlineExceeded` once none is left. Called at stage
        boundaries (per sampling step, per feature-fetch chunk), so a
        member overruns its budget by at most one stage."""
        elapsed = self._clock() - self.started
        if elapsed < self._tightest:
            return  # every member's elapsed time is under its budget
        spent = self.live[self.budgets[self.live] <= elapsed]
        self._stats.deadline_hits += self.demote(spent, f"deadline:{stage}")
        if not len(self.live):
            raise DeadlineExceeded(stage, max(self.budgets.tolist(), default=0.0), elapsed)

    def demote(self, members: np.ndarray, reason: str) -> int:
        """Take ``members`` (live ones) off the GNN rung with ``reason``;
        returns how many."""
        self.reasons[members] = reason
        self.live = self.live[~np.isin(self.live, members)]
        return len(members)
