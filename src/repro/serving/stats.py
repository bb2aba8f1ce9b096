"""Observability counters for the online scoring service.

One :class:`ServiceStats` block per service instance: admission
outcomes, per-rung response counts, deadline / KV-failure tallies,
and end-to-end latency percentiles via the shared
:func:`~repro.train.metrics.latency_percentiles` helper. The feature
store's own health (which replica is dead, and its path there) is the
store's to report: see
:meth:`~repro.storage.replicated.ReplicatedKVStore.describe`.

Memory is bounded: latency samples live in a
:class:`~repro.obs.registry.Reservoir`, so a long-running service holds
O(1) state. No AUC is kept here — a transaction is scored before its
label exists; the online AUC is the stream's prequential
:class:`~repro.stream.feedback.OnlineAUC`. The attributes here are the
only copy of every tally: a :class:`~repro.obs.registry.MetricsRegistry`, when
attached, reads them at scrape time (``service_admitted_total``,
shed/degraded counters per reason) for Prometheus-text exposition
alongside the human-readable :meth:`describe` block. Only the latency
is pushed, into the ``service_request_latency_seconds`` histogram per
rung — a distribution has no attribute to read.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Sequence

from ..obs.registry import MetricsRegistry, Reservoir
from ..train.metrics import latency_percentiles

#: Capacity of the latency sample. Large enough that p99 over the
#: retained sample tracks the stream, small enough that a long-running
#: service never grows.
RESERVOIR_SIZE = 4096


class ServiceStats:
    """Mutable counter block for one :class:`~repro.serving.service.ScoringService`."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.received = 0
        self.admitted = 0
        self.completed = 0
        self.shed: Counter = Counter()  # shed reason -> count
        self.rungs: Counter = Counter()  # "gnn" | "linked" | "prior" -> count
        self.degraded_reasons: Counter = Counter()
        self.deadline_hits = 0
        self.kv_failures = 0
        self._latencies = Reservoir(RESERVOIR_SIZE)
        self.registry = registry
        self._latency_hist = None
        if registry is not None:
            self._latency_hist = registry.histogram(
                "service_request_latency_seconds",
                "End-to-end latency of admitted scoring requests.",
                labels=("rung",),
            )
            registry.collect(self._collect)

    def _collect(self):
        help = "Requests admitted for scoring."
        yield "counter", "service_admitted_total", help, {}, self.admitted
        shed = "service_shed_total", "Requests shed with a verdict."
        degraded = "service_degraded_total", "Responses produced below the GNN rung."
        for (name, help), tally in ((shed, self.shed), (degraded, self.degraded_reasons)):
            yield "counter", name, help, {"reason": ""}, None  # the header, before any reason
            for reason, count in dict(tally).items():
                yield "counter", name, help, {"reason": reason}, count

    # -- recording ------------------------------------------------------
    def record_admitted(self, count: int = 1) -> None:
        self.received += count
        self.admitted += count

    def record_shed(self, reason: str, count: int = 1) -> None:
        self.received += count
        self.shed[reason] += count

    def record_response(self, rung: str, latency_s: float, degraded_reason: Optional[str] = None) -> None:
        self.record_batch([rung], latency_s, [degraded_reason])

    def record_batch(
        self,
        rungs: Sequence[str],
        latency_s: float,
        degraded_reasons: Sequence[Optional[str]],
    ) -> None:
        """One micro-batch answered: a response per rung in ``rungs``,
        each ``latency_s`` after the batch started and degraded for its
        reason (``None``: not degraded) — what a :meth:`record_response`
        per member records."""
        latency_s = float(latency_s)
        self.completed += len(rungs)
        self.rungs.update(rungs)
        self._latencies.extend([latency_s] * len(rungs))
        if any(degraded_reasons):
            self.degraded_reasons.update(filter(None, degraded_reasons))
        if self._latency_hist is not None:
            for rung in dict.fromkeys(rungs):
                self._latency_hist.observe_many([latency_s] * rungs.count(rung), rung=rung)

    # -- reporting ------------------------------------------------------
    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    def latency_summary(self) -> Dict[str, float]:
        return latency_percentiles(self._latencies.values())

    def snapshot(self) -> Dict[str, object]:
        latency = self.latency_summary()
        return {
            "received": self.received,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": dict(self.shed),
            "rungs": dict(self.rungs),
            "degraded_reasons": dict(self.degraded_reasons),
            "deadline_hits": self.deadline_hits,
            "kv_failures": self.kv_failures,
            "latency_s": latency,
        }

    def describe(self) -> str:
        """Human-readable counter block (the ``repro serve`` epilogue)."""
        latency = self.latency_summary()
        shed = ", ".join(f"{k}={v}" for k, v in sorted(self.shed.items())) or "none"
        rungs = ", ".join(f"{k}={v}" for k, v in sorted(self.rungs.items())) or "none"
        lines = [
            f"requests      : {self.received} received, {self.admitted} admitted, "
            f"{self.total_shed} shed ({shed})",
            f"responses     : {self.completed} completed; rungs: {rungs}",
            f"degradations  : deadline_hits={self.deadline_hits} "
            f"kv_failures={self.kv_failures}",
            f"latency (s)   : p50={latency['p50']:.6f} p95={latency['p95']:.6f} "
            f"p99={latency['p99']:.6f}",
        ]
        return "\n".join(lines)
