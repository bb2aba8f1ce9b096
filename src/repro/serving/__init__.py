"""repro.serving — the fault-tolerant online scoring service.

The paper's xFraud is a *deployed* detector: scores must come back
while the transaction is in flight, under heavy traffic, over a
KV-store that sometimes fails (Sec. 3.3, Appendix H.5). This package
supplies that online path:

* :class:`Deadline` — a micro-batch's per-request budgets from one
  monotonic-clock start, propagated through sampling and feature
  fetch;
* :class:`TokenBucket` / :class:`AdmissionQueue` — admission control
  that sheds overload with a verdict instead of blocking;
* :class:`ScoringService` — the three-rung degradation ladder
  (GNN → linked-label score off the graph → static prior), every
  response tagged with its rung;
  feature reads go to the store as they are (a
  :class:`~repro.storage.replicated.ReplicatedKVStore` gates, fails
  over and probes its replicas itself);
* :class:`ServiceStats` — admitted/shed/degraded counters and
  p50/p95/p99 latency.
"""

from .admission import SHED_QUEUE_FULL, SHED_RATE_LIMITED, AdmissionQueue, TokenBucket
from .deadline import Deadline, DeadlineExceeded
from .demo import DemoResult, build_demo_service, run_demo
from .service import (
    RUNG_GNN,
    RUNG_LINKED,
    RUNG_PRIOR,
    FeatureFetchError,
    ScoreRequest,
    ScoreResponse,
    ScoringService,
    ServiceConfig,
)
from .stats import ServiceStats

__all__ = [
    "AdmissionQueue",
    "TokenBucket",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMITED",
    "Deadline",
    "DeadlineExceeded",
    "ScoringService",
    "ServiceConfig",
    "ScoreRequest",
    "ScoreResponse",
    "FeatureFetchError",
    "RUNG_GNN",
    "RUNG_LINKED",
    "RUNG_PRIOR",
    "ServiceStats",
    "DemoResult",
    "build_demo_service",
    "run_demo",
]
