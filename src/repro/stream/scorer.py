"""Online scoring loop: micro-batching arriving events through the
serving stack with bounded-queue backpressure and lag gauges.

The :class:`StreamScorer` sits between the durable
:class:`~repro.stream.wal.EventLog` and a live
:class:`~repro.serving.service.ScoringService`:

1. :meth:`ingest` makes an event durable (WAL append) and enqueues it —
   or refuses it (``False``) when the bounded queue is full, which is
   the backpressure signal a real ingress would turn into HTTP 429s;
2. :meth:`pump` drains the queue in micro-batches: each batch is
   applied to the live graph through the
   :class:`~repro.stream.builder.IncrementalGraphBuilder` (one flush =
   one version bump = one cache rollover), scored with
   ``service.score_batch``, and fed to the feedback plane (delayed
   labels → prequential AUC, PSI/KS drift, optional fine-tune);
3. periodic **compaction** flushes the live graph and keeps its CSR built.

Everything advances on the injected clock, so on a
:class:`~repro.reliability.faults.ManualClock` a replay of the same
event sequence is bit-reproducible — the ``repro stream --demo`` gate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

import numpy as np

from ..data.events import TxnEvent
from ..serving.service import ScoreRequest, ScoreResponse, ScoringService
from .builder import IncrementalGraphBuilder
from .feedback import DriftConfig, DriftDetector, LabelFeed, OnlineAUC, OnlineFineTuner
from .wal import EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry


@dataclass
class StreamConfig:
    """Operating envelope of one :class:`StreamScorer`."""

    batch_size: int = 16
    queue_capacity: int = 256
    label_delay_s: float = 2.0
    compact_every: int = 256  # applied events between compactions
    auc_window: int = 512
    labelled_window: int = 1024
    drift: DriftConfig = field(default_factory=DriftConfig)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.compact_every < 1:
            raise ValueError("compact_every must be >= 1")


@dataclass
class StreamHealth:
    """Snapshot for ``repro healthcheck`` and the stream demo output."""

    lag_events: int
    lag_seconds: float
    wal_segments: int
    wal_records: int
    last_compaction_version: int
    graph_version: int
    graph_nodes: int
    graph_edges: int
    events_scored: int
    labels_matured: int
    labels_pending: int
    backpressure_rejections: int
    online_auc: float
    drift_alerts: int
    finetune_updates: int

    def describe(self) -> str:
        auc = "n/a" if np.isnan(self.online_auc) else f"{self.online_auc:.4f}"
        return "\n".join(
            [
                "stream health",
                f"  lag                 : {self.lag_events} events / {self.lag_seconds:.3f}s",
                f"  wal                 : {self.wal_segments} segments, {self.wal_records} records",
                f"  graph               : {self.graph_nodes} nodes, {self.graph_edges} edges, version {self.graph_version}",
                f"  last compaction     : version {self.last_compaction_version}",
                f"  scored              : {self.events_scored} events",
                f"  labels              : {self.labels_matured} matured, {self.labels_pending} pending",
                f"  backpressure        : {self.backpressure_rejections} rejected ingests",
                f"  online auc          : {auc}",
                f"  drift alerts        : {self.drift_alerts}",
                f"  finetune updates    : {self.finetune_updates}",
            ]
        )


class StreamScorer:
    """Micro-batching bridge from an event stream to the scoring stack."""

    def __init__(
        self,
        service: ScoringService,
        builder: IncrementalGraphBuilder,
        wal: Optional[EventLog] = None,
        config: Optional[StreamConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        finetuner: Optional[OnlineFineTuner] = None,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        if builder.graph is not service.graph:
            raise ValueError(
                "builder and service must share one live graph object "
                "(the SubgraphCache keys on its identity)"
            )
        self.service = service
        self.builder = builder
        self.wal = wal
        self.config = config or StreamConfig()
        self.clock = clock if clock is not None else service._clock
        self.finetuner = finetuner
        self.label_feed = LabelFeed(self.config.label_delay_s)
        self.online_auc = OnlineAUC(window=self.config.auc_window)
        self.score_drift = DriftDetector("score", self.config.drift, registry)
        self.feature_drift = DriftDetector("feature", self.config.drift, registry)
        self.events_ingested = 0
        self.events_scored = 0
        self.labels_matured = 0
        self.backpressure_rejections = 0
        self._queue: Deque[TxnEvent] = deque()
        self._scores: Dict[int, float] = {}
        self._labelled_window: Deque[int] = deque(maxlen=self.config.labelled_window)
        self._events_since_compaction = 0
        self._last_event_ts: Optional[float] = None
        if registry is not None:
            registry.collect(self._collect)

    def _collect(self):
        help = "Events ingested but not yet scored."
        yield "gauge", "stream_lag_events", help, {}, self.lag_events
        help = "Event-time age of the oldest queued event."
        yield "gauge", "stream_lag_seconds", help, {}, self.lag_seconds
        help = "Events accepted into the stream queue."
        yield "counter", "stream_events_ingested_total", help, {}, self.events_ingested
        help = "Events scored by the micro-batch loop."
        yield "counter", "stream_events_scored_total", help, {}, self.events_scored
        help = "Ingests refused by the bounded queue."
        yield "counter", "stream_backpressure_total", help, {}, self.backpressure_rejections
        help = "Chargeback labels applied to the graph."
        yield "counter", "stream_labels_matured_total", help, {}, self.labels_matured
        # No sample before both classes have matured, or without a WAL.
        auc = self.online_auc.auc()
        help = "Windowed prequential AUC over matured labels."
        yield "gauge", "stream_online_auc", help, {}, None if np.isnan(auc) else auc
        segments = self.wal.segment_count() if self.wal is not None else None
        help = "Segments (sealed + active) in the event log."
        yield "gauge", "stream_wal_segments", help, {}, segments

    # ------------------------------------------------------------------
    @property
    def lag_events(self) -> int:
        return len(self._queue)

    @property
    def lag_seconds(self) -> float:
        if not self._queue:
            return 0.0
        return max(0.0, float(self.clock()) - self._queue[0].timestamp)

    # ------------------------------------------------------------------
    def ingest(self, event: TxnEvent) -> bool:
        """Admit one event: durable append + enqueue.

        Returns ``False`` — and leaves *no* trace, not even a WAL
        record — when the bounded queue is full; the caller must
        :meth:`pump` (or shed) and retry. Capacity is checked before
        the WAL append so a refused ingest is never replayed.
        """
        if len(self._queue) >= self.config.queue_capacity:
            self.backpressure_rejections += 1
            return False
        if self.wal is not None:
            self.wal.append(event)
        self._queue.append(event)
        self.events_ingested += 1
        return True

    # ------------------------------------------------------------------
    def pump(self, max_batches: Optional[int] = None) -> List[ScoreResponse]:
        """Drain queued events through build → score → feedback.

        Processes up to ``max_batches`` micro-batches (``None`` = all),
        then matures any due labels. Responses come back in event
        order, so replaying the same stream yields the same list.
        """
        responses: List[ScoreResponse] = []
        batches = 0
        while self._queue and (max_batches is None or batches < max_batches):
            batch: List[TxnEvent] = []
            while self._queue and len(batch) < self.config.batch_size:
                batch.append(self._queue.popleft())
            nodes = [self.builder.apply(event) for event in batch]
            self.builder.flush()
            self._invalidate_cache()
            requests = [
                ScoreRequest(node=node, features=event.features)
                for node, event in zip(nodes, batch)
            ]
            batch_responses = self.service.score_batch(requests)
            for event, response in zip(batch, batch_responses):
                self._scores[event.txn_id] = response.score
                if event.label >= 0:
                    self.label_feed.offer(event.txn_id, event.label, event.timestamp)
                self.score_drift.observe(response.score)
            means = np.mean(np.stack([event.features for event in batch]), axis=1)
            self.feature_drift.observe_many(means.tolist())
            self.events_scored += len(batch)
            self._events_since_compaction += len(batch)
            self._last_event_ts = batch[-1].timestamp
            if self._events_since_compaction >= self.config.compact_every:
                self.builder.compact()
                self._events_since_compaction = 0
            responses.extend(batch_responses)
            batches += 1
        self.mature_labels()
        self.score_drift.check()
        self.feature_drift.check()
        return responses

    def _invalidate_cache(self) -> None:
        cache = self.service.cache
        if cache is not None:
            cache.invalidate(self.service.graph)

    # ------------------------------------------------------------------
    def mature_labels(self) -> int:
        """Apply every chargeback verdict that has matured by now."""
        matured = self.label_feed.due(float(self.clock()))
        if not matured:
            return 0
        for txn_id, label in matured:
            node = self.builder.apply_label(txn_id, label)
            score = self._scores.pop(txn_id, None)
            if score is not None:
                self.online_auc.add(label, score)
            self._labelled_window.append(node)
        self.labels_matured += len(matured)
        self._invalidate_cache()
        if self.finetuner is not None:
            self.finetuner.notify_labels(len(matured))
            self.finetuner.maybe_update(
                self.builder.graph, list(self._labelled_window)
            )
        return len(matured)

    # ------------------------------------------------------------------
    def health(self) -> StreamHealth:
        return StreamHealth(
            lag_events=self.lag_events,
            lag_seconds=self.lag_seconds,
            wal_segments=self.wal.segment_count() if self.wal is not None else 0,
            wal_records=self.wal.record_count if self.wal is not None else 0,
            last_compaction_version=self.builder.last_compaction_version,
            graph_version=self.builder.graph.version,
            graph_nodes=self.builder.graph.num_nodes,
            graph_edges=self.builder.graph.num_edges,
            events_scored=self.events_scored,
            labels_matured=self.labels_matured,
            labels_pending=self.label_feed.pending,
            backpressure_rejections=self.backpressure_rejections,
            online_auc=self.online_auc.auc(),
            drift_alerts=len(self.score_drift.alerts) + len(self.feature_drift.alerts),
            finetune_updates=len(self.finetuner.updates) if self.finetuner else 0,
        )
