"""Deterministic streaming demo behind ``repro stream --demo``.

End-to-end exercise of the ingestion subsystem on a
:class:`~repro.reliability.faults.ManualClock`:

1. *warmup*: the first :data:`WARMUP_FRACTION` of the generator's event
   stream is applied through the :class:`IncrementalGraphBuilder`
   (labels revealed immediately — they are historical), compacted, and
   a detector+ is briefly trained on the resulting graph;
2. *live stream*: the remaining events are WAL-appended, ingested
   under bounded-queue backpressure, micro-batched through the
   :class:`~repro.serving.service.ScoringService` (subgraph cache in
   front of the sampler), and fed to the feedback plane — delayed
   chargeback labels, prequential AUC, PSI/KS drift, incremental
   fine-tune checkpoints;
3. *drift burst*: the tail of the stream gets a deterministic feature
   shift so the drift detector's alert path fires inside the demo;
4. *gate*: after the stream the live graph carries a delta-merged
   CSR; the demo samples probe subgraphs with the sampler and with its
   scalar spec, compacts, rebuilds the CSR from the flat edge arrays,
   resamples, and asserts all four are bit-identical. The CLI runs the whole demo twice and
   diffs the verdict streams byte-for-byte.

Everything — generator, clock, training, sampling, label maturation —
is seeded, so one seed yields one verdict digest.
"""

from __future__ import annotations

import contextlib
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from ..data.events import TxnEvent
from ..data.generator import GeneratorConfig, TransactionGenerator
from ..graph.cache import SubgraphCache
from ..graph.builder import train_test_split
from ..graph.sampling import SageSampler
from ..models import DetectorConfig, XFraudDetectorPlus
from ..obs.registry import MetricsRegistry
from ..reliability.checkpoint import CheckpointManager
from ..reliability.faults import ManualClock
from ..serving.service import ScoreResponse, ScoringService, ServiceConfig
from ..train import TrainConfig, Trainer
from .builder import IncrementalGraphBuilder
from .feedback import DriftConfig, DriftReport, FineTuneConfig, OnlineFineTuner
from .scorer import StreamConfig, StreamHealth, StreamScorer
from .wal import EventLog

#: Share of the event stream applied as history before the live stream.
WARMUP_FRACTION = 0.5


@dataclass
class StreamDemoResult:
    """Everything the CLI (and tests) need from one demo run."""

    responses: List[ScoreResponse]
    verdict_lines: List[str]
    verdict_digest: int
    health: StreamHealth
    graph_version: int
    subgraph_gate_passed: bool
    drift_reports: List[DriftReport]
    online_auc: float
    warmup_events: int
    streamed_events: int
    scorer: StreamScorer = field(repr=False)


def _demo_events(seed: int, scale: float) -> List[TxnEvent]:
    """The ebay-small-sim workload, exported as a time-ordered stream."""
    config = GeneratorConfig(
        num_benign_buyers=int(700 * scale),
        num_stolen_cards=int(12 * scale),
        num_warehouse_rings=max(2, int(4 * scale)),
        num_cultivated_accounts=int(6 * scale),
        num_guest_checkouts=int(25 * scale),
        num_apartment_buildings=max(2, int(4 * scale)),
        feature_dim=114,
        risk_signal=0.4,
        seed=seed,
    )
    return TransactionGenerator(config).event_stream(interleave=True)


def _shift_features(event: TxnEvent, shift: float) -> TxnEvent:
    """Deterministically drift an event's feature distribution."""
    return TxnEvent(
        txn_id=event.txn_id,
        buyer_id=event.buyer_id,
        email_id=event.email_id,
        pmt_id=event.pmt_id,
        addr_id=event.addr_id,
        timestamp=event.timestamp,
        features=event.features + shift,
        label=event.label,
        scenario=event.scenario,
    )


def run_stream_demo(
    seed: int = 0,
    scale: float = 0.25,
    epochs: int = 2,
    max_events: Optional[int] = None,
    batch_size: int = 16,
    compact_every: int = 64,
    label_delay_s: float = 4.0,
    drift_burst: bool = True,
    finetune: bool = True,
    wal_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> StreamDemoResult:
    """Replay the scripted stream; see the module docstring for acts."""
    events = _demo_events(seed, scale)
    if max_events is not None:
        events = events[:max_events]
    if len(events) < 4:
        raise ValueError("demo needs at least 4 events; raise scale or max_events")
    n_warm = max(2, int(len(events) * WARMUP_FRACTION))
    warmup, live = events[:n_warm], events[n_warm:]

    # -- act 1: warmup — build the historical graph incrementally ------
    builder = IncrementalGraphBuilder(
        feature_dim=len(events[0].features), registry=registry
    )
    for event in warmup:
        builder.apply(event)
    builder.flush()
    for event in warmup:
        if event.label >= 0:
            builder.apply_label(event.txn_id, event.label)
    builder.compact()
    graph = builder.graph

    model = XFraudDetectorPlus(DetectorConfig(feature_dim=graph.feature_dim, seed=seed))
    train_nodes, _, _ = train_test_split(graph, test_fraction=0.2, seed=seed)
    if epochs > 0 and len(train_nodes):
        Trainer(model, TrainConfig(epochs=epochs, batch_size=256, seed=seed)).fit(
            graph, train_nodes
        )

    # -- act 2/3: the live stream under a ManualClock ------------------
    clock = ManualClock()
    if warmup:
        clock.advance(warmup[-1].timestamp)
    service = ScoringService(
        model,
        graph,
        config=ServiceConfig(
            deadline_s=30.0,
            queue_capacity=max(64, batch_size * 4),
            static_prior=float(graph.fraud_rate()),
            batch_size=batch_size,
        ),
        clock=clock,
        registry=registry,
        cache=SubgraphCache(capacity=256),
    )
    finetuner = None
    if finetune:
        manager = (
            CheckpointManager(checkpoint_dir, keep_last=2)
            if checkpoint_dir is not None
            else None
        )
        finetuner = OnlineFineTuner(
            model,
            FineTuneConfig(
                min_labels=16, max_nodes=128, batch_size=32, every_labels=32, seed=seed
            ),
            checkpoint=manager,
            registry=registry,
        )
    # Without a wal_dir the run owns a temporary one, removed when the
    # stream is done.
    owned = (
        tempfile.TemporaryDirectory(prefix="repro-stream-wal-")
        if wal_dir is None
        else contextlib.nullcontext(wal_dir)
    )
    with owned as wal_dir:
        wal = EventLog(wal_dir, segment_max_bytes=64 * 1024, fsync=False)
        scorer = StreamScorer(
            service,
            builder,
            wal=wal,
            config=StreamConfig(
                batch_size=batch_size,
                queue_capacity=batch_size * 4,
                label_delay_s=label_delay_s,
                compact_every=compact_every,
                drift=DriftConfig(window=64, min_samples=32),
            ),
            clock=clock,
            finetuner=finetuner,
            registry=registry,
        )

        drift_from = int(len(live) * 0.75)
        responses: List[ScoreResponse] = []
        for position, event in enumerate(live):
            if drift_burst and position >= drift_from:
                event = _shift_features(event, 1.5)
            if event.timestamp > clock():
                clock.advance(event.timestamp - clock())
            while not scorer.ingest(event):
                responses.extend(scorer.pump(max_batches=1))
            if scorer.lag_events >= batch_size:
                responses.extend(scorer.pump(max_batches=1))
        responses.extend(scorer.pump())
        # Let every chargeback mature, then run the final feedback pass.
        clock.advance(label_delay_s + 1.0)
        scorer.mature_labels()
        wal.close()

    # -- act 4: delta-vs-rebuilt subgraph gate -------------------------
    # The live CSR is delta-grown (every flush of the stream wrote into
    # its buckets; compaction keeps it). Fingerprint probe subgraphs
    # under the sampler and under its scalar spec, compact, rebuild the
    # CSR from the flat edge arrays, and fingerprint again — all four
    # must be bit-identical.
    from ..check import subgraph_equal  # here: repro.check imports repro.stream
    from ..check.reference import scalar_sample

    probe = graph.txn_nodes[-min(32, len(graph.txn_nodes)) :]
    sampler = SageSampler(hops=2, fanout=10, seed=seed)
    graph.csr()  # ensure the adjacency is materialised before the rebuild
    before_ref, before_vec = scalar_sample(sampler, graph, probe), sampler.sample(graph, probe)
    builder.compact()
    graph.rebuild_csr()
    after_ref, after_vec = scalar_sample(sampler, graph, probe), sampler.sample(graph, probe)
    gate = all(
        subgraph_equal(a, b) is None
        for a, b in ((before_ref, before_vec), (before_ref, after_ref), (before_vec, after_vec))
    )

    service.close()

    verdict_lines = [
        f"{response.node} {response.score:.12f} {response.verdict} {response.rung}"
        for response in responses
    ]
    digest = zlib.crc32("\n".join(verdict_lines).encode("utf-8"))
    drift_reports = scorer.score_drift.alerts + scorer.feature_drift.alerts
    return StreamDemoResult(
        responses=responses,
        verdict_lines=verdict_lines,
        verdict_digest=digest,
        health=scorer.health(),
        graph_version=graph.version,
        subgraph_gate_passed=gate,
        drift_reports=drift_reports,
        online_auc=scorer.online_auc.auc(),
        warmup_events=len(warmup),
        streamed_events=len(live),
        scorer=scorer,
    )
