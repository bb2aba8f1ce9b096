"""The four ledger workloads: what each one sets up, runs and checks.

Ground rules shared by all four (README.md gives the reasons):

* closed loop, one client, one process — the caller waits for every
  reply, as a checkout authorisation does;
* the timed phase is a fixed operation count derived from ``--seconds``
  at a nominal rate, never a wall-clock cut-off, so every count repeats
  exactly for a seed; a discarded warm-up precedes it;
* the deployed state (serving graph, fitted detector, KV rows) is built
  from :data:`FIXTURE_SEED`; ``--seed`` reaches only the traffic
  generators, and the program sees the generated inputs;
* the phase runs as ``ROUNDS`` rounds, each preceded by a slice of the
  calibration loop of :mod:`speed` and scaled by it: times are reported
  at reference speed — the box drifts by more than any bound otherwise;
* services run on the real ``time.monotonic`` clock with a
  :data:`DEADLINE_S` deadline, so a pathological slowdown surfaces as
  degraded rungs (counted in ``failed``), not as a silently longer run.

A workload object is used once: ``setup`` → (``instrument``) →
``warmup`` → ``timed``. A traced run builds a second, identical object
and repeats the sequence with the timing proxies installed.
"""

from __future__ import annotations

import math
import os
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro import nn
from repro.data import GeneratorConfig, TransactionGenerator, load_dataset
from repro.graph import SubgraphCache
from repro.models import DetectorConfig, XFraudDetectorPlus
from repro.obs import Profiler
from repro.reliability import ManualClock
from repro.serving import ScoringService, ServiceConfig
from repro.storage import GraphStore, InMemoryKVStore, ReplicatedConfig, ReplicatedKVStore
from repro.stream import EventLog, IncrementalGraphBuilder, StreamConfig, StreamScorer
from repro.train import TrainConfig, Trainer
from repro.train.metrics import roc_auc
from repro.util import batched

from speed import RoundMeter
from tracing import SpanRecorder

FIXTURE_SEED = 0
# Long enough that only a pathological slowdown degrades a request:
# the shared host stalls this VM for >250 ms about once in 25 runs, and
# at the service default's order of magnitude that stall, not the
# program, would fail the run's checks.
DEADLINE_S = 2.0
MICRO_BATCH = 32
CACHE_CAPACITY = 256
HOT_SET = 200
SCORE_TOLERANCE = 1e-9
CHECKED_SHARE = 0.05
ROUNDS = 200  # a phase is cut into this many rounds (~50 ms each), a speed slice before each

# Nominal rates on the reference box (2 shared cores, BLAS pinned to one
# thread). ``--seconds`` times a rate is the fixed operation count of
# the timed phase: a faster program finishes the same work sooner.
SERVE_COLD_REQUESTS_PER_S = 350  # x 10 s = one full cycle of the 3 492 txn nodes
SERVE_HOT_CALLS_PER_S = 40
STREAM_EVENTS_PER_S = 1500
TRAIN_EPOCHS_PER_S = 0.6

SERVE_COLD_WARMUP = 300
SERVE_HOT_WARMUP_CALLS = 30
STREAM_PREBUILT_EVENTS = 6000
STREAM_WARMUP_EVENTS = 512
# ebay-small-sim at scale 1.0 yields ~3.4k events after benign
# down-sampling; the stream is generated at the scale that covers
# pre-build + warm-up + timed events, with a margin.
STREAM_EVENTS_PER_UNIT_SCALE = 3000
TRAIN_SCALE = 0.25
TRAIN_BATCH = 64


@dataclass
class Outcome:
    """What one timed phase did and whether its outputs were right."""

    ops: int  # completed operations: the numerator of throughput_per_s
    attempted: int
    failed: int
    meter: RoundMeter  # wall time of the phase, raw and at reference speed
    latencies_s: List[float]  # at reference speed
    auc: float
    failures: List[str] = field(default_factory=list)  # output checks that did not hold
    exact: Dict[str, object] = field(default_factory=dict)  # must repeat for a seed
    extra: Dict[str, float] = field(default_factory=dict)  # harness-side counts


def scaled(count: float, ops_scale: float) -> int:
    return max(1, int(round(count * ops_scale)))


@contextmanager
def phase(phases: Dict[str, float], name: str) -> Iterator[None]:
    started = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - started


def in_rounds(items: Sequence) -> list:
    """``items`` cut into at most ``ROUNDS`` consecutive chunks."""
    return batched(items, max(1, math.ceil(len(items) / ROUNDS)))


def timed_root(rec: Optional[SpanRecorder]):
    """The span every timed operation hangs under; its self time is the
    harness's own (request bookkeeping, the event clock, loop overhead)."""
    return rec.span("harness.timed") if rec is not None else nullcontext()


def fit_detector() -> XFraudDetectorPlus:
    """The deployed model: detector+ (hops 2, fanout 10) after a 2-epoch fit.

    Fitted on the quarter-scale preset, not on the serving graph: one
    full-graph step on the 6.9k-node serving graph costs ~0.7 s and the
    whole set-up has to repeat three times inside a run. The detector is
    inductive, so the same weights score any ebay-small-sim graph; two
    epochs leave it weak (AUC ~0.6), which is enough for ``auc`` to do
    its job here — flag a change in what the forward computes.
    """
    bundle = load_dataset("ebay-small-sim", seed=FIXTURE_SEED, scale=TRAIN_SCALE)
    model = XFraudDetectorPlus(
        DetectorConfig(feature_dim=bundle.graph.feature_dim, seed=FIXTURE_SEED),
        hops=2,
        fanout=10,
    )
    Trainer(model, TrainConfig(epochs=2, batch_size=128, seed=FIXTURE_SEED)).fit(
        bundle.graph, bundle.train_nodes
    )
    return model


def scores_crc32(scores: Sequence[float]) -> int:
    """CRC32 of the scores rounded to 1e-9, in output order."""
    return zlib.crc32(np.round(np.asarray(scores, dtype=np.float64), 9).tobytes())


def instrument_forward(rec: SpanRecorder, model) -> None:
    rec.wrap(
        model,
        "predict_proba",
        "models.predict_proba",
        lambda args, out: {"targets": len(args[1]), "nodes": args[0].num_nodes},
    )


def instrument_service(rec: SpanRecorder, service: ScoringService) -> None:
    """Timing proxies around every layer a scoring request crosses."""
    rec.wrap(service, "score", "serving.score", lambda args, out: {"requests": 1})
    rec.wrap(
        service, "score_batch", "serving.score_batch", lambda args, out: {"requests": len(out)}
    )
    rec.wrap(service.cache, "get_or_sample", "graph.cache.get_or_sample")
    rec.wrap(
        service.cache, "invalidate", "graph.cache.invalidate", lambda args, out: {"removed": out}
    )
    rec.wrap(
        service.model.sampler,
        "sample",
        "graph.sampling.sample",
        lambda args, out: {"nodes": out.graph.num_nodes, "edges": out.graph.num_edges},
    )
    instrument_forward(rec, service.model)
    if service.feature_store is not None:
        rec.wrap(
            service.feature_store, "get", "storage.get", lambda args, out: {"bytes": len(out)}
        )


def service_counters(service: ScoringService) -> Dict[str, float]:
    """The program's own monotonic counters; the harness takes deltas."""
    stats, cache, store = service.stats, service.cache.stats(), service.feature_store
    return {
        "serving.requests": stats.received,
        "serving.completed": stats.completed,
        "serving.gnn": stats.rungs["gnn"],
        "serving.shed": stats.total_shed,
        "serving.deadline_hits": stats.deadline_hits,
        "graph.cache.hits": cache["hits"],
        "graph.cache.misses": cache["misses"],
        "graph.cache.evictions": cache["evictions"],
        "storage.failovers": store.failovers if store is not None else 0,
        "storage.hedge_overruns": store.hedge_overruns if store is not None else 0,
    }


class Workload:
    """Base: sizes from ``--seconds``, inputs from ``--seed``."""

    name = ""
    why = ""
    profiler: Optional[Profiler] = None  # set by a traced train_epoch: the nn op table

    def __init__(self, seed: int, seconds: float, ops_scale: float, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.ops_scale = ops_scale
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def sized(self, per_second: float) -> int:
        return scaled(per_second * self.seconds, self.ops_scale)

    def setup(self) -> Dict[str, float]:
        """Build the state; returns seconds per set-up phase."""
        raise NotImplementedError

    def instrument(self, rec: SpanRecorder) -> None:
        raise NotImplementedError

    def warmup(self, rec: Optional[SpanRecorder] = None) -> None:
        raise NotImplementedError

    def timed(self, rec: Optional[SpanRecorder] = None) -> Outcome:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        return {}

    def op_counts(self) -> Dict[str, int]:
        """The sizes this run was cut to, for the environment record."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve_cold / serve_hot
# ----------------------------------------------------------------------
class _Serve(Workload):
    """Shared serving fixture: the paper's Sec. 3.3.3 deployment shape.

    ``ebay-small-sim`` at scale 1.0 (~6.9k nodes / 3.5k txn), detector+,
    feature rows in a 3-replica :class:`ReplicatedKVStore`
    (replication factor 2, in-memory backings, sequential hedging) and a
    256-entry :class:`SubgraphCache`.
    """

    def setup(self) -> Dict[str, float]:
        phases: Dict[str, float] = {}
        with phase(phases, "generate"):
            self.graph = load_dataset("ebay-small-sim", seed=FIXTURE_SEED, scale=1.0).graph
        with phase(phases, "fit"):
            self.model = fit_detector()
        with phase(phases, "kv_populate"):
            store = ReplicatedKVStore(
                [InMemoryKVStore() for _ in range(3)], ReplicatedConfig(replication_factor=2)
            )
            GraphStore(store).save(self.graph)
        self.service = ScoringService(
            self.model,
            self.graph,
            feature_store=store,
            config=ServiceConfig(deadline_s=DEADLINE_S),
            cache=SubgraphCache(capacity=CACHE_CAPACITY),
        )
        self.plan()
        return phases

    requests_per_operation = 1

    def plan(self) -> None:
        """Draw ``self.operations`` (warm-up first, then timed) from ``self.rng``."""
        raise NotImplementedError

    def send(self, operation) -> list:
        """One public call into the service; returns its responses."""
        raise NotImplementedError

    def instrument(self, rec: SpanRecorder) -> None:
        instrument_service(rec, self.service)

    def _drive(self, operations: list, rec: Optional[SpanRecorder]):
        latencies: List[float] = []
        responses: list = []
        meter = RoundMeter(rec)
        op = 0
        with timed_root(rec):
            for chunk in in_rounds(operations):
                with meter.round(latencies):
                    for operation in chunk:
                        if rec is not None:
                            rec.op = op
                        op += 1
                        sent = time.perf_counter()
                        try:
                            batch = self.send(operation)
                        except Exception:  # a raised error is failed requests, not a failed run
                            batch = [None] * self.requests_per_operation
                        latencies.append(time.perf_counter() - sent)
                        responses.extend(batch)
        return responses, latencies, meter

    def warmup(self, rec: Optional[SpanRecorder] = None) -> None:
        self._drive(self.operations[: self.warm_count], None)

    def timed(self, rec: Optional[SpanRecorder] = None) -> Outcome:
        return self.judge(*self._drive(self.operations[self.warm_count :], rec))

    def counters(self) -> Dict[str, float]:
        return service_counters(self.service)

    def judge(self, responses: list, latencies: List[float], meter: RoundMeter) -> Outcome:
        """Output checks over the flat list of timed responses."""
        failures: List[str] = []
        bad = [r for r in responses if r is None or not r.admitted or r.rung != "gnn"]
        if bad:
            failures.append(f"{len(bad)} of {len(responses)} responses not admitted on the gnn rung")
        served = [r for r in responses if r is not None and r.rung == "gnn"]
        picks = np.random.default_rng([self.seed, 1]).choice(
            len(served), size=math.ceil(CHECKED_SHARE * len(served)), replace=False
        )
        reference: Dict[int, float] = {}
        worst = 0.0
        for pick in picks:
            response = served[int(pick)]
            if response.node not in reference:
                reference[response.node] = float(
                    self.model.predict_proba_sampled(self.graph, [response.node])[0]
                )
            worst = max(worst, abs(reference[response.node] - response.score))
        if worst > SCORE_TOLERANCE:
            failures.append(
                f"served score differs from predict_proba_sampled by {worst:.3e} (> {SCORE_TOLERANCE})"
            )
        last_score = {r.node: r.score for r in served}
        nodes = np.array([n for n in last_score if self.graph.labels[n] >= 0], dtype=np.int64)
        auc = roc_auc(self.graph.labels[nodes], [last_score[int(n)] for n in nodes])
        return Outcome(
            ops=len(served),
            attempted=len(responses),
            failed=len(bad),
            meter=meter,
            latencies_s=latencies,
            auc=auc,
            failures=failures,
            exact={"scores_crc32": scores_crc32([r.score for r in served])},
            extra={"checked_scores": len(picks), "checked_worst_abs_diff": worst},
        )


class ServeCold(_Serve):
    name = "serve_cold"
    why = (
        "single score() calls cycling all 3.5k txn nodes past a 256-entry LRU: ~0% hits, "
        "every request pays sampler + KV fetch + forward (the paper's per-transaction path)"
    )

    def plan(self) -> None:
        order = self.rng.permutation(np.asarray(self.graph.txn_nodes, dtype=np.int64))
        self.warm_count = scaled(SERVE_COLD_WARMUP, self.ops_scale)
        self.timed_count = self.sized(SERVE_COLD_REQUESTS_PER_S)
        positions = np.arange(self.warm_count + self.timed_count) % len(order)
        self.operations = [int(node) for node in order[positions]]

    def op_counts(self) -> Dict[str, int]:
        return {"warmup_requests": self.warm_count, "timed_requests": self.timed_count}

    def send(self, node: int) -> list:
        return [self.service.score(node)]


class ServeHot(_Serve):
    name = "serve_hot"
    requests_per_operation = MICRO_BATCH
    why = (
        "score_batch() of 32 drawn Zipf(1) from 200 pre-warmed txn nodes: ~100% hits, one "
        "stacked forward per call, the sampler idle; cache/sampler changes must not move it"
    )

    def plan(self) -> None:
        # Which 200 cards are hot is part of the deployment; which of
        # them is hottest, and the arrival order, come from the seed.
        txn = np.asarray(self.graph.txn_nodes, dtype=np.int64)
        hot = np.random.default_rng(FIXTURE_SEED).choice(txn, size=HOT_SET, replace=False)
        self.service.warm_cache(hot)
        ranked = self.rng.permutation(hot)
        weights = 1.0 / np.arange(1, HOT_SET + 1)
        self.warm_count = scaled(SERVE_HOT_WARMUP_CALLS, self.ops_scale)
        self.timed_count = self.sized(SERVE_HOT_CALLS_PER_S)
        draws = self.rng.choice(
            ranked,
            size=(self.warm_count + self.timed_count, MICRO_BATCH),
            p=weights / weights.sum(),
        )
        self.operations = [[int(node) for node in row] for row in draws]

    def op_counts(self) -> Dict[str, int]:
        return {
            "warmup_calls": self.warm_count,
            "timed_calls": self.timed_count,
            "requests_per_call": MICRO_BATCH,
        }

    def send(self, nodes: List[int]) -> list:
        return self.service.score_batch(nodes)


# ----------------------------------------------------------------------
# stream_ingest
# ----------------------------------------------------------------------
class StreamIngest(Workload):
    name = "stream_ingest"
    why = (
        "events through ingest -> WAL -> apply/flush -> score_batch(32) -> feedback on a growing "
        "graph: the serving code with writes beside reads; every flush invalidates the cache"
    )

    def setup(self) -> Dict[str, float]:
        phases: Dict[str, float] = {}
        self.prebuilt_count = scaled(STREAM_PREBUILT_EVENTS, self.ops_scale)
        self.warm_count = scaled(STREAM_WARMUP_EVENTS, self.ops_scale)
        self.timed_count = self.sized(STREAM_EVENTS_PER_S)
        needed = self.prebuilt_count + self.warm_count + self.timed_count
        with phase(phases, "generate"):
            events = self._generate(needed)
        with phase(phases, "fit"):
            model = fit_detector()
        with phase(phases, "graph_build"):
            # The pre-built prefix: applied in one delta, its labels
            # already matured, compacted — the state a scorer restarts on.
            prefix = events[: self.prebuilt_count]
            self.builder = IncrementalGraphBuilder(feature_dim=len(events[0].features))
            for event in prefix:
                self.builder.apply(event)
            self.builder.flush()
            for event in prefix:
                if event.label >= 0:
                    self.builder.apply_label(event.txn_id, event.label)
            self.builder.compact()
        self.warm_events = events[self.prebuilt_count : self.prebuilt_count + self.warm_count]
        self.timed_events = events[self.prebuilt_count + self.warm_count : needed]
        # Deadlines run on the real clock; label maturation runs on
        # event time so that the same stream matures the same labels.
        self.event_clock = ManualClock(prefix[-1].timestamp)
        self.service = ScoringService(
            model,
            self.builder.graph,
            config=ServiceConfig(deadline_s=DEADLINE_S, batch_size=MICRO_BATCH),
            cache=SubgraphCache(capacity=CACHE_CAPACITY),
        )
        self.wal = EventLog(os.path.join(self.workdir, "wal"), fsync=False)
        self.scorer = StreamScorer(
            self.service,
            self.builder,
            wal=self.wal,
            config=StreamConfig(
                batch_size=MICRO_BATCH, queue_capacity=128, label_delay_s=4.0, compact_every=128
            ),
            clock=self.event_clock,
        )
        return phases

    def _generate(self, needed: int) -> list:
        """ebay-small-sim's scenario mix (~3% fraud), scaled to the stream length."""
        scale = needed / STREAM_EVENTS_PER_UNIT_SCALE
        config = GeneratorConfig(
            num_benign_buyers=math.ceil(700 * scale),
            num_stolen_cards=math.ceil(12 * scale),
            num_warehouse_rings=math.ceil(4 * scale),
            num_cultivated_accounts=math.ceil(6 * scale),
            num_guest_checkouts=math.ceil(25 * scale),
            num_apartment_buildings=math.ceil(4 * scale),
            feature_dim=114,
            risk_signal=0.4,
            seed=self.seed,
        )
        events = TransactionGenerator(config).event_stream(interleave=True)
        if len(events) < needed:
            raise RuntimeError(f"generated {len(events)} events, the run needs {needed}")
        return events

    def op_counts(self) -> Dict[str, int]:
        return {
            "prebuilt_events": self.prebuilt_count,
            "warmup_events": self.warm_count,
            "timed_events": self.timed_count,
        }

    def instrument(self, rec: SpanRecorder) -> None:
        instrument_service(rec, self.service)
        rec.wrap(self.wal, "append", "stream.wal.append")
        for method in ("apply", "flush", "compact"):
            rec.wrap(self.builder, method, f"stream.builder.{method}")
        for method in ("ingest", "pump", "mature_labels"):
            rec.wrap(self.scorer, method, f"stream.scorer.{method}")

    def counters(self) -> Dict[str, float]:
        counters = service_counters(self.service)
        counters.update(
            {
                "stream.wal.appends": self.wal.record_count,
                "stream.wal.bytes": sum(row["size"] for row in self.wal.segments()),
                "stream.builder.compact_calls": self.builder.compactions,
                "stream.scorer.backpressure_rejections": self.scorer.backpressure_rejections,
            }
        )
        return counters

    def _drive(self, events: list, rec: Optional[SpanRecorder]):
        """Ingest every event, pumping one micro-batch whenever one is queued.

        Latency runs from an event's ``ingest()`` call to the return of
        the ``pump()`` that carried its verdict.
        """
        scorer, clock = self.scorer, self.event_clock
        sent: List[float] = []
        responses: list = []
        latencies: List[float] = []
        meter = RoundMeter(rec)
        refused = 0
        lag_max = 0
        op = 0

        def collect(batch: list) -> None:
            done = time.perf_counter()
            for _ in batch:
                latencies.append(done - sent[len(latencies)])
            responses.extend(batch)

        with timed_root(rec):
            chunks = in_rounds(events)
            for chunk in chunks:
                with meter.round(latencies):
                    for event in chunk:
                        if rec is not None:
                            rec.op = op
                        op += 1
                        if event.timestamp > clock():
                            clock.advance(event.timestamp - clock())
                        sent.append(time.perf_counter())
                        if not scorer.ingest(event):
                            # Backpressure with a 128-slot queue drained at
                            # 32 means the driver, not the program, is
                            # being measured.
                            refused += 1
                            sent.pop()
                            continue
                        lag_max = max(lag_max, scorer.lag_events)
                        if scorer.lag_events >= MICRO_BATCH:
                            collect(scorer.pump(max_batches=1))
                    if chunk is chunks[-1]:
                        collect(scorer.pump())  # the last, partial micro-batch
        return responses, latencies, refused, lag_max, meter

    def warmup(self, rec: Optional[SpanRecorder] = None) -> None:
        self._drive(self.warm_events, None)

    def timed(self, rec: Optional[SpanRecorder] = None) -> Outcome:
        events = self.timed_events
        responses, latencies, refused, lag_max, meter = self._drive(events, rec)
        failures: List[str] = []
        if len(responses) != len(events):
            failures.append(f"{len(responses)} verdicts for {len(events)} events")
        expected = [self.builder.node_of(event.txn_id) for event in events]
        if [r.node for r in responses] != expected[: len(responses)]:
            failures.append("verdicts are not in event order")
        bad = sum(1 for r in responses if not r.admitted or r.rung != "gnn")
        if bad:
            failures.append(f"{bad} verdicts not admitted on the gnn rung")
        labelled = [(e.label, r.score) for e, r in zip(events, responses) if e.label >= 0]
        graph = self.builder.graph
        return Outcome(
            ops=len(responses),
            attempted=len(events),
            failed=bad + (len(events) - len(responses)),
            meter=meter,
            latencies_s=latencies,
            auc=roc_auc([label for label, _ in labelled], [score for _, score in labelled]),
            failures=failures,
            exact={
                "scores_crc32": scores_crc32([r.score for r in responses]),
                "graph_version": graph.version,
                "graph_nodes": graph.num_nodes,
            },
            extra={
                "stream.scorer.lag_events_max": lag_max,
                "stream.scorer.refused_by_driver": refused,
                "stream.wal.segments": self.wal.segment_count(),
                "stream.builder.nodes_final": graph.num_nodes,
                "stream.builder.edges_final": graph.num_edges,
                "stream.builder.version_final": graph.version,
            },
        )

    def close(self) -> None:
        self.wal.close()


# ----------------------------------------------------------------------
# train_epoch
# ----------------------------------------------------------------------
class TrainEpoch(Workload):
    name = "train_epoch"
    why = (
        "plain single-worker Trainer.train_epoch (autograd forward+backward+AdamW on the full "
        "graph): no_grad inference, KV tier, cache and WAL idle; moves for any nn engine change"
    )

    def setup(self) -> Dict[str, float]:
        phases: Dict[str, float] = {}
        with phase(phases, "generate"):
            self.bundle = load_dataset("ebay-small-sim", seed=FIXTURE_SEED, scale=TRAIN_SCALE)
        self.graph = self.bundle.graph
        self.model = XFraudDetectorPlus(
            DetectorConfig(feature_dim=self.graph.feature_dim, seed=FIXTURE_SEED)
        )
        self.trainer = Trainer(
            self.model, TrainConfig(batch_size=TRAIN_BATCH, seed=FIXTURE_SEED)
        )
        # The seed decides the order the labelled targets are presented in.
        self.train_nodes = self.rng.permutation(self.bundle.train_nodes)
        self.epochs = self.sized(TRAIN_EPOCHS_PER_S)
        # The traced run drives the steps by hand and never calls
        # train_epoch, so it shuffles with its own copy of the trainer's
        # generator (same seed, same draws).
        self.shuffle = np.random.default_rng(self.trainer.config.seed)
        return phases

    def op_counts(self) -> Dict[str, int]:
        return {
            "warmup_epochs": 1,
            "timed_epochs": self.epochs,
            "targets_per_epoch": len(self.train_nodes),
            "batch_size": TRAIN_BATCH,
        }

    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(self.model, "loss", "train.forward")
        rec.wrap(self.trainer.optimizer, "step", "train.optimizer")
        instrument_forward(rec, self.model)

    def _epoch_by_hand(self, rec: SpanRecorder, meter: RoundMeter, latencies: List[float]) -> float:
        """``Trainer.train_epoch`` step for step, with a span round each stage.

        Must reproduce its losses bit for bit (checked against the
        untraced pass), or the spans describe some other computation.
        """
        config, optimizer, model = self.trainer.config, self.trainer.optimizer, self.model
        model.train()
        nodes = self.shuffle.permutation(np.asarray(self.train_nodes, dtype=np.int64))
        losses: List[float] = []
        for batch in batched(nodes, config.batch_size):
            rec.op = len(latencies)
            with meter.round(latencies):
                began = time.perf_counter()
                with rec.span("train.step"):
                    optimizer.zero_grad()
                    loss = model.loss(self.graph, batch)
                    with rec.span("train.backward"):
                        loss.backward()
                    nn.clip_grad_norm(model.parameters(), config.clip_norm)
                    optimizer.step()
                    losses.append(loss.item())
                latencies.append(time.perf_counter() - began)
        return float(np.mean(losses))

    def warmup(self, rec: Optional[SpanRecorder] = None) -> None:
        # The first epoch is several times slower: it grows the heap to
        # the tape's working set, one page fault at a time.
        if rec is None:
            self.trainer.train_epoch(self.graph, self.train_nodes)
        else:
            self._epoch_by_hand(rec, RoundMeter(), [])

    def timed(self, rec: Optional[SpanRecorder] = None) -> Outcome:
        """One round per optimiser step."""
        losses: List[float] = []
        latencies: List[float] = []
        meter = RoundMeter(rec)
        if rec is None:
            # Steps from outside: a round ends when optimizer.step()
            # returns and the next begins there, so a step's latency is
            # its round's wall time (shuffling and the epoch's loss mean
            # fall into the neighbouring steps).
            optimizer = self.trainer.optimizer
            step = optimizer.step

            def step_ends_round() -> None:
                step()
                latencies.append(time.perf_counter() - meter.started)
                meter.end(latencies)
                meter.begin(latencies)

            optimizer.step = step_ends_round
            try:
                meter.begin(latencies)
                for _ in range(self.epochs):
                    losses.append(self.trainer.train_epoch(self.graph, self.train_nodes))
            finally:
                del optimizer.step
        else:
            with timed_root(rec), Profiler() as self.profiler:
                for _ in range(self.epochs):
                    losses.append(self._epoch_by_hand(rec, meter, latencies))
        auc = self.trainer.evaluate(self.graph, self.bundle.test_nodes)["auc"]
        bad = sum(1 for loss in losses if not math.isfinite(loss))
        return Outcome(
            ops=self.epochs * len(self.train_nodes),
            attempted=len(latencies),
            failed=bad,
            meter=meter,
            latencies_s=latencies,
            auc=auc,
            failures=[f"{bad} epochs with a non-finite loss"] if bad else [],
            exact={"epoch_losses": losses, "train.steps": len(latencies)},
            extra={"train.steps": len(latencies), "train.loss_final": losses[-1]},
        )


WORKLOADS = {cls.name: cls for cls in (ServeCold, ServeHot, StreamIngest, TrainEpoch)}
