"""Streaming ingestion — WAL, incremental build, and end-to-end scoring
throughput, plus the delta-vs-compacted sampling overhead budget.

PR "streaming ingestion subsystem": events flow WAL → incremental
builder → micro-batched scorer. This bench times each stage over the
same generated event stream and asserts conservative floors (CI runs
them via the ``stream-smoke`` job):

* WAL append (fsync off, the demo configuration) clears a comfortable
  events/s floor, and incremental apply+flush the rate recorded while
  every flush still copied the whole graph;
* the full ingest → build → score → feedback loop clears an
  end-to-end floor;
* sampling against the *delta-grown* CSR costs no more than
  ``DELTA_SAMPLING_BUDGET``x a canonically rebuilt CSR (``rebuild_csr()``) —
  the compacted views are bit-identical, so any overhead is the grown
  buckets' scatter over the slot arrays, not a different walk;
* one 32-event ``flush`` into a ~40k-node graph costs at most
  ``FLUSH_RATIO_BUDGET``x the same flush into a ~5k-node graph
  (``test_flush_ratio_floor``: a ratio of two timings taken in one
  process, so machine speed cancels; CI's perf-smoke runs it) — growth
  writes the delta, it does not copy the graph;
* growing a ~180k-edge CSR by one 32-event delta into its buckets'
  headroom is at least ``GROW_VS_SPLICE_FLOOR``x faster than splicing
  the delta in by shifting the old entries
  (``test_grow_vs_splice_ratio_floor``, against
  ``repro.check.reference.splice_csr``; the same kind of in-process ratio).
"""

import time

import numpy as np

from _helpers import best_us, format_table, stream_shaped_graph, write_result
from repro.check.reference import compacted, splice_csr
from repro.data import GeneratorConfig, TransactionGenerator, TxnEvent
from repro.graph import NODE_TYPES, HeteroGraph, SageSampler, SubgraphCache
from repro.models import DetectorConfig, XFraudDetectorPlus
from repro.reliability import ManualClock
from repro.serving import ScoringService, ServiceConfig
from repro.stream import (
    DriftConfig,
    EventLog,
    IncrementalGraphBuilder,
    StreamConfig,
    StreamScorer,
)

WAL_FLOOR_EVENTS_S = 2_000
BUILD_FLOOR_EVENTS_S = 29_000  # the rate recorded while every flush still copied the graph
FLUSH_RATIO_BUDGET = 1.6  # flush into ~40k nodes vs ~5k nodes, same delta shape (reads 1.07-1.39x)
FLUSH_SAMPLES = 9
GROW_VS_SPLICE_FLOOR = 1.45  # splice / grow, one 32-event delta into ~180k edges (reads 1.71-2.14x)
GROW_SAMPLES = 40
END_TO_END_FLOOR_EVENTS_S = 30
DELTA_SAMPLING_BUDGET = 1.5  # delta-grown CSR vs rebuilt, median ratio (reads 1.11-1.13x)
SAMPLING_REPEATS = 9


def _events(seed=0):
    config = GeneratorConfig(
        num_benign_buyers=450,
        num_stolen_cards=8,
        num_warehouse_rings=3,
        num_cultivated_accounts=4,
        num_guest_checkouts=16,
        num_apartment_buildings=3,
        feature_dim=114,
        risk_signal=0.4,
        seed=seed,
    )
    return TransactionGenerator(config).event_stream(interleave=True)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _median_seconds(fn, repeats=SAMPLING_REPEATS):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _synthetic_builder(rng, num_txns, feature_dim=114):
    """A builder over :func:`_helpers.stream_shaped_graph`, CSR built.
    Entity ``j`` is external id ``j`` of kind ``1 + j % 4``."""
    graph = stream_shaped_graph(rng, num_txns, feature_dim)
    index = {name: {} for name in NODE_TYPES}
    for j in range(num_txns):
        index[NODE_TYPES[1 + j % 4]][j] = num_txns + j
    return IncrementalGraphBuilder(feature_dim, graph=graph, index=index)


def _stage_flush(builder, rng, events=32):
    """Stage one scoring micro-batch: each event links one entity per
    kind, half of them already in the graph (drawn across its whole id
    range) and half new — ~95 node rows and 256 directed edges."""
    known = len(builder.index["pmt"])
    for _ in range(events):
        fresh = builder.events_applied + builder.pending_events + 10**9
        ids = [
            4 * int(rng.integers(0, known)) + slot if rng.random() < 0.5 else 4 * fresh + slot
            for slot in range(4)
        ]
        builder.apply(
            TxnEvent(
                txn_id=fresh,
                pmt_id=ids[0],
                email_id=ids[1],
                addr_id=ids[2],
                buyer_id=ids[3],
                timestamp=0.0,
                features=rng.normal(size=builder.feature_dim),
            )
        )


def test_flush_ratio_floor():
    """Per-flush cost must not track the size of the graph."""
    rng = np.random.default_rng(0)
    builders = [_synthetic_builder(rng, num_txns) for num_txns in (2_500, 20_000)]
    sizes = [builder.graph.num_nodes for builder in builders]
    samples = [[], []]
    for builder in builders:  # adopt the arrays into spare-capacity buffers
        _stage_flush(builder, rng)
        builder.flush()
    for _ in range(FLUSH_SAMPLES):  # alternate, so a slow spell of the box hits both
        for builder, times in zip(builders, samples):
            times.append(
                best_us(builder.flush, number=1, setup=lambda: _stage_flush(builder, rng))
            )
    small_us, large_us = (float(np.median(times)) for times in samples)
    ratio = large_us / small_us
    for builder in builders:
        builder.compact()
        builder.graph.validate()  # the timed flushes left a sound graph
    print(
        f"\n32-event flush (~95 nodes / 256 edges): {small_us / 1e3:.2f} ms into "
        f"{sizes[0]:,} nodes, {large_us / 1e3:.2f} ms into {sizes[1]:,} nodes -> {ratio:.2f}x "
        f"(budget <= {FLUSH_RATIO_BUDGET:.1f}x)"
    )
    assert ratio <= FLUSH_RATIO_BUDGET


def _deltas(rng, num_txns, count, events=32, known=0.85):
    """``(num_nodes, edge_src, edge_dst)`` after each of ``count``
    32-event deltas onto :func:`_helpers.stream_shaped_graph`: each event
    a new transaction linking one entity per kind, an existing one
    (drawn across every entity so far) with probability ``known`` — ~110
    receiving old buckets a delta, as in the ledger's stream — else a new
    one; both directions of each link."""
    num_nodes, entities = 2 * num_txns, list(range(num_txns, 2 * num_txns))
    out = []
    for _ in range(count):
        src, dst = [], []
        for txn in range(num_nodes, num_nodes + events):
            for _ in range(4):
                if rng.random() < known:
                    entity = entities[int(rng.integers(0, len(entities)))]
                else:
                    entity = num_nodes + events + len(src) // 2
                    entities.append(entity)
                src += [txn, entity]
                dst += [entity, txn]
        num_nodes = max(num_nodes + events, max(src) + 1)
        out.append((num_nodes, np.array(src), np.array(dst)))
    return out


def test_grow_vs_splice_ratio_floor():
    """Growing into bucket headroom must beat shifting the old entries."""
    rng = np.random.default_rng(0)
    graph = stream_shaped_graph(rng, 21_000)
    deltas = _deltas(rng, 21_000, 24 + GROW_SAMPLES)
    grown, grow_buffers = graph.csr(), {}
    spliced, splice_buffers = compacted(grown), {}
    samples = [[], []]
    for step, (num_nodes, src, dst) in enumerate(deltas):
        start = time.perf_counter()
        grown = HeteroGraph._grow_csr(grown, num_nodes, src, dst, grow_buffers)
        middle = time.perf_counter()
        spliced = splice_csr(spliced, num_nodes, src, dst, splice_buffers)
        end = time.perf_counter()
        if step >= 24:  # past the first moves of the hub buckets
            samples[0].append(middle - start)
            samples[1].append(end - middle)
    for part, spec in zip(compacted(grown), spliced):
        np.testing.assert_array_equal(part, spec)
    grow_us, splice_us = (float(np.median(times)) * 1e6 for times in samples)
    ratio = splice_us / grow_us
    print(
        f"\none 32-event delta into {len(spliced[1]):,} edges: grow {grow_us:.0f} us, "
        f"splice {splice_us:.0f} us -> {ratio:.2f}x (floor >= {GROW_VS_SPLICE_FLOOR:.2f}x); "
        f"{len(grown.src) / len(spliced[1]):.2f} slots per edge"
    )
    assert ratio >= GROW_VS_SPLICE_FLOOR


def test_stream_throughput_and_delta_budget(benchmark, tmp_path):
    events = _events()
    feature_dim = len(events[0].features)
    n_warm = len(events) // 2
    warmup, live = events[:n_warm], events[n_warm:]

    # -- stage 1: WAL append ------------------------------------------
    wal = EventLog(str(tmp_path / "bench-wal"), segment_max_bytes=256 * 1024, fsync=False)
    _, wal_seconds = _timed(lambda: wal.append_many(live))
    wal.close()
    wal_rate = len(live) / wal_seconds

    # -- stage 2: incremental apply + flush ---------------------------
    def build_all():
        builder = IncrementalGraphBuilder(feature_dim=feature_dim)
        for position, event in enumerate(events):
            builder.apply(event)
            if position % 64 == 63:
                builder.flush()
                builder.graph.csr()  # keep a CSR live so flushes grow it
        builder.flush()
        return builder

    builder, build_seconds = _timed(build_all)
    build_rate = len(events) / build_seconds

    # -- delta-vs-compacted sampling overhead -------------------------
    graph = builder.graph
    probe = graph.txn_nodes[-128:]
    sampler = SageSampler(hops=2, fanout=10, seed=0)
    graph.csr()
    delta_seconds = _median_seconds(lambda: sampler.sample(graph, probe))
    builder.compact()
    graph.rebuild_csr()  # compact() keeps the grown CSR; this is the rebuilt side
    compact_seconds = _median_seconds(lambda: sampler.sample(graph, probe))
    overhead = delta_seconds / compact_seconds

    # -- stage 3: end-to-end ingest → score → feedback ----------------
    warm_builder = IncrementalGraphBuilder(feature_dim=feature_dim)
    for event in warmup:
        warm_builder.apply(event)
    warm_builder.flush()
    for event in warmup:
        if event.label >= 0:
            warm_builder.apply_label(event.txn_id, event.label)
    warm_builder.compact()
    clock = ManualClock()
    clock.advance(warmup[-1].timestamp)
    model = XFraudDetectorPlus(DetectorConfig(feature_dim=feature_dim, seed=0))
    service = ScoringService(
        model,
        warm_builder.graph,
        config=ServiceConfig(
            deadline_s=60.0, queue_capacity=256, static_prior=0.05, batch_size=32
        ),
        clock=clock,
        cache=SubgraphCache(capacity=256),
    )
    scorer = StreamScorer(
        service,
        warm_builder,
        wal=EventLog(str(tmp_path / "e2e-wal"), fsync=False),
        config=StreamConfig(
            batch_size=32,
            queue_capacity=128,
            label_delay_s=4.0,
            compact_every=128,
            drift=DriftConfig(window=64, min_samples=32),
        ),
        clock=clock,
    )

    def stream_all():
        scored = 0
        for event in live:
            if event.timestamp > clock():
                clock.advance(event.timestamp - clock())
            while not scorer.ingest(event):
                scored += len(scorer.pump(max_batches=1))
            if scorer.lag_events >= 32:
                scored += len(scorer.pump(max_batches=1))
        scored += len(scorer.pump())
        return scored

    scored, e2e_seconds = _timed(stream_all)
    e2e_rate = scored / e2e_seconds
    assert scored == len(live)

    # Timed artefact for the pytest-benchmark table: one scoring
    # micro-batch through the warm stack (re-pumping matured state).
    replay = live[:32]
    def one_batch():
        service.score_batch([scorer.builder.node_of(event.txn_id) for event in replay])

    benchmark.pedantic(one_batch, rounds=5, iterations=1)

    rows = [
        ["wal append", len(live), f"{wal_rate:,.0f}", f">= {WAL_FLOOR_EVENTS_S:,}"],
        ["apply+flush", len(events), f"{build_rate:,.0f}", f">= {BUILD_FLOOR_EVENTS_S:,}"],
        ["ingest→score→feedback", scored, f"{e2e_rate:,.0f}", f">= {END_TO_END_FLOOR_EVENTS_S:,}"],
    ]
    table = format_table(["stage", "events", "events/s", "floor"], rows)
    overhead_line = (
        f"delta-vs-compacted sampling overhead: {overhead:.2f}x "
        f"(budget <= {DELTA_SAMPLING_BUDGET:.2f}x; "
        f"delta {delta_seconds * 1e3:.2f}ms vs compacted {compact_seconds * 1e3:.2f}ms "
        f"per 128-target sample)"
    )
    write_result("stream", table + "\n\n" + overhead_line)
    print("\n" + table + "\n" + overhead_line)

    assert wal_rate >= WAL_FLOOR_EVENTS_S
    assert build_rate >= BUILD_FLOOR_EVENTS_S
    assert e2e_rate >= END_TO_END_FLOOR_EVENTS_S
    assert overhead <= DELTA_SAMPLING_BUDGET
