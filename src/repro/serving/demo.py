"""Deterministic chaos demo behind ``repro serve --demo``.

Builds a small serving stack end to end — dataset, briefly-trained
detector+, a serving graph that holds the training labels only (the
held-out transactions it scores carry ``-1``, as in a deployment), a
feature tier of ``replicas``
:class:`~repro.storage.replicated.ReplicatedKVStore` replicas — then
replays a scripted incident on a
:class:`~repro.reliability.faults.ManualClock`:

1. *steady state*: KV reads are healthy (but slow enough to cost
   simulated time), requests score on the full GNN rung;
2. *outage*: a scripted window kills one replica
   (:func:`killed_replica`);
3. *recovery*: the window closes, a probe read finds the replica
   serving again and its health machine walks ``probing → healthy``;
4. *burst*: a queue-capacity-busting burst demonstrates load shedding
   with static-prior verdicts.

The replica count decides what the outage does to requests. A single
store is a one-replica tier: its replica goes ``suspect → dead`` after
two failed reads, every request then demotes as ``kv_unavailable`` —
instantly, since a dead replica is not read — to the linked rung (its
linked transactions' training labels) or, with no labelled link, the
prior, and the first probe after the window brings the GNN rung back.
With more replicas the outage kills replica 1 (and, with three or more, a few of
replica 2's feature rows are silently bit-flipped on disk); reads fail
over, the corrupt replica is quarantined, an anti-entropy pass repairs
the divergent rows, and the service stays on the GNN rung throughout.
Either way the killed replica's health journey (``healthy → … → dead →
probing → healthy``) tells the story.

Everything runs on simulated time, so the printed ``ServiceStats``
block — rung mix, latency percentiles — and the replica journeys are
bit-reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..data import load_dataset
from ..graph.cache import SubgraphCache
from ..graph.hetero import HeteroGraph
from ..models import DetectorConfig, XFraudDetectorPlus
from ..obs.registry import MetricsRegistry
from ..obs.trace import Tracer
from ..reliability.faults import FaultPlan, ManualClock
from ..storage.kvstore import InMemoryKVStore
from ..storage.loader import GraphStore
from ..storage.replicated import AntiEntropyReport, ReplicatedConfig, ReplicatedKVStore
from ..train import TrainConfig, Trainer
from .service import ScoreResponse, ScoringService, ServiceConfig
from .stats import ServiceStats

#: Simulated-time window ``[start, end)`` over which the incident kills
#: :func:`killed_replica`.
OUTAGE_WINDOW = (0.15, 0.45)
#: Simulated seconds every replica read costs.
READ_DELAY_S = 0.002
#: Per-request deadline, in simulated seconds.
DEADLINE_S = 0.5
#: Subgraph-cache entries in front of the sampler.
CACHE_CAPACITY = 256
#: Replica-2 feature rows bit-flipped on disk when there are >= 3 replicas.
POISON_ROWS = 3


def killed_replica(replicas: int) -> int:
    """The replica the outage window kills: replica 1 when another
    replica can take its reads, the lone replica 0 otherwise."""
    return 1 if replicas > 1 else 0


@dataclass
class DemoResult:
    """Everything the CLI (and tests) need from one demo run."""

    responses: List[ScoreResponse]
    shed_responses: List[ScoreResponse]
    stats: ServiceStats
    service: ScoringService
    # The feature tier outlives service.close() for health reporting.
    feature_store: ReplicatedKVStore
    anti_entropy: AntiEntropyReport


def build_demo_service(
    seed: int = 0,
    scale: float = 0.25,
    epochs: int = 2,
    registry: Optional[MetricsRegistry] = None,
    trace: bool = False,
    batch_size: Optional[int] = None,
    replicas: int = 1,
) -> Tuple[ScoringService, "np.ndarray", ManualClock]:
    """Assemble the chaos-instrumented service; returns (service, test_nodes, clock).

    ``registry`` backs the service's stats with metric histograms;
    ``trace`` attaches a :class:`~repro.obs.trace.Tracer` on the demo's
    :class:`ManualClock`, so span timestamps live on the same simulated
    timeline as the scripted outage (reach it via ``service.tracer``).
    ``batch_size`` bounds the serving micro-batches (``None`` = one
    coalesced batch per ``score_batch``/``drain`` call); the subgraph
    cache (:data:`CACHE_CAPACITY` entries) fronts every sampler call and
    reports hit/miss/eviction counters through ``registry``.

    The features live in a fully replicated tier of ``replicas``
    replicas; the outage window kills :func:`killed_replica`, and three
    or more replicas additionally get a handful of replica-2 feature
    rows bit-flipped on disk. Each replica's own health machine is the
    only gate on the read path.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    bundle = load_dataset("ebay-small-sim", seed=seed, scale=scale)
    graph = bundle.graph

    model = XFraudDetectorPlus(DetectorConfig(feature_dim=graph.feature_dim, seed=seed))
    if epochs > 0:
        Trainer(model, TrainConfig(epochs=epochs, batch_size=512, seed=seed)).fit(
            graph, bundle.train_nodes
        )

    # Serve the labels a deployment holds: none for the held-out
    # transactions it scores, so a degraded verdict reads training
    # labels only. An O(1) clone: every other array is shared.
    labels = graph.labels.copy()
    labels[bundle.test_nodes] = -1
    served = HeteroGraph.derived(
        graph.node_type, graph.edge_src, graph.edge_dst, graph.edge_type, graph.txn_table, labels
    )

    clock = ManualClock()
    store = _build_replicated_store(
        graph,
        clock,
        replicas=replicas,
        seed=seed,
        hot_nodes=[int(n) for n in bundle.test_nodes[:64]],
    )
    config = ServiceConfig(
        deadline_s=DEADLINE_S,
        queue_capacity=8,
        static_prior=float(served.fraud_rate()),
        batch_size=batch_size,
    )
    tracer = Tracer(clock=clock) if trace else None
    service = ScoringService(
        model,
        served,
        feature_store=store,
        config=config,
        clock=clock,
        own_store=True,
        tracer=tracer,
        registry=registry,
        cache=SubgraphCache(capacity=CACHE_CAPACITY),
    )
    return service, np.asarray(bundle.test_nodes, dtype=np.int64), clock


def _build_replicated_store(
    graph,
    clock: ManualClock,
    replicas: int,
    seed: int,
    hot_nodes: Optional[List[int]] = None,
) -> ReplicatedKVStore:
    """The incident's feature tier: N slow replicas, replica
    :func:`killed_replica` killed over the outage window, and (with >= 3
    replicas) :data:`POISON_ROWS` of replica 2's feature rows bit-flipped
    on disk — persistent
    divergence for the quarantine + anti-entropy acts. ``hot_nodes``
    lists nodes the demo will actually score, so the poisoned rows are
    ones whose primary read lands on the corrupt replica and the
    quarantine act fires during the run."""
    backings = [InMemoryKVStore() for _ in range(replicas)]
    plan = FaultPlan(
        num_workers=replicas,
        seed=seed,
        replica_kill={killed_replica(replicas): [OUTAGE_WINDOW]},
        replica_slow={replica: READ_DELAY_S for replica in range(replicas)},
    )
    config = ReplicatedConfig(
        replication_factor=replicas,
        suspect_after=1,
        dead_after=2,
        probe_interval_s=0.05,
    )
    store = ReplicatedKVStore(
        plan.wrap_replicas(backings, clock), config=config, clock=clock, seed=seed
    )
    GraphStore(store).save(graph)
    if replicas > 2:
        # Flip one byte in a few of replica 2's copies — preferring
        # rows whose primary owner is replica 2 so the ledger CRC check
        # fires during the run (quarantine), not just at anti-entropy.
        candidates = list(hot_nodes or []) + list(range(graph.num_nodes))
        seen = set()
        poisoned = 0
        for node in candidates:
            key = f"feat/{node}"
            if key in seen or not backings[2].contains(key):
                continue
            seen.add(key)
            if store.owners(key)[0] != 2 and hot_nodes:
                continue
            raw = bytearray(backings[2].get(key))
            raw[len(raw) // 2] ^= 0xFF
            backings[2].put(key, bytes(raw))
            poisoned += 1
            if poisoned >= POISON_ROWS:
                break
    return store


def run_demo(
    seed: int = 0,
    scale: float = 0.25,
    epochs: int = 2,
    requests: int = 40,
    burst: int = 20,
    registry: Optional[MetricsRegistry] = None,
    trace: bool = False,
    batch_size: Optional[int] = None,
    replicas: int = 1,
) -> DemoResult:
    """Replay the scripted incident; see the module docstring for acts."""
    service, test_nodes, clock = build_demo_service(
        seed=seed,
        scale=scale,
        epochs=epochs,
        registry=registry,
        trace=trace,
        batch_size=batch_size,
        replicas=replicas,
    )
    feature_store = service.feature_store
    nodes = test_nodes[:requests]

    responses: List[ScoreResponse] = []
    for node in nodes:
        responses.append(service.score(int(node)))
        # Inter-arrival gap: lets the dead replica's probe interval
        # elapse so the recovery act (probing -> healthy) happens
        # inside the run.
        clock.advance(0.02)

    # An anti-entropy pass heals the divergence the scripted corruption
    # left behind (and resurrects the quarantined replica), before the
    # burst act.
    anti_entropy = feature_store.anti_entropy(repair=True)
    clock.advance(0.1)

    # Act 4: a burst beyond queue capacity -> bounded-queue shedding.
    shed_responses: List[ScoreResponse] = []
    burst_nodes = test_nodes[: max(burst, 1)]
    for node in burst_nodes:
        shed = service.submit(int(node))
        if shed is not None:
            shed_responses.append(shed)
    responses.extend(service.drain())

    service.close()
    return DemoResult(
        responses=responses,
        shed_responses=shed_responses,
        stats=service.stats,
        service=service,
        feature_store=feature_store,
        anti_entropy=anti_entropy,
    )
