"""Deterministic chaos demo behind ``repro serve --demo``.

Builds a small serving stack end to end — dataset, briefly-trained
detector+, mined platform rules, a KV feature store — then replays a
scripted incident on a :class:`~repro.reliability.faults.ManualClock`:

1. *steady state*: KV reads are healthy (but slow enough to cost
   simulated time), requests score on the full GNN rung;
2. *outage*: a scripted read-index window makes every KV read fail, the
   retry layer exhausts, the circuit breaker opens, and requests fail
   over to the rules rung;
3. *recovery*: the cool-down elapses, half-open probes succeed, the
   breaker closes and the GNN rung returns;
4. *burst*: a queue-capacity-busting burst demonstrates load shedding
   with static-prior verdicts.

With ``--replicas N`` (N > 1) the feature tier becomes a
:class:`~repro.storage.replicated.ReplicatedKVStore` and the incident
changes character: the same outage window now *kills replica 1* (and,
with three or more replicas, a few of replica 2's feature rows are
silently bit-flipped on disk). The service stays on the GNN rung
throughout — reads fail over, the corrupt replica is quarantined, an
anti-entropy pass repairs the divergent rows, and the dead replica is
probed back to health — so the printed story is zero degradations with
the killed replica's health journey (``healthy → … → dead → probing →
healthy``) showing the failover instead.

Everything runs on simulated time, so the printed ``ServiceStats``
block — rung mix, breaker transition path, latency percentiles — is
bit-reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..data import load_dataset
from ..graph.cache import SubgraphCache
from ..models import DetectorConfig, XFraudDetectorPlus
from ..obs.registry import MetricsRegistry
from ..obs.trace import Tracer
from ..reliability.faults import FaultPlan, ManualClock, OutageKVStore, SlowKVStore
from ..reliability.retry import RetryPolicy
from ..rules.miner import MinerConfig, RuleMiner
from ..storage.kvstore import InMemoryKVStore, KVStore
from ..storage.loader import GraphStore
from ..storage.replicated import AntiEntropyReport, ReplicatedConfig, ReplicatedKVStore
from ..train import TrainConfig, Trainer
from .service import ScoreRequest, ScoreResponse, ScoringService, ServiceConfig
from .stats import ServiceStats


#: The replica the replicated storyline kills over the outage window.
KILLED_REPLICA = 1


@dataclass
class DemoResult:
    """Everything the CLI (and tests) need from one demo run."""

    responses: List[ScoreResponse]
    shed_responses: List[ScoreResponse]
    stats: ServiceStats
    service: ScoringService
    # Replicated-tier extras (None on the single-store storyline): the
    # store outlives service.close() for health reporting.
    feature_store: Optional[KVStore] = None
    anti_entropy: Optional[AntiEntropyReport] = None


def build_demo_service(
    seed: int = 0,
    scale: float = 0.25,
    epochs: int = 2,
    outage_window: Tuple[float, float] = (0.15, 0.45),
    read_delay_s: float = 0.002,
    deadline_s: float = 0.5,
    registry: Optional[MetricsRegistry] = None,
    trace: bool = False,
    batch_size: Optional[int] = None,
    cache_capacity: int = 256,
    replicas: int = 1,
) -> Tuple[ScoringService, "np.ndarray", ManualClock]:
    """Assemble the chaos-instrumented service; returns (service, test_nodes, clock).

    ``registry`` backs the service's stats with metric histograms;
    ``trace`` attaches a :class:`~repro.obs.trace.Tracer` on the demo's
    :class:`ManualClock`, so span timestamps live on the same simulated
    timeline as the scripted outage (reach it via ``service.tracer``).
    ``batch_size`` bounds the serving micro-batches (``None`` = one
    coalesced batch per ``score_batch``/``drain`` call); the subgraph
    cache (``cache_capacity`` entries) fronts every sampler call and
    reports hit/miss/eviction counters through ``registry``.

    ``replicas > 1`` swaps the single faulted store for a fully
    replicated tier: the outage window becomes a replica-1 kill, three
    or more replicas additionally get a handful of replica-2 feature
    rows bit-flipped on disk; each replica's own health machine is its
    only gate.
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

    # Platform rules mined from the raw transaction log (Appendix B) —
    # the feature-only middle rung of the degradation ladder.
    rules = RuleMiner(MinerConfig(seed=seed)).fit(
        bundle.log.feature_matrix(), bundle.log.labels()
    )

    clock = ManualClock()
    if replicas > 1:
        store = _build_replicated_store(
            graph,
            clock,
            replicas=replicas,
            seed=seed,
            outage_window=outage_window,
            read_delay_s=read_delay_s,
            hot_nodes=[int(n) for n in bundle.test_nodes[:64]],
        )
    else:
        backing = InMemoryKVStore()
        GraphStore(backing).save(graph)
        # Hand-built, not FaultPlan.wrap_replicas: slow is *outermost*
        # here (a read burns its delay even during the outage), and the
        # pinned timelines depend on that order.
        store = SlowKVStore(
            OutageKVStore(backing, windows=[outage_window], clock=clock),
            clock,
            delay_s=read_delay_s,
        )

    config = ServiceConfig(
        deadline_s=deadline_s,
        queue_capacity=8,
        breaker_min_calls=2,
        breaker_window=4,
        breaker_cooldown_s=0.05,
        breaker_half_open_probes=1,
        retry=RetryPolicy(max_attempts=2, base_delay=0.001, seed=seed),
        static_prior=float(graph.fraud_rate()),
        batch_size=batch_size,
    )
    tracer = Tracer(clock=clock) if trace else None
    service = ScoringService(
        model,
        graph,
        feature_store=store,
        rules=rules,
        config=config,
        clock=clock,
        own_store=True,
        tracer=tracer,
        registry=registry,
        cache=SubgraphCache(capacity=cache_capacity),
    )
    return service, np.asarray(bundle.test_nodes, dtype=np.int64), clock


def _build_replicated_store(
    graph,
    clock: ManualClock,
    replicas: int,
    seed: int,
    outage_window: Tuple[float, float],
    read_delay_s: float,
    hot_nodes: Optional[List[int]] = None,
    poison_rows: int = 3,
) -> ReplicatedKVStore:
    """The replicated incident: N slow replicas, replica
    ``KILLED_REPLICA`` killed over the outage window, and (with >= 3
    replicas) ``poison_rows`` of replica 2's feature rows bit-flipped
    on disk — persistent
    divergence for the quarantine + anti-entropy acts. ``hot_nodes``
    lists nodes the demo will actually score, so the poisoned rows are
    ones whose primary read lands on the corrupt replica and the
    quarantine act fires during the run."""
    backings = [InMemoryKVStore() for _ in range(replicas)]
    plan = FaultPlan(
        num_workers=replicas,
        seed=seed,
        replica_kill={KILLED_REPLICA: [outage_window]},
        replica_slow={replica: read_delay_s for replica in range(replicas)},
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
    if replicas > 2 and poison_rows > 0:
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
            if poisoned >= poison_rows:
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
    graph = service.graph
    for node in nodes:
        request = ScoreRequest(node=int(node), features=graph.txn_table[graph.txn_row[node]])
        responses.append(service.score(request))
        # Inter-arrival gap: lets the breaker cool-down elapse so the
        # recovery act (half-open -> closed) happens inside the run.
        clock.advance(0.02)

    # Replicated storyline: an anti-entropy pass heals the divergence
    # the scripted corruption left behind (and resurrects the
    # quarantined replica), before the burst act.
    anti_entropy: Optional[AntiEntropyReport] = None
    if isinstance(feature_store, ReplicatedKVStore):
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
        feature_store=feature_store if replicas > 1 else None,
        anti_entropy=anti_entropy,
    )
