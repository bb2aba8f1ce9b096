"""Chaos scenarios: the degradation ladder under scripted faults.

Proves the PR-3 acceptance criteria end to end on a simulated clock:

* a scripted outage of a one-replica feature tier walks the replica
  to dead, requests fail over to the linked rung without reading it,
  probes recover it, and the full healthy -> ... -> dead -> probing ->
  healthy journey is visible in its ``ReplicaHealth``;
* every admitted request gets a verdict — the ladder never raises;
* deadline expiry mid-sampling or mid-fetch produces a *degraded
  verdict*, and no request overruns its budget by more than one
  pipeline step (one feature-fetch chunk).
"""

import numpy as np
import pytest

from repro.reliability import FaultPlan, FaultyKVStore, ManualClock
from repro.serving import (
    RUNG_GNN,
    RUNG_LINKED,
    RUNG_PRIOR,
    ScoreRequest,
    ScoringService,
    ServiceConfig,
)
from repro.serving import service as service_module
from repro.storage import GraphStore, InMemoryKVStore, ReplicatedConfig, ReplicatedKVStore

READ_DELAY_S = 0.002
FETCH_CHUNK = 8


@pytest.fixture(autouse=True)
def _small_fetch_chunks(monkeypatch):
    monkeypatch.setattr(service_module, "FETCH_CHUNK", FETCH_CHUNK)


def _chaos_service(
    trained_detector,
    tiny_graph,
    outage_window,
    deadline_s=0.5,
    read_delay_s=READ_DELAY_S,
):
    """Service over a one-replica feature tier whose replica is killed
    over ``outage_window``, on a shared manual clock."""
    clock = ManualClock()
    plan = FaultPlan(
        num_workers=1, replica_kill={0: [outage_window]}, replica_slow={0: read_delay_s}
    )
    store = ReplicatedKVStore(
        plan.wrap_replicas([InMemoryKVStore()], clock),
        config=ReplicatedConfig(
            replication_factor=1, suspect_after=1, dead_after=2, probe_interval_s=0.05
        ),
        clock=clock,
    )
    GraphStore(store).save(tiny_graph)
    config = ServiceConfig(deadline_s=deadline_s, static_prior=0.05)
    service = ScoringService(
        trained_detector,
        tiny_graph,
        feature_store=store,
        config=config,
        clock=clock,
        own_store=True,
    )
    return service, clock


def _requests(graph, count):
    return [ScoreRequest(node=int(node)) for node in np.flatnonzero(graph.labels >= 0)[:count]]


def _budget_overrun_bound(read_delay_s=READ_DELAY_S):
    """One pipeline step: a full fetch chunk."""
    return FETCH_CHUNK * read_delay_s + 1e-9


class TestOutageLadder:
    def test_outage_kills_replica_linked_serves_and_probes_recover(
        self, trained_detector, tiny_graph
    ):
        service, clock = _chaos_service(
            trained_detector, tiny_graph, outage_window=(0.15, 0.45)
        )
        with service:
            requests = _requests(tiny_graph, 30)
            responses = []
            for request in requests:
                responses.append(service.score(request))
                clock.advance(0.02)

            # 100% of admitted requests got a verdict, none raised.
            assert len(responses) == len(requests)
            assert all(r.admitted for r in responses)
            assert all(r.verdict in ("fraud", "legit") for r in responses)

            rungs = {r.rung for r in responses}
            assert RUNG_GNN in rungs  # healthy before and after the outage
            assert RUNG_LINKED in rungs  # degraded during the outage

            # The replica's journey is observable in its ReplicaHealth.
            store = service.feature_store
            path = store.health[0].state_path()
            assert path[0] == "healthy"
            assert "dead" in path and "probing" in path
            assert path[-1] == "healthy"  # recovered

            # Degradations carry their reason, and most were gate
            # shortcuts: a dead replica is not read (no doomed KV reads).
            degraded = [r.degraded_reason for r in responses if r.degraded_reason]
            assert set(degraded) == {"kv_unavailable"}
            assert store.replicas[0].injected < len(degraded)

            # After recovery the last responses ride the GNN rung again.
            assert responses[-1].rung == RUNG_GNN

    def test_prior_rung_serves_shed_burst_with_verdicts(
        self, trained_detector, tiny_graph
    ):
        service, clock = _chaos_service(
            trained_detector, tiny_graph, outage_window=(0.15, 0.45)
        )
        with service:
            # Ladder bottom: a queue-busting burst is shed *with verdicts*.
            burst = _requests(tiny_graph, service.config.queue_capacity + 6)
            shed = [service.submit(request) for request in burst]
            rejected = [s for s in shed if s is not None]
            assert len(rejected) == 6
            assert all(r.rung == RUNG_PRIOR for r in rejected)
            assert all(r.verdict in ("fraud", "legit") for r in rejected)
            drained = service.drain()
            assert len(drained) == service.config.queue_capacity

            # Every request that entered the system left with a verdict.
            assert service.stats.received == len(burst)
            assert service.stats.completed + service.stats.total_shed == len(burst)

    def test_no_request_overruns_deadline_by_more_than_one_step(
        self, trained_detector, tiny_graph
    ):
        budget = 0.01  # tighter than one fetch chunk: burns out mid-fetch
        service, clock = _chaos_service(
            trained_detector,
            tiny_graph,
            outage_window=(1e9, 2e9),  # no outage; stragglers only
            deadline_s=budget,
        )
        bound = _budget_overrun_bound()
        with service:
            responses = []
            for request in _requests(tiny_graph, 12):
                responses.append(service.score(request))
                clock.advance(0.01)
            assert all(r.verdict in ("fraud", "legit") for r in responses)
            # Tight budgets force deadline degradations...
            degraded = [r for r in responses if r.rung != RUNG_GNN]
            assert degraded
            assert service.stats.deadline_hits > 0
            assert any(
                (r.degraded_reason or "").startswith("deadline:") for r in degraded
            )
            # ...and nobody overruns by more than one pipeline step.
            for response in responses:
                assert response.latency_s <= budget + bound


class TestReplicatedFeatureTier:
    """PR-7 acceptance: a replica killed mid-batch plus silently
    corrupted values on another replica are fully absorbed — the
    service finishes on the GNN rung with scores identical to a
    fault-free run, and the health machine walks dead -> probing ->
    healthy on the manual clock."""

    def _replicated_service(
        self, trained_detector, tiny_graph, clock, fault_plan=None
    ):
        replicas = 3
        backings = [InMemoryKVStore() for _ in range(replicas)]
        slowed = [FaultyKVStore(b, clock, delay_s=READ_DELAY_S) for b in backings]
        plan = fault_plan or FaultPlan(num_workers=replicas, seed=0)
        store = ReplicatedKVStore(
            plan.wrap_replicas(slowed, clock),
            config=ReplicatedConfig(
                replication_factor=replicas,
                suspect_after=1,
                dead_after=2,
                probe_interval_s=0.05,
            ),
            clock=clock,
            seed=0,
        )
        GraphStore(store).save(tiny_graph)
        config = ServiceConfig(
            deadline_s=5.0,
            batch_size=8,
            static_prior=0.05,
        )
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=store,
            config=config,
            clock=clock,
            own_store=True,
        )
        return service, store

    def test_replica_kill_and_corruption_absorbed_mid_batch(
        self, trained_detector, tiny_graph
    ):
        requests = _requests(tiny_graph, 24)

        # Fault-free baseline for the score-equality check.
        baseline_clock = ManualClock()
        baseline, _ = self._replicated_service(
            trained_detector, tiny_graph, baseline_clock
        )
        with baseline:
            baseline_scores = [
                r.score for r in self._scripted_batch(baseline, baseline_clock, requests)
            ]

        clock = ManualClock()
        plan = FaultPlan(
            num_workers=3,
            seed=0,
            replica_kill={1: [(0.15, 0.45)]},  # dies mid-run, revives
            replica_corrupt={2: [(0.0, 1e9)]},  # silently lies forever
        )
        service, store = self._replicated_service(
            trained_detector, tiny_graph, clock, fault_plan=plan
        )
        with service:
            responses = self._scripted_batch(service, clock, requests)

            # Every request admitted, completed on the GNN rung, with no
            # degradations attributable to storage — the faults were
            # absorbed below the service.
            assert len(responses) == len(requests)
            assert all(r.admitted for r in responses)
            assert all(r.rung == RUNG_GNN for r in responses)
            assert all(r.degraded_reason is None for r in responses)
            assert service.stats.kv_failures == 0

            # Zero corrupt values served: scores equal the fault-free run.
            assert [r.score for r in responses] == baseline_scores

            # The corruption was *seen* (and quarantined), not missed.
            assert store.corrupt_reads > 0
            assert store.failovers > 0

            # Recovery coda: the kill window is over; further traffic
            # probes the dead replica back to health.
            clock.advance(0.5)
            recovery = service.score_batch(requests[:8])
            assert all(r.rung == RUNG_GNN for r in recovery)

            # Replica 1's health machine walked the full journey.
            path = store.health[1].state_path()
            assert path[0] == "healthy"
            assert "dead" in path and "probing" in path
            assert path[-1] == "healthy"
            # Replica 2 (the liar) got quarantined straight to dead.
            assert "dead" in store.health[2].state_path()

    @staticmethod
    def _scripted_batch(service, clock, requests):
        """Score in micro-batches with inter-arrival gaps so the kill
        window opens and closes (and probes fire) inside the run."""
        responses = []
        for start in range(0, len(requests), 8):
            responses.extend(service.score_batch(requests[start : start + 8]))
            clock.advance(0.05)
        return responses


class TestDeadlineMidSampling:
    def test_degraded_verdict_never_exception(
        self, trained_detector, tiny_graph
    ):
        class AutoTickClock(ManualClock):
            """Every reading costs time: expires budgets inside sampling."""

            def __init__(self, tick):
                super().__init__()
                self.tick = tick

            def __call__(self):
                self.now += self.tick
                return self.now

        clock = AutoTickClock(tick=0.03)
        config = ServiceConfig(deadline_s=0.05, static_prior=0.05)
        service = ScoringService(
            trained_detector,
            tiny_graph,
            config=config,
            clock=clock,
        )
        node = int(np.flatnonzero(tiny_graph.labels >= 0)[0])
        response = service.score(node)  # must not raise
        assert response.admitted
        assert response.rung in (RUNG_LINKED, RUNG_PRIOR)
        assert response.degraded_reason.startswith("deadline:")
        assert "sampling" in response.degraded_reason or "admission" in response.degraded_reason
        assert service.stats.deadline_hits == 1

    def test_sampler_deadline_is_checked_per_hop(self, tiny_graph):
        from repro.graph.sampling import SageSampler
        from repro.serving import Deadline, DeadlineExceeded, ServiceStats

        clock = ManualClock()
        sampler = SageSampler(hops=3, fanout=4, seed=0)
        deadline = Deadline(clock(), np.array([0.01]), ServiceStats(), clock)
        clock.advance(0.02)  # already expired before the first hop
        node = int(np.flatnonzero(tiny_graph.labels >= 0)[0])
        with pytest.raises(DeadlineExceeded) as excinfo:
            sampler.sample(tiny_graph, [node], deadline=deadline)
        assert excinfo.value.stage == "sampling hop 0"
        # Without a deadline the same call succeeds (offline path intact).
        assert sampler.sample(tiny_graph, [node]).num_targets == 1
