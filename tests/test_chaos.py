"""Chaos scenarios: the degradation ladder under scripted faults.

Proves the PR-3 acceptance criteria end to end on a simulated clock:

* a scripted KV outage trips the breaker, requests fail over to the
  rules rung, half-open probes recover, and the full
  closed -> open -> half-open -> closed journey is visible in
  ``ServiceStats``;
* every admitted request gets a verdict — the ladder never raises;
* deadline expiry mid-sampling or mid-fetch produces a *degraded
  verdict*, and no request overruns its budget by more than one
  pipeline step (a sampling hop or one feature-fetch chunk).
"""

import numpy as np
import pytest

from repro.reliability import ManualClock, OutageKVStore, RetryPolicy, SlowKVStore
from repro.rules.miner import MinerConfig, RuleMiner
from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    RUNG_GNN,
    RUNG_PRIOR,
    RUNG_RULES,
    ScoreRequest,
    ScoringService,
    ServiceConfig,
)
from repro.storage import GraphStore, InMemoryKVStore

READ_DELAY_S = 0.002
FETCH_CHUNK = 8


@pytest.fixture(scope="module")
def chaos_rules(tiny_log):
    rules = RuleMiner(MinerConfig(seed=0)).fit(
        tiny_log.feature_matrix(), tiny_log.labels()
    )
    assert len(rules) >= 1
    return rules


def _chaos_service(
    trained_detector,
    tiny_graph,
    rules,
    outage_window,
    deadline_s=0.5,
    read_delay_s=READ_DELAY_S,
):
    """KV-backed service over a scripted outage on a shared manual clock."""
    backing = InMemoryKVStore()
    GraphStore(backing).save(tiny_graph)
    clock = ManualClock()
    store = SlowKVStore(
        OutageKVStore(backing, windows=[outage_window], clock=clock),
        clock,
        delay_s=read_delay_s,
    )
    config = ServiceConfig(
        deadline_s=deadline_s,
        fetch_chunk=FETCH_CHUNK,
        breaker_min_calls=2,
        breaker_window=4,
        breaker_cooldown_s=0.05,
        breaker_half_open_probes=1,
        retry=RetryPolicy(max_attempts=2, base_delay=0.001, seed=0),
        static_prior=0.05,
    )
    service = ScoringService(
        trained_detector,
        tiny_graph,
        feature_store=store,
        rules=rules,
        config=config,
        clock=clock,
        own_store=True,
    )
    return service, clock


def _requests(graph, count):
    nodes = np.flatnonzero(graph.labels >= 0)[:count]
    return [
        ScoreRequest(node=int(node), features=graph.txn_table[graph.txn_row[node]])
        for node in nodes
    ]


def _budget_overrun_bound(config, read_delay_s=READ_DELAY_S):
    """One pipeline step: a full fetch chunk, or a failed retry cycle."""
    retry_cost = config.retry.max_attempts * read_delay_s + sum(config.retry.delays())
    return max(config.fetch_chunk * read_delay_s, retry_cost) + 1e-9


class TestOutageLadder:
    def test_outage_trips_breaker_rules_serve_and_probes_recover(
        self, trained_detector, tiny_graph, chaos_rules
    ):
        service, clock = _chaos_service(
            trained_detector, tiny_graph, chaos_rules, outage_window=(0.15, 0.45)
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
            assert RUNG_RULES in rungs  # degraded during the outage

            # The breaker journey is observable in ServiceStats.
            path = service.stats.breaker_state_path()
            assert path[0] == CLOSED
            assert OPEN in path
            assert HALF_OPEN in path
            assert path[-1] == CLOSED  # recovered
            assert service.stats.breaker_transitions  # mirrored transitions
            assert service.breaker.state == CLOSED

            # Degradations carry reasons, and some were breaker shortcuts
            # (instant fail-over, no doomed KV reads).
            reasons = {r.degraded_reason for r in responses if r.degraded_reason}
            assert "kv_unavailable" in reasons
            assert "breaker_open" in reasons

            # After recovery the last responses ride the GNN rung again.
            assert responses[-1].rung == RUNG_GNN

    def test_prior_rung_serves_shed_burst_with_verdicts(
        self, trained_detector, tiny_graph, chaos_rules
    ):
        service, clock = _chaos_service(
            trained_detector, tiny_graph, chaos_rules, outage_window=(0.15, 0.45)
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
        self, trained_detector, tiny_graph, chaos_rules
    ):
        budget = 0.01  # tighter than one fetch chunk: burns out mid-fetch
        service, clock = _chaos_service(
            trained_detector,
            tiny_graph,
            chaos_rules,
            outage_window=(1e9, 2e9),  # no outage; stragglers only
            deadline_s=budget,
        )
        bound = _budget_overrun_bound(service.config)
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
        self, trained_detector, tiny_graph, rules, clock, fault_plan=None
    ):
        from repro.reliability.faults import FaultPlan
        from repro.storage import ReplicatedConfig, ReplicatedKVStore

        replicas = 3
        backings = [InMemoryKVStore() for _ in range(replicas)]
        slowed = [SlowKVStore(b, clock, delay_s=READ_DELAY_S) for b in backings]
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
            fetch_chunk=FETCH_CHUNK,
            batch_size=8,
            breaker_min_calls=2,
            breaker_window=4,
            breaker_cooldown_s=0.05,
            breaker_half_open_probes=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001, seed=0),
            static_prior=0.05,
        )
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=store,
            rules=rules,
            config=config,
            clock=clock,
            own_store=True,
        )
        return service, store

    def test_replica_kill_and_corruption_absorbed_mid_batch(
        self, trained_detector, tiny_graph, chaos_rules
    ):
        from repro.reliability.faults import FaultPlan

        requests = _requests(tiny_graph, 24)

        # Fault-free baseline for the score-equality check.
        baseline_clock = ManualClock()
        baseline, _ = self._replicated_service(
            trained_detector, tiny_graph, chaos_rules, baseline_clock
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
            trained_detector, tiny_graph, chaos_rules, clock, fault_plan=plan
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

            # Nothing but the replicas' own health gated those reads:
            # the service's breaker (for plain stores) never moved.
            assert service.stats.breaker_state_path() == ()

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
        self, trained_detector, tiny_graph, chaos_rules
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
            rules=chaos_rules,
            config=config,
            clock=clock,
        )
        node = int(np.flatnonzero(tiny_graph.labels >= 0)[0])
        request = ScoreRequest(node=node, features=tiny_graph.txn_table[tiny_graph.txn_row[node]])
        response = service.score(request)  # must not raise
        assert response.admitted
        assert response.rung in (RUNG_RULES, RUNG_PRIOR)
        assert response.degraded_reason.startswith("deadline:")
        assert "sampling" in response.degraded_reason or "admission" in response.degraded_reason
        assert service.stats.deadline_hits == 1

    def test_sampler_deadline_is_checked_per_hop(self, tiny_graph):
        from repro.graph.sampling import SageSampler
        from repro.serving import Deadline, DeadlineExceeded

        clock = ManualClock()
        sampler = SageSampler(hops=3, fanout=4, seed=0)
        deadline = Deadline(0.01, clock=clock)
        clock.advance(0.02)  # already expired before the first hop
        node = int(np.flatnonzero(tiny_graph.labels >= 0)[0])
        with pytest.raises(DeadlineExceeded) as excinfo:
            sampler.sample(tiny_graph, [node], deadline=deadline)
        assert excinfo.value.stage == "sampling hop 0"
        # Without a deadline the same call succeeds (offline path intact).
        assert sampler.sample(tiny_graph, [node]).num_targets == 1
