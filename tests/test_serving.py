"""Online scoring service: deadlines, breaker, admission, ladder."""

import math

import numpy as np
import pytest

from repro.graph import SubgraphCache
from repro.graph.hetero import NODE_TYPE_IDS
from repro.obs import Tracer
from repro.reliability import (
    ManualClock,
    OutageKVStore,
    RetryPolicy,
    SlowKVStore,
    TransientReadError,
)
from repro.rules.miner import MinerConfig, RuleMiner, RuleSet
from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    RUNG_GNN,
    RUNG_PRIOR,
    RUNG_RULES,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    ScoreRequest,
    ScoringService,
    ServiceConfig,
    ServiceStats,
    TokenBucket,
)
from repro.storage import GraphStore, InMemoryKVStore


class TestDeadline:
    def test_remaining_counts_down_on_injected_clock(self):
        clock = ManualClock()
        deadline = Deadline(0.1, clock=clock)
        assert deadline.remaining() == pytest.approx(0.1)
        clock.advance(0.04)
        assert deadline.remaining() == pytest.approx(0.06)
        assert not deadline.expired()
        clock.advance(0.07)
        assert deadline.expired()

    def test_check_raises_typed_error_with_stage(self):
        clock = ManualClock()
        deadline = Deadline(0.01, clock=clock)
        deadline.check("sampling hop 0")  # within budget: no raise
        clock.advance(0.02)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("feature fetch")
        assert excinfo.value.stage == "feature fetch"
        assert excinfo.value.elapsed_s == pytest.approx(0.02)

    def test_never_expires(self):
        clock = ManualClock()
        deadline = Deadline.never(clock=clock)
        clock.advance(1e9)
        deadline.check("anything")
        assert not deadline.expired()

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestDeadlineGroup:
    """A stage check skips the per-member walk only while no member can
    have expired, and otherwise demotes exactly the members the walk
    would. Times are dyadic, so every expiry instant is exact."""

    BUDGETS = (0.5, 0.25, 1.0)
    STARTS = (0.0, 0.125, 0.25)  # member 1, the tightest, expires at 0.375 exactly
    INSTANTS = (0.0, 0.125, 0.249, 0.25, 0.374, 0.375, 0.5, 0.75, 1.0, 1.25)

    def _group(self, walk_always=False):
        from repro.serving.service import _BatchMember, _DeadlineGroup

        clock, members = ManualClock(), []
        for budget, start in zip(self.BUDGETS, self.STARTS):
            clock.now = start
            deadline = Deadline(budget, clock=clock)
            members.append(_BatchMember(ScoreRequest(node=0), deadline))
        stats = ServiceStats()
        group = _DeadlineGroup(members, stats, clock)
        if walk_always:
            group._tightest = -math.inf
        return clock, group, members, stats

    def _drive(self, walk_always):
        clock, group, members, stats = self._group(walk_always)
        trace = []
        for instant in self.INSTANTS:
            clock.now = instant
            try:
                group.check(f"stage@{instant}")
                raised = None
            except DeadlineExceeded as error:
                raised = error.stage
            trace.append(([m.degraded_reason for m in members], stats.deadline_hits, raised))
        return trace

    def test_reasons_and_hits_equal_the_per_member_walk(self):
        fast, slow = self._drive(False), self._drive(True)
        assert fast == slow
        reasons = dict(zip(self.INSTANTS, fast))
        # Not before the exact instant, and at it.
        assert reasons[0.374][0] == [None, None, None]
        assert reasons[0.375][0] == [None, "deadline:stage@0.375", None]
        assert reasons[0.5][:2] == (["deadline:stage@0.5", "deadline:stage@0.375", None], 2)
        assert reasons[1.25] == (
            ["deadline:stage@0.5", "deadline:stage@0.375", "deadline:stage@1.25"],
            3,
            "stage@1.25",
        )

    def test_the_walk_is_skipped_while_no_member_can_have_expired(self, monkeypatch):
        clock, group, members, _ = self._group()
        reads = []
        monkeypatch.setattr(
            Deadline, "expired", lambda self: reads.append(self) or self.remaining() <= 0
        )
        for instant in (0.0, 0.125, 0.249):  # earliest start + tightest budget = 0.25
            clock.now = instant
            group.check("early")
        assert reads == []
        clock.now = 0.25
        group.check("late")
        assert len(reads) == len(members)  # may have expired: every member is asked

    def test_a_group_of_none_raises(self):
        from repro.serving.service import _DeadlineGroup

        with pytest.raises(DeadlineExceeded):
            _DeadlineGroup([], ServiceStats(), ManualClock()).check("admission")


class TestCircuitBreaker:
    def _breaker(self, clock, **overrides):
        kwargs = dict(
            failure_threshold=0.5,
            window=4,
            min_calls=2,
            cooldown_s=1.0,
            half_open_probes=2,
            clock=clock,
        )
        kwargs.update(overrides)
        return CircuitBreaker(**kwargs)

    def test_closed_to_open_on_failure_rate(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        for _ in range(2):
            with pytest.raises(TransientReadError):
                breaker.call(self._boom)
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

    def test_half_open_probe_success_closes(self):
        clock = ManualClock()
        breaker = self._breaker(clock, half_open_probes=1)
        for _ in range(2):
            with pytest.raises(TransientReadError):
                breaker.call(self._boom)
        clock.advance(1.5)  # cool-down elapses
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == CLOSED
        assert breaker.transition_path() == (CLOSED, OPEN, HALF_OPEN, CLOSED)

    def test_half_open_probe_failure_reopens(self):
        clock = ManualClock()
        breaker = self._breaker(clock, half_open_probes=1)
        for _ in range(2):
            with pytest.raises(TransientReadError):
                breaker.call(self._boom)
        clock.advance(1.5)
        with pytest.raises(TransientReadError):
            breaker.call(self._boom)
        assert breaker.state == OPEN
        # Re-opened: the cool-down restarts from the probe failure.
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "nope")

    def test_successes_keep_breaker_closed(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        for _ in range(10):
            breaker.call(lambda: 1)
        with pytest.raises(TransientReadError):
            breaker.call(self._boom)
        assert breaker.state == CLOSED  # one failure in the window is below 50%

    def test_transitions_are_reported(self):
        clock = ManualClock()
        breaker = CircuitBreaker(
            min_calls=1, window=2, cooldown_s=0.1, half_open_probes=1, clock=clock
        )
        assert breaker.transition_path() == (CLOSED,)
        with pytest.raises(TransientReadError):
            breaker.call(self._boom)
        clock.advance(0.2)
        breaker.call(lambda: "ok")
        assert breaker.transition_path() == (CLOSED, OPEN, HALF_OPEN, CLOSED)
        assert [t.at for t in breaker.transitions] == [0.0, 0.2, 0.2]

    @staticmethod
    def _boom():
        raise TransientReadError("injected")


class TestAdmission:
    def test_token_bucket_limits_and_refills(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()  # burst spent
        clock.advance(0.1)  # 1 token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_queue_sheds_when_full(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.offer("a") == (True, None)
        assert queue.offer("b") == (True, None)
        assert queue.offer("c") == (False, SHED_QUEUE_FULL)
        assert queue.take() == "a"
        assert queue.offer("c") == (True, None)

    def test_queue_sheds_on_rate_limit(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=1.0, capacity=1.0, clock=clock)
        queue = AdmissionQueue(capacity=10, bucket=bucket)
        assert queue.offer("a") == (True, None)
        assert queue.offer("b") == (False, SHED_RATE_LIMITED)

    def test_full_queue_sheds_before_spending_a_token(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=1.0, capacity=1.0, clock=clock)
        queue = AdmissionQueue(capacity=1, bucket=bucket)
        assert queue.offer("a") == (True, None)
        assert queue.offer("b") == (False, SHED_QUEUE_FULL)
        # The token the full queue rejected is still available.
        assert queue.take() == "a"
        with pytest.raises(IndexError):
            queue.take()


class TestServiceStats:
    def test_latency_percentiles_and_describe(self):
        stats = ServiceStats()
        for latency in [0.01, 0.02, 0.03, 0.04]:
            stats.record_response(RUNG_GNN, latency)
        summary = stats.latency_summary()
        # Nearest-rank: p50 of 4 samples is the 2nd, an observed value.
        assert summary["p50"] == pytest.approx(0.02)
        assert "p95=" in stats.describe()

    def test_auc_is_nan_not_error_on_single_class(self):
        stats = ServiceStats()
        stats.record_outcome(0, 0.1)
        stats.record_outcome(0, 0.2)
        assert math.isnan(stats.auc())
        assert math.isnan(ServiceStats().auc())

    def test_breaker_state_path(self):
        """The stats block keeps no journey of its own: it reads the
        breaker's, whenever asked."""
        clock = ManualClock()
        stats = ServiceStats()
        assert stats.breaker_state_path() == () and stats.breaker_transitions == []
        stats.breaker = CircuitBreaker(min_calls=1, cooldown_s=0.1, clock=clock)
        assert stats.breaker_state_path() == ()  # never moved
        stats.breaker.record_failure()
        clock.advance(0.2)
        assert stats.breaker.allow()
        assert stats.breaker_state_path() == (CLOSED, OPEN, HALF_OPEN)
        assert stats.snapshot()["breaker_transitions"] == [(CLOSED, OPEN), (OPEN, HALF_OPEN)]
        assert "closed -> open -> half_open" in stats.describe()


@pytest.fixture(scope="module")
def mined_rules(tiny_log):
    rules = RuleMiner(MinerConfig(seed=0)).fit(
        tiny_log.feature_matrix(), tiny_log.labels()
    )
    assert len(rules) >= 1  # the ladder needs a live middle rung
    return rules


@pytest.fixture()
def feature_kv(tiny_graph):
    store = InMemoryKVStore()
    GraphStore(store).save(tiny_graph)
    return store


def _txn_nodes(graph, count=4):
    return [int(n) for n in np.flatnonzero(graph.labels >= 0)[:count]]


class TestScoringService:
    def test_gnn_rung_matches_sampled_prediction_shape(
        self, trained_detector, tiny_graph
    ):
        service = ScoringService(trained_detector, tiny_graph)
        node = _txn_nodes(tiny_graph, 1)[0]
        response = service.score(node)
        assert response.admitted
        assert response.rung == RUNG_GNN
        assert 0.0 <= response.score <= 1.0
        assert response.verdict in ("fraud", "legit")
        assert service.stats.rungs[RUNG_GNN] == 1

    def test_kv_backed_scoring_matches_in_memory(
        self, trained_detector, tiny_graph, feature_kv
    ):
        node = _txn_nodes(tiny_graph, 1)[0]
        direct = ScoringService(trained_detector, tiny_graph).score(node)
        kv_backed = ScoringService(
            trained_detector, tiny_graph, feature_store=feature_kv
        ).score(node)
        assert kv_backed.rung == RUNG_GNN
        # The sampler RNG advances between calls, so compare loosely:
        # the KV-hydrated features are bitwise the in-memory ones.
        assert 0.0 <= kv_backed.score <= 1.0
        assert direct.rung == RUNG_GNN

    def test_a_corrupt_entity_row_does_not_demote(self, trained_detector, tiny_graph):
        """Entity rows carry no input, so they are not fetched: one
        poisoned on its only replica leaves the request on the GNN rung
        (while every sampled row was fetched it was a checksum failure
        with no replica to fail over to: ``kv_unavailable``)."""
        from repro.storage import ReplicatedConfig, ReplicatedKVStore

        replicas = [InMemoryKVStore() for _ in range(2)]
        store = ReplicatedKVStore(replicas, ReplicatedConfig(replication_factor=1))
        GraphStore(store).save(tiny_graph)
        node = _txn_nodes(tiny_graph, 1)[0]
        sample = trained_detector.sampler.sample(tiny_graph, [node])
        entities = sample.original_ids[sample.graph.node_type != NODE_TYPE_IDS["txn"]]
        assert len(entities)
        key = f"feat/{int(entities[0])}"
        replicas[store.owners(key)[0]]._data[key] = b"poisoned"

        response = ScoringService(trained_detector, tiny_graph, feature_store=store).score(node)
        assert (response.rung, response.degraded_reason) == (RUNG_GNN, None)
        expected = trained_detector.predict_proba_sampled(tiny_graph, [node])[0]
        assert response.score == pytest.approx(expected, abs=1e-12)
        assert store.corrupt_reads == 0

    def test_rate_limit_sheds_with_prior_verdict(self, trained_detector, tiny_graph):
        clock = ManualClock()
        config = ServiceConfig(rate=1.0, burst=1.0, static_prior=0.01)
        service = ScoringService(
            trained_detector, tiny_graph, config=config, clock=clock
        )
        nodes = _txn_nodes(tiny_graph, 2)
        first = service.score(nodes[0])
        second = service.score(nodes[1])
        assert first.admitted
        assert not second.admitted
        assert second.shed_reason == SHED_RATE_LIMITED
        assert second.rung == RUNG_PRIOR
        assert second.score == pytest.approx(0.01)
        assert second.verdict == "legit"
        assert service.stats.total_shed == 1

    def test_queue_burst_sheds_beyond_capacity(self, trained_detector, tiny_graph):
        config = ServiceConfig(queue_capacity=2)
        service = ScoringService(trained_detector, tiny_graph, config=config)
        nodes = _txn_nodes(tiny_graph, 4)
        shed = [service.submit(n) for n in nodes]
        rejected = [s for s in shed if s is not None]
        assert len(rejected) == 2
        assert all(r.shed_reason == SHED_QUEUE_FULL for r in rejected)
        responses = service.drain()
        assert len(responses) == 2
        assert all(r.admitted for r in responses)

    def test_kv_outage_degrades_to_rules_not_error(
        self, trained_detector, tiny_graph, feature_kv, mined_rules
    ):
        clock = ManualClock()
        store = OutageKVStore(feature_kv, windows=[(0, 10_000)])
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            breaker_min_calls=2,
            breaker_window=4,
        )
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=store,
            rules=mined_rules,
            config=config,
            clock=clock,
        )
        node = _txn_nodes(tiny_graph, 1)[0]
        request = ScoreRequest(node=node, features=tiny_graph.txn_table[tiny_graph.txn_row[node]])
        response = service.score(request)
        assert response.admitted
        assert response.rung == RUNG_RULES
        assert response.degraded_reason == "kv_unavailable"
        assert service.stats.kv_failures == 1
        assert service.stats.kv_retries == 1

    def test_kv_outage_without_rules_falls_to_prior(
        self, trained_detector, tiny_graph, feature_kv
    ):
        clock = ManualClock()
        store = OutageKVStore(feature_kv, windows=[(0, 10_000)])
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=1), static_prior=0.07
        )
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=store,
            rules=RuleSet(),  # empty: middle rung unavailable
            config=config,
            clock=clock,
        )
        node = _txn_nodes(tiny_graph, 1)[0]
        response = service.score(node)
        assert response.rung == RUNG_PRIOR
        assert response.score == pytest.approx(0.07)

    def test_transient_blips_are_absorbed_by_retries(
        self, trained_detector, tiny_graph, feature_kv
    ):
        from repro.reliability import FlakyKVStore

        clock = ManualClock()
        store = FlakyKVStore(feature_kv, fail_first=1)
        # fail_first faults the first read of *each key*, so fetch one
        # row per breaker call: every chunk fails once, then succeeds.
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0001), fetch_chunk=1
        )
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=store,
            config=config,
            clock=clock,
        )
        node = _txn_nodes(tiny_graph, 1)[0]
        response = service.score(node)
        assert response.rung == RUNG_GNN  # retried through, no degradation
        assert service.stats.kv_retries > 0
        assert service.breaker.state == CLOSED

    def test_invalid_node_rejected(self, trained_detector, tiny_graph):
        service = ScoringService(trained_detector, tiny_graph)
        with pytest.raises(ValueError):
            service.score(tiny_graph.num_nodes + 5)

    def test_an_entity_node_is_refused_at_every_entry_point(self, trained_detector, tiny_graph):
        """An entity has no feature row: the head would have concatenated
        a made-up zero row. It is refused like an out-of-range node, and
        refused before admission, so it takes no token and no slot."""
        service = ScoringService(trained_detector, tiny_graph)
        entity = int(np.flatnonzero(tiny_graph.node_type != 0)[0])
        for call in (service.score, service.submit, lambda node: service.score_batch([0, node])):
            with pytest.raises(ValueError, match=f"node {entity} is not a transaction"):
                call(entity)
        assert service.stats.snapshot()["admitted"] == 0

    def test_a_model_without_a_sampler_is_refused(self, trained_detector, tiny_graph):
        from repro.models import XFraudDetector

        with pytest.raises(TypeError, match="sampler"):
            ScoringService(XFraudDetector(trained_detector.config), tiny_graph)
        assert ScoringService(trained_detector, tiny_graph).sampler is trained_detector.sampler

    def test_context_manager_closes_owned_store(self, trained_detector, tiny_graph):
        class ClosableStore(InMemoryKVStore):
            closed = False

            def close(self):
                self.closed = True

        store = ClosableStore()
        GraphStore(store).save(tiny_graph)
        with ScoringService(
            trained_detector, tiny_graph, feature_store=store, own_store=True
        ) as service:
            node = _txn_nodes(tiny_graph, 1)[0]
            assert service.score(node).admitted
        assert store.closed

    def test_labeled_outcomes_feed_online_auc(self, trained_detector, tiny_graph):
        service = ScoringService(trained_detector, tiny_graph)
        fraud = [int(n) for n in np.flatnonzero(tiny_graph.labels == 1)[:3]]
        legit = [int(n) for n in np.flatnonzero(tiny_graph.labels == 0)[:3]]
        service.score_batch(fraud + legit)
        auc = service.stats.auc()
        assert not math.isnan(auc)
        assert 0.0 <= auc <= 1.0


class _BudgetBurningCache(SubgraphCache):
    """A SubgraphCache that spends ``delay_s`` of the shared clock
    before it looks anything up (a slow sampling stage)."""

    def __init__(self, clock, delay_s):
        super().__init__()
        self.clock = clock
        self.delay_s = delay_s

    def get_or_sample(self, graph, sampler, targets, deadline=None):
        self.clock.advance(self.delay_s)
        return super().get_or_sample(graph, sampler, targets, deadline)


class _TickingClock(ManualClock):
    """Every reading costs ``tick`` seconds."""

    def __init__(self, tick):
        super().__init__()
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


#: Counter keys of ``ServiceStats.snapshot()`` (everything but the
#: latency percentiles and the online AUC).
_COUNTER_KEYS = (
    "received",
    "admitted",
    "completed",
    "shed",
    "rungs",
    "degraded_reasons",
    "deadline_hits",
    "kv_failures",
    "kv_retries",
    "breaker_transitions",
)

def _admitted(rung, degraded=None, latency=None, remaining=None, **counters):
    """(response fields, stats counter deltas) of one admitted request."""
    fields = {
        "node": 0,
        "verdict": "legit",
        "rung": rung,
        "admitted": True,
        "shed_reason": None,
        "degraded_reason": degraded,
    }
    if latency is not None:
        fields.update(latency_s=latency, deadline_remaining_s=remaining)
    delta = {
        "received": 1,
        "admitted": 1,
        "completed": 1,
        "shed": {},
        "rungs": {rung: 1},
        "degraded_reasons": {degraded: 1} if degraded else {},
        "deadline_hits": 0,
        "kv_failures": 0,
        "kv_retries": 0,
        "breaker_transitions": [],
    }
    delta.update(counters)
    return fields, delta


# What the sequential scorer (``_score_admitted`` / ``_gnn_score`` /
# ``_fallback``, deleted when ``score()`` became a batch of one)
# answered in each scenario of ``TestBatchOfOneParity``: captured by
# running this very test body at commit 1630fad. The three latencies
# made of fetch time (healthy, feature fetch, model forward) are not
# captured: they are that scorer's rows × READ_DELAY_S arithmetic
# restated over the rows fetched now — the sample's 4 transaction rows,
# 2 a chunk, where it read all 8 sampled rows 4 a chunk (entity rows
# carry no input and are not fetched).
_SEQUENTIAL = {
    "healthy": _admitted("gnn", None, 0.008, 0.492),
    "deadline:admission": _admitted("rules", "deadline:admission", deadline_hits=1),
    "deadline:sampling": _admitted(
        "rules", "deadline:sampling hop 0", 1.0, -0.5, deadline_hits=1
    ),
    "deadline:feature fetch": _admitted(
        "rules", "deadline:feature fetch", 0.004, 0.0, deadline_hits=1
    ),
    "deadline:model forward": _admitted(
        "rules", "deadline:model forward", 0.008, 0.0, deadline_hits=1
    ),
    "breaker_open": _admitted("rules", "breaker_open", 0.0, 0.5),
    "kv_unavailable": _admitted(
        "rules", "kv_unavailable", 0.001318481, 0.498681519, kv_failures=1, kv_retries=1
    ),
    "rate_limited": (
        {
            "node": 0,
            "verdict": "legit",
            "rung": "prior",
            "admitted": False,
            "shed_reason": "rate_limited",
            "degraded_reason": None,
            "latency_s": 0.0,
            "deadline_remaining_s": None,
        },
        {
            "received": 1,
            "admitted": 0,
            "completed": 0,
            "shed": {"rate_limited": 1},
            "rungs": {},
            "degraded_reasons": {},
            "deadline_hits": 0,
            "kv_failures": 0,
            "kv_retries": 0,
            "breaker_transitions": [],
        },
    ),
}


class TestBatchOfOneParity:
    """``score(r)`` rides the micro-batch pipeline as a batch of one and
    must answer exactly as the sequential scorer it replaced did."""

    READ_DELAY_S = 0.002

    def _scenario(self, name, trained_detector, tiny_graph, rules):
        """-> (service in the scenario's state, the request to observe)."""
        node = _txn_nodes(tiny_graph, 1)[0]
        request = ScoreRequest(node=node, features=tiny_graph.txn_table[tiny_graph.txn_row[node]])
        clock = ManualClock()
        backing = InMemoryKVStore()
        GraphStore(backing).save(tiny_graph)
        store = SlowKVStore(backing, clock, delay_s=self.READ_DELAY_S)
        config = dict(
            deadline_s=0.5,
            fetch_chunk=2,
            static_prior=0.05,
            breaker_min_calls=2,
            breaker_window=4,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001, seed=0),
        )
        cache = None
        sample = trained_detector.sampler.sample(tiny_graph, [node])
        rows = int(np.sum(sample.graph.node_type == NODE_TYPE_IDS["txn"]))  # the rows fetched
        assert rows > 2  # more than one fetch chunk, so mid-fetch expiry exists
        fetch_s = rows * self.READ_DELAY_S
        if name == "deadline:admission":
            clock = _TickingClock(tick=1.0)
        elif name == "deadline:sampling":
            cache = _BudgetBurningCache(clock, delay_s=1.0)
        elif name == "deadline:feature fetch":
            config["deadline_s"] = 2 * self.READ_DELAY_S  # spent by the first chunk
        elif name == "deadline:model forward":
            config["deadline_s"] = fetch_s  # spent exactly as the last chunk lands
        elif name in ("breaker_open", "kv_unavailable"):
            store = OutageKVStore(backing, windows=[(0, 10_000)])
        elif name == "rate_limited":
            config.update(rate=1.0, burst=1.0)
        else:
            assert name == "healthy"
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=store,
            rules=rules,
            config=ServiceConfig(**config),
            clock=clock,
            cache=cache,
        )
        if name == "breaker_open":
            # Two failed fetches open the breaker; the observed request
            # is the third.
            for _ in range(2):
                assert service.score(request).degraded_reason == "kv_unavailable"
        if name == "rate_limited":
            assert service.score(request).admitted  # spends the only token
        return service, request

    @pytest.mark.parametrize(
        "name",
        [
            "healthy",
            "deadline:admission",
            "deadline:sampling",
            "deadline:feature fetch",
            "deadline:model forward",
            "breaker_open",
            "kv_unavailable",
            "rate_limited",
        ],
    )
    def test_score_matches_the_sequential_scorer(
        self, name, trained_detector, tiny_graph, mined_rules
    ):
        service, request = self._scenario(name, trained_detector, tiny_graph, mined_rules)
        before = service.stats.snapshot()
        response = service.score(request)
        after = service.stats.snapshot()

        fields = {
            "node": response.node,
            "verdict": response.verdict,
            "rung": response.rung,
            "admitted": response.admitted,
            "shed_reason": response.shed_reason,
            "degraded_reason": response.degraded_reason,
        }
        if name != "deadline:admission":
            # On the ticking clock these two count clock *reads*, which
            # are not part of the contract; everywhere else the clock
            # only moves with simulated work.
            fields["latency_s"] = round(response.latency_s, 9)
            fields["deadline_remaining_s"] = (
                None
                if response.deadline_remaining_s is None
                else round(response.deadline_remaining_s, 9)
            )
        delta = {}
        for key in _COUNTER_KEYS:
            if isinstance(after[key], dict):
                delta[key] = {
                    k: v - before[key].get(k, 0)
                    for k, v in after[key].items()
                    if v != before[key].get(k, 0)
                }
            elif isinstance(after[key], list):
                delta[key] = after[key][len(before[key]) :]
            else:
                delta[key] = after[key] - before[key]
        assert (fields, delta) == _SEQUENTIAL[name]

        # The score itself is checked against an independent oracle
        # rather than a float literal that would pin BLAS rounding.
        if response.rung == RUNG_GNN:
            expected = trained_detector.predict_proba_sampled(tiny_graph, [request.node])[0]
        elif response.rung == RUNG_RULES:
            expected = mined_rules.risk_scores(
                np.asarray(request.features, dtype=np.float64)[None, :]
            )[0]
        else:
            expected = 0.05
        assert response.score == pytest.approx(float(expected), abs=1e-9)


class TestBatchWalkDeadlines:
    """One sampler walk per micro-batch: expiry stays per member, the
    deadline checks become per walk."""

    SLOW_SAMPLING_S = 0.1

    def _service(self, trained_detector, tiny_graph, rules=None, cache=None, **kwargs):
        clock = ManualClock()
        if cache is None:
            cache = _BudgetBurningCache(clock, delay_s=self.SLOW_SAMPLING_S)
        return ScoringService(
            trained_detector,
            tiny_graph,
            rules=rules,
            config=ServiceConfig(deadline_s=0.5, static_prior=0.05),
            clock=clock,
            cache=cache,
            **kwargs,
        )

    def _requests(self, tiny_graph, short):
        """Four requests; those at the positions in ``short`` carry a
        budget that the slow sampling stage outlives."""
        return [
            ScoreRequest(
                node=node,
                features=tiny_graph.txn_table[tiny_graph.txn_row[node]],
                deadline_s=self.SLOW_SAMPLING_S / 2 if index in short else None,
            )
            for index, node in enumerate(_txn_nodes(tiny_graph, 4))
        ]

    def test_a_member_expiring_in_the_walk_is_demoted_alone(
        self, trained_detector, tiny_graph, mined_rules
    ):
        requests = self._requests(tiny_graph, short={2})
        service = self._service(trained_detector, tiny_graph, rules=mined_rules)
        responses = service.score_batch(requests)
        assert [r.degraded_reason for r in responses] == [
            None, None, "deadline:sampling hop 0", None
        ]
        assert [r.rung for r in responses] == [RUNG_GNN, RUNG_GNN, RUNG_RULES, RUNG_GNN]
        assert service.stats.deadline_hits == 1
        assert service.cache.stats()["lookups"] == 4  # looked up before the walk started
        # The demoted member left no trace in the forward: the other
        # three score exactly as a batch of just them, and as each does
        # alone up to the rounding of a differently shaped matmul.
        others = [request for request in requests if request.deadline_s is None]
        scored = [response for response in responses if response.rung == RUNG_GNN]
        without = self._service(trained_detector, tiny_graph).score_batch(others)
        assert [r.score for r in scored] == [r.score for r in without]
        for request, response in zip(others, scored):
            alone = self._service(trained_detector, tiny_graph).score(request)
            assert response.score == pytest.approx(alone.score, abs=1e-12)
        # Without rules the demoted member lands on the prior.
        bare = self._service(trained_detector, tiny_graph).score_batch(requests)
        assert [r.rung for r in bare] == [RUNG_GNN, RUNG_GNN, RUNG_PRIOR, RUNG_GNN]

    def test_a_member_expiring_in_the_walk_costs_no_row_read(self, trained_detector, tiny_graph):
        class Recording(InMemoryKVStore):
            def __init__(self):
                super().__init__()
                self.read = []

            def get(self, key):
                self.read.append(key)
                return super().get(key)

        def rows(node):
            ids = trained_detector.sampler.sample(tiny_graph, [node]).original_ids
            return {int(n) for n in ids if tiny_graph.node_type[n] == NODE_TYPE_IDS["txn"]}

        txn = _txn_nodes(tiny_graph, len(tiny_graph.txn_nodes))
        others = set().union(*(rows(node) for node in txn[:3]))
        expiring = next(node for node in txn if rows(node) - others)  # rows of its own
        requests = [
            ScoreRequest(node=node, deadline_s=self.SLOW_SAMPLING_S / 2 if short else None)
            for node, short in zip(txn[:2] + [expiring, txn[2]], (False, False, True, False))
        ]
        store = Recording()
        GraphStore(store).save(tiny_graph)
        service = self._service(trained_detector, tiny_graph, feature_store=store)
        responses = service.score_batch(requests)
        assert [r.rung for r in responses] == [RUNG_GNN, RUNG_GNN, RUNG_PRIOR, RUNG_GNN]
        assert sorted(store.read) == sorted(f"feat/{node}" for node in others)

    def test_a_batch_expiring_whole_skips_the_forward(
        self, trained_detector, tiny_graph, mined_rules, monkeypatch
    ):
        service = self._service(trained_detector, tiny_graph, rules=mined_rules)
        monkeypatch.setattr(
            trained_detector, "predict_proba", lambda *args: pytest.fail("forward ran")
        )
        responses = service.score_batch(self._requests(tiny_graph, short={0, 1, 2, 3}))
        assert {r.degraded_reason for r in responses} == {"deadline:sampling hop 0"}
        assert {r.rung for r in responses} == {RUNG_RULES}
        assert service.stats.deadline_hits == 4
        assert len(service.cache) == 0

    def test_the_sampler_checks_the_group_once_per_hop_per_walk(
        self, trained_detector, tiny_graph, monkeypatch
    ):
        from repro.serving import service as service_module

        stages = []
        check = service_module._DeadlineGroup.check
        monkeypatch.setattr(
            service_module._DeadlineGroup,
            "check",
            lambda self, stage: (stages.append(stage), check(self, stage))[1],
        )
        tracer = Tracer(clock=ManualClock())
        service = self._service(
            trained_detector, tiny_graph, cache=SubgraphCache(), tracer=tracer
        )
        nodes = _txn_nodes(tiny_graph, 4)
        hops = trained_detector.sampler.hops

        def sampling(call):
            stages.clear(), tracer.reset()
            call()
            (span,) = [span for span in tracer.spans() if span.name == "sample"]
            counts = (span.attributes["hits"], span.attributes["misses"])
            return [stage for stage in stages if stage.startswith("sampling")], counts

        expected = [f"sampling hop {hop}" for hop in range(hops)]
        # Four misses, one walk: `hops` checks, not `hops` x 4.
        assert sampling(lambda: service.score_batch(nodes)) == (expected, (0, 4))
        # All hits: no walk, no sampler check.
        assert sampling(lambda: service.score_batch(nodes)) == ([], (4, 0))
        more = _txn_nodes(tiny_graph, 7)
        assert sampling(lambda: service.score_batch(more)) == (expected, (4, 3))
        # No cache: every member is walked, every time.
        service.cache = None
        assert sampling(lambda: service.score_batch(nodes)) == (expected, (0, 4))
        assert sampling(lambda: service.score(nodes[0])) == (expected, (0, 1))


class TestSpanShape:
    """One request path, one span shape: ``score(r)``, ``score_batch([r])``
    and ``score_batch([r1, r2])`` differ only in counts."""

    @staticmethod
    def _tree(tracer):
        """[(name, parent name or None)] in start order."""
        spans = sorted(tracer.spans(), key=lambda span: span.span_id)
        names = {span.span_id: span.name for span in spans}
        return [(span.name, names.get(span.parent_id)) for span in spans]

    @staticmethod
    def _expected(size):
        return (
            [("admission", None)] * size
            + [
                ("batch", None),
                ("sample", "batch"),
                ("feature_fetch", "batch"),
                ("forward", "batch"),
                ("rung", "batch"),
            ]
            + [("request", None)] * size
        )

    def _service(self, trained_detector, tiny_graph, feature_kv):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=SlowKVStore(feature_kv, clock, delay_s=0.002),
            clock=clock,
            tracer=tracer,
        )
        return service, tracer

    def test_single_and_batched_requests_share_one_shape(
        self, trained_detector, tiny_graph, feature_kv
    ):
        first, second = _txn_nodes(tiny_graph, 2)
        calls = {
            "score(r)": (lambda service: [service.score(first)], 1),
            "score_batch([r])": (lambda service: service.score_batch([first]), 1),
            "score_batch([r1, r2])": (
                lambda service: service.score_batch([first, second]),
                2,
            ),
        }
        for label, (call, size) in calls.items():
            service, tracer = self._service(trained_detector, tiny_graph, feature_kv)
            responses = call(service)
            assert [r.rung for r in responses] == [RUNG_GNN] * size, label
            assert self._tree(tracer) == self._expected(size), label
            by_name = {span.name: span for span in tracer.spans()}
            assert by_name["batch"].attributes["size"] == size
            assert by_name["batch"].attributes["gnn_scored"] == size
            assert by_name["forward"].attributes["targets"] == size
            assert by_name["request"].attributes["rung"] == RUNG_GNN
            # Spans live on the deadline clock: the fetch is the only
            # stage that costs simulated time, and the batch covers it.
            fetch = by_name["feature_fetch"]
            assert fetch.duration_s == pytest.approx(fetch.attributes["rows"] * 0.002)
            assert by_name["batch"].duration_s == pytest.approx(fetch.duration_s)
            assert by_name["rung"].duration_s == 0.0

    def test_shed_request_emits_only_its_admission_span(
        self, trained_detector, tiny_graph
    ):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        service = ScoringService(
            trained_detector,
            tiny_graph,
            config=ServiceConfig(rate=1.0, burst=1.0),
            clock=clock,
            tracer=tracer,
        )
        node = _txn_nodes(tiny_graph, 1)[0]
        assert service.score(node).admitted
        tracer.reset()
        assert not service.score(node).admitted
        (span,) = tracer.spans()
        assert (span.name, span.attributes["admitted"]) == ("admission", False)
