"""Online scoring service: deadlines, admission, ladder."""

import math

import numpy as np
import pytest

from repro.graph import SubgraphCache
from repro.check.gen import random_delta, random_hetero_graph
from repro.data.events import TxnEvent
from repro.graph.hetero import NODE_TYPE_IDS, HeteroGraph
from repro.obs import Tracer
from repro.reliability import FaultyKVStore, ManualClock
from repro.serving import (
    RUNG_GNN,
    RUNG_LINKED,
    RUNG_PRIOR,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    AdmissionQueue,
    Deadline,
    DeadlineExceeded,
    ScoreRequest,
    ScoringService,
    ServiceConfig,
    ServiceStats,
    TokenBucket,
)
from repro.serving import service as service_module
from repro.storage import GraphStore, InMemoryKVStore, ReplicatedConfig, ReplicatedKVStore


class TestDeadline:
    def test_check_raises_typed_error_with_stage(self):
        clock = ManualClock()
        deadline = Deadline(clock(), np.array([0.01]), ServiceStats(), clock)
        deadline.check("sampling hop 0")  # within budget: no raise
        clock.advance(0.02)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("feature fetch")
        assert excinfo.value.stage == "feature fetch"
        assert excinfo.value.elapsed_s == pytest.approx(0.02)

    def test_never_expires(self):
        clock, stats = ManualClock(), ServiceStats()
        deadline = Deadline(clock(), np.array([math.inf]), stats, clock)
        clock.advance(1e9)
        deadline.check("anything")
        assert deadline.live.tolist() == [0] and stats.deadline_hits == 0

    def test_rejects_nonpositive_budget(self):
        """A deadline's budgets come from ``ServiceConfig.deadline_s``
        or a ``ScoreRequest``, and each refuses one that is not
        positive (the request's refusal is tested with admission)."""
        with pytest.raises(ValueError, match="deadline_s must be positive"):
            ServiceConfig(deadline_s=0.0)

    @pytest.mark.parametrize("budget", [float("nan"), -math.inf, -1.0])
    def test_rejects_a_budget_that_never_expires_or_is_spent(self, budget):
        """A NaN budget would never expire: every comparison with NaN is
        false, so no check would demote its member."""
        with pytest.raises(ValueError, match="deadline_s must be positive"):
            ServiceConfig(deadline_s=budget)


class TestDeadlineGroup:
    """A stage check computes no expiry mask while no member can have
    expired, and otherwise demotes exactly the members the mask does.
    Times are dyadic, so every expiry instant is exact. A group has one
    start and a budget per member: members started at 0, 0.125 and 0.25
    with budgets 0.5, 0.25 and 1.0 are budgets 0.5, 0.375 and 1.25 from
    the group's start at 0, and expire at the same instants."""

    BUDGETS = (0.5, 0.375, 1.25)  # member 1, the tightest, expires at 0.375 exactly
    INSTANTS = (0.0, 0.125, 0.249, 0.25, 0.374, 0.375, 0.5, 0.75, 1.0, 1.25)

    def _group(self, walk_always=False):
        clock, stats = ManualClock(), ServiceStats()
        group = Deadline(0.0, np.array(self.BUDGETS), stats, clock)
        if walk_always:
            group._tightest = -math.inf
        return clock, group, stats

    def _drive(self, walk_always):
        clock, group, stats = self._group(walk_always)
        trace = []
        for instant in self.INSTANTS:
            clock.now = instant
            try:
                group.check(f"stage@{instant}")
                raised = None
            except DeadlineExceeded as error:
                raised = error.stage
            trace.append((group.reasons.tolist(), stats.deadline_hits, raised))
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

    def test_a_budget_equal_to_the_elapsed_time_is_spent(self):
        """On a clock stepping 0.25 s, each member is demoted at the
        check that reads its budget exactly, not a step later."""
        clock, stats = ManualClock(), ServiceStats()
        deadline = Deadline(clock(), np.array([0.25, 0.5, 1.0]), stats, clock)
        seen = []
        for step in range(3):
            clock.advance(0.25)
            deadline.check(f"step {step}")
            seen.append((clock(), deadline.live.tolist(), stats.deadline_hits))
        assert seen == [(0.25, [1, 2], 1), (0.5, [2], 2), (0.75, [2], 2)]
        assert deadline.reasons.tolist() == ["deadline:step 0", "deadline:step 1", None]

    def test_the_walk_is_skipped_while_no_member_can_have_expired(self, monkeypatch):
        clock, group, _ = self._group()
        masks = []
        demote = Deadline.demote
        monkeypatch.setattr(
            Deadline,
            "demote",
            lambda self, members, reason: masks.append(members.tolist()) or demote(self, members, reason),
        )
        for instant in (0.0, 0.125, 0.249, 0.25, 0.374):  # start + tightest budget = 0.375
            clock.now = instant
            group.check("early")
        assert masks == []
        clock.now = 0.375
        group.check("late")
        assert masks == [[1]]  # may have expired: every live member is asked

    def test_a_group_of_none_raises(self):
        with pytest.raises(DeadlineExceeded):
            Deadline(0.0, np.zeros(0), ServiceStats(), ManualClock()).check("admission")


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

    @pytest.mark.parametrize(
        "rate, burst",
        [
            (float("nan"), 2.0),  # admitted 10 of 10 where rate 1 admits 2
            (-math.inf, 2.0),  # read as unlimited
            (0.0, 2.0),
            (1.0, float("nan")),  # shed all 10, and still all after 100 s
            (1.0, 0.0),
        ],
    )
    def test_a_bucket_that_cannot_limit_as_asked_is_refused(self, rate, burst):
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, capacity=burst, clock=ManualClock())
        with pytest.raises(ValueError):
            ServiceConfig(rate=rate, burst=burst)

    def test_an_infinite_rate_is_unlimited(self):
        bucket = TokenBucket(rate=math.inf, capacity=2.0, clock=ManualClock())
        assert all(bucket.try_acquire() for _ in range(10))
        ServiceConfig(rate=math.inf)

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

    def test_record_batch_is_a_record_per_member(self):
        """One ``record_batch`` per micro-batch tallies, samples and
        exports what a ``record_response`` per member did, past the
        latency reservoir's capacity."""
        from repro.obs import MetricsRegistry
        from repro.serving.stats import RESERVOIR_SIZE

        rng = np.random.default_rng(0)
        bulk, loop = ServiceStats(MetricsRegistry()), ServiceStats(MetricsRegistry())
        reasons = (None, None, "kv_unavailable", "deadline:feature fetch")
        for _ in range(12):
            size = int(rng.integers(400, 800))
            why = [reasons[int(i)] for i in rng.integers(0, len(reasons), size=size)]
            rungs = [RUNG_GNN if reason is None else RUNG_LINKED for reason in why]
            latency = float(rng.uniform(0, 0.02))
            bulk.record_batch(rungs, latency, why)
            for rung, reason in zip(rungs, why):
                loop.record_response(rung, latency, reason)
        assert bulk.completed > RESERVOIR_SIZE
        assert bulk.snapshot() == loop.snapshot()
        assert bulk._latencies.values() == loop._latencies.values()
        assert bulk.registry.render() == loop.registry.render()


def _linked_loop(graph, node):
    """The linked rung's score of ``node`` by its definition, one entity
    at a time: the largest fraud share among each linked entity's other
    labelled transactions, NaN with none."""
    best = math.nan
    for entity in graph.in_neighbors(node):
        others = [t for t in graph.in_neighbors(entity) if t != node and graph.labels[t] >= 0]
        if others:
            share = sum(int(graph.labels[t]) for t in others) / len(others)
            best = share if math.isnan(best) else max(best, share)
    return best


def _with_labels(graph, labels):
    """``graph`` holding ``labels`` instead of its own (structure shared)."""
    arrays = (graph.node_type, graph.edge_src, graph.edge_dst, graph.edge_type, graph.txn_table)
    return HeteroGraph.derived(*arrays, np.asarray(labels, dtype=np.int64))


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

    def test_kv_outage_degrades_to_linked_not_error(
        self, trained_detector, tiny_graph, feature_kv
    ):
        clock = ManualClock()
        store = FaultyKVStore(feature_kv, clock, outages=[(0, 10_000)])
        service = ScoringService(
            trained_detector, tiny_graph, feature_store=store, clock=clock
        )
        node = _txn_nodes(tiny_graph, 1)[0]
        response = service.score(node)
        assert response.admitted
        assert response.rung == RUNG_LINKED
        assert response.score == _linked_loop(tiny_graph, node)
        assert response.degraded_reason == "kv_unavailable"
        assert service.stats.kv_failures == 1
        assert store.reads == 1  # the first failed read demotes: nothing retries it

    def test_kv_outage_without_labelled_links_falls_to_prior(
        self, trained_detector, tiny_graph, feature_kv
    ):
        """No linked transaction carries a label (an unlabelled graph):
        no evidence, so the prior answers."""
        clock = ManualClock()
        store = FaultyKVStore(feature_kv, clock, outages=[(0, 10_000)])
        config = ServiceConfig(static_prior=0.07)
        unlabelled = _with_labels(tiny_graph, np.full(tiny_graph.num_nodes, -1))
        service = ScoringService(
            trained_detector, unlabelled, feature_store=store, config=config, clock=clock
        )
        node = _txn_nodes(tiny_graph, 1)[0]
        response = service.score(node)
        assert (response.rung, response.degraded_reason) == (RUNG_PRIOR, "kv_unavailable")
        assert response.score == pytest.approx(0.07)

    def test_transient_blips_are_absorbed_by_retries(
        self, trained_detector, tiny_graph, feature_kv
    ):
        """One replica of two fails the first read of *each key*: the
        blip costs a failover to the other replica, never a degradation."""
        clock = ManualClock()
        backings = [InMemoryKVStore() for _ in range(2)]
        flaky = FaultyKVStore(backings[0], clock, fail_first=1)
        store = ReplicatedKVStore(
            [flaky, backings[1]], ReplicatedConfig(replication_factor=2), clock=clock
        )
        GraphStore(store).save(tiny_graph)
        service = ScoringService(
            trained_detector, tiny_graph, feature_store=store, clock=clock
        )
        responses = service.score_batch(_txn_nodes(tiny_graph, 4))
        assert [r.rung for r in responses] == [RUNG_GNN] * 4  # no degradation
        assert service.stats.kv_failures == 0
        assert flaky.injected > 0 and store.failovers > 0

    def test_invalid_node_rejected(self, trained_detector, tiny_graph):
        service = ScoringService(trained_detector, tiny_graph)
        with pytest.raises(ValueError):
            service.score(tiny_graph.num_nodes + 5)

    @pytest.mark.parametrize("deadline_s", [0.0, -0.5, float("nan")])
    def test_a_bad_request_deadline_is_refused_before_admission(
        self, trained_detector, tiny_graph, deadline_s
    ):
        """Refused like an out-of-graph node, before any request of the
        call is admitted. A zero budget used to be admitted with its
        batch and then raise from ``Deadline``, taking the two good
        requests down with it (received 3, admitted 3, completed 0); a
        NaN one was scored under a deadline that never expires."""
        service = ScoringService(trained_detector, tiny_graph)
        good, other = _txn_nodes(tiny_graph, 2)
        bad = ScoreRequest(node=good, deadline_s=deadline_s)
        for call in (service.score, service.submit, lambda r: service.score_batch([good, r, other])):
            with pytest.raises(ValueError, match="deadline_s must be positive"):
                call(bad)
        assert service.stats.snapshot()["received"] == 0
        responses = service.score_batch([good, other])
        assert [r.admitted for r in responses] == [True, True]

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

    def test_warm_cache_refuses_what_score_refuses(self, trained_detector, tiny_graph):
        """An entity's warmed entry is one no ``score()`` can hit, and an
        out-of-range node must not reach numpy: both are refused with
        ``score()``'s messages, and nothing is cached."""
        service = ScoringService(trained_detector, tiny_graph, cache=SubgraphCache(capacity=8))
        entity = int(np.flatnonzero(tiny_graph.node_type != 0)[0])
        (good,) = _txn_nodes(tiny_graph, 1)
        refusals = {
            entity: f"node {entity} is not a transaction",
            -1: "node -1 outside the serving graph",
            tiny_graph.num_nodes + 3: f"node {tiny_graph.num_nodes + 3} outside the serving graph",
        }
        for node, message in refusals.items():
            with pytest.raises(ValueError, match=message):
                service.warm_cache([good, node])
        assert service.cache.stats()["misses"] == 0
        assert service.warm_cache([good]) == 1

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
# carry no input and are not fetched). Two rows are not that scorer's:
# ``kv_unavailable`` read 1.318481 ms of retry backoff and one retry
# while the service retried a plain store, and ``lone_replica_dead`` is
# what took the place of its ``breaker_open`` row (rules, 0.0 s, no
# KV failure counted) when the breaker went. Every degraded row was
# captured on the rules rung; the linked rung that replaced it answers
# them now, with the same fields otherwise.
_SEQUENTIAL = {
    "healthy": _admitted("gnn", None, 0.008, 0.492),
    "deadline:admission": _admitted("linked", "deadline:admission", deadline_hits=1),
    "deadline:sampling": _admitted(
        "linked", "deadline:sampling hop 0", 1.0, -0.5, deadline_hits=1
    ),
    "deadline:feature fetch": _admitted(
        "linked", "deadline:feature fetch", 0.004, 0.0, deadline_hits=1
    ),
    "deadline:model forward": _admitted(
        "linked", "deadline:model forward", 0.008, 0.0, deadline_hits=1
    ),
    "lone_replica_dead": _admitted("linked", "kv_unavailable", 0.0, 0.5, kv_failures=1),
    "kv_unavailable": _admitted("linked", "kv_unavailable", 0.0, 0.5, kv_failures=1),
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
        },
    ),
}


class TestBatchOfOneParity:
    """``score(r)`` rides the micro-batch pipeline as a batch of one and
    must answer exactly as the sequential scorer it replaced did."""

    READ_DELAY_S = 0.002

    @pytest.fixture(autouse=True)
    def _two_rows_per_fetch(self, monkeypatch):
        monkeypatch.setattr(service_module, "FETCH_CHUNK", 2)

    def _scenario(self, name, trained_detector, tiny_graph):
        """-> (service in the scenario's state, the request to observe)."""
        node = _txn_nodes(tiny_graph, 1)[0]
        request = ScoreRequest(node=node)
        clock = ManualClock()
        backing = InMemoryKVStore()
        GraphStore(backing).save(tiny_graph)
        store = FaultyKVStore(backing, clock, delay_s=self.READ_DELAY_S)
        config = dict(deadline_s=0.5, static_prior=0.05)
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
        elif name == "kv_unavailable":
            store = FaultyKVStore(backing, clock, outages=[(0, 10_000)])
        elif name == "lone_replica_dead":
            outage = FaultyKVStore(backing, clock, outages=[(0, 10_000)])
            store = ReplicatedKVStore(
                [outage], ReplicatedConfig(replication_factor=1, dead_after=2), clock=clock
            )
        elif name == "rate_limited":
            config.update(rate=1.0, burst=1.0)
        else:
            assert name == "healthy"
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=store,
            config=ServiceConfig(**config),
            clock=clock,
            cache=cache,
        )
        if name == "lone_replica_dead":
            # Two failed reads walk the replica to dead; the observed
            # request is the third, and no read reaches the backing.
            for _ in range(2):
                assert service.score(request).degraded_reason == "kv_unavailable"
            assert [store.health[0].state, outage.reads] == ["dead", 2]
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
            "lone_replica_dead",
            "kv_unavailable",
            "rate_limited",
        ],
    )
    def test_score_matches_the_sequential_scorer(
        self, name, trained_detector, tiny_graph
    ):
        service, request = self._scenario(name, trained_detector, tiny_graph)
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
        if name == "lone_replica_dead":  # demoted by the replica's gate, not by a read
            assert service.feature_store.replicas[0].reads == 2

        # The score itself is checked against an independent oracle
        # rather than a float literal that would pin BLAS rounding.
        if response.rung == RUNG_GNN:
            expected = trained_detector.predict_proba_sampled(tiny_graph, [request.node])[0]
        elif response.rung == RUNG_LINKED:
            expected = _linked_loop(tiny_graph, request.node)
        else:
            expected = 0.05
        assert response.score == pytest.approx(float(expected), abs=1e-9)


class TestBatchWalkDeadlines:
    """One sampler walk per micro-batch: expiry stays per member, the
    deadline checks become per walk."""

    SLOW_SAMPLING_S = 0.1

    def _service(self, trained_detector, tiny_graph, cache=None, **kwargs):
        clock = ManualClock()
        if cache is None:
            cache = _BudgetBurningCache(clock, delay_s=self.SLOW_SAMPLING_S)
        return ScoringService(
            trained_detector,
            tiny_graph,
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
                deadline_s=self.SLOW_SAMPLING_S / 2 if index in short else None,
            )
            for index, node in enumerate(_txn_nodes(tiny_graph, 4))
        ]

    def test_a_member_expiring_in_the_walk_is_demoted_alone(
        self, trained_detector, tiny_graph
    ):
        requests = self._requests(tiny_graph, short={2})
        service = self._service(trained_detector, tiny_graph)
        responses = service.score_batch(requests)
        assert [r.degraded_reason for r in responses] == [
            None, None, "deadline:sampling hop 0", None
        ]
        assert [r.rung for r in responses] == [RUNG_GNN, RUNG_GNN, RUNG_LINKED, RUNG_GNN]
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
        # With no labelled link the demoted member lands on the prior.
        unlabelled = _with_labels(tiny_graph, np.full(tiny_graph.num_nodes, -1))
        bare = self._service(trained_detector, unlabelled).score_batch(requests)
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
        assert [r.rung for r in responses] == [RUNG_GNN, RUNG_GNN, RUNG_LINKED, RUNG_GNN]
        assert responses[2].score == _linked_loop(tiny_graph, expiring)
        assert sorted(store.read) == sorted(f"feat/{node}" for node in others)

    def test_a_batch_expiring_whole_skips_the_forward(
        self, trained_detector, tiny_graph, monkeypatch
    ):
        service = self._service(trained_detector, tiny_graph)
        monkeypatch.setattr(
            trained_detector, "predict_proba", lambda *args: pytest.fail("forward ran")
        )
        responses = service.score_batch(self._requests(tiny_graph, short={0, 1, 2, 3}))
        assert {r.degraded_reason for r in responses} == {"deadline:sampling hop 0"}
        assert {r.rung for r in responses} == {RUNG_LINKED}
        assert service.stats.deadline_hits == 4
        assert len(service.cache) == 0

    def test_the_sampler_checks_the_group_once_per_hop_per_walk(
        self, trained_detector, tiny_graph, monkeypatch
    ):
        stages = []
        check = Deadline.check
        monkeypatch.setattr(
            Deadline,
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
            feature_store=FaultyKVStore(feature_kv, clock, delay_s=0.002),
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


class TestLinkedRung:
    """The middle rung: the largest fraud share among the labelled
    transactions that share an entity with the target, read off the
    serving graph in two CSR hops for a whole batch at once."""

    def test_hand_built_cases(self):
        """txn 0 links nothing; txns 1-3 share addr 6, txns 2-3 pmt 8;
        txn 4's one link, email 7, is shared only with the unlabelled
        txn 5. A batch holding two targets of one entity and a repeat."""
        txn, addr, email, pmt = (NODE_TYPE_IDS[kind] for kind in ("txn", "addr", "email", "pmt"))
        graph = HeteroGraph.from_links(
            [txn] * 6 + [addr, email, pmt],
            [(1, 6), (2, 6), (3, 6), (2, 8), (3, 8), (4, 7), (5, 7)],
            np.zeros((6, 2)),
            [1, 1, 0, 1, 0, -1, -1, -1, -1],
        )
        batch = [0, 1, 2, 2, 4]
        scores = service_module.linked_label_scores(graph, batch)
        np.testing.assert_array_equal(scores, [np.nan, 0.5, 1.0, 1.0, np.nan])
        np.testing.assert_array_equal(scores, [_linked_loop(graph, node) for node in batch])

    @pytest.mark.parametrize("seed", range(12))
    def test_the_batch_equals_a_per_target_loop(self, seed):
        """Random graphs with hubs, isolated nodes and a third of the
        labels hidden; odd seeds grow the graph by a delta first, so the
        CSR read has headroom in its buckets (the stream's layout)."""
        rng = np.random.default_rng(seed)
        graph = random_hetero_graph(rng, num_txns=int(rng.integers(1, 40)))
        graph.labels[graph.txn_nodes[rng.random(len(graph.txn_nodes)) < 0.3]] = -1
        if seed % 2:
            graph.csr()
            graph.append_delta(**random_delta(rng, graph, num_new_txns=int(rng.integers(1, 8))))
        txns = graph.txn_nodes
        batch = np.concatenate([txns, rng.choice(txns, size=len(txns))])  # every txn, then repeats
        expected = [_linked_loop(graph, node) for node in batch]
        np.testing.assert_array_equal(service_module.linked_label_scores(graph, batch), expected)
        for node, score in zip(batch[:5], expected):  # a lone target reads what its batch read
            np.testing.assert_array_equal(
                service_module.linked_label_scores(graph, [node]), [score]
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_the_targets_own_label_is_never_read(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_hetero_graph(rng, num_txns=30)
        txns = graph.txn_nodes
        before = service_module.linked_label_scores(graph, txns)
        for node, score in zip(txns, before):
            for label in (-1, 0, 1):
                flipped = graph.labels.copy()
                flipped[node] = label
                after = service_module.linked_label_scores(_with_labels(graph, flipped), [node])
                np.testing.assert_array_equal(after, [score])

    def test_a_matured_flushed_label_moves_a_linked_degraded_score(self):
        """In a stream, the rung reads exactly the labels ``apply_label``
        has flushed: a chargeback still inside its delay moves nothing."""
        from repro.models import DetectorConfig, XFraudDetectorPlus
        from repro.stream import IncrementalGraphBuilder, StreamConfig, StreamScorer

        clock = ManualClock()
        builder = IncrementalGraphBuilder(feature_dim=4)
        down = FaultyKVStore(InMemoryKVStore(), clock, outages=[(0, 1e9)])  # every verdict degrades
        service = ScoringService(
            XFraudDetectorPlus(DetectorConfig(feature_dim=4, seed=0)),
            builder.graph,
            feature_store=down,
            config=ServiceConfig(static_prior=0.05),
            clock=clock,
        )
        scorer = StreamScorer(service, builder, config=StreamConfig(label_delay_s=2.0), clock=clock)
        for txn_id, timestamp, label in ((1, 0.0, 1), (2, 0.5, 0)):  # one buyer, a fraud first
            scorer.ingest(
                TxnEvent(
                    txn_id=txn_id, buyer_id=7, email_id=txn_id, pmt_id=txn_id, addr_id=txn_id,
                    timestamp=timestamp, features=np.zeros(4), label=label,
                )
            )
        scorer.pump()
        first, second = builder.node_of(1), builder.node_of(2)

        def degraded(node):
            response = service.score(node)
            assert response.degraded_reason == "kv_unavailable"
            return response.rung, response.score

        assert degraded(second) == (RUNG_PRIOR, 0.05)  # the fraud label is still pending
        clock.advance(2.0)
        assert scorer.mature_labels() == 1  # the fraud's, not yet the second's
        assert degraded(second) == (RUNG_LINKED, 1.0)
        assert degraded(first) == (RUNG_PRIOR, 0.05)  # its own label is not evidence
        clock.advance(0.5)
        assert scorer.mature_labels() == 1
        assert degraded(first) == (RUNG_LINKED, 0.0)
        assert degraded(second) == (RUNG_LINKED, 1.0)
