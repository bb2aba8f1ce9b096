"""Vectorized samplers: equivalence to their spec, caching, batch parity.

A sampler's CSR walk and its scalar spec
(:func:`repro.check.reference.scalar_sample`) share one stateless hash
RNG, so for a fixed seed they must return *identical* subgraphs — same
nodes in the same order, same edges, same target positions. These tests
pin that contract across degenerate graph shapes (sparse,
hub-dominated, type-poor, edgeless) where an indexing bug would be
easiest to hide, then cover where the walks are counted (the service
that asked for them), the :class:`SubgraphCache` invalidation rules,
its micro-batch lookup against the per-target loop, and the serving
micro-batch parity guarantees.
"""

import functools
import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph import (
    NODE_TYPE_IDS,
    HeteroGraph,
    HGSampler,
    SageSampler,
    SubgraphCache,
)
from repro.check import subgraph_equal, target_parts
from repro.check.reference import component_bounds, scalar_sample
from repro.graph.sampling import gather, stack_subgraphs
from repro.obs import MetricsRegistry
from repro.reliability import ManualClock
from repro.serving import (
    RUNG_GNN,
    SHED_RATE_LIMITED,
    ScoringService,
    ServiceConfig,
)

# -- graph shapes -------------------------------------------------------


def _finish(node_types, links, num_txn, rng):
    features = rng.normal(size=(len(node_types), 6))
    labels = np.full(len(node_types), -1, dtype=np.int64)
    labels[:num_txn] = rng.integers(0, 2, size=num_txn)
    return HeteroGraph.from_links(node_types, links, features[:num_txn], labels=labels)


def _sparse_graph() -> HeteroGraph:
    """Many small components; most nodes have 1-2 edges."""
    rng = np.random.default_rng(1)
    num_txn, num_pmt, num_buyer = 40, 25, 15
    node_types = (
        [NODE_TYPE_IDS["txn"]] * num_txn
        + [NODE_TYPE_IDS["pmt"]] * num_pmt
        + [NODE_TYPE_IDS["buyer"]] * num_buyer
    )
    links = []
    for txn in range(num_txn):
        links.append((txn, num_txn + int(rng.integers(num_pmt))))
        if rng.random() < 0.4:
            links.append((txn, num_txn + num_pmt + int(rng.integers(num_buyer))))
    return _finish(node_types, links, num_txn, rng)


def _dense_hub_graph() -> HeteroGraph:
    """A few hub entities whose in-degree far exceeds any fanout cap."""
    rng = np.random.default_rng(2)
    num_txn, num_pmt, num_buyer = 30, 3, 2
    node_types = (
        [NODE_TYPE_IDS["txn"]] * num_txn
        + [NODE_TYPE_IDS["pmt"]] * num_pmt
        + [NODE_TYPE_IDS["buyer"]] * num_buyer
    )
    links = []
    for txn in range(num_txn):
        for pmt in range(num_pmt):
            links.append((txn, num_txn + pmt))
        links.append((txn, num_txn + num_pmt + txn % num_buyer))
    return _finish(node_types, links, num_txn, rng)


def _two_type_graph() -> HeteroGraph:
    """Only txn and email nodes: three of five node types are absent."""
    rng = np.random.default_rng(3)
    num_txn, num_email = 20, 8
    node_types = [NODE_TYPE_IDS["txn"]] * num_txn + [NODE_TYPE_IDS["email"]] * num_email
    links = [(txn, num_txn + txn % num_email) for txn in range(num_txn)]
    return _finish(node_types, links, num_txn, rng)


def _edgeless_graph() -> HeteroGraph:
    """Isolated transactions: every sampled subgraph is the target alone."""
    rng = np.random.default_rng(4)
    num_txn = 12
    node_types = [NODE_TYPE_IDS["txn"]] * num_txn
    return _finish(node_types, [], num_txn, rng)


GRAPH_BUILDERS = {
    "sparse": _sparse_graph,
    "dense_hubs": _dense_hub_graph,
    "two_type": _two_type_graph,
    "edgeless": _edgeless_graph,
}

SAMPLERS = {
    "sage_h2f3": SageSampler(hops=2, fanout=3, seed=11),
    "sage_h3f10": SageSampler(hops=3, fanout=10, seed=3),
    "hg_d2w4": HGSampler(depth=2, width=4, seed=11),
    "hg_d4w8": HGSampler(depth=4, width=8, seed=3),
}


def _assert_identical(fast, reference):
    np.testing.assert_array_equal(fast.original_ids, reference.original_ids)
    np.testing.assert_array_equal(fast.target_local, reference.target_local)
    np.testing.assert_array_equal(fast.graph.node_type, reference.graph.node_type)
    np.testing.assert_array_equal(fast.graph.edge_src, reference.graph.edge_src)
    np.testing.assert_array_equal(fast.graph.edge_dst, reference.graph.edge_dst)
    np.testing.assert_array_equal(fast.graph.edge_type, reference.graph.edge_type)


class TestEquivalence:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_fast_matches_reference_seed_for_seed(self, graph_name, sampler_name):
        graph = GRAPH_BUILDERS[graph_name]()
        sampler = SAMPLERS[sampler_name]
        txn = graph.txn_nodes
        # A batch with duplicate targets, then singletons.
        targets = np.concatenate([txn[:5], txn[:2]])
        _assert_identical(sampler.sample(graph, targets), scalar_sample(sampler, graph, targets))
        for target in txn[:3]:
            _assert_identical(
                sampler.sample(graph, [int(target)]),
                scalar_sample(sampler, graph, [int(target)]),
            )

    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_fast_matches_reference_on_built_graph(self, tiny_graph, sampler_name):
        sampler = SAMPLERS[sampler_name]
        targets = tiny_graph.txn_nodes[:16]
        _assert_identical(
            sampler.sample(tiny_graph, targets), scalar_sample(sampler, tiny_graph, targets)
        )

    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_disjoint_is_the_stacked_loop_of_singleton_samples(self, graph_name, sampler_name):
        graph = GRAPH_BUILDERS[graph_name]()
        txn = graph.txn_nodes
        # Repeats, and the last node (an entity wherever there is one).
        targets = np.concatenate([txn[:5], txn[:2], [graph.num_nodes - 1]])
        sampler = SAMPLERS[sampler_name]
        for sample in (sampler.sample, functools.partial(scalar_sample, sampler)):
            parts = [sample(graph, [int(target)]) for target in targets]
            walk = sample(graph, targets, disjoint=True)
            _assert_identical(walk, stack_subgraphs(parts))
            np.testing.assert_array_equal(walk.graph.labels, stack_subgraphs(parts).graph.labels)
            np.testing.assert_array_equal(walk.bounds, component_bounds(walk))
            for index, part in enumerate(parts):
                _assert_identical(gather([(walk, index)]), part)
            # One target is its own union: the plain route.
            _assert_identical(sample(graph, txn[:1], disjoint=True), sample(graph, txn[:1]))
            with pytest.raises(ValueError):
                sample(graph, [], disjoint=True)

    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_a_spent_deadline_ends_walk_and_spec_at_the_same_step(self, sampler_name):
        graph = _dense_hub_graph()
        sampler = SAMPLERS[sampler_name]
        targets = graph.txn_nodes[:4]

        class SpentAt:
            def __init__(self, step):
                self.left = step

            def check(self, stage):
                self.left -= 1
                if self.left < 0:
                    raise TimeoutError(stage)

        for disjoint in (False, True):
            for step in range(sampler.steps):
                ended = []
                for sample in (sampler.sample, functools.partial(scalar_sample, sampler)):
                    with pytest.raises(TimeoutError) as spent:
                        sample(graph, targets, deadline=SpentAt(step), disjoint=disjoint)
                    ended.append(str(spent.value))
                assert ended[0] == ended[1] and ended[0].endswith(f" {step}"), (disjoint, step)

    @pytest.mark.parametrize("sampler_class", [SageSampler, HGSampler])
    def test_there_is_no_second_implementation_to_select(self, sampler_class):
        assert "reference" not in inspect.signature(sampler_class).parameters
        with pytest.raises(TypeError):
            sampler_class(reference=True)
        assert not hasattr(sampler_class(), "instrument")

    def test_sampled_features_and_targets_line_up(self):
        graph = _sparse_graph()
        sampler = SageSampler(hops=2, fanout=3, seed=0)
        targets = graph.txn_nodes[:4]
        sampled = sampler.sample(graph, targets)
        np.testing.assert_array_equal(
            sampled.original_ids[sampled.target_local], targets
        )
        np.testing.assert_allclose(
            sampled.graph.txn_table, graph.txn_table_of(sampled.original_ids)
        )


class TestSamplerMetrics:
    """The unit is the walk, and the service that asked for it counts
    it: one ``sampler_sample_seconds`` observation and ``steps`` hops
    per sampling stage that walked, into that service's own registry."""

    @staticmethod
    def _service(model, graph, **kwargs):
        registry = MetricsRegistry()
        service = ScoringService(
            model, graph, clock=ManualClock(), registry=registry, **kwargs
        )
        kind = model.sampler.kind

        def counts():
            return (
                registry.get("sampler_hops_total").value(sampler=kind),
                registry.get("sampler_sample_seconds").count(sampler=kind),
            )

        return service, counts

    def test_the_unit_is_the_walk_not_the_target(
        self, trained_detector, tiny_graph
    ):
        service, counts = self._service(trained_detector, tiny_graph)
        steps = trained_detector.sampler.steps
        nodes = tiny_graph.txn_nodes[:5].tolist()
        service.score(nodes[0])
        assert counts() == (steps, 1)
        service.score_batch(nodes)  # five components, one walk
        assert counts() == (2 * steps, 2)
        service.score_batch(nodes)  # no cache: every stage walks
        assert counts() == (3 * steps, 3)
        assert "sampler_hop_seconds" not in service.registry.names()

    def test_nothing_on_an_all_hit_batch(self, trained_detector, tiny_graph):
        service, counts = self._service(
            trained_detector, tiny_graph, cache=SubgraphCache(capacity=64)
        )
        steps = trained_detector.sampler.steps
        nodes = tiny_graph.txn_nodes[:6].tolist()
        assert service.warm_cache(nodes[:2]) == 2  # a warming walk is timed like any other
        assert counts() == (steps, 1)
        service.score_batch(nodes[:2])  # all hits: the sampler is idle
        service.score(nodes[0])
        assert counts() == (steps, 1)
        service.score_batch(nodes)  # two hits, four misses: one walk
        assert counts() == (2 * steps, 2)
        assert service.warm_cache(nodes) == 0
        assert counts() == (2 * steps, 2)

    def test_a_walk_that_the_deadline_ends_is_not_observed(self, trained_detector, tiny_graph):
        service, counts = self._service(trained_detector, tiny_graph)
        clock = service._clock
        real_sample = trained_detector.sampler.sample

        def slow_sample(graph, targets, deadline=None, disjoint=False):
            clock.advance(1.0)  # the budget is gone before hop 0 is checked
            return real_sample(graph, targets, deadline=deadline, disjoint=disjoint)

        service.sampler = SimpleNamespace(sample=slow_sample)
        response = service.score(int(tiny_graph.txn_nodes[0]))
        assert response.degraded_reason == "deadline:sampling hop 0"
        assert counts() == (0, 0)

    def test_each_registry_sees_exactly_its_own_services_walks(
        self, trained_detector, tiny_graph
    ):
        # Two services over ONE model, a registry each, and a third with
        # none. When the registry handle lived on the shared sampler the
        # second constructor re-pointed it: the first registry stopped
        # receiving sampler_* observations (and the third paid the timings).
        first, first_counts = self._service(trained_detector, tiny_graph)
        second, second_counts = self._service(trained_detector, tiny_graph)
        third = ScoringService(trained_detector, tiny_graph, clock=ManualClock())
        steps = trained_detector.sampler.steps
        nodes = tiny_graph.txn_nodes[:4].tolist()
        first.score(nodes[0])
        first.score_batch(nodes)
        second.score(nodes[1])
        third.score_batch(nodes)
        assert first_counts() == (2 * steps, 2)
        assert second_counts() == (steps, 1)
        # ... and nothing was left on the shared sampler.
        assert set(vars(trained_detector.sampler)) == {"hops", "fanout", "seed", "_edge_salt"}


class TestSubgraphCache:
    def test_hit_after_miss(self):
        graph = _sparse_graph()
        sampler = SageSampler(hops=2, fanout=3, seed=0)
        cache = SubgraphCache(capacity=8)
        targets = graph.txn_nodes[:3].tolist()
        first = cache.get_or_sample(graph, sampler, targets)
        second = cache.get_or_sample(graph, sampler, targets)
        assert (cache.misses, cache.hits) == (3, 3)  # a lookup per target
        assert second is first  # every component of one walk, in order: the walk
        # A different sampler config is a different key, not a hit.
        other = SageSampler(hops=2, fanout=4, seed=0)
        cache.get_or_sample(graph, other, targets)
        assert cache.misses == 6

    def test_graph_mutation_invalidates(self):
        graph = _sparse_graph()
        sampler = SageSampler(hops=2, fanout=3, seed=0)
        cache = SubgraphCache(capacity=8)
        targets = graph.txn_nodes[:2].tolist()
        cache.get_or_sample(graph, sampler, targets)
        graph.mark_mutated()
        cache.get_or_sample(graph, sampler, targets)
        assert cache.hits == 0
        assert cache.misses == 4
        # The pre-mutation entries are stale; invalidate drops them.
        cache.invalidate(graph)
        assert len(cache) == 2
        cache.get_or_sample(graph, sampler, targets)
        assert cache.hits == 2

    def test_lru_evicts_oldest(self):
        graph = _sparse_graph()
        sampler = SageSampler(hops=2, fanout=3, seed=0)
        cache = SubgraphCache(capacity=2)
        txn = graph.txn_nodes
        for target in txn[:3]:
            cache.get_or_sample(graph, sampler, [int(target)])
        assert cache.evictions == 1
        assert len(cache) == 2
        # Oldest entry is gone; newest two are hits.
        cache.get_or_sample(graph, sampler, [int(txn[1])])
        cache.get_or_sample(graph, sampler, [int(txn[2])])
        assert cache.hits == 2
        cache.get_or_sample(graph, sampler, [int(txn[0])])
        assert cache.misses == 4

    def test_counters_exported_through_registry(self):
        registry = MetricsRegistry()
        graph = _sparse_graph()
        sampler = SageSampler(hops=2, fanout=3, seed=0)
        cache = SubgraphCache(capacity=1)
        cache.instrument(registry)
        txn = graph.txn_nodes
        cache.get_or_sample(graph, sampler, [int(txn[0])])
        cache.get_or_sample(graph, sampler, [int(txn[0])])
        cache.get_or_sample(graph, sampler, [int(txn[1])])
        text = registry.render()
        assert 'subgraph_cache_hits_total{cache="subgraph"} 1' in text
        assert 'subgraph_cache_misses_total{cache="subgraph"} 2' in text
        assert 'subgraph_cache_evictions_total{cache="subgraph"} 1' in text

    def test_repeated_mutation_churn_never_serves_stale(self):
        # Streaming-style churn: mutate, look up, look up again, repeat.
        # Every post-mutation lookup must re-sample (a hit here would be
        # a stale subgraph), and the repeat lookup within a version must
        # hit and match a fresh sample bit-for-bit.
        graph = _sparse_graph()
        sampler = SageSampler(hops=2, fanout=3, seed=0)
        cache = SubgraphCache(capacity=8)
        targets = graph.txn_nodes[:2].tolist()
        rounds = 10
        for round_index in range(rounds):
            fresh = sampler.sample(graph, targets, disjoint=True)
            served = cache.get_or_sample(graph, sampler, targets)
            assert cache.get_or_sample(graph, sampler, targets) is served
            np.testing.assert_array_equal(served.original_ids, fresh.original_ids)
            np.testing.assert_array_equal(
                served.graph.edge_src, fresh.graph.edge_src
            )
            np.testing.assert_array_equal(served.graph.labels, fresh.graph.labels)
            # Alternate structural and label-only churn.
            graph.mark_mutated(structural=round_index % 2 == 0)
        assert (cache.misses, cache.hits) == (2 * rounds, 2 * rounds)
        # Every cached entry predates the last mutation: all stale.
        cache.invalidate(graph)
        assert len(cache) == 0

    def test_concurrent_lookups_under_mutation_churn(self):
        # A writer bumps the graph version while readers hammer the
        # cache. The writer stamps the target's label with its step
        # number *before* each bump, so any served subgraph reveals the
        # version its content came from: a reader that observed version
        # v must never be handed content older than v.
        import threading

        graph = _sparse_graph()
        sampler = SageSampler(hops=1, fanout=3, seed=0)
        cache = SubgraphCache(capacity=64)
        target = int(graph.txn_nodes[0])
        base = graph.version
        steps = 300
        stale: list = []
        failures: list = []

        def writer():
            for step in range(1, steps + 1):
                graph.labels[target] = step
                graph.mark_mutated(structural=False)

        def reader():
            try:
                for _ in range(steps):
                    observed = graph.version
                    result = cache.get_or_sample(graph, sampler, [target])
                    step = int(result.graph.labels[result.target_local[0]])
                    if step < observed - base:
                        stale.append((observed - base, step))
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert not stale
        # Once the churn stops the cache settles: stale entries prune
        # away and the current version serves hits again.
        cache.invalidate(graph)
        settled = cache.get_or_sample(graph, sampler, [target])
        hits_before = cache.hits
        assert cache.get_or_sample(graph, sampler, [target]) is settled
        assert cache.hits == hits_before + 1
        assert int(settled.graph.labels[settled.target_local[0]]) == steps

    def test_weakref_purge_after_graph_replacement(self):
        # Replacing the graph object (rebuild-from-log, failover) must
        # not leak the dead graph's entries: a finalizer purges them
        # once the graph is collected.
        import gc

        sampler = SageSampler(hops=2, fanout=3, seed=0)
        cache = SubgraphCache(capacity=8)
        graph = _sparse_graph()
        cache.get_or_sample(graph, sampler, graph.txn_nodes[:2].tolist())
        cache.get_or_sample(graph, sampler, graph.txn_nodes[2:4].tolist())
        replacement = _sparse_graph()
        kept_targets = replacement.txn_nodes[:2].tolist()
        kept = cache.get_or_sample(replacement, sampler, kept_targets)
        assert len(cache) == 6
        del graph
        gc.collect()
        # Only the replacement's entries survive, and they still serve.
        assert len(cache) == 2
        assert cache.get_or_sample(replacement, sampler, kept_targets) is kept


class _CountingSampler(SageSampler):
    """Records the targets (and ``disjoint``) of every ``sample`` call."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []

    def sample(self, graph, targets, deadline=None, disjoint=False):
        self.calls.append((list(targets), disjoint))
        return super().sample(graph, targets, deadline=deadline, disjoint=disjoint)


class TestBatchLookup:
    """``get_or_sample``: one stacked sample whose components are the
    per-target loop's samples, and the loop's entries, LRU order and
    counters, from one sampler call."""

    @pytest.mark.parametrize("capacity", [1, 3, 64])
    def test_state_equals_the_per_target_loop(self, capacity):
        # Capacities 1 and 3 are below the batch sizes: a call evicts
        # entries it inserted itself, and present entries before their
        # turn comes.
        graph = _dense_hub_graph()
        sampler = SageSampler(hops=2, fanout=3, seed=0)
        batched, looped = SubgraphCache(capacity), SubgraphCache(capacity)
        rng = np.random.default_rng(capacity)
        pool = rng.permutation(graph.num_nodes)[:8]
        for call in range(60):
            if call % 7 == 6:
                graph.mark_mutated(structural=call % 2 == 0)
            targets = rng.choice(pool, size=int(rng.integers(0, 9))).tolist()
            if not targets:
                continue
            lookups = batched.stats()["lookups"]
            got = batched.get_or_sample(graph, sampler, targets)
            want = [looped.get_or_sample(graph, sampler, [target]) for target in targets]
            assert batched.stats()["lookups"] == lookups + len(targets)
            assert len(got.target_local) == len(want)
            for ours, theirs in zip(target_parts(got), want):
                _assert_identical(ours, theirs)
            # One component per distinct target.
            assert len(np.unique(got.target_local)) == len(set(targets))
            assert list(batched._entries) == list(looped._entries), (call, targets)
            assert batched.stats() == looped.stats(), (call, targets)
        assert looped.hits and looped.misses
        assert looped.evictions or capacity == 64

    def test_entries_are_the_singleton_lookups_own(self):
        graph = _sparse_graph()
        sampler = SageSampler(hops=2, fanout=3, seed=0)
        cache = SubgraphCache(capacity=8)
        first, second, third = (int(node) for node in graph.txn_nodes[:3])
        alone = cache.get_or_sample(graph, sampler, [first])
        batch = cache.get_or_sample(graph, sampler, [second, first, second])
        parts = target_parts(batch)
        assert subgraph_equal(parts[1], alone) is None  # score()'s / warm_cache()'s entry hits
        # A repeated absent target: one miss, then one hit on one component.
        assert batch.target_local[2] == batch.target_local[0]
        assert batch.graph.num_nodes == parts[0].graph.num_nodes + alone.graph.num_nodes
        assert (cache.misses, cache.hits) == (2, 2)
        again = cache.get_or_sample(graph, sampler, [second])  # ... and back
        assert subgraph_equal(again, parts[0]) is None
        assert subgraph_equal(again, sampler.sample(graph, [second])) is None
        # A plain sample's entry is returned itself.
        assert cache.get_or_sample(graph, sampler, [third]) is (
            cache.get_or_sample(graph, sampler, [third])
        )
        # Components of a walk, hit alone or together with a walk's own,
        # are the singleton samples of their targets.
        a, b, c, d = graph.txn_nodes[3:7].tolist()
        cache.get_or_sample(graph, sampler, [a, b, c])
        hit = cache.get_or_sample(graph, sampler, [b])
        assert subgraph_equal(hit, sampler.sample(graph, [b])) is None
        batch = cache.get_or_sample(graph, sampler, [b, c, d, c])
        assert batch.num_components == 3
        for part, target in zip(target_parts(batch), [b, c, d, c]):
            assert subgraph_equal(part, sampler.sample(graph, [target])) is None

    def test_an_all_miss_batch_of_distinct_targets_is_the_walk_itself(self):
        graph = _sparse_graph()
        walks = []

        class Recording(SageSampler):
            def sample(self, graph, targets, deadline=None, disjoint=False):
                walks.append(super().sample(graph, targets, deadline=deadline, disjoint=disjoint))
                return walks[-1]

        cache = SubgraphCache(capacity=16)
        sampler = Recording(hops=2, fanout=3, seed=0)
        txn = graph.txn_nodes.tolist()
        assert cache.get_or_sample(graph, sampler, txn[:4]) is walks[-1]
        # A repeat or a hit adds a component or a root: stacked anew.
        repeated = cache.get_or_sample(graph, sampler, txn[4:6] + txn[4:5])
        assert repeated is not walks[-1] and repeated.graph is walks[-1].graph
        assert repeated.target_local.tolist() == walks[-1].target_local[[0, 1, 0]].tolist()
        mixed = cache.get_or_sample(graph, sampler, [txn[6], txn[0], txn[7]])
        assert mixed.graph is not walks[-1].graph
        assert mixed.original_ids[mixed.target_local].tolist() == [txn[6], txn[0], txn[7]]

    def test_one_walk_for_the_distinct_misses_of_a_batch(self):
        graph = _sparse_graph()
        sampler = _CountingSampler(hops=2, fanout=3, seed=0)
        cache = SubgraphCache(capacity=16)
        txn = graph.txn_nodes.tolist()
        cache.get_or_sample(graph, sampler, [txn[0]])
        sampler.calls.clear()
        cache.get_or_sample(graph, sampler, [txn[1], txn[0], txn[2], txn[1]])
        assert sampler.calls == [([txn[1], txn[2]], True)]
        cache.get_or_sample(graph, sampler, [txn[2], txn[0], txn[1]])
        assert len(sampler.calls) == 1  # all hits: the sampler is not called
        with pytest.raises(ValueError, match="at least one target"):
            cache.get_or_sample(graph, sampler, [])
        assert len(sampler.calls) == 1 and cache.stats()["lookups"] == 8

    def test_a_walk_that_raises_counts_the_batch_and_inserts_nothing(self):
        graph = _sparse_graph()
        cache = SubgraphCache(capacity=16)
        txn = graph.txn_nodes.tolist()
        cache.get_or_sample(graph, SageSampler(hops=2, fanout=3, seed=0), [txn[0]])

        class Spent:
            def check(self, stage):
                raise TimeoutError(stage)

        with pytest.raises(TimeoutError, match="sampling hop 0"):
            cache.get_or_sample(
                graph,
                SageSampler(hops=2, fanout=3, seed=0),
                [txn[1], txn[0], txn[2]],
                deadline=Spent(),
            )
        assert cache.stats() == {"hits": 1, "misses": 3, "evictions": 0, "lookups": 4, "entries": 1}

    def test_lock_is_not_held_during_the_walk(self):
        import threading

        graph = _sparse_graph()
        cache = SubgraphCache(capacity=16)
        seen = []

        class Reentering(SageSampler):
            def sample(self, graph, targets, deadline=None, disjoint=False):
                reader = threading.Thread(target=lambda: seen.append(cache.stats()), daemon=True)
                reader.start()
                reader.join(timeout=10.0)
                assert not reader.is_alive(), "cache.stats() blocked: the walk runs under the lock"
                return super().sample(graph, targets, deadline=deadline, disjoint=disjoint)

        targets = graph.txn_nodes[:4].tolist()
        cache.get_or_sample(graph, Reentering(hops=2, fanout=3, seed=0), targets)
        assert [stats["misses"] for stats in seen] == [4]  # counted before the walk

    def test_counters_sum_to_lookups_under_concurrent_batches(self):
        import sys
        import threading

        graph = _dense_hub_graph()
        sampler = SageSampler(hops=1, fanout=2, seed=0)
        cache = SubgraphCache(capacity=4)  # below the batch size: constant eviction
        txn = graph.txn_nodes
        threads, calls, batch = 8, 60, 6
        errors = []

        def worker(worker_id):
            rng = np.random.default_rng(worker_id)
            try:
                for _ in range(calls):
                    targets = rng.choice(txn, size=batch).tolist()
                    sampled = cache.get_or_sample(graph, sampler, targets)
                    assert sampled.original_ids[sampled.target_local].tolist() == targets
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        snapshot = cache.stats()
        assert snapshot["lookups"] == threads * calls * batch
        assert snapshot["hits"] + snapshot["misses"] == snapshot["lookups"]
        assert snapshot["entries"] <= cache.capacity
        assert snapshot["evictions"] <= snapshot["misses"]


class TestBatchParity:
    @staticmethod
    def _service(trained_detector, tiny_graph, **overrides):
        config = ServiceConfig(
            rate=overrides.pop("rate", float("inf")),
            burst=overrides.pop("burst", 128.0),
            static_prior=0.01,
            **overrides,
        )
        return ScoringService(
            trained_detector, tiny_graph, config=config, clock=ManualClock()
        )

    def test_shed_verdicts_match_sequential_scoring(
        self, trained_detector, tiny_graph
    ):
        nodes = tiny_graph.txn_nodes[:5].tolist()
        sequential_service = self._service(
            trained_detector, tiny_graph, rate=1.0, burst=2.0
        )
        sequential = [sequential_service.score(node) for node in nodes]
        batch_service = self._service(trained_detector, tiny_graph, rate=1.0, burst=2.0)
        batch = batch_service.score_batch(nodes)
        assert [r.admitted for r in batch] == [r.admitted for r in sequential]
        assert [r.shed_reason for r in batch] == [r.shed_reason for r in sequential]
        shed = [r for r in batch if not r.admitted]
        assert shed and all(r.shed_reason == SHED_RATE_LIMITED for r in shed)
        for ours, theirs in zip(batch, sequential):
            if not ours.admitted:
                assert ours.score == pytest.approx(theirs.score)
                assert ours.verdict == theirs.verdict

    def test_batch_executes_one_forward(
        self, trained_detector, tiny_graph, monkeypatch
    ):
        service = self._service(trained_detector, tiny_graph)
        calls = []
        original = trained_detector.predict_proba

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(trained_detector, "predict_proba", counting)
        responses = service.score_batch(tiny_graph.txn_nodes[:8].tolist())
        assert len(calls) == 1
        assert all(r.admitted and r.rung == RUNG_GNN for r in responses)

    @pytest.mark.parametrize("cached", [False, True])
    def test_repeats_share_one_component_of_one_forward(
        self, trained_detector, tiny_graph, monkeypatch, cached
    ):
        nodes = tiny_graph.txn_nodes[:3].tolist()
        batch = [nodes[i] for i in (0, 1, 0, 2, 1, 0)]
        service = ScoringService(
            trained_detector,
            tiny_graph,
            config=ServiceConfig(static_prior=0.01),
            clock=ManualClock(),
            cache=SubgraphCache() if cached else None,
        )
        service.warm_cache(nodes[1:2])  # with a cache: one distinct target hits
        forwards = []
        original = trained_detector.predict_proba

        def recording(graph, targets):
            forwards.append((graph.num_nodes, np.asarray(targets).tolist()))
            return original(graph, targets)

        monkeypatch.setattr(trained_detector, "predict_proba", recording)
        responses = service.score_batch(batch)
        ((num_nodes, targets),) = forwards
        sampler = trained_detector.sampler
        assert num_nodes == sum(sampler.sample(tiny_graph, [n]).graph.num_nodes for n in nodes)
        assert [targets[batch.index(node)] for node in batch] == targets
        assert len(set(targets)) == len(nodes)
        scores = {}
        for node, response in zip(batch, responses):
            assert response.rung == RUNG_GNN
            assert scores.setdefault(node, response.score) == response.score
        monkeypatch.undo()
        for node in nodes:
            assert scores[node] == pytest.approx(service.score(node).score, abs=1e-12)

    def test_service_reuses_cached_subgraphs(self, trained_detector, tiny_graph):
        cache = SubgraphCache(capacity=64)
        service = ScoringService(
            trained_detector,
            tiny_graph,
            config=ServiceConfig(static_prior=0.01),
            clock=ManualClock(),
            cache=cache,
        )
        nodes = tiny_graph.txn_nodes[:4].tolist()
        service.score_batch(nodes)
        before = cache.hits
        repeat = service.score_batch(nodes)
        assert cache.hits > before
        assert all(r.rung == RUNG_GNN for r in repeat)
