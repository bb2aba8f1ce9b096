"""Neighbour samplers: SAGE (detector+) and HGSampling (HGT)."""

import re

import numpy as np
import pytest

from repro.graph import HGSampler, NODE_TYPES, SageSampler
from repro.util import batched


class TestSageSampler:
    def test_targets_always_included(self, tiny_graph, tiny_splits):
        train, _ = tiny_splits
        targets = train[:5]
        sampled = SageSampler(hops=2, fanout=5).sample(tiny_graph, targets)
        assert sampled.target_local.size == 5
        np.testing.assert_array_equal(
            sampled.original_ids[sampled.target_local], targets
        )

    def test_subgraph_within_k_hops(self, tiny_graph, tiny_splits):
        train, _ = tiny_splits
        target = int(train[0])
        sampled = SageSampler(hops=1, fanout=100).sample(tiny_graph, [target])
        one_hop = set(tiny_graph.in_neighbors(target).tolist()) | {target}
        assert set(sampled.original_ids.tolist()) <= one_hop

    def test_fanout_caps_expansion(self, tiny_graph, tiny_splits):
        train, _ = tiny_splits
        wide = SageSampler(hops=2, fanout=50, seed=0).sample(tiny_graph, train[:4])
        narrow = SageSampler(hops=2, fanout=1, seed=0).sample(tiny_graph, train[:4])
        assert narrow.graph.num_nodes <= wide.graph.num_nodes

    def test_labels_preserved(self, tiny_graph, tiny_splits):
        train, _ = tiny_splits
        sampled = SageSampler().sample(tiny_graph, train[:3])
        for local, original in zip(sampled.target_local, train[:3]):
            assert sampled.graph.labels[local] == tiny_graph.labels[original]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SageSampler(hops=0)
        with pytest.raises(ValueError):
            SageSampler(fanout=0)


class TestHGSampler:
    def test_targets_always_included(self, tiny_graph, tiny_splits):
        train, _ = tiny_splits
        targets = train[:5]
        sampled = HGSampler(depth=2, width=4).sample(tiny_graph, targets)
        np.testing.assert_array_equal(
            sampled.original_ids[sampled.target_local], targets
        )

    def test_type_balance_tendency(self, tiny_graph, tiny_splits):
        """HGSampling draws per type, so entity types appear even when
        txn dominates the raw neighbourhood."""
        train, _ = tiny_splits
        sampled = HGSampler(depth=3, width=6, seed=0).sample(tiny_graph, train[:6])
        counts = sampled.graph.node_type_counts()
        present = [t for t in NODE_TYPES if counts[t] > 0]
        assert len(present) >= 4

    def test_deeper_sampling_grows_subgraph(self, tiny_graph, tiny_splits):
        train, _ = tiny_splits
        shallow = HGSampler(depth=1, width=4, seed=0).sample(tiny_graph, train[:4])
        deep = HGSampler(depth=3, width=4, seed=0).sample(tiny_graph, train[:4])
        assert deep.graph.num_nodes >= shallow.graph.num_nodes

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HGSampler(depth=0)
        with pytest.raises(ValueError):
            HGSampler(width=0)


@pytest.mark.parametrize(
    "sampler", [SageSampler(hops=2, fanout=5), HGSampler(depth=2, width=4)], ids=["sage", "hg"]
)
class TestTargets:
    def test_a_target_outside_the_graph_is_refused_by_name(self, tiny_graph, sampler):
        """A negative id would wrap to another node, a large one fail
        inside numpy: each is refused, named, on every route."""
        n = tiny_graph.num_nodes
        for bad, named in (([-1], [-1]), ([n], [n]), ([0, n + 3, -2, 1], [n + 3, -2])):
            for disjoint in (False, True):
                with pytest.raises(ValueError, match=re.escape(f"targets {named} are not nodes")):
                    sampler.sample(tiny_graph, bad, disjoint=disjoint)

    def test_no_targets_is_the_empty_sample_on_every_route(self, tiny_graph, sampler):
        plain = sampler.sample(tiny_graph, [])
        disjoint = sampler.sample(tiny_graph, [], disjoint=True)
        for sampled in (plain, disjoint):
            assert sampled.target_local.size == 0 and sampled.graph.num_nodes == 0
            assert sampled.graph.num_edges == 0
            assert sampled.graph.txn_table.shape == (0, tiny_graph.feature_dim)
            np.testing.assert_array_equal(sampled.bounds, np.zeros((2, 3)))

    def test_a_set_sample_is_rooted_at_its_unique_targets_in_request_order(
        self, tiny_graph, sampler
    ):
        targets = tiny_graph.txn_nodes[[5, 1, 5, 3, 1]]
        sampled = sampler.sample(tiny_graph, targets)
        np.testing.assert_array_equal(sampled.original_ids[:3], targets[[0, 1, 3]])
        np.testing.assert_array_equal(sampled.target_local, [0, 1, 0, 2, 1])
        rest = sampled.original_ids[3:]
        assert np.all(np.diff(rest) > 0) and not np.isin(rest, targets).any()


class TestBatched:
    def test_covers_all_items(self):
        items = np.arange(10)
        batches = batched(items, 3)
        np.testing.assert_array_equal(np.concatenate(batches), items)
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            batched(np.arange(3), 0)
