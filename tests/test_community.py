"""Community extraction for the explainer evaluation (Sec. 5.1)."""

import zlib

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.data import ebay_small_sim
from repro.graph import NODE_TYPE_IDS, extract_community, select_communities


class TestExtraction:
    def test_seed_inside_community(self, tiny_graph, tiny_splits):
        _, test = tiny_splits
        community = extract_community(tiny_graph, int(test[0]))
        assert community.original_ids[community.seed_local] == test[0]

    def test_community_is_connected_component(self, tiny_graph, tiny_splits):
        _, test = tiny_splits
        seed = int(test[0])
        community = extract_community(tiny_graph, seed)
        adjacency = coo_matrix(
            (np.ones(tiny_graph.num_edges), (tiny_graph.edge_src, tiny_graph.edge_dst)),
            shape=(tiny_graph.num_nodes,) * 2,
        )
        _, labels = connected_components(adjacency, directed=False)
        component = np.flatnonzero(labels == labels[seed])
        np.testing.assert_array_equal(np.sort(community.original_ids), component)

    def test_label_matches_seed(self, tiny_graph, tiny_splits):
        _, test = tiny_splits
        for seed in test[:5]:
            community = extract_community(tiny_graph, int(seed))
            assert community.label == tiny_graph.labels[seed]

    def test_unlabeled_seed_rejected(self, tiny_graph):
        entity = int(np.flatnonzero(tiny_graph.labels < 0)[0])
        with pytest.raises(ValueError):
            extract_community(tiny_graph, entity)

    def test_max_nodes_caps_size(self, tiny_graph, tiny_splits):
        _, test = tiny_splits
        community = extract_community(tiny_graph, int(test[0]), max_nodes=5)
        assert community.graph.num_nodes <= 5

    def test_undirected_edges_unique_sorted(self, tiny_graph, tiny_splits):
        _, test = tiny_splits
        community = extract_community(tiny_graph, int(test[0]))
        edges = community.undirected_edges()
        assert edges == sorted(set(edges))
        assert all(u < v for u, v in edges)


class TestComplexity:
    def test_simple_vs_complex_by_buyers(self, tiny_graph, tiny_splits):
        _, test = tiny_splits
        communities = select_communities(tiny_graph, test, count=10, seed=0)
        for community in communities:
            buyers = int(
                np.sum(community.graph.node_type == NODE_TYPE_IDS["buyer"])
            )
            assert community.num_buyers == buyers
            assert community.is_simple == (buyers <= 1)


class TestSelection:
    def test_selects_requested_count(self, tiny_graph, tiny_splits):
        _, test = tiny_splits
        communities = select_communities(tiny_graph, test, count=5, seed=1)
        assert 0 < len(communities) <= 5

    def test_no_overlapping_communities(self, tiny_graph, tiny_splits):
        _, test = tiny_splits
        communities = select_communities(tiny_graph, test, count=8, seed=2)
        seen = set()
        for community in communities:
            ids = set(community.original_ids.tolist())
            assert not ids & seen
            seen |= ids

    def test_min_edges_respected(self, tiny_graph, tiny_splits):
        _, test = tiny_splits
        communities = select_communities(
            tiny_graph, test, count=10, seed=0, min_edges=6
        )
        assert all(len(c.undirected_edges()) >= 6 for c in communities)

    def test_deterministic(self, tiny_graph, tiny_splits):
        _, test = tiny_splits
        a = select_communities(tiny_graph, test, count=5, seed=4)
        b = select_communities(tiny_graph, test, count=5, seed=4)
        assert [c.seed_original for c in a] == [c.seed_original for c in b]


def test_the_explainer_sample_is_pinned():
    """Sec. 5.1's 41 communities at ``benchmarks/conftest.py``'s
    parameters — the input of Tables 1, 4/12, 8-11 and 13. Node ids are
    integers, so the CRC32 of their bytes is exact: a traversal change
    that moves any community fails here rather than in a bench."""
    small = ebay_small_sim(seed=0, scale=0.5)
    communities = select_communities(
        small.graph, small.test_nodes, count=41, seed=7, min_edges=10, fraud_count=18, max_hops=3
    )
    ids = np.concatenate([community.original_ids for community in communities])
    assert (len(communities), len(ids)) == (41, 671)
    assert zlib.crc32(ids.astype("<i8").tobytes()) == 3112110716
