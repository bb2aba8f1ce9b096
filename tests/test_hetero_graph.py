"""HeteroGraph structure: invariants, adjacency, subgraphs."""

import numpy as np
import pytest

from repro.graph import EDGE_TYPES, NODE_TYPE_IDS, NODE_TYPES, HeteroGraph, bfs, edge_type_between


def small_graph() -> HeteroGraph:
    """txn(0) - pmt(1), txn(0) - buyer(2), txn(3) - pmt(1)."""
    node_types = [NODE_TYPE_IDS["txn"], NODE_TYPE_IDS["pmt"], NODE_TYPE_IDS["buyer"], NODE_TYPE_IDS["txn"]]
    links = [(0, 1), (0, 2), (3, 1)]
    table = np.random.default_rng(0).normal(size=(2, 5))  # txn 0, txn 3
    return HeteroGraph.from_links(node_types, links, table, labels=[1, -1, -1, 0])


class TestConstruction:
    def test_from_links_symmetric(self):
        graph = small_graph()
        assert graph.num_edges == 6  # both directions per link
        # Every edge has its reverse present.
        pairs = set(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))
        assert all((d, s) in pairs for s, d in pairs)

    def test_edge_types_match_endpoint_types(self):
        graph = small_graph()
        for src, dst, etype in zip(graph.edge_src, graph.edge_dst, graph.edge_type):
            src_name = NODE_TYPES[graph.node_type[src]]
            dst_name = NODE_TYPES[graph.node_type[dst]]
            assert EDGE_TYPES[etype] == f"{src_name}->{dst_name}"

    def test_edge_type_between_unknown_pair(self):
        with pytest.raises(KeyError):
            edge_type_between("pmt", "email")


class TestValidation:
    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            HeteroGraph(
                node_type=[0],
                edge_src=[0],
                edge_dst=[5],
                edge_type=[0],
                txn_table=np.zeros((1, 2)),
                labels=[0],
            )

    def test_label_on_entity_rejected(self):
        with pytest.raises(ValueError):
            HeteroGraph(
                node_type=[1],
                edge_src=[],
                edge_dst=[],
                edge_type=[],
                txn_table=np.zeros((0, 2)),
                labels=[1],
            )

    def test_feature_shape_rejected(self):
        with pytest.raises(ValueError):
            HeteroGraph(
                node_type=[0],
                edge_src=[],
                edge_dst=[],
                edge_type=[],
                txn_table=np.zeros((2, 2)),
                labels=[0],
            )

    @pytest.mark.parametrize("rows", [0, 2])
    def test_table_rows_must_be_the_transactions(self, rows):
        # One row per transaction: an entity given one, or a transaction
        # without one, is refused.
        with pytest.raises(ValueError, match="txn_table must be"):
            HeteroGraph(
                node_type=[0, 1],
                edge_src=[],
                edge_dst=[],
                edge_type=[],
                txn_table=np.zeros((rows, 2)),
                labels=[0, -1],
            )

    def test_txn_to_txn_edge_rejected(self):
        # No edge type joins two transactions: whichever one it claims,
        # an endpoint disagrees with it.
        with pytest.raises(ValueError, match="typed txn->pmt but joins txn->txn"):
            HeteroGraph(
                node_type=[0, 0],
                edge_src=[0],
                edge_dst=[1],
                edge_type=[EDGE_TYPES.index("txn->pmt")],
                txn_table=np.zeros((2, 2)),
                labels=[0, 0],
            )

    def test_mislabelled_edge_type_rejected(self):
        graph = small_graph()
        wrong = graph.edge_type.copy()
        wrong[0] = EDGE_TYPES.index("txn->email")  # edge 0 joins txn 0 to a pmt
        with pytest.raises(ValueError, match="typed txn->email but joins txn->pmt"):
            HeteroGraph(
                node_type=graph.node_type,
                edge_src=graph.edge_src,
                edge_dst=graph.edge_dst,
                edge_type=wrong,
                txn_table=graph.txn_table,
                labels=graph.labels,
            )

    def test_delta_edge_against_its_endpoints_rejected(self):
        graph = small_graph()
        before = (graph.num_edges, graph.version)
        with pytest.raises(ValueError, match="typed pmt->txn but joins buyer->txn"):
            graph.append_delta(
                node_type=[NODE_TYPE_IDS["txn"]],
                labels=[0],
                txn_table=np.zeros((1, graph.feature_dim)),
                edge_src=[2],  # the buyer
                edge_dst=[4],  # the new transaction
                edge_type=[EDGE_TYPES.index("pmt->txn")],
            )
        assert (graph.num_edges, graph.version) == before

    def test_mismatched_edge_arrays(self):
        with pytest.raises(ValueError):
            HeteroGraph(
                node_type=[0, 0],
                edge_src=[0],
                edge_dst=[1, 0],
                edge_type=[0],
                txn_table=np.zeros((2, 2)),
                labels=[0, 0],
            )


class TestStatistics:
    def test_node_type_counts(self):
        counts = small_graph().node_type_counts()
        assert counts["txn"] == 2 and counts["pmt"] == 1 and counts["buyer"] == 1

    def test_fraud_rate(self):
        assert small_graph().fraud_rate() == pytest.approx(0.5)

    def test_fraud_rate_no_labels(self):
        graph = HeteroGraph(
            node_type=[1],
            edge_src=[],
            edge_dst=[],
            edge_type=[],
            txn_table=np.zeros((0, 2)),
            labels=[-1],
        )
        assert graph.fraud_rate() == 0.0

    def test_edges_per_node_counts_undirected(self):
        graph = small_graph()
        assert graph.edges_per_node() == pytest.approx(3 / 4)

    def test_labeled_and_txn_nodes(self):
        graph = small_graph()
        np.testing.assert_array_equal(graph.txn_nodes, [0, 3])
        np.testing.assert_array_equal(graph.labeled_nodes, [0, 3])


class TestTxnTable:
    def test_row_per_transaction_in_node_order(self):
        graph = small_graph()
        np.testing.assert_array_equal(graph.txn_row, [0, -1, -1, 1])
        np.testing.assert_array_equal(graph.txn_rows([3, 0]), [1, 0])

    def test_an_entity_has_no_row(self):
        with pytest.raises(ValueError, match=r"nodes \[2\] are not transactions"):
            small_graph().txn_rows([0, 2])

    def test_delta_rows_appended_and_map_extended(self):
        graph = small_graph()
        graph.txn_row  # derived before the delta: extended, not rebuilt
        rows = np.ones((2, graph.feature_dim))
        graph.append_delta(
            node_type=[NODE_TYPE_IDS["email"], NODE_TYPE_IDS["txn"], NODE_TYPE_IDS["txn"]],
            labels=[-1, 0, -1],
            txn_table=rows,
            edge_src=[],
            edge_dst=[],
            edge_type=[],
        )
        np.testing.assert_array_equal(graph.txn_row, [0, -1, -1, 1, -1, 2, 3])
        np.testing.assert_array_equal(graph.txn_table[2:], rows)

    def test_delta_table_must_match_its_transactions(self):
        graph = small_graph()
        with pytest.raises(ValueError, match="delta txn_table must be"):
            graph.append_delta(
                node_type=[NODE_TYPE_IDS["txn"], NODE_TYPE_IDS["pmt"]],
                labels=[0, -1],
                txn_table=np.zeros((2, graph.feature_dim)),  # a row for the pmt too
                edge_src=[],
                edge_dst=[],
                edge_type=[],
            )
        assert graph.num_nodes == 4 and len(graph.txn_table) == 2

    def test_with_features_takes_a_table(self):
        graph = small_graph()
        clone = graph.with_features(np.ones((2, 5)))
        np.testing.assert_array_equal(clone.txn_table, np.ones((2, 5)))
        assert clone.node_type is graph.node_type
        with pytest.raises(ValueError, match="txn_table must be"):
            graph.with_features(np.ones((4, 5)))  # a row per node


class TestAdjacency:
    def test_in_neighbors(self):
        graph = small_graph()
        assert set(graph.in_neighbors(1).tolist()) == {0, 3}
        assert set(graph.in_neighbors(0).tolist()) == {1, 2}

    def test_in_edges_point_at_node(self):
        graph = small_graph()
        for node in range(graph.num_nodes):
            for edge_id in graph.in_edges(node):
                assert graph.edge_dst[edge_id] == node

    def test_degree_matches_neighbors(self):
        graph = small_graph()
        degree = graph.degree()
        for node in range(graph.num_nodes):
            assert degree[node] == len(graph.in_neighbors(node))

    def test_csr_cached(self):
        graph = small_graph()
        assert graph.csr() is graph.csr()


class TestSubgraph:
    def test_induced_edges_only(self):
        graph = small_graph()
        sub, ids = graph.subgraph([0, 1])
        assert sub.num_nodes == 2
        assert sub.num_edges == 2  # only txn0<->pmt1 survives
        np.testing.assert_array_equal(ids, [0, 1])

    def test_preserves_types_features_labels(self):
        graph = small_graph()
        sub, ids = graph.subgraph([3, 1])
        np.testing.assert_array_equal(sub.node_type, graph.node_type[[3, 1]])
        np.testing.assert_array_equal(sub.txn_table, graph.txn_table[[1]])  # txn 3's row
        np.testing.assert_array_equal(sub.labels, graph.labels[[3, 1]])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            small_graph().subgraph([0, 0])

    def test_connected_component(self):
        graph = small_graph()
        component, _, _ = bfs(graph, [0])
        assert set(component.tolist()) == {0, 1, 2, 3}


class TestBfs:
    """``bfs`` on ``small_graph``: edges 1 -> 0 and 2 -> 0 enter txn 0
    (ids 1, 3), 0 -> 1 and 3 -> 1 enter pmt 1 (ids 0, 4)."""

    @staticmethod
    def walk(sources, max_hops=None, max_nodes=None):
        graph = small_graph()
        nodes, hops, slots = bfs(graph, sources, max_hops, max_nodes)
        return nodes.tolist(), hops.tolist(), graph.csr().edge_id[slots].tolist()

    def test_discovery_order_hops_and_edges_walked(self):
        assert self.walk([0]) == ([0, 1, 2, 3], [0, 1, 1, 2], [1, 3, 0, 4, 2, 5])

    def test_several_sources_unique_in_request_order(self):
        assert self.walk([3, 0, 3]) == ([3, 0, 1, 2], [0, 0, 1, 1], [5, 1, 3, 0, 4, 2])

    def test_max_hops_stops_expanding(self):
        assert self.walk([0], max_hops=1) == ([0, 1, 2], [0, 1, 1], [1, 3])
        assert self.walk([1], max_hops=0) == ([1], [0], [])

    def test_max_nodes_keeps_the_first_discovered(self):
        assert self.walk([0], max_nodes=2) == ([0, 1], [0, 1], [1, 3])
        assert self.walk([1], max_nodes=0) == ([1], [0], [])  # the sources always

    def test_source_outside_the_graph_refused(self):
        with pytest.raises(ValueError, match="not nodes of the graph"):
            bfs(small_graph(), [4])
