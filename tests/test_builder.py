"""Graph construction from transaction logs (Sec. 3.1)."""

import dataclasses

import numpy as np
import pytest

from repro.data import GeneratorConfig, TransactionGenerator
from repro.graph import NODE_TYPE_IDS, build_graph, train_test_split


@pytest.fixture(scope="module")
def log():
    config = GeneratorConfig(
        num_benign_buyers=50,
        num_stolen_cards=3,
        num_warehouse_rings=2,
        num_cultivated_accounts=2,
        num_guest_checkouts=6,
        feature_dim=12,
        seed=5,
    )
    generator = TransactionGenerator(config)
    return generator.downsample_benign(generator.generate())


class TestBuild:
    def test_txn_nodes_first_and_labeled(self, log):
        graph, index = build_graph(log)
        txn_ids = sorted(index["txn"].values())
        assert txn_ids == list(range(len(log)))
        assert np.all(graph.labels[: len(log)] >= 0)

    def test_entities_deduplicated(self, log):
        graph, index = build_graph(log)
        pmt_external = {r.pmt_id for r in log}
        assert len(index["pmt"]) == len(pmt_external)

    def test_every_record_linked(self, log):
        graph, index = build_graph(log)
        for record in log:
            txn_node = index["txn"][record.txn_id]
            neighbors = set(graph.in_neighbors(txn_node).tolist())
            for kind, external in record.linked_entities():
                assert index[kind][external] in neighbors

    def test_guest_checkout_has_no_buyer_edge(self, log):
        graph, index = build_graph(log)
        guests = [r for r in log if r.is_guest_checkout]
        assert guests
        buyer_nodes = set(index["buyer"].values())
        for record in guests:
            txn_node = index["txn"][record.txn_id]
            neighbors = set(graph.in_neighbors(txn_node).tolist())
            assert not neighbors & buyer_nodes

    def test_only_txn_nodes_have_features(self, log):
        graph, index = build_graph(log)
        # One row per transaction, in node order; an entity has none.
        assert graph.txn_table.shape == (len(log), 12)
        for record in log:
            row = graph.txn_rows(index["txn"][record.txn_id])
            np.testing.assert_array_equal(graph.txn_table[row], record.features)
        with pytest.raises(ValueError, match="are not transactions"):
            graph.txn_rows(np.flatnonzero(graph.node_type != NODE_TYPE_IDS["txn"]))

    def test_empty_log_rejected(self):
        from repro.data import TransactionLog

        with pytest.raises(ValueError):
            build_graph(TransactionLog())

    def test_repeated_txn_id_rejected(self, log):
        # Two rows with one txn_id would index one node and leave the
        # other an isolated transaction; the stream builder refuses the
        # same event with the same error.
        from repro.data import TransactionLog

        first, second = log.records[:2]
        twin = TransactionLog([first, dataclasses.replace(second, txn_id=first.txn_id)])
        with pytest.raises(ValueError, match=f"duplicate transaction event {first.txn_id}"):
            build_graph(twin)

    def test_fraud_rate_preserved(self, log):
        graph, _ = build_graph(log)
        assert graph.fraud_rate() == pytest.approx(log.fraud_rate())


class TestSplit:
    def test_split_partitions_labeled_nodes(self, log):
        graph, _ = build_graph(log)
        train, val, test = train_test_split(graph, test_fraction=0.25, val_fraction=0.1)
        combined = np.concatenate([train, val, test])
        assert len(np.unique(combined)) == len(combined)
        np.testing.assert_array_equal(np.sort(combined), graph.labeled_nodes)

    def test_split_stratified(self, log):
        graph, _ = build_graph(log)
        train, _, test = train_test_split(graph, test_fraction=0.3, seed=1)
        assert (graph.labels[test] == 1).any()
        assert (graph.labels[train] == 1).any()

    def test_split_deterministic(self, log):
        graph, _ = build_graph(log)
        a, _, _ = train_test_split(graph, seed=9)
        b, _, _ = train_test_split(graph, seed=9)
        np.testing.assert_array_equal(a, b)
