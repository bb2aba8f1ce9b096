"""Dataset presets (Table 2 / Table 6 shape bands)."""

import numpy as np
import pytest

from repro.data import ebay_small_sim, load_dataset
from repro.graph import NODE_TYPES


@pytest.fixture(scope="module")
def small():
    return ebay_small_sim(seed=0, scale=0.25)


class TestPreset:
    def test_summary_fields(self, small):
        summary = small.summary()
        assert summary["dataset"] == "ebay-small-sim"
        assert summary["features"] == 114
        assert summary["graph_type"] == "hetero"

    def test_fraud_rate_band(self, small):
        """Table 2: post-downsampling fraud rate in the low percent."""
        assert 1.0 < small.summary()["fraud_pct"] < 10.0

    def test_sparsity_band(self, small):
        """Table 5: eBay graphs live in the 1.3–3.5 edges/node band."""
        assert 1.2 < small.summary()["edges_per_node"] < 3.5

    def test_five_node_types_present(self, small):
        counts = small.graph.node_type_counts()
        assert all(counts[t] > 0 for t in NODE_TYPES)

    def test_txn_dominates(self, small):
        counts = small.graph.node_type_counts()
        assert counts["txn"] == max(counts.values())

    def test_splits_cover_labeled(self, small):
        combined = np.concatenate([small.train_nodes, small.test_nodes])
        np.testing.assert_array_equal(np.sort(combined), small.graph.labeled_nodes)

    def test_index_locates_transactions(self, small):
        record = small.log.records[0]
        node = small.index["txn"][record.txn_id]
        assert small.graph.labels[node] == record.label


class TestLoadDataset:
    def test_by_name(self):
        bundle = load_dataset("ebay-small-sim", scale=0.1)
        assert bundle.name == "ebay-small-sim"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("ebay-medium")

    def test_feature_dims_differ(self):
        small = load_dataset("ebay-small-sim", scale=0.1)
        large = load_dataset("ebay-large-sim", scale=0.02)
        assert small.graph.feature_dim == 114
        assert large.graph.feature_dim == 480

    def test_seed_changes_data(self):
        a = load_dataset("ebay-small-sim", seed=0, scale=0.1)
        b = load_dataset("ebay-small-sim", seed=1, scale=0.1)
        assert a.graph.num_nodes != b.graph.num_nodes or not np.allclose(
            a.graph.txn_table[: min(len(a.graph.txn_table), len(b.graph.txn_table))],
            b.graph.txn_table[: min(len(a.graph.txn_table), len(b.graph.txn_table))],
        )
