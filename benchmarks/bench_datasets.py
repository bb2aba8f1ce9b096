"""Tables 2 & 6 — dataset summary statistics.

Regenerates the dataset-summary table (nodes, edges, fraud rate,
feature dims) and the per-node-type counts for the three simulated
datasets; the benchmark measures graph construction throughput.
"""

from repro.data import GeneratorConfig, TransactionGenerator, ebay_small_sim
from repro.graph import NODE_TYPES, build_graph

from _helpers import format_table, write_result


def test_table2_table6_dataset_summary(benchmark, small, large, xlarge):
    def build_small_graph():
        generator = TransactionGenerator(GeneratorConfig(num_benign_buyers=150, seed=3))
        log = generator.downsample_benign(generator.generate())
        graph, _ = build_graph(log)
        return graph

    benchmark.pedantic(build_small_graph, rounds=3, iterations=1)

    bundles = [small, large, xlarge]
    rows2 = []
    for bundle in bundles:
        summary = bundle.summary()
        rows2.append(
            [
                summary["dataset"],
                summary["features"],
                summary["graph_type"],
                summary["num_nodes"],
                summary["num_edges"],
                f"{summary['fraud_pct']:.2f}%",
                summary["edges_per_node"],
            ]
        )
    table2 = format_table(
        ["Dataset", "Features", "Graph type", "#Nodes", "#Edges", "Fraud%", "Edges/Node"],
        rows2,
    )

    rows6 = []
    for bundle in bundles:
        counts = bundle.graph.node_type_counts()
        total = sum(counts.values())
        for node_type in NODE_TYPES:
            rows6.append(
                [
                    bundle.name,
                    node_type,
                    counts[node_type],
                    f"{100.0 * counts[node_type] / total:.1f}%",
                ]
            )
    table6 = format_table(["Dataset", "Node type", "#Count", "Node type%"], rows6)

    text = "Table 2 (dataset summary)\n" + table2 + "\n\nTable 6 (node type counts)\n" + table6
    path = write_result("table2_6_datasets", text)
    print("\n" + text + f"\n-> {path}")

    # Shape checks mirroring the paper's bands.
    for bundle in bundles:
        assert 1.0 < bundle.summary()["fraud_pct"] < 10.0
        assert 1.2 < bundle.summary()["edges_per_node"] < 3.5
