"""Dataset presets mirroring eBay-small / eBay-large / eBay-xlarge.

The paper's datasets (Table 2) are proprietary, so each preset here is
a scaled-down synthetic stand-in preserving the properties the models
actually see:

============ ======== ============ ===========================
preset       features target shape paper counterpart
============ ======== ============ ===========================
small-sim    114      ~3–6k nodes  eBay-small (289K nodes)
large-sim    480      ~15–30k      eBay-large (8.9M nodes)
xlarge-sim   480      ~30–60k      eBay-xlarge (1.1B nodes)
============ ======== ============ ===========================

All presets keep: five node types with txn dominating (Table 6),
sparsity in the 1.5–3.5 edges/node band (Table 5), and a post-
downsampling fraud rate in the 3.5–4.5% band (Appendix B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..graph.builder import build_graph, train_test_split
from ..graph.hetero import HeteroGraph
from .generator import GeneratorConfig, TransactionGenerator
from .records import TransactionLog


@dataclass
class DatasetBundle:
    """A built dataset: graph + index + splits + provenance."""

    name: str
    graph: HeteroGraph
    log: TransactionLog
    index: Dict[str, Dict[int, int]]
    train_nodes: np.ndarray
    test_nodes: np.ndarray

    def summary(self) -> Dict[str, object]:
        """Row of Table 2 plus the node-type mix of Table 6."""
        return {
            "dataset": self.name,
            "features": self.graph.feature_dim,
            "graph_type": "hetero",
            "num_nodes": self.graph.num_nodes,
            "num_edges": self.graph.num_edges // 2,
            "fraud_pct": round(100.0 * self.graph.fraud_rate(), 2),
            "edges_per_node": round(self.graph.edges_per_node(), 2),
            "node_type_counts": self.graph.node_type_counts(),
        }


def _build(name: str, config: GeneratorConfig, test_fraction: float = 0.3) -> DatasetBundle:
    generator = TransactionGenerator(config)
    log = generator.downsample_benign(generator.generate())
    graph, index = build_graph(log)
    train_nodes, _, test_nodes = train_test_split(
        graph, test_fraction=test_fraction, seed=config.seed
    )
    return DatasetBundle(
        name=name,
        graph=graph,
        log=log,
        index=index,
        train_nodes=train_nodes,
        test_nodes=test_nodes,
    )


def ebay_small_sim(seed: int = 0, scale: float = 1.0) -> DatasetBundle:
    """Small preset: 114-dim features, a few thousand nodes."""
    config = GeneratorConfig(
        num_benign_buyers=int(700 * scale),
        num_stolen_cards=int(12 * scale),
        num_warehouse_rings=max(2, int(4 * scale)),
        num_cultivated_accounts=int(6 * scale),
        num_guest_checkouts=int(25 * scale),
        num_apartment_buildings=max(2, int(4 * scale)),
        feature_dim=114,
        risk_signal=0.4,
        seed=seed,
    )
    return _build("ebay-small-sim", config)


def ebay_large_sim(seed: int = 0, scale: float = 1.0) -> DatasetBundle:
    """Large preset: 480-dim features, tens of thousands of nodes."""
    config = GeneratorConfig(
        num_benign_buyers=int(2500 * scale),
        num_stolen_cards=int(50 * scale),
        num_warehouse_rings=max(4, int(16 * scale)),
        num_cultivated_accounts=int(24 * scale),
        num_guest_checkouts=int(100 * scale),
        num_apartment_buildings=max(3, int(12 * scale)),
        feature_dim=480,
        risk_signal=0.4,
        seed=seed,
    )
    return _build("ebay-large-sim", config)


def ebay_xlarge_sim(seed: int = 0, scale: float = 1.0) -> DatasetBundle:
    """Extra-large preset: the end-to-end distributed workload."""
    config = GeneratorConfig(
        num_benign_buyers=int(5000 * scale),
        num_stolen_cards=int(100 * scale),
        num_warehouse_rings=max(8, int(32 * scale)),
        num_cultivated_accounts=int(48 * scale),
        num_guest_checkouts=int(200 * scale),
        num_apartment_buildings=max(4, int(24 * scale)),
        feature_dim=480,
        risk_signal=0.4,
        seed=seed,
    )
    return _build("ebay-xlarge-sim", config)


_PRESETS = {
    "ebay-small-sim": ebay_small_sim,
    "ebay-large-sim": ebay_large_sim,
    "ebay-xlarge-sim": ebay_xlarge_sim,
}


def load_dataset(name: str, seed: int = 0, scale: float = 1.0) -> DatasetBundle:
    """Load a preset by name ('ebay-small-sim' etc.)."""
    if name not in _PRESETS:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(_PRESETS)}")
    return _PRESETS[name](seed=seed, scale=scale)


def dataset_summary(*bundles: DatasetBundle) -> Tuple[Dict[str, object], ...]:
    """Table-2-style summary rows for any number of bundles."""
    return tuple(bundle.summary() for bundle in bundles)
