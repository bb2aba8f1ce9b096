"""Pure helpers shared by the benchmark suite (no fixtures here)."""

from __future__ import annotations

import os
import timeit
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro import CommunityWeights, DetectorConfig, XFraudDetectorPlus
from repro.graph import HeteroGraph
from repro.models import GATModel, GEMModel

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Scaled-down stand-ins for the paper's workload sizes, chosen so the
#: full bench suite completes in minutes on one machine.
XLARGE_SCALE = 0.20
SMALL_SCALE = 0.5
LARGE_SCALE = 0.25
EPOCHS = 20
WORKER_COUNTS = (8, 16)
SEEDS = (0, 1)  # the paper's seeds A and B
NUM_COMMUNITIES = 41

MODEL_CLASSES = {"GAT": GATModel, "GEM": GEMModel, "xFraud detector+": XFraudDetectorPlus}


def write_result(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def best_us(fn, number: int, setup="pass") -> float:
    """Best-of-five mean microseconds per call of ``fn`` over ``number``
    calls; ``setup`` runs untimed before each of the five."""
    return min(timeit.repeat(fn, setup=setup, number=number, repeat=5)) / number * 1e6


def stream_shaped_graph(rng, num_txns: int, feature_dim: int = 114) -> HeteroGraph:
    """A graph of the ledger stream's shape — as many entities as
    transactions (entity ``j`` of kind ``1 + j % 4`` is node
    ``num_txns + j``), four links per transaction (8 directed edges) —
    with its CSR built."""
    num_nodes = 2 * num_txns
    node_type = np.zeros(num_nodes, dtype=np.int64)
    node_type[num_txns:] = 1 + np.arange(num_txns) % 4
    txn = np.repeat(np.arange(num_txns), 4)
    entity = num_txns + rng.integers(0, num_txns, size=len(txn))
    kind = node_type[entity] - 1  # edge types 2k / 2k+1 are txn->kind / kind->txn
    graph = HeteroGraph(
        node_type=node_type,
        edge_src=np.concatenate([txn, entity]),
        edge_dst=np.concatenate([entity, txn]),
        edge_type=np.concatenate([2 * kind, 2 * kind + 1]),
        txn_table=rng.normal(size=(num_txns, feature_dim)),
        labels=np.full(num_nodes, -1, dtype=np.int64),
    )
    graph.csr()
    return graph


def format_table(headers: List[str], rows: List[List[object]]) -> str:
    widths = [
        max(len(str(header)), max((len(str(row[i])) for row in rows), default=0))
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def model_config(feature_dim: int, seed: int) -> DetectorConfig:
    return DetectorConfig(
        feature_dim=feature_dim,
        hidden_dim=64,
        num_heads=4,
        num_layers=2,
        ffn_hidden_dim=64,
        dropout=0.2,
        seed=seed,
    )


@dataclass
class EndToEndRun:
    """One (model, #workers, seed) distributed training run."""

    model_name: str
    num_workers: int
    seed: int
    model: object
    metrics: Dict[str, float]
    seconds_per_epoch: float
    convergence: List[float]
    test_scores: np.ndarray
    test_labels: np.ndarray


@dataclass
class ExplainedCommunity:
    community: object
    human: Dict
    centralities: Dict[str, Dict]
    explainer: Dict
    detector_score: float


def community_weight_sets(
    explained: List[ExplainedCommunity], centrality: str = "edge_betweenness"
) -> List[CommunityWeights]:
    return [
        CommunityWeights(
            human=e.human,
            centrality=e.centralities[centrality],
            explainer=e.explainer,
        )
        for e in explained
    ]
