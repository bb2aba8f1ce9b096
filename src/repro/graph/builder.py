"""Graph constructor: transaction logs → heterogeneous graphs.

Implements the construction protocol of Sec. 3.1 and Appendix B:

* both transactions and linking entities become nodes;
* if an entity is used in a transaction, an edge connects the
  transaction node and the entity node (stored in both directions with
  typed edges);
* only transaction nodes carry input features;
* optionally, linking entities whose transaction count falls below a
  threshold are removed to maintain graph connectivity
  (the eBay-large construction step);
* optionally, the seed-expansion sampling of Appendix B: all fraud
  transactions plus sampled benign transactions are seeds, each seed is
  expanded to its k-hop neighbourhood keeping at most N neighbours per
  hop, and neighbourhoods with fewer than ``min_txns`` transactions are
  filtered out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from typing import TYPE_CHECKING

from .hetero import NODE_TYPE_IDS, HeteroGraph, edge_type_between

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.data
    from ..data.records import TransactionLog


@dataclass
class BuildConfig:
    """Options for graph construction."""

    min_entity_txns: int = 1
    seed_expansion: bool = False
    hops: int = 2
    max_neighbors_per_hop: int = 10
    min_txns_per_neighborhood: int = 5
    benign_seed_fraction: float = 1.0
    rng_seed: int = 0


class GraphBuilder:
    """Converts a :class:`TransactionLog` into a :class:`HeteroGraph`."""

    def __init__(self, config: Optional[BuildConfig] = None) -> None:
        self.config = config or BuildConfig()

    # ------------------------------------------------------------------
    def build(self, log: TransactionLog) -> Tuple[HeteroGraph, Dict[str, Dict[int, int]]]:
        """Build the full graph.

        Returns the graph and an index mapping
        ``{entity_kind: {external_id: node_id}}`` (including ``"txn"``)
        so callers can locate specific records in the graph.
        """
        records = list(log)
        if not records:
            raise ValueError("cannot build a graph from an empty log")

        entity_use = self._entity_usage(records)
        node_types: List[int] = []
        labels: List[int] = []
        features: List[np.ndarray] = []
        index: Dict[str, Dict[int, int]] = {k: {} for k in ("txn", "pmt", "email", "addr", "buyer")}

        # Transactions first so txn node ids are contiguous from zero.
        for record in records:
            index["txn"][record.txn_id] = len(node_types)
            node_types.append(NODE_TYPE_IDS["txn"])
            labels.append(record.label)
            features.append(record.features)

        def entity_node(kind: str, external_id: int) -> Optional[int]:
            if entity_use[kind][external_id] < self.config.min_entity_txns:
                return None
            if external_id not in index[kind]:
                index[kind][external_id] = len(node_types)
                node_types.append(NODE_TYPE_IDS[kind])
                labels.append(-1)
            return index[kind][external_id]

        src: List[int] = []
        dst: List[int] = []
        etype: List[int] = []
        for record in records:
            txn_node = index["txn"][record.txn_id]
            for kind, external_id in record.linked_entities():
                node = entity_node(kind, external_id)
                if node is None:
                    continue
                src.append(txn_node)
                dst.append(node)
                etype.append(edge_type_between("txn", kind))
                src.append(node)
                dst.append(txn_node)
                etype.append(edge_type_between(kind, "txn"))

        graph = HeteroGraph(
            node_type=np.array(node_types, dtype=np.int64),
            edge_src=np.array(src, dtype=np.int64),
            edge_dst=np.array(dst, dtype=np.int64),
            edge_type=np.array(etype, dtype=np.int64),
            txn_table=np.stack(features),
            labels=np.array(labels, dtype=np.int64),
        )
        if self.config.seed_expansion:
            graph = self._seed_expand(graph)
        return graph, index

    # ------------------------------------------------------------------
    @staticmethod
    def _entity_usage(records) -> Dict[str, Dict[int, int]]:
        usage: Dict[str, Dict[int, int]] = {k: {} for k in ("pmt", "email", "addr", "buyer")}
        for record in records:
            for kind, external_id in record.linked_entities():
                usage[kind][external_id] = usage[kind].get(external_id, 0) + 1
        return usage

    # ------------------------------------------------------------------
    def _seed_expand(self, graph: HeteroGraph) -> HeteroGraph:
        """Appendix B sampling: seeds → k-hop capped expansion → filter."""
        rng = np.random.default_rng(self.config.rng_seed)
        txn_mask = graph.node_type == NODE_TYPE_IDS["txn"]
        fraud_seeds = np.flatnonzero(txn_mask & (graph.labels == 1))
        benign = np.flatnonzero(txn_mask & (graph.labels == 0))
        n_benign = int(round(len(benign) * self.config.benign_seed_fraction))
        benign_seeds = rng.choice(benign, size=n_benign, replace=False) if n_benign else np.array([], dtype=np.int64)
        seeds = np.concatenate([fraud_seeds, benign_seeds])

        keep = np.zeros(graph.num_nodes, dtype=bool)
        for seed in seeds:
            neighborhood = self._expand(graph, int(seed), rng)
            txn_count = int(np.sum(txn_mask[neighborhood]))
            if txn_count >= self.config.min_txns_per_neighborhood:
                keep[neighborhood] = True
        if not keep.any():
            return graph
        sub, _ = graph.subgraph(np.flatnonzero(keep))
        return sub

    def _expand(self, graph: HeteroGraph, seed: int, rng: np.random.Generator) -> np.ndarray:
        visited = {seed}
        frontier = [seed]
        for _ in range(self.config.hops):
            next_frontier: List[int] = []
            for node in frontier:
                neighbors = graph.in_neighbors(node)
                if len(neighbors) > self.config.max_neighbors_per_hop:
                    neighbors = rng.choice(
                        neighbors, size=self.config.max_neighbors_per_hop, replace=False
                    )
                for neighbor in neighbors:
                    neighbor = int(neighbor)
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return np.array(sorted(visited), dtype=np.int64)


def train_test_split(
    graph: HeteroGraph,
    test_fraction: float = 0.3,
    val_fraction: float = 0.0,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split labeled transaction nodes into train/val/test index arrays.

    Stratified by label so both classes appear in every split.
    """
    rng = np.random.default_rng(seed)
    labeled = graph.labeled_nodes
    train_parts: List[np.ndarray] = []
    val_parts: List[np.ndarray] = []
    test_parts: List[np.ndarray] = []
    for label in (0, 1):
        nodes = labeled[graph.labels[labeled] == label]
        nodes = rng.permutation(nodes)
        n_test = int(round(len(nodes) * test_fraction))
        n_val = int(round(len(nodes) * val_fraction))
        test_parts.append(nodes[:n_test])
        val_parts.append(nodes[n_test : n_test + n_val])
        train_parts.append(nodes[n_test + n_val :])
    train = np.sort(np.concatenate(train_parts))
    val = np.sort(np.concatenate(val_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, val, test
