"""Graph constructor: transaction logs → heterogeneous graphs.

Implements the construction protocol of Sec. 3.1:

* both transactions and linking entities become nodes;
* if an entity is used in a transaction, an edge connects the
  transaction node and the entity node (stored in both directions with
  typed edges, :func:`~repro.graph.hetero.link_edges`);
* only transaction nodes carry input features.

Appendix B's seed expansion (seeds expanded to capped k-hop
neighbourhoods) is what :func:`~repro.graph.community.extract_community`
does for a single seed; the builder keeps every transaction and entity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from .hetero import NODE_TYPE_IDS, NODE_TYPES, HeteroGraph

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.data
    from ..data.records import TransactionLog


def build_graph(log: "TransactionLog") -> Tuple[HeteroGraph, Dict[str, Dict[int, int]]]:
    """Build the graph of a whole log: transactions first, in log order,
    so their node ids are contiguous from zero, then each entity in the
    order a transaction first links it.

    Returns the graph and an index mapping
    ``{entity_kind: {external_id: node_id}}`` (including ``"txn"``)
    so callers can locate specific records in the graph. A repeated
    ``txn_id`` is refused, as the stream builder refuses it.
    """
    events = list(log)
    if not events:
        raise ValueError("cannot build a graph from an empty log")
    index: Dict[str, Dict[int, int]] = {kind: {} for kind in NODE_TYPES}
    for node, event in enumerate(events):
        if event.txn_id in index["txn"]:
            raise ValueError(f"duplicate transaction event {event.txn_id}")
        index["txn"][event.txn_id] = node
    node_types: List[int] = [NODE_TYPE_IDS["txn"]] * len(events)
    links: List[Tuple[int, int]] = []
    for node, event in enumerate(events):
        for kind, external_id in event.linked_entities():
            entity = index[kind].get(external_id)
            if entity is None:
                entity = index[kind][external_id] = len(node_types)
                node_types.append(NODE_TYPE_IDS[kind])
            links.append((node, entity))
    labels = [event.label for event in events] + [-1] * (len(node_types) - len(events))
    txn_table = np.stack([event.features for event in events])
    return HeteroGraph.from_links(node_types, links, txn_table, labels), index


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
