"""Seeded random fixtures for the correctness harness.

Everything here is a pure function of a :class:`numpy.random.Generator`
— same seed, same graph / delta / event stream — which is what makes a
failing fuzz case replayable and *shrinkable*: the harness only ever
needs to remember ``(scenario, seed, size)`` to reproduce a divergence.

The generators deliberately bias toward the shapes that break graph
code: hub entities shared by many transactions, isolated nodes with no
edges, single-node graphs, deltas that wire new transactions to both
old and new entities, and event streams whose ids collide so the
incremental builder must dedup.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..data.events import TxnEvent
from ..graph.hetero import EDGE_TYPE_IDS, NODE_TYPE_IDS, HeteroGraph

__all__ = ["DELTA_SHAPES", "random_hetero_graph", "random_delta", "random_events"]

_ENTITY_KINDS = ("pmt", "email", "addr", "buyer")


def _pick_entity(rng: np.random.Generator, pool: int) -> int:
    """Skewed entity choice: index 0 becomes a hub in larger pools."""
    if pool == 1 or rng.random() < 0.3:
        return 0
    return int(rng.integers(0, pool))


def random_hetero_graph(
    rng: np.random.Generator,
    num_txns: int,
    feature_dim: int = 6,
) -> HeteroGraph:
    """A random but structurally valid transaction graph.

    ``num_txns`` transaction nodes, each linked (both directions) to
    one entity of a random subset of the four entity kinds; small
    entity pools produce hub nodes, and with some probability an extra
    unlinked entity is added so isolated nodes are exercised too.
    """
    num_txns = max(1, int(num_txns))
    node_types: List[int] = [NODE_TYPE_IDS["txn"]] * num_txns
    links: List[Tuple[int, int]] = []
    for kind in _ENTITY_KINDS:
        pool = int(rng.integers(1, max(2, num_txns // 2) + 1))
        if rng.random() < 0.15:
            pool += 1  # one entity more than ever gets linked: isolated node
        base = len(node_types)
        node_types.extend([NODE_TYPE_IDS[kind]] * pool)
        for txn in range(num_txns):
            if rng.random() < 0.85:  # not every txn carries every kind
                links.append((txn, base + _pick_entity(rng, pool)))
    features = np.zeros((len(node_types), feature_dim))
    features[:num_txns] = rng.normal(size=(num_txns, feature_dim))
    labels = np.full(len(node_types), -1, dtype=np.int64)
    labels[:num_txns] = rng.integers(0, 2, size=num_txns)
    return HeteroGraph.from_links(node_types, links, features, labels)


DELTA_SHAPES = ("full", "edge-only", "node-only", "empty")


def random_delta(
    rng: np.random.Generator,
    graph: HeteroGraph,
    num_new_txns: int,
    shape: str = "full",
) -> Dict[str, np.ndarray]:
    """``append_delta`` kwargs wiring new txns to old *and* new entities.

    ``shape`` picks the degenerate forms a live stream also produces:
    ``"edge-only"`` links existing transactions to existing entities (no
    new node), ``"node-only"`` adds the nodes without their edges, and
    ``"empty"`` adds nothing (a version bump alone).
    """
    if shape not in DELTA_SHAPES:
        raise ValueError(f"unknown delta shape {shape!r}")
    num_new_txns = 0 if shape == "empty" else max(1, int(num_new_txns))
    new_nodes = shape != "edge-only"
    base = graph.num_nodes
    node_type: List[int] = [NODE_TYPE_IDS["txn"]] * num_new_txns if new_nodes else []
    edge_src: List[int] = []
    edge_dst: List[int] = []
    edge_type: List[int] = []

    existing_by_kind = {
        kind: np.flatnonzero(graph.node_type == NODE_TYPE_IDS[kind])
        for kind in _ENTITY_KINDS
    }
    old_txns = graph.txn_nodes
    for local_txn in range(num_new_txns):
        txn = base + local_txn if new_nodes else int(old_txns[int(rng.integers(0, len(old_txns)))])
        for kind in _ENTITY_KINDS:
            if rng.random() < 0.3:
                continue
            pool = existing_by_kind[kind]
            if len(pool) and (not new_nodes or rng.random() < 0.6):
                entity = int(pool[int(rng.integers(0, len(pool)))])
            elif new_nodes:
                entity = base + len(node_type)
                node_type.append(NODE_TYPE_IDS[kind])
            else:
                continue
            edge_src.append(txn)
            edge_dst.append(entity)
            edge_type.append(EDGE_TYPE_IDS[f"txn->{kind}"])
            edge_src.append(entity)
            edge_dst.append(txn)
            edge_type.append(EDGE_TYPE_IDS[f"{kind}->txn"])
    if shape == "node-only":
        edge_src, edge_dst, edge_type = [], [], []

    num_txn_rows = num_new_txns if new_nodes else 0
    features = np.zeros((len(node_type), graph.feature_dim), dtype=graph.txn_features.dtype)
    features[:num_txn_rows] = rng.normal(size=(num_txn_rows, graph.feature_dim))
    labels = np.full(len(node_type), -1, dtype=np.int64)
    labels[:num_txn_rows] = rng.integers(0, 2, size=num_txn_rows)
    return {
        "node_type": np.asarray(node_type, dtype=np.int64),
        "labels": labels,
        "txn_features": features,
        "edge_src": np.asarray(edge_src, dtype=np.int64),
        "edge_dst": np.asarray(edge_dst, dtype=np.int64),
        "edge_type": np.asarray(edge_type, dtype=np.int64),
    }


def random_events(
    rng: np.random.Generator,
    count: int,
    feature_dim: int = 4,
    start_txn_id: int = 0,
) -> List[TxnEvent]:
    """A time-ordered stream of random :class:`TxnEvent`.

    Entity ids are drawn from small pools so repeats (and therefore
    builder dedup) are common; some events carry ``buyer_id=None``
    (guest checkout) and a revealed label.
    """
    count = max(1, int(count))
    events: List[TxnEvent] = []
    timestamp = float(rng.uniform(0.0, 10.0))
    for offset in range(count):
        timestamp += float(rng.uniform(0.01, 1.0))
        events.append(
            TxnEvent(
                txn_id=start_txn_id + offset,
                buyer_id=None if rng.random() < 0.2 else int(rng.integers(0, 5)),
                email_id=int(rng.integers(0, 6)),
                pmt_id=int(rng.integers(0, 4)),
                addr_id=int(rng.integers(0, 5)),
                timestamp=timestamp,
                features=rng.normal(size=feature_dim),
                label=int(rng.integers(-1, 2)),
            )
        )
    return events
