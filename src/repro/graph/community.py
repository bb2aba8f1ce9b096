"""Community extraction around transaction seeds (Sec. 5.1).

The explainer evaluation works on "communities": for a seed
transaction, all connected nodes and edges are taken (the paper's 41
test communities average 81.56 edges). :func:`extract_community`
returns the connected component of the seed as its own
:class:`HeteroGraph` with the seed's local index, optionally capped by
hops or by BFS order (:func:`~repro.graph.sampling.bfs`) for
pathological components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .hetero import NODE_TYPE_IDS, HeteroGraph
from .sampling import bfs


@dataclass
class Community:
    """A seed-centred connected subgraph used by the explainer."""

    graph: HeteroGraph
    seed_local: int
    seed_original: int
    original_ids: np.ndarray

    @property
    def label(self) -> int:
        """Ground-truth label of the seed transaction."""
        return int(self.graph.labels[self.seed_local])

    @property
    def num_buyers(self) -> int:
        return int(np.sum(self.graph.node_type == NODE_TYPE_IDS["buyer"]))

    @property
    def is_simple(self) -> bool:
        """Paper's Table 13 notion: a simple community has one buyer."""
        return self.num_buyers <= 1

    def undirected_edges(self) -> List[tuple]:
        """Unique undirected (u, v) pairs with u < v."""
        pairs = {
            (min(int(s), int(d)), max(int(s), int(d)))
            for s, d in zip(self.graph.edge_src, self.graph.edge_dst)
        }
        return sorted(pairs)


def extract_community(
    graph: HeteroGraph,
    seed: int,
    max_nodes: Optional[int] = None,
    max_hops: Optional[int] = None,
) -> Community:
    """Seed-centred community as a :class:`Community`.

    By default the full connected component of the seed is taken (the
    paper's wording). ``max_hops`` restricts to the BFS ball of that
    radius around the seed — matching the paper's graphs, which are
    themselves built by k-hop seed expansion (Appendix B), so their
    components are seed-centred neighbourhoods. ``max_nodes`` keeps the
    first nodes in BFS order.
    """
    if graph.labels[seed] < 0:
        raise ValueError("community seed must be a labeled transaction node")
    nodes = np.sort(bfs(graph, [seed], max_hops, max_nodes)[0])
    subgraph, original_ids = graph.subgraph(nodes)
    seed_local = int(np.flatnonzero(original_ids == seed)[0])
    return Community(
        graph=subgraph,
        seed_local=seed_local,
        seed_original=int(seed),
        original_ids=original_ids,
    )


def select_communities(
    graph: HeteroGraph,
    test_nodes: Sequence[int],
    count: int,
    seed: int = 0,
    min_edges: int = 4,
    max_nodes: Optional[int] = 120,
    fraud_count: Optional[int] = None,
    max_hops: Optional[int] = None,
) -> List[Community]:
    """Randomly select ``count`` seed communities from test transactions.

    Mirrors the paper's sample of 41 communities: seeds are drawn from
    the test set and tiny degenerate components are skipped. When
    ``fraud_count`` is given, that many communities are seeded on fraud
    transactions and the rest on legitimate ones (the paper uses 18
    fraud / 23 legit); otherwise seeds are drawn label-blind.
    """
    rng = np.random.default_rng(seed)
    candidates = rng.permutation(np.asarray(test_nodes, dtype=np.int64))

    if fraud_count is None:
        quotas = {0: count, 1: count}
        remaining_total = count
    else:
        if fraud_count > count:
            raise ValueError("fraud_count cannot exceed count")
        quotas = {1: fraud_count, 0: count - fraud_count}
        remaining_total = count

    chosen: List[Community] = []
    used_nodes: set = set()
    for node in candidates:
        if len(chosen) >= remaining_total:
            break
        if int(node) in used_nodes:
            continue
        label = int(graph.labels[node])
        if quotas.get(label, 0) <= 0:
            continue
        community = extract_community(graph, int(node), max_nodes=max_nodes, max_hops=max_hops)
        if len(community.undirected_edges()) < min_edges:
            continue
        used_nodes.update(int(i) for i in community.original_ids)
        chosen.append(community)
        if fraud_count is not None:
            quotas[label] -= 1

    if fraud_count is not None and len(chosen) < count:
        # Soft quota: if one label ran out of eligible seeds, fill the
        # remainder label-blind so callers still get `count` samples.
        for node in candidates:
            if len(chosen) >= count:
                break
            if int(node) in used_nodes:
                continue
            community = extract_community(graph, int(node), max_nodes=max_nodes, max_hops=max_hops)
            if len(community.undirected_edges()) < min_edges:
                continue
            used_nodes.update(int(i) for i in community.original_ids)
            chosen.append(community)
    return chosen
