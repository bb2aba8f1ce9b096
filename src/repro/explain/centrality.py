"""Centrality measures as task-agnostic edge weights (Table 1, App. F).

Appendix F computes edge weights from centrality in two ways:

1. **edge centralities** evaluated directly on the community graph —
   edge betweenness and edge load;
2. **node centralities evaluated on the line graph** L(G), whose nodes
   are G's edges — betweenness, closeness, degree, eigenvector,
   harmonic, load, subgraph, communicability betweenness, current-flow
   betweenness/closeness and its approximation.

All thirteen measures of Table 1 are exposed through
:func:`centrality_edge_weights`; every result maps undirected node
pairs ``(u, v), u < v`` to a weight.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

import numpy as np

from ..graph.hetero import HeteroGraph

if TYPE_CHECKING:
    import networkx as nx

EdgeWeights = Dict[Tuple[int, int], float]

#: Table 1's node centralities, evaluated on the line graph, in its order
#: -> the networkx function that computes each.
_LINE_GRAPH_MEASURES: Dict[str, str] = {
    "approximate_current_flow_betweenness": "approximate_current_flow_betweenness_centrality",
    "betweenness": "betweenness_centrality",
    "closeness": "closeness_centrality",
    "communicability_betweenness": "communicability_betweenness_centrality",
    "current_flow_betweenness": "current_flow_betweenness_centrality",
    "current_flow_closeness": "current_flow_closeness_centrality",
    "degree": "degree_centrality",
    "eigenvector": "eigenvector_centrality_numpy",
    "harmonic": "harmonic_centrality",
    "load": "load_centrality",
    "subgraph": "subgraph_centrality",
}

#: Measure names exactly as Table 1 lists them.
CENTRALITY_MEASURES: Tuple[str, ...] = ("edge_betweenness", "edge_load", *_LINE_GRAPH_MEASURES)


def _undirected_nx(graph: HeteroGraph) -> nx.Graph:
    import networkx as nx

    undirected = nx.Graph()
    undirected.add_nodes_from(range(graph.num_nodes))
    for src, dst in zip(graph.edge_src, graph.edge_dst):
        undirected.add_edge(int(src), int(dst))
    return undirected


def _normalize_pair(u, v) -> Tuple[int, int]:
    a, b = int(u), int(v)
    return (a, b) if a <= b else (b, a)


def _per_component(graph: nx.Graph, fn: Callable[[nx.Graph], Dict]) -> Dict:
    """Run a centrality on each connected component and merge.

    Current-flow (and related) centralities require connected graphs;
    communities are connected by construction but library users may
    pass arbitrary graphs.
    """
    import networkx as nx

    result: Dict = {}
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        if sub.number_of_nodes() < 2:
            for node in sub.nodes:
                result[node] = 0.0
            continue
        result.update(fn(sub))
    return result


def _line_graph_node_centrality(graph: nx.Graph, measure: str) -> EdgeWeights:
    """Node centrality computed on the line graph → edge weight in G."""
    import networkx as nx

    line = nx.line_graph(graph)
    if line.number_of_nodes() == 0:
        return {}
    centrality = getattr(nx, _LINE_GRAPH_MEASURES[measure])
    if measure == "approximate_current_flow_betweenness":  # sampled: seeded, so it repeats
        centrality = partial(centrality, seed=0)
    scores = _per_component(line, centrality)
    weights: EdgeWeights = {}
    for edge_node, score in scores.items():
        weights[_normalize_pair(*edge_node)] = float(score)
    return weights


def centrality_edge_weights(graph: HeteroGraph, measure: str) -> EdgeWeights:
    """Edge weights for one of the 13 Table-1 centrality measures."""
    import networkx as nx

    if measure not in CENTRALITY_MEASURES:
        raise KeyError(f"unknown measure {measure!r}; choose from {CENTRALITY_MEASURES}")
    undirected = _undirected_nx(graph)
    if measure == "edge_betweenness":
        raw = nx.edge_betweenness_centrality(undirected)
        return {_normalize_pair(*edge): float(score) for edge, score in raw.items()}
    if measure == "edge_load":
        raw = nx.edge_load_centrality(undirected)
        return {_normalize_pair(*edge): float(score) for edge, score in raw.items()}
    return _line_graph_node_centrality(undirected, measure)


def all_centrality_edge_weights(graph: HeteroGraph) -> Dict[str, EdgeWeights]:
    """All 13 measures for one community (a full Table-1 column set)."""
    return {measure: centrality_edge_weights(graph, measure) for measure in CENTRALITY_MEASURES}


def random_edge_weights(graph: HeteroGraph, seed: int = 0) -> EdgeWeights:
    """The random-weights baseline (Table 1 row 15 / Table 8)."""
    rng = np.random.default_rng(seed)
    pairs: List[Tuple[int, int]] = sorted(
        {_normalize_pair(s, d) for s, d in zip(graph.edge_src, graph.edge_dst)}
    )
    return {pair: float(rng.random()) for pair in pairs}
