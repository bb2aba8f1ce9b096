"""Executable specs: the slow, obvious form of three fast paths.

**The detector's convolution, one ``Tensor`` op at a time.**
:class:`~repro.models.hetero_conv.HeteroConvLayer` is a single autograd
node over a plain-array kernel with a hand-derived backward.
:func:`conv_forward` / :class:`PerOpDetector` are the spec both halves
are held to: the same layer parameters pushed through ``nn``'s per-op
tape (one ``Tensor`` per op and per node/edge type, gradients by the
engine's own rules), in the graph's own node and edge order.

**The detector read at every node.** :class:`ReadEverywhere` is the
detector's own kernel with nothing cut: the spec of running each layer
on only the rows the next one reads.

**The samplers, one node at a time.** :func:`scalar_sample` is the walk
each sampler of :mod:`repro.graph.sampling` vectorizes, reading the
configuration off the sampler instance it is the spec of and asking the
same stateless hash the same questions, so the two return identical
:class:`~repro.graph.sampling.SampledSubgraph` objects seed for seed.

Only ``repro.check`` scenarios, tests, one bench and one demo gate call
this module; nothing that trains, explains or serves does.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..graph.hetero import EDGE_TYPES, NODE_TYPES, HeteroGraph
from ..graph.sampling import (
    _EMPTY,
    HGSampler,
    SageSampler,
    SampledSubgraph,
    _first_occurrence_unique,
    _hash_uniform,
    _induce,
    _salt,
    stack_subgraphs,
)
from ..models.detector import XFraudDetector
from ..models.field import EdgeRows
from ..models.hetero_conv import HeteroConvLayer
from ..nn import Tensor
from ..nn import functional as F


def _by_type(x: Tensor, types: np.ndarray, apply: Callable[[int, Tensor], Tensor]) -> Tensor:
    """Rows of ``x`` grouped by ``types``, each group through
    ``apply(type_id, rows)``, back in their places.

    A type with no rows still passes its zero-row block through, so
    every type's parameters are on the tape — and get a gradient, if
    only zeros — whatever the graph holds.
    """
    indices = [np.flatnonzero(types == type_id) for type_id in range(len(NODE_TYPES))]
    pieces = [apply(type_id, nn.gather(x, rows)) for type_id, rows in enumerate(indices)]
    return nn.scatter_rows(nn.concat(pieces, axis=0), np.concatenate(indices), x.shape[0])


def _per_type_linear(x: Tensor, node_type: np.ndarray, linears: nn.ModuleDict) -> Tensor:
    """Each row through its type's linear — or all through the shared one."""
    if "shared" in linears:
        return linears["shared"](x)
    return _by_type(x, node_type, lambda type_id, rows: linears[NODE_TYPES[type_id]](rows))


def _per_type_bilinear(x: Tensor, types: np.ndarray, att: nn.Parameter) -> Tensor:
    """Rows of ``x`` (``(n, heads, d)``) times ``att[type]``
    (``(heads, d, d)``) by each row's type."""
    return _by_type(
        x, types, lambda type_id, rows: (rows.transpose(1, 0, 2) @ att[type_id]).transpose(1, 0, 2)
    )


def _edge_type_contribution(
    layer: HeteroConvLayer, edge_types: np.ndarray, linears: nn.ModuleDict
) -> Tensor:
    """Bias-free projection of φ(e)^emb per edge, through the
    projection of the edge type's source node type."""
    rows: List[Tensor] = []
    for type_id, type_name in enumerate(EDGE_TYPES):
        source_type = type_name.split("->")[0] if layer.per_type_projections else "shared"
        embedding_row = layer.edge_type_emb.weight[np.array([type_id])]
        rows.append(embedding_row @ linears[source_type].weight)
    return nn.gather(nn.concat(rows, axis=0), edge_types)


def conv_forward(
    layer: HeteroConvLayer,
    graph: HeteroGraph,
    h: Tensor,
    edge_mask: Optional[Tensor] = None,
    edge_rows: Optional[EdgeRows] = None,
) -> Tensor:
    """``layer(graph, h, edge_mask, edge_rows)`` written as eqs. 2–10
    read: rows of ``h`` and of the result in ``graph``'s node order."""
    node_type = graph.node_type
    src, dst = graph.edge_src, graph.edge_dst
    num_nodes, num_edges = graph.num_nodes, graph.num_edges
    heads, dim = layer.num_heads, layer.head_dim

    if layer.first_layer:
        # eq. 2/4/6 input: X + τ(v)^emb  (+ φ(e)^emb handled below).
        h = h + layer.node_type_emb(node_type)
    query = _per_type_linear(h, node_type, layer.q_linear).reshape(num_nodes, heads, dim)
    key = _per_type_linear(h, node_type, layer.k_linear).reshape(num_nodes, heads, dim)
    value = _per_type_linear(h, node_type, layer.v_linear).reshape(num_nodes, heads, dim)

    key_edges = nn.gather(key, src)
    value_edges = nn.gather(value, src)
    if layer.first_layer:
        # K(X+τ+φ) = K(X+τ) + K(φ) with the bias counted once.
        key_extra = _edge_type_contribution(layer, graph.edge_type, layer.k_linear)
        value_extra = _edge_type_contribution(layer, graph.edge_type, layer.v_linear)
        key_edges = key_edges + key_extra.reshape(num_edges, heads, dim)
        value_edges = value_edges + value_extra.reshape(num_edges, heads, dim)

    # eq. 8 (mutual/bilinear form): per-edge per-head logits.
    key_att = _per_type_bilinear(key_edges, node_type[src], layer.att_src)
    query_att = _per_type_bilinear(nn.gather(query, dst), node_type[dst], layer.att_dst)
    logits = (key_att * query_att).sum(axis=2) * (1.0 / np.sqrt(dim))

    # eq. 9: softmax over each target's in-neighbourhood.
    attention = nn.segment_softmax(logits, dst, num_nodes)
    if edge_mask is None:
        attention = F.dropout(
            attention, layer.dropout_rate, training=layer.training, rng=layer._rng, rows=edge_rows
        )
    else:
        attention = attention * edge_mask.reshape(num_edges, 1)

    # eq. 10 + eq. 1 Aggregate: weight values, sum into targets.
    messages = value_edges * attention.reshape(num_edges, heads, 1)
    aggregated = nn.segment_sum(messages, dst, num_nodes).reshape(num_nodes, layer.out_dim)
    if layer.target_specific:
        aggregated = _per_type_linear(aggregated, node_type, layer.a_linear)
    return aggregated.relu()


class PerOpDetector:
    """A detector seen through :func:`conv_forward`: same parameters,
    same generators, same head, the convolution stack on the per-op
    tape. Stands in for the detector wherever one is called
    (``tensor_predict_proba``, ``GNNExplainer``); everything but the
    forward is the detector's own."""

    def __init__(self, detector: XFraudDetector) -> None:
        self.detector = detector

    def __getattr__(self, name: str):
        return getattr(self.detector, name)

    def forward(
        self,
        graph: HeteroGraph,
        targets: Sequence[int],
        edge_mask: Optional[Tensor] = None,
        feature_mask: Optional[Tensor] = None,
        edge_rows: Optional[EdgeRows] = None,
    ) -> Tensor:
        targets = np.asarray(targets, dtype=np.int64)
        h = Tensor(graph.txn_features)
        if feature_mask is not None:
            h = h * feature_mask
        for conv in self.detector.convs:
            h = conv_forward(conv, graph, h, edge_mask=edge_mask, edge_rows=edge_rows)
        return self.detector.head(graph, targets, nn.gather(h, targets), feature_mask)

    __call__ = forward


class ReadEverywhere(PerOpDetector):
    """A detector whose own kernel is read at every node:
    :meth:`~repro.models.detector.XFraudDetector.node_representations`
    — a layout where every node is at distance 0, so every layer's
    prefix is the whole — with the head on the targets' rows of that:
    the forward with nothing cut, the spec that running each layer on
    only the rows the next one reads is held to."""

    def forward(
        self,
        graph: HeteroGraph,
        targets: Sequence[int],
        edge_mask: Optional[Tensor] = None,
        feature_mask: Optional[Tensor] = None,
        edge_rows: Optional[EdgeRows] = None,
    ) -> Tensor:
        targets = np.asarray(targets, dtype=np.int64)
        h = self.detector.node_representations(graph, edge_mask, feature_mask, edge_rows)
        return self.detector.head(graph, targets, nn.gather(h, targets), feature_mask)

    __call__ = forward


# ----------------------------------------------------------------------
# The samplers' walks, node at a time
# ----------------------------------------------------------------------
def scalar_sample(
    sampler, graph: HeteroGraph, targets: Sequence[int], deadline=None, disjoint: bool = False
) -> SampledSubgraph:
    """What ``sampler.sample(graph, targets, deadline, disjoint)`` must
    return, by the scalar walk of ``sampler``'s kind — ``disjoint=True``
    by its definition, the stacked loop of singleton samples."""
    targets = np.asarray(targets, dtype=np.int64)
    if disjoint and len(targets) != 1:
        return stack_subgraphs(
            [scalar_sample(sampler, graph, [int(target)], deadline) for target in targets]
        )
    walk = _sage_walk if isinstance(sampler, SageSampler) else _hg_walk
    return _induce(graph, walk(sampler, graph, _first_occurrence_unique(targets), deadline), targets)


def _canonical(unique_targets: np.ndarray, discovered: List[int]) -> np.ndarray:
    rest = np.sort(np.asarray(discovered, dtype=np.int64)) if discovered else _EMPTY
    return np.concatenate([unique_targets, rest])


def _sage_walk(
    sampler: SageSampler, graph: HeteroGraph, unique_targets: np.ndarray, deadline
) -> np.ndarray:
    indptr, src_sorted, _ = graph.csr()
    edge_salt = _salt(sampler.seed)

    def kept_positions(node: int) -> np.ndarray:
        """The node's CSR slice, cut to its ``fanout`` smallest hash keys."""
        positions = np.arange(int(indptr[node]), int(indptr[node + 1]), dtype=np.int64)
        if len(positions) <= sampler.fanout:
            return positions
        keys = _hash_uniform(positions, edge_salt)
        return positions[np.argsort(keys, kind="stable")[: sampler.fanout]]

    visited: Dict[int, None] = {int(t): None for t in unique_targets}
    frontier = list(visited)
    discovered: List[int] = []
    for hop in range(sampler.hops):
        if deadline is not None:
            deadline.check(f"sampling hop {hop}")
        next_frontier: List[int] = []
        for node in frontier:
            for position in kept_positions(node):
                neighbor = int(src_sorted[position])
                if neighbor not in visited:
                    visited[neighbor] = None
                    next_frontier.append(neighbor)
        frontier = next_frontier
        discovered.extend(next_frontier)
    return _canonical(unique_targets, discovered)


def _hg_walk(
    sampler: HGSampler, graph: HeteroGraph, unique_targets: np.ndarray, deadline
) -> np.ndarray:
    degree = np.maximum(graph.degree(), 1)
    sampled: Dict[int, None] = {int(t): None for t in unique_targets}
    budgets: List[Dict[int, float]] = [dict() for _ in NODE_TYPES]

    def add_to_budget(node: int) -> None:
        """Push the neighbours of a newly sampled node into budgets."""
        for neighbor in graph.in_neighbors(node):
            neighbor = int(neighbor)
            if neighbor in sampled:
                continue
            budget = budgets[graph.node_type[neighbor]]
            budget[neighbor] = budget.get(neighbor, 0.0) + 1.0 / float(degree[node])

    def draw(candidates: np.ndarray, weights: np.ndarray, step: int) -> np.ndarray:
        """Up to ``width`` candidates, weighted without replacement,
        returned ascending. Exponential-race keys over the stateless
        hash: identical picks for identical ``(candidates, weights,
        seed, step)`` regardless of candidate order."""
        uniforms = _hash_uniform(candidates, _salt(sampler.seed, step + 1))
        keys = -np.log(uniforms) / weights
        count = min(sampler.width, len(candidates))
        return np.sort(candidates[np.lexsort((candidates, keys))[:count]])

    for target in sampled:
        add_to_budget(target)

    discovered: List[int] = []
    for step in range(sampler.depth):
        if deadline is not None:
            deadline.check(f"sampling step {step}")
        newly_sampled: List[int] = []
        for type_budget in budgets:
            if not type_budget:
                continue
            candidates = np.fromiter(type_budget.keys(), dtype=np.int64)
            weights = np.fromiter(type_budget.values(), dtype=np.float64) ** 2
            newly_sampled.extend(int(c) for c in draw(candidates, weights, step))
        for node in newly_sampled:
            sampled[node] = None
            budgets[graph.node_type[node]].pop(node, None)
        for node in newly_sampled:
            add_to_budget(node)
        discovered.extend(newly_sampled)
    return _canonical(unique_targets, discovered)
