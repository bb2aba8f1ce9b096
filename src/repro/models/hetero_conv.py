"""Heterogeneous convolution layer of the xFraud detector (Sec. 3.2.2).

Implements eqs. 2–10 of the paper:

* per-node-type Q/K/V linear maps (``Q-Linear_{τ(v)}`` …), multi-head;
* node-type embeddings ``τ(v)^emb`` and edge-type embeddings
  ``φ(e)^emb`` initialised at **zero** (the paper's choice), added to
  the raw inputs only at the first layer (eqs. 2, 4, 6) — deeper layers
  consume ``H^{l-1}`` directly (eqs. 3, 5, 7);
* additive mutual attention per head
  ``α-head = (K·w_att_src + Q·w_att_dst) / sqrt(d_k)`` (eq. 8), with
  per-node-type attention vectors drawn from uniform distributions;
* softmax over the in-neighbourhood of each target node (eq. 9);
* message passing ``msg = ||_i V^i(v_s) · dropout(α^i)`` (eq. 10),
  summed into targets (the Aggregate of eq. 1).

Unlike HGT there is **no target-specific aggregation**: the output path
(residual + layer norm + ReLU) shares weights across node types, which
the paper reports works better on transaction graphs.

The layer has two forwards over the same parameters. ``forward`` runs
on the autograd :class:`~repro.nn.Tensor` (training, the explainer's
masks). ``forward_inference`` is the same function on plain arrays for
scoring: it needs no tape, so it can reorder the algebra (see
:class:`InferenceLayout`) and costs a few dozen numpy calls per layer
instead of one ``Tensor`` per op and per node/edge type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..graph.hetero import EDGE_TYPES, NODE_TYPES, HeteroGraph
from ..nn import Tensor
from ..nn import functional as F
from .field import EdgeRows

#: Edge-type ids grouped by the projection that serves their source
#: node type — per type name, and all of them under ``"shared"``.
_EDGE_TYPES_BY_SOURCE = {
    name: np.array([i for i, edge in enumerate(EDGE_TYPES) if edge.split("->")[0] == name])
    for name in NODE_TYPES
}
_EDGE_TYPES_BY_SOURCE["shared"] = np.arange(len(EDGE_TYPES))


@dataclass(frozen=True)
class InferenceLayout:
    """A graph's structure in the order the inference forward wants it.

    Built once per ``predict_proba`` call and shared by every layer.
    Nodes are renumbered so each node type is one contiguous block
    (the per-type weights then apply to slices, not gathered rows), and
    edges are stably sorted by their renumbered target, so every
    in-neighbourhood is a contiguous run that ``ufunc.reduceat`` can
    reduce from its first edge.
    """

    #: ``rank[v]`` is the position of the graph's node ``v``.
    rank: np.ndarray
    #: ``(N,)`` node-type id per position, ascending.
    node_type: np.ndarray
    #: ``(type_id, start, stop)`` per node type present.
    type_blocks: List[Tuple[int, int, int]]
    #: ``(E,)`` edge endpoints (as positions) and types, sorted by ``dst``.
    src: np.ndarray
    dst: np.ndarray
    edge_type: np.ndarray
    #: ``(S,)`` first edge of each non-empty in-neighbourhood, its
    #: target position, and ``(E,)`` each edge's index into those.
    starts: np.ndarray
    heads: np.ndarray
    segment: np.ndarray

    @classmethod
    def of(cls, graph: HeteroGraph) -> "InferenceLayout":
        by_type = np.argsort(graph.node_type, kind="stable")
        rank = np.empty_like(by_type)
        rank[by_type] = np.arange(len(by_type))
        node_type = graph.node_type[by_type]
        bounds = np.searchsorted(node_type, np.arange(len(NODE_TYPES) + 1)).tolist()
        type_blocks = [
            (type_id, start, stop)
            for type_id, (start, stop) in enumerate(zip(bounds, bounds[1:]))
            if stop > start
        ]
        dst = rank[graph.edge_dst]
        by_dst = np.argsort(dst, kind="stable")
        dst = dst[by_dst]
        first = np.ones(len(dst), dtype=bool)
        first[1:] = dst[1:] != dst[:-1]
        starts = np.flatnonzero(first)
        return cls(
            rank=rank,
            node_type=node_type,
            type_blocks=type_blocks,
            src=rank[graph.edge_src[by_dst]],
            dst=dst,
            edge_type=graph.edge_type[by_dst],
            starts=starts,
            heads=dst[starts],
            segment=np.cumsum(first) - 1,
        )


class HeteroConvLayer(nn.Module):
    """One attention-based heterogeneous convolution layer."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_heads: int,
        dropout: float = 0.2,
        first_layer: bool = False,
        target_specific: bool = False,
        per_type_projections: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if out_dim % num_heads != 0:
            raise ValueError("out_dim must be divisible by num_heads")
        rng = rng or np.random.default_rng()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.first_layer = first_layer
        self.target_specific = target_specific
        self.per_type_projections = per_type_projections
        self.dropout_rate = F.check_dropout_rate(dropout)
        self._rng = rng

        # Q/K/V projections (eqs. 2–7), each mapping the layer input to
        # num_heads * head_dim. The paper's stated design principle is
        # that *shared weights among node types perform better* (Sec.
        # 3.2.1) — type information flows through the type embeddings
        # and the per-type attention matrices — so the projections are
        # shared by default; ``per_type_projections=True`` restores the
        # HGT-style type-indexed Q-Linear_{τ(v)} of eq. 2 for ablation.
        projection_types = NODE_TYPES if per_type_projections else ("shared",)
        self.q_linear = nn.ModuleDict(
            {t: nn.Linear(in_dim, out_dim, rng=rng) for t in projection_types}
        )
        self.k_linear = nn.ModuleDict(
            {t: nn.Linear(in_dim, out_dim, rng=rng) for t in projection_types}
        )
        self.v_linear = nn.ModuleDict(
            {t: nn.Linear(in_dim, out_dim, rng=rng) for t in projection_types}
        )

        # Per-node-type attention matrices W^att, uniform init per the
        # paper. Note on eq. 8: read literally as a sum of two scalar
        # projections, the target's term would be constant inside the
        # per-target softmax of eq. 9 and cancel — attention would
        # ignore the target. We therefore use the *mutual* (bilinear)
        # form of the HGT architecture the paper builds on:
        # α-head = (K W^att_src) · (Q W^att_dst) / sqrt(d_k).
        bound = 1.0 / np.sqrt(self.head_dim)
        # Identity + uniform noise: attention starts as the plain K·Q
        # dot-product (transformer-style) and per-type deviations are
        # learned on top, which converges far faster than a near-zero
        # bilinear form.
        eye = np.eye(self.head_dim)[None, None]
        self.att_src = nn.Parameter(
            eye
            + rng.uniform(
                -bound, bound,
                size=(len(NODE_TYPES), num_heads, self.head_dim, self.head_dim),
            )
        )
        self.att_dst = nn.Parameter(
            eye
            + rng.uniform(
                -bound, bound,
                size=(len(NODE_TYPES), num_heads, self.head_dim, self.head_dim),
            )
        )

        if first_layer:
            # Type embeddings live in input space and start at zero
            # (Sec. 3.2.2 initialisation (1)).
            self.node_type_emb = nn.Embedding(len(NODE_TYPES), in_dim, rng=rng, zero_init=True)
            self.edge_type_emb = nn.Embedding(len(EDGE_TYPES), in_dim, rng=rng, zero_init=True)

        # Output path. The xFraud design shares it across node types
        # (``target_specific=True`` restores HGT's per-target-type
        # A-Linear for the ablation of Sec. 3.2.1 — the paper reports
        # the shared variant performs better on transaction graphs).
        # Per Sec. 3.2(2) the aggregation feeds a ReLU that emits the
        # next layer's input; we found an HGT-style residual+LayerNorm
        # output slows convergence markedly at simulation scale.
        if target_specific:
            self.a_linear = nn.ModuleDict(
                {t: nn.Linear(out_dim, out_dim, rng=rng) for t in NODE_TYPES}
            )

    # ------------------------------------------------------------------
    def _per_type_project(
        self, x: Tensor, node_type: np.ndarray, linears: nn.ModuleDict
    ) -> Tensor:
        """Apply the type-specific linear of each node's type.

        Equivalent to indexing a per-type weight stack; implemented by
        computing each type's projection on its node slice and
        scattering back, so each row passes through exactly one linear.
        """
        if not self.per_type_projections:
            return linears["shared"](x)
        return self._apply_per_type(x, node_type, linears)

    def _apply_per_type(
        self, x: Tensor, node_type: np.ndarray, linears: nn.ModuleDict
    ) -> Tensor:
        """Route each row through its type's linear (always per-type).

        A type with no rows still passes its zero-row block through, so
        every type's parameters are on the tape — and get a gradient, if
        only zeros — whatever the graph holds. An optimiser step (weight
        decay, moment decay) then does not depend on which node types a
        batch's receptive field happens to contain.
        """
        num_nodes = x.shape[0]
        indices = [np.flatnonzero(node_type == type_id) for type_id in range(len(NODE_TYPES))]
        pieces = [
            linears[type_name](nn.gather(x, rows)) for type_name, rows in zip(NODE_TYPES, indices)
        ]
        return nn.scatter_rows(nn.concat(pieces, axis=0), np.concatenate(indices), num_nodes)

    # ------------------------------------------------------------------
    def forward(
        self,
        graph: HeteroGraph,
        h: Tensor,
        edge_mask: Optional[Tensor] = None,
        edge_rows: Optional[EdgeRows] = None,
    ) -> Tensor:
        """One round of heterogeneous message passing.

        Parameters
        ----------
        graph:
            The (sub)graph being convolved; supplies node/edge types
            and the edge list.
        h:
            ``(num_nodes, in_dim)`` input representations — raw
            transaction features at layer 1, ``H^{l-1}`` afterwards.
        edge_mask:
            The GNNExplainer hook: per-edge weights in [0, 1] that
            scale the normalised attention (in place of dropout), so a
            fully-masked edge contributes nothing.
        edge_rows:
            Set when ``graph`` is a
            :func:`~repro.graph.sampling.receptive_field` of a parent
            graph (:data:`~repro.models.field.EdgeRows`): attention
            dropout then gives each edge the mask the parent's forward
            would.
        """
        node_type = graph.node_type
        src, dst = graph.edge_src, graph.edge_dst
        num_nodes = graph.num_nodes

        if self.first_layer:
            # eq. 2/4/6 input: X + τ(v)^emb  (+ φ(e)^emb handled below).
            h = h + self.node_type_emb(node_type)

        query = self._per_type_project(h, node_type, self.q_linear)
        key = self._per_type_project(h, node_type, self.k_linear)
        value = self._per_type_project(h, node_type, self.v_linear)

        # Reshape to heads: (nodes, heads, head_dim).
        query = query.reshape(num_nodes, self.num_heads, self.head_dim)
        key = key.reshape(num_nodes, self.num_heads, self.head_dim)
        value = value.reshape(num_nodes, self.num_heads, self.head_dim)

        key_edges = nn.gather(key, src)
        value_edges = nn.gather(value, src)

        if self.first_layer:
            # Linearity lets the per-edge φ(e)^emb term of eqs. 4/6 be
            # added after projection: K(X+τ+φ) = K(X+τ) + K(φ) with the
            # bias counted once. The projection type is the edge's
            # source-node type.
            key_extra = self._edge_type_contribution(graph.edge_type, self.k_linear)
            value_extra = self._edge_type_contribution(graph.edge_type, self.v_linear)
            key_edges = key_edges + key_extra.reshape(
                graph.num_edges, self.num_heads, self.head_dim
            )
            value_edges = value_edges + value_extra.reshape(
                graph.num_edges, self.num_heads, self.head_dim
            )

        # eq. 8 (mutual/bilinear form): per-edge per-head logits.
        query_edges = nn.gather(query, dst)
        key_att = self._per_type_bilinear(key_edges, node_type[src], self.att_src)
        query_att = self._per_type_bilinear(query_edges, node_type[dst], self.att_dst)
        logits = (key_att * query_att).sum(axis=2)
        logits = logits * (1.0 / np.sqrt(self.head_dim))

        # eq. 9: softmax over each target's in-neighbourhood.
        attention = nn.segment_softmax(logits, dst, num_nodes)
        if edge_mask is None:
            attention = F.dropout(
                attention, self.dropout_rate, training=self.training, rng=self._rng, rows=edge_rows
            )
        else:
            attention = attention * edge_mask.reshape(graph.num_edges, 1)

        # eq. 10 + eq. 1 Aggregate: weight values, sum into targets.
        messages = value_edges * attention.reshape(graph.num_edges, self.num_heads, 1)
        aggregated = nn.segment_sum(messages, dst, num_nodes)
        aggregated = aggregated.reshape(num_nodes, self.out_dim)

        return self._output(graph, h, aggregated)

    def _output(self, graph: HeteroGraph, h: Tensor, aggregated: Tensor) -> Tensor:
        """ReLU on the aggregation; optionally per-type A-Linear."""
        if self.target_specific:
            aggregated = self._apply_per_type(
                aggregated, graph.node_type, self.a_linear
            )
        return aggregated.relu()


    def _per_type_bilinear(self, x: Tensor, types: np.ndarray, att: nn.Parameter) -> Tensor:
        """Apply the type-specific attention matrix: rows of ``x``
        (shape ``(n, heads, d)``) are multiplied by ``att[type]``
        (``(heads, d, d)``) according to each row's type. Types with no
        rows pass a zero-row block (see :meth:`_apply_per_type`)."""
        indices = [np.flatnonzero(types == type_id) for type_id in range(len(NODE_TYPES))]
        pieces = [
            (nn.gather(x, rows).transpose(1, 0, 2) @ att[type_id]).transpose(1, 0, 2)  # (h, m, d)
            for type_id, rows in enumerate(indices)
        ]
        return nn.scatter_rows(nn.concat(pieces, axis=0), np.concatenate(indices), x.shape[0])

    def _edge_type_contribution(
        self, edge_types: np.ndarray, linears: nn.ModuleDict
    ) -> Tensor:
        """Bias-free projection of φ(e)^emb per edge.

        Every edge type has a fixed source-node type, so the projection
        table has just ``len(EDGE_TYPES)`` rows: project the embedding
        table once (8 small matmuls) and gather per edge, instead of
        projecting a per-edge matrix.
        """
        rows: List[Tensor] = []
        for type_name in EDGE_TYPES:
            source_type = (
                type_name.split("->")[0] if self.per_type_projections else "shared"
            )
            type_id = EDGE_TYPES.index(type_name)
            embedding_row = self.edge_type_emb.weight[np.array([type_id])]
            rows.append(embedding_row @ linears[source_type].weight)
        table = nn.concat(rows, axis=0)
        return nn.gather(table, edge_types)

    # ------------------------------------------------------------------
    # Inference forward (plain ndarrays, no tape)
    # ------------------------------------------------------------------
    def _qkv_weights(self, key: str) -> Tuple[np.ndarray, np.ndarray]:
        """``[Q | K | V]`` weights and biases side by side, so the three
        projections are one matmul. Read from ``param.data`` on every
        call: optimisers and ``load_state_dict`` write parameters in
        place, so nothing derived from them may outlive the call."""
        linears = (self.q_linear[key], self.k_linear[key], self.v_linear[key])
        return (
            np.concatenate([linear.weight.data for linear in linears], axis=1),
            np.concatenate([linear.bias.data for linear in linears]),
        )

    def _apply_blocks(
        self, layout: InferenceLayout, x: np.ndarray, weights: dict
    ) -> np.ndarray:
        """``x W + b`` with each type block through its own ``(W, b)``
        (or all rows through ``weights["shared"]``)."""
        if "shared" in weights:
            weight, bias = weights["shared"]
            return x @ weight + bias
        out = np.empty((len(x), weights[NODE_TYPES[0]][0].shape[1]))
        for type_id, start, stop in layout.type_blocks:
            weight, bias = weights[NODE_TYPES[type_id]]
            np.matmul(x[start:stop], weight, out=out[start:stop])
            out[start:stop] += bias
        return out

    def forward_inference(self, layout: InferenceLayout, h: np.ndarray) -> np.ndarray:
        """:meth:`forward` in eval mode on raw arrays.

        ``h`` is ``(num_nodes, in_dim)`` in ``layout`` order; so is the
        result. Differences from the tape's order of operations, all
        exact up to float rounding:

        * the attention bilinears act on nodes, not edges:
          ``(K A_src[τ(s)])[s] · (Q A_dst[τ(t)])[t]`` — ``N`` rows
          through the matrices instead of ``2E``, one matmul per type
          block for both sides;
        * the first layer's ``φ(e)^emb`` term is a table with a row per
          (source node type, edge type), pushed through the same
          bilinear and gathered per edge;
        * segment max / sum run as ``reduceat`` over ``layout``'s
          contiguous in-neighbourhoods.
        """
        heads, dim, out_dim = self.num_heads, self.head_dim, self.out_dim
        src, segment, starts = layout.src, layout.segment, layout.starts
        num_nodes, num_edges = len(h), len(src)

        if self.first_layer:
            h = h + self.node_type_emb.weight.data[layout.node_type]
        keys = NODE_TYPES if self.per_type_projections else ("shared",)
        weights = {key: self._qkv_weights(key) for key in keys}
        qkv = self._apply_blocks(layout, h, weights)
        value = qkv[:, 2 * out_dim :].reshape(num_nodes, heads, dim)

        # eq. 8 per node: [Q·A_dst[τ(v)] | K·A_src[τ(v)]], heads of
        # both sides batched into one matmul per type block.
        query_key = qkv[:, : 2 * out_dim].reshape(num_nodes, 2 * heads, dim)
        att = np.concatenate([self.att_dst.data, self.att_src.data], axis=1)
        query_key_att = np.empty_like(query_key)
        for type_id, start, stop in layout.type_blocks:
            query_key_att[start:stop] = np.matmul(
                query_key[start:stop].transpose(1, 0, 2), att[type_id]
            ).transpose(1, 0, 2)
        key_att = query_key_att[:, heads:][src]
        value_edges = value[src]

        if self.first_layer:
            # K(φ) and V(φ) without bias, through the projection of the
            # edge type's source node type (as _edge_type_contribution).
            edge_emb = self.edge_type_emb.weight.data
            extra = np.empty((len(EDGE_TYPES), 2 * out_dim))
            for key in keys:
                rows = _EDGE_TYPES_BY_SOURCE[key]
                extra[rows] = edge_emb[rows] @ weights[key][0][:, out_dim:]
            extra = extra.reshape(len(EDGE_TYPES), 2 * heads, dim)
            # (source node type, edge type, head, dim): K(φ)·A_src[τ(s)].
            key_extra_att = np.matmul(
                extra[None, :, :heads, None, :], self.att_src.data[:, None]
            )[:, :, :, 0, :]
            key_att += key_extra_att[layout.node_type[src], layout.edge_type]
            value_edges += extra[layout.edge_type, heads:]

        logits = np.einsum("ehd,ehd->eh", key_att, query_key_att[:, :heads][layout.dst])
        logits *= dim**-0.5

        # eq. 9: softmax over each contiguous in-neighbourhood.
        logits -= np.maximum.reduceat(logits, starts, axis=0)[segment]
        attention = np.exp(logits, out=logits)
        attention /= np.add.reduceat(attention, starts, axis=0)[segment] + 1e-16

        # eq. 10 + eq. 1 Aggregate; targets without in-edges stay zero.
        value_edges *= attention[:, :, None]
        aggregated = np.zeros((num_nodes, out_dim))
        aggregated[layout.heads] = np.add.reduceat(
            value_edges.reshape(num_edges, out_dim), starts, axis=0
        )
        if self.target_specific:
            aggregated = self._apply_blocks(
                layout,
                aggregated,
                {
                    name: (linear.weight.data, linear.bias.data)
                    for name, linear in self.a_linear.items()
                },
            )
        return np.maximum(aggregated, 0.0, out=aggregated)

