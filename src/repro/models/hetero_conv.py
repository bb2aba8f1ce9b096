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

The layer is **one autograd node over one kernel**. The kernel is the
convolution on plain arrays in :class:`InferenceLayout` order, with the
algebra reordered for speed (bilinears on nodes instead of edges,
segment reductions over contiguous in-neighbourhoods); ``predict_proba``
calls it with nothing saved. ``forward`` calls the same kernel, keeps
the activations and puts a single ``Tensor`` on the tape whose backward
is the kernel's hand-derived vector-Jacobian product — a few dozen numpy
calls per layer and step instead of one tape node per op and per
node/edge type. A layer computes only what the next one reads: nodes
are laid out by distance to the forward's targets, so the rows a layer
reads and outputs and the edges it walks are prefixes
(:meth:`InferenceLayout.layer`).

**Layer 1 runs on tables.** Only transactions carry features and every
edge joins a transaction to an entity, so each first-layer edge has one
endpoint whose row is a constant of the weights (an entity's input is
its type embedding alone). Its attention logit is then a linear function
of its transaction endpoint's features, one per (edge type, head): one
matmul of the transaction rows gives every logit the layer can take and
every transaction's value row, and an edge is two lookups. What the
kernel derives from the weights alone — those maps among them — is a
:class:`LayerPlan`, built once per version of the layer's parameters
(:meth:`HeteroConvLayer.plan`). The op-by-op ``Tensor`` version of the
layer, on the whole graph, lives in :mod:`repro.check.reference`, as
the spec ``repro check`` and the tests hold kernel and backward to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .. import nn
from ..graph.hetero import EDGE_ENDPOINTS, EDGE_TYPES, NODE_TYPES, HeteroGraph
from ..nn import Tensor
from ..nn import functional as F
from ..nn.segment import Selector
from .field import EdgeRows

#: Edge-type ids grouped by the projection that serves their source
#: node type — per type name, and all of them under ``"shared"``.
_EDGE_TYPES_BY_SOURCE = {
    name: np.flatnonzero(EDGE_ENDPOINTS[:, 0] == type_id) for type_id, name in enumerate(NODE_TYPES)
}
_EDGE_TYPES_BY_SOURCE["shared"] = np.arange(len(EDGE_TYPES))

#: Node-type ids grouped the same way: the types each projection serves.
_NODE_TYPES_BY_PROJECTION = {name: np.array([i]) for i, name in enumerate(NODE_TYPES)}
_NODE_TYPES_BY_PROJECTION["shared"] = np.arange(len(NODE_TYPES))

#: The one node type with input features; every other type is an entity.
_TXN = NODE_TYPES.index("txn")
_ENTITIES = np.flatnonzero(np.arange(len(NODE_TYPES)) != _TXN)
#: Per entity type, its one edge type into transactions and out of them.
_INTO_TXN = np.array([np.flatnonzero(EDGE_ENDPOINTS[:, 0] == t)[0] for t in _ENTITIES])
_OUT_OF_TXN = np.array([np.flatnonzero(EDGE_ENDPOINTS[:, 1] == t)[0] for t in _ENTITIES])
#: The ``[query | key]`` ends of each edge type (its destination, its
#: source): their node types, and the same as ``(2, types, edge types)``
#: 0/1 matrices.
_END_TYPES = EDGE_ENDPOINTS[:, ::-1]
_END_ONEHOT = (_END_TYPES.T[:, None, :] == np.arange(len(NODE_TYPES))[None, :, None]).astype(float)
#: ``(2, entity types)``: the edge types where a transaction is the
#: query end (into transactions), then the key end (out of them), and
#: ``(2, 1)`` the index of the other end of those.
_BY_TXN_END = np.stack([_INTO_TXN, _OUT_OF_TXN])
_OTHER_END = np.array([[1], [0]])

#: Below this many edges a layer's :meth:`InferenceLayout.segment_sum`
#: reduces with ``np.add.reduceat``; from it on, through a
#: :class:`Selector` (9 µs to build). Scoring a stacked batch of 32 walks
#: ~830 edges in its first layer (two sums: 122 µs by ``reduceat``, 27 by
#: the selector, built included) and ~130 in its last (28 vs 11): the two
#: now meet near 64 edges (256 with a scipy matrix, 47 µs to build), but
#: the paths round differently, so moving the bound moves scores' bits.
_REDUCEAT_MAX_EDGES = 256


@dataclass
class InferenceLayout:
    """A graph's structure in the order the convolution kernel wants it.

    Built once per forward. Nodes are ordered by (in-hop distance to
    the targets, node type) and edges stably by their target's position,
    so what the layer with ``k`` layers after it computes is a **prefix**
    of every array (:meth:`layer`): the rows it outputs (distance <=
    ``k``), the edges it walks (those entering them) and the rows it
    reads (distance <= ``k + 1``); nodes no target sees within ``depth``
    hops sort last and are never touched. Each (distance, node type) is
    one contiguous block (per-type weights apply to slices, not gathered
    rows) and every in-neighbourhood a contiguous run reducible from its
    first edge. Without targets every node is at distance 0 and every
    prefix the whole. Each per-edge sum's :class:`Selector` is built on
    first use: what only a backward needs (:meth:`sum_by_source`,
    :meth:`sum_by_value_row`, :meth:`sum_by_logit_cell`) scoring never pays.
    """

    #: ``rank[v]`` is the position of the graph's node ``v``; ``nodes``
    #: is the inverse, the graph's node at each position.
    rank: np.ndarray
    nodes: np.ndarray
    #: ``(N,)`` node-type id per position, ascending within a distance.
    node_type: np.ndarray
    #: ``(type_id, start, stop)`` per (distance, node type) present.
    type_blocks: List[Tuple[int, int, int]]
    #: ``(E,)`` the graph's edge id per edge here: per-edge inputs in
    #: the graph's order (``edge_mask``, dropout rows) are gathered by
    #: it. :meth:`layer` leaves it whole: ``order[:len(src)]`` are its.
    order: np.ndarray
    #: ``(E,)`` edge endpoints (as positions) and types, sorted by ``dst``.
    src: np.ndarray
    dst: np.ndarray
    edge_type: np.ndarray
    #: ``(S,)`` first edge of each non-empty in-neighbourhood, its
    #: target position, and ``(E,)`` each edge's index into those.
    starts: np.ndarray
    heads: np.ndarray
    segment: np.ndarray
    #: How many nodes lie within ``d = 0 .. depth`` in-hops of a target,
    #: how many edges enter them; the rows a layer here outputs.
    reach: List[int]
    edge_reach: List[int]
    num_out: int

    @classmethod
    def of(
        cls, graph: HeteroGraph, targets: Optional[np.ndarray] = None, depth: int = 0
    ) -> "InferenceLayout":
        """``graph`` laid out for ``depth`` layers read at ``targets`` (``None``: every node)."""
        distance = np.full(graph.num_nodes, depth + 1)
        distance[slice(None) if targets is None else targets] = 0
        for hop in range(1, depth + 1):
            sources = graph.edge_src[distance[graph.edge_dst] == hop - 1]
            distance[sources] = np.minimum(distance[sources], hop)
        key = distance * len(NODE_TYPES) + graph.node_type
        nodes = np.argsort(key, kind="stable")
        rank = np.empty_like(nodes)
        rank[nodes] = np.arange(len(nodes))
        counts = np.bincount(key, minlength=(depth + 2) * len(NODE_TYPES))
        bounds = [0, *np.cumsum(counts).tolist()]
        reach = bounds[len(NODE_TYPES) :: len(NODE_TYPES)][: depth + 1]
        type_blocks = [
            (index % len(NODE_TYPES), start, stop)
            for index, (start, stop) in enumerate(zip(bounds, bounds[1:]))
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
            nodes=nodes,
            node_type=graph.node_type[nodes],
            type_blocks=type_blocks,
            order=by_dst,
            src=rank[graph.edge_src[by_dst]],
            dst=dst,
            edge_type=graph.edge_type[by_dst],
            starts=starts,
            heads=dst[starts],
            segment=np.cumsum(first) - 1,
            reach=reach,
            edge_reach=np.searchsorted(dst, reach).tolist(),
            num_out=reach[-1],
        )

    def layer(self, hops_left: int) -> "InferenceLayout":
        """This layout cut to what the layer with ``hops_left`` layers
        after it computes — slices, nothing gathered or re-sorted."""
        num_out, num_in = self.reach[hops_left : hops_left + 2]
        if num_out == len(self.node_type):  # read at every node: nothing to cut
            return self
        num_edges = self.edge_reach[hops_left]
        num_segments = int(self.segment[num_edges - 1]) + 1 if num_edges else 0
        return InferenceLayout(
            self.rank,
            self.nodes,
            self.node_type[:num_in],
            [block for block in self.type_blocks if block[1] < num_in],
            self.order,
            self.src[:num_edges],
            self.dst[:num_edges],
            self.edge_type[:num_edges],
            self.starts[:num_segments],
            self.heads[:num_segments],
            self.segment[:num_edges],
            self.reach,
            self.edge_reach,
            num_out,
        )

    @cached_property
    def table_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What a first layer on this prefix addresses: ``(txn,
        value_row, logit_row)`` — the positions of the transaction rows
        it reads, and per edge two rows of its table (the transactions
        in that order, then one row per node type): the row its
        source's value is in (an entity source's is its type's), and
        its transaction endpoint's, where its logit is."""
        is_txn = self.node_type == _TXN
        txn = np.flatnonzero(is_txn)
        slot = np.where(is_txn, np.cumsum(is_txn) - 1, len(txn) + self.node_type)
        value_row = slot[self.src]
        logit_row = np.where(is_txn[self.src], value_row, slot[self.dst])
        return txn, value_row, logit_row

    @cached_property
    def _by_target(self) -> Selector:
        """``(S, E)``: row ``s`` selects in-neighbourhood ``s``."""
        return Selector.by_segment(self.starts, len(self.src))

    @cached_property
    def _by_source(self) -> Selector:
        """``(N, E)``: column ``e`` puts edge ``e`` on its source."""
        return Selector.scatter(self.src, len(self.node_type))

    @cached_property
    def _by_value_row(self) -> Selector:
        """``(txn + types, E)``: column ``e`` puts edge ``e`` on its value row."""
        txn, value_row, _ = self.table_rows
        return Selector.scatter(value_row, len(txn) + len(NODE_TYPES))

    @cached_property
    def _by_logit_cell(self) -> Selector:
        """``(txn x edge types, E)``: column ``e`` puts edge ``e`` on its
        (transaction endpoint, edge type)."""
        txn, _, logit_row = self.table_rows
        cell = logit_row * len(EDGE_TYPES) + self.edge_type
        return Selector.scatter(cell, len(txn) * len(EDGE_TYPES))

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """``(E, k)`` per-edge rows summed over each non-empty
        in-neighbourhood: ``(S, k)``, row ``i`` belonging to node
        ``heads[i]``. How is this layout's choice, from its edge count
        (see :data:`_REDUCEAT_MAX_EDGES`)."""
        if len(self.src) < _REDUCEAT_MAX_EDGES:
            return np.add.reduceat(values, self.starts, axis=0)
        return self._by_target @ values

    def sum_by_source(self, values: np.ndarray) -> np.ndarray:
        """``(E, k)`` per-edge rows summed into their source node: ``(N, k)``."""
        return self._by_source @ values

    def sum_by_value_row(self, values: np.ndarray) -> np.ndarray:
        """``(E, k)`` per-edge rows summed into their value row: ``(txn + types, k)``."""
        return self._by_value_row @ values

    def sum_by_logit_cell(self, values: np.ndarray) -> np.ndarray:
        """``(E, k)`` per-edge rows summed per (transaction endpoint, edge
        type): ``(txn, edge types * k)``."""
        cells = self._by_logit_cell @ values
        return cells.reshape(len(self.table_rows[0]), len(EDGE_TYPES) * values.shape[1])


def _softmax_vjp(layout: InferenceLayout, attention: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Backward of the per-neighbourhood softmax, ``a·(g − Σ_seg g·a)``."""
    return attention * (grad - layout.segment_sum(grad * attention)[layout.segment])


def _apply_blocks(layout: InferenceLayout, x: np.ndarray, weights: dict) -> np.ndarray:
    """``x W + b`` with each type block through its own ``(W, b)``
    (or all through ``weights["shared"]``); ``x``: a prefix of the rows."""
    if "shared" in weights:
        weight, bias = weights["shared"]
        return x @ weight + bias
    out = np.empty((len(x), weights[NODE_TYPES[0]][0].shape[1]))
    for type_id, start, stop in layout.type_blocks:  # past x's rows: empty slices
        weight, bias = weights[NODE_TYPES[type_id]]
        np.matmul(x[start:stop], weight, out=out[start:stop])
        out[start:stop] += bias
    return out


def _apply_blocks_vjp(
    layout: InferenceLayout,
    x: np.ndarray,
    weights: dict,
    grad: np.ndarray,
    need_d_x: bool = True,
    need_weights: bool = True,
) -> Tuple[Optional[np.ndarray], Dict[str, Tuple[np.ndarray, np.ndarray]]]:
    """Backward of :func:`_apply_blocks`: ``(d_x, {key: (d_W, d_b)})``,
    each half only if needed (an empty dict without the weights). A type
    with no rows gets zeros, not nothing: an optimiser step (weight
    decay, moment decay) must not depend on which node types a batch's
    receptive field happens to contain."""
    if "shared" in weights:
        d_x = grad @ weights["shared"][0].T if need_d_x else None
        return d_x, {"shared": (x.T @ grad, grad.sum(axis=0))} if need_weights else {}
    d_x = np.empty_like(x) if need_d_x else None
    d_weights = {
        key: (np.zeros_like(weight), np.zeros_like(bias))
        for key, (weight, bias) in weights.items()
        if need_weights
    }
    for type_id, start, stop in layout.type_blocks:  # past x's rows: empty slices
        key = NODE_TYPES[type_id]
        if need_d_x:
            np.matmul(grad[start:stop], weights[key][0].T, out=d_x[start:stop])
        if need_weights:
            d_weight, d_bias = d_weights[key]  # += : a type is one block per distance
            d_weight += x[start:stop].T @ grad[start:stop]
            d_bias += grad[start:stop].sum(axis=0)
    return d_x, d_weights


@dataclass(frozen=True)
class LayerPlan:
    """What a layer's kernel derives from its weights alone, built once
    per parameter version (:meth:`HeteroConvLayer.plan`) and read by
    every forward and pullback until one of them is written.

    ``key`` is what it was built at: each parameter with its version.
    """

    key: List[Tuple[nn.Parameter, int]]
    #: ``(W, b)`` per projection (a type name, or ``"shared"``), the Q, K
    #: and V maps side by side: ``[Q | K | V]``, one matmul for three.
    weights: Dict[str, Tuple[np.ndarray, np.ndarray]]
    #: ``(types, 2·heads, d, d)``: ``[A_dst | A_src]`` per node type.
    att: np.ndarray
    #: The per-target-type A-Linear's ``(W, b)`` (target-specific only).
    a_weights: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None
    # First layer only (:func:`_first_layer_tables`). ``table_weight``,
    # ``(F, edge types·heads + out)``, and ``table_bias``: a transaction
    # row's every logit, per (edge type, head), then its value row;
    # ``type_table``: each entity type's row of the same table (no
    # logits; its value on its one edge type, φ(e) term included);
    # ``dst_values``, ``(types, out)``: the φ(e) value term of the edges
    # into each entity type. The pullback's: ``txn_att``, ``(F, 2, heads,
    # d)``, ``[W_q·A_dst | W_k·A_src]`` of the transaction projection;
    # ``ends_in`` / ``ends_att``, ``(edge types, 2, heads, d)``: each edge
    # type's constant ``[query of its destination | key of its source]``,
    # before and after ``[A_dst | A_src]``.
    table_weight: Optional[np.ndarray] = None
    table_bias: Optional[np.ndarray] = None
    type_table: Optional[np.ndarray] = None
    dst_values: Optional[np.ndarray] = None
    txn_att: Optional[np.ndarray] = None
    ends_in: Optional[np.ndarray] = None
    ends_att: Optional[np.ndarray] = None


def _projection_key(weights: dict, type_id: int) -> str:
    """Which of ``weights`` projects node type ``type_id``."""
    return NODE_TYPES[type_id] if NODE_TYPES[type_id] in weights else "shared"


def _end_matrices(att: np.ndarray) -> np.ndarray:
    """``(edge types, 2, heads, d, d)``: ``[A_dst of its destination |
    A_src of its source]`` per edge type."""
    per_side = att.reshape(len(NODE_TYPES), 2, -1, *att.shape[-2:])
    return per_side[_END_TYPES, np.arange(2)]


def _first_layer_tables(
    weights: dict, att: np.ndarray, node_emb: np.ndarray, edge_emb: np.ndarray
) -> Dict[str, np.ndarray]:
    """Layer 1's tables (the first-layer fields of :class:`LayerPlan`).

    Every edge type joins a transaction to an entity. The entity end's
    row, ``τ^emb·W + b``, is a constant, and so is ``φ(e)^emb·W`` (K and
    V, through the projection of the edge type's source), so each edge
    type's key-side and query-side rows are a constant plus, at the
    transaction end, ``h·W``. Its logit per head is then
    ``(h·W·A_txn + c_txn)·c_other / sqrt(d)``: a column of
    ``table_weight`` and an entry of ``table_bias`` for each (edge type,
    head), beside the transaction's value map."""
    num_types, relations = len(NODE_TYPES), len(EDGE_TYPES)
    heads, dim = att.shape[1] // 2, att.shape[-1]
    out_dim = heads * dim
    type_rows = np.empty((num_types, 3 * out_dim))
    extra = np.empty((relations, 2 * out_dim))
    for name, (weight, bias) in weights.items():
        types, rows = _NODE_TYPES_BY_PROJECTION[name], _EDGE_TYPES_BY_SOURCE[name]
        type_rows[types] = node_emb[types] @ weight + bias
        extra[rows] = edge_emb[rows] @ weight[:, out_dim:]
    query_end = type_rows[_END_TYPES[:, 0], :out_dim]
    key_end = type_rows[_END_TYPES[:, 1], out_dim : 2 * out_dim] + extra[:, :out_dim]
    ends_in = np.stack([query_end, key_end], axis=1).reshape(relations, 2, heads, dim)
    ends_att = np.matmul(ends_in[..., None, :], _end_matrices(att))[..., 0, :]

    txn_weight = weights[_projection_key(weights, _TXN)][0]
    in_dim = len(txn_weight)
    txn_att = np.matmul(
        txn_weight[:, : 2 * out_dim].reshape(in_dim, 2 * heads, dim).transpose(1, 0, 2), att[_TXN]
    ).transpose(1, 0, 2).reshape(in_dim, 2, heads, dim)
    other_end = ends_att[_BY_TXN_END, _OTHER_END]  # (2, entity types, heads, d)
    logit_weight = np.empty((in_dim, relations, heads))
    logit_weight[:, _BY_TXN_END] = np.matmul(
        txn_att.transpose(1, 2, 0, 3), other_end.transpose(0, 2, 3, 1)
    ).transpose(2, 0, 3, 1)
    logit_bias = np.einsum("rhd,rhd->rh", ends_att[:, 0], ends_att[:, 1])
    type_table = np.zeros((num_types, relations * heads + out_dim))
    type_table[_ENTITIES, relations * heads :] = (
        type_rows[_ENTITIES, 2 * out_dim :] + extra[_INTO_TXN, out_dim:]
    )
    dst_values = np.zeros((num_types, out_dim))
    dst_values[_ENTITIES] = extra[_OUT_OF_TXN, out_dim:]
    scale = dim**-0.5
    return dict(
        table_weight=np.concatenate(
            [logit_weight.reshape(in_dim, -1) * scale, txn_weight[:, 2 * out_dim :]], axis=1
        ),
        table_bias=np.concatenate([logit_bias.reshape(-1) * scale, type_rows[_TXN, 2 * out_dim :]]),
        type_table=type_table,
        dst_values=dst_values,
        txn_att=txn_att,
        ends_in=ends_in,
        ends_att=ends_att,
    )


def _first_layer_tables_vjp(
    plan: LayerPlan,
    node_emb: np.ndarray,
    edge_emb: np.ndarray,
    d_table_weight: np.ndarray,
    d_table_bias: np.ndarray,
    d_type_values: np.ndarray,
    d_dst_values: np.ndarray,
) -> Tuple[Dict[str, Tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`_first_layer_tables` from the gradients of
    its four forward tables (``d_type_values``: of ``type_table``'s
    value columns): ``({key: (d_W, d_b)}, d_att, d τ^emb, d φ^emb)``."""
    weights, att, ends_in, ends_att = plan.weights, plan.att, plan.ends_in, plan.ends_att
    relations, _, heads, dim = ends_in.shape
    num_types, out_dim, in_dim = len(NODE_TYPES), heads * dim, len(d_table_weight)
    logits = relations * heads
    d_logit_weight = d_table_weight[:, :logits].reshape(in_dim, relations, heads) * dim**-0.5
    d_logit_bias = (d_table_bias[:logits].reshape(relations, heads) * dim**-0.5)[..., None]

    # logit_bias = query end · key end; logit_weight = transaction map · the other end.
    d_ends_att = np.stack([d_logit_bias * ends_att[:, 1], d_logit_bias * ends_att[:, 0]], axis=1)
    by_end = d_logit_weight[:, _BY_TXN_END].transpose(1, 3, 0, 2)  # (2, heads, F, entity types)
    other_end = ends_att[_BY_TXN_END, _OTHER_END].transpose(0, 2, 1, 3)
    d_txn_att = np.matmul(by_end, other_end).reshape(2 * heads, in_dim, dim)
    d_ends_att[_BY_TXN_END, _OTHER_END] += np.matmul(
        by_end.swapaxes(-1, -2), plan.txn_att.transpose(1, 2, 0, 3)
    ).transpose(0, 2, 1, 3)

    # The ends through [A_dst | A_src] (each end type's share of d_A in
    # one product: the ends' rows against their gradients, spread over
    # the end's node type); the transaction map through its own.
    d_ends_in = np.matmul(d_ends_att[..., None, :], _end_matrices(att).swapaxes(-1, -2))
    spread = (
        _END_ONEHOT.transpose(0, 2, 1)[:, None, :, :, None]
        * d_ends_att.transpose(1, 2, 0, 3)[:, :, :, None]
    ).reshape(2, heads, relations, num_types * dim)
    d_att = np.matmul(ends_in.transpose(1, 2, 3, 0), spread).reshape(2, heads, dim, num_types, dim)
    d_att = d_att.transpose(3, 0, 1, 2, 4).reshape(att.shape)
    txn_key = _projection_key(weights, _TXN)
    w_qk = weights[txn_key][0][:, : 2 * out_dim].reshape(in_dim, 2 * heads, dim)
    d_att[_TXN] += np.matmul(w_qk.transpose(1, 2, 0), d_txn_att)
    d_w_qk = np.matmul(d_txn_att, att[_TXN].swapaxes(-1, -2))

    # Back to each type's row τ^emb·W + b and each edge type's φ^emb·W.
    d_ends_in = d_ends_in.reshape(relations, 2, out_dim)
    d_type_rows = np.empty((num_types, 3 * out_dim))
    d_type_rows[:, :out_dim] = _END_ONEHOT[0] @ d_ends_in[:, 0]
    d_type_rows[:, out_dim : 2 * out_dim] = _END_ONEHOT[1] @ d_ends_in[:, 1]
    d_type_rows[_ENTITIES, 2 * out_dim :] = d_type_values[_ENTITIES]
    d_type_rows[_TXN, 2 * out_dim :] = d_table_bias[logits:]
    d_extra = np.empty((relations, 2 * out_dim))
    d_extra[:, :out_dim] = d_ends_in[:, 1]
    d_extra[_INTO_TXN, out_dim:] = d_type_values[_ENTITIES]
    d_extra[_OUT_OF_TXN, out_dim:] = d_dst_values[_ENTITIES]

    d_weights = {}
    d_node_emb, d_edge_emb = np.empty_like(node_emb), np.empty_like(edge_emb)
    for name, (weight, _) in weights.items():
        types, rows = _NODE_TYPES_BY_PROJECTION[name], _EDGE_TYPES_BY_SOURCE[name]
        d_weight = node_emb[types].T @ d_type_rows[types]
        d_weight[:, out_dim:] += edge_emb[rows].T @ d_extra[rows]
        d_node_emb[types] = d_type_rows[types] @ weight.T
        d_edge_emb[rows] = d_extra[rows] @ weight[:, out_dim:].T
        d_weights[name] = (d_weight, d_type_rows[types].sum(axis=0))
    d_weight = d_weights[txn_key][0]
    d_weight[:, : 2 * out_dim].reshape(in_dim, 2 * heads, dim)[...] += d_w_qk.transpose(1, 0, 2)
    d_weight[:, 2 * out_dim :] += d_table_weight[:, logits:]
    return d_weights, d_att, d_node_emb, d_edge_emb


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
        self._plan: Optional[LayerPlan] = None  # see plan()
        self._plan_writes: Optional[int] = None

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
    def reads(self, layout: InferenceLayout) -> np.ndarray:
        """The positions in ``layout`` of the rows of ``h`` this layer
        reads: the transaction rows at the first layer, else every row
        of its prefix."""
        if self.first_layer:
            return layout.table_rows[0]
        return np.arange(len(layout.node_type))

    def forward(
        self,
        layout: Union[InferenceLayout, HeteroGraph],
        h: Tensor,
        edge_mask: Optional[Tensor] = None,
        edge_rows: Optional[EdgeRows] = None,
    ) -> Tensor:
        """One round of heterogeneous message passing, as one tape node.

        Parameters
        ----------
        layout:
            The :class:`InferenceLayout` of the (sub)graph being
            convolved, built once by the caller for all its layers. A
            layer called on its own may pass the graph itself: it is
            laid out here, and ``h`` and the result are then rows in the
            graph's node order, every node's.
        h:
            The input rows :meth:`reads` of ``layout``, in its order —
            raw features of the transactions at layer 1, ``H^{l-1}``
            afterwards; the result is the first ``layout.num_out`` rows,
            those the layer outputs.
        edge_mask:
            The GNNExplainer hook: per-edge weights in [0, 1], in the
            graph's edge order, that scale the normalised attention (in
            place of dropout), so a fully-masked edge contributes
            nothing. Gradients flow to it (exactly 0 on an edge this
            layer does not walk), to ``h`` and to every parameter of
            the layer (zeros for a node type the graph does not hold).
        edge_rows:
            Set when the graph is a
            :func:`~repro.graph.sampling.receptive_field` of a parent
            graph (:data:`~repro.models.field.EdgeRows`): attention
            dropout then gives each edge the mask the parent's forward
            would — the draw is ``F.dropout(..., rows=edge_rows)``'s,
            one ``random((extent, heads))`` per training forward.
        """
        if isinstance(layout, HeteroGraph):
            layout = InferenceLayout.of(layout)
            h = nn.gather(h, layout.nodes[self.reads(layout)])
            return nn.gather(self.forward(layout, h, edge_mask, edge_rows), layout.rank)

        order = layout.order[: len(layout.src)]  # the edges this layer walks
        if edge_mask is not None:
            scale = edge_mask.data.reshape(-1)[order][:, None]
        elif self.training and self.dropout_rate > 0.0:
            # The mask F.dropout gives the attention rows in the graph's
            # edge order (and, with ``edge_rows``, in the parent's): one
            # draw for all of them, this layer's gathered in layout order.
            extent, rows = len(layout.order), order
            if edge_rows is not None:
                extent, rows = edge_rows[0], edge_rows[1][order]
            ones = Tensor(np.ones((len(rows), self.num_heads)))
            scale = F.dropout(
                ones, self.dropout_rate, training=True, rng=self._rng, rows=(extent, rows)
            ).data
        else:
            scale = None
        return self._hetero_conv(layout, h, edge_mask, scale)

    def _hetero_conv(
        self,
        layout: InferenceLayout,
        h: Tensor,
        edge_mask: Optional[Tensor],
        scale: Optional[np.ndarray],
    ) -> Tensor:
        """The tape node: :meth:`kernel` forward, its pullback backward,
        parents ``h``, every parameter and ``edge_mask``. (The method's
        name is the node's row in ``Profiler.records()``.)"""
        params = dict(self.named_parameters())
        parents = [h, *params.values()] + ([] if edge_mask is None else [edge_mask])
        recording = nn.is_grad_enabled() and any(parent.requires_grad for parent in parents)
        out, pullback = self.kernel(layout, h.data, scale, save=recording)

        def backward(grad: np.ndarray) -> None:
            need_params = any(param.requires_grad for param in params.values())
            d_h, d_params, d_scale = pullback(grad, h.requires_grad, need_params)
            if h.requires_grad:
                h._accumulate(d_h)
            for name, d_param in d_params.items():
                if params[name].requires_grad:
                    params[name]._accumulate(d_param)
            if edge_mask is not None and edge_mask.requires_grad:
                d_mask = np.zeros(len(layout.order))  # an edge not walked: exactly 0
                d_mask[layout.order[: len(layout.src)]] = d_scale.sum(axis=1)
                edge_mask._accumulate(d_mask.reshape(edge_mask.shape))

        return Tensor._make(out, parents, backward)

    # ------------------------------------------------------------------
    def plan(self) -> LayerPlan:
        """The :class:`LayerPlan` of this layer's parameters as they are:
        built on the first call after any of them was written (their
        versions moved), the same object on every call until then. Keyed
        on each parameter itself and its version, so a parameter swapped
        for another counts as a write too. The memo is this layer's own.
        While :func:`nn.parameter_writes` has not moved since the memo
        was last checked, no parameter can have: the check is O(1)."""
        writes = nn.parameter_writes()
        if self._plan is None or self._plan_writes != writes:
            key = [(param, param.version) for param in self.parameters()]
            if self._plan is None or self._plan.key != key:
                self._plan = self._build_plan(key)
            self._plan_writes = writes
        return self._plan

    def _build_plan(self, key: List[Tuple[nn.Parameter, int]]) -> LayerPlan:
        """Every weight-only table of the kernel, from ``param.data``."""
        weights = {}
        for name in self.q_linear.keys():
            linears = (self.q_linear[name], self.k_linear[name], self.v_linear[name])
            weights[name] = (
                np.concatenate([linear.weight.data for linear in linears], axis=1),
                np.concatenate([linear.bias.data for linear in linears]),
            )
        att = np.concatenate([self.att_dst.data, self.att_src.data], axis=1)
        a_weights = None
        if self.target_specific:
            a_weights = {
                name: (linear.weight.data, linear.bias.data) for name, linear in self.a_linear.items()
            }
        if not self.first_layer:
            return LayerPlan(key, weights, att, a_weights)
        tables = _first_layer_tables(
            weights, att, self.node_type_emb.weight.data, self.edge_type_emb.weight.data
        )
        return LayerPlan(key, weights, att, a_weights, **tables)

    def kernel(
        self,
        layout: InferenceLayout,
        h: np.ndarray,
        scale: Optional[np.ndarray] = None,
        save: bool = False,
    ) -> Tuple[np.ndarray, Optional[Callable]]:
        """The convolution on raw arrays: ``(out, pullback)``.

        ``h`` is the rows of ``layout`` this layer :meth:`reads`, in its
        order; ``out`` the first ``layout.num_out`` rows. ``scale``
        multiplies the normalised attention — ``(num_edges, heads)`` or
        ``(num_edges, 1)``, in ``layout``'s edge order. Everything
        derived from the weights alone comes from :meth:`plan`. The
        algebra is eqs. 2–10 reordered, all exact up to float rounding:

        * at the first layer every edge joins a transaction to an entity
          whose row is a constant, so its logit is one entry of a table
          over (transaction, edge type) — ``h·table_weight`` for the
          transactions read, one matmul that also gives their value rows
          — and its value a row of that table (an entity source's: its
          type's row). A transaction source's ``φ(e)`` value term is
          the same for every edge into an entity type: it is added once
          per destination, weighted by the destination's attention sum;
        * at deeper layers the attention bilinears act on nodes, not
          edges: ``(K A_src[τ(s)])[s] · (Q A_dst[τ(t)])[t]`` — ``N``
          rows through the matrices instead of ``2E``, one matmul per
          type block for both sides;
        * segment max / sum run over ``layout``'s contiguous
          in-neighbourhoods.

        With ``save`` the activations are kept and ``pullback(grad,
        need_d_h, need_params)`` is the hand-derived backward: ``(d_h,
        {parameter name: gradient}, d_scale)`` for the output gradient
        ``grad``, every parameter of the layer named — or none, without
        ``need_params`` (the explainer's frozen detector: the weight half
        is skipped). ``d_scale`` is ``None`` when no scale went in,
        ``d_h`` when not needed (the first layer's input is data: that
        skips the layer's largest matmul). Without ``save`` nothing is
        kept, buffers are reused and ``pullback`` is ``None``.
        """
        plan = self.plan()
        heads, dim, out_dim = self.num_heads, self.head_dim, self.out_dim
        segment, starts = layout.segment, layout.starts
        num_out, num_edges = layout.num_out, len(layout.src)
        logit_columns = len(EDGE_TYPES) * heads

        if self.first_layer:
            # One table row per transaction read: its logit on every
            # (edge type, head), then its value; then one per node type.
            _, value_row, logit_row = layout.table_rows
            table = np.empty((len(h) + len(NODE_TYPES), plan.table_weight.shape[1]))
            np.matmul(h, plan.table_weight, out=table[: len(h)])
            table[: len(h)] += plan.table_bias
            table[len(h) :] = plan.type_table
            by_cell = table[:, :logit_columns].reshape(len(table), len(EDGE_TYPES), heads)
            logits = by_cell[logit_row, layout.edge_type]
            value_edges = table[value_row, logit_columns:].reshape(num_edges, heads, dim)
        else:
            num_in = len(h)
            qkv = _apply_blocks(layout, h, plan.weights)
            value = qkv[:, 2 * out_dim :].reshape(num_in, heads, dim)
            # eq. 8 per node: [Q·A_dst[τ(v)] | K·A_src[τ(v)]], heads of
            # both sides batched into one matmul per type block.
            query_key = qkv[:, : 2 * out_dim].reshape(num_in, 2 * heads, dim)
            query_key_att = np.empty_like(query_key)
            for type_id, start, stop in layout.type_blocks:
                query_key_att[start:stop] = np.matmul(
                    query_key[start:stop].transpose(1, 0, 2), plan.att[type_id]
                ).transpose(1, 0, 2)
            key_att = query_key_att[:, heads:][layout.src]
            query_att = query_key_att[:, :heads][layout.dst]
            value_edges = value[layout.src]
            logits = np.einsum("ehd,ehd->eh", key_att, query_att)
            logits *= dim**-0.5

        # eq. 9: softmax over each contiguous in-neighbourhood.
        logits -= np.maximum.reduceat(logits, starts, axis=0)[segment]
        attention = np.exp(logits, out=logits)
        attention /= layout.segment_sum(attention)[segment] + 1e-16
        scaled = attention if scale is None else attention * scale

        # eq. 10 + eq. 1 Aggregate; targets without in-edges stay zero.
        # A scoring call reuses the value buffer; a recorded one keeps it.
        messages = np.multiply(value_edges, scaled[:, :, None], out=None if save else value_edges)
        summed = layout.segment_sum(messages.reshape(num_edges, out_dim))
        if self.first_layer:
            # A transaction source's φ(e) value term, once per entity
            # destination (an entity source's is in its type's row).
            attention_sum = layout.segment_sum(scaled)
            dst_values = plan.dst_values[layout.node_type[layout.heads]].reshape(-1, heads, dim)
            summed += (attention_sum[:, :, None] * dst_values).reshape(-1, out_dim)
        aggregated = np.zeros((num_out, out_dim))
        aggregated[layout.heads] = summed
        out = aggregated
        if self.target_specific:
            out = _apply_blocks(layout, aggregated, plan.a_weights)
        np.maximum(out, 0.0, out=out)
        if not save:
            return out, None

        def pullback(grad: np.ndarray, need_d_h: bool = True, need_params: bool = True):
            """The kernel above, bottom to top."""
            grads: Dict[str, np.ndarray] = {}

            # ReLU, then the per-target-type A-Linear.
            grad = grad * (out > 0.0)
            if self.target_specific:
                grad, d_linears = _apply_blocks_vjp(
                    layout, aggregated, plan.a_weights, grad, need_weights=need_params
                )
                for key, (d_weight, d_bias) in d_linears.items():
                    grads[f"a_linear.{key}.weight"], grads[f"a_linear.{key}.bias"] = d_weight, d_bias

            # eq. 10: messages = value_edges · scaled attention.
            d_aggregated = grad.reshape(num_out, heads, dim)
            d_messages = d_aggregated[layout.dst]
            d_scaled = np.einsum("ehd,ehd->eh", d_messages, value_edges)
            if self.first_layer:
                d_summed = d_aggregated[layout.heads]
                d_scaled += np.einsum("shd,shd->sh", d_summed, dst_values)[segment]
            d_scale = None
            if scale is not None:
                d_scale = d_scaled * attention
                d_scaled = d_scaled * scale
            if not (need_d_h or need_params):
                return None, grads, d_scale
            # eq. 9: the softmax.
            d_logits = _softmax_vjp(layout, attention, d_scaled)

            if self.first_layer:
                # Into the table: each logit's cell, each value's row.
                num_txn = len(h)
                d_values = np.multiply(d_messages, scaled[:, :, None], out=d_messages)
                d_rows = layout.sum_by_value_row(d_values.reshape(num_edges, out_dim))
                d_table = np.concatenate(
                    [layout.sum_by_logit_cell(d_logits), d_rows[:num_txn]], axis=1
                )
                d_h = d_table @ plan.table_weight.T if need_d_h else None
                if not need_params:
                    return d_h, grads, d_scale
                dst_types = np.arange(len(NODE_TYPES))[:, None] == layout.node_type[layout.heads]
                by_dst = (attention_sum[:, :, None] * d_summed).reshape(-1, out_dim)
                d_linears, d_att, d_node_emb, d_edge_emb = _first_layer_tables_vjp(
                    plan,
                    self.node_type_emb.weight.data,
                    self.edge_type_emb.weight.data,
                    h.T @ d_table,
                    d_table.sum(axis=0),
                    d_rows[num_txn:],
                    dst_types @ by_dst,  # each destination's term, summed per node type
                )
                grads["node_type_emb.weight"] = d_node_emb
                grads["edge_type_emb.weight"] = d_edge_emb
            else:
                # eq. 8, logits = key_att · query_att / sqrt(d). Per edge,
                # [d(K·A_src) | dV] side by side, as one by-source sum wants them.
                num_in = len(h)
                d_logits = (d_logits * dim**-0.5)[:, :, None]
                by_edge = np.empty((num_edges, 2 * heads, dim))
                np.multiply(d_logits, query_att, out=by_edge[:, :heads])
                np.multiply(d_messages, scaled[:, :, None], out=by_edge[:, heads:])
                by_source = layout.sum_by_source(by_edge.reshape(num_edges, 2 * out_dim))
                by_source = by_source.reshape(num_in, 2 * heads, dim)
                # [d(Q·A_dst) | d(K·A_src)] per node: by target, by source.
                d_query_key_att = np.zeros((num_in, 2 * heads, dim))
                d_query_key_att[layout.heads, :heads] = layout.segment_sum(
                    (d_logits * key_att).reshape(num_edges, out_dim)
                ).reshape(-1, heads, dim)
                d_query_key_att[:, heads:] = by_source[:, :heads]

                # The bilinears: one matmul per type block for each of
                # d[Q | K] and d[A_dst | A_src]; absent types keep zeros.
                d_qkv = np.empty((num_in, 3 * out_dim))
                d_qkv[:, 2 * out_dim :] = by_source[:, heads:].reshape(num_in, out_dim)
                d_query_key = d_qkv[:, : 2 * out_dim].reshape(num_in, 2 * heads, dim)  # a view
                d_att = np.zeros_like(plan.att)
                for type_id, start, stop in layout.type_blocks:
                    block = d_query_key_att[start:stop].transpose(1, 0, 2)
                    d_query_key[start:stop] = np.matmul(
                        block, plan.att[type_id].swapaxes(-1, -2)
                    ).transpose(1, 0, 2)
                    if need_params:
                        d_att[type_id] += np.matmul(query_key[start:stop].transpose(1, 2, 0), block)

                # The stacked [Q | K | V] projection: one hᵀ·g / g·Wᵀ pair per block.
                d_h, d_linears = _apply_blocks_vjp(
                    layout, h, plan.weights, d_qkv, need_d_h, need_params
                )
                if not need_params:
                    return d_h, grads, d_scale

            grads["att_dst"], grads["att_src"] = d_att[:, :heads], d_att[:, heads:]
            for key, (d_weight, d_bias) in d_linears.items():
                for position, name in enumerate(("q_linear", "k_linear", "v_linear")):
                    columns = slice(position * out_dim, (position + 1) * out_dim)
                    grads[f"{name}.{key}.weight"] = d_weight[:, columns]
                    grads[f"{name}.{key}.bias"] = d_bias[columns]
            return d_h, grads, d_scale

        return out, pullback
