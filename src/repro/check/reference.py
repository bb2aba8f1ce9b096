"""Executable specs: the slow, obvious form of eight fast paths.

**The detector, one ``Tensor`` op at a time.** Each
:class:`~repro.models.hetero_conv.HeteroConvLayer` and the detector's
FFN head is a single autograd node over a plain-array kernel with a
hand-derived backward, and ``F.cross_entropy`` is one node too.
:func:`conv_forward`, :func:`head`, :func:`cross_entropy` and
:class:`PerOpDetector` are the spec those are held to: the same
parameters pushed through ``nn``'s per-op tape (one ``Tensor`` per op
and per node/edge type, gradients by the engine's own rules), in the
graph's own node and edge order.

**The detector read at every node.** :class:`ReadEverywhere` is the
detector's own kernel with nothing cut: the spec of running each layer
on only the rows the next one reads.

**The samplers, one node at a time.** :func:`scalar_sample` is the walk
each sampler of :mod:`repro.graph.sampling` vectorizes, reading the
configuration off the sampler instance it is the spec of and asking the
same stateless hash the same questions, so the two return identical
:class:`~repro.graph.sampling.SampledSubgraph` objects seed for seed. It
induces by the definition — ``graph.subgraph`` of the walk's nodes, a
dict for the targets — not by the samplers' keyed induction.

**The CSR grown by a delta, shifted into place.** :func:`splice_csr`
moves every old entry right to make room for the delta's — the canonical
in-edge CSR, as a full stable rebuild lays it out — and
:func:`compacted` reads a bucketed :class:`~repro.graph.hetero.InEdges`
in that form; :meth:`~repro.graph.hetero.HeteroGraph.append_delta`'s
growth into headroom is held to both.

**A stack, and its components found by search.** :func:`stack_subgraphs`
is the block-diagonal union of samples that ``disjoint=True`` means.
:func:`component_bounds` is
what a sample's recorded :attr:`~repro.graph.sampling.SampledSubgraph.bounds`
must read, worked out of its arrays alone, and :func:`unstack` cuts each
component out by them as the singleton sample it must equal.

**The replica tier's read, one key at a time.** :func:`per_key_get` is
the walk :meth:`~repro.storage.replicated.ReplicatedKVStore.get_many`
batches: the gate, then the live owners in preference order, with every
read's health accounting made as it happens.

**The optimiser step, one parameter at a time.**
:func:`per_parameter_step` is the update ``Optimizer.step`` makes
through flat buffers: Adam (coupled decay) and AdamW,
parameter by parameter, each moment written through its view.

Only ``repro.check`` scenarios, tests, benches and one demo gate call
this module; nothing that trains, explains or serves does.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..graph.hetero import EDGE_TYPES, NODE_TYPES, HeteroGraph, InEdges, _ranges, _reserve
from ..graph.sampling import (
    _EMPTY,
    HGSampler,
    SageSampler,
    SampledSubgraph,
    _concatenate,
    _hash_uniform,
    _salt,
)
from ..models.detector import XFraudDetector
from ..models.field import EdgeRows
from ..models.hetero_conv import HeteroConvLayer
from ..models.inference import padded_features
from ..nn import Tensor
from ..nn import functional as F
from ..storage.replicated import AllReplicasFailedError, ReplicatedKVStore


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
        # eq. 2/4/6 input: X + τ(v)^emb  (+ φ(e)^emb handled below), where
        # X is a transaction's features and an entity's row of ``h`` is
        # zero (:func:`~repro.models.inference.padded_features`).
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


def head(
    detector: XFraudDetector,
    graph: HeteroGraph,
    targets: np.ndarray,
    h: Tensor,
    feature_mask: Optional[Tensor] = None,
) -> Tensor:
    """The detector's FFN head on the targets' convolution output ``h``
    (``(len(targets), hidden_dim)``), one ``Tensor`` op at a time: what
    ``XFraudDetector.head_kernel`` and its pullback compute, with the
    dropout masks ``F.dropout`` draws from the head's generator."""
    original = Tensor(graph.txn_table[graph.txn_rows(targets)])
    if feature_mask is not None:
        original = original * feature_mask[targets]
    x = nn.concat([h.tanh(), original], axis=1)

    x = detector.head_fc1(x)
    x = detector.head_dropout(x)
    x = detector.head_norm1(x).relu()
    x = detector.head_fc2(x)
    x = detector.head_dropout(x)
    x = detector.head_norm2(x).relu()
    return detector.head_out(x)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """``F.cross_entropy`` one op at a time: log-softmax, a pick, a mean."""
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = F.log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(len(labels)), labels]
    return -picked.mean()


class PerOpDetector:
    """A detector seen through :func:`conv_forward` and :func:`head`:
    same parameters, same generators, the whole forward on the per-op
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
        h = Tensor(padded_features(graph))
        if feature_mask is not None:
            h = h * feature_mask
        for conv in self.detector.convs:
            h = conv_forward(conv, graph, h, edge_mask=edge_mask, edge_rows=edge_rows)
        return head(self.detector, graph, targets, nn.gather(h, targets), feature_mask)

    __call__ = forward


class ReadEverywhere(PerOpDetector):
    """A detector whose own kernel is read at every node:
    :meth:`~repro.models.detector.XFraudDetector.node_representations`
    — a layout where every node is at distance 0, so every layer's
    prefix is the whole — with :func:`head` on the targets' rows of that:
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
        return head(self.detector, graph, targets, nn.gather(h, targets), feature_mask)

    __call__ = forward


# ----------------------------------------------------------------------
# The samplers' walks, node at a time
# ----------------------------------------------------------------------
def scalar_sample(
    sampler, graph: HeteroGraph, targets: Sequence[int], deadline=None, disjoint: bool = False
) -> SampledSubgraph:
    """What ``sampler.sample(graph, targets, deadline, disjoint)`` must
    return, by the scalar walk of ``sampler``'s kind and the induction by
    its definition, ``graph.subgraph`` of the walk's nodes —
    ``disjoint=True`` by its definition too, the stacked loop of
    singleton samples."""
    targets = np.asarray(targets, dtype=np.int64)
    if disjoint and len(targets) > 1:
        return stack_subgraphs(
            [scalar_sample(sampler, graph, [int(target)], deadline) for target in targets]
        )
    walk = _sage_walk if isinstance(sampler, SageSampler) else _hg_walk
    unique_targets = np.array(list(dict.fromkeys(targets.tolist())), dtype=np.int64)
    nodes = walk(sampler, graph, unique_targets, deadline)
    subgraph, original_ids = graph.subgraph(nodes)
    local = {node: index for index, node in enumerate(nodes.tolist())}
    target_local = np.array([local[target] for target in targets.tolist()], dtype=np.int64)
    return SampledSubgraph(subgraph, target_local, original_ids)


def _canonical(unique_targets: np.ndarray, discovered: List[int]) -> np.ndarray:
    rest = np.sort(np.asarray(discovered, dtype=np.int64)) if discovered else _EMPTY
    return np.concatenate([unique_targets, rest])


def _sage_walk(
    sampler: SageSampler, graph: HeteroGraph, unique_targets: np.ndarray, deadline
) -> np.ndarray:
    indptr, base, _, src, _ = graph.csr()
    edge_salt = _salt(sampler.seed)

    def kept_positions(node: int) -> np.ndarray:
        """The node's CSR positions, cut to its ``fanout`` smallest hash keys."""
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
                neighbor = int(src[base[node] + position - indptr[node]])  # the position's slot
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


# ----------------------------------------------------------------------
# The in-edge CSR, canonical
# ----------------------------------------------------------------------
def compacted(csr: InEdges) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, src, edge_id)``: every bucket's run gathered in node
    order — node ``v``'s in-edges at ``indptr[v]:indptr[v + 1]`` — which
    a CSR without headroom already is."""
    slots = _ranges(csr.base, np.diff(csr.indptr))
    return csr.indptr, csr.src[slots], csr.edge_id[slots]


def splice_csr(
    csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
    num_nodes: int,
    new_src: np.ndarray,
    new_dst: np.ndarray,
    buffers: Dict[str, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Splice delta edges into a canonical in-edge CSR, in place.

    Per destination bucket the result is [old entries in their old
    order, new entries stable-sorted by destination] — exactly what
    ``np.argsort(edge_dst, kind="stable")`` over the grown edge
    arrays produces.

    The ``k``-th new entry in destination order lands ``k`` slots
    past the old end of its bucket, and the old entries between two
    receiving buckets move right as one block by the number of new
    entries below them. Blocks are shifted back to front inside the
    reserved ``buffers`` (the rightmost first, so no move overwrites
    an unmoved entry): one pass of slice copies, no E-sized
    temporaries.
    """
    indptr, src_sorted, eid_sorted = csr
    old_edges = len(src_sorted)
    ends = np.empty(num_nodes + 1, dtype=np.int64)  # old bucket ends, then new indptr
    ends[: len(indptr)] = indptr
    ends[len(indptr) :] = old_edges
    if not len(new_src):
        return (ends, src_sorted, eid_sorted)
    src_buffer = _reserve(buffers, "src_by_dst", src_sorted, len(new_src))
    eid_buffer = _reserve(buffers, "edge_id_by_dst", eid_sorted, len(new_src))
    order = np.argsort(new_dst, kind="stable")
    dst_ordered = new_dst[order]
    positions = ends[dst_ordered + 1] + np.arange(len(order), dtype=np.int64)
    # One block per receiving bucket: the old entries from its old
    # end up to the next receiving bucket's, shifted by the number
    # of new entries at or below it.
    shifts = np.append(np.flatnonzero(np.diff(dst_ordered)) + 1, len(order))
    receiving = dst_ordered[shifts - 1] + 1
    cuts = ends[receiving].tolist() + [old_edges]
    ends[receiving[0] :] += np.repeat(shifts, np.diff(np.append(receiving, num_nodes + 1)))
    for block in range(len(shifts) - 1, -1, -1):
        start, stop, shift = cuts[block], cuts[block + 1], int(shifts[block])
        if start < stop:
            src_buffer[start + shift : stop + shift] = src_buffer[start:stop]
            eid_buffer[start + shift : stop + shift] = eid_buffer[start:stop]
    src_buffer[positions] = new_src[order]
    eid_buffer[positions] = order + old_edges
    total = old_edges + len(order)
    return (ends, src_buffer[:total], eid_buffer[:total])


# ----------------------------------------------------------------------
# A stack of samples, and its components by search
# ----------------------------------------------------------------------
def stack_subgraphs(parts: Sequence[SampledSubgraph]) -> SampledSubgraph:
    """Disjoint (block-diagonal) union of sampled subgraphs: the
    definition ``sample(..., disjoint=True)`` is held to, and the
    baseline its one walk and ``gather`` are timed against. Nothing that
    serves stacks samples: every sample is one induction
    (:func:`repro.graph.sampling._induce`), and every stack of cached
    pieces a :func:`~repro.graph.sampling.gather`.

    Node ids of each part are shifted past the previous parts' ranges,
    so the combined graph has no edges between components: a forward
    pass over it computes, per target, exactly what a forward over that
    target's own subgraph would. That is what lets micro-batched
    serving keep ONE model forward per rung while staying
    score-identical to sequential scoring — coalescing requests into a
    single *shared* sample would instead leak each request's sampled
    neighbourhood into the others' attention normalisation (the
    induced union carries cross-target edges), making a transaction's
    score depend on which requests happened to ride its batch.

    ``original_ids`` may repeat across components (two targets sampling
    the same hub); that is fine — components are disjoint, and feature
    hydration simply writes the same row into each copy. The stack's
    components are its parts', in order.
    """
    if not parts:
        raise ValueError("need at least one subgraph to stack")
    if len(parts) == 1:
        return parts[0]
    graphs = [part.graph for part in parts]
    if any(part.offsets is not None for part in parts):  # a part of several components
        sizes = np.concatenate([np.diff(part.bounds, axis=0) for part in parts])
        sources = np.concatenate([part.bounds[:-1, 0] for part in parts])
        firsts = np.cumsum([0] + [part.num_components for part in parts[:-1]])
    else:
        sizes = np.array([(len(g.node_type), len(g.edge_src), len(g.txn_table)) for g in graphs])
        sources = np.zeros(len(parts), dtype=np.int64)
        firsts = slice(-1)
    graph, original_ids, offsets = _concatenate(
        [
            (g.node_type, g.labels, part.original_ids, g.edge_src, g.edge_dst, g.edge_type, g.txn_table)
            for part, g in zip(parts, graphs)
        ],
        sizes,
        sources,
    )
    target_local = np.concatenate([part.target_local for part in parts])
    target_local += np.repeat(offsets[firsts, 0], [len(part.target_local) for part in parts])
    return SampledSubgraph(graph, target_local, original_ids, offsets=offsets)


def component_bounds(stacked: SampledSubgraph, roots: Optional[np.ndarray] = None) -> np.ndarray:
    """The ``bounds`` of a stack of single-target components, recovered
    from its arrays.

    ``roots`` holds one root per component, ascending: its first node,
    the target it was sampled for. It defaults to ``target_local``, which
    lists exactly that for a disjoint walk or a stack of singleton
    samples; a sample whose ``target_local`` repeats a root passes its
    distinct values. Edges are stored component by component, so the
    component of ``edge_dst`` is sorted and bounds them; each
    component's rows are its transactions, counted. Refuses what is not
    such a stack.
    """
    starts = stacked.target_local if roots is None else np.asarray(roots, dtype=np.int64)
    count = len(starts)
    if count == 0 or starts[0] != 0 or np.any(starts[1:] <= starts[:-1]):
        raise ValueError("components must each list their one target first")
    graph = stacked.graph
    component = np.searchsorted(starts, graph.edge_dst, side="right")
    if np.any(component != np.searchsorted(starts, graph.edge_src, side="right")) or np.any(
        component[1:] < component[:-1]
    ):
        raise ValueError("not a stack: an edge leaves its component, or edges are not grouped")
    nodes = np.append(starts, graph.num_nodes)
    edges = np.searchsorted(component, np.arange(1, count + 2))
    rows = np.append(0, np.cumsum(graph.txn_row >= 0))[nodes]
    return np.stack([nodes, edges, rows], axis=1)


def unstack(stacked: SampledSubgraph, roots: Optional[np.ndarray] = None) -> List[SampledSubgraph]:
    """Each component of ``stacked``, cut out by :func:`component_bounds`
    as the singleton sample it must equal; its node arrays are views of
    the stack's."""
    bounds = component_bounds(stacked, roots).tolist()
    graph = stacked.graph
    parts = []
    for (lo, first_edge, first_row), (hi, end_edge, end_row) in zip(bounds, bounds[1:]):
        edges = slice(first_edge, end_edge)
        part = HeteroGraph.derived(
            graph.node_type[lo:hi],
            graph.edge_src[edges] - lo,
            graph.edge_dst[edges] - lo,
            graph.edge_type[edges],
            graph.txn_table[first_row:end_row],
            graph.labels[lo:hi],
        )
        parts.append(SampledSubgraph(part, np.zeros(1, dtype=np.int64), stacked.original_ids[lo:hi]))
    return parts


# ----------------------------------------------------------------------
# The replica tier's read, key at a time
# ----------------------------------------------------------------------
def per_key_get(store: ReplicatedKVStore, key: str) -> bytes:
    """What ``store.get_many`` must return or raise for ``key``, and
    leave behind in ``store``: the gate (an owner is a candidate unless
    dead and not yet due its probe); then the candidates in preference
    order — a ``contains`` probe, the read, its CRC against the ledger —
    until one answers. A miss costs nothing, a failed read is charged to
    its replica, each success is one latency observation, and an answer
    after the first candidate is a failover."""
    now = store._clock()
    with store._lock:
        candidates = [i for i in store.owners(key) if store.health[i].available(now)]
    if not candidates:
        raise AllReplicasFailedError(f"no live replica holds {key!r}")
    last_error: Optional[Exception] = None
    for slot, index in enumerate(candidates):
        try:
            present = store.replicas[index].contains(key)
        except Exception:
            present = True  # let the real read produce the real error
        if not present:
            continue
        started = store._clock()
        try:
            value = store._verified_read(index, key)
        except Exception as error:
            store._read_failed(index, error)
            last_error = error
            continue
        with store._lock:
            store.health[index].record_success(store._clock() - started)
            if slot:
                store.failovers += 1
        return value
    if last_error is None:
        raise KeyError(key)
    raise AllReplicasFailedError(f"every candidate failed reading {key!r}") from last_error


# ----------------------------------------------------------------------
# The optimiser step, parameter at a time
# ----------------------------------------------------------------------
def per_parameter_step(optimizer: nn.Optimizer) -> None:
    """What ``optimizer.step()`` must do: the step's own set-up, then
    each parameter holding a gradient updated in one ``write`` (one
    version bump) by its own formula, its moments replaced through
    their views; a parameter without a gradient is left alone — no
    decay, no moment update, no version bump."""
    optimizer._begin_step()
    for index, param in enumerate(optimizer.parameters):
        if param.grad is None:
            continue
        grad = param.grad
        with param.write() as data:
            if isinstance(optimizer, nn.AdamW) and optimizer.decoupled_weight_decay:
                data -= optimizer.lr * optimizer.decoupled_weight_decay * data
            if optimizer.weight_decay:
                grad = grad + optimizer.weight_decay * data
            m, v = optimizer._m[index], optimizer._v[index]
            m[...] = optimizer.beta1 * m + (1 - optimizer.beta1) * grad
            v[...] = optimizer.beta2 * v + (1 - optimizer.beta2) * grad**2
            m_hat = m / (1 - optimizer.beta1**optimizer._step)
            v_hat = v / (1 - optimizer.beta2**optimizer._step)
            data -= optimizer.lr * m_hat / (np.sqrt(v_hat) + optimizer.eps)
