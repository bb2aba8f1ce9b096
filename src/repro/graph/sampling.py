"""Neighbour samplers: GraphSAGE-style (detector+) and HGSampling (HGT).

The paper's ablation (Sec. 3.2.3, Figure 10) contrasts two samplers
behind the same heterogeneous convolution:

* :class:`SageSampler` — detector+: sample the k-hop neighbourhood of
  each target node keeping at most ``fanout`` neighbours per node per
  hop. Cheap, and well matched to the sparse transaction graphs
  (≈1.5–2 edges/node).
* :class:`HGSampler` — the HGSampling algorithm used by HGT: keeps a
  per-node-type *budget* of candidate nodes scored by normalised-degree
  importance and repeatedly samples a fixed number of nodes **per
  type** per step, so the sampled subgraph has similar counts of every
  node/edge type. On sparse graphs this wastes work maintaining
  budgets for rare types — the 5–7× inference-time gap of Figure 10.

Both return a :class:`SampledSubgraph`: the induced typed subgraph plus
the positions of the requested target nodes inside it.

:func:`receptive_field` is the third walk and draws nothing: the whole
``hops``-hop in-closure of the targets, which is what a training step
computes its loss on (every model's ``loss`` calls it).

Purity contract
---------------
Each walk is written once, as CSR array gathers (``indptr``/``indices``
slices, segment top-k via ``np.lexsort``, ``np.unique`` dedup) with no
per-node Python loop, and draws its randomness from a *stateless* hash
(splitmix64 over ``(seed, edge-position)`` for SAGE fanout capping,
``(seed, step, node)`` exponential races for HGSampling's weighted
draws). So ``sample()`` is a pure function of ``(graph, targets,
config)``: repeated calls agree, which is what makes
:class:`~repro.graph.cache.SubgraphCache` sound and online verdicts
reproducible. Node order is canonical — the unique targets in request
order, then every other sampled node ascending. A sampler holds its
configuration and nothing else: no clock, no metrics handle; a caller
that wants a walk timed times it (``kind`` and ``steps`` are what it
labels and counts by).

``sample(..., disjoint=True)`` computes a different function of the
same inputs: not the sample of the target *set* (one induced subgraph,
cross-target edges included) but the block-diagonal union of one
singleton sample per target — component ``i`` is ``sample(graph,
[targets[i]])``, repeats included — which is what micro-batched serving
scores (see :func:`stack_subgraphs` for why). That loop is
:class:`HGSampler`'s ``disjoint`` path; :class:`SageSampler` walks every
component in one frontier expansion over ``(component, node)`` pairs
and returns, array for array, what the loop returns (the per-position
hash keys do not know the component, so each keeps exactly the edges
its own walk would). A single target takes the plain ``sample(graph,
[t])`` route either way: the union of one component is that component.

The executable spec of both samplers — the scalar node-at-a-time walks
these replaced, asking the same hash the same questions — is
:func:`repro.check.reference.scalar_sample`; ``repro check`` and
``tests/test_fastpath.py`` hold every walk here to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .hetero import NODE_TYPES, HeteroGraph

_EMPTY = np.zeros(0, dtype=np.int64)

# -- stateless hashing (splitmix64) ------------------------------------
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def _mix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    z = values.astype(np.uint64, copy=True) + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _salt(*parts: int) -> np.uint64:
    """Fold integers into one uint64 salt (order-sensitive)."""
    acc = np.uint64(0)
    for part in parts:
        acc = _mix64(np.array([acc ^ np.uint64(part & _MASK64)], dtype=np.uint64))[0]
    return acc


def _hash_uniform(ids: np.ndarray, salt: np.uint64) -> np.ndarray:
    """Deterministic uniforms in (0, 1] keyed by ``(ids, salt)``.

    The same ``(id, salt)`` always yields the same draw, which is the
    mechanism that makes a walk and its scalar spec agree bit-for-bit:
    both ask this function the same questions.
    """
    mixed = _mix64(np.asarray(ids, dtype=np.int64).astype(np.uint64) ^ salt)
    return ((mixed >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def _first_occurrence_unique(values: np.ndarray) -> np.ndarray:
    """Unique values in order of first appearance."""
    if len(values) == 0:
        return _EMPTY
    _, first = np.unique(values, return_index=True)
    return values[np.sort(first)]


def _concat_csr_slices(
    indptr: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR positions of the in-edges of ``nodes``.

    Returns ``(positions, counts)`` where ``positions`` walks each
    node's ``indptr[v]:indptr[v+1]`` slice in order — the flat gather
    behind every vectorized frontier expansion here.
    """
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, counts
    offsets = np.cumsum(counts) - counts
    positions = (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(starts, counts)
    )
    return positions, counts


@dataclass
class SampledSubgraph:
    """A sampled neighbourhood ready for the model forward pass."""

    graph: HeteroGraph
    target_local: np.ndarray
    original_ids: np.ndarray
    #: Parent edge id of each edge of ``graph``, ascending — set by
    #: :func:`receptive_field` only (the samplers induce their edges).
    edge_ids: Optional[np.ndarray] = None

    @property
    def num_targets(self) -> int:
        return len(self.target_local)


def stack_subgraphs(parts: Sequence[SampledSubgraph]) -> SampledSubgraph:
    """Disjoint (block-diagonal) union of sampled subgraphs.

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
    hydration simply writes the same row into each copy.
    """
    if not parts:
        raise ValueError("need at least one subgraph to stack")
    if len(parts) == 1:
        return parts[0]
    graphs = [part.graph for part in parts]
    offsets = np.cumsum([0] + [graph.num_nodes for graph in graphs[:-1]])
    # One concatenate per array; each part's node offset added in one go.
    edge_shift = np.repeat(offsets, [graph.num_edges for graph in graphs])
    edge_src = np.concatenate([graph.edge_src for graph in graphs])
    edge_dst = np.concatenate([graph.edge_dst for graph in graphs])
    edge_src += edge_shift
    edge_dst += edge_shift
    target_local = np.concatenate([part.target_local for part in parts])
    target_local += np.repeat(offsets, [part.num_targets for part in parts])
    graph = HeteroGraph(
        node_type=np.concatenate([graph.node_type for graph in graphs]),
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_type=np.concatenate([graph.edge_type for graph in graphs]),
        txn_features=np.concatenate([graph.txn_features for graph in graphs], axis=0),
        labels=np.concatenate([graph.labels for graph in graphs]),
    )
    return SampledSubgraph(
        graph=graph,
        target_local=target_local,
        original_ids=np.concatenate([part.original_ids for part in parts]),
    )


def unstack_subgraphs(stacked: SampledSubgraph) -> List[SampledSubgraph]:
    """Inverse of :func:`stack_subgraphs` for single-target components.

    A singleton sample lists its target first, so ``target_local`` holds
    the components' node offsets; edges are stored component by
    component, so the component of ``edge_dst`` is sorted and bounds
    them. Nothing about the split is stored on :class:`SampledSubgraph`.
    The parts' node arrays are views: a part keeps the arrays of the
    stack it was cut from alive.
    """
    starts = stacked.target_local
    count = len(starts)
    if count == 1:
        return [stacked]
    if count == 0 or starts[0] != 0 or np.any(starts[1:] <= starts[:-1]):
        raise ValueError("components must each list their one target first")
    graph = stacked.graph
    component = np.searchsorted(starts, graph.edge_dst, side="right")
    if np.any(component != np.searchsorted(starts, graph.edge_src, side="right")) or np.any(
        component[1:] < component[:-1]
    ):
        raise ValueError("not a stack: an edge leaves its component, or edges are not grouped")
    edge_bounds = np.searchsorted(component, np.arange(1, count + 2)).tolist()
    node_bounds = starts.tolist() + [graph.num_nodes]
    first = starts[:1]  # every part's target_local
    parts = []
    for index in range(count):
        lo, hi = node_bounds[index], node_bounds[index + 1]
        edges = slice(edge_bounds[index], edge_bounds[index + 1])
        part = HeteroGraph.derived(
            graph.node_type[lo:hi],
            graph.edge_src[edges] - lo,
            graph.edge_dst[edges] - lo,
            graph.edge_type[edges],
            graph.txn_features[lo:hi],
            graph.labels[lo:hi],
        )
        parts.append(SampledSubgraph(part, first, stacked.original_ids[lo:hi]))
    return parts


def _in_sorted(table: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(found, slot): membership of ``keys`` in the ascending, non-empty
    ``table`` and where — the ``searchsorted`` both halves of the
    disjoint walk look ``(component, node)`` keys up with."""
    slot = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return table[slot] == keys, slot


class _Sampler:
    """What the two samplers share: ``sample()``.

    A subclass supplies ``kind`` and ``steps`` (what a caller labels and
    counts its walks by), ``_expand`` (the walk over the target set)
    and, when it has one, a one-walk ``_sample_disjoint``.
    """

    kind: str

    def sample(
        self, graph: HeteroGraph, targets: Sequence[int], deadline=None, disjoint: bool = False
    ) -> SampledSubgraph:
        """The sampled neighbourhood of the targets as a subgraph.

        ``deadline`` is an optional duck-typed budget (anything with a
        ``check(stage)`` method, e.g. :class:`repro.serving.Deadline`);
        it is checked once per step per walk, so an online request
        overruns its budget by at most one sampling step.

        ``disjoint=True`` returns instead the block-diagonal union of
        one singleton sample per target (repeats included) — array for
        array ``stack_subgraphs([sample(graph, [t]) for t in targets])``.
        A single target is its own union and takes the plain route.
        """
        targets = np.asarray(targets, dtype=np.int64)
        if disjoint and len(targets) != 1:
            return self._sample_disjoint(graph, targets, deadline)
        nodes = self._expand(graph, _first_occurrence_unique(targets), deadline)
        return _induce(graph, nodes, targets)

    def _sample_disjoint(self, graph: HeteroGraph, targets: np.ndarray, deadline) -> SampledSubgraph:
        """``disjoint=True`` by its definition: one singleton sample per
        target, stacked."""
        return stack_subgraphs(
            [self.sample(graph, [int(target)], deadline=deadline) for target in targets]
        )


class SageSampler(_Sampler):
    """k-hop capped neighbourhood sampling (GraphSAGE style): at most
    ``fanout`` in-neighbours per node per hop, ``hops`` hops out."""

    kind = "sage"

    def __init__(self, hops: int = 2, fanout: int = 10, seed: int = 0) -> None:
        if hops < 1:
            raise ValueError("hops must be >= 1")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.hops = hops
        self.fanout = fanout
        self.seed = seed
        self._edge_salt = _salt(seed)

    @property
    def steps(self) -> int:
        """Frontier expansions per walk."""
        return self.hops

    def cache_key(self) -> Tuple:
        """Configuration identity for :class:`~repro.graph.cache.SubgraphCache`."""
        return (self.kind, self.hops, self.fanout, self.seed)

    def _expand(self, graph: HeteroGraph, unique_targets: np.ndarray, deadline) -> np.ndarray:
        indptr, src_sorted, _ = graph.csr()
        visited = np.zeros(graph.num_nodes, dtype=bool)
        visited[unique_targets] = True
        frontier = unique_targets
        discovered: List[np.ndarray] = []
        for hop in range(self.hops):
            if deadline is not None:
                deadline.check(f"sampling hop {hop}")
            if len(frontier):
                positions, counts = _concat_csr_slices(indptr, frontier)
                kept = self._kept(positions, counts)
                neighbors = src_sorted[positions if kept is None else positions[kept]]
                fresh = np.unique(neighbors[~visited[neighbors]])
                visited[fresh] = True
                discovered.append(fresh)
                frontier = fresh
        rest = np.sort(np.concatenate(discovered)) if discovered else _EMPTY
        return np.concatenate([unique_targets, rest])

    def _kept(self, positions: np.ndarray, counts: np.ndarray) -> Optional[np.ndarray]:
        """Which of ``positions`` (the concatenated CSR slices of the
        frontier, ``counts`` long each) survive the fanout cap: per
        slice the ``fanout`` smallest hash keys, all slices at once.
        ``None`` when no slice is over the cap (keep everything)."""
        total = len(positions)
        if total == 0 or int(counts.max()) <= self.fanout:
            return None
        keys = _hash_uniform(positions, self._edge_salt)
        segments = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        order = np.lexsort((keys, segments))
        offsets = np.cumsum(counts) - counts
        rank = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        return order[rank < self.fanout]

    def _sample_disjoint(self, graph: HeteroGraph, targets: np.ndarray, deadline) -> SampledSubgraph:
        """Every target's singleton walk as ONE frontier expansion.

        A frontier entry is a ``(component, node)`` pair held as the key
        ``component * num_nodes + node``: one CSR gather per hop serves
        all components, the fanout cap ranks inside each pair's own
        slice with the hash keys of its CSR positions (the keys the
        singleton walk draws), and ``np.unique`` on pair keys dedups
        per component. Nothing here is sized by the graph.
        """
        if len(targets) == 0:
            raise ValueError("need at least one target to sample")
        indptr, src_sorted, _ = graph.csr()
        stride = graph.num_nodes
        roots = np.arange(len(targets), dtype=np.int64) * stride + targets
        seen = frontier = roots  # ascending: one key per component so far
        for hop in range(self.hops):
            if deadline is not None:
                deadline.check(f"sampling hop {hop}")
            if len(frontier):
                component, node = np.divmod(frontier, stride)
                positions, counts = _concat_csr_slices(indptr, node)
                component = np.repeat(component, counts)
                kept = self._kept(positions, counts)
                if kept is not None:
                    positions, component = positions[kept], component[kept]
                reached = np.unique(component * stride + src_sorted[positions])
                frontier = reached[~_in_sorted(seen, reached)[0]]
                seen = np.sort(np.concatenate([seen, frontier]))
        return _induce_disjoint(graph, roots, seen)


class HGSampler(_Sampler):
    """HGSampling: type-balanced importance sampling (HGT, Alg. 2).

    Maintains one budget per node type. Each candidate's score is the
    sum over sampled neighbours of ``1 / degree``, squared at sampling
    time to favour nodes tightly connected to the sampled set. Each of
    ``depth`` steps draws up to ``width`` nodes *for every node type*,
    which forces similar per-type counts in the output subgraph.

    Weighted draws use the Efraimidis–Spirakis exponential race
    (``-log(u) / w`` smallest-k) over the stateless hash.
    ``disjoint=True`` is the stacked loop of singleton samples itself:
    the budgets of Fig. 10's subject stay one walk each.
    """

    kind = "hg"

    def __init__(self, depth: int = 2, width: int = 8, seed: int = 0) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if width < 1:
            raise ValueError("width must be >= 1")
        self.depth = depth
        self.width = width
        self.seed = seed

    @property
    def steps(self) -> int:
        """Budget draws per walk."""
        return self.depth

    def cache_key(self) -> Tuple:
        """Configuration identity for :class:`~repro.graph.cache.SubgraphCache`."""
        return (self.kind, self.depth, self.width, self.seed)

    def _expand(self, graph: HeteroGraph, unique_targets: np.ndarray, deadline) -> np.ndarray:
        indptr, src_sorted, _ = graph.csr()
        inverse_degree = 1.0 / np.maximum(graph.degree(), 1).astype(np.float64)
        num_nodes = graph.num_nodes
        score = np.zeros(num_nodes, dtype=np.float64)
        in_budget = np.zeros(num_nodes, dtype=bool)
        sampled = np.zeros(num_nodes, dtype=bool)
        sampled[unique_targets] = True
        node_type = graph.node_type
        # Budget membership tracked as an explicit id array (not a scan
        # of the N-sized masks) so each step costs O(|budget|), never
        # O(num_nodes) — the point on a serving graph.
        members = _EMPTY

        def push(new_nodes: np.ndarray, members: np.ndarray) -> np.ndarray:
            """Vectorized budget update for freshly sampled nodes.

            ``np.add.at`` applies the additions in array order — the
            same order the scalar spec walks nodes and their CSR
            slices — so the accumulated float scores are bitwise equal
            to its. Returns the grown membership array.
            """
            positions, counts = _concat_csr_slices(indptr, new_nodes)
            if len(positions) == 0:
                return members
            neighbors = src_sorted[positions]
            weights = np.repeat(inverse_degree[new_nodes], counts)
            live = ~sampled[neighbors]
            neighbors = neighbors[live]
            np.add.at(score, neighbors, weights[live])
            fresh = np.unique(neighbors[~in_budget[neighbors]])
            if len(fresh):
                in_budget[fresh] = True
                members = np.concatenate([members, fresh])
            return members

        members = push(unique_targets, members)
        discovered: List[np.ndarray] = []
        for step in range(self.depth):
            if deadline is not None:
                deadline.check(f"sampling step {step}")
            if len(members):
                # One segmented weighted draw across every type at once:
                # sort by (type, race key, id) and keep the first
                # ``width`` of each type segment — identical picks to
                # the spec's per-type draws.
                member_types = node_type[members]
                uniforms = _hash_uniform(members, _salt(self.seed, step + 1))
                keys = -np.log(uniforms) / score[members] ** 2
                order = np.lexsort((members, keys, member_types))
                counts = np.bincount(member_types, minlength=len(NODE_TYPES))
                present = counts[counts > 0]
                offsets = np.cumsum(present) - present
                rank = np.arange(len(members), dtype=np.int64) - np.repeat(
                    offsets, present
                )
                take = order[rank < self.width]
                chosen = members[take]
                # The spec's emission order: type-major, id-ascending.
                new_nodes = chosen[np.lexsort((chosen, member_types[take]))]
                sampled[new_nodes] = True
                in_budget[new_nodes] = False
                score[new_nodes] = 0.0
                discovered.append(new_nodes)
                members = members[~sampled[members]]
                members = push(new_nodes, members)
        rest = np.sort(np.concatenate(discovered)) if discovered else _EMPTY
        return np.concatenate([unique_targets, rest])


def receptive_field(graph: HeteroGraph, targets: Sequence[int], hops: int) -> SampledSubgraph:
    """Everything a ``hops``-layer model's output at ``targets`` reads.

    The uncapped ``hops``-hop in-closure of the targets: no fanout, no
    randomness. Nodes are in canonical order (unique targets in request
    order, then the rest ascending). The edges are exactly the CSR
    slices walked — every in-edge of every node within ``hops - 1`` hops
    — in ascending parent edge id (``edge_ids``), so each kept
    in-neighbourhood lists its edges in the parent's order.

    The contract, for a model of ``hops`` message-passing layers: the
    layer-``l`` output of a node within ``hops - l`` hops of a target is
    what the parent graph gives it, because that node kept all its
    in-edges and their sources are within ``hops - l + 1`` hops. Rows
    further out (the outermost nodes have no in-edges here at all)
    would hold other values; nothing on the way to the targets' outputs
    reads them, the detector never computes them, and they receive
    zero gradient. A loss over the targets therefore has the parent's
    value and the parent's parameter gradients.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")
    targets = np.asarray(targets, dtype=np.int64)
    frontier = unique_targets = _first_occurrence_unique(targets)
    indptr, src_sorted, edge_id_sorted = graph.csr()
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[frontier] = True
    discovered: List[np.ndarray] = []
    walked: List[np.ndarray] = []
    for _ in range(hops):
        positions, _ = _concat_csr_slices(indptr, frontier)
        if len(positions) == 0:
            break
        walked.append(positions)
        neighbors = src_sorted[positions]
        frontier = np.unique(neighbors[~visited[neighbors]])
        visited[frontier] = True
        discovered.append(frontier)
    rest = np.sort(np.concatenate(discovered)) if discovered else _EMPTY
    # A node enters the frontier once, so no CSR slice is walked twice.
    edge_ids = np.sort(edge_id_sorted[np.concatenate(walked)]) if walked else _EMPTY
    return _induce(graph, np.concatenate([unique_targets, rest]), targets, edge_ids)


def _induce(
    graph: HeteroGraph,
    nodes: np.ndarray,
    targets: np.ndarray,
    edge_ids: Optional[np.ndarray] = None,
) -> SampledSubgraph:
    """Induce the subgraph (or keep just ``edge_ids``) and locate the
    targets — no Python dict.

    The position map is a sorted lookup (``argsort`` + ``searchsorted``)
    over the canonical node order, O(k log k) instead of the former
    O(k) dict build + per-target Python hashing.
    """
    subgraph, original_ids = graph.subgraph(nodes, edge_ids=edge_ids)
    if len(targets):
        sorter = np.argsort(original_ids, kind="stable")
        target_local = sorter[np.searchsorted(original_ids, targets, sorter=sorter)]
        target_local = target_local.astype(np.int64)
    else:
        target_local = _EMPTY
    return SampledSubgraph(
        graph=subgraph, target_local=target_local, original_ids=original_ids, edge_ids=edge_ids
    )


def _induce_disjoint(graph: HeteroGraph, roots: np.ndarray, seen: np.ndarray) -> SampledSubgraph:
    """The stacked induced subgraphs of a disjoint walk, in one pass.

    ``seen`` holds every sampled ``(component, node)`` key ascending and
    ``roots`` the targets' own. Nodes are laid out component by
    component in the canonical order (target first, the rest ascending)
    and every kept edge joins two nodes of ONE component, ascending
    parent edge id inside each — what :meth:`HeteroGraph.subgraph`
    induces per singleton sample and :func:`stack_subgraphs` shifts.
    """
    stride, total = graph.num_nodes, len(seen)
    component, node = np.divmod(seen, stride)
    root = roots[component]
    rooted = seen == root
    # Ascending keys put a component's target somewhere inside it; its
    # slot is the component's first, every node before it moves up one.
    sizes = np.bincount(component, minlength=len(roots))
    starts = np.cumsum(sizes) - sizes
    slot = np.arange(total, dtype=np.int64)
    slot += seen < root
    slot[rooted] = starts
    original_ids = np.empty(total, dtype=np.int64)
    original_ids[slot] = node

    indptr, src_sorted, edge_id_sorted = graph.csr()
    positions, counts = _concat_csr_slices(indptr, original_ids)
    edge_dst = np.repeat(np.arange(total, dtype=np.int64), counts)
    edge_owner = np.repeat(component, counts)  # a move inside a component keeps it
    inside, at = _in_sorted(seen, edge_owner * stride + src_sorted[positions])
    edge_ids = edge_id_sorted[positions[inside]]
    order = np.argsort(edge_owner[inside] * graph.num_edges + edge_ids)
    edge_ids = edge_ids[order]
    sub = HeteroGraph.derived(
        graph.node_type[original_ids],
        slot[at[inside]][order],
        edge_dst[inside][order],
        graph.edge_type[edge_ids],
        graph.txn_features[original_ids],
        graph.labels[original_ids],
    )
    return SampledSubgraph(graph=sub, target_local=starts, original_ids=original_ids)
