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

:func:`receptive_field` draws nothing: the whole ``hops``-hop
in-closure of the targets, which is what a training step computes its
loss on (every model's ``loss`` calls it). It is one call of
:func:`bfs`, the plain breadth-first walk that communities and the
annotators' seed distances take too.

Purity contract
---------------
Each walk is written once, as CSR array gathers (runs of in-edge slots,
segment top-k via ``np.lexsort``, ``np.unique`` dedup) with no per-node
Python loop, and draws its randomness from a *stateless* hash
(splitmix64 over ``(seed, canonical CSR position)`` for SAGE fanout capping,
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
scores (see :func:`repro.check.reference.stack_subgraphs`, that union's
definition, for why). :class:`HGSampler` walks each component on its
own; :class:`SageSampler` walks every component in one expansion
over ``(component, node)`` pairs (the per-position hash keys
do not know the component, so each keeps exactly the edges its own walk
would). One target, or none, takes the plain
``sample(graph, targets)`` route either way: the union of one component
is that component.

One induction
-------------
Every sample is induced by :func:`_induce`, from its walk's ``(component,
node)`` keys ascending and each component's roots: a disjoint sample
has one root per component, a sample of a target set is one component
rooted at its unique targets in request order. Each component is laid
out roots first, the rest ascending, its edges by ascending parent edge
id, and its start recorded (:attr:`SampledSubgraph.bounds`) as it is
laid out. :func:`gather` — the one way a component leaves its sample —
reads them to stack any ``(sample, component)`` pieces with slices of
each array.
Nothing in the induction is sized by the graph.

The executable spec of both samplers — the scalar node-at-a-time walks
these replaced, asking the same hash the same questions — is
:func:`repro.check.reference.scalar_sample`; ``repro check`` and
``tests/test_fastpath.py`` hold every walk here to it.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .hetero import NODE_TYPE_IDS, NODE_TYPES, HeteroGraph, InEdges, _ranges

_EMPTY = np.zeros(0, dtype=np.int64)
_TXN = NODE_TYPE_IDS["txn"]

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


def _node_ids(graph: HeteroGraph, targets: Sequence[int]) -> np.ndarray:
    """``targets`` as an int64 array, refused with ValueError naming any
    outside ``[0, num_nodes)``."""
    targets = np.asarray(targets, dtype=np.int64)
    if len(targets) and targets.view(np.uint64).max() >= graph.num_nodes:  # negatives wrap
        outside = targets[(targets < 0) | (targets >= graph.num_nodes)]
        raise ValueError(
            f"targets {outside.tolist()} are not nodes of the graph (0..{graph.num_nodes - 1})"
        )
    return targets


def _first_occurrence_unique(values: np.ndarray) -> np.ndarray:
    """Unique values in order of first appearance."""
    if len(values) < 2:
        return values
    _, first = np.unique(values, return_index=True)
    return values[np.sort(first)]


def _concat_csr_slices(
    csr: InEdges, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(slots, counts, starts)`` of the in-edges of ``nodes``: ``slots``
    walks each node's run in order — the flat gather behind every
    vectorized walk here — and ``starts`` holds each run's
    canonical position, ``indptr[v]``."""
    starts = csr.indptr[nodes]
    counts = csr.indptr[nodes + 1] - starts
    return _ranges(csr.base[nodes], counts), counts, starts


def bfs(
    graph: HeteroGraph,
    sources: Sequence[int],
    max_hops: Optional[int] = None,
    max_nodes: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first walk along in-edges from ``sources``, a level at a time.

    Returns ``(nodes, hops, slots)``: the reached nodes in discovery
    order — the order a node-at-a-time BFS visits them when it expands
    each node's in-edges by ascending edge id, the unique sources first
    in request order — each node's hop count, and the CSR slots each
    expanded level walked, level after level. Level ``k`` is expanded
    while ``k < max_hops`` and fewer than ``max_nodes`` nodes are
    reached; ``max_nodes`` keeps the first nodes of discovery order (the
    sources always). A source outside the graph is refused with
    ValueError.
    """
    frontier = _first_occurrence_unique(_node_ids(graph, sources))
    csr = graph.csr()
    seen = np.zeros(graph.num_nodes, dtype=bool)
    seen[frontier] = True
    levels, walked = [frontier], []
    reached = len(frontier)
    while (
        len(frontier)
        and (max_hops is None or len(walked) < max_hops)
        and (max_nodes is None or reached < max_nodes)
    ):
        slots, _, _ = _concat_csr_slices(csr, frontier)
        walked.append(slots)
        neighbors = csr.src[slots]
        frontier = _first_occurrence_unique(neighbors[~seen[neighbors]])
        if max_nodes is not None:
            frontier = frontier[: max_nodes - reached]
        seen[frontier] = True
        reached += len(frontier)
        levels.append(frontier)
    hops = np.repeat(np.arange(len(levels)), [len(level) for level in levels])
    return np.concatenate(levels), hops, np.concatenate(walked) if walked else _EMPTY


@dataclass(eq=False)
class SampledSubgraph:
    """A sampled neighbourhood ready for the model forward pass.

    ``target_local[i]`` is the node of ``graph`` that target ``i`` is
    scored at. It may repeat: a micro-batch's stacked sample holds one
    component per *distinct* target, rooted at that target (its first
    node), and every request for the target names that root.

    Compared and hashed by identity: a ``(sample, component)`` piece is
    a cache entry and a dict key.
    """

    graph: HeteroGraph
    target_local: np.ndarray
    original_ids: np.ndarray
    #: Parent edge id of each edge of ``graph``, ascending — set by
    #: :func:`receptive_field` only (the samplers induce their edges).
    edge_ids: Optional[np.ndarray] = None
    #: :attr:`bounds` of a sample of several components (the disjoint
    #: walk, :func:`gather`, the spec's stack); ``None`` for one.
    offsets: Optional[np.ndarray] = None

    @property
    def num_targets(self) -> int:
        return len(self.target_local)

    @property
    def num_components(self) -> int:
        return 1 if self.offsets is None else len(self.offsets) - 1

    @property
    def bounds(self) -> np.ndarray:
        """``(components + 1, 3)`` int64: the node, edge and transaction
        row at which each component starts, then the totals. Nodes, edges
        and ``txn_table`` rows are laid out component by component, so
        component ``c`` is ``bounds[c]:bounds[c + 1]`` of each, and its
        first node is the target it was sampled for."""
        if self.offsets is not None:
            return self.offsets
        graph = self.graph
        return np.array([[0, 0, 0], [graph.num_nodes, graph.num_edges, len(graph.txn_table)]])


def gather(
    pieces: Sequence[Tuple[SampledSubgraph, int]], slots: Optional[Sequence[int]] = None
) -> SampledSubgraph:
    """The stack of component ``c`` of ``sample`` for each ``(sample, c)``
    of ``pieces``, in order, repeats included: request ``i`` scored at
    the root of component ``slots[i]`` (default: one request per piece).

    Each run of pieces from one sample is cut out of it by its
    :attr:`~SampledSubgraph.bounds` — one index array per kind (nodes,
    edges, rows), no search, nothing read outside the pieces — and the
    runs are shifted and concatenated (:func:`_concatenate`).
    Every component of one sample in order, with the sample's own
    requests, is that sample itself.
    """
    first = pieces[0][0]
    whole = len(pieces) == first.num_components and all(
        sample is first and component == index for index, (sample, component) in enumerate(pieces)
    )
    if whole:
        graph, original_ids, offsets = first.graph, first.original_ids, first.offsets
        roots = first.bounds[:-1, 0]
    else:
        blocks, sizes, sources = [], [], []
        for sample, run in itertools.groupby(pieces, key=operator.itemgetter(0)):
            bounds = sample.bounds
            components = np.array([component for _, component in run])
            lo = bounds[components]
            size = bounds[components + 1] - lo
            # Nodes', edges' and rows' positions in one go, then split.
            positions = _ranges(lo.T.ravel(), size.T.ravel())
            num_nodes, num_edges = size[:, :2].sum(axis=0).tolist()
            nodes = positions[:num_nodes]
            edges = positions[num_nodes : num_nodes + num_edges]
            rows = positions[num_nodes + num_edges :]
            part = sample.graph
            blocks.append(
                (
                    part.node_type[nodes],
                    part.labels[nodes],
                    sample.original_ids[nodes],
                    part.edge_src[edges],
                    part.edge_dst[edges],
                    part.edge_type[edges],
                    part.txn_table.take(rows, axis=0),
                )
            )
            sizes.append(size)
            sources.append(lo[:, 0])
        graph, original_ids, offsets = _concatenate(
            blocks, np.concatenate(sizes), np.concatenate(sources)
        )
        roots = offsets[:-1, 0]
    target_local = roots.copy() if slots is None else roots[slots]
    if whole and target_local.tolist() == first.target_local.tolist():  # ~2 us less than array_equal
        return first
    return SampledSubgraph(graph, target_local, original_ids, offsets=offsets)


def _concatenate(
    blocks: Sequence[Tuple[np.ndarray, ...]], sizes: np.ndarray, sources: np.ndarray
) -> Tuple[HeteroGraph, np.ndarray, np.ndarray]:
    """The shift-and-concatenate behind :func:`gather` and the spec's
    :func:`~repro.check.reference.stack_subgraphs`: ``(graph,
    original_ids, offsets)`` of ``blocks`` laid end to end.

    A block is ``(node_type, labels, original_ids, edge_src, edge_dst,
    edge_type, txn_table)`` holding whole components, numbered its own
    way; a lone block's arrays are taken over, not copied, and its edge
    arrays shifted in place. ``sizes`` holds every component's ``(nodes,
    edges, rows)`` in order, ``sources`` the node it starts at in its
    block's numbering; each edge moves by where its component starts
    now less that.
    """
    offsets = np.zeros((len(sizes) + 1, 3), dtype=np.int64)
    np.cumsum(sizes, axis=0, out=offsets[1:])
    shift = np.repeat(offsets[:-1, 0] - sources, sizes[:, 1])
    node_type, labels, original_ids, edge_src, edge_dst, edge_type, txn_table = (
        np.concatenate(arrays) if len(arrays) > 1 else arrays[0] for arrays in zip(*blocks)
    )
    edge_src += shift
    edge_dst += shift
    # Valid components, each shifted into its own node range: nothing to re-validate.
    graph = HeteroGraph.derived(node_type, edge_src, edge_dst, edge_type, txn_table, labels)
    return graph, original_ids, offsets


def _in_sorted(table: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(found, slot): membership of ``keys`` in the ascending ``table``
    (non-empty, unless ``keys`` is empty too) and, where found, where —
    the ``searchsorted`` the disjoint walk and the induction look
    ``(component, node)`` keys up with."""
    slot = table.searchsorted(keys)
    return table.take(slot, mode="clip") == keys, slot


class _Sampler:
    """What the two samplers share: ``sample()``.

    A subclass supplies ``kind`` and ``steps`` (what a caller labels and
    counts its walks by), ``_expand`` (the walk over the target set:
    every node it samples, ascending) and, when it has one, a one-walk
    ``_walk_disjoint``.
    """

    kind: str

    def sample(
        self, graph: HeteroGraph, targets: Sequence[int], deadline=None, disjoint: bool = False
    ) -> SampledSubgraph:
        """The sampled neighbourhood of the targets as a subgraph.

        ``deadline`` is an optional duck-typed budget (anything with a
        ``check(stage)`` method, e.g. a micro-batch's
        :class:`repro.serving.Deadline`); it is checked once per step
        per walk, so an online request overruns its budget by at most
        one sampling step.

        ``disjoint=True`` returns instead the block-diagonal union of
        one singleton sample per target (repeats included) — array for
        array ``stack_subgraphs([sample(graph, [t]) for t in targets])``.
        One target (or none) is its own union and takes the plain route.
        A target outside ``[0, num_nodes)`` is refused with ValueError.
        """
        targets = _node_ids(graph, targets)
        if disjoint and len(targets) > 1:
            roots = np.arange(len(targets), dtype=np.int64) * graph.num_nodes + targets
            return _induce(graph, self._walk_disjoint(graph, roots, deadline), roots, roots)
        roots = _first_occurrence_unique(targets)
        return _induce(graph, self._expand(graph, roots, deadline), roots, targets)

    def _walk_disjoint(self, graph: HeteroGraph, roots: np.ndarray, deadline) -> np.ndarray:
        """The keys of ``disjoint=True`` by its definition: each root's
        own walk, one after another, keyed by its component."""
        stride = graph.num_nodes
        targets = roots % stride
        walks = [self._expand(graph, targets[c : c + 1], deadline) for c in range(len(roots))]
        return np.concatenate([c * stride + walk for c, walk in enumerate(walks)])


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
        csr = graph.csr()
        visited = np.zeros(graph.num_nodes, dtype=bool)
        visited[unique_targets] = True
        frontier = unique_targets
        discovered: List[np.ndarray] = []
        for hop in range(self.hops):
            if deadline is not None:
                deadline.check(f"sampling hop {hop}")
            if len(frontier):
                slots, counts, starts = _concat_csr_slices(csr, frontier)
                kept = self._kept(starts, counts)
                neighbors = csr.src[slots if kept is None else slots[kept]]
                fresh = np.unique(neighbors[~visited[neighbors]])
                visited[fresh] = True
                discovered.append(fresh)
                frontier = fresh
        return np.sort(np.concatenate([unique_targets, *discovered]))

    def _kept(self, starts: np.ndarray, counts: np.ndarray) -> Optional[np.ndarray]:
        """Which entries of the frontier's concatenated CSR slices (from
        canonical positions ``starts``, ``counts`` long each) survive the
        fanout cap: per slice the ``fanout`` smallest hash keys of their
        positions. ``None`` when no slice is over the cap (keep everything)."""
        if len(counts) == 0 or int(counts.max()) <= self.fanout:
            return None
        keys = _hash_uniform(_ranges(starts, counts), self._edge_salt)
        total = len(keys)
        segments = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        order = np.lexsort((keys, segments))
        offsets = np.cumsum(counts) - counts
        rank = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        return order[rank < self.fanout]

    def _walk_disjoint(self, graph: HeteroGraph, roots: np.ndarray, deadline) -> np.ndarray:
        """Every root's singleton walk as ONE frontier expansion.

        A frontier entry is a ``(component, node)`` key, as ``roots``
        are: one CSR gather per hop serves all components, the fanout
        cap ranks inside each pair's own slice with the hash keys of its
        CSR positions (the keys the singleton walk draws), and
        ``np.unique`` on pair keys dedups per component. Nothing here is
        sized by the graph.
        """
        csr = graph.csr()
        stride = graph.num_nodes
        seen = frontier = roots  # ascending: one key per component so far
        for hop in range(self.hops):
            if deadline is not None:
                deadline.check(f"sampling hop {hop}")
            if len(frontier):
                component, node = np.divmod(frontier, stride)
                slots, counts, starts = _concat_csr_slices(csr, node)
                component = np.repeat(component, counts)
                kept = self._kept(starts, counts)
                if kept is not None:
                    slots, component = slots[kept], component[kept]
                reached = np.unique(component * stride + csr.src[slots])
                frontier = reached[~_in_sorted(seen, reached)[0]]
                seen = np.sort(np.concatenate([seen, frontier]))
        return seen


class HGSampler(_Sampler):
    """HGSampling: type-balanced importance sampling (HGT, Alg. 2).

    Maintains one budget per node type. Each candidate's score is the
    sum over sampled neighbours of ``1 / degree``, squared at sampling
    time to favour nodes tightly connected to the sampled set. Each of
    ``depth`` steps draws up to ``width`` nodes *for every node type*,
    which forces similar per-type counts in the output subgraph.

    Weighted draws use the Efraimidis–Spirakis exponential race
    (``-log(u) / w`` smallest-k) over the stateless hash.
    ``disjoint=True`` walks each target on its own (the budgets of Fig.
    10's subject stay one walk each) and induces their keys once.
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
        csr = graph.csr()
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
            slots, counts, _ = _concat_csr_slices(csr, new_nodes)
            if len(slots) == 0:
                return members
            neighbors = csr.src[slots]
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
        return np.sort(np.concatenate([unique_targets, *discovered]))


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
    value and the parent's parameter gradients. A target outside
    ``[0, num_nodes)`` is refused with ValueError.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")
    targets = _node_ids(graph, targets)
    nodes, depth, slots = bfs(graph, targets, max_hops=hops)
    unique_targets = nodes[: depth.searchsorted(1)]
    nodes[len(unique_targets) :].sort()
    # A node is expanded once, so no CSR slice is walked twice.
    edge_ids = np.sort(graph.csr().edge_id[slots])
    subgraph, original_ids = graph.subgraph(nodes, edge_ids=edge_ids)
    sorter = np.argsort(unique_targets)
    target_local = sorter[np.searchsorted(unique_targets, targets, sorter=sorter)]
    return SampledSubgraph(subgraph, target_local, original_ids, edge_ids=edge_ids)


def _induce(
    graph: HeteroGraph, seen: np.ndarray, roots: np.ndarray, requests: np.ndarray
) -> SampledSubgraph:
    """The induced subgraph of a walk, component by component — the one
    induction of every sample.

    A node is a ``(component, node)`` key, ``component * num_nodes +
    node``: ``seen`` holds every sampled key ascending, ``roots`` each
    component's targets (components ascending, each one's in request
    order) and ``requests`` the key each request is scored at. A
    disjoint sample has one root per component; a sample of a target
    set is one component whose roots are its unique targets.

    Nodes are laid out component by component in the canonical order —
    roots first, the rest ascending — and every kept edge joins two
    nodes of ONE component, ascending parent edge id inside each: what
    :meth:`HeteroGraph.subgraph` induces per component and the spec's
    :func:`~repro.check.reference.stack_subgraphs` shifts. The bounds of
    each component are counted as it is laid out; a sample of one
    records none.
    """
    stride, total = graph.num_nodes, len(seen)
    at = seen.searchsorted(roots)
    rooted = np.zeros(total, dtype=bool)
    rooted[at] = True
    rest = ~rooted
    several = total > 0 and seen[-1] >= stride
    if several:
        component = seen // stride
        root_component = component[at]
        sizes = np.bincount(component)
        roots_in = np.bincount(root_component, minlength=len(sizes))
        rest_in = sizes - roots_in
        # A root moves down past the rest of the components before its
        # own; the rest move up past the roots of theirs and before.
        root_slots = np.arange(len(roots)) + (np.cumsum(rest_in) - rest_in)[root_component]
        rest_slots = np.arange(total - len(roots)) + np.cumsum(roots_in)[component[rest]]
    else:
        root_slots, rest_slots = np.arange(len(roots)), np.arange(len(roots), total)
    slot = np.empty(total, dtype=np.int64)
    slot[at], slot[rest] = root_slots, rest_slots
    original_ids = np.empty(total, dtype=np.int64)
    original_ids[slot] = seen % stride if several else seen

    csr = graph.csr()
    slots, counts, _ = _concat_csr_slices(csr, original_ids)
    edge_dst = np.arange(total, dtype=np.int64).repeat(counts)
    sources = csr.src[slots]
    if several:  # ``component`` ascends, so it is each laid-out node's component too
        owner = np.repeat(component, counts)  # a move inside a component keeps it
        sources += owner * stride
    inside, found = _in_sorted(seen, sources)
    kept = inside.nonzero()[0]
    edge_ids = csr.edge_id[slots[kept]]
    if several:
        owner = owner[kept]
        order = (owner * graph.num_edges + edge_ids).argsort()
    else:
        order = edge_ids.argsort()
    kept, edge_ids = kept[order], edge_ids[order]
    node_type = graph.node_type[original_ids]
    sub = HeteroGraph.derived(
        node_type,
        slot[found[kept]],
        edge_dst[kept],
        graph.edge_type[edge_ids],
        graph.txn_table_of(original_ids),
        graph.labels[original_ids],
    )
    # One request per root needs no search.
    target_local = root_slots if requests is roots else slot[np.searchsorted(seen, requests)]
    if not several:
        return SampledSubgraph(sub, target_local, original_ids)
    offsets = np.zeros((len(sizes) + 1, 3), dtype=np.int64)
    offsets[1:, 0] = np.cumsum(sizes)
    offsets[1:, 1] = np.cumsum(np.bincount(owner, minlength=len(sizes)))
    offsets[1:, 2] = np.cumsum(np.bincount(component[node_type == _TXN], minlength=len(sizes)))
    return SampledSubgraph(sub, target_local, original_ids, offsets=offsets)
