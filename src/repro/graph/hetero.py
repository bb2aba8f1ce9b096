"""Heterogeneous transaction graph data structure.

The paper (Sec. 3.1) formulates fraud detection on a heterogeneous
graph whose node-type set is ``{txn, pmt, email, addr, buyer}``. Edges
connect a transaction to each linking entity it uses. Only transaction
nodes carry input features (computed by a risk identifier); entity
nodes start empty and receive representations after the first
convolution layer.

:class:`HeteroGraph` stores the graph in flat numpy arrays — node type
ids, directed edge lists with edge-type ids, a feature row per
transaction, and labels — plus a lazily built CSR (:class:`InEdges`).

A static graph owns exactly those arrays. One that grows through
:meth:`HeteroGraph.append_delta` keeps each behind a spare-capacity
buffer and publishes exact-length prefix views, so a delta costs
amortised O(delta) rows written rather than a copy of the graph; the
CSR's buckets keep headroom, so no old CSR entry moves either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Canonical node-type vocabulary (order defines integer ids).
NODE_TYPES: Tuple[str, ...] = ("txn", "pmt", "email", "addr", "buyer")
NODE_TYPE_IDS: Dict[str, int] = {name: i for i, name in enumerate(NODE_TYPES)}

#: Directed edge-type vocabulary. A transaction connects to each entity
#: type in both directions so messages flow entity->txn and txn->entity.
EDGE_TYPES: Tuple[str, ...] = (
    "txn->pmt",
    "pmt->txn",
    "txn->email",
    "email->txn",
    "txn->addr",
    "addr->txn",
    "txn->buyer",
    "buyer->txn",
)
EDGE_TYPE_IDS: Dict[str, int] = {name: i for i, name in enumerate(EDGE_TYPES)}

_TXN = NODE_TYPE_IDS["txn"]


def edge_type_between(src_type: str, dst_type: str) -> int:
    """Edge-type id for a directed edge ``src_type -> dst_type``."""
    key = f"{src_type}->{dst_type}"
    if key not in EDGE_TYPE_IDS:
        raise KeyError(f"no edge type between {src_type} and {dst_type}")
    return EDGE_TYPE_IDS[key]


#: ``(edge types, 2)``: the (source, destination) node-type ids of each
#: edge type. Every one joins a transaction to an entity.
EDGE_ENDPOINTS: np.ndarray = np.array(
    [[NODE_TYPE_IDS[end] for end in name.split("->")] for name in EDGE_TYPES]
)
#: The edge type each (source type, destination type) pair implies, at
#: ``source * len(NODE_TYPES) + destination``; ``-1`` where none does.
_EDGE_TYPE_OF_PAIR = np.full(len(NODE_TYPES) ** 2, -1)
_EDGE_TYPE_OF_PAIR[EDGE_ENDPOINTS[:, 0] * len(NODE_TYPES) + EDGE_ENDPOINTS[:, 1]] = range(
    len(EDGE_TYPES)
)


def link_edges(
    txn: Sequence[int], entity: Sequence[int], entity_type: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The directed edges of (transaction, entity) links — Sec. 3.1's one
    construction rule. Link ``k`` becomes edge ``2k``, ``txn -> entity``,
    then edge ``2k + 1``, ``entity -> txn``, each typed by its endpoints'
    node types (``entity_type[k]`` is the entity's). Returns
    ``(edge_src, edge_dst, edge_type)``; a link whose entity is a
    transaction gets type ``-1``, which a graph refuses."""
    kind = np.asarray(entity_type, dtype=np.int64)
    src = np.empty(2 * len(kind), dtype=np.int64)
    dst = np.empty_like(src)
    edge_type = np.empty_like(src)
    src[0::2] = dst[1::2] = txn
    src[1::2] = dst[0::2] = entity
    edge_type[0::2] = _EDGE_TYPE_OF_PAIR[_TXN * len(NODE_TYPES) + kind]
    edge_type[1::2] = _EDGE_TYPE_OF_PAIR[kind * len(NODE_TYPES) + _TXN]
    return src, dst, edge_type


def _check_edge_schema(src_type: np.ndarray, dst_type: np.ndarray, edge_type: np.ndarray) -> None:
    """Raise ValueError unless each edge's type is the one its endpoints'
    node types imply (one lookup per edge, no ``(E, 2)`` temporaries)."""
    implied = _EDGE_TYPE_OF_PAIR[src_type * len(NODE_TYPES) + dst_type]
    if not np.array_equal(implied, edge_type):
        bad = int(np.flatnonzero(implied != edge_type)[0])
        raise ValueError(
            f"edge {bad} is typed {EDGE_TYPES[edge_type[bad]]} but joins "
            f"{NODE_TYPES[src_type[bad]]}->{NODE_TYPES[dst_type[bad]]}"
        )


def _check_growth(
    node_type: np.ndarray,
    labels: np.ndarray,
    txn_table: np.ndarray,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    edge_type: np.ndarray,
    before: Optional[np.ndarray] = None,
    feature_dim: Optional[int] = None,
) -> None:
    """Raise ValueError unless the nodes (``node_type``, ``labels``, a
    ``txn_table`` row per transaction) and the edges are what a graph
    whose nodes have types ``before`` can grow by: an
    :meth:`HeteroGraph.append_delta` delta, whose edges may join old
    nodes and new. ``before=None`` checks a whole graph as grown from
    none (:meth:`HeteroGraph.validate`); its messages drop "delta"."""
    what, rows, count, old = "", "transactions", "num_nodes", 0
    if before is not None:
        what, rows, count, old = "delta ", "new transactions", "new_nodes", len(before)
    is_txn = node_type == _TXN
    if not (len(edge_src) == len(edge_dst) == len(edge_type)):
        raise ValueError(f"{what}edge arrays must have equal length")
    if (
        txn_table.ndim != 2
        or len(txn_table) != np.count_nonzero(is_txn)
        or (feature_dim is not None and txn_table.shape[1] != feature_dim)
    ):
        raise ValueError(f"{what}txn_table must be ({rows}, feature_dim)")
    if labels.shape != (len(node_type),):
        raise ValueError(f"{what}labels must be ({count},)")
    grown = old + len(node_type)
    if len(edge_src) and (
        edge_src.min() < 0 or edge_src.max() >= grown or edge_dst.min() < 0 or edge_dst.max() >= grown
    ):
        raise ValueError(f"{what}edge endpoints out of range")
    if len(node_type) and (node_type.min() < 0 or node_type.max() >= len(NODE_TYPES)):
        raise ValueError(f"{what}node types out of range")
    if len(edge_type) and (edge_type.min() < 0 or edge_type.max() >= len(EDGE_TYPES)):
        raise ValueError(f"{what}edge types out of range")

    def types_of(nodes: np.ndarray) -> np.ndarray:  # without building the grown array
        if not old:
            return node_type[nodes]
        types = np.empty_like(nodes)
        inside = nodes < old
        types[inside] = before[nodes[inside]]
        types[~inside] = node_type[nodes[~inside] - old]
        return types

    if len(edge_type):
        _check_edge_schema(types_of(edge_src), types_of(edge_dst), edge_type)
    if np.any(labels[~is_txn] != -1):
        raise ValueError("only txn nodes may carry labels")


def _reserve(buffers: Dict[str, np.ndarray], name: str, view: np.ndarray, extra: int) -> np.ndarray:
    """``buffers[name]``, holding ``view``'s rows with room for ``extra`` more.

    The buffer is reused while the rows fit. Otherwise — first delta,
    capacity exhausted, or a foreign array assigned over the attribute
    (``view.base`` is not the buffer) — the rows are copied into a fresh
    one half as large again as needed, so copying over a whole stream is
    O(final size). Spare rows are ``np.empty``: pages nobody wrote cost
    no memory.
    """
    buffer = buffers.get(name)
    needed = len(view) + extra
    if buffer is None or view.base is not buffer or needed > len(buffer):
        buffer = buffers[name] = np.empty((needed + needed // 2,) + view.shape[1:], view.dtype)
        buffer[: len(view)] = view
    return buffer


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i] : starts[i] + counts[i]`` for every ``i``, concatenated."""
    ends = counts.cumsum()  # methods: a numpy function's dispatch is most of the cost here
    if len(ends) == 0 or ends[-1] == 0:
        return np.zeros(0, dtype=np.int64)
    return (starts - (ends - counts)).repeat(counts) + np.arange(ends[-1], dtype=np.int64)


class InEdges(NamedTuple):
    """The in-edge CSR of :meth:`HeteroGraph.csr`, in buckets with headroom.

    Node ``v``'s in-edges are one run of ``indptr[v + 1] - indptr[v]``
    slots of ``src`` / ``edge_id`` from ``base[v]``, ascending edge id,
    inside a bucket of ``cap[v]`` slots no other bucket overlaps.
    ``indptr`` is the canonical prefix sum of the in-degrees: entry ``i``
    of ``v``'s run has CSR *position* ``indptr[v] + i``, the key the SAGE
    fanout hashes. A CSR built from the edge arrays has no headroom
    (``base`` is ``indptr[:-1]``, ``cap`` the degrees).
    """

    indptr: np.ndarray
    base: np.ndarray
    cap: np.ndarray
    src: np.ndarray
    edge_id: np.ndarray



@dataclass
class HeteroGraph:
    """A typed transaction graph in flat-array form.

    Attributes
    ----------
    node_type:
        ``(N,)`` int array of :data:`NODE_TYPES` ids.
    edge_src, edge_dst, edge_type:
        ``(E,)`` int arrays describing directed edges.
    txn_table:
        ``(T, F)`` float array, one row per transaction node and none
        per entity (Sec. 3.2(1): the other four types start empty).
        Row ``k`` is the ``k``-th transaction in node order, so the node
        -> row map (:attr:`txn_row`) is a function of ``node_type``.
    labels:
        ``(N,)`` int array: 1 fraud, 0 legit, -1 unlabeled / non-txn.
    """

    node_type: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_type: np.ndarray
    txn_table: np.ndarray
    labels: np.ndarray
    _csr: Optional[InEdges] = field(default=None, repr=False, compare=False)
    _version: int = field(default=0, repr=False, compare=False)
    #: Spare-capacity buffers behind the arrays :meth:`append_delta` has
    #: grown, by name; ``None`` on a graph that never appended.
    _buffers: Optional[Dict[str, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: :attr:`txn_row` once read, while it is ``num_nodes`` long.
    _txn_row: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.node_type = np.asarray(self.node_type, dtype=np.int64)
        self.edge_src = np.asarray(self.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(self.edge_dst, dtype=np.int64)
        self.edge_type = np.asarray(self.edge_type, dtype=np.int64)
        table = np.asarray(self.txn_table)
        self.txn_table = table if np.issubdtype(table.dtype, np.floating) else table.astype(float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.validate()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ValueError on violation —
        the whole graph checked as a delta onto an empty one."""
        _check_growth(
            self.node_type, self.labels, self.txn_table, self.edge_src, self.edge_dst, self.edge_type
        )

    # ------------------------------------------------------------------
    # Basic statistics
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_type)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    @property
    def feature_dim(self) -> int:
        return self.txn_table.shape[1]

    @property
    def txn_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_type == _TXN)

    @property
    def txn_row(self) -> np.ndarray:
        """``(N,)``: each node's :attr:`txn_table` row, ``-1`` for an
        entity — derived on first read, extended by :meth:`append_delta`."""
        if self._txn_row is None or len(self._txn_row) != len(self.node_type):
            is_txn = self.node_type == _TXN
            self._txn_row = rows = is_txn.cumsum() - 1  # cheaper than np.where on small graphs
            rows[~is_txn] = -1
        return self._txn_row

    def txn_rows(self, nodes) -> np.ndarray:
        """:attr:`txn_table` rows of the transaction ``nodes``; an entity has none: ValueError."""
        rows = self.txn_row[nodes]
        if (rows < 0).any():
            raise ValueError(f"nodes {np.asarray(nodes)[rows < 0].tolist()} are not transactions")
        return rows

    def txn_table_of(self, nodes: np.ndarray) -> np.ndarray:
        """The table of a graph on ``nodes``, in that order: its transactions' rows."""
        rows = self.txn_row[nodes]
        return self.txn_table.take(rows[rows >= 0], axis=0)  # take: cheaper than [] on a sample

    @property
    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0)

    def node_type_counts(self) -> Dict[str, int]:
        """Per-type node counts (Table 6 of the paper)."""
        counts = np.bincount(self.node_type, minlength=len(NODE_TYPES))
        return {name: int(counts[i]) for i, name in enumerate(NODE_TYPES)}

    def fraud_rate(self) -> float:
        """Fraction of labeled transactions that are fraudulent."""
        labeled = self.labels[self.labels >= 0]
        if len(labeled) == 0:
            return 0.0
        return float(labeled.mean())

    def edges_per_node(self) -> float:
        """Undirected sparsity measure used in Figure 1 / Table 5.

        The paper counts each transaction-entity link once, while this
        structure stores both directions, hence the halving.
        """
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / 2.0 / self.num_nodes

    # ------------------------------------------------------------------
    # Mutation tracking
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic structure version; caches key on it (see
        :class:`~repro.graph.cache.SubgraphCache`)."""
        return self._version

    def mark_mutated(self, structural: bool = True) -> None:
        """Declare an in-place edit: bumps :attr:`version` (invalidating
        any keyed subgraph caches) and — for *structural* edits — drops
        the CSR so it is rebuilt from the edited edge arrays.

        ``structural=False`` covers edits that change node payload but
        not adjacency (the streaming label feed flipping ``labels``
        entries when a chargeback lands): cached subgraphs still must
        not be served (they snapshot labels), but the CSR stays valid.
        """
        self._version += 1
        if structural:
            self._csr = None

    def append_delta(
        self,
        node_type: Sequence[int],
        labels: Sequence[int],
        txn_table: np.ndarray,
        edge_src: Sequence[int],
        edge_dst: Sequence[int],
        edge_type: Sequence[int],
    ) -> None:
        """Append new nodes/edges *in place*, growing the cached CSR;
        ``txn_table`` holds a row per new transaction, in node order.

        The streaming ingestion path (:class:`repro.stream.builder.
        IncrementalGraphBuilder`) flushes event deltas through this so
        the exact object held by a live :class:`~repro.serving.service.
        ScoringService` grows under the serving workload. Identity is
        preserved (``id(graph)`` and therefore the
        :class:`~repro.graph.cache.SubgraphCache` token stay stable) and
        :attr:`version` is bumped exactly once per delta.

        Growth is amortised O(delta): each grown array lives in a
        spare-capacity buffer (:func:`_reserve`) and the public
        attribute is its exact-length prefix view, so a delta writes
        only its own rows. The call is all-or-nothing — validate, grow
        buffers, write past the published lengths, then publish views,
        CSR and version together — so an array captured before a delta
        (``old = graph.labels``) keeps its length and its prefix, and a
        rejected delta changes nothing. New edges may reference both old
        and new nodes; only the delta is validated (O(delta)), against
        the grown node count and the old nodes' types.

        A built CSR is grown rather than dropped (:meth:`_grow_csr`):
        each in-edge goes into its bucket's headroom, so old entries
        never move and the compacted view equals a full stable rebuild.
        ``indptr`` is added to in place: a CSR is good until the next
        delta, after which holders re-read :meth:`csr`.
        """
        new_nt = np.asarray(node_type, dtype=np.int64)
        new_labels = np.asarray(labels, dtype=np.int64)
        new_table = np.asarray(txn_table, dtype=self.txn_table.dtype)
        new_src = np.asarray(edge_src, dtype=np.int64)
        new_dst = np.asarray(edge_dst, dtype=np.int64)
        new_et = np.asarray(edge_type, dtype=np.int64)
        _check_growth(
            new_nt, new_labels, new_table, new_src, new_dst, new_et, self.node_type, self.feature_dim
        )
        grown = self.num_nodes + len(new_nt)
        is_txn = new_nt == _TXN

        delta = {
            "node_type": new_nt,
            "labels": new_labels,
            "txn_table": new_table,
            "edge_src": new_src,
            "edge_dst": new_dst,
            "edge_type": new_et,
        }
        if self._txn_row is not None and len(self._txn_row) == self.num_nodes:
            delta["_txn_row"] = np.where(is_txn, len(self.txn_table) + np.cumsum(is_txn) - 1, -1)
        buffers = dict(self._buffers or {})
        views = {}
        for name, rows in delta.items():
            if len(rows):
                view = getattr(self, name)
                buffer = _reserve(buffers, name, view, len(rows))
                buffer[len(view) : len(view) + len(rows)] = rows
                views[name] = buffer[: len(view) + len(rows)]
        csr = self._csr
        if csr is not None:
            csr = self._grow_csr(csr, grown, new_src, new_dst, buffers)
        for name, view in views.items():
            setattr(self, name, view)
        self._buffers, self._csr = buffers, csr
        self._version += 1

    @staticmethod
    def _grow_csr(
        csr: InEdges,
        num_nodes: int,
        new_src: np.ndarray,
        new_dst: np.ndarray,
        buffers: Dict[str, np.ndarray],
    ) -> InEdges:
        """Write delta in-edges into an existing CSR's buckets.

        Per destination the run becomes [old entries in their old order,
        new entries in ascending edge id] — exactly what
        ``np.argsort(edge_dst, kind="stable")`` over the grown edge
        arrays lists, so the compacted view of a grown CSR and a rebuilt
        one are interchangeable (held to it by ``repro check``, against
        :func:`repro.check.reference.splice_csr`).

        A bucket with room takes its new entries in place. One without
        — and every new node's, which has none — moves once to the tail
        with room for twice its new size, so the moves of a whole stream
        cost O(final size). Old slots are left behind, never shifted;
        the one O(nodes) step is the in-place add over ``indptr``.
        """
        indptr, base, cap, src, edge_id = csr
        old_nodes, tail, grown = len(base), len(src), num_nodes - len(base)
        indptr = _reserve(buffers, "indptr", indptr, grown)[: num_nodes + 1]
        base = _reserve(buffers, "base", base, grown)[:num_nodes]
        cap = _reserve(buffers, "cap", cap, grown)[:num_nodes]
        indptr[old_nodes + 1 :] = indptr[old_nodes]
        base[old_nodes:], cap[old_nodes:] = tail, 0
        if not len(new_dst):
            return InEdges(indptr, base, cap, src, edge_id)
        order = np.argsort(new_dst, kind="stable")
        dst = new_dst[order]
        runs = np.flatnonzero(np.concatenate(([True], dst[1:] != dst[:-1], [True])))
        nodes, counts = dst[runs[:-1]], np.diff(runs)
        degree = indptr[nodes + 1] - indptr[nodes]
        moves = degree + counts > cap[nodes]
        movers, kept, room = nodes[moves], degree[moves], 2 * (degree + counts)[moves]
        needed = int(room.sum())
        src = _reserve(buffers, "src_by_dst", src, needed)
        edge_id = _reserve(buffers, "edge_id_by_dst", edge_id, needed)
        old_slots = _ranges(base[movers], kept)
        base[movers], cap[movers] = tail + np.cumsum(room) - room, room
        new_slots = _ranges(base[movers], kept)
        src[new_slots], edge_id[new_slots] = src[old_slots], edge_id[old_slots]
        at = np.repeat(base[nodes] + degree - runs[:-1], counts) + np.arange(len(dst))
        src[at], edge_id[at] = new_src[order], order + indptr[-1]
        indptr[nodes[0] + 1 :] += np.repeat(runs[1:], np.diff(nodes, append=num_nodes))
        return InEdges(indptr, base, cap, src[: tail + needed], edge_id[: tail + needed])

    def rebuild_csr(self) -> InEdges:
        """Drop any (possibly delta-grown) CSR and rebuild it without headroom.

        The from-scratch side of every grown-vs-rebuilt comparison
        (``repro.check``, the stream demo's gate): one freshly sorted
        layout whose compacted view is bit-identical to the grown CSR it
        replaces, so the :attr:`version` is *not* bumped and warm
        subgraph caches stay valid. Nothing on the serving path calls it
        — compaction keeps the grown CSR.
        """
        self._csr = None
        return self.csr()

    def with_features(self, txn_table: np.ndarray) -> "HeteroGraph":
        """Shallow clone sharing every structure array, with ``txn_table``
        swapped in — O(1), no re-validation, CSR carried over.

        The serving path hydrates KV-fetched transaction rows onto
        cached sampled subgraphs through this instead of mutating the
        shared instance, so a :class:`~repro.graph.cache.SubgraphCache`
        hit can never observe another request's features.
        """
        txn_table = np.asarray(txn_table)
        if txn_table.ndim != 2 or len(txn_table) != len(self.txn_table):
            raise ValueError("txn_table must be (transactions, feature_dim)")
        if self._buffers and self._csr is not None:
            # The clone shares this CSR's arrays: give up growing them
            # in place, so the next delta re-adopts them by copy.
            for name in ("indptr", "base", "cap", "src_by_dst", "edge_id_by_dst"):
                self._buffers.pop(name, None)
        arrays = (self.node_type, self.edge_src, self.edge_dst, self.edge_type)
        clone = HeteroGraph.derived(*arrays, txn_table, self.labels)
        clone._csr, clone._version, clone._txn_row = self._csr, self._version, self._txn_row
        return clone

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def csr(self) -> InEdges:
        """The in-edge CSR (:class:`InEdges`): node ``v``'s incoming
        edges are ``src`` / ``edge_id`` at ``base[v]`` onwards, in
        ascending edge id, ``indptr[v + 1] - indptr[v]`` of them. Built
        lazily, without headroom, and cached; :meth:`append_delta` grows it.
        """
        if self._csr is None:
            order = np.argsort(self.edge_dst, kind="stable")
            counts = np.bincount(self.edge_dst, minlength=self.num_nodes)
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._csr = InEdges(indptr, indptr[:-1], counts, self.edge_src[order], order)
        return self._csr

    def in_neighbors(self, node: int) -> np.ndarray:
        """Source nodes of edges pointing at ``node``."""
        return self.edge_src[self.in_edges(node)]

    def in_edges(self, node: int) -> np.ndarray:
        """Edge ids (into the flat edge arrays) pointing at ``node``."""
        indptr, base, _, _, edge_ids = self.csr()
        return edge_ids[base[node] : base[node] + indptr[node + 1] - indptr[node]]

    def degree(self) -> np.ndarray:
        """In-degree per node (== out-degree for symmetric graphs)."""
        return np.bincount(self.edge_dst, minlength=self.num_nodes)

    # ------------------------------------------------------------------
    # Subgraph extraction
    # ------------------------------------------------------------------
    def subgraph(
        self, nodes: Sequence[int], edge_ids: Optional[np.ndarray] = None
    ) -> Tuple["HeteroGraph", np.ndarray]:
        """Induced subgraph on ``nodes``: every edge with both endpoints
        in ``nodes``, in parent edge id order — one O(N + E) pass, for
        partitions, communities and specs (a sampler induces its own
        sample from its walk's keys, :func:`~repro.graph.sampling._induce`).

        Returns the subgraph plus the array mapping local index ->
        original node id. Node order follows the order of ``nodes``.

        ``edge_ids`` replaces induction: the subgraph keeps exactly
        those edges, in the order given, and both endpoints of each must
        be in ``nodes`` (:func:`~repro.graph.sampling.receptive_field`
        keeps fewer edges than ``nodes`` induce).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        index = np.arange(len(nodes), dtype=np.int64)
        local_of = np.full(self.num_nodes, -1, dtype=np.int64)
        local_of[nodes] = index
        if len(nodes) and np.any(local_of[nodes] != index):
            raise ValueError("subgraph nodes must be unique")
        if edge_ids is None:
            inside = (local_of[self.edge_src] >= 0) & (local_of[self.edge_dst] >= 0)
            edge_ids = np.flatnonzero(inside)
        sub = HeteroGraph.derived(
            self.node_type[nodes],
            local_of[self.edge_src[edge_ids]],
            local_of[self.edge_dst[edge_ids]],
            self.edge_type[edge_ids],
            self.txn_table_of(nodes),
            self.labels[nodes],
        )
        return sub, nodes

    @staticmethod
    def derived(
        node_type: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_type: np.ndarray,
        txn_table: np.ndarray,
        labels: np.ndarray,
    ) -> "HeteroGraph":
        """Trusted construction from arrays derived from an already
        validated graph (a sample of it, a slice of a sample): every
        invariant holds by derivation, so the O(nodes + edges)
        re-validation is skipped on the per-request path."""
        sub = object.__new__(HeteroGraph)  # CSR, version and row map: the class defaults
        sub.node_type, sub.edge_src, sub.edge_dst = node_type, edge_src, edge_dst
        sub.edge_type, sub.txn_table, sub.labels = edge_type, txn_table, labels
        return sub

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_links(
        node_types: Sequence[int],
        links: Sequence[Tuple[int, int]],
        txn_table: np.ndarray,
        labels: Sequence[int],
    ) -> "HeteroGraph":
        """Build from undirected (txn, entity) links, adding both
        directions (:func:`link_edges`)."""
        node_type = np.asarray(node_types, dtype=np.int64)
        txn, entity = np.asarray(links, dtype=np.int64).reshape(-1, 2).T
        src, dst, edge_type = link_edges(txn, entity, node_type[entity])
        return HeteroGraph(
            node_type=node_type,
            edge_src=src,
            edge_dst=dst,
            edge_type=edge_type,
            txn_table=txn_table,
            labels=labels,
        )
