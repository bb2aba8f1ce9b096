"""Heterogeneous transaction graph data structure.

The paper (Sec. 3.1) formulates fraud detection on a heterogeneous
graph whose node-type set is ``{txn, pmt, email, addr, buyer}``. Edges
connect a transaction to each linking entity it uses. Only transaction
nodes carry input features (computed by a risk identifier); entity
nodes start empty and receive representations after the first
convolution layer.

:class:`HeteroGraph` stores the graph in flat numpy arrays — node type
ids, directed edge lists with edge-type ids, transaction features, and
labels — plus a lazily built CSR adjacency for neighbour sampling.

A static graph owns exactly those arrays. One that grows through
:meth:`HeteroGraph.append_delta` keeps each behind a spare-capacity
buffer and publishes exact-length prefix views, so a delta costs
amortised O(delta) rows written rather than a copy of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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


def edge_type_between(src_type: str, dst_type: str) -> int:
    """Edge-type id for a directed edge ``src_type -> dst_type``."""
    key = f"{src_type}->{dst_type}"
    if key not in EDGE_TYPE_IDS:
        raise KeyError(f"no edge type between {src_type} and {dst_type}")
    return EDGE_TYPE_IDS[key]


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


@dataclass
class HeteroGraph:
    """A typed transaction graph in flat-array form.

    Attributes
    ----------
    node_type:
        ``(N,)`` int array of :data:`NODE_TYPES` ids.
    edge_src, edge_dst, edge_type:
        ``(E,)`` int arrays describing directed edges.
    txn_features:
        ``(N, F)`` float array; rows of non-``txn`` nodes are zero.
    labels:
        ``(N,)`` int array: 1 fraud, 0 legit, -1 unlabeled / non-txn.
    """

    node_type: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_type: np.ndarray
    txn_features: np.ndarray
    labels: np.ndarray
    _csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    _version: int = field(default=0, repr=False, compare=False)
    #: Spare-capacity buffers behind the arrays :meth:`append_delta` has
    #: grown, by name; ``None`` on a graph that never appended.
    _buffers: Optional[Dict[str, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: All ``-1`` node->local map lent to :meth:`subgraph` (see
    #: :meth:`_borrow_local_map`); ``None`` while borrowed.
    _local_map_scratch: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.node_type = np.asarray(self.node_type, dtype=np.int64)
        self.edge_src = np.asarray(self.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(self.edge_dst, dtype=np.int64)
        self.edge_type = np.asarray(self.edge_type, dtype=np.int64)
        features = np.asarray(self.txn_features)
        if not np.issubdtype(features.dtype, np.floating):
            features = features.astype(np.float64)
        self.txn_features = features
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.validate()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ValueError on violation."""
        n = self.num_nodes
        if not (len(self.edge_src) == len(self.edge_dst) == len(self.edge_type)):
            raise ValueError("edge arrays must have equal length")
        if self.txn_features.ndim != 2 or self.txn_features.shape[0] != n:
            raise ValueError("txn_features must be (num_nodes, feature_dim)")
        if self.labels.shape != (n,):
            raise ValueError("labels must be (num_nodes,)")
        if len(self.edge_src) and (
            self.edge_src.min() < 0
            or self.edge_src.max() >= n
            or self.edge_dst.min() < 0
            or self.edge_dst.max() >= n
        ):
            raise ValueError("edge endpoints out of range")
        if len(self.node_type) and (
            self.node_type.min() < 0 or self.node_type.max() >= len(NODE_TYPES)
        ):
            raise ValueError("node types out of range")
        if len(self.edge_type) and (
            self.edge_type.min() < 0 or self.edge_type.max() >= len(EDGE_TYPES)
        ):
            raise ValueError("edge types out of range")
        labeled = self.labels[self.node_type != NODE_TYPE_IDS["txn"]]
        if len(labeled) and np.any(labeled != -1):
            raise ValueError("only txn nodes may carry labels")

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
        return self.txn_features.shape[1]

    @property
    def txn_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_type == NODE_TYPE_IDS["txn"])

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
        txn_features: np.ndarray,
        edge_src: Sequence[int],
        edge_dst: Sequence[int],
        edge_type: Sequence[int],
    ) -> None:
        """Append new nodes/edges *in place*, splicing the cached CSR.

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
        and new nodes; endpoints are validated against the grown count.

        A built CSR is *spliced* rather than dropped (:meth:`_splice_csr`)
        — bit-identical to a full stable rebuild. Its source / edge-id
        arrays are shifted in place: a CSR tuple is good until the next
        delta, after which holders re-read :meth:`csr`.
        """
        new_nt = np.asarray(node_type, dtype=np.int64)
        new_labels = np.asarray(labels, dtype=np.int64)
        new_feat = np.asarray(txn_features, dtype=self.txn_features.dtype)
        if new_feat.ndim != 2 or new_feat.shape != (len(new_nt), self.feature_dim):
            raise ValueError("delta features must be (new_nodes, feature_dim)")
        if new_labels.shape != (len(new_nt),):
            raise ValueError("delta labels must be (new_nodes,)")
        new_src = np.asarray(edge_src, dtype=np.int64)
        new_dst = np.asarray(edge_dst, dtype=np.int64)
        new_et = np.asarray(edge_type, dtype=np.int64)
        if not (len(new_src) == len(new_dst) == len(new_et)):
            raise ValueError("delta edge arrays must have equal length")
        grown = self.num_nodes + len(new_nt)
        if len(new_src) and (
            new_src.min() < 0
            or new_src.max() >= grown
            or new_dst.min() < 0
            or new_dst.max() >= grown
        ):
            raise ValueError("delta edge endpoints out of range")
        if len(new_nt) and (new_nt.min() < 0 or new_nt.max() >= len(NODE_TYPES)):
            raise ValueError("delta node types out of range")
        if len(new_et) and (new_et.min() < 0 or new_et.max() >= len(EDGE_TYPES)):
            raise ValueError("delta edge types out of range")
        entity = new_nt != NODE_TYPE_IDS["txn"]
        if np.any(new_labels[entity] != -1):
            raise ValueError("only txn nodes may carry labels")

        delta = {
            "node_type": new_nt,
            "labels": new_labels,
            "txn_features": new_feat,
            "edge_src": new_src,
            "edge_dst": new_dst,
            "edge_type": new_et,
        }
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
            csr = self._splice_csr(csr, grown, new_src, new_dst, buffers)
        for name, view in views.items():
            setattr(self, name, view)
        self._buffers, self._csr = buffers, csr
        self._version += 1

    @staticmethod
    def _splice_csr(
        csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
        num_nodes: int,
        new_src: np.ndarray,
        new_dst: np.ndarray,
        buffers: Dict[str, np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Splice delta edges into an existing in-edge CSR, in place.

        Per destination bucket the result is [old entries in their old
        order, new entries stable-sorted by destination] — exactly what
        ``np.argsort(edge_dst, kind="stable")`` over the grown edge
        arrays produces, so callers may treat spliced and rebuilt CSRs
        interchangeably (asserted bit-for-bit by the stream tests).

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

    def rebuild_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drop any (possibly delta-merged) CSR and rebuild canonically.

        The from-scratch side of every splice-vs-rebuild comparison
        (``repro.check``, the stream demo's gate): one freshly sorted
        layout, bit-identical to the merged CSR it replaces, so the
        :attr:`version` is *not* bumped and warm subgraph caches stay
        valid. Nothing on the serving path calls it — compaction keeps
        the spliced CSR.
        """
        self._csr = None
        return self.csr()

    def with_features(self, features: np.ndarray) -> "HeteroGraph":
        """Shallow clone sharing every structure array, with ``features``
        swapped in — O(1), no re-validation, CSR carried over.

        The serving path hydrates KV-fetched feature rows onto cached
        sampled subgraphs through this instead of mutating the shared
        instance, so a :class:`~repro.graph.cache.SubgraphCache` hit can
        never observe another request's features.
        """
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[0] != self.num_nodes:
            raise ValueError("features must be (num_nodes, feature_dim)")
        if self._buffers and self._csr is not None:
            # The clone shares this CSR's arrays: give up splicing them
            # in place, so the next delta re-adopts them by copy.
            self._buffers.pop("src_by_dst", None)
            self._buffers.pop("edge_id_by_dst", None)
        clone = object.__new__(HeteroGraph)
        clone.node_type = self.node_type
        clone.edge_src = self.edge_src
        clone.edge_dst = self.edge_dst
        clone.edge_type = self.edge_type
        clone.txn_features = features
        clone.labels = self.labels
        clone._csr = self._csr
        clone._version = self._version
        return clone

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """In-edge CSR: ``(indptr, src_by_dst, edge_id_by_dst)``.

        For target node ``v``, its incoming edges occupy the slice
        ``indptr[v]:indptr[v + 1]`` of the returned source and edge-id
        arrays. Built lazily and cached.
        """
        if self._csr is None:
            order = np.argsort(self.edge_dst, kind="stable")
            sorted_dst = self.edge_dst[order]
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            counts = np.bincount(sorted_dst, minlength=self.num_nodes)
            indptr[1:] = np.cumsum(counts)
            self._csr = (indptr, self.edge_src[order], order)
        return self._csr

    def in_neighbors(self, node: int) -> np.ndarray:
        """Source nodes of edges pointing at ``node``."""
        indptr, src_sorted, _ = self.csr()
        return src_sorted[indptr[node] : indptr[node + 1]]

    def in_edges(self, node: int) -> np.ndarray:
        """Edge ids (into the flat edge arrays) pointing at ``node``."""
        indptr, _, edge_ids = self.csr()
        return edge_ids[indptr[node] : indptr[node + 1]]

    def degree(self) -> np.ndarray:
        """In-degree per node (== out-degree for symmetric graphs)."""
        return np.bincount(self.edge_dst, minlength=self.num_nodes)

    # ------------------------------------------------------------------
    # Subgraph extraction
    # ------------------------------------------------------------------
    def subgraph(
        self, nodes: Sequence[int], edge_ids: Optional[np.ndarray] = None
    ) -> Tuple["HeteroGraph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph plus the array mapping local index ->
        original node id. Node order follows the order of ``nodes``.

        ``edge_ids`` replaces induction: the subgraph keeps exactly
        those edges, in the order given, and both endpoints of each must
        be in ``nodes`` (:func:`~repro.graph.sampling.receptive_field`
        keeps fewer edges than ``nodes`` induce).

        Two implementations produce bit-identical output: a dense
        O(N + E) membership pass over every edge, and — when the CSR is
        already built and ``nodes`` is a small fraction of the graph —
        a gather of only the edges incident to ``nodes``
        (O(deg(nodes))), which is what makes per-request neighbourhood
        induction cheap on a large serving graph. Both share one
        borrowed node->local map (amortized O(k) per call, no O(N)
        allocation on the hot path).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        local_of = self._borrow_local_map()
        try:
            index = np.arange(len(nodes), dtype=np.int64)
            local_of[nodes] = index
            if len(nodes) and np.any(local_of[nodes] != index):
                raise ValueError("subgraph nodes must be unique")
            if edge_ids is not None:
                src_local = local_of[self.edge_src[edge_ids]]
                dst_local = local_of[self.edge_dst[edge_ids]]
                edge_type = self.edge_type[edge_ids]
            elif self._csr is not None and 0 < len(nodes) * 4 < self.num_nodes:
                candidates = self._candidate_in_edges(nodes)
                src_local_all = local_of[self.edge_src[candidates]]
                keep = src_local_all >= 0
                induced = candidates[keep]
                # Ascending edge ids restore original edge order, so
                # this path is bit-identical to the dense keep mask.
                order = np.argsort(induced, kind="stable")
                induced = induced[order]
                src_local = src_local_all[keep][order]
                dst_local = local_of[self.edge_dst[induced]]
                edge_type = self.edge_type[induced]
            else:
                keep = (local_of[self.edge_src] >= 0) & (local_of[self.edge_dst] >= 0)
                src_local = local_of[self.edge_src[keep]]
                dst_local = local_of[self.edge_dst[keep]]
                edge_type = self.edge_type[keep]
        finally:
            local_of[nodes] = -1  # O(k) reset: the map is clean for reuse
            self._local_map_scratch = local_of
        sub = HeteroGraph.derived(
            self.node_type[nodes],
            src_local,
            dst_local,
            edge_type,
            self.txn_features[nodes],
            self.labels[nodes],
        )
        return sub, nodes

    @staticmethod
    def derived(
        node_type: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_type: np.ndarray,
        txn_features: np.ndarray,
        labels: np.ndarray,
    ) -> "HeteroGraph":
        """Trusted construction from arrays derived from an already
        validated graph (a sample of it, a slice of a sample): every
        invariant holds by derivation, so the O(nodes + edges)
        re-validation is skipped on the per-request path."""
        sub = object.__new__(HeteroGraph)
        sub.node_type = node_type
        sub.edge_src = edge_src
        sub.edge_dst = edge_dst
        sub.edge_type = edge_type
        sub.txn_features = txn_features
        sub.labels = labels
        sub._csr = None
        sub._version = 0
        return sub

    def _borrow_local_map(self) -> np.ndarray:
        """Take ownership of the shared all ``-1`` node->local scratch.

        The borrower must reset the entries it wrote and put the array
        back in ``_local_map_scratch``. While borrowed the attribute is
        ``None``, so a concurrent (or re-entrant) caller simply
        allocates its own copy instead of corrupting the shared one.
        """
        scratch = self._local_map_scratch
        if scratch is None or len(scratch) < self.num_nodes:
            # Sized to node capacity so it outlives the deltas that fit;
            # entries past num_nodes are never indexed.
            capacity = len((self._buffers or {}).get("node_type", self.node_type))
            return np.full(max(capacity, self.num_nodes), -1, dtype=np.int64)
        self._local_map_scratch = None
        return scratch

    def _candidate_in_edges(self, nodes: np.ndarray) -> np.ndarray:
        """Ids of every edge whose *destination* is in ``nodes``
        (unfiltered CSR gather; callers filter by source membership)."""
        indptr, _, edge_ids_by_dst = self._csr
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        offsets = np.cumsum(counts) - counts
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, counts)
            + np.repeat(starts, counts)
        )
        return edge_ids_by_dst[flat]

    def connected_component(self, seed: int) -> np.ndarray:
        """Node ids of the undirected connected component of ``seed``."""
        visited = np.zeros(self.num_nodes, dtype=bool)
        frontier = [int(seed)]
        visited[seed] = True
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for neighbor in self.in_neighbors(node):
                    if not visited[neighbor]:
                        visited[neighbor] = True
                        next_frontier.append(int(neighbor))
            frontier = next_frontier
        return np.flatnonzero(visited)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_links(
        node_types: Sequence[int],
        links: Sequence[Tuple[int, int]],
        txn_features: np.ndarray,
        labels: Sequence[int],
    ) -> "HeteroGraph":
        """Build from undirected (txn, entity) links, adding both directions."""
        node_types = np.asarray(node_types, dtype=np.int64)
        src: List[int] = []
        dst: List[int] = []
        etype: List[int] = []
        for a, b in links:
            type_a = NODE_TYPES[node_types[a]]
            type_b = NODE_TYPES[node_types[b]]
            src.append(a)
            dst.append(b)
            etype.append(edge_type_between(type_a, type_b))
            src.append(b)
            dst.append(a)
            etype.append(edge_type_between(type_b, type_a))
        return HeteroGraph(
            node_type=node_types,
            edge_src=np.array(src, dtype=np.int64),
            edge_dst=np.array(dst, dtype=np.int64),
            edge_type=np.array(etype, dtype=np.int64),
            txn_features=txn_features,
            labels=np.asarray(labels, dtype=np.int64),
        )

    def to_networkx(self):
        """Export as an undirected networkx graph (for centrality)."""
        import networkx as nx

        graph = nx.Graph()
        for node in range(self.num_nodes):
            graph.add_node(node, node_type=NODE_TYPES[self.node_type[node]])
        for src, dst in zip(self.edge_src, self.edge_dst):
            graph.add_edge(int(src), int(dst))
        return graph
