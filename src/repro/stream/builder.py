"""Incremental hetero-graph maintenance over a live event stream.

The batch :func:`~repro.graph.builder.build_graph` converts a whole
transaction log at once; this module applies *time-ordered events* to a
live :class:`~repro.graph.hetero.HeteroGraph` — the same object a
:class:`~repro.serving.service.ScoringService` is scoring against —
without ever replacing it:

* **entity-key dedup** — a shared email/address/payment-token arriving
  in a new transaction links to its *existing* node (the paper's
  fraud-ring mechanic: rings reveal themselves as many transactions
  funnelling into few entities), via the same ``{kind: {external_id:
  node_id}}`` index the batch builder returns;
* **delta buffers** — applied events accumulate in plain lists (new
  nodes, transaction rows, and one ``(txn, entity)`` link per entity
  use) and are materialised in one vectorised
  :meth:`~repro.graph.hetero.HeteroGraph.append_delta` per
  :meth:`flush`, which checks and writes only the delta — rows into the
  graph's spare capacity, in-edges into the headroom of the CSR's
  buckets (amortised O(delta); read in bucket order the CSR is what a
  rebuild lays out) — and bumps the graph version exactly once so
  :class:`~repro.graph.cache.SubgraphCache` keys roll over;
* **compaction** — :meth:`compact` flushes the staged delta and makes
  sure the CSR exists; there is nothing to re-sort or re-check, the
  version is unchanged and warm caches survive;
* **delayed labels** — :meth:`apply_label` flips a transaction's label
  when its chargeback verdict finally lands, a *non-structural*
  mutation (version bump, CSR kept).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..data.events import TxnEvent
from ..graph.builder import build_graph
from ..graph.hetero import NODE_TYPE_IDS, HeteroGraph, link_edges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.records import TransactionLog
    from ..obs.registry import MetricsRegistry

_ENTITY_KINDS = ("pmt", "email", "addr", "buyer")


class IncrementalGraphBuilder:
    """Applies :class:`TxnEvent` deltas to one live :class:`HeteroGraph`."""

    def __init__(
        self,
        feature_dim: int,
        graph: Optional[HeteroGraph] = None,
        index: Optional[Dict[str, Dict[int, int]]] = None,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        if graph is None:
            graph = HeteroGraph(
                node_type=np.zeros(0, dtype=np.int64),
                edge_src=np.zeros(0, dtype=np.int64),
                edge_dst=np.zeros(0, dtype=np.int64),
                edge_type=np.zeros(0, dtype=np.int64),
                txn_table=np.zeros((0, feature_dim)),
                labels=np.zeros(0, dtype=np.int64),
            )
        if graph.feature_dim != feature_dim:
            raise ValueError("graph feature_dim disagrees with feature_dim")
        self.graph = graph
        self.index: Dict[str, Dict[int, int]] = index if index is not None else {
            kind: {} for kind in ("txn",) + _ENTITY_KINDS
        }
        self.feature_dim = feature_dim
        self.events_applied = 0
        self.events_flushed = 0  # by this builder: from_log presets events_applied
        self.labels_applied = 0
        self.compactions = 0
        self.last_compaction_version = graph.version
        self._clear_pending()
        if registry is not None:
            registry.collect(self._collect)

    def _collect(self):
        graph = self.graph
        help = "Events applied to the live graph by the incremental builder."
        yield "counter", "stream_builder_events_total", help, {}, self.events_flushed
        help = "Compactions (flush + CSR build) of the live graph."
        yield "counter", "stream_builder_compactions_total", help, {}, self.compactions
        yield "gauge", "stream_graph_nodes", "Live graph node count.", {}, graph.num_nodes
        yield "gauge", "stream_graph_edges", "Live graph edge count.", {}, graph.num_edges
        yield "gauge", "stream_graph_version", "Live graph mutation version.", {}, graph.version

    # ------------------------------------------------------------------
    @classmethod
    def from_log(
        cls,
        log: "TransactionLog",
        registry: Optional["MetricsRegistry"] = None,
    ) -> "IncrementalGraphBuilder":
        """Warm-start from a batch-built graph (the warmup prefix of a
        stream demo): the batch builder's index seeds entity dedup so
        streamed transactions link into the pre-existing ring structure."""
        graph, index = build_graph(log)
        builder = cls(graph.feature_dim, graph=graph, index=index, registry=registry)
        builder.events_applied = len(index["txn"])
        return builder

    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Events staged in the delta buffers, not yet flushed."""
        return self._pending_events

    def node_of(self, txn_id: int) -> int:
        """Graph node id of a transaction (pending or materialised)."""
        return self.index["txn"][txn_id]

    def _stage_node(self, kind: str) -> int:
        node = self.graph.num_nodes + len(self._pending_node_type)
        self._pending_node_type.append(NODE_TYPE_IDS[kind])
        self._pending_labels.append(-1)
        return node

    def apply(self, event: TxnEvent) -> int:
        """Stage one transaction event; returns the txn's node id.

        The label is *not* taken from the event — it stays ``-1`` until
        the feedback plane matures it through :meth:`apply_label`
        (chargebacks land days after the transaction).
        """
        if event.txn_id in self.index["txn"]:
            raise ValueError(f"duplicate transaction event {event.txn_id}")
        features = np.asarray(event.features, dtype=np.float64)
        if features.shape != (self.feature_dim,):
            raise ValueError(
                f"event features have dim {features.shape}, expected ({self.feature_dim},)"
            )
        txn_node = self._stage_node("txn")
        self._pending_features.append(features)
        self.index["txn"][event.txn_id] = txn_node
        for kind, external_id in event.linked_entities():
            entity = self.index[kind].get(external_id)
            if entity is None:
                entity = self._stage_node(kind)
                self.index[kind][external_id] = entity
            self._pending_links.extend((txn_node, entity, NODE_TYPE_IDS[kind]))
        self._pending_events += 1
        return txn_node

    def flush(self) -> int:
        """Materialise the delta buffers into the live graph in place.

        One :meth:`HeteroGraph.append_delta` call per flush: the graph
        version bumps once, the CSR is grown (not dropped), and the
        object identity the serving layer holds is untouched.
        """
        if self._pending_events == 0:
            return 0
        txn, entity, entity_type = np.array(self._pending_links, dtype=np.int64).reshape(-1, 3).T
        edge_src, edge_dst, edge_type = link_edges(txn, entity, entity_type)
        self.graph.append_delta(
            node_type=self._pending_node_type,
            labels=self._pending_labels,
            txn_table=np.stack(self._pending_features),
            edge_src=edge_src,
            edge_dst=edge_dst,
            edge_type=edge_type,
        )
        applied = self._pending_events
        self.events_applied += applied
        self.events_flushed += applied
        self._clear_pending()
        return applied

    def _clear_pending(self) -> None:
        """Empty the delta buffers: nodes, transaction rows and links
        staged to flush (a link is three ints in ``_pending_links``: txn
        node, entity node, entity type)."""
        self._pending_events = 0
        self._pending_node_type: List[int] = []
        self._pending_labels: List[int] = []
        self._pending_features: List[np.ndarray] = []
        self._pending_links: List[int] = []

    def apply_label(self, txn_id: int, label: int) -> int:
        """Reveal a matured label (chargeback verdict) on the live graph.

        Non-structural mutation: the version bumps so cached subgraphs
        (which snapshot labels) roll over, but the CSR survives.
        """
        if label not in (0, 1):
            raise ValueError("matured labels must be 0 or 1")
        node = self.index["txn"].get(txn_id)
        if node is None:
            raise KeyError(f"unknown transaction {txn_id}")
        if node >= self.graph.num_nodes:
            # Still staged: patch the delta buffer entry.
            self._pending_labels[node - self.graph.num_nodes] = label
        else:
            self.graph.labels[node] = label
            self.graph.mark_mutated(structural=False)
        self.labels_applied += 1
        return node

    def compact(self) -> None:
        """The periodic checkpoint of the live graph: flush any staged
        delta and make sure the CSR exists.

        Nothing is re-sorted or re-checked: every flush writes its
        in-edges where a rebuild lists them and validates its delta on
        the way in (``repro check`` holds both, and audits the whole
        graph), so the version — with every warm cache entry — survives.
        """
        self.flush()
        self.graph.csr()
        self.compactions += 1
        self.last_compaction_version = self.graph.version

    # ------------------------------------------------------------------
    def entity_counts(self) -> Dict[str, int]:
        """Distinct entities seen per kind (dedup effectiveness)."""
        return {kind: len(self.index[kind]) for kind in _ENTITY_KINDS}
