"""The fault-tolerant online scoring service (the deployed xFraud path).

:class:`ScoringService` wraps the detector's production inference path
(``predict_proba_sampled``) in the machinery a latency-bounded fraud
scorer needs to survive heavy traffic and partial outages:

* **Admission control** — a :class:`~repro.serving.admission.TokenBucket`
  rate limiter plus a bounded queue; overload requests are *shed with a
  verdict* (the static prior), never blocked or errored.
* **Deadline budgets** — every admitted request carries a budget on
  a monotonic clock; a micro-batch's budgets are one
  :class:`~repro.serving.deadline.Deadline`, checked for the whole
  batch at once through neighbour sampling and KV feature fetch, so a
  budget can be overrun by at most one pipeline stage.
* **One read path** — feature rows are read with one ``get_many`` per
  ``FETCH_CHUNK`` keys from whatever store is given; a read that fails
  demotes the batch as ``kv_unavailable``. Gating, failover and probing
  belong to the store: a
  :class:`~repro.storage.replicated.ReplicatedKVStore` (a single store
  is a one-replica tier) skips a dead replica without reading it, so a
  store that is truly down degrades requests instantly instead of
  burning their deadlines on doomed reads.
* **Graceful degradation** — a three-rung ladder: full GNN score →
  linked-label score read off the serving graph
  (:func:`linked_label_scores`: no sampler, KV read or forward) →
  configurable static prior. Every response is tagged with the rung
  that produced it and, when degraded, the reason.

Chaos behaviour is scripted through :mod:`repro.reliability.faults`
(:class:`FaultyKVStore` on a :class:`ManualClock`),
keeping every degradation scenario deterministic and replayable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.cache import SubgraphCache
from ..graph.hetero import NODE_TYPE_IDS, HeteroGraph
from ..graph.sampling import SampledSubgraph, _concat_csr_slices, gather
from ..util import batched
from ..obs.registry import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.kvstore import (
    CorruptStoreError,
    KVStore,
    TransientReadError,
    kv_read_metrics,
    propagate_instrument,
)
from ..storage.loader import load_rows
from ..storage.replicated import AllReplicasFailedError
from .admission import SHED_RATE_LIMITED, AdmissionQueue, TokenBucket, check_bucket
from .deadline import Deadline, DeadlineExceeded
from .stats import ServiceStats

RUNG_GNN = "gnn"
RUNG_LINKED = "linked"
RUNG_PRIOR = "prior"
_LADDER = np.array([RUNG_GNN, RUNG_LINKED, RUNG_PRIOR], dtype=object)

VERDICT_FRAUD = "fraud"
VERDICT_LEGIT = "legit"
#: A score at or above this is a fraud verdict.
FRAUD_THRESHOLD = 0.5
#: Feature rows per ``get_many`` (one deadline check each).
FETCH_CHUNK = 32


class FeatureFetchError(RuntimeError):
    """A KV feature read failed: the store had no copy it could serve."""


@dataclass
class ServiceConfig:
    """Operating envelope of one :class:`ScoringService` instance."""

    deadline_s: float = 0.050
    static_prior: float = 0.02
    queue_capacity: int = 64
    rate: float = float("inf")  # admitted requests/s (inf = unlimited)
    burst: float = 128.0  # token-bucket capacity
    # Micro-batching: requests per coalesced sampler-call/forward in
    # score_batch / drain. None = coalesce the whole call into one
    # micro-batch (one forward per degradation rung, however many
    # requests arrive together).
    batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.deadline_s > 0:
            raise ValueError("deadline_s must be positive")
        if not 0.0 <= self.static_prior <= 1.0:
            raise ValueError("static_prior must be within [0, 1]")
        check_bucket(self.rate, self.burst)
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for unbounded)")


@dataclass
class ScoreRequest:
    """One transaction to score: its node in the serving graph."""

    node: int
    deadline_s: Optional[float] = None


@dataclass
class ScoreResponse:
    """The verdict for one request, tagged with how it was produced."""

    node: int
    score: float
    verdict: str  # "fraud" | "legit"
    rung: str  # "gnn" | "linked" | "prior"
    admitted: bool
    latency_s: float = 0.0
    shed_reason: Optional[str] = None
    degraded_reason: Optional[str] = None
    deadline_remaining_s: Optional[float] = None


def linked_label_scores(graph: HeteroGraph, nodes: Sequence[int]) -> np.ndarray:
    """The linked rung's score of each transaction in ``nodes``: over
    the entities it links to, the largest fraud share among each
    entity's *other* labelled transactions (``labels >= 0``); NaN where
    no linked transaction is labelled. Two hops of the in-edge CSR
    (node -> its entities -> their transactions), vectorised over
    ``nodes``: no sampler, KV read or forward, and a node's own label is
    never read. In a stream, ``labels`` holds the matured labels flushed
    so far."""
    nodes = np.asarray(nodes, dtype=np.int64)
    csr = graph.csr()
    slots, links, _ = _concat_csr_slices(csr, nodes)
    entities = csr.src[slots]
    slots, counts, _ = _concat_csr_slices(csr, entities)
    txns = csr.src[slots]
    link = np.repeat(np.arange(len(entities)), counts)  # the (node, entity) link of each txn
    labels = graph.labels[txns]
    seen = (labels >= 0) & (txns != np.repeat(nodes, links)[link])
    labelled = np.bincount(link[seen], minlength=len(entities))
    fraud = np.bincount(link[seen], weights=labels[seen], minlength=len(entities))
    share = np.divide(fraud, labelled, out=np.full(len(entities), -1.0), where=labelled > 0)
    best = np.full(len(nodes), -1.0)
    np.maximum.at(best, np.repeat(np.arange(len(nodes)), links), share)
    best[best < 0] = np.nan
    return best


def _gather_requests(pieces: Sequence[Tuple[SampledSubgraph, int]]) -> SampledSubgraph:
    """Request ``i`` scored on piece ``pieces[i]``: one component per
    distinct piece, in order of first appearance, each request at its
    piece's root."""
    slots = {piece: index for index, piece in enumerate(dict.fromkeys(pieces))}
    return gather(list(slots), [slots[piece] for piece in pieces])


class ScoringService:
    """Online scorer with admission control, deadlines, and degradation.

    Parameters
    ----------
    model:
        Anything exposing ``predict_proba`` and a ``sampler`` (kept as
        :attr:`sampler`), like
        :class:`~repro.models.detector.XFraudDetectorPlus`; a model
        without one is a ``TypeError``.
    graph:
        The serving graph. With a ``feature_store`` the graph supplies
        *structure* (edges, types, labels) while feature rows are
        hydrated per request from the store — the paper's deployment
        shape (Sec. 3.3.3); without one the in-memory features serve.
    feature_store:
        Optional :class:`~repro.storage.kvstore.KVStore` holding each
        transaction's ``feat/{node}`` row (the :class:`~repro.storage.loader.GraphStore`
        layout), read with ``get_many`` and never wrapped: failover and
        the health gate that stops reads of a dead copy are the store's
        own (a
        :class:`~repro.storage.replicated.ReplicatedKVStore`; one store
        is a one-replica tier).
    clock:
        Monotonic clock for deadlines / rate limiting; inject a
        :class:`~repro.reliability.faults.ManualClock` for determinism.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when set, spans land
        on the clock the deadlines use, in one shape for every entry
        point: ``admission`` per request, one ``batch`` per micro-batch
        (children ``sample`` → ``feature_fetch`` → ``forward`` →
        ``rung``), then a ``request`` marker per member.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        set, latencies are observed into registry histograms
        (``service_request_latency_seconds`` per rung,
        ``kv_read_seconds`` per feature chunk,
        ``sampler_sample_seconds`` per sampling stage that walked, with
        ``sampler_hops_total`` counting that walk's steps), the
        registry reads the tallies of :attr:`stats` when it is scraped,
        and the feature store (with every store it wraps) is
        instrumented into it.
        The sampler itself is never touched: services sharing a model
        each see their own walks.
    cache:
        Optional :class:`~repro.graph.cache.SubgraphCache`. When set,
        a micro-batch's sample comes from ``cache.get_or_sample(...)``
        keyed per (target, sampler config, graph version), gathered
        and ready for the forward; with a
        ``registry`` the cache's hit/miss/eviction counters are
        exported automatically.
    """

    def __init__(
        self,
        model,
        graph: HeteroGraph,
        feature_store: Optional[KVStore] = None,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        own_store: bool = False,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        cache: Optional[SubgraphCache] = None,
    ) -> None:
        self.model = model
        if not hasattr(model, "sampler"):
            raise TypeError(
                f"{type(model).__name__} has no `sampler`: ScoringService scores sampled "
                "neighbourhoods (see XFraudDetectorPlus)"
            )
        self.sampler = model.sampler
        self.graph = graph
        self.feature_store = feature_store
        self.config = config or ServiceConfig()
        self.cache = cache
        if cache is not None and registry is not None:
            cache.instrument(registry)
        self._clock = clock
        self._own_store = own_store
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry
        self._kv_reads_total = self._kv_read_seconds = None
        self._sampler_hops_total = self._sampler_sample_seconds = None
        if registry is not None:
            self._kv_reads_total, self._kv_read_seconds = kv_read_metrics(registry)
            self._sampler_hops_total = registry.counter(
                "sampler_hops_total",
                "Neighbour-sampling hops (or budget steps) executed.",
                labels=("sampler",),
            )
            self._sampler_sample_seconds = registry.histogram(
                "sampler_sample_seconds",
                "Latency of one sampling stage that walked (one walk per micro-batch).",
                labels=("sampler",),
            )
        self.stats = ServiceStats(registry=registry)
        if registry is not None and feature_store is not None:
            propagate_instrument(feature_store, registry)
        self.bucket = TokenBucket(self.config.rate, self.config.burst, clock=clock)
        self.queue = AdmissionQueue(self.config.queue_capacity, bucket=self.bucket)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._own_store and self.feature_store is not None:
            self.feature_store.close()
            self.feature_store = None

    def __enter__(self) -> "ScoringService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public scoring API --------------------------------------------
    def score(self, request: Union[int, ScoreRequest]) -> ScoreResponse:
        """Score one request synchronously; always returns a verdict.
        A micro-batch of one through the pass :meth:`score_batch` makes."""
        return self._serve([request])[0]

    def score_batch(self, requests: Sequence[Union[int, ScoreRequest]]) -> List[ScoreResponse]:
        """Score many requests with micro-batched execution.

        Admission is one decision at one clock read: the token bucket
        grants the first ``k`` requests whole tokens, so a request is
        shed exactly when the same requests sent one by one at that
        instant would shed it, with the identical verdict. The
        admitted remainder is coalesced into micro-batches of
        ``config.batch_size`` (``None`` = all at once), each executing
        ONE disjoint sampler walk for whatever the subgraph cache does
        not already hold (cached per target), ONE stacked forward graph
        with one component per distinct target (a repeated request is
        scored on its target's one component), one KV ``get_many`` per
        ``FETCH_CHUNK`` distinct feature rows, and one
        ``predict_proba`` forward per degradation rung actually used —
        not one per request. Scores do not depend on batch composition
        (within float noise); responses come back in request order.
        """
        return self._serve(requests)

    def warm_cache(self, targets: Sequence[int]) -> int:
        """Pre-sample hot targets into the subgraph cache (no scoring).

        Returns the number of targets newly sampled; 0 when the service
        has no cache. Startup warming turns first-hit latency into
        cache hits for known-hot buyers/cards. A target is refused as
        :meth:`score` refuses it (out of range, or not a transaction: no
        ``score()`` could ever hit its entry).
        """
        nodes = self._coerce(targets)[0]
        if self.cache is None or not len(nodes):
            return 0
        return self._sample(nodes.tolist())[1]

    def submit(self, request: Union[int, ScoreRequest]) -> Optional[ScoreResponse]:
        """Enqueue a request; returns a shed response immediately when
        the backlog is full or the rate limiter denies, else ``None``
        (the verdict arrives from :meth:`drain`)."""
        node = int(self._coerce([request])[0][0])
        admitted, reason = self.queue.offer(request)
        if not admitted:
            self.stats.record_shed(reason)
            return self._shed_response(node, reason)
        self.stats.record_admitted()
        return None

    def drain(self) -> List[ScoreResponse]:
        """Serve the queued backlog FIFO, micro-batched; one verdict per
        admitted request (admission already happened in :meth:`submit`)."""
        return self._score_micro_batched(*self._coerce(list(self.queue.drain())))

    # -- internals ------------------------------------------------------
    def _coerce(self, requests: Sequence[Union[int, ScoreRequest]]) -> Tuple[np.ndarray, np.ndarray]:
        """``(nodes, budgets)`` of ``requests`` — ints or
        :class:`ScoreRequest`\\ s — checked as arrays: a node outside
        the graph or not a transaction, or a budget that is not
        positive, is a ``ValueError``."""
        wrapped = [isinstance(request, ScoreRequest) for request in requests]
        budgets = np.full(len(wrapped), self.config.deadline_s)
        if any(wrapped):
            for index in np.flatnonzero(wrapped).tolist():
                if requests[index].deadline_s is not None:
                    budgets[index] = requests[index].deadline_s
            requests = [r.node if inside else r for r, inside in zip(requests, wrapped)]
            if not (budgets > 0).all():  # NaN too
                raise ValueError(f"deadline_s must be positive, got {budgets[~(budgets > 0)][0]}")
        nodes = np.array(requests, dtype=np.int64)
        ids, size = nodes.tolist(), self.graph.num_nodes
        if ids and not (min(ids) >= 0 and max(ids) < size):
            raise ValueError(f"node {next(n for n in ids if not 0 <= n < size)} outside the serving graph")
        entity = self.graph.node_type[nodes] != NODE_TYPE_IDS["txn"]
        if np.count_nonzero(entity):
            raise ValueError(f"node {nodes[entity][0]} is not a transaction: only those are scored")
        return nodes, budgets

    def _serve(self, requests: Sequence[Union[int, ScoreRequest]]) -> List[ScoreResponse]:
        """One pass for a call: coerce, admit the first ``k`` at one
        clock read, score them micro-batched, shed the rest."""
        nodes, budgets = self._coerce(requests)
        admitted = self.bucket.grant(len(nodes))
        if self.tracer.enabled:
            for index, node in enumerate(nodes.tolist()):
                with self.tracer.span("admission", node=node) as span:
                    span.set("admitted", index < admitted)
        self.stats.record_admitted(admitted)
        if admitted < len(nodes):
            self.stats.record_shed(SHED_RATE_LIMITED, len(nodes) - admitted)
        return self._score_micro_batched(nodes[:admitted], budgets[:admitted]) + [
            self._shed_response(node, SHED_RATE_LIMITED) for node in nodes[admitted:].tolist()
        ]

    def _shed_response(self, node: int, reason: str) -> ScoreResponse:
        score = self.config.static_prior
        return ScoreResponse(
            node=node,
            score=score,
            verdict=self._verdict(score),
            rung=RUNG_PRIOR,
            admitted=False,
            shed_reason=reason,
        )

    def _verdict(self, score: float) -> str:
        return VERDICT_FRAUD if score >= FRAUD_THRESHOLD else VERDICT_LEGIT

    # -- the scoring pipeline ------------------------------------------
    def _score_micro_batched(self, nodes: np.ndarray, budgets: np.ndarray) -> List[ScoreResponse]:
        """Admitted requests in, one verdict each out, in order, scored
        ``config.batch_size`` (``None`` = all) at a time."""
        size = self.config.batch_size or max(len(nodes), 1)
        responses: List[ScoreResponse] = []
        for start in range(0, len(nodes), size):
            responses += self._score_admitted_batch(nodes[start : start + size], budgets[start : start + size])
        return responses

    def _score_admitted_batch(self, nodes: np.ndarray, budgets: np.ndarray) -> List[ScoreResponse]:
        """Score already-admitted requests as ONE coalesced unit — the
        only scoring pipeline (:meth:`score` sends a batch of one).

        One stacked sample of the live members' targets (a component
        per distinct target, so a verdict does not depend on batch
        composition; looked up in the cache per target, the misses
        walked together), the KV fetch of its rows, one forward per
        degradation rung used. Per-request deadline semantics ride on
        the batch's :class:`~repro.serving.deadline.Deadline`; a failed
        KV read demotes every member still on the GNN rung. Unlike a
        loop of per-member samples, every member live at the sampling
        stage is looked up before the walk starts: one whose budget ends
        during the walk has been counted by the cache, and the
        survivors' components are gathered out of the sample before any
        row is fetched (the loop never looked it up). The batch's start
        and end are one clock read each: every member shares its
        latency, and its ``deadline_remaining_s`` is its budget less
        that latency.
        """
        group = Deadline(self._clock(), budgets, self.stats, self._clock)
        scores = np.empty(len(nodes))
        with self.tracer.span("batch", size=len(nodes)) as batch_span:
            try:
                self._gnn_score_batch(nodes, group, scores)
            except DeadlineExceeded:
                pass  # every member already carries its deadline:<stage> reason
            except FeatureFetchError:
                group.demote(group.live, "kv_unavailable")
            rungs = self._fallback_batch(nodes, group.live, scores)
            if batch_span:
                batch_span.set("gnn_scored", len(group.live))
        latency = self._clock() - group.started
        reasons, nodes, scores = group.reasons.tolist(), nodes.tolist(), scores.tolist()
        if self.tracer.enabled:
            for node, rung, reason in zip(nodes, rungs, reasons):
                with self.tracer.span("request", node=node) as span:
                    span.set("rung", rung)
                    if reason:
                        span.set("degraded_reason", reason)
        self.stats.record_batch(rungs, latency, reasons)
        return [
            ScoreResponse(node, score, self._verdict(score), rung, True, latency, None, reason, left)
            for node, score, rung, reason, left in zip(
                nodes, scores, rungs, reasons, (budgets - latency).tolist()
            )
        ]

    def _gnn_score_batch(self, nodes: np.ndarray, group: Deadline, scores: np.ndarray) -> None:
        """Rung 0 for a whole micro-batch: writes ``scores`` of every
        member that survives sampling, fetch, and forward — those
        ``group.live`` still holds."""
        group.check("admission")
        cohort = group.live
        with self.tracer.span("sample", targets=len(cohort)) as sample_span:
            sampled, misses = self._sample(nodes[cohort].tolist(), group)
            if sample_span:
                sample_span.set("sampled_nodes", sampled.graph.num_nodes)
                sample_span.set("hits", len(cohort) - misses)
                sample_span.set("misses", misses)
        live = group.live  # not empty: the check that demotes the last member raises
        if len(live) < len(cohort):  # expired during the walk: no rows, no forward
            components = np.searchsorted(sampled.bounds[:-1, 0], sampled.target_local)
            kept = components[np.isin(cohort, live)].tolist()
            sampled = _gather_requests([(sampled, component) for component in kept])
        forward_graph = sampled.graph
        if self.feature_store is not None:
            # Only transactions have feature rows: fetched in node
            # order, they are the forward graph's table. Components may
            # repeat an original id (two targets sampling the same hub):
            # fetch each row once, gather it for every copy. A lone
            # component's ids are unique as sampled.
            ids, inverse = sampled.original_ids[sampled.graph.txn_row >= 0], slice(None)
            if len(live) > 1:
                ids, inverse = np.unique(ids, return_inverse=True)
            with self.tracer.span("feature_fetch", rows=int(len(ids))):
                fetched = self._fetch_features(ids, group)
            # Hydrate onto an O(1) clone: the sampled subgraphs may live
            # in the SubgraphCache and must never carry another
            # request's feature rows.
            forward_graph = sampled.graph.with_features(fetched[inverse])
        group.check("model forward")
        targets = sampled.target_local
        if len(group.live) < len(live):  # expired in the fetch or at the forward
            live, targets = group.live, targets[np.isin(live, group.live)]
        with self.tracer.span("forward", targets=len(live)):
            scores[live] = self.model.predict_proba(forward_graph, targets)

    def _sample(self, nodes: Sequence[int], deadline=None) -> Tuple[SampledSubgraph, int]:
        """``(sampled, misses)``: the stacked sample the forward runs on,
        and how many of the nodes' lookups were walked rather than found
        in the cache (without a cache: every node).

        ``sampled`` holds one component per *distinct* node, rooted at
        it, and ``target_local[i]`` is the root of ``nodes[i]``'s — a
        repeated node is scored on its one component. A component per
        node, not one sample of the node *set*: sampling the union would
        leak each request's neighbourhood into the others' attention
        normalisation (the induced subgraph carries cross-target edges,
        and shared nodes reached at different hop depths draw
        differently), making a score depend on batch composition —
        repro.check's single-vs-batched scenario falsifies exactly that.
        The cache keys each component by its own target, so hits survive
        any composition and are gathered out of the walks that sampled
        them, and the misses (every distinct node, without a cache) are
        ONE disjoint walk — timed here, on the clock and into
        the registry of the service that asked for it: one
        ``sampler_sample_seconds`` observation and ``sampler.steps`` hops
        per stage that walked, nothing on an all-hit batch.
        """
        started = self._clock()
        if self.cache is not None:
            misses = -self.cache.misses
            sampled = self.cache.get_or_sample(self.graph, self.sampler, nodes, deadline=deadline)
            misses += self.cache.misses
        else:
            misses = len(nodes)
            slots = {node: index for index, node in enumerate(dict.fromkeys(nodes))}
            walk = self.sampler.sample(self.graph, list(slots), deadline=deadline, disjoint=True)
            sampled = _gather_requests([(walk, slots[node]) for node in nodes])
        if misses and self._sampler_sample_seconds is not None:
            kind = self.sampler.kind
            self._sampler_sample_seconds.observe(self._clock() - started, sampler=kind)
            self._sampler_hops_total.inc(self.sampler.steps, sampler=kind)
        return sampled, misses

    def _fallback_batch(self, nodes: np.ndarray, on_gnn: np.ndarray, scores: np.ndarray) -> List[str]:
        """Rungs 1–2 for every member the GNN rung did not score (all
        but ``on_gnn``): ONE :func:`linked_label_scores` pass over the
        graph for all of them, the prior for those with no labelled
        linked transaction, written into ``scores``; returns every
        member's rung. The "rung" span is a zero-width marker when
        nobody degraded."""
        rungs = [RUNG_GNN] * len(nodes)
        with self.tracer.span("rung", batch=len(nodes) - len(on_gnn)) as rung_span:
            if len(on_gnn) < len(nodes):
                ladder = np.ones(len(nodes), dtype=np.intp)  # an index into _LADDER
                ladder[on_gnn] = 0
                pending = np.flatnonzero(ladder)
                linked = linked_label_scores(self.graph, nodes[pending])
                unlinked = np.isnan(linked)
                scores[pending] = np.where(unlinked, self.config.static_prior, linked)
                ladder[pending] += unlinked
                rungs = _LADDER[ladder].tolist()
            if rung_span:
                rung_span.set("linked", rungs.count(RUNG_LINKED))
        return rungs

    # -- rung 0: full GNN ----------------------------------------------
    def _fetch_features(self, node_ids: np.ndarray, deadline: Deadline) -> np.ndarray:
        """Hydrate feature rows from the KV-store — one ``get_many``
        per ``FETCH_CHUNK`` keys, the deadline checked before each.

        The store is read as it is: its own failover and health gate
        decide which copy answers, and a dead copy is skipped without a
        read; a slow copy can cost the batch its deadline, checked
        before the next chunk. A chunk that still fails —
        :class:`~repro.storage.kvstore.TransientReadError`,
        :class:`~repro.storage.kvstore.CorruptStoreError` or
        :class:`~repro.storage.replicated.AllReplicasFailedError` —
        raises :class:`FeatureFetchError`, which demotes the batch.
        """
        store = self.feature_store
        # Rows land in the graph's own feature dtype, ready for ``with_features``.
        node_ids = np.asarray(node_ids, dtype=np.int64).tolist()
        table = self.graph.txn_table
        rows = np.empty((len(node_ids), table.shape[1]), dtype=table.dtype)
        filled = 0
        for chunk in batched(node_ids, FETCH_CHUNK):
            deadline.check("feature fetch")
            out = rows[filled : filled + len(chunk)]
            filled += len(chunk)
            chunk_started = self._clock()
            try:
                load_rows(store.get_many, chunk, out)
            except (TransientReadError, CorruptStoreError, AllReplicasFailedError) as error:
                self.stats.kv_failures += 1
                raise FeatureFetchError(str(error)) from error
            finally:
                # Chunk latency on the service clock (simulated reads
                # under a ManualClock land in the histogram too).
                if self._kv_read_seconds is not None:
                    self._kv_read_seconds.observe(
                        self._clock() - chunk_started, store="feature-store"
                    )
                    self._kv_reads_total.inc(len(chunk), store="feature-store")
        return rows
