"""The fault-tolerant online scoring service (the deployed xFraud path).

:class:`ScoringService` wraps the detector's production inference path
(``predict_proba_sampled``) in the machinery a latency-bounded fraud
scorer needs to survive heavy traffic and partial outages:

* **Admission control** — a :class:`~repro.serving.admission.TokenBucket`
  rate limiter plus a bounded queue; overload requests are *shed with a
  verdict* (the static prior), never blocked or errored.
* **Deadline budgets** — every admitted request carries a
  :class:`~repro.serving.deadline.Deadline` on a monotonic clock,
  propagated through neighbour sampling and KV feature fetch; the
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
(:class:`OutageKVStore`, :class:`SlowKVStore`, :class:`ManualClock`),
keeping every degradation scenario deterministic and replayable.
"""

from __future__ import annotations

import math
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


class _BatchMember:
    """One request's mutable state while it rides a micro-batch."""

    __slots__ = ("request", "deadline", "degraded_reason", "rung", "score")

    def __init__(self, request: ScoreRequest, deadline: Deadline) -> None:
        self.request = request
        self.deadline = deadline
        self.degraded_reason: Optional[str] = None
        self.rung: Optional[str] = None
        self.score: float = 0.0

    @property
    def live(self) -> bool:
        """Still on the GNN rung: no degradation recorded yet."""
        return self.degraded_reason is None


class _DeadlineGroup:
    """Duck-typed deadline over every request in one micro-batch.

    Samplers and the KV fetch path accept any object with ``check``;
    this one fans a stage check out to each member's own
    :class:`Deadline`. A member whose budget is spent is *individually*
    demoted — it records the same ``deadline:<stage>`` reason it would
    have received scored alone and drops out of the batch — while the
    survivors keep going. Only when every member has expired
    does ``check`` raise, aborting the shared work. That is how a batch
    preserves per-request deadline verdicts: expiry is per member, the
    exception is per batch.

    A check first asks whether any member *can* have expired: none has
    while less time has passed since the earliest start than the
    tightest budget, and then the per-member walk is skipped.
    """

    def __init__(
        self, members: Sequence[_BatchMember], stats: ServiceStats, clock: Callable[[], float]
    ) -> None:
        self._members = list(members)
        self._stats = stats
        self._clock = clock
        deadlines = [member.deadline for member in self._members]
        self._earliest = min((d.started for d in deadlines), default=0.0)
        # No member: -inf, so every check walks (and raises).
        self._tightest = min((d.budget_s for d in deadlines), default=-math.inf)

    @property
    def live(self) -> List[_BatchMember]:
        return [member for member in self._members if member.live]

    def check(self, stage: str) -> None:
        if self._clock() - self._earliest < self._tightest:
            return  # every member's elapsed time is under its budget
        expired_all = True
        for member in self._members:
            if not member.live:
                continue
            if member.deadline.expired():
                member.degraded_reason = f"deadline:{stage}"
                self._stats.deadline_hits += 1
            else:
                expired_all = False
        if expired_all:
            survivors = [m.deadline for m in self._members]
            budget = max((d.budget_s for d in survivors), default=0.0)
            elapsed = max((d.elapsed() for d in survivors), default=0.0)
            raise DeadlineExceeded(stage, budget, elapsed)


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
        layout), read with ``get_many`` and never wrapped: failover,
        hedging and the health gate that stops reads of a dead copy are
        the store's own (a
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
        A micro-batch of one through the pipeline :meth:`score_batch` uses."""
        request = self._coerce(request)
        if not self._admit(request):
            return self._shed_response(request, SHED_RATE_LIMITED)
        return self._score_admitted_batch([request])[0]

    def score_batch(self, requests: Sequence[Union[int, ScoreRequest]]) -> List[ScoreResponse]:
        """Score many requests with micro-batched execution.

        Admission is still per request — the token bucket is consulted
        once per request in arrival order, so any request that would be
        shed alone is shed here too, with the identical verdict. The
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
        coerced = [self._coerce(request) for request in requests]
        admitted = [self._admit(request) for request in coerced]
        scored = iter(
            self._score_micro_batched([r for r, ok in zip(coerced, admitted) if ok])
        )
        return [
            next(scored) if ok else self._shed_response(request, SHED_RATE_LIMITED)
            for request, ok in zip(coerced, admitted)
        ]

    def warm_cache(self, targets: Sequence[int]) -> int:
        """Pre-sample hot targets into the subgraph cache (no scoring).

        Returns the number of targets newly sampled; 0 when the service
        has no cache. Startup warming turns first-hit latency into
        cache hits for known-hot buyers/cards. A target is refused as
        :meth:`score` refuses it (out of range, or not a transaction: no
        ``score()`` could ever hit its entry).
        """
        nodes = [self._coerce(target).node for target in targets]
        if self.cache is None or not nodes:
            return 0
        return self._sample(nodes)[1]

    def submit(self, request: Union[int, ScoreRequest]) -> Optional[ScoreResponse]:
        """Enqueue a request; returns a shed response immediately when
        the backlog is full or the rate limiter denies, else ``None``
        (the verdict arrives from :meth:`drain`)."""
        request = self._coerce(request)
        admitted, reason = self.queue.offer(request)
        if not admitted:
            self.stats.record_shed(reason)
            return self._shed_response(request, reason)
        self.stats.record_admitted()
        return None

    def drain(self) -> List[ScoreResponse]:
        """Serve the queued backlog FIFO, micro-batched; one verdict per
        admitted request (admission already happened in :meth:`submit`)."""
        return self._score_micro_batched(list(self.queue.drain()))

    # -- internals ------------------------------------------------------
    def _coerce(self, request: Union[int, ScoreRequest]) -> ScoreRequest:
        if not isinstance(request, ScoreRequest):
            request = ScoreRequest(node=int(request))
        if not 0 <= request.node < self.graph.num_nodes:
            raise ValueError(f"node {request.node} outside the serving graph")
        if self.graph.node_type[request.node] != NODE_TYPE_IDS["txn"]:
            raise ValueError(f"node {request.node} is not a transaction: only those are scored")
        if request.deadline_s is not None and not request.deadline_s > 0:
            raise ValueError(f"deadline_s must be positive, got {request.deadline_s}")
        return request

    def _admit(self, request: ScoreRequest) -> bool:
        """One token-bucket decision, traced and tallied."""
        with self.tracer.span("admission", node=request.node) as admission:
            admitted = self.bucket.try_acquire()
            admission.set("admitted", admitted)
        if admitted:
            self.stats.record_admitted()
        else:
            self.stats.record_shed(SHED_RATE_LIMITED)
        return admitted

    def _shed_response(self, request: ScoreRequest, reason: str) -> ScoreResponse:
        score = self.config.static_prior
        return ScoreResponse(
            node=request.node,
            score=score,
            verdict=self._verdict(score),
            rung=RUNG_PRIOR,
            admitted=False,
            shed_reason=reason,
        )

    def _verdict(self, score: float) -> str:
        return VERDICT_FRAUD if score >= FRAUD_THRESHOLD else VERDICT_LEGIT

    # -- the scoring pipeline ------------------------------------------
    def _score_micro_batched(self, requests: Sequence[ScoreRequest]) -> List[ScoreResponse]:
        """Admitted requests in, one verdict each out, in order, scored
        ``config.batch_size`` (``None`` = all) at a time."""
        responses: List[ScoreResponse] = []
        for group in batched(requests, self.config.batch_size or max(len(requests), 1)):
            responses.extend(self._score_admitted_batch(group))
        return responses

    def _score_admitted_batch(self, requests: Sequence[ScoreRequest]) -> List[ScoreResponse]:
        """Score already-admitted requests as ONE coalesced unit — the
        only scoring pipeline (:meth:`score` sends a batch of one).

        One stacked sample of the live members' targets (a component
        per distinct target, so a verdict does not depend on batch
        composition; looked up in the cache per target, the misses
        walked together), the KV fetch of its rows, one forward per
        degradation rung used. Per-request deadline semantics ride on
        :class:`_DeadlineGroup`; a failed KV read demotes every member
        still on the GNN rung. Unlike a loop of per-member
        samples, every member live at the sampling stage is looked up
        before the walk starts: one whose budget ends during the walk
        has been counted by the cache, and the survivors' components are
        gathered out of the sample before any row is fetched (the loop
        never looked it up).
        """
        started = self._clock()
        members: List[_BatchMember] = []
        for request in requests:
            budget = (
                request.deadline_s if request.deadline_s is not None else self.config.deadline_s
            )
            members.append(_BatchMember(request, Deadline(budget, clock=self._clock)))
        group = _DeadlineGroup(members, self.stats, self._clock)
        with self.tracer.span("batch", size=len(members)) as batch_span:
            try:
                self._gnn_score_batch(group)
            except DeadlineExceeded:
                pass  # every member already carries its deadline:<stage> reason
            except FeatureFetchError:
                for member in group.live:
                    member.degraded_reason = "kv_unavailable"
            self._fallback_batch(members)
            if batch_span:
                batch_span.set("gnn_scored", sum(1 for m in members if m.rung == RUNG_GNN))
        responses: List[ScoreResponse] = []
        latency = self._clock() - started
        for member in members:
            with self.tracer.span("request", node=member.request.node) as span:
                span.set("rung", member.rung)
                if member.degraded_reason:
                    span.set("degraded_reason", member.degraded_reason)
            self.stats.record_response(member.rung, latency, member.degraded_reason)
            label = int(self.graph.labels[member.request.node])
            if label >= 0:
                self.stats.record_outcome(label, member.score)
            responses.append(
                ScoreResponse(
                    node=member.request.node,
                    score=float(member.score),
                    verdict=self._verdict(member.score),
                    rung=member.rung,
                    admitted=True,
                    latency_s=latency,
                    degraded_reason=member.degraded_reason,
                    deadline_remaining_s=member.deadline.remaining(),
                )
            )
        return responses

    def _gnn_score_batch(self, group: _DeadlineGroup) -> None:
        """Rung 0 for a whole micro-batch: assigns score+rung to every
        member that survives sampling, fetch, and forward."""
        group.check("admission")
        cohort = group.live
        with self.tracer.span("sample", targets=len(cohort)) as sample_span:
            sampled, misses = self._sample([member.request.node for member in cohort], group)
            if sample_span:
                sample_span.set("sampled_nodes", sampled.graph.num_nodes)
                sample_span.set("hits", len(cohort) - misses)
                sample_span.set("misses", misses)
        live = group.live  # not empty: the check that demotes the last member raises
        if len(live) < len(cohort):  # expired during the walk: no rows, no forward
            components = np.searchsorted(sampled.bounds[:-1, 0], sampled.target_local).tolist()
            sampled = _gather_requests(
                [(sampled, components[i]) for i, member in enumerate(cohort) if member.live]
            )
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
        if not all(member.live for member in live):  # expired in the fetch or at the forward
            kept = [index for index, member in enumerate(live) if member.live]
            live, targets = [live[index] for index in kept], targets[kept]
        with self.tracer.span("forward", targets=len(live)):
            probs = self.model.predict_proba(forward_graph, targets)
        for member, prob in zip(live, probs):
            member.score, member.rung = float(prob), RUNG_GNN

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

    def _fallback_batch(self, members: Sequence[_BatchMember]) -> None:
        """Rungs 1–2 for every member the GNN rung did not score: ONE
        :func:`linked_label_scores` pass over the graph for all of them,
        the prior for those with no labelled linked transaction. The
        "rung" span is a zero-width marker when nobody degraded."""
        pending = [member for member in members if member.rung is None]
        with self.tracer.span("rung", batch=len(pending)) as rung_span:
            if pending:
                nodes = [member.request.node for member in pending]
                for member, score in zip(pending, linked_label_scores(self.graph, nodes).tolist()):
                    if math.isnan(score):
                        member.rung, member.score = RUNG_PRIOR, self.config.static_prior
                    else:
                        member.rung, member.score = RUNG_LINKED, score
            if rung_span:
                rung_span.set("linked", sum(1 for m in pending if m.rung == RUNG_LINKED))

    # -- rung 0: full GNN ----------------------------------------------
    def _fetch_features(self, node_ids: np.ndarray, deadline: Deadline) -> np.ndarray:
        """Hydrate feature rows from the KV-store — one ``get_many``
        per ``FETCH_CHUNK`` keys, the deadline checked before each.

        The store is read as it is: its own failover, hedging and health
        gate decide which copy answers, and a dead copy is skipped
        without a read. A chunk that still fails —
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
