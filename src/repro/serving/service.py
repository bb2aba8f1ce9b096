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
* **Circuit breaking** — KV-store feature reads run *retries inside a
  breaker*: one :func:`~repro.reliability.retry.retry_call` (absorbing
  transient blips) is one breaker outcome, and a store that is truly
  down opens the breaker so subsequent requests degrade instantly
  instead of burning their deadlines on doomed reads. A replicated
  store is read directly: each replica's health machine is its gate.
* **Graceful degradation** — a three-rung ladder: full GNN score →
  :class:`~repro.rules.miner.RuleSet` risk score over the raw request
  features → configurable static prior. Every response is tagged with
  the rung that produced it and, when degraded, the reason.

Chaos behaviour is scripted through :mod:`repro.reliability.faults`
(:class:`OutageKVStore`, :class:`SlowKVStore`, :class:`ManualClock`),
keeping every degradation scenario deterministic and replayable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..graph.cache import SubgraphCache
from ..graph.hetero import HeteroGraph
from ..graph.sampling import stack_subgraphs, unstack_subgraphs
from ..util import batched
from ..obs.registry import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..reliability.retry import RetryPolicy, TransientReadError, retry_call
from ..rules.miner import RuleSet
from ..storage.kvstore import CorruptStoreError, KVStore, kv_read_metrics
from ..storage.loader import load_rows
from ..storage.replicated import AllReplicasFailedError, ReplicatedKVStore
from .admission import SHED_RATE_LIMITED, AdmissionQueue, TokenBucket
from .breaker import CircuitBreaker, CircuitOpenError
from .deadline import Deadline, DeadlineExceeded
from .stats import ServiceStats

RUNG_GNN = "gnn"
RUNG_RULES = "rules"
RUNG_PRIOR = "prior"

VERDICT_FRAUD = "fraud"
VERDICT_LEGIT = "legit"


class FeatureFetchError(RuntimeError):
    """KV feature reads failed beyond what retries could absorb."""


@dataclass
class ServiceConfig:
    """Operating envelope of one :class:`ScoringService` instance."""

    deadline_s: float = 0.050
    fraud_threshold: float = 0.5
    static_prior: float = 0.02
    queue_capacity: int = 64
    rate: float = float("inf")  # admitted requests/s (inf = unlimited)
    burst: float = 128.0  # token-bucket capacity
    fetch_chunk: int = 32  # feature rows per breaker-guarded read
    # Micro-batching: requests per coalesced sampler-call/forward in
    # score_batch / drain. None = coalesce the whole call into one
    # micro-batch (one forward per degradation rung, however many
    # requests arrive together).
    batch_size: Optional[int] = None
    breaker_failure_threshold: float = 0.5
    breaker_window: int = 8
    breaker_min_calls: int = 4
    breaker_cooldown_s: float = 0.25
    breaker_half_open_probes: int = 2
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(max_attempts=3))

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if not 0.0 <= self.static_prior <= 1.0:
            raise ValueError("static_prior must be within [0, 1]")
        if self.fetch_chunk < 1:
            raise ValueError("fetch_chunk must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for unbounded)")


@dataclass
class ScoreRequest:
    """One transaction to score.

    ``features`` are the raw transaction features the request carries
    (production requests always do); the rules rung scores them when
    the GNN path is unavailable. When omitted, the service falls back
    to the in-memory graph's feature row for the node.
    """

    node: int
    features: Optional[np.ndarray] = None
    deadline_s: Optional[float] = None


@dataclass
class ScoreResponse:
    """The verdict for one request, tagged with how it was produced."""

    node: int
    score: float
    verdict: str  # "fraud" | "legit"
    rung: str  # "gnn" | "rules" | "prior"
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

    Samplers and the KV fetch path accept any object with ``check`` /
    ``remaining``; this one fans a stage check out to each member's own
    :class:`Deadline`. A member whose budget is spent is *individually*
    demoted — it records the same ``deadline:<stage>`` reason it would
    have received scored alone and drops out of the batch — while the
    survivors keep going. Only when every member has expired
    does ``check`` raise, aborting the shared work. That is how a batch
    preserves per-request deadline verdicts: expiry is per member, the
    exception is per batch.
    """

    def __init__(self, members: Sequence[_BatchMember], stats: ServiceStats) -> None:
        self._members = list(members)
        self._stats = stats

    @property
    def live(self) -> List[_BatchMember]:
        return [member for member in self._members if member.live]

    def check(self, stage: str) -> None:
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

    def remaining(self) -> float:
        """Budget of the healthiest member — the retry/backoff bound."""
        return max((m.deadline.remaining() for m in self.live), default=0.0)


class ScoringService:
    """Online scorer with admission control, breaker, and degradation.

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
        Optional :class:`~repro.storage.kvstore.KVStore` holding
        ``feat/{node}`` rows (the :class:`~repro.storage.loader.GraphStore`
        layout). Reads go through retry-inside-breaker. A
        :class:`~repro.storage.replicated.ReplicatedKVStore` is detected
        and read directly: its per-replica health tracking, failover
        and hedging replace the breaker + retry layer on the fetch path.
    rules:
        Optional :class:`~repro.rules.miner.RuleSet` powering the
        middle degradation rung.
    clock:
        Monotonic clock for deadlines / rate limiting / breaker
        cool-downs; inject a
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
        ``sampler_hops_total`` counting that walk's steps), and the
        registry reads the tallies of :attr:`stats` when it is scraped.
        The sampler itself is never touched: services sharing a model
        each see their own walks.
    cache:
        Optional :class:`~repro.graph.cache.SubgraphCache`. When set,
        a micro-batch's sampler call goes through
        ``cache.get_or_sample`` keyed per (target, sampler config,
        graph version); with a ``registry`` the cache's
        hit/miss/eviction counters are exported automatically.
    """

    def __init__(
        self,
        model,
        graph: HeteroGraph,
        feature_store: Optional[KVStore] = None,
        rules: Optional[RuleSet] = None,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Optional[Callable[[float], None]] = None,
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
        self.rules = rules
        self.config = config or ServiceConfig()
        self.cache = cache
        if cache is not None and registry is not None:
            cache.instrument(registry)
        self._clock = clock
        # Retry backoff sleeps on the same (possibly simulated) clock
        # the deadlines watch, so chaos tests see backoff burn budget.
        self._sleep = sleep if sleep is not None else getattr(clock, "sleep", time.sleep)
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
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            window=self.config.breaker_window,
            min_calls=self.config.breaker_min_calls,
            cooldown_s=self.config.breaker_cooldown_s,
            half_open_probes=self.config.breaker_half_open_probes,
            clock=clock,
            name="feature-store",
        )
        self.stats.breaker = self.breaker
        # A replicated store gates each replica with its own
        # ReplicaHealth; the breaker + retry layer is for plain stores.
        self._replicated = isinstance(feature_store, ReplicatedKVStore)
        if self._replicated and registry is not None:
            feature_store.instrument(registry)
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
        not already hold (one component per target, cached per target),
        ONE disjoint forward graph, ONE batched KV feature fetch, and
        one ``predict_proba`` forward per degradation rung actually used
        — not one per request. Scores do not depend on batch composition
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
        cache hits for known-hot buyers/cards.
        """
        if self.cache is None:
            return 0
        return self._sample_parts([int(target) for target in targets])[1]

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

    def _request_features(self, request: ScoreRequest) -> Optional[np.ndarray]:
        if request.features is not None:
            return np.asarray(request.features, dtype=np.float64)
        row = np.asarray(self.graph.txn_features[request.node], dtype=np.float64)
        if self.feature_store is not None and not row.any():
            # KV-backed deployments carry raw features on the request;
            # an all-zero in-memory row is a structure-only placeholder,
            # so the rules rung has nothing to score -> static prior.
            return None
        return row

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
        return VERDICT_FRAUD if score >= self.config.fraud_threshold else VERDICT_LEGIT

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

        One disjoint sample of the live members' targets (one component
        each, so a verdict does not depend on batch composition; looked
        up in the cache per target, the misses walked together), one
        batched KV fetch, one forward per degradation rung used.
        Per-request deadline semantics ride on :class:`_DeadlineGroup`;
        breaker and KV failures demote every member still on the GNN
        rung. Unlike a loop of per-member samples, every member live at
        the sampling stage is looked up before the walk starts: one
        whose budget ends during the walk has been counted by the cache
        and is dropped afterwards (the loop never looked it up).
        """
        started = self._clock()
        members: List[_BatchMember] = []
        for request in requests:
            budget = (
                request.deadline_s if request.deadline_s is not None else self.config.deadline_s
            )
            members.append(_BatchMember(request, Deadline(budget, clock=self._clock)))
        group = _DeadlineGroup(members, self.stats)
        with self.tracer.span("batch", size=len(members)) as batch_span:
            try:
                self._gnn_score_batch(group)
            except DeadlineExceeded:
                pass  # every member already carries its deadline:<stage> reason
            except CircuitOpenError:
                for member in group.live:
                    member.degraded_reason = "breaker_open"
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
        nodes = [member.request.node for member in cohort]
        with self.tracer.span("sample", targets=len(cohort)) as sample_span:
            parts, misses = self._sample_parts(nodes, group)
            if sample_span:
                sample_span.set("sampled_nodes", int(sum(len(p.original_ids) for p in parts)))
                sample_span.set("hits", len(nodes) - misses)
                sample_span.set("misses", misses)
        survivors = [(member, part) for member, part in zip(cohort, parts) if member.live]
        if not survivors:
            return
        sampled = stack_subgraphs([part for _, part in survivors])
        forward_graph = sampled.graph
        if self.feature_store is not None:
            # Components may repeat an original id (two targets sampling
            # the same hub): fetch each row once, scatter to every copy.
            # A lone component's ids are unique as sampled.
            ids, inverse = sampled.original_ids, slice(None)
            if len(survivors) > 1:
                ids, inverse = np.unique(ids, return_inverse=True)
            with self.tracer.span("feature_fetch", rows=int(len(ids))):
                rows = self._fetch_features(ids, group)[inverse]
            # Hydrate onto an O(1) clone: the sampled subgraphs may live
            # in the SubgraphCache and must never carry another
            # request's feature rows.
            forward_graph = sampled.graph.with_features(rows)
        group.check("model forward")
        live = [member for member, _ in survivors if member.live]
        locals_ = [
            int(local)
            for (member, _), local in zip(survivors, sampled.target_local)
            if member.live
        ]
        if not live:
            return
        with self.tracer.span("forward", targets=len(live)):
            probs = self.model.predict_proba(forward_graph, locals_)
        for member, prob in zip(live, probs):
            member.score, member.rung = float(prob), RUNG_GNN

    def _sample_parts(self, nodes: Sequence[int], deadline=None):
        """``(parts, misses)``: one singleton sample per node, and how
        many of them were walked rather than found in the cache.

        One component per node. Sampling the *union* of targets instead
        would leak each request's neighbourhood into the others'
        attention normalisation (the induced subgraph carries
        cross-target edges, and shared nodes reached at different hop
        depths draw differently), making a score depend on batch
        composition — repro.check's single-vs-batched scenario
        falsifies exactly that. The cache keys each component by its
        own target, so hits survive any composition, and the misses
        (every node, without a cache) are ONE disjoint walk — timed
        here, on the clock and into the registry of the service that
        asked for it: one ``sampler_sample_seconds`` observation and
        ``sampler.steps`` hops per stage that walked, nothing on an
        all-hit batch.
        """
        started = self._clock()
        if self.cache is not None:
            misses = -self.cache.misses
            parts = self.cache.get_or_sample(
                self.graph, self.sampler, nodes, deadline=deadline, disjoint=True
            )
            misses += self.cache.misses
        else:
            misses = len(nodes)
            parts = unstack_subgraphs(
                self.sampler.sample(self.graph, nodes, deadline=deadline, disjoint=True)
            )
        if misses and self._sampler_sample_seconds is not None:
            kind = self.sampler.kind
            self._sampler_sample_seconds.observe(self._clock() - started, sampler=kind)
            self._sampler_hops_total.inc(self.sampler.steps, sampler=kind)
        return parts, misses

    def _fallback_batch(self, members: Sequence[_BatchMember]) -> None:
        """Rungs 1–2 for every member the GNN rung did not score: ONE
        rules pass over the stacked request features, prior for the rest.
        The "rung" span is a zero-width marker when nobody degraded."""
        pending = [member for member in members if member.rung is None]
        with self.tracer.span("rung", batch=len(pending)) as rung_span:
            if pending and self.rules is not None and len(self.rules):
                featured = [
                    (member, self._request_features(member.request))
                    for member in pending
                ]
                scoreable = [(m, f) for m, f in featured if f is not None]
                if scoreable:
                    matrix = np.stack([features for _, features in scoreable])
                    scores = self.rules.risk_scores(matrix)
                    for (member, _), score in zip(scoreable, scores):
                        member.rung, member.score = RUNG_RULES, float(score)
            for member in pending:
                if member.rung is None:
                    member.rung, member.score = RUNG_PRIOR, self.config.static_prior
            if rung_span:
                rung_span.set("rules", sum(1 for m in pending if m.rung == RUNG_RULES))

    # -- rung 0: full GNN ----------------------------------------------
    def _fetch_features(self, node_ids: np.ndarray, deadline: Deadline) -> np.ndarray:
        """Hydrate feature rows from the KV-store — one ``get_many``
        per ``fetch_chunk`` keys — retries inside the breaker.

        The deadline is checked once per chunk, and a retry whose
        backoff would outlive the budget is abandoned early — the
        degradation ladder is always cheaper than a doomed wait.

        A :class:`~repro.storage.replicated.ReplicatedKVStore` carries
        its own failover, hedging, and per-replica health gate, so the
        breaker and the retry layer step aside — wrapping the store's
        internal failover loop in another retry would double-penalise a
        replica blip, and a tier-wide breaker would turn one dead
        replica into a whole-tier outage (the exact failure mode
        replication exists to remove). Only
        :class:`~repro.storage.replicated.AllReplicasFailedError` —
        every owner down or corrupt — demotes the request.
        """
        store = self.feature_store

        def on_retry(attempt: int, error: BaseException, delay: float) -> None:
            self.stats.kv_retries += 1
            if deadline.remaining() <= delay:
                raise error  # stop retrying: the budget dies before the backoff ends

        # Rows land in the graph's own feature dtype, ready for
        # ``with_features``; a retried chunk just refills its slice.
        node_ids = np.asarray(node_ids, dtype=np.int64).tolist()
        features = self.graph.txn_features
        rows = np.empty((len(node_ids), features.shape[1]), dtype=features.dtype)
        filled = 0
        for chunk in batched(node_ids, self.config.fetch_chunk):
            deadline.check("feature fetch")
            out = rows[filled : filled + len(chunk)]
            filled += len(chunk)

            def read_chunk(chunk=chunk, out=out):
                load_rows(store.get_many, chunk, out)

            chunk_started = self._clock()
            try:
                if self._replicated:
                    read_chunk()
                else:
                    self.breaker.call(
                        lambda: retry_call(
                            read_chunk,
                            policy=self.config.retry,
                            retry_on=(TransientReadError, CorruptStoreError),
                            sleep=self._sleep,
                            on_retry=on_retry,
                        )
                    )
            except CircuitOpenError:
                raise
            except (
                TransientReadError,
                CorruptStoreError,
                AllReplicasFailedError,
            ) as error:
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
