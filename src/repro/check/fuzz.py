"""Differential fuzzer with automatic seed shrinking.

Every fast or durable path in the stack has a slower executable spec:
the vectorized samplers have the scalar walks of :mod:`.reference`, the one walk
that samples a micro-batch has the stacked loop of singleton samples,
the CSR delta merge has the full stable rebuild, a micro-batch of n has n batches
of one through the same pipeline, the detector's plain-array convolution
kernel and its hand-derived backward have the op-by-op ``Tensor`` layer
(:mod:`.reference`), a forward whose layers each compute the rows the
next one reads has the same kernel read at every node,
the header-memoising row decoder has ``np.load`` (and a batch of rows
decoded at once has the row-by-row loop), the replica tier's one
multi-get read has the per-key walk of :mod:`.reference`, a training step on
the batch's receptive field has the same step on the whole graph, every
autograd op has its central difference, the elastic supervisor has the
fault-free engine it drives (and, under faults, a by-hand all-reduce
over the shards it accepted), a layer plan memoised per parameter
version has the plan rebuilt on every call, and
the WAL has "whatever was durably framed before the crash". A fuzz
*scenario* drives both sides of one such pair on a
seeded random input and returns a divergence description (or ``None``).

Cases are fully determined by ``(scenario, seed, size)``, so a failure
is replayable forever — and shrinkable: :func:`shrink` greedily walks
``size`` down (halving, then decrementing) and then scans for a smaller
``seed``, re-running the scenario at each candidate and keeping only
reductions that still diverge. The result is the minimal repro that CI
prints and a regression test pins.
"""

from __future__ import annotations

import copy
import functools
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from .gen import DELTA_SHAPES, random_delta, random_events, random_hetero_graph, random_weights
from .invariants import csr_violations, ledger_violations, subgraph_equal, wal_violations
from .mutants import Mutant, edit, register

__all__ = [
    "SCENARIOS",
    "FuzzFailure",
    "FuzzReport",
    "numerical_grad",
    "run_case",
    "run_fuzz",
    "shrink",
]

# Sizes cycle small -> large so early trials stay fast and later trials
# reach hub-heavy graphs; a failing case then shrinks back down.
_SIZE_LADDER = (2, 3, 5, 8, 13, 21)


def _case(base_seed: int, name: str, index: int) -> Tuple[int, int]:
    """``(seed, size)`` of scenario ``name``'s ``index``-th case.

    A function of the scenario's own name and position only (splitmix64
    over the three, so cases decorrelate), never of which or how many
    other scenarios are registered or selected: adding a scenario
    leaves every existing scenario's case sequence — and the shrunk
    seeds pinned from it — where it was.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    mixed = base_seed * 0x9E3779B97F4A7C15 + zlib.crc32(name.encode()) * 0xD6E8FEB86659FD93
    mixed = (mixed + index * 0xBF58476D1CE4E5B9) & mask
    mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & mask
    mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & mask
    return (mixed ^ (mixed >> 31)) & 0x7FFFFFFF, _SIZE_LADDER[index % len(_SIZE_LADDER)]


@dataclass
class FuzzFailure:
    """One divergence, as found and as shrunk."""

    scenario: str
    seed: int
    size: int
    detail: str
    shrunk_seed: int
    shrunk_size: int
    shrunk_detail: str
    shrink_steps: int

    def repro_command(self) -> str:
        return (
            f"repro check --case {self.scenario} "
            f"--seed {self.shrunk_seed} --size {self.shrunk_size}"
        )


@dataclass
class FuzzReport:
    trials: int
    per_scenario: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


SCENARIOS: Dict[str, Callable[[int, int], Optional[str]]] = {}
# Where mutants are planted (:mod:`.mutants`).
_SAMPLING = "repro.graph.sampling:"
_CONV = "repro.models.hetero_conv:"
_GET_MANY = "repro.storage.replicated:ReplicatedKVStore._get_many"
_CACHE = "repro.graph.cache:SubgraphCache."
_DEADLINE = "repro.serving.deadline:Deadline."


def scenario(name: str, mutants: Sequence[Mutant] = ()):
    """Register a scenario under ``name``, with the planted ``mutants``
    it must kill (:mod:`.mutants`)."""

    def decorate(fn: Callable[[int, int], Optional[str]]) -> Callable[[int, int], Optional[str]]:
        if name in SCENARIOS:
            raise ValueError(f"duplicate fuzz scenario {name!r}")
        SCENARIOS[name] = fn
        register(name, mutants)
        return fn

    return decorate


# ----------------------------------------------------------------------
# Scenarios: each returns a divergence string or None
# ----------------------------------------------------------------------
class _BudgetSpent(Exception):
    """Raised by :class:`_StageLog` when its scripted budget ends."""


class _StageLog:
    """Duck-typed deadline: records every stage it is asked about and
    raises at the ``spent_at``-th (never, when ``None``)."""

    def __init__(self, spent_at: Optional[int] = None) -> None:
        self.stages: List[str] = []
        self.spent_at = spent_at

    def check(self, stage: str) -> None:
        self.stages.append(stage)
        if self.spent_at is not None and len(self.stages) > self.spent_at:
            raise _BudgetSpent(stage)


@scenario(
    "sampler-fast-vs-reference",
    mutants=[
        edit(
            "fanout-cap-keeps-one-edge-too-many", _SAMPLING + "SageSampler._kept",
            "rank < self.fanout", "rank <= self.fanout", "original_ids", shrinks_to=(0, 1),
        ),
        edit(  # a set's component puts its roots ascending, not in request order
            "set-sample-roots-not-in-request-order", _SAMPLING + "_induce",
            "slot[at], slot[rest] = root_slots, rest_slots",
            "slot[np.sort(at)], slot[rest] = root_slots, rest_slots",
            "original_ids differs", shrinks_to=(1, 2),
        ),
        # The disjoint walk losing track of a node's or an edge's component.
        edit(
            "visited-set-shared-across-components", _SAMPLING + "SageSampler._walk_disjoint",
            "reached[~_in_sorted(seen, reached)[0]]",
            "reached[~np.isin(reached % stride, seen % stride)]",
            "original_ids", shrinks_to=(0, 1),
        ),
        edit(
            "fanout-rank-over-the-whole-frontier", _SAMPLING + "SageSampler._walk_disjoint",
            "self._kept(starts, counts)", "self._kept(starts[:1], counts.sum(keepdims=True))",
            "original_ids", shrinks_to=(0, 1),
        ),
        edit(
            "dedup-by-node-not-by-component-and-node", _SAMPLING + "SageSampler._walk_disjoint",
            "np.unique(component * stride + csr.src[slots])",
            "np.sort((component * stride + csr.src[slots])"
            "[np.unique(csr.src[slots], return_index=True)[1]])",
            "original_ids", shrinks_to=(0, 1),
        ),
        edit(
            "edges-ordered-by-csr-position", _SAMPLING + "_induce",
            "(owner * graph.num_edges + edge_ids).argsort()", "np.arange(len(edge_ids))",
            "edge_src differs", shrinks_to=(0, 1),
        ),
        edit(  # a cached batch gathers components joined by such edges: scoring sees it too
            "induction-matches-sources-across-components", _SAMPLING + "_induce",
            "sources += owner * stride", "sources += 0", "edge_src",
            alone=True, shrinks_to=(0, 1),
        ),
        edit(  # an isomorphic graph the cache's gathers misread (a component's root is first)
            "target-not-first-in-its-component", _SAMPLING + "_induce",
            "        root_slots = np.arange(len(roots)) + "
            "(np.cumsum(rest_in) - rest_in)[root_component]\n"
            "        rest_slots = np.arange(total - len(roots)) + "
            "np.cumsum(roots_in)[component[rest]]\n",
            "        root_slots, rest_slots = at, rest.nonzero()[0]\n",
            "original_ids differs",
            alone=True, shrinks_to=(0, 1),
        ),
        edit(  # the first component's edges end one edge late
            "an-edge-bound-off-by-one", _SAMPLING + "_induce",
            "np.cumsum(np.bincount(owner, minlength=len(sizes)))",
            "np.cumsum(np.bincount(owner, minlength=len(sizes)))"
            " + (np.arange(len(sizes)) == 0)",
            "the walk's bounds",
            alone=True, shrinks_to=(0, 1),
        ),
    ],
)
def _fuzz_sampler(seed: int, size: int) -> Optional[str]:
    """Both samplers' vectorised walks vs the scalar spec
    (:func:`.reference.scalar_sample`), array for array, on a fresh
    graph, on one grown by deltas of every shape (grown CSR) and after
    ``rebuild_csr()``: a set of up to three transactions (one component,
    unique targets in request order), then ``disjoint=True`` — targets
    of every node type with repeats, a target that is another's
    neighbour and edgeless ones; hops 1-3, fanout 1-5 (hubs over the
    cap) — against the stacked scalar singletons. The walk and a
    ``gather`` of a random multiset of the walk's and that stack's
    components (repeats included) must each record the bounds
    ``reference.component_bounds`` finds by search, and each component
    cut out by them must be its singleton sample. SAGE's walk must ask a
    deadline about exactly the stages of ONE singleton walk, once each,
    and a budget that ends at hop ``k`` must end both it and the spec
    there."""
    from ..graph.sampling import HGSampler, SageSampler, gather
    from .reference import component_bounds, scalar_sample, stack_subgraphs, unstack

    rng = np.random.default_rng(seed)
    chooser = np.random.default_rng((seed, size))  # the gathers' pieces: rng's draws stay put
    graph = random_hetero_graph(rng, num_txns=size)  # its CSR, built by the first walk, grows
    txns = graph.txn_nodes
    picks = rng.integers(0, len(txns), size=min(3, len(txns)))
    sampler_seed = int(rng.integers(0, 1 << 16))
    walker = SageSampler(hops=1 + size % 3, fanout=1 + size % 5, seed=sampler_seed)
    samplers = (walker, HGSampler(depth=1 + size % 2, width=1 + size % 4, seed=sampler_seed))
    for stage in ("fresh", "grown", "compacted"):
        if stage == "grown":
            for _ in range(int(rng.integers(1, 4))):
                shape = str(rng.choice(DELTA_SHAPES, p=(0.7, 0.1, 0.1, 0.1)))
                graph.append_delta(**random_delta(rng, graph, 1 + size % 3, shape=shape))
            txns = graph.txn_nodes
            picks = rng.integers(0, len(txns), size=min(3, len(txns)))
        elif stage == "compacted":
            graph.rebuild_csr()
        targets = list(dict.fromkeys(int(txns[p]) for p in picks))  # unique, order kept
        awkward = _awkward_targets(rng, graph)
        on = f"on the {stage} graph ({graph.num_nodes} nodes, {graph.num_edges} edges)"
        for sampler in samplers:
            diff = subgraph_equal(sampler.sample(graph, targets), scalar_sample(sampler, graph, targets))
            if diff is not None:
                return f"{sampler.cache_key()} {on}, targets={targets}: {diff}"
            where = f"{sampler.cache_key()} {on}, disjoint targets={awkward.tolist()}"
            singles = [scalar_sample(sampler, graph, [int(target)]) for target in awkward]
            stacked = stack_subgraphs(singles)
            walk = sampler.sample(graph, awkward, disjoint=True)
            diff = subgraph_equal(walk, stacked)
            if diff is not None:
                return f"{where}: one walk != stacked scalar singletons: {diff}"
            picked = chooser.integers(0, len(awkward), size=int(chooser.integers(1, 2 * len(awkward))))
            pieces = [((walk, stacked)[int(chooser.integers(0, 2))], int(pick)) for pick in picked]
            for name, sample, parts in (
                ("walk", walk, singles),
                (f"gather of components {picked.tolist()}", gather(pieces), [singles[p] for p in picked]),
            ):
                found = component_bounds(sample)
                if not np.array_equal(sample.bounds, found):
                    return f"{where}: the {name}'s bounds {sample.bounds.tolist()} != {found.tolist()}"
                for index, (cut, part) in enumerate(zip(unstack(sample), parts)):
                    diff = subgraph_equal(cut, part)
                    if diff is not None:
                        return f"{where}: the {name}'s component {index} != its singleton sample: {diff}"

        where = f"{walker.cache_key()} {on}, disjoint targets={awkward.tolist()}"
        alone, together = _StageLog(), _StageLog()
        walker.sample(graph, awkward[:1], deadline=alone)
        walker.sample(graph, awkward, deadline=together, disjoint=True)
        if together.stages != alone.stages:
            return f"{where}: the walk checked {together.stages}, one singleton walk {alone.stages}"
        spent_at = int(rng.integers(0, walker.hops))
        ended = []
        for sample in (walker.sample, functools.partial(scalar_sample, walker)):
            try:
                sample(graph, awkward, deadline=_StageLog(spent_at), disjoint=True)
                ended.append(None)
            except _BudgetSpent as spent:
                ended.append(str(spent))
        if ended != [f"sampling hop {spent_at}"] * 2:
            return f"{where}: a budget spent at hop {spent_at} ended walk and spec at {ended}"
    return None


def _csr_mismatch(graph, spec: Tuple[np.ndarray, ...]) -> Optional[str]:
    """Where the compacted view of ``graph``'s CSR differs from the
    canonical ``(indptr, src, eid)`` of ``spec`` — a rebuild's, or
    :func:`~repro.check.reference.splice_csr`'s — or ``None``."""
    from .reference import compacted

    for name, left, right in zip(("indptr", "src", "eid"), compacted(graph.csr()), spec):
        if not np.array_equal(left, right):
            return f"grown {name} != {name}"
    return None


@scenario(
    "delta-merge-vs-rebuild",
    mutants=[  # ways append_delta can grow the CSR's buckets wrong or let a bad edge in;
        # the sampler's grown stage, dealt first, sees the first three too
        edit(
            "a-move-that-drops-the-last-old-entry", "repro.graph.hetero:HeteroGraph._grow_csr",
            "degree[moves], 2 *", "np.maximum(degree[moves] - 1, 0), 2 *", "grown",
            alone=True, shrinks_to=(1, 1),
        ),
        edit(
            "a-new-entry-at-its-canonical-index", "repro.graph.hetero:HeteroGraph._grow_csr",
            "np.repeat(base[nodes] + degree", "np.repeat(indptr[nodes] + degree", "grown",
            alone=True, shrinks_to=(0, 1),
        ),
        edit(
            "headroom-check-off-by-one", "repro.graph.hetero:HeteroGraph._grow_csr",
            "> cap[nodes]", "> cap[nodes] + 1", "grown", alone=True, shrinks_to=(0, 1),
        ),
        edit(
            "the-delta-check-skips-the-last-edge", "repro.graph.hetero:_check_growth",
            "_check_edge_schema(types_of(edge_src), types_of(edge_dst), edge_type)",
            "_check_edge_schema(*(column[: len(column) - (before is not None)] for column in "
            "(types_of(edge_src), types_of(edge_dst), edge_type)))",
            "mistyped", shrinks_to=(0, 2),
        ),
    ],
)
def _fuzz_delta_merge(seed: int, size: int) -> Optional[str]:
    """In-place growth and CSR growth vs a from-scratch graph: a run of
    deltas long enough to cross buffer reallocations and bucket moves
    (``2 * size``, 42 at the top of the ladder) of every shape — full,
    edge-only, node-only, empty — with in-place label flips and
    ``rebuild_csr()`` interleaved, audited after every step (the grown
    CSR's compacted view against :func:`~repro.check.reference.
    splice_csr` run on the same deltas) and each preceded now and then
    by a copy with one edge mistyped that must be refused whole; the
    transaction table against the deltas' tables appended in turn; then
    the full ``validate()`` and probe subgraphs."""
    from ..graph.hetero import EDGE_TYPES, HeteroGraph
    from ..graph.sampling import SageSampler
    from .reference import compacted, splice_csr

    rng = np.random.default_rng(seed)
    poison = np.random.default_rng((seed, size))  # its own draws: rng's stay put
    graph = random_hetero_graph(rng, num_txns=size)
    spec, buffers = compacted(graph.csr()), {}
    graph.txn_row  # derived now: the deltas extend it, as they grow the CSR
    tables = [graph.txn_table.copy()]
    flipped: Dict[int, int] = {}
    for step in range(2 * size):
        if rng.random() < 0.3:
            node = int(rng.choice(graph.txn_nodes))
            flipped[node] = int(rng.integers(0, 2))
            if rng.random() < 0.5:  # swap in an edited copy: the buffer goes stale
                graph.labels = graph.labels.copy()
            graph.labels[node] = flipped[node]
            graph.mark_mutated(structural=False)
        if rng.random() < 0.15:
            graph.rebuild_csr()
        shape = str(rng.choice(DELTA_SHAPES, p=(0.7, 0.1, 0.1, 0.1)))
        before, captured, snapshot = graph.version, graph.labels, graph.labels.copy()
        delta = random_delta(rng, graph, 1 + size % 3, shape=shape)
        edges = len(delta["edge_type"])
        if edges and poison.random() < 0.5:
            bad = delta["edge_type"].copy()
            at = edges - 1 if poison.random() < 0.5 else int(poison.integers(0, edges))
            bad[at] = (bad[at] + poison.integers(1, len(EDGE_TYPES))) % len(EDGE_TYPES)
            try:
                graph.append_delta(**dict(delta, edge_type=bad))
            except ValueError:
                pass
            else:
                return f"step {step} ({shape}): append_delta took edge {at} of {edges} mistyped"
            if graph.version != before:
                return f"step {step} ({shape}): a refused delta moved the version"
        tables.append(delta["txn_table"])
        graph.append_delta(**delta)
        spec = splice_csr(spec, graph.num_nodes, delta["edge_src"], delta["edge_dst"], buffers)
        if graph.version != before + 1:
            return f"step {step} ({shape}): version {before} -> {graph.version}, expected +1"
        if not (
            np.array_equal(captured, snapshot)
            and np.array_equal(graph.labels[: len(snapshot)], snapshot)
        ):
            return f"step {step} ({shape}): the delta rewrote labels it had already published"
        problems = csr_violations(graph)
        if problems:
            return f"step {step} ({shape}): grown CSR invalid: {problems[0]}"
        mismatch = _csr_mismatch(graph, spec)
        if mismatch is not None:
            return f"step {step} ({shape}): {mismatch} of the splice spec"
    lost = [node for node, label in flipped.items() if graph.labels[node] != label]
    if lost:
        return f"label flips lost across deltas at nodes {lost[:5]}"
    rebuilt = HeteroGraph(
        node_type=graph.node_type.copy(),
        edge_src=graph.edge_src.copy(),
        edge_dst=graph.edge_dst.copy(),
        edge_type=graph.edge_type.copy(),
        txn_table=np.concatenate(tables),
        labels=graph.labels.copy(),
    )
    if graph.txn_table.tobytes() != rebuilt.txn_table.tobytes():
        return "grown txn_table != the initial table and every delta's, appended in turn"
    if not np.array_equal(graph.txn_row, rebuilt.txn_row):
        return "txn_row extended across deltas != the one derived on the rebuilt graph"
    mismatch = _csr_mismatch(graph, compacted(rebuilt.csr()))
    if mismatch is not None:
        return f"{mismatch} of a rebuild"
    try:
        graph.validate()
    except ValueError as error:
        return f"the grown graph fails validate(): {error}"
    sampler = SageSampler(hops=2, fanout=3, seed=seed & 0xFFFF)
    target = int(np.flatnonzero(graph.node_type == 0)[0])
    diff = subgraph_equal(sampler.sample(graph, [target]), sampler.sample(rebuilt, [target]))
    if diff is not None:
        return f"probe subgraph on merged vs rebuilt graph: {diff}"
    return None


@scenario(
    "single-vs-batched-scoring",
    mutants=[  # a request pointed at a component other than its own target's sample
        edit(
            "two-distinct-targets-sharing-a-component", _CACHE + "get_or_sample",
            "slots = {key[-1]: index for index, key in enumerate(missed)}",
            "slots = dict.fromkeys((key[-1] for key in missed), 0)",
            "cached batch", shrinks_to=(0, 5),
        ),
        edit(
            "a-hit-gathered-at-the-next-component", _CACHE + "get_or_sample",
            "pieces.append(entry)",
            "pieces.append((entry[0], (entry[1] + 1) % entry[0].num_components))",
            "cached batch", shrinks_to=(0, 1),
        ),
        edit(  # the requests mapped onto the distinct targets in sorted order
            "a-repeat-pointed-at-the-wrong-root", "repro.serving.service:ScoringService._sample",
            "[(walk, slots[node]) for node in nodes]",
            "[(walk, int(slot)) for slot in np.unique(nodes, return_inverse=True)[1]]",
            "uncached batch", shrinks_to=(0, 1),
        ),
        # The control plane of a micro-batch: admission, expiry, reasons.
        edit(
            "admission-counted-once-per-batch", "repro.serving.service:ScoringService._serve",
            "self.stats.record_admitted(admitted)", "self.stats.record_admitted(min(admitted, 1))",
            "tallies", "'admitted'", shrinks_to=(0, 1),
        ),
        edit(
            "a-demoted-members-reason-dropped", _DEADLINE + "demote",
            "self.reasons[members] = reason", "self.reasons[members[:1]] = reason",
            "degraded_reason", shrinks_to=(3, 2),
        ),
        edit(  # the no-member-can-have-expired test against the loosest budget
            "the-fast-path-waits-for-the-loosest-budget", _DEADLINE + "__init__",
            "min(budgets.tolist(), default=-math.inf)", "max(budgets.tolist(), default=-math.inf)",
            "control plane", shrinks_to=(2, 2),
        ),
        edit(  # a bucket that cannot grant the whole batch grants none of it
            "a-short-bucket-grants-nothing", "repro.serving.admission:TokenBucket.grant",
            "else int(self._tokens)", "else 0", "admitted", shrinks_to=(0, 1),
        ),
    ],
)
def _fuzz_scoring(seed: int, size: int) -> Optional[str]:
    """n batches of one (``score()``) vs batches of n (``score_batch()``):
    a verdict must not depend on batch composition. The first batch holds
    distinct targets, the next two repeat some; each batch runs through a
    service without a cache and through one with a small
    :class:`SubgraphCache`, where a target's component comes from the
    batch's own walk, a stored sample, or is gathered out of an earlier
    batch's walk. Every request's verdict must equal its target's own
    ``score()``. Then the control plane: :func:`_control_plane_divergence`."""
    from ..graph.cache import SubgraphCache
    from ..models.detector import DetectorConfig, XFraudDetectorPlus
    from ..reliability.faults import ManualClock
    from ..serving.service import ScoringService, ServiceConfig

    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=max(3, size), feature_dim=6)
    detector = XFraudDetectorPlus(
        DetectorConfig(
            feature_dim=6,
            hidden_dim=8,
            num_heads=2,
            num_layers=1 + size % 2,
            ffn_hidden_dim=8,
            seed=seed % 97,
        ),
        hops=2,
        fanout=3,
    )
    txns = np.flatnonzero(graph.node_type == 0)
    picks = sorted({int(txns[int(rng.integers(0, len(txns)))]) for _ in range(4)})
    batches = [picks] + [
        [int(txns[int(rng.integers(0, len(txns)))]) for _ in range(int(rng.integers(2, 7)))]
        for _ in range(2)
    ]

    def make_service(cache=None) -> ScoringService:
        return ScoringService(
            detector,
            graph,
            config=ServiceConfig(static_prior=0.01, batch_size=None),
            clock=ManualClock(),
            cache=cache,
        )

    alone = {node: make_service().score(node) for batch in batches for node in batch}
    for cache in (None, SubgraphCache(capacity=2 + size % 5)):
        service = make_service(cache)
        for index, batch in enumerate(batches):
            where = f"{'cached' if cache else 'uncached'} batch {index} {batch}"
            for node, right in zip(batch, service.score_batch(batch)):
                left = alone[node]
                if left.rung != right.rung:
                    return f"{where}, node {node}: rung {left.rung} != {right.rung}"
                if abs(left.score - right.score) > 1e-9:
                    return f"{where}, node {node}: score {left.score!r} != {right.score!r}"
                if left.verdict != right.verdict:
                    return f"{where}, node {node}: verdict {left.verdict} != {right.verdict}"
    return _control_plane_divergence(detector, graph, np.random.default_rng((seed, size, 1)))


#: Request budgets in clock readings: spent at the admission check (1
#: reading into a pass), sampling hop 0 (3) and 1 (4), the feature fetch
#: (5) and the model forward (7); then one never spent, and ``None``.
_BUDGET_TICKS = (0.5, 2.5, 3.5, 4.5, 6.5, 100.0, None)


def _control_plane_divergence(detector, graph, rng) -> Optional[str]:
    """``score_batch`` of four calls vs a loop of ``score()`` over the
    same requests, one service each, on a ``ManualClock`` that every
    reading moves one tick (so a stage check sits a fixed number of
    readings into its pass, however many requests ride it): random
    mixes of ints and :class:`ScoreRequest`\\ s carrying budgets spent
    at every stage (:data:`_BUDGET_TICKS`), a finite-rate bucket that
    refills a whole number of tokens and a quarter between calls (so its
    fraction stays a quarter or more off a whole token over the four,
    however the loop's extra readings add to it) or an infinite rate,
    ``batch_size`` from 1 to unbounded, and a whole call now and then
    inside a KV outage window. Every response's node, verdict,
    rung, ``admitted``, ``shed_reason`` and ``degraded_reason`` must be
    equal and its score within 1e-9, and after each call every
    ``ServiceStats`` tally but ``kv_failures`` (counted per failed read:
    one for a batch, one per request for the loop)."""
    from ..reliability.faults import FaultyKVStore, ManualClock
    from ..serving.service import ScoreRequest, ScoringService, ServiceConfig
    from ..storage.kvstore import InMemoryKVStore
    from ..storage.loader import GraphStore

    tick = 1e-6

    class TickingClock(ManualClock):
        def __call__(self) -> float:
            return self.advance(tick)

    rate = (np.inf, 1.0, 3.0)[int(rng.integers(0, 3))]
    config = ServiceConfig(
        deadline_s=1.0,
        static_prior=0.01,
        rate=rate,
        burst=float(rng.integers(1, 6)),
        batch_size=(None, 1, 2, 3)[int(rng.integers(0, 4))],
    )
    txns = np.flatnonzero(graph.node_type == 0)
    calls, at = [], 0.0
    for _ in range(4):
        requests = []
        for _ in range(int(rng.integers(1, 8))):
            node, kind = int(txns[int(rng.integers(0, len(txns)))]), int(rng.integers(0, 3))
            budget = _BUDGET_TICKS[int(rng.integers(0, len(_BUDGET_TICKS)))]
            deadline = None if budget is None or kind == 1 else budget * tick
            requests.append(node if kind == 0 else ScoreRequest(node, deadline_s=deadline))
        at += (int(rng.integers(0, 3)) + 0.25) / (rate if np.isfinite(rate) else 1.0)
        calls.append((at, requests, rng.random() < 0.25))
    backing = InMemoryKVStore()
    GraphStore(backing).save(graph)
    outages = [(start, start + 0.01) for start, _, down in calls if down]
    runs = []
    for batched in (True, False):
        clock = TickingClock()
        store = FaultyKVStore(backing, lambda: clock.now, outages=outages)  # no tick
        service = ScoringService(detector, graph, feature_store=store, config=config, clock=clock)
        answers = []
        for start, requests, _ in calls:
            clock.now = max(clock.now, start)
            if batched:
                responses = service.score_batch(requests)
            else:
                responses = [service.score(request) for request in requests]
            snapshot = service.stats.snapshot()
            del snapshot["kv_failures"], snapshot["latency_s"]
            answers.append((responses, snapshot))
        runs.append(answers)
    fields = ("node", "admitted", "shed_reason", "degraded_reason", "rung", "verdict")
    for index, ((batch, tallies), (loop, expected)) in enumerate(zip(*runs)):
        where = f"control plane, call {index} (rate {rate}, {config.batch_size=})"
        for position, (right, left) in enumerate(zip(batch, loop)):
            for name in fields:
                if getattr(left, name) != getattr(right, name):
                    return (
                        f"{where}, request {position}: {name} {getattr(left, name)!r} one at "
                        f"a time != {getattr(right, name)!r} batched"
                    )
            if abs(left.score - right.score) > 1e-9:
                return f"{where}, request {position}: score {left.score!r} != {right.score!r}"
        if tallies != expected:
            return f"{where}: tallies {expected} one at a time != {tallies} batched"
    return None


@scenario(
    "wal-crash-replay",
    mutants=[
        edit(  # the guard the zero-filled-tail regression seed put in
            "zero-length-frames-replayed", "repro.stream.wal:_scan_frames",
            "if length == 0:", "if length < 0:", "EventCodecError", shrinks_to=(4, 5),
        ),
        edit(
            "sealed-range-starts-one-past-its-first-record", "repro.stream.wal:EventLog.rotate",
            '"first_seq": self._active_first_seq,', '"first_seq": self._active_first_seq + 1,',
            "first_seq", shrinks_to=(0, 3),
        ),
    ],
)
def _fuzz_wal(seed: int, size: int) -> Optional[str]:
    """Write, crash (truncate / zero-fill / bit-flip the active tail),
    replay, reopen, resume — durable prefix semantics throughout — with
    the rotation boundary on an exact frame edge half the time (a
    segment filled to the byte). Then the sealed segments against
    ``MANIFEST.json`` (:func:`~.invariants.wal_violations`: sizes, CRCs,
    record counts, contiguous sequence ranges), and one bit flipped in a
    sealed segment must be reported."""
    from ..data.events import encode_event
    from ..stream.wal import _FRAME_HEADER, EventLog, TornTailError, replay_wal

    rng = np.random.default_rng(seed)
    events = random_events(rng, size, feature_dim=3)
    frame_size = _FRAME_HEADER.size + len(encode_event(events[0]))
    per_segment = 1 + int(rng.integers(0, 4))
    # Bias the rotation boundary onto the exact frame edge half the time.
    segment_max = per_segment * frame_size
    if rng.random() < 0.5:
        segment_max += int(rng.integers(1, frame_size))

    with tempfile.TemporaryDirectory() as directory:
        with EventLog(directory, segment_max_bytes=segment_max) as log:
            for event in events:
                log.append(event)
            active_name = log._active_name
            active_records = log._active_records
            active_size = log._active_size
        sealed_records = len(events) - active_records

        # Where each active frame ends: events encode to different lengths.
        edges = np.cumsum([_FRAME_HEADER.size + len(encode_event(e)) for e in events])
        edges = edges[sealed_records:] - (edges[sealed_records - 1] if sealed_records else 0)
        kinds = ["clean", "truncate", "zero-fill", "zero-fill at an edge", "bit-flip"]
        damage = str(rng.choice(kinds))
        expected = len(events)
        should_tear = False
        if damage != "clean" and active_size > 0:
            path = os.path.join(directory, active_name)
            cut = int(rng.integers(0, active_size))
            if damage == "zero-fill at an edge":  # zeros after whole frames: empty "frames"
                cut = int(edges[edges <= cut].max(initial=0))
            expected = sealed_records + int(np.searchsorted(edges, cut, side="right"))
            should_tear = True
            if damage == "truncate":
                # A cut on an exact frame boundary is indistinguishable
                # from a clean close — no tear to report.
                should_tear = cut != 0 and cut not in edges
                with open(path, "r+b") as handle:
                    handle.truncate(cut)
            elif damage.startswith("zero-fill"):
                with open(path, "r+b") as handle:
                    handle.truncate(cut)
                    handle.seek(cut)
                    handle.write(b"\x00" * int(rng.integers(1, 64)))
            else:  # bit-flip at `cut`, torn from the containing frame on
                with open(path, "r+b") as handle:
                    handle.seek(cut)
                    byte = handle.read(1)
                    handle.seek(cut)
                    handle.write(bytes([byte[0] ^ 0x01]))
        else:
            damage = "clean"

        torn = False
        replayed: List = []
        try:
            for _, event in replay_wal(directory):
                replayed.append(event)
        except TornTailError:
            torn = True
        if torn != should_tear:
            return f"{damage}: replay torn={torn}, expected {should_tear}"
        if len(replayed) != expected:
            return f"{damage}: replay kept {len(replayed)} records, expected {expected}"
        if [e.txn_id for e in replayed] != [e.txn_id for e in events[:expected]]:
            return f"{damage}: replayed records are not the written prefix"

        # Reopen: recovery truncates the tear; appends must resume.
        log = EventLog(directory, segment_max_bytes=segment_max)
        if (log.recovered_tail is not None) != should_tear:
            return f"{damage}: recovered_tail={log.recovered_tail!r}, tear={should_tear}"
        if log.record_count != expected:
            return f"{damage}: reopen record_count {log.record_count} != {expected}"
        resumed = random_events(rng, 2, feature_dim=3, start_txn_id=10_000)
        for event in resumed:
            log.append(event)
        log.close()
        final = [event for _, event in replay_wal(directory)]
        want = [e.txn_id for e in events[:expected]] + [e.txn_id for e in resumed]
        if [e.txn_id for e in final] != want:
            return f"{damage}: post-resume replay diverges from prefix + resumed"
        problems = wal_violations(directory)
        if problems:
            return f"{damage}: {problems[0]}"
        sealed = sorted(name for name in os.listdir(directory) if name.endswith(".seg"))[:-1]
        if sealed:
            path = os.path.join(directory, str(rng.choice(sealed)))
            _flip_a_byte(rng, path)
            if not wal_violations(directory):
                return f"{damage}: wal_violations missed a bit flipped in sealed {path}"
    return None


def _flip_a_byte(rng: np.random.Generator, path: str) -> None:
    """Invert one byte of the file at ``path``, at a random offset."""
    with open(path, "r+b") as handle:
        handle.seek(int(rng.integers(0, os.path.getsize(path))))
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _cut_edges(rng: np.random.Generator, graph, shape: str):
    """``graph`` ``"thinned"`` to about half its directed edges (one-way
    links, isolated nodes), cut to a ``"single-edge"`` or left
    ``"edgeless"``; any other ``shape`` keeps every edge."""
    from ..graph.hetero import HeteroGraph

    keep = np.ones(graph.num_edges, dtype=bool)
    if shape == "thinned":
        keep = rng.random(graph.num_edges) < 0.5
    elif shape in ("single-edge", "edgeless"):
        keep[:] = False
        if shape == "single-edge" and graph.num_edges:
            keep[int(rng.integers(0, graph.num_edges))] = True
    return HeteroGraph(
        node_type=graph.node_type,
        edge_src=graph.edge_src[keep],
        edge_dst=graph.edge_dst[keep],
        edge_type=graph.edge_type[keep],
        txn_table=graph.txn_table,
        labels=graph.labels,
    )


@scenario(
    "fast-decode-vs-np-load",
    mutants=[  # checks the batch decode of load_rows could drop
        edit(
            "prefix-compared-on-the-first-blob-only", "repro.storage.loader:_decode_uniform",
            "if len(blob) != length or not blob.startswith(prefix):", "if len(blob) != length:",
            "load_rows ->", shrinks_to=(0, 5),
        ),
        edit(
            "trailing-bytes-admitted", "repro.storage.loader:_decode_uniform",
            "len(first) != offset + nbytes or ", "len(first) < offset + nbytes or ",
            "row by row ->", shrinks_to=(4, 4),
        ),
    ],
)
def _fuzz_decode(seed: int, size: int) -> Optional[str]:
    """The header-memoising ``decode_array`` vs ``np.load`` over the
    same bytes: well-formed blobs of random dtype and shape, then the
    same blobs damaged (cut, extended, one header or payload byte
    flipped, sometimes twice) and hand-built headers ``encode_array``
    never writes (object or sub-array dtype, Fortran order, negative
    extent, format 2.0 / 3.0).
    Both sides must return the same dtype, shape and bytes, or both
    must raise. Then rows: batches of one table's blobs through
    ``load_rows`` — which decodes a uniform batch at once — with rows
    of another dtype, width or format version, trailing bytes (on one
    row or on all) and cut or flipped blobs mixed in, into no ``out``
    or one of a given dtype and width, vs the row-by-row loop over
    ``decode_array``: the same matrix, or the same exception type."""
    import io
    import warnings

    from numpy.lib import format as npy_format

    from ..storage.loader import decode_array, encode_array, load_rows

    rng = np.random.default_rng(seed)

    def row_by_row(blobs: List[bytes], out: Optional[np.ndarray]) -> np.ndarray:
        for position, blob in enumerate(blobs):
            row = decode_array(blob)
            if out is None:
                out = np.empty((len(blobs),) + row.shape, dtype=row.dtype)
            elif row.shape != out.shape[1:]:
                raise ValueError(f"row {position} has shape {row.shape}")
            out[position] = row
        return out

    def random_array() -> np.ndarray:
        dtype = np.dtype(str(rng.choice(["<f4", "<f8", ">f8", "<i8", "|b1", "|u1"])))
        rank = int(rng.integers(0, 3))
        shape = tuple(int(rng.integers(0, 5)) for _ in range(rank))
        raw = rng.integers(0, 256, size=int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        return np.frombuffer(raw.astype(np.uint8).tobytes(), dtype=dtype).reshape(shape)

    def hand_built(kind: str) -> bytes:
        stream = io.BytesIO()
        if kind == "object":
            header = {"descr": "|O", "fortran_order": False, "shape": (2,)}
            npy_format.write_array_header_1_0(stream, header)
            stream.write(bytes(16))
        elif kind == "fortran":
            array = np.asfortranarray(rng.normal(size=(2, 3)))
            npy_format.write_array(stream, array, version=(1, 0))
        elif kind == "negative":
            header = {"descr": "<f8", "fortran_order": False, "shape": (-1,)}
            npy_format.write_array_header_1_0(stream, header)
            stream.write(bytes(24))
        elif kind == "subarray":
            extent = int(rng.integers(0, 3))
            header = {"descr": ("<f4", (2,)), "fortran_order": False, "shape": (extent,)}
            npy_format.write_array_header_1_0(stream, header)
            stream.write(bytes(8 * extent))
        else:  # "v2" / "v3": the wider header-length field
            npy_format.write_array(stream, random_array(), version=(int(kind[1]), 0))
        return stream.getvalue()

    def damage(blob: bytes) -> "tuple[str, bytes]":
        kind = str(rng.choice(["none", "truncate", "extend", "flip-head", "flip-any"]))
        if not blob:  # already cut to nothing: no byte left to cut or flip
            return "none", blob
        if kind == "truncate":
            return kind, blob[: int(rng.integers(0, len(blob)))]
        if kind == "extend":
            return kind, blob + bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8))
        if kind in ("flip-head", "flip-any"):
            # flip-head: magic, version, header length, start of the dict.
            reach = min(24, len(blob)) if kind == "flip-head" else len(blob)
            at = int(rng.integers(0, reach))
            flipped = blob[at] ^ (1 << int(rng.integers(0, 8)))
            return f"{kind}@{at}", blob[:at] + bytes([flipped]) + blob[at + 1 :]
        return kind, blob

    def outcome(decode: Callable[[bytes], np.ndarray], blob: bytes):
        try:
            array = decode(blob)
        except Exception:
            return "raised"
        return str(array.dtype), array.shape, array.tobytes()

    def np_load(blob: bytes) -> np.ndarray:
        return np.load(io.BytesIO(blob), allow_pickle=False)

    for trial in range(2 * size):
        if rng.random() < 0.3:
            source = str(rng.choice(["object", "fortran", "negative", "subarray", "v2", "v3"]))
            blob = hand_built(source)
        else:
            source, blob = "encode_array", encode_array(random_array())
        how, blob = damage(blob)
        if rng.random() < 0.3:
            again, blob = damage(blob)
            how = f"{how}+{again}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns on py2-style headers
            fast, reference = outcome(decode_array, blob), outcome(np_load, blob)
        if fast != reference:
            sides = [side if side == "raised" else side[:2] for side in (fast, reference)]
            return (
                f"blob {trial} ({source}, {how}, {len(blob)} bytes): "
                f"decode_array -> {sides[0]}, np.load -> {sides[1]}"
            )
    for trial in range(2 * size):
        dtype = str(rng.choice(["<f4", "<f8", ">f8", "<i8", "|u1"]))
        width = int(rng.integers(0, 6))
        table = [rng.integers(0, 100, size=width).astype(dtype) for _ in range(int(rng.integers(1, 7)))]
        blobs, odd = [encode_array(row) for row in table], []
        for at in np.flatnonzero(rng.random(len(blobs)) < 0.25):
            kind = str(rng.choice(["dtype", "width", "v2", "damaged"]))
            if kind == "dtype":
                blobs[at] = encode_array(table[at].astype("<i4"))
            elif kind == "width":
                blobs[at] = encode_array(np.zeros(width + 1, dtype=dtype))
            elif kind == "v2":
                stream = io.BytesIO()
                npy_format.write_array(stream, table[at], version=(2, 0))
                blobs[at] = stream.getvalue()
            else:
                kind, blobs[at] = damage(blobs[at])
            odd.append(f"{at}:{kind}")
        if rng.random() < 0.2:  # still uniform, but every payload is followed by a tail
            blobs = [blob + b"tail" for blob in blobs]
            odd.append("all:tail")
        into = str(rng.choice(["none", "<f8", "<f4", "wrong width"]))

        def rows_outcome(load: Callable) -> object:
            out = None
            if into != "none":
                shape = (len(blobs), width + (into == "wrong width"))
                out = np.full(shape, -1, dtype="<f8" if into == "wrong width" else into)
            try:
                rows = load(out)
            except Exception as error:
                return type(error).__name__
            return str(rows.dtype), rows.shape, rows.tobytes(), out is None or rows is out

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = rows_outcome(lambda out: load_rows(lambda keys: blobs, range(len(blobs)), out))
            reference = rows_outcome(lambda out: row_by_row(blobs, out))
        if fast != reference:
            sides = [side if isinstance(side, str) else side[:2] for side in (fast, reference)]
            return (
                f"batch {trial} ({len(blobs)} rows of {width} x {dtype}, odd rows {odd}, "
                f"out: {into}): load_rows -> {sides[0]}, row by row -> {sides[1]}"
            )
    return None


def _scalar_bfs(graph, sources: Sequence[int], max_hops=None, max_nodes=None):
    """Scalar spec of :func:`~repro.graph.sampling.bfs`: a node-at-a-time
    BFS over the flat edge arrays (no CSR), each node's in-edges by
    ascending edge id. Level ``k`` is expanded while ``k < max_hops``
    and fewer than ``max_nodes`` nodes are reached, and a node is
    reached while fewer than ``max_nodes`` are. Returns
    ``(nodes, hops, edge_ids)``: the nodes in discovery order, their hop
    counts, and the in-edges of every expanded node, level after level."""
    depth: Dict[int, int] = {}
    for source in sources:
        depth.setdefault(int(source), 0)

    def room() -> bool:
        return max_nodes is None or len(depth) < max_nodes

    frontier, edge_ids, hop = list(depth), [], 0
    while frontier and (max_hops is None or hop < max_hops) and room():
        reached: List[int] = []
        for node in frontier:
            for edge in np.flatnonzero(graph.edge_dst == node):
                edge_ids.append(int(edge))
                source = int(graph.edge_src[edge])
                if source not in depth and room():
                    depth[source] = hop + 1
                    reached.append(source)
        frontier, hop = reached, hop + 1
    return list(depth), list(depth.values()), edge_ids


def _bfs_problem(graph, sources: np.ndarray, rng: np.random.Generator) -> Optional[str]:
    """:func:`~repro.graph.sampling.bfs` against :func:`_scalar_bfs`
    under random caps: nodes, hop counts and the edges walked, in order."""
    from ..graph.sampling import bfs

    max_hops = None if rng.random() < 0.3 else int(rng.integers(0, 4))
    max_nodes = None if rng.random() < 0.3 else int(rng.integers(0, graph.num_nodes + 2))
    nodes, hops, slots = bfs(graph, sources, max_hops, max_nodes)
    walk = (nodes.tolist(), hops.tolist(), graph.csr().edge_id[slots].tolist())
    spec = _scalar_bfs(graph, sources, max_hops, max_nodes)
    for name, got, want in zip(("nodes", "hops", "edges walked"), walk, spec):
        if got != want:
            caps = f"max_hops={max_hops}, max_nodes={max_nodes}"
            return f"bfs({caps}) {name} {got} != scalar BFS {want}"
    return None


def _field_problem(graph, targets: np.ndarray, hops: int) -> Optional[str]:
    """``receptive_field`` against :func:`_scalar_bfs` in the canonical
    order it promises, and its graph against the parent rows it claims
    to hold."""
    from ..graph.sampling import receptive_field

    field = receptive_field(graph, targets, hops)
    reached, depth, walked = _scalar_bfs(graph, targets, hops)
    roots = reached[: depth.count(0)]
    nodes = roots + sorted(reached[len(roots) :])
    target_local = [nodes.index(int(target)) for target in targets]
    if field.original_ids.tolist() != nodes:
        return f"nodes {field.original_ids.tolist()} != BFS {nodes}"
    if field.edge_ids.tolist() != sorted(walked):
        return f"edge_ids {field.edge_ids.tolist()} != BFS (ascending) {sorted(walked)}"
    if field.target_local.tolist() != target_local:
        return f"target_local {field.target_local.tolist()} != BFS {target_local}"
    sub, ids, kept = field.graph, field.original_ids, field.edge_ids
    ranks = np.searchsorted(graph.txn_nodes, ids[graph.node_type[ids] == 0])
    held = (
        ("node_type", sub.node_type, graph.node_type[ids]),
        ("txn_table", sub.txn_table, graph.txn_table[ranks]),
        ("edge_src", ids[sub.edge_src], graph.edge_src[kept]),
        ("edge_dst", ids[sub.edge_dst], graph.edge_dst[kept]),
        ("edge_type", sub.edge_type, graph.edge_type[kept]),
    )
    for name, got, want in held:
        if not np.array_equal(got, want):
            return f"field {name} is not the parent's rows"
    return None


def _grads_problem(named, reference, ours: str, theirs: str) -> Optional[str]:
    """``(name, tensor)`` pairs against their twins: every gradient
    within 1e-12 of its scale; a missing one only matches a missing one
    (the optimiser skips those). ``ours`` / ``theirs`` name the sides."""
    for (name, tensor), (_, twin) in zip(named, reference):
        if (tensor.grad is None) != (twin.grad is None):
            sides = ["missing" if t.grad is None else "present" for t in (tensor, twin)]
            return f"grad of {name}: {sides[0]} on {ours}, {sides[1]} on {theirs}"
        if tensor.grad is None:
            continue
        worst = float(np.abs(tensor.grad - twin.grad).max(initial=0.0))
        if not worst <= 1e-12 * max(1.0, float(np.abs(twin.grad).max(initial=0.0))):
            return f"grad of {name}: max |{ours} - {theirs}| = {worst:.3e}"
    return None


def _step_problem(model, graph, targets: np.ndarray) -> Optional[str]:
    """One ``model.loss`` + backward (the receptive-field step) against
    the same loss on the whole graph, from the same parameters and
    generator states: loss within 1e-9, every parameter gradient within
    1e-12 of its scale (:func:`_grads_problem`), generators left in the
    same state."""
    from ..nn import functional as F
    from ..reliability.checkpoint import collect_rng_states

    model.zero_grad()
    whole = copy.deepcopy(model)
    loss = model.loss(graph, targets)
    loss.backward()
    reference = F.cross_entropy(whole.forward(graph, targets), graph.labels[targets])
    reference.backward()
    if not abs(loss.item() - reference.item()) <= 1e-9:
        return f"loss {loss.item()!r} != whole-graph {reference.item()!r}"
    if collect_rng_states(model) != collect_rng_states(whole):
        return "generator states differ after the step"
    return _grads_problem(
        model.named_parameters(), whole.named_parameters(), "the field", "the whole graph"
    )


@scenario(
    "pruned-step-vs-full-graph",
    mutants=[  # the first three on the step's path only: the BFS spec cannot see them
        edit(
            "field-one-hop-short", "repro.models.field:receptive_field",
            "max_hops=hops)", "max_hops=hops - 1)", "!= whole-graph",
            shrinks_to=(7, 1),
        ),
        edit(
            "field-fanout-capped", "repro.models.field:receptive_field",
            "edge_ids = np.sort(graph.csr().edge_id[slots])",
            "csr = graph.csr()\n    edge_ids = np.sort(csr.edge_id[slots["
            "slots - csr.base[graph.edge_dst[csr.edge_id[slots]]] < 2]])",
            "!= whole-graph", shrinks_to=(6, 1),
        ),
        edit(
            "field-target-rows-dropped", "repro.models.field:receptive_field",
            "edge_ids = np.sort(graph.csr().edge_id[slots])",
            "csr = graph.csr()\n    edge_ids = np.sort(csr.edge_id[slots["
            "np.diff(csr.indptr)[unique_targets].sum():]])",
            "!= whole-graph", shrinks_to=(4, 1),
        ),
        edit(  # fused-backward-vs-autograd sees it too: the convolution draws through dropout
            "mask-drawn-at-the-field-extent", "repro.nn.functional:dropout",
            "draws = rng.random((extent,) + x.shape[1:])[index]", "draws = rng.random(x.shape)",
            "!= whole-graph",
            alone=True, shrinks_to=(0, 4),
        ),
        edit(  # numerically harmless: only the contract check against the BFS sees it
            "field-edge-ids-unsorted", _SAMPLING + "receptive_field",
            "edge_ids = np.sort(graph.csr().edge_id[slots])",
            "edge_ids = np.sort(graph.csr().edge_id[slots])[::-1]",
            "BFS (ascending)", shrinks_to=(0, 1),
        ),
        edit(  # moves the walk's order, and so a max_nodes cap, but no receptive field
            "bfs-frontier-deduplicated-sorted", _SAMPLING + "bfs",
            "frontier = _first_occurrence_unique(neighbors[~seen[neighbors]])",
            "frontier = np.unique(neighbors[~seen[neighbors]])",
            "!= scalar BFS", shrinks_to=(1, 5),
        ),
    ],
)
def _fuzz_pruned_step(seed: int, size: int) -> Optional[str]:
    """A training step on the batch's receptive field (what every
    ``model.loss`` computes) vs the same step on the whole graph; the
    field vs a scalar BFS, and ``bfs`` itself vs that BFS under random
    ``max_hops`` / ``max_nodes``. Detector under all four ablation
    configs, GAT, GEM and the MLP; dropout on (``train()``) and off;
    graphs whole, thinned to one-directional edges and isolated nodes,
    cut to a single edge or none, and growing under ``append_delta``;
    batches with repeats, and batches of every transaction (a closure
    that is the whole graph)."""
    from ..models.detector import XFraudDetector
    from ..models.gat import GATModel
    from ..models.gem import GEMModel
    from ..models.mlp import FeatureMLP

    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=size, feature_dim=5)
    shape = str(rng.choice(["whole", "thinned", "single-edge", "edgeless", "live"]))
    graph = _cut_edges(rng, graph, shape)

    kind, config = _small_detector_config(rng, seed, max_heads=3, kinds=7)
    model = ((XFraudDetector,) * 4 + (GATModel, GEMModel, FeatureMLP))[kind](config)
    hops = 0 if kind == 6 else config.num_layers
    random_weights(rng, model)

    caps = np.random.default_rng((seed, size))  # its own stream: the step cases stay as dealt
    steps = 1 + 2 * (shape == "live")
    for step in range(steps):
        if step:
            graph.append_delta(**random_delta(rng, graph, 1 + size % 3))
        else:
            graph.csr()  # so a live graph grows its CSR rather than rebuilding it
        txns = graph.txn_nodes
        if rng.random() < 0.25:
            targets = rng.permutation(txns)
        else:
            targets = txns[rng.integers(0, len(txns), size=int(rng.integers(1, 7)))]
        problem = _bfs_problem(graph, targets, caps)
        if problem is not None:
            where = f"{shape} graph ({graph.num_nodes} nodes) step {step}"
            return f"{where}, sources {targets.tolist()}: {problem}"
        for training in (True, False):
            model.train(training)
            where = (
                f"{type(model).__name__} kind {kind}, {config.num_layers} layers, {shape} graph "
                f"({graph.num_nodes} nodes, {graph.num_edges} edges) step {step}, "
                f"{'train' if training else 'eval'}, targets={targets.tolist()}"
            )
            problem = _field_problem(graph, targets, hops) or _step_problem(model, graph, targets)
            if problem is not None:
                return f"{where}: {problem}"
    return None


def numerical_grad(fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` of one
    array (perturbed in place, restored on return)."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def _grad_cases(rng: np.random.Generator, size: int) -> List[Tuple[str, Callable, List[np.ndarray]]]:
    """``(name, fn, inputs)`` for every differentiable op of ``nn.tensor``,
    ``nn.segment`` and ``nn.functional``: ``fn`` maps ``Tensor`` inputs
    to a ``Tensor``. Shapes are redrawn per case; ``n`` rows may be 0
    (a zero-row block), an index may miss segments (empty
    neighbourhoods) or hit one once (a single edge). Inputs stay clear
    of kinks (``relu`` at 0) and poles, where a central
    difference says nothing about the one-sided gradient."""
    from .. import nn
    from ..nn import functional as F
    from ..nn import tensor as T

    cap = max(1, min(size, 4))

    def rows(least: int = 0) -> int:
        return int(rng.integers(least, cap + 1))

    def normal(*shape: int) -> np.ndarray:
        return rng.normal(size=shape)

    def off_zero(*shape: int) -> np.ndarray:
        return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.2, 1.5, size=shape)

    def positive(*shape: int) -> np.ndarray:
        return rng.uniform(0.3, 2.0, size=shape)

    def index(into: int, count: int) -> np.ndarray:
        return rng.integers(0, into, size=count) if into else np.zeros(0, dtype=np.int64)

    cases: List[Tuple[str, Callable, List[np.ndarray]]] = []

    def case(name: str, fn: Callable, *inputs: np.ndarray) -> None:
        cases.append((name, fn, list(inputs)))

    n, m, d, k = rows(), rows(), rows(1), rows(1)
    # -- nn.tensor -----------------------------------------------------
    case("add", lambda a, b: a + b, normal(n, d), normal(n, d))
    case("add broadcast", lambda a, b: a + b, normal(n, 1, d), normal(k, 1))
    case("radd scalar", lambda a: 1.5 + a, normal(n, d))
    case("neg", lambda a: -a, normal(n, d))
    case("sub", lambda a, b: a - b, normal(n, d), normal(d))
    case("rsub", lambda a: 2.0 - a, normal(n, d))
    case("mul", lambda a, b: a * b, normal(n, d), normal(n, d))
    case("mul broadcast", lambda a, b: a * b, normal(n, k, d), normal(k, 1))
    case("truediv", lambda a, b: a / b, normal(n, d), off_zero(n, d))
    case("truediv broadcast", lambda a, b: a / b, normal(n, d), off_zero(1, d))
    case("rtruediv", lambda a: 2.0 / a, off_zero(n, d))
    case("pow", lambda a: a**3, normal(n, d))
    case("pow fractional", lambda a: a**0.7, positive(n, d))
    case("matmul", lambda a, b: a @ b, normal(n, d), normal(d, k))
    case("matmul batched", lambda a, b: a @ b, normal(k, n, d), normal(k, d, m))
    case("matmul broadcast", lambda a, b: a @ b, normal(k, n, d), normal(d, m))
    case("matmul matrix-vector", lambda a, b: a @ b, normal(n, d), normal(d))
    case("matmul vector-matrix", lambda a, b: a @ b, normal(d), normal(d, k))
    case("matmul vector-vector", lambda a, b: a @ b, normal(d), normal(d))
    case("matmul batched-vector", lambda a, b: a @ b, normal(k, n, d), normal(d))
    case("transpose", lambda a: a.transpose(1, 0, 2), normal(n, k, d))
    case("T", lambda a: a.T, normal(n, d))
    case("reshape", lambda a: a.reshape(n * k, d), normal(n, k, d))
    case("getitem slice", lambda a: a[:, :1], normal(n, d))
    rows_n = index(n, m)
    case("getitem rows", lambda a: a[rows_n], normal(n, d))
    cols_d = index(d, m)
    pick_rows = index(n, m)
    case("getitem pairs", lambda a: a[pick_rows, cols_d[: len(pick_rows)]], normal(n, d))
    case("sum", lambda a: a.sum(), normal(n, d))
    case("sum axis", lambda a: a.sum(axis=0), normal(n, d))
    case("sum axis keepdims", lambda a: a.sum(axis=-1, keepdims=True), normal(n, d))
    lead = rows(1)
    case("mean", lambda a: a.mean(), normal(lead, d))
    case("mean axis", lambda a: a.mean(axis=0, keepdims=True), normal(lead, d))
    case("exp", lambda a: a.exp(), normal(n, d))
    case("log", lambda a: a.log(), positive(n, d))
    case("tanh", lambda a: a.tanh(), normal(n, d))
    case("relu", lambda a: a.relu(), off_zero(n, d))
    case("sigmoid", lambda a: a.sigmoid(), normal(n, d))
    case("concat rows", lambda a, b: T.concat([a, b], axis=0), normal(n, d), normal(m, d))
    case("concat columns", lambda a, b: T.concat([a, b], axis=-1), normal(n, d), normal(n, k))
    chosen = rng.random((n, d)) < 0.5
    case("where", lambda a, b: T.where(chosen, a, b), normal(n, d), normal(n, d))

    # -- nn.segment: m edges into n nodes --------------------------------
    edges = m if n else 0
    segment_ids = index(n, edges)
    case("gather", lambda a: nn.gather(a, segment_ids), normal(n, d))
    case("gather 1-d", lambda a: nn.gather(a, segment_ids), normal(n))
    case("segment_sum", lambda a: nn.segment_sum(a, segment_ids, n), normal(edges, k, d))
    case("segment_mean", lambda a: nn.segment_mean(a, segment_ids, n), normal(edges, d))
    case("segment_softmax", lambda a: nn.segment_softmax(a, segment_ids, n), normal(edges, d))
    case("segment_softmax 1-d", lambda a: nn.segment_softmax(a, segment_ids, n), normal(edges))
    case("scatter_rows", lambda a: nn.scatter_rows(a, segment_ids, n), normal(edges, d))
    base = normal(n, d)
    case("scatter_rows base", lambda a: nn.scatter_rows(a, segment_ids, n, base=base), normal(edges, d))

    # -- nn.functional ---------------------------------------------------
    case("leaky_relu", lambda a: F.leaky_relu(a, 0.2), off_zero(n, d))
    case("elu", lambda a: F.elu(a), off_zero(n, d))
    case("softmax", lambda a: F.softmax(a, axis=-1), normal(n, d))
    case("log_softmax", lambda a: F.log_softmax(a, axis=-1), normal(n, d))
    case("dropout", lambda a: F.dropout(a, 0.4, True, np.random.default_rng(5)), normal(n, d))
    case(
        "dropout rows",
        lambda a: F.dropout(a, 0.4, True, np.random.default_rng(5), rows=(n, segment_ids)),
        normal(edges, d),
    )
    case("layer_norm", F.layer_norm, normal(n, d + 1), normal(d + 1), normal(d + 1))
    labels = rng.integers(0, d, size=lead)
    case("cross_entropy", lambda a: F.cross_entropy(a, labels), normal(lead, d))
    case("bernoulli_entropy", F.bernoulli_entropy, rng.uniform(0.05, 0.95, size=(n, d)))
    return cases


@scenario(
    "grad-vs-finite-difference",
    mutants=[
        edit(  # only the explainer's masks pass through a sigmoid, and no other check differentiates them
            "sigmoid-backward-without-its-one-minus-term", "repro.nn.tensor:Tensor.sigmoid",
            "grad * out_data * (1.0 - out_data)", "grad * out_data", "sigmoid:",
            shrinks_to=(0, 1),
        ),
    ],
)
def _fuzz_gradients(seed: int, size: int) -> Optional[str]:
    """Every autograd op's backward vs a central difference of its
    forward, on shapes redrawn per case — zero-row blocks, segments no
    edge lands in, neighbourhoods of one edge. The objective is the
    op's output against random weights, so a gradient routed to the
    wrong element shows."""
    from ..nn import Tensor

    rng = np.random.default_rng(seed)
    for name, fn, inputs in _grad_cases(rng, size):
        tensors = [Tensor(array.copy(), requires_grad=True) for array in inputs]
        out = fn(*tensors)
        weights = rng.normal(size=out.shape)
        if out.requires_grad:  # nothing to unwind when every input is empty
            (out * Tensor(weights)).sum().backward()
        for position, array in enumerate(inputs):

            def objective(perturbed: np.ndarray) -> float:
                probe = [Tensor(other) for other in inputs]
                probe[position] = Tensor(perturbed)
                return float((fn(*probe).data * weights).sum())

            expected = numerical_grad(objective, array.copy())
            grad = tensors[position].grad
            got = np.zeros_like(array) if grad is None else grad
            if got.shape != array.shape:
                return f"{name}: grad of input {position} has shape {got.shape}, input {array.shape}"
            worst = float(np.abs(got - expected).max(initial=0.0))
            if not worst <= 1e-6 * max(1.0, float(np.abs(expected).max(initial=0.0))):
                return (
                    f"{name}: input {position} of shape {array.shape}: "
                    f"max |backward - central difference| = {worst:.3e}"
                )
    return None


def _step_cases(rng: np.random.Generator, detector, graph, targets: np.ndarray, field):
    """The four steps a detector scenario takes, with ``detector`` and a
    copy of it (its twin) put in each one's mode: train, then eval, each
    without and then with the explainer's masks, on ``graph`` or (at
    random) on the targets' receptive ``field`` with its ``edge_rows``.
    Yields ``(mode, twin, graph, targets, edge_rows, masks)``; ``masks``
    holds the two masks' values."""
    on_field = (field.graph, field.target_local, (graph.num_edges, field.edge_ids))
    twin = copy.deepcopy(detector)
    for training in (True, False):
        detector.train(training)
        twin.train(training)
        for masked in (False, True):
            case_graph, case_targets, edge_rows = (
                on_field if rng.random() < 0.5 else (graph, targets, None)
            )
            masks = None
            if masked:
                masks = (
                    rng.uniform(0.1, 0.9, size=case_graph.num_edges),
                    rng.uniform(0.1, 0.9, size=(case_graph.num_nodes, case_graph.feature_dim)),
                )
            mode = f"{'train' if training else 'eval'}, {'masks' if masked else 'no masks'}, "
            mode += "field" if edge_rows else "graph"
            yield mode, twin, case_graph, case_targets, edge_rows, masks


def _random_detector(rng: np.random.Generator, seed: int, shape: str, graph, targets):
    """A detector of :func:`_small_detector_config` with 1-3 heads and
    random weights, and the words that name it and the case at hand."""
    from ..models.detector import XFraudDetector

    kind, config = _small_detector_config(rng, seed, max_heads=3)
    detector = XFraudDetector(config)
    random_weights(rng, detector)
    return detector, (
        f"kind {kind}, {config.num_layers} layers, {config.num_heads} heads, {shape} graph "
        f"({graph.num_nodes} nodes, {graph.num_edges} edges), targets={targets.tolist()}"
    )


def _fused_step_problem(
    detector, twin, graph, targets, edge_rows, masks, labels, spec=None, theirs="the per-op tape"
) -> Optional[str]:
    """One loss + backward through the detector's fused nodes (each
    convolution, the head, ``F.cross_entropy``) against the same through
    ``spec(twin)`` — by default :class:`~.reference.PerOpDetector` — and
    :func:`.reference.cross_entropy`, from the same parameters (``twin``
    is a copy of ``detector``) and generator states: loss within 1e-12,
    gradients of every parameter and of the explainer's masks (``masks``:
    their values, or ``None``) per :func:`_grads_problem`, generators
    left in the same state."""
    from .. import nn
    from ..nn import functional as F
    from ..reliability.checkpoint import collect_rng_states, restore_rng_states
    from .reference import PerOpDetector, cross_entropy

    restore_rng_states(twin, collect_rng_states(detector))
    sides = []
    for model, owner, loss_of in (
        (detector, detector, F.cross_entropy),
        ((spec or PerOpDetector)(twin), twin, cross_entropy),
    ):
        owner.zero_grad()
        hooks = {} if masks is None else {
            "edge_mask": nn.Parameter(masks[0].copy()),
            "feature_mask": nn.Parameter(masks[1].copy()),
        }
        loss = loss_of(model.forward(graph, targets, edge_rows=edge_rows, **hooks), labels)
        loss.backward()
        sides.append((loss.item(), list(hooks.items()) + list(owner.named_parameters())))
    (loss, named), (reference_loss, reference) = sides
    if not abs(loss - reference_loss) <= 1e-12:
        return f"loss {loss!r} != {theirs} {reference_loss!r}"
    if collect_rng_states(detector) != collect_rng_states(twin):
        return "generator states differ after the step"
    return _grads_problem(named, reference, "the node", theirs)


def _layer_gradient_problem(layer, graph, rng: np.random.Generator, masked: bool) -> Optional[str]:
    """One convolution node's backward against central differences of
    its kernel, eval mode: the directional derivative of a random
    weighting of the output along a random direction of each input
    (``h``, ``edge_mask`` when ``masked``, every parameter). A direction
    whose probes flip a ReLU is skipped: a central difference across the
    kink says nothing about the one-sided gradient."""
    from .. import nn
    from ..nn import Tensor

    inputs = {"h": nn.Parameter(rng.normal(size=(graph.num_nodes, layer.in_dim)))}
    if masked:
        inputs["edge_mask"] = nn.Parameter(rng.uniform(0.2, 0.9, size=graph.num_edges))
    weights = rng.normal(size=(graph.num_nodes, layer.out_dim))

    layer.zero_grad()
    out = layer(graph, inputs["h"], edge_mask=inputs.get("edge_mask"))
    (out * Tensor(weights)).sum().backward()
    active = out.data > 0.0

    # Inputs and parameters alike move only through their write().
    for name, param in dict(inputs, **dict(layer.named_parameters())).items():
        if param.grad is None:
            return f"{name}: no gradient"
        base, direction = param.data.copy(), rng.normal(size=param.shape)
        kinked = False

        def along(step: np.ndarray) -> float:
            nonlocal kinked
            with param.write() as data:
                data[...] = base + step[0] * direction
            with nn.no_grad():
                probe = layer(graph, inputs["h"], edge_mask=inputs.get("edge_mask")).data
            kinked = kinked or not np.array_equal(probe > 0.0, active)
            return float((probe * weights).sum())

        expected = float(numerical_grad(along, np.zeros(1))[0])
        with param.write() as data:
            data[...] = base
        got = float((param.grad * direction).sum())
        if not kinked and not abs(got - expected) <= 1e-6 * max(1.0, abs(expected)):
            return f"{name}: backward {got!r} along a random direction, central difference {expected!r}"
    return None


@scenario(
    "fused-backward-vs-autograd",
    mutants=[  # all but the two marked leave the eval-mode forward alone
        edit(
            "softmax-backward-without-the-segment-term", _CONV + "_softmax_vjp",
            "attention * (grad - layout.segment_sum(grad * attention)[layout.segment])",
            "attention * grad",
            "grad of", shrinks_to=(1, 2),
        ),
        edit(  # only layers past the first sum by source
            "by-source-sum-scattered-by-target", _CONV + "InferenceLayout.sum_by_source",
            "self._by_source @ values", "Selector.scatter(self.dst, len(self.node_type)) @ values",
            "central difference", shrinks_to=(0, 1),
        ),
        edit(
            "bias-gradient-omitted", _CONV + "_apply_blocks_vjp",
            "d_bias += grad[start:stop].sum(axis=0)", "pass",
            "bias: max |the node - the per-op tape|", shrinks_to=(0, 1),
        ),
        edit(  # a layer's prefix holds fewer node types: the trimmed forward sees it too
            "absent-type-gradient-left-none", _CONV + "_apply_blocks_vjp",
            "        if need_weights\n",
            "        if need_weights and key in {NODE_TYPES[t] for t, _, _ in layout.type_blocks}"
            "\n",
            "missing on the node, present on the per-op tape",
            alone=True, shrinks_to=(0, 1),
        ),
        edit(
            "mask-not-permuted-into-layout-order", _CONV + "InferenceLayout.of",
            "order=by_dst,", "order=np.arange(len(by_dst)),", "!= the per-op tape",
            shrinks_to=(1, 2),
        ),
        edit(  # the variance's path zeroed
            "layer-norm-backward-without-its-projection-term",
            "repro.models.detector:_layer_norm_vjp",
            "through_variance = np.broadcast_to(d_scale",
            "through_variance = 0.0 * np.broadcast_to(d_scale",
            "the per-op tape", shrinks_to=(0, 1),
        ),
        edit(
            "head-dropout-mask-left-out-of-the-pullback",
            "repro.models.detector:XFraudDetector.head_kernel", " d *= mask", " pass",
            "train", "the per-op tape", shrinks_to=(0, 1),
        ),
        edit(
            "cross-entropy-gradient-not-divided-by-the-batch", "repro.nn.functional:cross_entropy",
            "-grad * (1.0 / len(labels))", "-grad", "the per-op tape", shrinks_to=(1, 1),
        ),
        edit(  # layer 1's tables: predict_proba reads them too
            "entity-constant-keyed-by-destination-type", _CONV + "_first_layer_tables",
            "key_end = type_rows[_END_TYPES[:, 1],", "key_end = type_rows[_END_TYPES[:, 0],",
            "fused - autograd", shrinks_to=(1, 2),
        ),
        edit(  # eq. 8's value term of a transaction source: predict_proba reads it too
            "phi-value-term-dropped", _CONV + "HeteroConvLayer.kernel",
            "summed += (attention_sum[:, :, None] * dst_values).reshape(-1, out_dim)", "pass",
            "fused - autograd", shrinks_to=(1, 2),
        ),
        edit(  # eval-mode scoring has no scale: only a recorded forward sees it
            "dropout-scale-missing-from-the-phi-sum", _CONV + "HeteroConvLayer.kernel",
            "attention_sum = layout.segment_sum(scaled)",
            "attention_sum = layout.segment_sum(attention)",
            "central difference", shrinks_to=(1, 2),
        ),
        edit(  # in bounds: every in-neighbourhood one edge later, the first edge dropped
            "selector-row-pointer-shifted-by-one", "repro.nn.segment:Selector.by_segment",
            "indptr = np.append(starts, num_edges)", "indptr = np.append(starts + 1, num_edges)",
            "predict_proba: max |fused - autograd|", shrinks_to=(1, 2),
        ),
    ],
)
def _fuzz_fused_backward(seed: int, size: int) -> Optional[str]:
    """The detector's convolution as one tape node (kernel + hand-derived
    backward) vs the per-op ``Tensor`` layer (:mod:`.reference`), and
    vs central differences of the kernel; and its ``predict_proba`` (the
    same kernels, nothing saved, buffers reused) vs the per-op forward
    to 1e-12, on the case's graph with the detector left in train mode
    and on the batch's receptive field in eval. All four ablation configs, one
    to three layers; graphs whole, thinned, cut to a single edge or
    none, and block-diagonal stacks of sampled neighbourhoods; train
    mode (the node must draw the dropout masks ``F.dropout`` would, on
    the graph and on a receptive field with ``edge_rows``) and eval;
    with and without the explainer's ``edge_mask`` / ``feature_mask``.
    A layout sums an in-neighbourhood through its ``Selector`` only from
    ``_REDUCEAT_MAX_EDGES`` edges on, more than a case holds: odd seeds
    lower that bound to 0, so every sum of the case takes that path."""
    from ..models import hetero_conv

    if seed % 2:
        with mock.patch.object(hetero_conv, "_REDUCEAT_MAX_EDGES", 0):
            return _fused_backward_problem(seed, size)
    return _fused_backward_problem(seed, size)


def _fused_backward_problem(seed: int, size: int) -> Optional[str]:
    """:func:`_fuzz_fused_backward`'s case, on whichever summing path."""
    from ..graph.sampling import SageSampler
    from ..models.field import loss_field
    from ..models.inference import tensor_predict_proba
    from .reference import PerOpDetector, stack_subgraphs

    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=size, feature_dim=5)
    txns = graph.txn_nodes
    targets = txns[rng.integers(0, len(txns), size=int(rng.integers(1, 6)))]  # repeats allowed
    shape = str(rng.choice(["whole", "thinned", "single-edge", "edgeless", "stacked"]))
    if shape == "stacked":
        sampler = SageSampler(hops=1 + size % 2, fanout=1 + size % 4, seed=seed & 0xFFFF)
        stacked = stack_subgraphs([sampler.sample(graph, [int(node)]) for node in targets])
        graph, targets = stacked.graph, stacked.target_local
    else:
        graph = _cut_edges(rng, graph, shape)

    detector, where = _random_detector(rng, seed, shape, graph, targets)
    config = detector.config

    labels = rng.integers(0, 2, size=len(targets))
    field, _ = loss_field(graph, targets, hops=config.num_layers)
    scored = {True: (graph, targets), False: (field.graph, field.target_local)}
    for mode, *case in _step_cases(rng, detector, graph, targets, field):
        if case[-1] is None:  # once in each mode: predict_proba must not care which
            on, at = scored[detector.training]
            reference = tensor_predict_proba(PerOpDetector(detector), on, at)
            worst = float(np.abs(detector.predict_proba(on, at) - reference).max())
            if not worst <= 1e-12:  # also catches NaN
                on = "train mode, the graph" if detector.training else "eval mode, the field"
                return f"{where}, {on}: predict_proba: max |fused - autograd| = {worst:.3e}"
        problem = _fused_step_problem(detector, *case, labels)
        if problem is not None:
            return f"{where}, {mode}: {problem}"
    for index, layer in enumerate(detector.convs):
        for masked in (False, True):
            problem = _layer_gradient_problem(layer, graph, rng, masked)
            if problem is not None:
                return f"{where}, layer {index}{', edge_mask' if masked else ''}: {problem}"
    return None


def _grown_out_of_reach(rng: np.random.Generator, graph, far: np.ndarray):
    """A copy of ``graph`` with an isolated transaction, a two-node
    component of its own, and — when ``far`` lists any node — a few
    edges from anywhere (old node or new) into ``far``, each from a node
    of a type its destination links to."""
    from ..graph.hetero import EDGE_TYPE_IDS, NODE_TYPE_IDS, NODE_TYPES

    grown, base = copy.deepcopy(graph), graph.num_nodes
    txn, pmt = NODE_TYPE_IDS["txn"], NODE_TYPE_IDS["pmt"]
    new_types = np.array([txn, txn, pmt])
    node_type = np.concatenate([graph.node_type, new_types])
    into_far = rng.choice(far, size=int(rng.integers(1, 4))) if len(far) else []
    sources = [
        int(rng.choice(np.flatnonzero((node_type == txn) != (node_type[dst] == txn))))
        for dst in into_far
    ]
    grown.append_delta(
        node_type=new_types,
        labels=np.array([0, 1, -1]),
        txn_table=rng.normal(size=(2, graph.feature_dim)),
        edge_src=np.array([base + 1, base + 2, *sources], dtype=np.int64),
        edge_dst=np.array([base + 2, base + 1, *into_far], dtype=np.int64),
        edge_type=[EDGE_TYPE_IDS["txn->pmt"], EDGE_TYPE_IDS["pmt->txn"]]
        + [
            EDGE_TYPE_IDS[f"{NODE_TYPES[node_type[src]]}->{NODE_TYPES[node_type[dst]]}"]
            for src, dst in zip(sources, into_far)
        ],
    )
    return grown


@scenario(
    "trimmed-layers-vs-untrimmed-layout",
    mutants=[  # a layer's prefix cut wrong; one cut too short mostly indexes past a prefix
        edit(  # nothing raises: the targets aggregate from too few neighbours
            "edge-prefix-one-hop-short", _CONV + "InferenceLayout.of",
            "edge_reach=np.searchsorted(dst, reach).tolist()",
            "edge_reach=np.searchsorted(dst, [0] + reach[:-1]).tolist()",
            "trimmed - read everywhere",
            alone=True, shrinks_to=(6, 2),
        ),
        edit(  # invisible while every link runs both ways; a thinned graph has one-way links
            "distance-walked-along-out-edges", _CONV + "InferenceLayout.of",
            "graph.edge_src[distance[graph.edge_dst] == hop - 1]",
            "graph.edge_dst[distance[graph.edge_src] == hop - 1]",
            "IndexError",
            alone=True, shrinks_to=(0, 2),
        ),
        edit(
            "mask-rows-gathered-by-the-whole-order", _CONV + "HeteroConvLayer.forward",
            "order = layout.order[: len(layout.src)]", "order = layout.order",
            "could not be broadcast",
            alone=True, shrinks_to=(1, 2),
        ),
        edit(
            "unwalked-edges-left-uninitialised", _CONV + "HeteroConvLayer._hetero_conv",
            "d_mask = np.zeros(len(layout.order))", "d_mask = np.full(len(layout.order), 1e-300)",
            "exactly 0", shrinks_to=(3, 1),
        ),
    ],
)
def _fuzz_trimmed_layers(seed: int, size: int) -> Optional[str]:
    """The detector's forward, each layer on the prefix of the layout the
    next one reads, vs the same kernel with every node read
    (:class:`~.reference.ReadEverywhere`): scores, then loss, every parameter
    gradient, ``d edge_mask`` and ``d feature_mask`` to 1e-12, the
    generators left alike. One to three layers, all four ablation
    configs; graphs whole, thinned to one-way links with isolated and
    unreachable nodes, cut to one edge or none; transaction targets
    with repeats, one inside another's neighbourhood, an edgeless one,
    and none at all; train mode with the dropout rows of a
    receptive field (``edge_rows``) and eval; masks on and off. An edge
    no layer walks must get ``d edge_mask`` exactly 0. And the relation
    the prefixes make exact: nodes and edges added where no layer
    reaches — an isolated node, a component of its own, edges into
    nodes ``L`` or more in-hops from every target — leave every score
    **bit-identical**."""
    from .. import nn
    from ..graph.sampling import receptive_field
    from ..models.inference import tensor_predict_proba
    from ..nn import functional as F
    from .reference import ReadEverywhere

    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=size, feature_dim=5)
    shape = str(rng.choice(["whole", "thinned", "thinned", "single-edge", "edgeless"]))
    graph = _cut_edges(rng, graph, shape)
    targets = _awkward_targets(rng, graph, txn_only=True)

    detector, where = _random_detector(rng, seed, shape, graph, targets)
    config = detector.config

    if detector.predict_proba(graph, []).shape != (0,):
        return f"{where}: predict_proba at no targets is not empty"
    scores = detector.predict_proba(graph, targets)
    everywhere = tensor_predict_proba(ReadEverywhere(detector), graph, targets)
    worst = float(np.abs(scores - everywhere).max())
    if not worst <= 1e-12:  # also catches NaN
        return f"{where}: max |trimmed - read everywhere| = {worst:.3e}"

    near, _, _ = _scalar_bfs(graph, targets, config.num_layers - 1)
    far = np.setdiff1d(np.arange(graph.num_nodes), near)  # L or more in-hops from every target
    grown = _grown_out_of_reach(rng, graph, far)
    if not np.array_equal(detector.predict_proba(grown, targets), scores):
        added = grown.num_edges - graph.num_edges - 2
        return (
            f"{where}: scores move when an isolated node, a separate component and "
            f"{added} edges into nodes {far.tolist()} (out of every layer's reach) are added"
        )

    labels = rng.integers(0, 2, size=len(targets))
    field = receptive_field(graph, targets, hops=config.num_layers)
    for mode, twin, case_graph, case_targets, edge_rows, masks in _step_cases(
        rng, detector, graph, targets, field
    ):
        problem = _fused_step_problem(
            detector, twin, case_graph, case_targets, edge_rows, masks, labels,
            spec=ReadEverywhere, theirs="read everywhere",
        )
        if problem is not None:
            return f"{where}, {mode}: {problem}"
        if masks is not None:
            edge_mask = nn.Parameter(masks[0])
            F.cross_entropy(
                detector.forward(case_graph, case_targets, edge_mask=edge_mask), labels
            ).backward()
            _, _, walked = _scalar_bfs(case_graph, case_targets, config.num_layers)
            if np.delete(edge_mask.grad, walked).any():
                return f"{where}, {mode}: d edge_mask is not exactly 0 on an edge no layer walks"
    return None


def _awkward_targets(rng: np.random.Generator, graph, txn_only: bool = False) -> np.ndarray:
    """Two to six targets of any node type (or transactions only), drawn
    with repeats; then one is made a repeat of the first, one a node
    the first's sample reaches (an in-neighbour; for transactions, one
    sharing an entity with it) and, when the graph has an edgeless
    node, one is that."""
    pool = graph.txn_nodes if txn_only else np.arange(graph.num_nodes)
    targets = pool[rng.integers(0, len(pool), size=int(rng.integers(2, 7)))]
    targets[-1] = targets[0]
    neighbors = graph.in_neighbors(int(targets[0]))
    if txn_only and len(neighbors):
        neighbors = np.concatenate([graph.in_neighbors(int(entity)) for entity in neighbors])
    if len(neighbors):
        targets[1] = rng.choice(neighbors)
    edgeless = np.intersect1d(np.flatnonzero(graph.degree() == 0), pool)
    if len(edgeless) and len(targets) > 2:
        targets[2] = rng.choice(edgeless)
    return targets


_BATCH_SIZES = (0, 1, 32, 32, 250)


def _faulty_tier(seed: int, size: int):
    """One of two identical replica tiers — a function of ``(seed,
    size)`` only: 3-5 replicas at rf 1-3 on one ``ManualClock``, each
    replica an in-memory backing under a ``FaultyKVStore`` with a random
    subset of its faults (flaky, outage, corrupt, slow; windows on the
    clock), or under none, under a tape of the ``contains`` / ``get``
    calls the store makes of it. Of the last eight keys some are missing
    on one owner and some poisoned on one owner behind the ledger's
    back; two more were never written.

    Returns ``(store, clock, tapes, injectors, backings, keys)``.
    """
    from ..reliability.faults import FaultyKVStore, ManualClock
    from ..storage.kvstore import DelegatingKVStore, InMemoryKVStore
    from ..storage.replicated import ReplicatedConfig, ReplicatedKVStore

    class Tape(DelegatingKVStore):
        def __init__(self, store) -> None:
            super().__init__(store)
            self.calls: List[Tuple[str, str]] = []

        def contains(self, key: str) -> bool:
            self.calls.append(("contains", key))
            return self.store.contains(key)

        def get(self, key: str) -> bytes:
            self.calls.append(("get", key))
            return self.store.get(key)

    rng = np.random.default_rng(seed)
    clock = ManualClock()
    seconds = 0.05 * (4 + size)  # roughly how far the clock moves in a case

    def windows() -> List[Tuple[float, float]]:
        starts = rng.uniform(0.0, seconds, size=int(rng.integers(1, 3)))
        return [(start, start + rng.uniform(0.0, seconds / 2)) for start in starts]

    backings = [InMemoryKVStore() for _ in range(int(rng.integers(3, 6)))]
    injectors, tapes = [], []
    for index, backing in enumerate(backings):
        faults = {kind for kind in ("flaky", "outage", "corrupt", "slow") if rng.random() < 0.3}
        if not faults:
            tapes.append(Tape(backing))
            continue
        flaky = "flaky" in faults
        injector = FaultyKVStore(
            backing,
            clock,
            delay_s=float(rng.uniform(0.0, 0.002)) if "slow" in faults else 0.0,
            outages=windows() if "outage" in faults else (),
            corruptions=windows() if "corrupt" in faults else (),
            fail_first=int(rng.integers(0, 3)) if flaky else 0,
            fail_rate=float(rng.choice([0.0, 0.02, 0.1])) if flaky else 0.0,
            seed=seed + index,
        )
        injectors.append(injector)
        tapes.append(Tape(injector))
    store = ReplicatedKVStore(
        tapes,
        config=ReplicatedConfig(
            replication_factor=int(rng.choice([1, 2, 2, 2, 3, 3])),
            dead_after=int(rng.integers(1, 4)),
            probe_interval_s=float(rng.uniform(0.005, 0.05)),
        ),
        clock=clock,
        seed=int(rng.integers(0, 1 << 16)),
    )
    keys = [f"feat/{index}" for index in range(48)]
    for key in keys:
        store.put(key, bytes(rng.integers(0, 256, size=int(rng.integers(0, 40)), dtype=np.uint8)))
    for key in rng.choice(keys[40:], size=4, replace=False):
        backings[int(rng.choice(store.owners(key)))].delete(key)
    for key in rng.choice(keys[40:], size=3, replace=False):
        backings[int(rng.choice(store.owners(key)))].put(key, b"poisoned")
    for tape in tapes:
        del tape.calls[:]  # the writes' own calls are not the subject
    return store, clock, tapes, injectors, backings, keys + ["absent/0", "absent/1"]


def _tier_state(store, clock, tapes, injectors) -> Dict[str, object]:
    """Everything ``get_many`` promises to leave where the per-key walk
    leaves it (the latency EWMA is not here)."""
    return {
        "replica calls": [tape.calls for tape in tapes],
        "injector reads / injected": [(injector.reads, injector.injected) for injector in injectors],
        "failovers": store.failovers,
        "corrupt_reads": store.corrupt_reads,
        "read_failures": sorted(store.read_failures.items()),
        "reads_ok": [health.reads_ok for health in store.health],
        "reads_error": [health.reads_error for health in store.health],
        "consecutive_errors": [health.consecutive_errors for health in store.health],
        "state_path": [health.state_path() for health in store.health],
        "clock": clock.now,
    }


def _first_difference(ours, theirs) -> str:
    """``[i][j]: a != b`` where two (nested) lists first part."""
    if not (isinstance(ours, list) and isinstance(theirs, list)):
        return f": {ours!r} != {theirs!r}"
    for at, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            return f"[{at}]" + _first_difference(a, b)
    return f": {len(ours)} items != {len(theirs)} items"


@scenario(
    "batched-read-vs-per-key-gets",
    mutants=[  # edits of the one read path get_many and get (a batch of one) share
        edit(  # poisoned bytes served and never quarantined: the replicas are asked otherwise
            "crc-skipped-on-the-batch-path", _GET_MANY,
            "values.append(self._verified_read(index, key))",
            "values.append(self.replicas[index].get(key))",
            "result", shrinks_to=(1, 1),
        ),
        edit(
            "failover-tallied-as-a-primary-success", _GET_MANY,
            "values.append(self._failed_over(key, owners, failure))",
            "values.append(self._failed_over(key, owners, failure)); reads[index] += 1",
            "replica calls", shrinks_to=(0, 1),
        ),
        edit(  # the dead replica keeps being asked
            "gate-not-re-evaluated-after-a-death", _GET_MANY,
            "            dead = None\n            mark = clock()", "            mark = clock()",
            "replica calls", shrinks_to=(0, 1),
        ),
        edit(
            "failing-key-read-again-on-the-same-replica", _GET_MANY,
            "values.append(self._failed_over(key, owners, failure))",
            "values.append(self._gated_get(key))",
            "replica calls", shrinks_to=(0, 1),
        ),
        edit(  # both tiers run the same pass: only the ledger itself sees it
            "anti-entropy-trusts-divergent-ledger-copies",
            "repro.storage.replicated:ReplicatedKVStore.anti_entropy",
            "elif expected is not None and checksum != expected:",
            "elif expected is None and checksum != expected:",
            "after anti-entropy", "!= ledger", shrinks_to=(0, 1),
        ),
    ],
)
def _fuzz_batched_read(seed: int, size: int) -> Optional[str]:
    """``ReplicatedKVStore.get_many(keys)`` — in a third of the rounds
    ``get`` per key, a batch of one each — vs
    :func:`.reference.per_key_get` key by key on twin
    faulty tiers (:func:`_faulty_tier`), batch after batch of 0 / 1 /
    32 / 250 keys with the clock moved between them: equal bytes or
    equal exception type, every replica asked the same ``contains`` /
    ``get`` calls in the same order (so every injector's read counter
    and window agree), and equal health counters, state paths and
    failure tallies after every batch. Then an anti-entropy pass over
    the bare copies: every owner copy of a key that kept one copy the
    put-time ledger agrees with must agree with it
    (:func:`~.invariants.ledger_violations`), and a copy poisoned after
    it must be reported."""
    from .reference import per_key_get

    batched, walked = _faulty_tier(seed, size), _faulty_tier(seed, size)
    universe = batched[-1]
    rng = np.random.default_rng([seed, 1])
    singly = np.random.default_rng([seed, 2])  # its own stream: the picks stay as dealt
    for round_ in range(4 + size):
        pause = float(rng.uniform(0.0, 0.03))
        # Half the batches ask only for keys every owner holds intact, so
        # a walk ends early through an injector or not at all.
        reach = 40 if rng.integers(0, 2) else len(universe) - 2
        picks = rng.integers(0, reach, size=int(rng.choice(_BATCH_SIZES)))
        if reach > 40:
            picks[rng.random(len(picks)) < 0.004] = len(universe) - 1  # absent everywhere
        keys = [universe[pick] for pick in picks]
        one_at_a_time = not singly.integers(0, 3)
        reads = (
            (lambda store: [store.get(k) for k in keys])
            if one_at_a_time
            else (lambda store: store.get_many(keys)),
            lambda store: [per_key_get(store, k) for k in keys],
        )
        ends = []
        for read, (store, clock, tapes, injectors, _, _) in zip(reads, (batched, walked)):
            clock.advance(pause)
            try:
                values = read(store)
            except Exception as error:
                values = type(error).__name__
            ends.append({"result": values, **_tier_state(store, clock, tapes, injectors)})
        for what in ends[0]:
            if ends[0][what] != ends[1][what]:
                return (
                    f"batch {round_} of {len(keys)} keys ({len(store.replicas)} replicas, "
                    f"rf {store.replication_factor}), "
                    f"{'get per key' if one_at_a_time else 'get_many'} != per_key_get: "
                    f"{what}{_first_difference(ends[0][what], ends[1][what])}"
                )
    store, backings = batched[0], batched[4]
    store.replicas = backings  # no injector between the pass and the copies
    healable = [  # keys one owner still holds as written
        key for key, crc in store._crc.items()
        if any(backings[o].contains(key) and zlib.crc32(backings[o].get(key)) == crc for o in store.owners(key))
    ]
    store.anti_entropy()
    problems = ledger_violations(store, healable)
    if problems:
        return f"after anti-entropy ({len(backings)} replicas, rf {store.replication_factor}): {problems[0]}"
    key = healable[int(rng.integers(0, len(healable)))]
    owner = store.owners(key)[0]
    backings[owner].put(key, backings[owner].get(key) + b"!")
    if not ledger_violations(store, [key]):
        return f"ledger_violations missed {key}@replica{owner} poisoned after anti-entropy"
    return None


def _small_detector_config(
    rng: np.random.Generator, seed: int, max_layers: int = 3, max_heads: int = 2, kinds: int = 4
):
    """``(kind, config)``: a small detector configuration — 1-``max_layers``
    layers, 1-``max_heads`` heads, dropout on — whose ablation switches
    are the two low bits of ``kind``, drawn below ``kinds``."""
    from ..models.detector import DetectorConfig

    heads, kind = int(rng.integers(1, max_heads + 1)), int(rng.integers(0, kinds))
    return kind, DetectorConfig(
        feature_dim=5,
        hidden_dim=heads * int(rng.integers(1, 4)),
        num_heads=heads,
        num_layers=int(rng.integers(1, max_layers + 1)),
        ffn_hidden_dim=int(rng.integers(2, 7)),
        dropout=0.3,
        per_type_projections=bool(kind & 1),
        target_specific_aggregation=bool(kind & 2),
        seed=seed % 97,
    )


def _bit_equal(ours, theirs) -> bool:
    """Same arrays, byte for byte, through dicts, tuples, lists and
    ``None``; other values by ``==``."""
    if isinstance(ours, dict):
        return ours.keys() == theirs.keys() and all(_bit_equal(ours[k], theirs[k]) for k in ours)
    if isinstance(ours, (tuple, list)):
        return len(ours) == len(theirs) and all(map(_bit_equal, ours, theirs))
    if ours is None or theirs is None:
        return ours is theirs
    if not isinstance(ours, np.ndarray):
        return ours == theirs
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def _plan_problem(detector, graph, targets: np.ndarray) -> Optional[str]:
    """Every layer's memoised plan against one built from its parameters
    as they are now, field by field; then the scores of the memo against
    those of plans rebuilt for the call, bit for bit."""
    import dataclasses

    from ..models.hetero_conv import LayerPlan

    for index, layer in enumerate(detector.convs):
        memo = layer.plan()
        fresh = layer._build_plan([(param, param.version) for param in layer.parameters()])
        for field_ in dataclasses.fields(LayerPlan):
            if field_.name != "key" and not _bit_equal(
                getattr(memo, field_.name), getattr(fresh, field_.name)
            ):
                return f"layer {index}: memoised plan.{field_.name} != a plan built now"
    scores = detector.predict_proba(graph, targets)
    for layer in detector.convs:
        layer._plan = None
    rebuilt = detector.predict_proba(graph, targets)
    if scores.tobytes() != rebuilt.tobytes():
        return f"scores {scores.tolist()} != {rebuilt.tolist()} from plans rebuilt for the call"
    return None


def _swap_a_parameter(rng: np.random.Generator, layer) -> None:
    """One of ``layer``'s parameters replaced, by attribute assignment,
    with a new one of its shape: the write no version records."""
    from .. import nn

    names = [name for name, _ in layer.named_parameters()]
    *path, attribute = names[int(rng.integers(0, len(names)))].split(".")
    owner = layer
    for part in path:
        owner = owner._modules[part]
    shape = getattr(owner, attribute).shape
    setattr(owner, attribute, nn.Parameter(rng.normal(scale=0.5, size=shape)))


def _plan_shared_by_position(real):
    """``HeteroConvLayer.plan`` memoised in one dict for every layer,
    by position and versions (a mutant)."""
    plans = {}

    def plan(self):
        key = (self.first_layer, tuple(param.version for param in self.parameters()))
        if key not in plans:
            plans[key] = self._build_plan(None)
        return plans[key]

    return plan


@scenario(
    "plan-memo-vs-fresh-plan",
    mutants=[  # a memo outliving its weights; other scenarios load weights too
        edit(
            "a-writer-that-does-not-bump-the-version", "repro.nn:Parameter.write",
            "self.version += 1", "pass", "!= a plan built now",
            alone=True, shrinks_to=(0, 1),
        ),
        edit(
            "a-plan-keyed-on-the-parameters-identity", _CONV + "HeteroConvLayer.plan",
            "key = [(param, param.version) for param in self.parameters()]",
            "key = [id(param) for param in self.parameters()]",
            "!= a plan built now",
            alone=True, shrinks_to=(0, 1),
        ),
        edit(  # the memo's O(1) check trusts the write counter
            "a-swap-that-does-not-count-as-a-write", "repro.nn:Module.__setattr__",
            "_count_write()  # a parameter swapped in is a write", "pass",
            "!= a plan built now",
            alone=True, shrinks_to=(0, 1),
        ),
        Mutant(
            "one-plan-shared-by-two-detectors", _CONV + "HeteroConvLayer.plan",
            _plan_shared_by_position, ("memoised plan",),
            alone=True, shrinks_to=(0, 1),
        ),
    ],
)
def _fuzz_plan_memo(seed: int, size: int) -> Optional[str]:
    """The layer plan (:meth:`HeteroConvLayer.plan`: every weight-only
    table, memoised per parameter version) vs a plan rebuilt on every
    call, under every writer of parameters and every reader of plans:
    Adam (coupled decay) and AdamW steps, ``load_state_dict``,
    ``restore_training_state``, an ``OnlineFineTuner`` update, a
    parameter swapped for a new one, a ``GNNExplainer`` run and
    scoring, in a random order on one detector
    beside a second one of the same shape (so both start at the same
    versions, with other weights). After each: every layer's memo equal
    to a plan built now, array for array, byte for byte, on both
    detectors, and their scores equal to those of plans rebuilt for the
    call."""
    from .. import nn
    from ..explain.gnn_explainer import ExplainerConfig, GNNExplainer
    from ..models.detector import XFraudDetector
    from ..reliability.checkpoint import capture_training_state, restore_training_state
    from ..stream.feedback import FineTuneConfig, OnlineFineTuner

    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=max(2, size), feature_dim=5)
    _, config = _small_detector_config(rng, seed, max_layers=2)
    live, other = XFraudDetector(config), XFraudDetector(config)
    for detector in (live, other):
        random_weights(rng, detector)
    txns = graph.txn_nodes
    targets = txns[rng.integers(0, len(txns), size=int(rng.integers(1, 4)))]
    optimizers = {
        "adam": nn.Adam(live.parameters(), lr=0.01, weight_decay=0.01),
        "adamw": nn.AdamW(live.parameters(), lr=0.01),
    }
    snapshot = capture_training_state(live, optimizers["adamw"], np.random.default_rng(seed), 0)
    operations = ("adam", "adamw", "load", "restore", "finetune", "swap", "explain", "score")
    done = []
    for _ in range(4 + size % 5):
        operation = str(rng.choice(operations))
        done.append(operation)
        if operation in optimizers:
            live.train()
            live.zero_grad()
            live.loss(graph, targets).backward()
            optimizers[operation].step()
        elif operation == "load":
            random_weights(rng, live)
        elif operation == "restore":
            restore_training_state(
                snapshot, live, optimizers["adamw"], np.random.default_rng(seed)
            )
        elif operation == "finetune":
            tuner = OnlineFineTuner(
                live, FineTuneConfig(min_labels=1, every_labels=1, batch_size=2, seed=seed)
            )
            tuner.notify_labels(1)
            tuner.maybe_update(graph, txns)
        elif operation == "swap":
            _swap_a_parameter(rng, live.convs[int(rng.integers(0, len(live.convs)))])
        elif operation == "explain":
            GNNExplainer(live, ExplainerConfig(epochs=2, seed=seed)).explain(graph, int(targets[0]))
        for name, detector in (("the detector", live), ("its twin", other)):
            problem = _plan_problem(detector, graph, targets)
            if problem is not None:
                return f"{' -> '.join(done)}, {config.num_layers} layers: {name}: {problem}"
    return None


def _optimizer_problem(ours, theirs, grads) -> Optional[str]:
    """Two optimisers' parameters, versions and ``state_dict()`` byte for
    byte, and the gradients handed to ``ours`` as they were handed."""
    for index, (param, twin) in enumerate(zip(ours.parameters, theirs.parameters)):
        if not _bit_equal(param.data, twin.data):
            return f"parameter {index} {param.data.shape}: values differ"
        if param.version != twin.version:
            return f"parameter {index}: version {param.version} != {twin.version}"
        if param.grad is not None and not _bit_equal(param.grad, grads[index]):
            return f"parameter {index}: the step wrote into its gradient"
    state, twin_state = ours.state_dict(), theirs.state_dict()
    if state.keys() != twin_state.keys():
        return f"state_dict keys {sorted(state)} != {sorted(twin_state)}"
    for key, value in state.items():  # the moments: one array per parameter
        if not _bit_equal(value, twin_state[key]):
            return f"state_dict[{key!r}] differs"
    return None


@scenario(
    "flat-step-vs-per-parameter-step",
    mutants=[
        edit(  # past the last parameter the slice leaves the buffer
            "flat-slices-shifted-by-one-parameter", "repro.nn:Optimizer.step",
            "slice(offsets[first], offsets[last])",
            "slice(offsets[first + 1], offsets[last + 1])",
            "IndexError",
            alone=True, shrinks_to=(1, 1),
        ),
        edit(  # both sides of every engine-vs-engine scenario step alike: only the spec sees it
            "second-moment-corrected-with-beta1", "repro.nn:Adam._update",
            "np.divide(v, 1 - self.beta2**self._step", "np.divide(v, 1 - self.beta1**self._step",
            "values differ", shrinks_to=(0, 2),
        ),
        edit(  # a layer plan keyed on that parameter's version would go stale
            "a-step-that-leaves-the-last-version-unbumped", "repro.nn:Optimizer.step",
            "for param in params:", "for param in params[:-1]:",
            "version", shrinks_to=(1, 1),
        ),
    ],
)
def _fuzz_flat_step(seed: int, size: int) -> Optional[str]:
    """``Optimizer.step`` — one flat update over each run of consecutive
    parameters holding a gradient — vs
    :func:`.reference.per_parameter_step` on a twin: Adam with coupled
    decay and AdamW; parameters of random
    shapes (scalars and empty arrays among them); at each step a random
    share (none to all) without a gradient, the learning rate moved,
    and now and then a ``state_dict`` / ``load_state_dict`` round trip.
    After each step: parameters, versions and ``state_dict()`` (the
    moments) bit for bit, and every gradient as it was handed in."""
    from .. import nn
    from .reference import per_parameter_step

    rng = np.random.default_rng(seed)
    shapes = [
        tuple(int(extent) for extent in rng.integers(0, 4, size=int(rng.integers(0, 3))))
        for _ in range(1 + size % 7)
    ]
    values = [rng.normal(size=shape) for shape in shapes]
    kind = str(rng.choice(["adam", "adamw"]))
    lr, decay = float(rng.uniform(0.001, 0.2)), float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
    betas = (float(rng.uniform(0.5, 0.95)), float(rng.uniform(0.9, 0.9999)))

    def make() -> nn.Optimizer:
        params = [nn.Parameter(value) for value in values]
        cls = nn.Adam if kind == "adam" else nn.AdamW
        return cls(params, lr=lr, betas=betas, weight_decay=decay)

    ours, theirs = make(), make()
    done = []
    for _ in range(2 + size % 4):
        missing = rng.random(len(shapes)) < float(rng.choice([0.0, 0.3, 0.7, 1.0]))
        grads = [None if gone else rng.normal(size=shape) for gone, shape in zip(missing, shapes)]
        for optimizer in (ours, theirs):
            for param, grad in zip(optimizer.parameters, grads):
                param.grad = None if grad is None else grad.copy()
        if rng.random() < 0.3:
            ours.lr = theirs.lr = float(rng.uniform(0.001, 0.2))
        if rng.random() < 0.3:
            ours.load_state_dict(ours.state_dict())
            done.append("round trip")
        ours.step()
        per_parameter_step(theirs)
        done.append(f"step without {np.flatnonzero(missing).tolist()}")
        problem = _optimizer_problem(ours, theirs, grads)
        if problem is not None:
            return f"{kind}, shapes {shapes}, {' -> '.join(done)}: {problem}"
    return None


def _random_worker_faults(rng: np.random.Generator, workers: int, epochs: int):
    """A valid supervisor schedule and the decisions it must produce.

    Valid: only evicted workers rejoin, only live ones die (a worker
    may die in the very round it rejoins), at least one stays alive,
    never every live shard corrupt in one round. Returns the
    :class:`FaultPlan` kwargs and, per epoch, ``(members after the
    round, evicted, rejoined, quarantined)``.
    """
    live, evicted = set(range(workers)), set()
    faults = {"worker_kill": {}, "worker_rejoin": {}, "worker_slow": {}, "grad_corrupt": {}}
    decisions = []
    for epoch in range(epochs):
        back = [w for w in sorted(evicted) if rng.random() < 0.5]
        live |= set(back)
        victims = [w for w in sorted(live) if rng.random() < 0.25][: len(live) - 1]
        live -= set(victims)
        evicted = (evicted - set(back)) | set(victims)
        slow = {w: float(rng.choice([1.5, 3.0, 6.0])) for w in sorted(live) if rng.random() < 0.25}
        corrupt = [w for w in sorted(live) if rng.random() < 0.3][: len(live) - 1]
        for name, entry in (
            ("worker_rejoin", back),
            ("worker_kill", victims),
            ("worker_slow", slow),
            ("grad_corrupt", {w: str(rng.choice(["nan", "bitflip"])) for w in corrupt}),
        ):
            if entry:
                faults[name][epoch] = entry
        decisions.append((sorted(live), victims, back, corrupt))
    return faults, decisions


@scenario(
    "supervised-round-vs-engine",
    mutants=[  # the one all-reduce, and the restore rollback, rejoin and resume share
        edit(
            "mean-over-members", "repro.train.distributed:DistributedTrainer.step",
            "/ len(shard_grads)", "/ len(self.workers)", "by-hand", shrinks_to=(0, 3),
        ),
        edit(  # invisible to the by-hand run: no step between snapshot and rollback
            "restore-skips-the-optimizer", "repro.train.elastic:restore_training_state",
            "optimizer.load_state_dict(state.optimizer_state)", "pass",
            "resumed after every epoch", shrinks_to=(0, 1),
        ),
        edit(
            "restore-skips-the-trainer-rng", "repro.train.elastic:restore_training_state",
            'rng.bit_generator.state = state.rng_states["trainer"]', "pass", "by-hand",
            shrinks_to=(0, 4),
        ),
        edit(
            "model-state-saved-as-float32", "repro.reliability.checkpoint:_encode_checkpoint",
            'arrays[f"model::{name}"] = value',
            'arrays[f"model::{name}"] = value.astype(np.float32)',
            "not bit-identical after load", shrinks_to=(0, 1),
        ),
    ],
)
def _fuzz_supervised_round(seed: int, size: int) -> Optional[str]:
    """The elastic supervisor vs the fault-free DDP engine it drives.

    Fault-free, ``ElasticTrainer`` and a plain ``DistributedTrainer``
    over the same rendezvous shards must agree bit for bit (GEM, MLP
    and detector+; members that win no partition; batches of one).
    Under a random valid kill / rejoin / slow / corrupt schedule the
    supervised run must (a) take exactly the decisions the schedule
    forces, (b) end bit-identical to a by-hand run that only knows
    those decisions — per epoch the shards of the surviving members,
    this file's own mean over the accepted ones, clip, step — which is
    what "evict, re-shard, retry from the last verified snapshot" and
    "renormalise over accepted shards" promise, and (c) replay
    identically (history and parameters) when run a second time killed
    and resumed from disk after *every* epoch; that run's shards are
    checked after each round: one per live member, every node and
    partition owned exactly once; its last checkpoint must load back
    bit-identical to the model it was taken of, and refuse to load with
    one byte flipped.
    """
    from ..models.detector import DetectorConfig, XFraudDetectorPlus
    from ..models.gem import GEMModel
    from ..models.mlp import FeatureMLP
    from ..nn import clip_grad_norm
    from ..reliability.checkpoint import CheckpointError, CheckpointManager
    from ..reliability.faults import FaultPlan
    from ..train.distributed import DistributedTrainer, make_worker_partitions
    from ..train.elastic import ElasticConfig, ElasticTrainer
    from ..train.trainer import TrainConfig

    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=size, feature_dim=5)
    train = rng.permutation(graph.txn_nodes)[:6]  # bounds the steps, not the graph
    heads = int(rng.integers(1, 3))
    model_config = DetectorConfig(
        feature_dim=5,
        hidden_dim=heads * int(rng.integers(1, 4)),
        num_heads=heads,
        num_layers=int(rng.integers(1, 3)),
        ffn_hidden_dim=int(rng.integers(2, 7)),
        dropout=0.3,
        seed=seed % 97,
    )
    model_class = (GEMModel, FeatureMLP, XFraudDetectorPlus)[int(rng.integers(0, 3))]
    workers = int(rng.integers(1, min(5, graph.num_nodes) + 1))
    partitions = int(rng.integers(workers, min(workers + 3, graph.num_nodes) + 1))
    epochs = int(rng.integers(2, 4))
    config = TrainConfig(
        epochs=epochs,
        batch_size=int(rng.integers(1, 5)),
        learning_rate=1e-2,
        seed=seed % 89,
    )
    elastic = ElasticConfig(num_partitions=partitions, skip_budget=workers * epochs)
    where = (
        f"{model_class.__name__}, {workers} workers / {partitions} partitions, "
        f"{graph.num_nodes} nodes, batch {config.batch_size}"
    )

    def supervised(plan=None, checkpoint=None):
        model = model_class(model_config)
        return ElasticTrainer(
            model, graph, train, workers, config, elastic, plan, checkpoint=checkpoint
        )

    def shards_of(members, partition_ids):
        return make_worker_partitions(
            graph, train, members=members, partition_ids=partition_ids, seed=config.seed
        )

    def engine_over(members, partition_ids):
        return DistributedTrainer(
            model_class(model_config), shards_of(members, partition_ids), config
        )

    # -- fault-free: the supervisor is the engine ------------------------
    calm = supervised()
    calm_losses = [record.loss for record in calm.fit().history]
    engine = engine_over(range(workers), calm.partition_ids)
    if calm_losses != [record.loss for record in engine.fit().history]:
        return f"{where}: fault-free supervised losses differ from the engine's"
    if not _bit_equal(calm.model.state_dict(), engine.model.state_dict()):
        return f"{where}: fault-free supervised parameters differ from the engine's"

    # -- under faults ----------------------------------------------------
    faults, decisions = _random_worker_faults(rng, workers, epochs)
    where += f", faults {faults}"
    straight = supervised(FaultPlan(workers, **faults))
    history = straight.fit().history
    taken = [(r.members, r.evicted, r.rejoined, r.quarantined) for r in history]
    if taken != decisions:
        return f"{where}: decisions {taken} != scheduled {decisions}"

    spec = engine_over(history[0].members, straight.partition_ids)
    for record in history:  # the engine lends shard gradients, optimizer and rng only
        spec.workers = shards_of(record.members, straight.partition_ids)
        computed = [(w.worker_id, *spec.shard_gradients(w)) for w in spec.workers]
        accepted = [shard for shard in computed if shard[0] not in record.quarantined]
        for index, param in enumerate(spec.model.parameters()):
            param.grad = sum(grads[index] for _, grads, _, _ in accepted) / len(accepted)
        clip_grad_norm(spec.model.parameters(), config.clip_norm)
        spec.optimizer.step()
        if record.loss != float(np.mean([loss for _, _, loss, _ in accepted])):
            return f"{where}: epoch {record.epoch} loss differs from the by-hand round"
    if not _bit_equal(straight.model.state_dict(), spec.model.state_dict()):
        return f"{where}: parameters differ from the by-hand run over the same decisions"

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-elastic-") as directory:
        manager = CheckpointManager(directory)
        for epoch in range(epochs):
            resumed = supervised(FaultPlan(workers, **faults), checkpoint=manager)
            replayed = resumed.fit(resume=epoch > 0, stop_after_epoch=epoch).history
            shards, live = resumed.engine.workers, decisions[epoch][0]
            if [shard.worker_id for shard in shards] != live:
                return f"{where}: after epoch {epoch} the shards are not one per live member {live}"
            nodes = np.concatenate([shard.original_ids for shard in shards])
            parts = np.concatenate(
                [np.unique(resumed.partition_ids[shard.original_ids]) for shard in shards]
            )
            if not np.array_equal(np.sort(nodes), np.arange(graph.num_nodes)) or len(
                np.unique(parts)
            ) != len(parts):
                return f"{where}: after epoch {epoch} a node or partition is not owned exactly once"
        loaded = manager.load()
        if loaded.epoch != epochs - 1 or not _bit_equal(loaded.model_state, resumed.model.state_dict()):
            return f"{where}: the last checkpoint is not bit-identical after load"
        _flip_a_byte(rng, manager.latest())
        try:
            manager.load()
            return f"{where}: a checkpoint with a flipped byte loaded"
        except CheckpointError:
            pass
    if replayed != history or not _bit_equal(resumed.model.state_dict(), straight.model.state_dict()):
        return f"{where}: killed and resumed after every epoch != the uninterrupted run"
    return None


# ----------------------------------------------------------------------
# Driver + shrinker
# ----------------------------------------------------------------------
def run_case(name: str, seed: int, size: int) -> Optional[str]:
    """Run one scenario once; returns the divergence string or None."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown fuzz scenario {name!r}")
    try:
        return SCENARIOS[name](int(seed), int(size))
    except Exception as error:
        # One side crashing on an input the other handles is a
        # divergence to shrink and pin, not a reason to stop the run.
        return f"raised {type(error).__name__}: {error}"


def shrink(
    name: str,
    seed: int,
    size: int,
    max_attempts: int = 120,
) -> "tuple[int, int, str, int]":
    """Greedy minimization of a failing ``(seed, size)`` case.

    Phase 1 walks ``size`` down (halving first, then decrementing),
    keeping any candidate that still diverges. Phase 2 scans seeds
    ``0..63`` for a smaller seed that diverges at the minimal size.
    Returns ``(shrunk_seed, shrunk_size, detail, attempts_used)``.
    """
    detail = run_case(name, seed, size)
    if detail is None:
        raise ValueError(f"case {name}({seed}, {size}) does not fail; nothing to shrink")
    attempts = 0

    def still_fails(candidate_seed: int, candidate_size: int) -> Optional[str]:
        nonlocal attempts
        attempts += 1
        return run_case(name, candidate_seed, candidate_size)

    while size > 1 and attempts < max_attempts:
        for candidate in dict.fromkeys((size // 2, size - 1)):
            if candidate < 1:
                continue
            found = still_fails(seed, candidate)
            if found is not None:
                size, detail = candidate, found
                break
        else:
            break  # neither halving nor decrementing reproduces
    for candidate in range(0, min(seed, 64)):
        if attempts >= max_attempts:
            break
        found = still_fails(candidate, size)
        if found is not None:
            seed, detail = candidate, found
            break
    return seed, size, detail, attempts


def run_fuzz(
    trials: int,
    seed: int = 0,
    names: Optional[List[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Round-robin the scenarios, each over its own case sequence
    (:func:`_case`): trial ``i`` is the ``i // n``-th case of the
    ``i % n``-th of the ``n`` selected scenarios.

    The first divergence is shrunk, recorded, and ends the run.
    """
    selected = list(SCENARIOS) if names is None else list(names)
    for name in selected:
        if name not in SCENARIOS:
            raise KeyError(f"unknown fuzz scenario {name!r}")
    report = FuzzReport(trials=trials)
    for trial in range(trials):
        name = selected[trial % len(selected)]
        case_seed, size = _case(seed, name, trial // len(selected))
        report.per_scenario[name] = report.per_scenario.get(name, 0) + 1
        detail = run_case(name, case_seed, size)
        if detail is None:
            if progress is not None and (trial + 1) % 25 == 0:
                progress(f"{trial + 1}/{trials} cases clean")
            continue
        shrunk_seed, shrunk_size, shrunk_detail, steps = shrink(name, case_seed, size)
        report.failures.append(
            FuzzFailure(
                scenario=name,
                seed=case_seed,
                size=size,
                detail=detail,
                shrunk_seed=shrunk_seed,
                shrunk_size=shrunk_size,
                shrunk_detail=shrunk_detail,
                shrink_steps=steps,
            )
        )
        break
    return report
