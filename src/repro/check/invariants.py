"""Invariant registry: executable statements of what must always hold.

Each checker is a small deterministic experiment over one layer of the
stack — it builds its own seeded fixture, drives the real production
code paths, and returns a list of violation strings (empty = the
invariant held). The registry is what ``repro check`` runs and what CI
gates on; the same low-level audit helpers (:func:`csr_violations`,
:func:`wal_violations`, :func:`ledger_violations`) are reused by the
differential fuzzer in :mod:`repro.check.fuzz` so a fuzz case and an
audit disagree about nothing.

Checkers must be *self-falsifying* where practical: after asserting the
invariant holds on a healthy fixture, they corrupt the fixture and
assert the detection machinery actually fires. A checker that cannot
catch the fault it exists for is itself a violation.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..graph.hetero import HeteroGraph
from .gen import random_delta, random_events, random_hetero_graph
from .mutants import Mutant, edit, register

__all__ = [
    "CheckResult",
    "InvariantCheck",
    "REGISTRY",
    "csr_violations",
    "wal_violations",
    "ledger_violations",
    "subgraph_equal",
    "txn_table_violations",
    "run_audits",
]


@dataclass
class InvariantCheck:
    """One registered checker: what layer it guards and what it falsifies."""

    name: str
    layer: str
    falsifies: str
    fn: Callable[[], List[str]]


@dataclass
class CheckResult:
    name: str
    layer: str
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


REGISTRY: Dict[str, InvariantCheck] = {}


def invariant(name: str, layer: str, falsifies: str, mutants: Sequence[Mutant] = ()):
    """Register a checker function under ``name``, with the planted
    code ``mutants`` it must kill (:mod:`.mutants`)."""

    def decorate(fn: Callable[[], List[str]]) -> Callable[[], List[str]]:
        if name in REGISTRY:
            raise ValueError(f"duplicate invariant checker {name!r}")
        REGISTRY[name] = InvariantCheck(name=name, layer=layer, falsifies=falsifies, fn=fn)
        register(name, mutants)
        return fn

    return decorate


def run_audits(names: Optional[List[str]] = None) -> List[CheckResult]:
    """Run every registered checker (or the named subset), in order."""
    selected = list(REGISTRY) if names is None else list(names)
    results = []
    for name in selected:
        if name not in REGISTRY:
            raise KeyError(f"unknown invariant checker {name!r}")
        check = REGISTRY[name]
        results.append(
            CheckResult(name=check.name, layer=check.layer, violations=check.fn())
        )
    return results


# ----------------------------------------------------------------------
# Reusable audit helpers (shared with the fuzzer)
# ----------------------------------------------------------------------
def csr_violations(graph: HeteroGraph) -> List[str]:
    """Falsify the in-edge CSR against the flat edge arrays.

    The CSR contract (``HeteroGraph.csr``, :class:`~repro.graph.hetero.
    InEdges`): ``indptr`` is the canonical prefix sum of the in-degrees;
    each node's run of ``indptr[v + 1] - indptr[v]`` slots from
    ``base[v]`` lies inside its bucket of ``cap[v]`` slots, inside the
    slot arrays, and no two buckets overlap; gathered in node order
    (:func:`~repro.check.reference.compacted`), slot ``i`` holds edge
    ``eid[i]`` with ``edge_dst[eid[i]]`` equal to the bucket node and
    ``edge_src[eid[i]] == src[i]``, and ``eid`` is a permutation of the
    edge ids that is *stable* (ascending within each bucket) — what a
    full rebuild lays out.
    """
    from .reference import compacted

    problems: List[str] = []
    csr = graph.csr()
    num_nodes, num_edges = graph.num_nodes, graph.num_edges
    # No spare capacity may leak into a public array: each is exactly
    # num_nodes / transactions / num_edges long and C-contiguous, grown or not.
    for name, want in (
        ("labels", num_nodes),
        ("txn_table", int(np.count_nonzero(graph.node_type == 0))),
        ("edge_dst", num_edges),
        ("edge_type", num_edges),
    ):
        array = getattr(graph, name)
        if len(array) != want or not array.flags.c_contiguous:
            problems.append(
                f"{name} has {len(array)} rows (contiguous={array.flags.c_contiguous}), "
                f"expected exactly {want}"
            )
    if problems:
        return problems
    indptr, base, cap = csr.indptr, csr.base, csr.cap
    shapes = (indptr.shape, base.shape, cap.shape)
    if shapes != ((num_nodes + 1,), (num_nodes,), (num_nodes,)):
        return [f"indptr / base / cap shapes {shapes} for {num_nodes} nodes"]
    if num_nodes >= 0 and (indptr[0] != 0 or indptr[-1] != num_edges):
        problems.append(
            f"indptr endpoints ({indptr[0]}, {indptr[-1]}) != (0, {num_edges})"
        )
    degree = np.diff(indptr)
    if np.any(degree < 0):
        # Per-bucket checks below repeat by the degrees; negative
        # spans would crash them, so report and stop here.
        problems.append("indptr not monotone non-decreasing")
        return problems
    if len(csr.src) != len(csr.edge_id):
        return problems + [f"slot arrays have {len(csr.src)} / {len(csr.edge_id)} entries"]
    if np.any(degree > cap):
        node = int(np.flatnonzero(degree > cap)[0])
        return problems + [f"bucket of node {node} over its capacity"]
    if np.any(base < 0) or np.any(base + cap > len(csr.src)):
        return problems + ["a bucket lies outside the slot arrays"]
    held = np.flatnonzero(cap)
    ordered = held[np.argsort(base[held], kind="stable")]
    if np.any((base + cap)[ordered[:-1]] > base[ordered[1:]]):
        return problems + ["two buckets share slots"]
    _, src, eid = compacted(csr)
    if len(src) != num_edges or len(eid) != num_edges:
        return problems + [
            f"csr arrays have {len(src)}/{len(eid)} entries for {num_edges} edges"
        ]
    if num_edges == 0:
        return problems
    if eid.min() < 0 or eid.max() >= num_edges or len(np.unique(eid)) != num_edges:
        problems.append("edge-id column is not a permutation of the edge ids")
        return problems
    bucket_of = np.repeat(np.arange(num_nodes), degree)
    if np.any(graph.edge_dst[eid] != bucket_of):
        problems.append("edge landed in the wrong destination bucket")
    if np.any(graph.edge_src[eid] != src):
        problems.append("source column disagrees with edge_src[eid]")
    same_bucket = np.diff(bucket_of) == 0
    if np.any(np.diff(eid)[same_bucket] <= 0):
        problems.append("edge ids not ascending within a bucket (stability lost)")
    return problems


def txn_table_violations(graph: HeteroGraph, want: np.ndarray) -> List[str]:
    """Falsify the transaction feature table against ``want``, the rows
    the graph's transactions must hold, in node order.

    The contract (``HeteroGraph.txn_table``): exactly one row per
    transaction node and none per entity, row ``k`` the ``k``-th
    transaction met scanning ``node_type`` — so it equals ``want`` byte
    for byte — and ``txn_row`` naming each node's row by the same scan
    (``-1`` for an entity).
    """
    txns = _scanned_txns(graph)
    table, want = graph.txn_table, np.asarray(want)
    if table.shape != want.shape or len(table) != len(txns):
        return [f"txn_table is {table.shape} for {len(txns)} transactions, expected {want.shape}"]
    for row, node in enumerate(txns):
        if table[row].tobytes() != want[row].tobytes():
            return [f"txn_table row {row} (transaction {node}) holds another row"]
    scanned = np.full(graph.num_nodes, -1)
    scanned[txns] = np.arange(len(txns))
    if not np.array_equal(graph.txn_row, scanned):
        return ["txn_row disagrees with a scan of node_type"]
    return []


def _scanned_txns(graph: HeteroGraph) -> List[int]:
    """The transaction nodes, met scanning ``node_type`` in node order."""
    return [node for node, type_id in enumerate(graph.node_type.tolist()) if type_id == 0]


def _rows_by_node(graph: HeteroGraph) -> Dict[int, np.ndarray]:
    """Each transaction's row, by a scan of ``node_type``."""
    return dict(zip(_scanned_txns(graph), graph.txn_table))


def _rows_of(rows: Dict[int, np.ndarray], nodes, feature_dim: int) -> np.ndarray:
    """The table a graph on parent ``nodes`` (in that order) must hold."""
    picked = [rows[int(node)] for node in nodes if int(node) in rows]
    return np.array(picked).reshape(len(picked), feature_dim)


def subgraph_equal(a, b) -> Optional[str]:
    """Bit-identity of two :class:`SampledSubgraph`; None when equal."""
    pairs = [
        ("original_ids", a.original_ids, b.original_ids),
        ("target_local", a.target_local, b.target_local),
        ("node_type", a.graph.node_type, b.graph.node_type),
        ("edge_src", a.graph.edge_src, b.graph.edge_src),
        ("edge_dst", a.graph.edge_dst, b.graph.edge_dst),
        ("edge_type", a.graph.edge_type, b.graph.edge_type),
        ("txn_table", a.graph.txn_table, b.graph.txn_table),
        ("labels", a.graph.labels, b.graph.labels),
    ]
    for name, left, right in pairs:
        if left.shape != right.shape:
            return f"{name} shape {left.shape} != {right.shape}"
        if not np.array_equal(left, right):
            return f"{name} differs"
    return None


def target_parts(stacked) -> List:
    """Each request's component of a stacked sample, gathered out as the
    singleton sample it must equal (a repeated target's are one part)."""
    from ..graph.sampling import gather

    roots = stacked.bounds[:-1, 0]
    components = np.searchsorted(roots, stacked.target_local)
    if np.any(roots[np.minimum(components, len(roots) - 1)] != stacked.target_local):
        raise ValueError("a request is not scored at the root of a component")
    part_at = {component: gather([(stacked, component)]) for component in set(components.tolist())}
    return [part_at[component] for component in components.tolist()]


def wal_violations(directory: str) -> List[str]:
    """Falsify WAL manifest/segment agreement on disk.

    Every sealed manifest entry must name an existing file whose size
    and whole-file CRC32 match, whose frames scan cleanly to exactly
    ``records`` payloads, and whose ``[first_seq, last_seq]`` ranges
    tile the sequence space contiguously from 0.
    """
    from ..stream.wal import _scan_frames

    problems: List[str] = []
    manifest_path = os.path.join(directory, "MANIFEST.json")
    if not os.path.exists(manifest_path):
        # Written at the first seal; a log that never rotated has none.
        return []
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    next_seq = 0
    for entry in manifest.get("segments", []):
        name = entry["file"]
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            problems.append(f"{name}: sealed but missing on disk")
            continue
        with open(path, "rb") as handle:
            blob = handle.read()
        if len(blob) != entry["size"]:
            problems.append(f"{name}: size {len(blob)} != sealed {entry['size']}")
        if zlib.crc32(blob) != entry["crc32"]:
            problems.append(f"{name}: crc32 mismatch against manifest")
        payloads, _, tear = _scan_frames(blob)
        if tear is not None:
            problems.append(f"{name}: sealed segment tears ({tear})")
        if len(payloads) != entry["records"]:
            problems.append(
                f"{name}: {len(payloads)} frames != sealed records {entry['records']}"
            )
        if entry["first_seq"] != next_seq:
            problems.append(
                f"{name}: first_seq {entry['first_seq']} != expected {next_seq}"
            )
        if entry["last_seq"] - entry["first_seq"] + 1 != entry["records"]:
            problems.append(f"{name}: seq span disagrees with record count")
        next_seq = entry["last_seq"] + 1
    return problems


def ledger_violations(store, keys: Optional[Sequence[str]] = None) -> List[str]:
    """Falsify the replicated store's CRC ledger against replica bytes.

    For every ledger entry (or those of ``keys``), each owner replica
    that holds the key must hold bytes whose CRC32 matches the ledger.
    A missing copy is legal (a put succeeds on one owner; anti-entropy
    heals the rest) — only *divergent bytes* violate the invariant.
    """
    problems: List[str] = []
    for key in sorted(store._crc if keys is None else keys):
        expected = store._crc[key]
        for owner in store.owners(key):
            replica = store.replicas[owner]
            try:
                value = replica.get(key)
            except KeyError:
                continue
            except Exception as error:  # dead replica: routing's problem
                problems.append(f"{key}@replica{owner}: read failed ({error})")
                continue
            actual = zlib.crc32(value)
            if actual != expected:
                problems.append(
                    f"{key}@replica{owner}: crc {actual} != ledger {expected}"
                )
    return problems


# ----------------------------------------------------------------------
# Registered checkers
# ----------------------------------------------------------------------
@invariant(
    "graph-csr-validity",
    layer="graph",
    falsifies="CSR buckets / indptr / edge-id agreement with the flat edge "
    "arrays, public arrays exactly num_nodes/num_edges long (no spare "
    "capacity published), version bumps: +1 per append_delta, 0 per "
    "rebuild, and the full validate() of the grown graph",
    mutants=[
        edit(  # a warm cache keyed on the version would be dropped by every rebuild
            "rebuild-bumps-the-version", "repro.graph.hetero:HeteroGraph.rebuild_csr",
            "self._csr = None", "self.mark_mutated()", "rebuild_csr changed the version",
        ),
    ],
)
def _check_csr_validity() -> List[str]:
    problems: List[str] = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        graph = random_hetero_graph(rng, num_txns=4 + seed * 3)
        graph.csr()
        problems += [f"seed {seed}: {p}" for p in csr_violations(graph)]
        before = graph.version
        graph.append_delta(**random_delta(rng, graph, num_new_txns=2 + seed))
        if graph.version != before + 1:
            problems.append(
                f"seed {seed}: append_delta bumped version "
                f"{before}->{graph.version}, expected +1"
            )
        problems += [f"seed {seed} post-delta: {p}" for p in csr_violations(graph)]
        try:  # the whole-graph pass compaction no longer makes
            graph.validate()
        except ValueError as error:
            problems.append(f"seed {seed}: the grown graph fails validate(): {error}")
        at_delta = graph.version
        graph.rebuild_csr()
        if graph.version != at_delta:
            problems.append(f"seed {seed}: rebuild_csr changed the version")
        problems += [f"seed {seed} post-rebuild: {p}" for p in csr_violations(graph)]
    # Self-test: a corrupted CSR must be caught.
    rng = np.random.default_rng(99)
    graph = random_hetero_graph(rng, num_txns=5)
    src = graph.csr().src
    if graph.num_edges >= 2:
        src[0] = (src[0] + 1) % graph.num_nodes
        if not csr_violations(graph):
            problems.append("self-test: csr_violations missed a corrupted source column")
        graph._csr = None  # drop the poisoned cache
    # Self-test: an off-by-one publish (one capacity row leaking into a
    # public array after a delta) must be caught.
    graph.csr()
    graph.append_delta(**random_delta(rng, graph, num_new_txns=2))
    graph.labels = graph.labels.base[: graph.num_nodes + 1]
    if not csr_violations(graph):
        problems.append("self-test: csr_violations missed a capacity row in a public array")
    return problems


def _txn_table_legs(rng: np.random.Generator, problems: List[str]) -> None:
    """Every producer of a table on one growing graph, each held to the
    rows a scan of its parent says its transactions own; violations go
    to ``problems`` as they are found."""
    from ..graph.sampling import SageSampler, gather
    from ..storage import GraphStore, InMemoryKVStore
    from ..stream.builder import IncrementalGraphBuilder
    from .reference import stack_subgraphs

    graph = random_hetero_graph(rng, num_txns=int(rng.integers(4, 9)))
    graph.txn_row  # derived now, so the deltas extend it in place
    for shape in ("full", "node-only", "edge-only", "full"):
        delta = random_delta(rng, graph, num_new_txns=2, shape=shape)
        want = np.concatenate([graph.txn_table, delta["txn_table"]])
        graph.append_delta(**delta)
        problems += [f"append_delta ({shape}): {p}" for p in txn_table_violations(graph, want)]
    rows, dim = _rows_by_node(graph), graph.feature_dim
    nodes = rng.permutation(graph.num_nodes)[: graph.num_nodes // 2 + 1]
    sub, _ = graph.subgraph(nodes)
    problems += [f"subgraph: {p}" for p in txn_table_violations(sub, _rows_of(rows, nodes, dim))]
    sampler = SageSampler(hops=2, fanout=3, seed=int(rng.integers(0, 1 << 16)))
    targets = rng.choice(graph.num_nodes, size=4)
    parts = [sampler.sample(graph, [int(target)]) for target in targets]
    stacked = stack_subgraphs(parts)
    walk = sampler.sample(graph, targets, disjoint=True)
    pieces = [(walk, int(index)) for index in rng.integers(0, len(targets), size=3)]
    sampled = {
        "stack_subgraphs": stacked,
        "disjoint walk": walk,
        "gather": gather(pieces + [(stacked, 0)]),
        **{f"gathered part {i}": gather([(stacked, i)]) for i in range(len(parts))},
    }
    for name, sample in sampled.items():
        want = _rows_of(rows, sample.original_ids, dim)
        problems += [f"{name}: {p}" for p in txn_table_violations(sample.graph, want)]
    fresh = rng.normal(size=stacked.graph.txn_table.shape)
    clone = stacked.graph.with_features(fresh)
    problems += [f"with_features: {p}" for p in txn_table_violations(clone, fresh)]
    store = InMemoryKVStore()
    GraphStore(store).save(graph)
    keys = len(store.keys())
    if keys != len(graph.txn_table) + len(GraphStore.STRUCT_KEYS) + 1:
        problems.append(f"GraphStore.save wrote {keys} keys for {len(graph.txn_table)} rows")
    loaded = GraphStore(store).load()
    problems += [f"GraphStore.load: {p}" for p in txn_table_violations(loaded, graph.txn_table)]
    events = random_events(rng, 6, feature_dim=3)
    builder = IncrementalGraphBuilder(feature_dim=3)
    for count, event in enumerate(events):
        builder.apply(event)
        if count % 2:
            builder.flush()
    want = np.stack([event.features for event in events])
    problems += [f"stream builder: {p}" for p in txn_table_violations(builder.graph, want)]


@invariant(
    "txn-table",
    layer="graph/stream/storage",
    falsifies="a transaction feature table holding other than exactly one row per "
    "transaction in node order — an entity given a row, rows swapped, a delta that "
    "drops one — after append_delta, subgraph, stack_subgraphs, the disjoint walk, "
    "gather, with_features, the stream builder's flush and a GraphStore round-trip",
    mutants=[
        edit(
            "an-entity-given-a-row", "repro.graph.hetero:HeteroGraph.txn_table_of",
            "rows[rows >= 0]", "np.maximum(rows, 0)", "txn_table is",
        ),
        edit(
            "a-gathered-components-rows-reversed", "repro.graph.sampling:gather",
            "take(rows, axis=0)", "take(rows[::-1], axis=0)", "holds another row",
        ),
        edit(
            "a-delta-that-drops-a-row", "repro.stream.builder:IncrementalGraphBuilder.flush",
            "np.stack(self._pending_features)", "np.stack(self._pending_features[:-1])",
            "delta txn_table must be",
        ),
        edit(
            "store-rows-written-under-other-keys", "repro.storage.loader:GraphStore.save",
            "graph.txn_nodes.tolist()", "graph.txn_nodes[::-1].tolist()", "GraphStore.load",
        ),
    ],
)
def _check_txn_table() -> List[str]:
    problems: List[str] = []
    for seed in (0, 1, 2):
        found: List[str] = []
        try:
            _txn_table_legs(np.random.default_rng(seed), found)
        except Exception as error:  # a producer that raises fails the audit too
            found.append(f"raised {type(error).__name__}: {error}")
        problems += [f"seed {seed}: {p}" for p in found]
    # Self-tests: each planted fault must be caught.
    graph = random_hetero_graph(np.random.default_rng(31), num_txns=4)
    want = graph.txn_table
    planted = {
        "an entity given a row": np.insert(want, len(want), 0.0, axis=0),
        "two rows swapped": want[[1, 0, 2, 3]],
        "a row dropped": want[:-1],
    }
    arrays = [graph.node_type, graph.edge_src, graph.edge_dst, graph.edge_type]
    for fault, table in planted.items():
        if not txn_table_violations(HeteroGraph.derived(*arrays, table, graph.labels), want):
            problems.append(f"self-test: txn_table_violations missed {fault}")
        if fault != "two rows swapped":
            try:
                HeteroGraph(*arrays, table, graph.labels)
                problems.append(f"self-test: validate() admitted a table with {fault}")
            except ValueError:
                pass
    delta = random_delta(np.random.default_rng(32), graph, num_new_txns=2)
    delta["txn_table"] = delta["txn_table"][:-1]
    try:
        graph.append_delta(**delta)
        problems.append("self-test: append_delta took a delta that drops a row")
    except ValueError:
        pass
    return problems + [f"after a refused delta: {p}" for p in txn_table_violations(graph, want)]


def _batch_lookup_problems() -> List[str]:
    """Drive one cache with micro-batch lookups and a twin with the
    per-target loop over the same targets: hits, misses, repeats inside
    a call, batches larger than the capacity (a call evicting its own
    and older entries; the second call, scripted, makes every lookup a
    miss though one target was stored) and version bumps between calls.
    After every call each request's component of the stacked return must
    equal the loop's singleton sample, the stored keys, their LRU order
    and ``stats()`` the loop's, and every stored entry — a (sample,
    component) piece, gathered here for the comparison — the loop's: a
    fresh sample at that version."""
    from ..graph.cache import SubgraphCache
    from ..graph.sampling import SageSampler, gather

    rng = np.random.default_rng(29)
    graph = random_hetero_graph(rng, num_txns=8)
    sampler = SageSampler(hops=2, fanout=3, seed=4)
    batched, looped = SubgraphCache(capacity=3), SubgraphCache(capacity=3)
    pool = rng.permutation(graph.num_nodes)[:6]
    scripted = [pool[:3], np.append(pool[3:], pool[0])]
    for call in range(40):
        if call % 9 == 8:
            graph.append_delta(**random_delta(rng, graph, num_new_txns=1))
        targets = [int(node) for node in rng.choice(pool, size=int(rng.integers(0, 7)))]
        if call < len(scripted):
            targets = scripted[call].tolist()
        if not targets:
            continue
        got = batched.get_or_sample(graph, sampler, targets)
        want = [looped.get_or_sample(graph, sampler, [target]) for target in targets]
        where = f"call {call}, targets {targets}"
        if len(got.target_local) != len(want) or any(
            subgraph_equal(ours, theirs) for ours, theirs in zip(target_parts(got), want)
        ):
            return [f"{where}: a request's component differs from the per-target loop's sample"]
        if list(batched._entries) != list(looped._entries):
            return [f"{where}: stored keys or their LRU order differ from the per-target loop's"]
        for key, entry in batched._entries.items():
            if subgraph_equal(gather([entry]), gather([looped._entries[key]])):
                return [f"{where}: stored entry {key[-1]} differs from the per-target loop's"]
        if batched.stats() != looped.stats():
            return [f"{where}: stats {batched.stats()} != the loop's {looped.stats()}"]
    stats = looped.stats()
    if not (stats["hits"] and stats["evictions"] and stats["misses"] > stats["evictions"]):
        return [f"the experiment lost its mix of hits, misses and evictions: {stats}"]
    return []


@invariant(
    "cache-coherence",
    layer="graph",
    falsifies="a cached subgraph differing from a fresh sample at the "
    "same graph version, a stale version being served after mutation, or "
    "a micro-batch lookup leaving other entries, LRU order or counters "
    "than the per-target loop",
    mutants=[
        edit(  # a batch's misses inserted before its hits are touched
            "inserts-before-hits", "repro.graph.cache:SubgraphCache._replay",
            "for key, found in zip(keys, hit):",
            "for key, found in sorted(zip(keys, hit), key=lambda pair: pair[1]):",
            "LRU order",
        ),
    ],
)
def _check_cache_coherence() -> List[str]:
    from ..graph.cache import SubgraphCache
    from ..graph.sampling import HGSampler, SageSampler

    problems: List[str] = _batch_lookup_problems()
    rng = np.random.default_rng(5)
    graph = random_hetero_graph(rng, num_txns=8)
    targets = [0, 3, 5]
    for sampler in (SageSampler(hops=2, fanout=3, seed=4), HGSampler(depth=2, width=3, seed=4)):
        cache = SubgraphCache(capacity=8)
        first = cache.get_or_sample(graph, sampler, targets)
        second = cache.get_or_sample(graph, sampler, targets)
        if second is not first:
            problems.append(f"{sampler.cache_key()}: repeat lookup was not a hit on the walk")
        diff = subgraph_equal(first, sampler.sample(graph, targets, disjoint=True))
        if diff is not None:
            problems.append(f"{sampler.cache_key()}: cached != fresh sample ({diff})")
        before_version = graph.version
        graph.append_delta(**random_delta(rng, graph, num_new_txns=2))
        after = cache.get_or_sample(graph, sampler, targets)
        if graph.version == before_version:
            problems.append("append_delta failed to bump the version")
        diff = subgraph_equal(after, sampler.sample(graph, targets, disjoint=True))
        if diff is not None:
            problems.append(
                f"{sampler.cache_key()}: post-mutation lookup served stale data ({diff})"
            )
        snapshot = cache.stats()
        if snapshot["hits"] + snapshot["misses"] != snapshot["lookups"]:
            problems.append("cache counters do not sum to lookups")
    return problems


@invariant(
    "deadline-monotonicity",
    layer="serving",
    falsifies="Deadline.remaining decreasing exactly with the clock, "
    "expiry latching, and check() raising iff the budget is spent",
    mutants=[
        edit(
            "remaining-clamped-at-zero", "repro.serving.deadline:Deadline.remaining",
            "return self.budget_s - self.elapsed()",
            "return max(0.0, self.budget_s - self.elapsed())",
            "remaining 0.0 !=",
        ),
    ],
)
def _check_deadline() -> List[str]:
    from ..reliability.faults import ManualClock
    from ..serving.deadline import Deadline, DeadlineExceeded

    problems: List[str] = []
    clock = ManualClock()
    deadline = Deadline(1.0, clock=clock)
    last_remaining = deadline.remaining()
    for step in range(6):
        clock.advance(0.25)
        remaining = deadline.remaining()
        if remaining > last_remaining:
            problems.append(f"step {step}: remaining increased {last_remaining} -> {remaining}")
        # The documented contract: remaining goes negative once blown.
        expected = 1.0 - 0.25 * (step + 1)
        if abs(remaining - expected) > 1e-12:
            problems.append(f"step {step}: remaining {remaining} != {expected}")
        should_expire = clock() >= 1.0
        if deadline.expired() != should_expire:
            problems.append(f"step {step}: expired() != clock-derived truth")
        try:
            deadline.check("audit")
            raised = False
        except DeadlineExceeded:
            raised = True
        if raised != should_expire:
            problems.append(f"step {step}: check() raised={raised}, expired={should_expire}")
        last_remaining = remaining
    return problems


@invariant(
    "span-monotonicity",
    layer="obs",
    falsifies="span end >= start and child spans nesting inside their "
    "parent's interval with correct parent linkage",
    mutants=[
        edit(  # a finished span pops its parent off the stack too
            "finish-pops-one-span-too-many", "repro.obs.trace:Tracer._finish",
            "if top is span:", "if top is not span:",
            "parent_id does not point at the request span",
        ),
    ],
)
def _check_spans() -> List[str]:
    from ..obs.trace import Tracer
    from ..reliability.faults import ManualClock

    problems: List[str] = []
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("request") as outer:
        clock.advance(0.1)
        with tracer.span("sample"):
            clock.advance(0.2)
        with tracer.span("forward"):
            clock.advance(0.3)
        clock.advance(0.05)
    spans = {span.name: span for span in tracer.spans()}
    if set(spans) != {"request", "sample", "forward"}:
        return [f"expected 3 finished spans, got {sorted(spans)}"]
    for name, span in spans.items():
        if span.end_s is None or span.end_s < span.start_s:
            problems.append(f"{name}: end {span.end_s} precedes start {span.start_s}")
    root = spans["request"]
    for name in ("sample", "forward"):
        child = spans[name]
        if child.parent_id != root.span_id:
            problems.append(f"{name}: parent_id does not point at the request span")
        if child.start_s < root.start_s or child.end_s > root.end_s:
            problems.append(f"{name}: interval escapes the parent span")
    if outer.span_id != root.span_id:
        problems.append("context-manager span is not the recorded root")
    return problems


@invariant(
    "stats-accounting",
    layer="serving",
    falsifies="ServiceStats latency summaries reporting values that were "
    "never observed, and cache counters failing to sum to lookups",
    mutants=[
        edit(
            "latencies-kept-rounded", "repro.serving.stats:ServiceStats.record_response",
            "self._latencies.add(float(latency_s))", "self._latencies.add(round(latency_s, 1))",
            "p50",
        ),
    ],
)
def _check_stats_accounting() -> List[str]:
    from ..serving.stats import ServiceStats

    problems: List[str] = []
    stats = ServiceStats()
    recorded = [0.01, 0.02, 0.03, 0.04, 0.4]
    for latency in recorded:
        stats.record_response("gnn", latency)
    summary = stats.latency_summary()
    for key, value in summary.items():
        if not any(abs(value - sample) < 1e-12 for sample in recorded):
            problems.append(f"{key}={value} is not an observed latency")
    if summary["p50"] != 0.03:
        problems.append(f"p50 of 5 samples should be the 3rd ({summary['p50']!r})")
    return problems


@invariant(
    "percentile-selection",
    layer="train/obs",
    falsifies="the two quantile call sites (latency_percentiles, "
    "Histogram.percentile) disagreeing with nearest-rank selection or each "
    "other, especially at n=1,2",
    mutants=[
        edit(  # a floor rank instead of nearest rank, in one of the two call sites
            "histogram-percentile-by-floor-rank", "repro.obs.registry:Histogram.percentile",
            "sample[nearest_rank_index(q, len(sample))]",
            "sample[min(len(sample) - 1, int(q / 100.0 * len(sample)))]",
            "Histogram.p50",
        ),
    ],
)
def _check_percentiles() -> List[str]:
    from ..obs.registry import Histogram
    from ..train.metrics import latency_percentiles

    problems: List[str] = []
    cases = {
        1: ([0.25], {"p50": 0.25, "p95": 0.25, "p99": 0.25}),
        2: ([9.0, 1.0], {"p50": 1.0, "p95": 9.0, "p99": 9.0}),
        4: ([0.04, 0.01, 0.03, 0.02], {"p50": 0.02, "p95": 0.04, "p99": 0.04}),
    }
    for count, (samples, expected) in cases.items():
        summary = latency_percentiles(samples)
        if summary != expected:
            problems.append(f"n={count}: latency_percentiles {summary} != {expected}")
        hist = Histogram("audit_hist", "audit", buckets=(1e9,))
        for value in samples:
            hist.observe(value)
        for key, want in expected.items():
            got = hist.percentile(float(key[1:]))
            if got != want:
                problems.append(f"n={count}: Histogram.{key} {got} != {want}")
    ordered = sorted(np.random.default_rng(19).uniform(size=100))
    if latency_percentiles(ordered)["p99"] != ordered[98]:
        problems.append("p99 of 100 samples is not the 99th order statistic")
    return problems


def _scraped(registry) -> Dict[str, float]:
    """``{"name{labels}": value}`` of one ``registry.render()``."""
    samples = (
        line.rsplit(" ", 1) for line in registry.render().splitlines() if line[:1] != "#"
    )
    return {sample: float(value) for sample, value in samples}


def _surface_problems(
    where: str, scraped: Dict[str, float], expected: Dict[str, object]
) -> List[str]:
    """Every sample the component's own report (``stats()`` /
    ``snapshot()`` / ``health()`` / ``ReplicaHealth``) implies, present
    and equal in a scrape taken at the same point."""
    return [
        f"{where}: {sample} scraped as {scraped.get(sample)}, the component reports {value}"
        for sample, value in expected.items()
        if scraped.get(sample) != float(value)
    ]


def _cache_surfaces(rng) -> List[str]:
    """Two caches on one registry (their samples add) under lookups,
    micro-batch lookups, evictions, deltas and invalidations."""
    from ..graph.cache import SubgraphCache
    from ..graph.sampling import SageSampler
    from ..obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    graph = random_hetero_graph(rng, num_txns=8)
    sampler = SageSampler(hops=2, fanout=3, seed=1)
    caches = [SubgraphCache(capacity=3).instrument(registry) for _ in range(2)]
    for step in range(60):
        cache = caches[int(rng.integers(0, 2))]
        targets = [int(node) for node in rng.integers(0, graph.num_nodes, size=rng.integers(1, 5))]
        action = int(rng.integers(0, 8))
        if action == 0:
            graph.append_delta(**random_delta(rng, graph, num_new_txns=1))
        elif action == 1:
            cache.invalidate(graph)
        else:
            cache.get_or_sample(graph, sampler, targets)
        if rng.integers(0, 3) == 0:
            stats = [cache.stats() for cache in caches]
            expected = {
                f'subgraph_cache_{tally}_total{{cache="subgraph"}}': sum(
                    snapshot[tally] for snapshot in stats
                )
                for tally in ("hits", "misses", "evictions")
            }
            problems = _surface_problems(f"caches, step {step}", _scraped(registry), expected)
            if problems:
                return problems
    totals = [sum(cache.stats()[tally] for cache in caches) for tally in ("hits", "evictions")]
    return [] if all(totals) else [f"the cache experiment lost its hits or evictions: {totals}"]


def _stats_surfaces(rng) -> List[str]:
    from ..obs.registry import MetricsRegistry
    from ..serving.stats import ServiceStats

    registry = MetricsRegistry()
    stats = ServiceStats(registry=registry)
    reasons = ("deadline:feature fetch", "kv_unavailable")
    for step in range(80):
        action = int(rng.integers(0, 4))
        if action == 0:
            stats.record_shed(("rate_limited", "queue_full")[int(rng.integers(0, 2))])
        else:
            stats.record_admitted()
            degraded = reasons[int(rng.integers(0, len(reasons)))] if action == 1 else None
            stats.record_response("linked" if degraded else "gnn", float(rng.uniform()), degraded)
        if rng.integers(0, 3) == 0:
            snapshot = stats.snapshot()
            expected = {"service_admitted_total": snapshot["admitted"]}
            for family, label, tally in (
                ("service_shed_total", "reason", snapshot["shed"]),
                ("service_degraded_total", "reason", snapshot["degraded_reasons"]),
                ("service_request_latency_seconds_count", "rung", snapshot["rungs"]),
            ):
                expected.update(
                    {f'{family}{{{label}="{key}"}}': count for key, count in tally.items()}
                )
            problems = _surface_problems(f"stats, step {step}", _scraped(registry), expected)
            if problems:
                return problems
    return []


def _stream_surfaces(rng) -> List[str]:
    """Builder + scorer + the service under them on one registry:
    events, refused ingests, matured labels (label flips bump the graph
    version after the flush), compactions."""
    from ..models.detector import DetectorConfig, XFraudDetectorPlus
    from ..obs.registry import MetricsRegistry
    from ..reliability.faults import ManualClock
    from ..serving.service import ScoringService, ServiceConfig
    from ..stream.builder import IncrementalGraphBuilder
    from ..stream.scorer import StreamConfig, StreamScorer
    from ..stream.wal import EventLog

    registry, clock = MetricsRegistry(), ManualClock()
    builder = IncrementalGraphBuilder(feature_dim=4, registry=registry)
    events = random_events(rng, 70, feature_dim=4)
    for event in events[:6]:
        builder.apply(event)
    builder.flush()
    detector = XFraudDetectorPlus(
        DetectorConfig(feature_dim=4, hidden_dim=4, num_heads=2, num_layers=1, ffn_hidden_dim=4),
        hops=1,
        fanout=2,
    )
    service = ScoringService(
        detector,
        builder.graph,
        config=ServiceConfig(deadline_s=5.0, rate=0.5, burst=3.0),
        clock=clock,
        registry=registry,
    )
    with tempfile.TemporaryDirectory() as directory:
        wal = EventLog(directory, segment_max_bytes=512, fsync=False)
        scorer = StreamScorer(
            service,
            builder,
            wal=wal,
            config=StreamConfig(batch_size=4, queue_capacity=6, label_delay_s=0.5, compact_every=9),
            clock=clock,
            registry=registry,
        )
        refused = 0
        for step, event in enumerate(events[6:]):
            clock.advance(max(0.0, event.timestamp - clock()))
            if not scorer.ingest(event):
                refused += 1
                scorer.pump(max_batches=1)
                scorer.ingest(event)
            if rng.integers(0, 4) == 0:
                scorer.pump(max_batches=int(rng.integers(1, 3)))
            if rng.integers(0, 3):
                continue
            health, snapshot = scorer.health(), service.stats.snapshot()
            expected = {
                "stream_lag_events": health.lag_events,
                "stream_lag_seconds": health.lag_seconds,
                "stream_wal_segments": health.wal_segments,
                "stream_events_ingested_total": health.wal_records,
                "stream_graph_version": health.graph_version,
                "stream_graph_nodes": health.graph_nodes,
                "stream_graph_edges": health.graph_edges,
                "stream_events_scored_total": health.events_scored,
                "stream_labels_matured_total": health.labels_matured,
                "stream_backpressure_total": health.backpressure_rejections,
                "stream_builder_events_total": builder.events_applied,
                "stream_builder_compactions_total": builder.compactions,
                "service_admitted_total": snapshot["admitted"],
            }
            if not np.isnan(health.online_auc):
                expected["stream_online_auc"] = health.online_auc
            for reason, count in snapshot["shed"].items():
                expected[f'service_shed_total{{reason="{reason}"}}'] = count
            problems = _surface_problems(f"stream, step {step}", _scraped(registry), expected)
            if problems:
                return problems
        wal.close()
    seen = {
        "refused ingests": refused,
        "matured labels": scorer.labels_matured,
        "compactions": builder.compactions,
        "shed requests": service.stats.total_shed,
    }
    return [f"the stream experiment lost its {what}" for what, count in seen.items() if not count]


def _replica_surfaces(rng) -> List[str]:
    """A 3-replica tier read — key by key and in ``get_many`` batches —
    through a kill window while copies are poisoned on disk and
    anti-entropy passes repair them."""
    from ..obs.registry import MetricsRegistry
    from ..reliability.faults import FaultPlan, ManualClock
    from ..storage.kvstore import InMemoryKVStore
    from ..storage.replicated import AllReplicasFailedError, ReplicatedConfig, ReplicatedKVStore

    registry, clock = MetricsRegistry(), ManualClock()
    plan = FaultPlan(
        num_workers=3,
        replica_kill={1: [(0.3, 0.9)]},
        replica_slow={replica: 0.001 * (1 + replica) for replica in range(3)},
    )
    backings = [InMemoryKVStore() for _ in range(3)]
    store = ReplicatedKVStore(
        plan.wrap_replicas(backings, clock),
        config=ReplicatedConfig(replication_factor=2, dead_after=2, probe_interval_s=0.05),
        clock=clock,
        registry=registry,
    )
    for index in range(12):
        store.put(f"feat/{index}", bytes(rng.integers(0, 256, size=8, dtype=np.uint8)))
    repaired = calls = keys_asked = 0
    for step in range(300):
        clock.advance(float(rng.uniform(0.0, 0.01)))
        key = f"feat/{int(rng.integers(0, 12))}"
        action = int(rng.integers(0, 25))
        if action == 0:
            repaired += store.anti_entropy(repair=True).repaired
        elif action == 1:
            backings[store.owners(key)[int(rng.integers(0, 2))]].put(key, b"poisoned")
        else:
            # One observation per call, one count per key asked for.
            batch = [f"feat/{int(k)}" for k in rng.integers(0, 12, size=int(rng.integers(0, 7)))]
            calls += 1
            keys_asked += len(batch) if action < 10 else 1
            try:
                store.get_many(batch) if action < 10 else store.get(key)
            except AllReplicasFailedError:
                pass  # both owners down at once: counted, not a surface
        if rng.integers(0, 5):
            continue
        expected = {
            "kv_failovers_total": store.failovers,
            "kv_anti_entropy_repairs_total": repaired,
        }
        if calls:  # a pushed family has no sample before its first observation
            expected['kv_reads_total{store="replicated"}'] = keys_asked
            expected['kv_read_seconds_count{store="replicated"}'] = calls
        corrupt = 0.0
        scraped = _scraped(registry)
        for health in store.health:
            replica = f'replica="{health.index}"'
            expected[f'kv_replica_reads_total{{{replica},outcome="ok"}}'] = health.reads_ok
            expected[f"kv_replica_consecutive_errors{{{replica}}}"] = health.consecutive_errors
            expected[f"kv_replica_ewma_latency_seconds{{{replica}}}"] = health.ewma_latency_s or 0.0
            for state in ("healthy", "suspect", "dead", "probing"):
                expected[f'kv_replica_state{{{replica},state="{state}"}}'] = state == health.state
            corrupt += scraped.get(f"kv_corrupt_reads_total{{{replica}}}", 0.0)
            # No write failed (every put precedes the first fault), so a
            # replica's errors are its failed reads of either kind.
            failed = sum(
                scraped.get(f'kv_replica_reads_total{{{replica},outcome="{outcome}"}}', 0.0)
                for outcome in ("error", "corrupt")
            )
            if failed != health.reads_error:
                return [
                    f"replicas, step {step}: replica {health.index} failed reads scraped as "
                    f"{failed}, its ReplicaHealth reports {health.reads_error}"
                ]
        if corrupt != store.corrupt_reads:
            return [f"replicas, step {step}: corrupt reads {corrupt} != {store.corrupt_reads}"]
        problems = _surface_problems(f"replicas, step {step}", scraped, expected)
        if problems:
            return problems
    seen = {
        "failovers": store.failovers,
        "corrupt reads": store.corrupt_reads,
        "repairs": repaired,
        "dead replica": sum("dead" in health.state_path() for health in store.health),
    }
    return [f"the replica experiment lost its {what}" for what, count in seen.items() if not count]


@invariant(
    "status-surfaces-agree",
    layer="obs/serving/stream/storage",
    falsifies="a scrape of the registry disagreeing, at any point between "
    "operations, with what stats() / snapshot() / health() / ReplicaHealth "
    "report at that instant (a tally copied instead of read), or two "
    "components on one registry not adding",
    mutants=[  # an exporter handing the registry a copy of its tallies
        edit(
            "cache-tallies-captured-at-instrument-time",
            "repro.graph.cache:SubgraphCache.instrument",
            "registry.collect(self._collect)",
            "registry.collect(lambda captured=list(self._collect()): captured)",
            "caches, step",
        ),
        edit(  # `repro stream --demo --metrics` once printed 157 under a health block saying 171
            "graph-version-exported-as-of-the-last-compaction",
            "repro.stream.builder:IncrementalGraphBuilder._collect",
            "{}, graph.version", "{}, self.last_compaction_version",
            "stream_graph_version scraped as",
        ),
    ],
)
def _check_status_surfaces() -> List[str]:
    problems: List[str] = []
    for seed in (0, 1, 2):
        for experiment in (_cache_surfaces, _stats_surfaces, _stream_surfaces, _replica_surfaces):
            problems += [
                f"seed {seed}: {p}" for p in experiment(np.random.default_rng([seed, 41]))
            ]
    return problems
