"""Sampler walks — scalar spec vs vectorized vs cached throughput.

PR "vectorized batch fast path": the CSR array sampler must (a) return
seed-for-seed *identical* subgraphs to the scalar walk it replaced, and
(b) be materially faster at serving batch sizes. For each sampler and
batch size 1 / 16 / 128 this bench times three variants over the same
target stream:

* **reference** — the scalar per-node walk
  (:func:`repro.check.reference.scalar_sample`), the executable
  specification;
* **vectorized** — the sampler's own ``sample`` (CSR array gathers);
* **cached** — the sampler fronted by a warmed
  :class:`~repro.graph.cache.SubgraphCache` (pure hits; the full
  serving configuration).

Spec and sampler share the stateless hash RNG, so every timed batch is
also compared node for node and edge for edge — the bench doubles as an
end-to-end correctness sweep.

``test_vectorized_ratio_floor`` is the machine-independent gate CI's
perf-smoke runs (no ``benchmark`` fixture, so plain pytest collects
it): vectorized >= 2x reference at batch 128 for both samplers, a ratio
of two timings alternated in one process. Beside it,
``test_disjoint_walk_ratio_floor`` holds what a serving micro-batch
samples — one ``sample(..., disjoint=True)`` walk over 32 transaction
targets — to >= 3x the 32 singleton samples plus ``stack_subgraphs`` it
replaced, and to the same cost on a 45k-node graph as on a 7k-node one
(nothing in the walk is sized by the graph), and
``test_batch_lookup_ratio_floor`` holds the same micro-batch through an
all-miss ``SubgraphCache.get_or_sample`` to <= 1.15x the bare walk (the
walk is the batch's sample, its entries stored as pieces of it;
1.4-1.5x when the cache cut it into 32 entries, 1.8-2.2x with the
service stacking them again), and ``test_hit_gather_ratio_floor`` holds
an all-hit 32-target lookup, gathered out of one 200-component warm
walk, to <= 1.2x ``stack_subgraphs`` of the same 32 parts pre-cut (what
``serve_hot`` does per call; a gather that read the whole walk would
scale with it). The full
``test_fastpath_speedup_and_equivalence`` regenerates
``results/fastpath.txt`` and also holds the end-to-end (vectorized +
cache) path to >= 5x at batch 128.
"""

import functools

import numpy as np

from _helpers import best_us, format_table, stream_shaped_graph, write_result
from repro.check import subgraph_equal
from repro.check.reference import scalar_sample
from repro.data import GeneratorConfig, TransactionGenerator
from repro.graph import BuildConfig, GraphBuilder
from repro.graph.cache import SubgraphCache
from repro.graph.sampling import HGSampler, SageSampler, stack_subgraphs
from repro.util import batched

MIN_VECTORIZED_SPEEDUP = 2.0
MIN_FASTPATH_SPEEDUP = 5.0
MIN_DISJOINT_SPEEDUP = 3.0
DISJOINT_SIZE_BUDGET = 1.5  # the walk on ~45k nodes vs on ~7k nodes
BATCH_LOOKUP_BUDGET = 1.15  # an all-miss cache lookup vs its bare walk
HIT_GATHER_BUDGET = 1.2  # an all-hit lookup gathered from a warm walk vs stacking its parts
WARM_WALK = 200
AT_BATCH = 128
MICRO_BATCH = 32
BATCH_SIZES = (1, 16, AT_BATCH)
RATIO_SAMPLES = 9
SAMPLERS = {
    "sage": SageSampler(hops=2, fanout=10, seed=0),
    "hg": HGSampler(depth=3, width=8, seed=0),
}


def _bench_graph():
    """A synthetic eBay-like transaction graph and AT_BATCH of its
    transaction nodes (cycled if it has fewer)."""
    log = TransactionGenerator(
        GeneratorConfig(num_benign_buyers=400, feature_dim=24, seed=0)
    ).generate()
    graph, _ = GraphBuilder(BuildConfig()).build(log)
    graph.csr()  # build the adjacency outside the timed region
    return graph, graph.txn_nodes[np.arange(AT_BATCH) % len(graph.txn_nodes)]


def _pass_us(sample_batch, batches) -> float:
    """Best-of-five microseconds for one pass over ``batches``."""
    return best_us(lambda: [sample_batch(batch) for batch in batches], number=1)


def test_vectorized_ratio_floor():
    """Machine-independent: the vectorized walk against the scalar walk
    it replaced, same targets, same process (CI perf-smoke)."""
    graph, stream = _bench_graph()
    for kind, sampler in SAMPLERS.items():
        paths = [functools.partial(scalar_sample, sampler), sampler.sample]
        assert subgraph_equal(*(path(graph, stream) for path in paths)) is None, kind
        samples = [[], []]
        for _ in range(RATIO_SAMPLES):  # alternate, so a slow spell of the box hits both
            for path, times in zip(paths, samples):
                times.append(_pass_us(lambda batch: path(graph, batch), [stream]))
        reference_us, fast_us = (float(np.median(times)) for times in samples)
        print(
            f"\n{kind} @ batch {AT_BATCH}: reference {reference_us / 1e3:.2f} ms, "
            f"vectorized {fast_us / 1e3:.2f} ms -> {reference_us / fast_us:.2f}x "
            f"(floor >= {MIN_VECTORIZED_SPEEDUP:.1f}x)"
        )
        assert reference_us >= MIN_VECTORIZED_SPEEDUP * fast_us, kind


def _disjoint_timings():
    """``(nodes, loop us, walk us)`` on a ~7k- and a ~45k-node graph of
    the ledger stream's shape: one micro-batch of transaction targets
    sampled as 32 singleton samples + ``stack_subgraphs`` and as one
    disjoint walk (checked equal first), alternated."""
    rng = np.random.default_rng(0)
    sampler = SageSampler(hops=2, fanout=10, seed=0)
    rows = []
    for num_txns in (3_500, 22_500):
        graph = stream_shaped_graph(rng, num_txns)
        targets = rng.choice(num_txns, size=MICRO_BATCH, replace=False)
        paths = [
            lambda: stack_subgraphs([sampler.sample(graph, [int(t)]) for t in targets]),
            lambda: sampler.sample(graph, targets, disjoint=True),
        ]
        assert subgraph_equal(*(path() for path in paths)) is None
        samples = [[], []]
        for _ in range(RATIO_SAMPLES):  # alternate, so a slow spell of the box hits both
            for path, times in zip(paths, samples):
                times.append(best_us(path, number=1))
        rows.append((graph.num_nodes, *(float(np.median(times)) for times in samples)))
    return rows


def test_disjoint_walk_ratio_floor():
    """Machine-independent: a micro-batch's one walk against the loop of
    singleton samples it replaced, and against itself on a graph six
    times the size (CI perf-smoke)."""
    rows = _disjoint_timings()
    for nodes, loop_us, walk_us in rows:
        print(
            f"\n{MICRO_BATCH} targets on {nodes:,} nodes: {MICRO_BATCH} samples + stack "
            f"{loop_us / 1e3:.2f} ms, one disjoint walk {walk_us / 1e3:.2f} ms -> "
            f"{loop_us / walk_us:.2f}x (floor >= {MIN_DISJOINT_SPEEDUP:.1f}x)"
        )
        assert loop_us >= MIN_DISJOINT_SPEEDUP * walk_us, nodes
    growth = rows[1][2] / rows[0][2]
    print(
        f"walk on {rows[1][0]:,} vs {rows[0][0]:,} nodes: {growth:.2f}x "
        f"(budget <= {DISJOINT_SIZE_BUDGET:.1f}x)"
    )
    assert growth <= DISJOINT_SIZE_BUDGET


def _batch_lookup_timings():
    """``(nodes, walk us, lookup us)`` on a ~7k- and a ~45k-node graph of
    the ledger stream's shape: one micro-batch of 32 new transaction
    targets as the bare disjoint walk and through
    ``cache.get_or_sample``, every target a miss
    (the cache emptied before each call, as a stream flush does; checked
    equal first), alternated."""
    rng = np.random.default_rng(0)
    sampler = SageSampler(hops=2, fanout=10, seed=0)
    rows = []
    for num_txns in (3_500, 22_500):
        graph = stream_shaped_graph(rng, num_txns)
        targets = rng.choice(num_txns, size=MICRO_BATCH, replace=False).tolist()
        cache = SubgraphCache(capacity=256)

        def walk():
            return sampler.sample(graph, targets, disjoint=True)

        def lookup():
            return cache.get_or_sample(graph, sampler, targets)

        assert subgraph_equal(lookup(), walk()) is None
        samples = [[], []]
        for _ in range(RATIO_SAMPLES):  # alternate, so a slow spell of the box hits both
            samples[0].append(best_us(walk, number=1))
            samples[1].append(best_us(lookup, number=1, setup=cache.invalidate))
        rows.append((graph.num_nodes, *(float(np.median(times)) for times in samples)))
    return rows


def test_batch_lookup_ratio_floor():
    """Machine-independent: an all-miss micro-batch through the cache
    costs little more than its walk — the walk is returned as the
    batch's sample and stored whole (CI perf-smoke)."""
    for nodes, walk_us, lookup_us in _batch_lookup_timings():
        print(
            f"\n{MICRO_BATCH} missed targets on {nodes:,} nodes: walk {walk_us / 1e3:.2f} ms, "
            f"cache lookup {lookup_us / 1e3:.2f} ms -> {lookup_us / walk_us:.2f}x "
            f"(budget <= {BATCH_LOOKUP_BUDGET:.2f}x)"
        )
        assert lookup_us <= BATCH_LOOKUP_BUDGET * walk_us, nodes


def _hit_gather_timings():
    """``(stack us, lookup us)`` on the ~7k-node graph: a cache warmed
    with one ``WARM_WALK``-target walk, then ``MICRO_BATCH`` of those
    targets looked up (every lookup a hit, gathered out of the walk) and
    their singleton samples — the same parts, pre-cut — stacked (checked
    equal first), alternated."""
    rng = np.random.default_rng(0)
    sampler = SageSampler(hops=2, fanout=10, seed=0)
    graph = stream_shaped_graph(rng, 3_500)
    warm = rng.choice(3_500, size=WARM_WALK, replace=False).tolist()
    cache = SubgraphCache(capacity=256)
    cache.get_or_sample(graph, sampler, warm)
    targets = rng.choice(warm, size=MICRO_BATCH, replace=False).tolist()
    parts = [sampler.sample(graph, [target]) for target in targets]
    paths = [lambda: stack_subgraphs(parts), lambda: cache.get_or_sample(graph, sampler, targets)]
    assert subgraph_equal(*(path() for path in paths)) is None
    assert cache.stats()["misses"] == WARM_WALK  # every timed lookup hits
    samples = [[], []]
    for _ in range(RATIO_SAMPLES):  # alternate, so a slow spell of the box hits both
        for path, times in zip(paths, samples):
            times.append(best_us(path, number=20))
    return tuple(float(np.median(times)) for times in samples)


def test_hit_gather_ratio_floor():
    """Machine-independent: an all-hit micro-batch costs what stacking
    its parts costs — each hit is gathered out of its walk by the bounds
    the walk recorded, with no cut and no search (CI perf-smoke)."""
    stack_us, lookup_us = _hit_gather_timings()
    print(
        f"\n{MICRO_BATCH} hits on one {WARM_WALK}-component walk: stack of the cut parts "
        f"{stack_us:.0f} us, cache lookup {lookup_us:.0f} us -> {lookup_us / stack_us:.2f}x "
        f"(budget <= {HIT_GATHER_BUDGET:.2f}x)"
    )
    assert lookup_us <= HIT_GATHER_BUDGET * stack_us


def test_fastpath_speedup_and_equivalence(benchmark):
    graph, stream = _bench_graph()
    results = []  # (sampler, batch, reference us, vectorized us, cached us, equal)
    for kind, fast in SAMPLERS.items():
        for batch_size in BATCH_SIZES:
            batches = batched(stream, batch_size)
            equal = all(
                subgraph_equal(fast.sample(graph, batch), scalar_sample(fast, graph, batch)) is None
                for batch in batches
            )
            reference_us = _pass_us(lambda batch: scalar_sample(fast, graph, batch), batches)
            fast_us = _pass_us(lambda batch: fast.sample(graph, batch), batches)
            cache = SubgraphCache(capacity=4096)
            for batch in batches:  # warm: every timed lookup (one per target) is a hit
                cache.get_or_sample(graph, fast, batch)
            cached_us = _pass_us(lambda batch: cache.get_or_sample(graph, fast, batch), batches)
            results.append((kind, batch_size, reference_us, fast_us, cached_us, equal))

    # Timed artefact for the pytest-benchmark table: one vectorized
    # batch-128 pass per sampler (the serving-path configuration).
    benchmark.pedantic(
        lambda: [sampler.sample(graph, stream) for sampler in SAMPLERS.values()],
        rounds=5,
        iterations=1,
    )

    rows = [
        [
            kind,
            batch_size,
            f"{reference_us / 1e3:.2f}ms",
            f"{fast_us / 1e3:.2f}ms",
            f"{cached_us / 1e3:.2f}ms",
            f"{reference_us / fast_us:.1f}x",
            f"{reference_us / cached_us:.1f}x",
            "yes" if equal else "NO",
        ]
        for kind, batch_size, reference_us, fast_us, cached_us, equal in results
    ]
    summary_rows = [
        [
            kind,
            batch_size,
            f"{len(stream) / (fast_us / 1e6):,.0f}",
            f"{reference_us / fast_us:.1f}x",
            f"{reference_us / cached_us:.1f}x",
        ]
        for kind, batch_size, reference_us, fast_us, cached_us, _ in results
        if batch_size == AT_BATCH
    ]
    headers = [
        "sampler",
        "batch",
        "reference",
        "vectorized",
        "cached",
        "speedup",
        "cached speedup",
        "equal",
    ]
    disjoint_rows = [
        [
            "sage",
            f"{nodes:,}",
            f"{loop_us / 1e3:.2f}ms",
            f"{walk_us / 1e3:.2f}ms",
            f"{loop_us / walk_us:.1f}x",
        ]
        for nodes, loop_us, walk_us in _disjoint_timings()
    ]
    text = (
        format_table(headers, rows)
        + "\n\n"
        + format_table(
            ["sampler", "batch", "targets/s (vectorized)", "speedup", "fastpath (cached)"],
            summary_rows,
        )
        + "\n\n"
        + format_table(
            [
                "sampler",
                "graph nodes",
                f"{MICRO_BATCH} samples + stack",
                "one disjoint walk",
                "speedup",
            ],
            disjoint_rows,
        )
    )
    write_result("fastpath", text)

    # Shape assertions — equivalence everywhere, the conservative
    # vectorized floor and the 5x end-to-end fast-path criterion at
    # batch 128.
    for kind, batch_size, reference_us, fast_us, cached_us, equal in results:
        assert equal, f"{kind}@batch={batch_size}: paths returned different subgraphs"
        if batch_size == AT_BATCH:
            assert reference_us >= MIN_VECTORIZED_SPEEDUP * fast_us, (kind, batch_size)
            assert reference_us >= MIN_FASTPATH_SPEEDUP * cached_us, (kind, batch_size)
