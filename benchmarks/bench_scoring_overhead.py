"""An all-hit micro-batch costs its inference, not the control plane
around it.

``ScoringService.score_batch`` answers a micro-batch in one pass of
arrays: one vectorised coerce of the node ids, one admission decision at
one clock read, one deadline group (a start instant and a budget array),
one ``ServiceStats.record_batch``; per request only the
``ScoreResponse`` is built in Python (and, with a recording tracer, the
``admission`` and ``request`` spans). ``test_score_batch_ratio_floor``
holds that: ``score_batch`` of 32 requests whose samples all sit in the
subgraph cache costs at most ``SCORE_BATCH_BUDGET``x the same batch's
cache lookup, chunked feature fetch and ``predict_proba`` driven
directly — the served scores asserted equal to the direct ones, bit for
bit. The ratio is the median of the per-pair ratios of two timings
alternated in one process (``_helpers.paired_ratio``), so machine speed
cancels and a slow spell moves one pair only. On a 2-core Xeon VM it
reads 1.07-1.13x over 16 runs, and 1.16-1.26x on the previous commit,
which built a deadline, two spans and two tallies per request;
``results/scoring_ratio_floor.txt`` holds both, and the budget sits
between them.

    PYTHONPATH=src python -m pytest benchmarks/bench_scoring_overhead.py -q -s
"""

import numpy as np

from _helpers import alternated_readings, model_config, paired_ratio
from repro.data import load_dataset
from repro.graph import SubgraphCache
from repro.models import XFraudDetectorPlus
from repro.serving import ScoringService
from repro.serving import service as service_module
from repro.storage import GraphStore, InMemoryKVStore
from repro.storage.loader import load_rows

SCORE_BATCH_BUDGET = 1.18  # all-hit score_batch(32) vs its sample, fetch and forward (1.07-1.13x)
MICRO_BATCH = 32
HOT_SET = 200


def test_score_batch_ratio_floor():
    """The service's own work around a micro-batch stays well under one inference."""
    graph = load_dataset("ebay-small-sim", seed=0, scale=0.25).graph
    model = XFraudDetectorPlus(model_config(graph.feature_dim, seed=0))
    store = InMemoryKVStore()
    GraphStore(store).save(graph)
    cache = SubgraphCache(capacity=256)
    service = ScoringService(model, graph, feature_store=store, cache=cache)
    rng = np.random.default_rng(0)
    hot = rng.choice(graph.txn_nodes, size=HOT_SET, replace=False)
    service.warm_cache(hot)
    nodes = [int(node) for node in rng.choice(hot, size=MICRO_BATCH)]
    table, chunk = graph.txn_table, service_module.FETCH_CHUNK

    def served():
        return [response.score for response in service.score_batch(nodes)]

    def direct():
        sampled = cache.get_or_sample(graph, model.sampler, nodes)
        ids = sampled.original_ids[sampled.graph.txn_row >= 0]
        ids, inverse = np.unique(ids, return_inverse=True)
        rows = np.empty((len(ids), table.shape[1]), dtype=table.dtype)
        for start in range(0, len(ids), chunk):
            load_rows(store.get_many, ids[start : start + chunk].tolist(), rows[start : start + chunk])
        forward_graph = sampled.graph.with_features(rows[inverse])
        return model.predict_proba(forward_graph, sampled.target_local).tolist()

    assert served() == direct()  # the same lookup, rows and forward: the same bits
    served_us, direct_us = alternated_readings([served, direct], number=20)
    ratio = paired_ratio(served_us, direct_us)
    print(
        f"\nall-hit batch of {MICRO_BATCH}: score_batch {np.median(served_us):.0f} us vs its "
        f"sample, fetch and forward driven directly {np.median(direct_us):.0f} us -> {ratio:.3f}x "
        f"per pair (budget <= {SCORE_BATCH_BUDGET:.2f}x)"
    )
    assert ratio <= SCORE_BATCH_BUDGET
