"""Figure 10 — detector (HGT / HGSampling) vs detector+ (GraphSAGE).

The paper's ablation: on the sparse transaction graphs, the
GraphSAGE-style sampler of detector+ delivers 5–7x faster inference
than HGSampling at equal-or-better AUC. Both variants share one set of
trained weights (they are the same network); only the sampler differs.
"""

import time

import numpy as np

from _helpers import format_table, model_config, write_result
from repro import TrainConfig, Trainer, XFraudDetectorHGT, XFraudDetectorPlus
from repro.train import roc_auc
from repro.util import batched


def _sampled_inference(model, graph, nodes, batch_size=32):
    start = time.perf_counter()
    scores = []
    for batch in batched(np.asarray(nodes), batch_size):
        scores.append(model.predict_proba_sampled(graph, batch))
    return np.concatenate(scores), time.perf_counter() - start


def _run_dataset(bundle, seed=0):
    config = model_config(bundle.graph.feature_dim, seed)
    plus = XFraudDetectorPlus(config, hops=2, fanout=10)
    Trainer(plus, TrainConfig(epochs=16, batch_size=4096, learning_rate=1e-2)).fit(
        bundle.graph, bundle.train_nodes
    )
    hgt = XFraudDetectorHGT(config)
    hgt.load_state_dict(plus.state_dict())

    test = bundle.test_nodes
    labels = bundle.graph.labels[test]
    scores_plus, seconds_plus = _sampled_inference(plus, bundle.graph, test)
    scores_hgt, seconds_hgt = _sampled_inference(hgt, bundle.graph, test)
    return {
        "dataset": bundle.name,
        "auc_plus": roc_auc(labels, scores_plus),
        "auc_hgt": roc_auc(labels, scores_hgt),
        "time_plus": seconds_plus,
        "time_hgt": seconds_hgt,
        "speedup": seconds_hgt / seconds_plus,
    }


def test_fig10_sampler_ablation(benchmark, small, large):
    results = [_run_dataset(small), _run_dataset(large)]

    plus = XFraudDetectorPlus(model_config(small.graph.feature_dim, 0))
    batch = small.test_nodes[:64]
    benchmark.pedantic(
        lambda: plus.predict_proba_sampled(small.graph, batch), rounds=3, iterations=1
    )

    rows = [
        [
            r["dataset"],
            f"{r['time_hgt']:.2f}s",
            f"{r['time_plus']:.2f}s",
            f"{r['speedup']:.1f}x",
            f"{r['auc_hgt']:.4f}",
            f"{r['auc_plus']:.4f}",
        ]
        for r in results
    ]
    table = format_table(
        [
            "Dataset",
            "detector (HGT) total inf.",
            "detector+ total inf.",
            "speedup",
            "AUC detector",
            "AUC detector+",
        ],
        rows,
    )
    text = "Figure 10 — sampler ablation (test-set inference)\n" + table
    path = write_result("fig10_sampler_ablation", text)
    print("\n" + text + f"\n-> {path}")

    # detector+ must be clearly faster. The paper reports 5-7x at eBay
    # scale; on the simulated graphs the gap is bounded by the small
    # connected components HGSampling saturates, so the larger dataset
    # carries the firm assertion and the smaller one the direction.
    by_name = {r["dataset"]: r for r in results}
    assert by_name["ebay-large-sim"]["speedup"] > 1.3
    assert by_name["ebay-small-sim"]["speedup"] > 1.0
    for r in results:
        # ...without sacrificing AUC (paper: slightly better, even).
        assert r["auc_plus"] > r["auc_hgt"] - 0.03
