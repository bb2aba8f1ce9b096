"""Figure 10 — detector (HGT / HGSampling) vs detector+ (GraphSAGE).

The paper's ablation: on the sparse transaction graphs, the
GraphSAGE-style sampler of detector+ delivers 5–7x faster inference
than HGSampling at equal-or-better AUC. Both variants share one set of
trained weights (they are the same network); only the sampler differs.

The first pass of each model over the test set is its warm-up: it is
timed for the cold-start column and then discarded, since whichever
model runs first pays the process's one-off warm-up. The speedup is the
median of per-pair ratios of warm passes alternated between the two
models (``_helpers.paired_ratio``), printed with the range of those
ratios.
"""

import os
import subprocess
import time

import numpy as np

from _helpers import alternated_readings, format_table, model_config, paired_ratio, write_result
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
    scores_plus, cold_plus = _sampled_inference(plus, bundle.graph, test)
    scores_hgt, cold_hgt = _sampled_inference(hgt, bundle.graph, test)
    hgt_us, plus_us = alternated_readings(
        [lambda: _sampled_inference(hgt, bundle.graph, test),
         lambda: _sampled_inference(plus, bundle.graph, test)]
    )
    ratios = np.divide(hgt_us, plus_us)
    return {
        "dataset": bundle.name,
        "auc_plus": roc_auc(labels, scores_plus),
        "auc_hgt": roc_auc(labels, scores_hgt),
        "time_plus": float(np.median(plus_us)) / 1e6,
        "time_hgt": float(np.median(hgt_us)) / 1e6,
        "speedup": paired_ratio(hgt_us, plus_us),
        "spread": (float(ratios.min()), float(ratios.max())),
        "cold_speedup": cold_hgt / cold_plus,
    }


def _commit() -> str:
    """The checkout's commit, ``-dirty`` when it has uncommitted changes."""
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=os.path.dirname(os.path.abspath(__file__)), capture_output=True, text=True,
    )
    return done.stdout.strip() or "unknown"


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
            f"{r['time_hgt'] * 1e3:.1f} ms",
            f"{r['time_plus'] * 1e3:.1f} ms",
            f"{r['speedup']:.2f}x",
            "{:.2f}-{:.2f}x".format(*r["spread"]),
            f"{r['cold_speedup']:.2f}x",
            f"{r['auc_hgt']:.4f}",
            f"{r['auc_plus']:.4f}",
        ]
        for r in results
    ]
    table = format_table(
        [
            "Dataset",
            "detector (HGT) warm inf.",
            "detector+ warm inf.",
            "speedup",
            "pair range",
            "cold speedup",
            "AUC detector",
            "AUC detector+",
        ],
        rows,
    )
    text = (
        "Figure 10 — sampler ablation (test-set inference, median warm pass)\n"
        "speedup: median ratio of 9 alternated pairs, each side the best of 5 passes;\n"
        "pair range: their min-max; cold: each model's first pass, detector+ first\n"
        f"measured at commit {_commit()}\n" + table
    )
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
