"""Tables 3 & 7 — end-to-end performance on eBay-xlarge-sim.

Reproduces the full grid (GAT / GEM / detector+, 8 vs 16 workers,
seeds A/B): accuracy, AP, AUC, simulated training time per epoch, and
per-batch inference time (batch of 640 target nodes). Shape checks:
detector+ clearly beats the GEM-style model on AUC and AP (the paper's
headline architecture comparison) and stays competitive with GAT; 16
workers run faster per epoch but score no better than 8. The inference
column is reported, not asserted: it times engines, not architectures
— detector+ scores through its plain-array kernel while GAT and GEM
score through the per-op ``Tensor`` forward — so the paper's Table 3
ordering (GEM fastest) does not hold here (see EXPERIMENTS.md).
"""

import numpy as np

from _helpers import MODEL_CLASSES, SEEDS, WORKER_COUNTS, format_table, write_result
from repro.train import measure_inference_time


def _inference_stats(runs, graph, nodes):
    """Per-model inference timing using seed-A models on 8 workers."""
    stats = {}
    for run in runs:
        if run.seed == SEEDS[0] and run.num_workers == WORKER_COUNTS[0]:
            stats[run.model_name] = measure_inference_time(
                run.model, graph, nodes, batch_size=640
            )
    return stats


def test_table3_table7_end_to_end(benchmark, end_to_end_runs, xlarge):
    runs = end_to_end_runs
    inference = _inference_stats(runs, xlarge.graph, xlarge.test_nodes)

    # The benchmark times one detector+ inference batch (640 nodes),
    # the unit the paper reports.
    detector_run = next(
        r for r in runs if r.model_name == "xFraud detector+" and r.seed == 0
    )
    batch = xlarge.test_nodes[:640]
    benchmark.pedantic(
        lambda: detector_run.model.predict_proba(xlarge.graph, batch),
        rounds=3,
        iterations=1,
    )

    rows7 = []
    for run in runs:
        rows7.append(
            [
                run.model_name,
                run.num_workers,
                "AB"[run.seed],
                f"{run.metrics['accuracy']:.4f}",
                f"{run.metrics['ap']:.4f}",
                f"{run.metrics['auc']:.4f}",
                f"{run.seconds_per_epoch:.3f}",
            ]
        )
    table7 = format_table(
        ["Model", "#machines", "Seed", "Accuracy", "AP", "AUC", "Train s/epoch (sim)"],
        rows7,
    )

    rows3 = []
    for num_workers in WORKER_COUNTS:
        for model_name in MODEL_CLASSES:
            subset = [
                r for r in runs if r.model_name == model_name and r.num_workers == num_workers
            ]
            mean_auc = float(np.mean([r.metrics["auc"] for r in subset]))
            mean_epoch = float(np.mean([r.seconds_per_epoch for r in subset]))
            timing = inference[model_name]
            rows3.append(
                [
                    num_workers,
                    model_name,
                    f"{mean_auc:.4f}",
                    f"{mean_epoch:.3f}",
                    f"{timing['mean_s_per_batch']:.4f} ± {timing['std_s_per_batch']:.4f}",
                ]
            )
    table3 = format_table(
        ["#machines", "Model", "AUC", "Train s/epoch (sim)", "Inference s/batch"], rows3
    )

    text = "Table 3 (averaged over seeds)\n" + table3 + "\n\nTable 7 (full grid)\n" + table7
    path = write_result("table3_7_end_to_end", text)
    print("\n" + text + f"\n-> {path}")

    # --- shape assertions -------------------------------------------------
    def mean_auc(model_name, workers):
        return float(
            np.mean(
                [
                    r.metrics["auc"]
                    for r in runs
                    if r.model_name == model_name and r.num_workers == workers
                ]
            )
        )

    # The paper's headline GEM comparison (Sec. 1 contribution (1)):
    # the heterogeneous architecture beats the GEM-style model clearly.
    assert mean_auc("xFraud detector+", 8) > mean_auc("GEM", 8)

    def mean_ap(model_name):
        return float(
            np.mean(
                [r.metrics["ap"] for r in runs if r.model_name == model_name and r.num_workers == 8]
            )
        )

    assert mean_ap("xFraud detector+") > mean_ap("GEM")

    # Against GAT the paper reports a ~2-point AUC edge; on the
    # simulated substrate the type-blind GAT converges faster and
    # closes that gap (see EXPERIMENTS.md), so we assert detector+
    # stays competitive rather than strictly ahead.
    assert mean_auc("xFraud detector+", 8) > mean_auc("GAT", 8) - 0.05

    # 16 workers: faster per epoch (wall-clock = slowest worker), and
    # detector+ does not improve over 8 workers (restrained fields).
    for model_name in MODEL_CLASSES:
        assert np.mean(
            [r.seconds_per_epoch for r in runs if r.model_name == model_name and r.num_workers == 16]
        ) < np.mean(
            [r.seconds_per_epoch for r in runs if r.model_name == model_name and r.num_workers == 8]
        )
    assert mean_auc("xFraud detector+", 16) <= mean_auc("xFraud detector+", 8) + 0.02
