"""The degraded rung's quality: what a ``linked`` verdict is worth.

When the GNN path cannot answer (a feature tier that is down, a spent
deadline), ``ScoringService`` scores a transaction from the labels its
graph already holds: the largest fraud share among the labelled
transactions that share an entity with it
(:func:`repro.serving.service.linked_label_scores`). This bench holds
that rung to a held-out AUC, on the random train/test split of every
seed 0-5 of ``ebay-small-sim`` (scale 0.5) and ``ebay-large-sim``
(scale 0.25), with the test transactions' labels hidden from the rung
(``-1`` on the graph it reads, as a deployment holds no label for what
it scores). A transaction with no labelled linked transaction gets the
prior, the training fraud rate, as the service answers it.

Per seed it reports the rung's AUC, its evidence share (targets with at
least one labelled link), and its flag rate, precision and recall at
``FRAUD_THRESHOLD``; on ``ebay-small-sim`` the GNN's four numbers stand
beside them (detector+ trained by the benches' ``small_detector``
recipe, per seed). It asserts an AUC >= 0.6 in >= 5 of 6 seeds per
dataset. It asserts no ordering against the GNN: the random split
mostly measures buyers already seen in training, so the rung's lead
there says little about unseen buyers (~20 s):

    PYTHONPATH=src python -m pytest benchmarks/bench_degraded_rung.py -q -s
"""

import numpy as np

from _helpers import LARGE_SCALE, SMALL_SCALE, format_table, model_config, write_result
from repro import TrainConfig, Trainer, XFraudDetectorPlus
from repro.data import ebay_large_sim, ebay_small_sim
from repro.graph import HeteroGraph
from repro.serving.service import FRAUD_THRESHOLD, linked_label_scores
from repro.train.metrics import confusion_rates, roc_auc

SEEDS = range(6)
MIN_AUC = 0.6
MIN_SEEDS_OVER = 5
DATASETS = {
    "ebay-small-sim": (ebay_small_sim, SMALL_SCALE),
    "ebay-large-sim": (ebay_large_sim, LARGE_SCALE),
}


def _held_out_graph(bundle) -> HeteroGraph:
    """The bundle's graph with every test transaction's label hidden."""
    graph = bundle.graph
    labels = graph.labels.copy()
    labels[bundle.test_nodes] = -1
    arrays = (graph.node_type, graph.edge_src, graph.edge_dst, graph.edge_type, graph.txn_table)
    return HeteroGraph.derived(*arrays, labels)


def _quality(labels, scores):
    """``[auc, flag rate, precision, recall]`` at ``FRAUD_THRESHOLD``."""
    rates = confusion_rates(labels, scores, FRAUD_THRESHOLD)
    return [
        roc_auc(labels, scores),
        float(np.mean(np.asarray(scores) >= FRAUD_THRESHOLD)),
        rates.precision,
        rates.recall,
    ]


def _rung(bundle):
    """``(evidence share, quality)`` of the linked rung on the test split."""
    held_out = _held_out_graph(bundle)
    linked = linked_label_scores(held_out, bundle.test_nodes)
    evidence = ~np.isnan(linked)
    scores = np.where(evidence, linked, held_out.fraud_rate())
    return float(evidence.mean()), _quality(bundle.graph.labels[bundle.test_nodes], scores)


def _gnn(bundle, seed):
    model = XFraudDetectorPlus(model_config(bundle.graph.feature_dim, seed))
    Trainer(
        model,
        TrainConfig(epochs=20, batch_size=4096, learning_rate=1e-2, patience=10, seed=seed),
    ).fit(bundle.graph, bundle.train_nodes, eval_nodes=bundle.test_nodes)
    scores = model.predict_proba(bundle.graph, bundle.test_nodes)
    return _quality(bundle.graph.labels[bundle.test_nodes], scores)


def _cells(values):
    return ["-" if value is None else f"{value:.3f}" for value in values]


def test_linked_rung_reads_signal_on_held_out_transactions():
    rows, aucs = [], {name: [] for name in DATASETS}
    for name, (load, scale) in DATASETS.items():
        for seed in SEEDS:
            bundle = load(seed=seed, scale=scale)
            evidence, rung = _rung(bundle)
            aucs[name].append(rung[0])
            gnn = _cells(_gnn(bundle, seed)) if name == "ebay-small-sim" else ["n/a"] * 4
            rows.append(
                [name, seed, len(bundle.test_nodes), f"{evidence:.3f}", *_cells(rung), *gnn]
            )
    headers = [
        "dataset", "seed", "test txns", "evidence",
        "rung AUC", "rung flag", "rung prec", "rung rec",
        "GNN AUC", "GNN flag", "GNN prec", "GNN rec",
    ]
    summary = [
        f"{name}: rung AUC {min(values):.3f}-{max(values):.3f}, "
        f">= {MIN_AUC} in {sum(v >= MIN_AUC for v in values)} of {len(values)} seeds"
        for name, values in aucs.items()
    ]
    text = "\n".join(
        [
            "The degraded rung on held-out transactions: the linked-label score",
            "(largest fraud share among the labelled transactions sharing an entity with the target),",
            "test labels hidden from the rung; no labelled link -> the prior (training fraud rate).",
            f"Flag rate, precision and recall at FRAUD_THRESHOLD = {FRAUD_THRESHOLD}; '-': nothing flagged.",
            f"ebay-small-sim at scale {SMALL_SCALE}, ebay-large-sim at scale {LARGE_SCALE}; GNN = detector+,",
            "the benches' small_detector recipe, trained per seed (ebay-small-sim only).",
            "Random train/test split: it mostly measures buyers already seen in training, so",
            "no ordering against the GNN is asserted; an entity-disjoint split is not measured here.",
            "",
            format_table(headers, rows),
            "",
            *summary,
        ]
    )
    path = write_result("degraded_rung", text)
    print("\n" + text + f"\n-> {path}")
    for name, values in aucs.items():
        assert sum(v >= MIN_AUC for v in values) >= MIN_SEEDS_OVER, (name, values)
