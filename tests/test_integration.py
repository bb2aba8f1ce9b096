"""End-to-end integration: the full xFraud pipeline on one graph."""

import numpy as np
import pytest

from repro import (
    AnnotatorPanel,
    CommunityWeights,
    DetectorConfig,
    ExplainerConfig,
    GNNExplainer,
    TrainConfig,
    Trainer,
    XFraudDetectorHGT,
    XFraudDetectorPlus,
    fit_grid,
    select_communities,
    topk_hit_rate,
)
from repro.explain import centrality_edge_weights, human_edge_importance, random_edge_weights
from repro.train import roc_auc
from .conftest import small_log


class TestDetectorPipeline:
    def test_detector_uses_graph_structure(
        self, tiny_graph, tiny_splits, detector_config
    ):
        """The trained GNN must (a) clearly beat chance and (b) score
        differently when the graph is masked away — i.e. the structure
        actually contributes to predictions."""
        from repro import nn
        from repro.nn import Tensor

        train, test = tiny_splits
        model = XFraudDetectorPlus(detector_config)
        Trainer(model, TrainConfig(epochs=6, learning_rate=5e-3)).fit(tiny_graph, train)
        scores = model.predict_proba(tiny_graph, test)
        auc = roc_auc(tiny_graph.labels[test], scores)
        assert auc > 0.7

        model.eval()
        with nn.no_grad():
            masked_logits = model(
                tiny_graph, test, edge_mask=Tensor(np.zeros(tiny_graph.num_edges))
            )
            full_logits = model(tiny_graph, test)
        assert not np.allclose(masked_logits.data, full_logits.data)

    def test_hgt_and_plus_agree_on_full_graph(self, tiny_graph, tiny_splits, detector_config):
        """detector and detector+ share the network; on a full-graph
        forward (no sampling) with identical weights they coincide."""
        train, _ = tiny_splits
        plus = XFraudDetectorPlus(detector_config)
        hgt = XFraudDetectorHGT(detector_config)
        hgt.load_state_dict(plus.state_dict())
        a = plus.predict_proba(tiny_graph, train[:10])
        b = hgt.predict_proba(tiny_graph, train[:10])
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestExplainerPipeline:
    @pytest.fixture(scope="class")
    def community_weights(self):
        """A medium-sized fixture: the tiny session graph is too small
        for stable hit-rate statistics, so this class trains its own
        detector on a ~250-buyer graph (a few seconds)."""
        from repro.data import GeneratorConfig
        from repro.graph import build_graph, train_test_split

        config = GeneratorConfig(
            num_benign_buyers=250,
            num_stolen_cards=6,
            num_warehouse_rings=3,
            num_apartment_buildings=2,
            num_cultivated_accounts=3,
            num_guest_checkouts=10,
            feature_dim=24,
            seed=11,
        )
        graph, _ = build_graph(small_log(config, benign_txns_per_buyer=(2, 6), keep_fraction=0.8))
        train, _, test = train_test_split(graph, test_fraction=0.3, seed=0)
        detector = XFraudDetectorPlus(
            DetectorConfig(
                feature_dim=graph.feature_dim,
                hidden_dim=16,
                num_heads=2,
                num_layers=2,
                ffn_hidden_dim=16,
                seed=0,
            )
        )
        Trainer(detector, TrainConfig(epochs=6, batch_size=512, learning_rate=5e-3)).fit(
            graph, train
        )
        communities = select_communities(
            graph, test, count=12, seed=1, min_edges=12, max_hops=3, fraud_count=5
        )
        panel = AnnotatorPanel(seed=0)
        explainer = GNNExplainer(detector, ExplainerConfig(epochs=25, seed=0))
        bundle = []
        for community in communities:
            explanation = explainer.explain(community.graph, community.seed_local)
            bundle.append(
                (
                    community,
                    CommunityWeights(
                        human=human_edge_importance(community, panel),
                        centrality=centrality_edge_weights(community.graph, "degree"),
                        explainer=explanation.undirected_edge_weights(community.graph),
                    ),
                )
            )
        return bundle

    @staticmethod
    def _random_baseline(community_weights, draws_per_seed: int = 20, seeds: int = 5):
        """Random hit rate averaged over several weight seeds, as the
        paper's Appendix E does (10 repeats of the random experiment)."""
        rates = []
        for i, (community, weights) in enumerate(community_weights):
            for s in range(seeds):
                rates.append(
                    topk_hit_rate(
                        weights.human,
                        random_edge_weights(community.graph, seed=s * 100 + i),
                        5,
                        draws=draws_per_seed,
                        seed=s,
                    )
                )
        return float(np.mean(rates))

    def test_explainer_beats_random(self, community_weights):
        """The paper's headline explainer claim (Table 8). This unit
        test checks the trend on a 12-community sample; the strong
        version is asserted by the bench suite on the paper-sized
        41-community sample."""
        explainer_rates = [
            topk_hit_rate(w.human, w.explainer, 5, draws=50)
            for _, w in community_weights
        ]
        assert np.mean(explainer_rates) > self._random_baseline(community_weights)

    def test_centrality_beats_random(self, community_weights):
        centrality_rates = [
            topk_hit_rate(w.human, w.centrality, 5, draws=50)
            for _, w in community_weights
        ]
        assert np.mean(centrality_rates) > self._random_baseline(community_weights)

    def test_hybrid_trains_and_scores(self, community_weights):
        weights = [w for _, w in community_weights]
        hybrid = fit_grid(weights[:3], k=5, grid_steps=11, draws=20)
        rate = hybrid.hit_rate(weights[3:], 5, draws=20)
        assert 0.0 <= rate <= 1.0
        assert hybrid.coeff_centrality + hybrid.coeff_explainer == pytest.approx(1.0)


class TestFailureModes:
    def test_single_class_training_is_handled(self, tiny_graph, detector_config):
        """Training on an all-benign subset must not crash (AUC is
        undefined and reported as NaN)."""
        benign = np.flatnonzero(tiny_graph.labels == 0)[:30]
        model = XFraudDetectorPlus(detector_config)
        trainer = Trainer(model, TrainConfig(epochs=1))
        trainer.fit(tiny_graph, benign)
        metrics = trainer.evaluate(tiny_graph, benign)
        assert np.isnan(metrics["auc"])

    def test_isolated_transaction_scored(self, detector_config):
        """A guest checkout with no shared entities still gets a score
        (Appendix G.3's hard case)."""
        from repro.graph.hetero import NODE_TYPE_IDS, HeteroGraph

        types = [
            NODE_TYPE_IDS["txn"],
            NODE_TYPE_IDS["pmt"],
            NODE_TYPE_IDS["email"],
            NODE_TYPE_IDS["addr"],
        ]
        table = np.ones((1, detector_config.feature_dim))  # the one transaction's row
        graph = HeteroGraph.from_links(types, [(0, 1), (0, 2), (0, 3)], table, [0, -1, -1, -1])
        model = XFraudDetectorPlus(detector_config)
        scores = model.predict_proba(graph, [0])
        assert 0 <= scores[0] <= 1
