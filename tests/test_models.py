"""Detector, detector+, GAT, GEM: shapes, gradients, masks, sharing."""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.models import (
    DetectorConfig,
    GATModel,
    GEMModel,
    XFraudDetector,
    XFraudDetectorHGT,
    XFraudDetectorPlus,
)
from repro.models.inference import padded_features
from repro.nn import Tensor

ALL_MODELS = [XFraudDetectorPlus, GATModel, GEMModel]


class TestForwardShapes:
    @pytest.mark.parametrize("cls", ALL_MODELS)
    def test_logits_shape(self, cls, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        model = cls(detector_config)
        logits = model(tiny_graph, train[:7])
        assert logits.shape == (7, 2)

    @pytest.mark.parametrize("cls", ALL_MODELS)
    def test_predict_proba_range(self, cls, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        model = cls(detector_config)
        scores = model.predict_proba(tiny_graph, train[:10])
        assert scores.shape == (10,)
        assert np.all((scores >= 0) & (scores <= 1))

    @pytest.mark.parametrize("cls", ALL_MODELS)
    def test_predict_proba_restores_training_mode(self, cls, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        model = cls(detector_config)
        model.train()
        model.predict_proba(tiny_graph, train[:2])
        assert model.training

    @pytest.mark.parametrize("cls", ALL_MODELS)
    def test_loss_backward_reaches_all_layers(self, cls, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        model = cls(detector_config)
        loss = model.loss(tiny_graph, train[:32])
        loss.backward()
        with_grad = sum(1 for p in model.parameters() if p.grad is not None)
        assert with_grad / len(model.parameters()) > 0.9

    @pytest.mark.parametrize("cls", ALL_MODELS)
    def test_loss_rejects_unlabeled(self, cls, tiny_graph, detector_config):
        entity = int(np.flatnonzero(tiny_graph.labels < 0)[0])
        model = cls(detector_config)
        with pytest.raises(ValueError):
            model.loss(tiny_graph, [entity])


class TestDetectorSpecifics:
    def test_eval_forward_deterministic(self, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        model = XFraudDetectorPlus(detector_config)
        a = model.predict_proba(tiny_graph, train[:5])
        b = model.predict_proba(tiny_graph, train[:5])
        np.testing.assert_allclose(a, b)

    def test_same_seed_same_weights(self, detector_config):
        a = XFraudDetectorPlus(detector_config)
        b = XFraudDetectorPlus(detector_config)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_hidden_dim_head_divisibility(self, tiny_graph):
        with pytest.raises(ValueError):
            XFraudDetector(
                DetectorConfig(feature_dim=tiny_graph.feature_dim, hidden_dim=30, num_heads=4)
            )

    def test_node_representations_shape(self, tiny_graph, detector_config):
        model = XFraudDetector(detector_config)
        reps = model.node_representations(tiny_graph)
        assert reps.shape == (tiny_graph.num_nodes, detector_config.hidden_dim)

    def test_edge_mask_zero_blocks_messages(self, tiny_graph, tiny_splits, detector_config):
        """A fully-zero edge mask must reduce the detector to a
        feature-only model: graph structure contributes nothing."""
        train, _ = tiny_splits
        model = XFraudDetector(detector_config)
        model.eval()
        with nn.no_grad():
            masked = model(tiny_graph, train[:4], edge_mask=Tensor(np.zeros(tiny_graph.num_edges)))
            unmasked = model(tiny_graph, train[:4])
        assert not np.allclose(masked.data, unmasked.data)

    def test_edge_mask_all_ones_matches_unmasked(self, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        model = XFraudDetector(detector_config)
        model.eval()
        with nn.no_grad():
            masked = model(tiny_graph, train[:4], edge_mask=Tensor(np.ones(tiny_graph.num_edges)))
            unmasked = model(tiny_graph, train[:4])
        np.testing.assert_allclose(masked.data, unmasked.data, atol=1e-9)

    def test_feature_mask_scales_inputs(self, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        model = XFraudDetector(detector_config)
        model.eval()
        ones = Tensor(np.ones((tiny_graph.num_nodes, tiny_graph.feature_dim)))
        with nn.no_grad():
            masked = model(tiny_graph, train[:4], feature_mask=ones)
            unmasked = model(tiny_graph, train[:4])
        np.testing.assert_allclose(masked.data, unmasked.data, atol=1e-9)

    def test_mask_gradients_flow(self, tiny_graph, tiny_splits, detector_config):
        from repro.nn import functional as F

        train, _ = tiny_splits
        model = XFraudDetector(detector_config)
        model.eval()
        edge_mask = nn.Parameter(np.full(tiny_graph.num_edges, 0.5))
        logits = model(tiny_graph, train[:2], edge_mask=edge_mask)
        F.cross_entropy(logits, tiny_graph.labels[train[:2]]).backward()
        assert edge_mask.grad is not None
        assert np.any(edge_mask.grad != 0)

    def test_samplers_attached(self, detector_config):
        from repro.graph import HGSampler, SageSampler

        assert isinstance(XFraudDetectorPlus(detector_config).sampler, SageSampler)
        assert isinstance(XFraudDetectorHGT(detector_config).sampler, HGSampler)

    def test_predict_proba_sampled(self, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        plus = XFraudDetectorPlus(detector_config)
        scores = plus.predict_proba_sampled(tiny_graph, train[:6])
        assert scores.shape == (6,)
        hgt = XFraudDetectorHGT(detector_config)
        scores = hgt.predict_proba_sampled(tiny_graph, train[:6])
        assert scores.shape == (6,)

    def test_predict_proba_sampled_names_an_entity_as_passed(self, detector_config):
        """An entity target is refused by its node on the caller's graph,
        not by its index in the sample (which is 0 for a lone target)."""
        from repro.data import load_dataset

        graph = load_dataset("ebay-small-sim", seed=0, scale=0.25).graph
        config = dataclasses.replace(detector_config, feature_dim=graph.feature_dim)
        entity = 898
        assert graph.node_type[entity] != 0
        for model in (XFraudDetectorPlus(config), XFraudDetectorHGT(config)):
            with pytest.raises(ValueError, match=rf"nodes \[{entity}\] are not transactions"):
                model.predict_proba_sampled(graph, [entity])


class TestHeteroConvLayer:
    def test_shared_projections_by_default(self, detector_config):
        """The paper's design principle: Q/K/V weights shared across
        node types (type info flows via embeddings)."""
        from repro.models.hetero_conv import HeteroConvLayer

        layer = HeteroConvLayer(
            in_dim=detector_config.feature_dim,
            out_dim=16,
            num_heads=2,
            first_layer=True,
            rng=np.random.default_rng(0),
        )
        assert list(layer.q_linear.keys()) == ["shared"]

    def test_per_type_projection_ablation(self, tiny_graph, detector_config):
        """The HGT-style ablation restores type-indexed Q/K/V."""
        from repro.models.hetero_conv import HeteroConvLayer
        from repro.nn import Tensor

        layer = HeteroConvLayer(
            in_dim=detector_config.feature_dim,
            out_dim=16,
            num_heads=2,
            first_layer=True,
            per_type_projections=True,
            rng=np.random.default_rng(0),
        )
        weights = {t: layer.q_linear[t].weight.data for t in layer.q_linear.keys()}
        types = list(weights)
        assert len(types) == 5
        assert not np.allclose(weights[types[0]], weights[types[1]])
        layer.eval()
        out = layer(tiny_graph, Tensor(padded_features(tiny_graph)))
        assert out.shape == (tiny_graph.num_nodes, 16)

    def test_output_dim(self, tiny_graph, detector_config):
        from repro.models.hetero_conv import HeteroConvLayer

        layer = HeteroConvLayer(
            in_dim=detector_config.feature_dim,
            out_dim=16,
            num_heads=4,
            first_layer=True,
            rng=np.random.default_rng(0),
        )
        layer.eval()
        out = layer(tiny_graph, Tensor(padded_features(tiny_graph)))
        assert out.shape == (tiny_graph.num_nodes, 16)
        assert np.all(out.data >= 0)  # ReLU output

    def test_head_divisibility_enforced(self):
        from repro.models.hetero_conv import HeteroConvLayer

        with pytest.raises(ValueError):
            HeteroConvLayer(in_dim=8, out_dim=10, num_heads=4)

    def test_type_embeddings_start_zero(self, detector_config):
        from repro.models.hetero_conv import HeteroConvLayer

        layer = HeteroConvLayer(
            in_dim=8, out_dim=8, num_heads=2, first_layer=True
        )
        np.testing.assert_allclose(layer.node_type_emb.weight.data, 0.0)
        np.testing.assert_allclose(layer.edge_type_emb.weight.data, 0.0)


class TestGEMSpecifics:
    def test_gem_has_no_attention_params(self, detector_config):
        model = GEMModel(detector_config)
        names = [name for name, _ in model.named_parameters()]
        assert not any("att" in name for name in names)

    def test_gem_cheapest_forward(self, tiny_graph, tiny_splits, detector_config):
        """GEM's convolution has fewer parameters than the detector's."""
        gem = GEMModel(detector_config)
        detector = XFraudDetector(detector_config)
        assert gem.num_parameters() < detector.num_parameters()


class TestAggregationAblation:
    def test_target_specific_adds_parameters(self, tiny_graph, detector_config):
        from dataclasses import replace

        shared = XFraudDetector(detector_config)
        specific = XFraudDetector(replace(detector_config, target_specific_aggregation=True))
        assert specific.num_parameters() > shared.num_parameters()

    def test_target_specific_forward_works(self, tiny_graph, tiny_splits, detector_config):
        from dataclasses import replace

        train, _ = tiny_splits
        model = XFraudDetector(replace(detector_config, target_specific_aggregation=True))
        loss = model.loss(tiny_graph, train[:16])
        loss.backward()
        assert any("a_linear" in name for name, _ in model.named_parameters())
        a_params = [p for name, p in model.named_parameters() if "a_linear" in name]
        assert any(p.grad is not None for p in a_params)


class TestFeatureMLP:
    def test_ignores_graph_structure(self, tiny_graph, tiny_splits, detector_config):
        """The MLP must give identical scores regardless of edges."""
        from repro.graph.hetero import HeteroGraph
        from repro.models import FeatureMLP

        train, _ = tiny_splits
        model = FeatureMLP(detector_config)
        scores_full = model.predict_proba(tiny_graph, train[:8])
        edgeless = HeteroGraph(
            node_type=tiny_graph.node_type,
            edge_src=np.array([], dtype=np.int64),
            edge_dst=np.array([], dtype=np.int64),
            edge_type=np.array([], dtype=np.int64),
            txn_table=tiny_graph.txn_table,
            labels=tiny_graph.labels,
        )
        scores_empty = model.predict_proba(edgeless, train[:8])
        np.testing.assert_allclose(scores_full, scores_empty)

    def test_trains(self, tiny_graph, tiny_splits, detector_config):
        from repro.models import FeatureMLP
        from repro.train import TrainConfig, Trainer, roc_auc

        train, test = tiny_splits
        model = FeatureMLP(detector_config)
        Trainer(model, TrainConfig(epochs=6, learning_rate=1e-2)).fit(tiny_graph, train)
        scores = model.predict_proba(tiny_graph, test)
        assert roc_auc(tiny_graph.labels[test], scores) > 0.6

    def test_loss_rejects_unlabeled(self, tiny_graph, detector_config):
        from repro.models import FeatureMLP

        entity = int(np.flatnonzero(tiny_graph.labels < 0)[0])
        with pytest.raises(ValueError):
            FeatureMLP(detector_config).loss(tiny_graph, [entity])
