"""Training on the batch's receptive field: every ``model.loss`` runs
its forward on ``receptive_field(graph, targets, hops)`` and must get
the whole graph's loss, gradients and dropout masks.

The random-graph half of the contract is ``repro check``'s
``pruned-step-vs-full-graph`` scenario (pinned in ``test_check.py``);
here are the fixed cases: the kernel's edges, the trainers that ride on
it, and loss values recorded before the change.
"""

import numpy as np
import pytest

from repro import DetectorConfig, TrainConfig, Trainer, XFraudDetectorPlus
from repro.check import random_delta, random_hetero_graph
from repro.check.reference import stack_subgraphs
from repro.data import load_dataset
from repro.graph.sampling import SampledSubgraph, receptive_field
from repro.models import field as field_module
from repro.models import FeatureMLP, GATModel, GEMModel
from repro.stream import FineTuneConfig, OnlineFineTuner
from repro.train.distributed import DistributedTrainer, make_worker_partitions


def _whole_graph_field(graph, targets, hops):
    """The field that prunes nothing: the parent commit's full-graph step."""
    everything = np.arange(graph.num_edges, dtype=np.int64)
    return SampledSubgraph(
        graph=graph,
        target_local=np.asarray(targets, dtype=np.int64),
        original_ids=np.arange(graph.num_nodes, dtype=np.int64),
        edge_ids=everything,
    )


def _tiled(graph, copies):
    """``copies`` disjoint copies of ``graph`` as one graph."""
    part = SampledSubgraph(graph, np.zeros(0, dtype=np.int64), np.arange(graph.num_nodes))
    return stack_subgraphs([part] * copies).graph


def _assert_same_weights(model, reference, atol):
    for (name, param), twin in zip(model.named_parameters(), reference.parameters()):
        np.testing.assert_allclose(param.data, twin.data, rtol=0.0, atol=atol, err_msg=name)


class TestKernel:
    def test_zero_hops_is_the_targets_alone(self, tiny_graph):
        targets = np.array([5, 2, 5, 9])
        field = receptive_field(tiny_graph, targets, hops=0)
        assert field.original_ids.tolist() == [5, 2, 9]
        assert field.target_local.tolist() == [0, 1, 0, 2]
        assert field.graph.num_edges == 0 and len(field.edge_ids) == 0
        np.testing.assert_array_equal(
            field.graph.txn_table[field.graph.txn_rows(field.target_local)],
            tiny_graph.txn_table[tiny_graph.txn_rows(targets)],
        )

    def test_negative_hops_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="hops"):
            receptive_field(tiny_graph, [0], hops=-1)

    def test_edges_are_the_in_edges_of_the_inner_nodes(self, tiny_graph):
        targets = tiny_graph.txn_nodes[:4]
        inner = receptive_field(tiny_graph, targets, hops=1).original_ids
        field = receptive_field(tiny_graph, targets, hops=2)
        expected = np.flatnonzero(np.isin(tiny_graph.edge_dst, inner))
        np.testing.assert_array_equal(field.edge_ids, expected)
        # Fewer than the closure induces: the outermost nodes keep no in-edge.
        induced, _ = tiny_graph.subgraph(field.original_ids)
        assert field.graph.num_edges < induced.num_edges

    def test_field_does_not_grow_with_the_graph(self, tiny_graph, tiny_splits):
        targets = tiny_splits[0][:64]
        small = receptive_field(tiny_graph, targets, hops=2)
        large = receptive_field(_tiled(tiny_graph, 4), targets, hops=2)
        np.testing.assert_array_equal(large.original_ids, small.original_ids)
        np.testing.assert_array_equal(large.graph.edge_src, small.graph.edge_src)
        np.testing.assert_array_equal(large.graph.edge_dst, small.graph.edge_dst)
        assert small.graph.num_nodes < tiny_graph.num_nodes

    def test_live_graph_between_deltas(self):
        rng = np.random.default_rng(3)
        graph = random_hetero_graph(rng, num_txns=8)
        graph.csr()
        for _ in range(3):
            graph.append_delta(**random_delta(rng, graph, 2))
            newest = graph.txn_nodes[-2:]
            field = receptive_field(graph, newest, hops=2)
            inner = receptive_field(graph, newest, hops=1).original_ids
            np.testing.assert_array_equal(
                field.edge_ids, np.flatnonzero(np.isin(graph.edge_dst, inner))
            )


class TestLossesRecordedAtTheParentCommit:
    def test_quarter_scale_fit_reproduces_full_graph_losses(self):
        # Trainer.fit, three epochs of 64-target steps with dropout on,
        # as run at ff0b5fc (every step a whole-graph forward/backward).
        bundle = load_dataset("ebay-small-sim", seed=0, scale=0.25)
        graph = bundle.graph
        model = XFraudDetectorPlus(DetectorConfig(feature_dim=graph.feature_dim, seed=0))
        trainer = Trainer(model, TrainConfig(epochs=3, batch_size=64, seed=0))
        result = trainer.fit(graph, bundle.train_nodes)
        recorded = [0.263048077890928, 0.11271370472837663, 0.030568047304224293]
        np.testing.assert_allclose(
            [record.loss for record in result.history], recorded, rtol=0.0, atol=1e-9
        )
        assert trainer.evaluate(graph, bundle.test_nodes)["auc"] == 0.9980544747081712


class TestTrainersMatchTheWholeGraphStep:
    """Each trainer against itself with the field swapped for the whole
    graph (:func:`_whole_graph_field`), from the same seed."""

    @pytest.mark.parametrize("model_class", [XFraudDetectorPlus, GATModel, GEMModel, FeatureMLP])
    def test_trainer_epochs(self, tiny_graph, tiny_splits, detector_config, monkeypatch, model_class):
        config = TrainConfig(epochs=2, batch_size=16, seed=1)
        model = model_class(detector_config)
        losses = [r.loss for r in Trainer(model, config).fit(tiny_graph, tiny_splits[0]).history]
        monkeypatch.setattr(field_module, "receptive_field", _whole_graph_field)
        reference = model_class(detector_config)
        expected = [
            r.loss for r in Trainer(reference, config).fit(tiny_graph, tiny_splits[0]).history
        ]
        np.testing.assert_allclose(losses, expected, rtol=0.0, atol=1e-9)
        _assert_same_weights(model, reference, atol=1e-9)

    def test_distributed_round(self, tiny_graph, tiny_splits, detector_config, monkeypatch):
        workers = make_worker_partitions(tiny_graph, tiny_splits[0], num_workers=3, num_partitions=12)
        config = TrainConfig(batch_size=16, seed=2)
        model = XFraudDetectorPlus(detector_config)
        record = DistributedTrainer(model, workers, config).train_epoch(0)
        monkeypatch.setattr(field_module, "receptive_field", _whole_graph_field)
        reference = XFraudDetectorPlus(detector_config)
        expected = DistributedTrainer(reference, workers, config).train_epoch(0)
        assert record.loss == pytest.approx(expected.loss, rel=0.0, abs=1e-9)
        _assert_same_weights(model, reference, atol=1e-12)

    def test_online_fine_tune_on_a_growing_graph(self, monkeypatch):
        def run():
            rng = np.random.default_rng(11)
            graph = random_hetero_graph(rng, num_txns=40, feature_dim=6)
            graph.csr()
            config = DetectorConfig(
                feature_dim=6, hidden_dim=8, num_heads=2, ffn_hidden_dim=8, seed=0
            )
            model = XFraudDetectorPlus(config)
            tuner = OnlineFineTuner(
                model, FineTuneConfig(min_labels=8, max_nodes=24, batch_size=8, every_labels=8)
            )
            losses = []
            for _ in range(3):
                graph.append_delta(**random_delta(rng, graph, 8))
                tuner.notify_labels(8)
                losses.append(tuner.maybe_update(graph, graph.txn_nodes).loss)
            return model, losses

        model, losses = run()
        monkeypatch.setattr(field_module, "receptive_field", _whole_graph_field)
        reference, expected = run()
        np.testing.assert_allclose(losses, expected, rtol=0.0, atol=1e-9)
        _assert_same_weights(model, reference, atol=1e-9)


class TestResume:
    def test_detector_resume_is_bitwise_identical(self, tiny_graph, tiny_splits, detector_config, tmp_path):
        # Attention dropout draws at the parent graph's extent, so the
        # generators a checkpoint captures move exactly as they used to.
        train, _ = tiny_splits

        def fit(epochs, **kwargs):
            model = XFraudDetectorPlus(detector_config)
            Trainer(model, TrainConfig(epochs=epochs, batch_size=16, seed=0)).fit(
                tiny_graph, train, **kwargs
            )
            return model.state_dict()

        one_shot = fit(4)
        fit(2, checkpoint=str(tmp_path))
        resumed = fit(4, checkpoint=str(tmp_path), resume_from=str(tmp_path))
        assert one_shot.keys() == resumed.keys()
        for name, value in one_shot.items():
            assert np.array_equal(value, resumed[name]), name
