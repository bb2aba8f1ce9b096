"""Simulated DDP training (Sec. 3.3)."""

import numpy as np
import pytest

from repro.models import GEMModel, XFraudDetectorPlus
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    Trainer,
    make_worker_partitions,
)


@pytest.fixture(scope="module")
def workers4(tiny_graph, tiny_splits):
    train, _ = tiny_splits
    return make_worker_partitions(tiny_graph, train, num_workers=4, num_partitions=24)


class TestPartitioning:
    def test_workers_cover_all_nodes(self, tiny_graph, workers4):
        combined = np.concatenate([w.original_ids for w in workers4])
        assert len(np.unique(combined)) == tiny_graph.num_nodes

    def test_workers_disjoint(self, workers4):
        seen = set()
        for worker in workers4:
            ids = set(worker.original_ids.tolist())
            assert not ids & seen
            seen |= ids

    def test_train_nodes_distributed(self, tiny_splits, workers4):
        train, _ = tiny_splits
        total = sum(w.num_train for w in workers4)
        assert total == len(train)

    def test_local_train_nodes_are_txn(self, tiny_graph, workers4):
        for worker in workers4:
            labels = worker.graph.labels[worker.train_local]
            assert np.all(labels >= 0)

    def test_restrained_neighborhood(self, tiny_graph, workers4):
        """Partitioning cuts edges: workers see fewer edges in total
        than the full graph (the cause of the 16-machine AUC drop)."""
        partition_edges = sum(w.graph.num_edges for w in workers4)
        assert partition_edges <= tiny_graph.num_edges


class TestDistributedTraining:
    def test_single_worker_matches_full_graph_training(
        self, tiny_graph, tiny_splits, detector_config
    ):
        """κ=1 distributed training must equal single-machine training
        batch-for-batch (same graph, same gradients)."""
        train, _ = tiny_splits
        config = TrainConfig(epochs=2, seed=0, batch_size=10_000)

        single = GEMModel(detector_config)
        Trainer(single, config).fit(tiny_graph, train)

        distributed = GEMModel(detector_config)
        workers = make_worker_partitions(tiny_graph, train, num_workers=1, num_partitions=1)
        DistributedTrainer(distributed, workers, config).fit()

        # Same permutation-free batches on the identical graph: the
        # resulting parameters agree to numerical precision.
        order = np.argsort(workers[0].original_ids)
        for (_, a), (_, b) in zip(single.named_parameters(), distributed.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, atol=1e-8)

    def test_gradient_averaging_keeps_replicas_identical(
        self, tiny_graph, tiny_splits, detector_config, workers4
    ):
        """There is one parameter set, so 'replicas' are trivially in
        sync — verify a step actually changes it once per epoch."""
        model = GEMModel(detector_config)
        trainer = DistributedTrainer(model, workers4, TrainConfig(epochs=1))
        before = {k: v.copy() for k, v in model.state_dict().items()}
        trainer.train_epoch()
        after = model.state_dict()
        changed = any(not np.allclose(before[k], after[k]) for k in before)
        assert changed

    def test_learning_happens(self, tiny_graph, tiny_splits, detector_config, workers4):
        _, test = tiny_splits
        model = XFraudDetectorPlus(detector_config)
        trainer = DistributedTrainer(
            model, workers4, TrainConfig(epochs=5, learning_rate=5e-3)
        )
        result = trainer.fit(eval_graph=tiny_graph, eval_nodes=test)
        assert result.metrics["auc"] > 0.6

    def test_convergence_curve_recorded(self, tiny_graph, tiny_splits, detector_config, workers4):
        _, test = tiny_splits
        model = GEMModel(detector_config)
        trainer = DistributedTrainer(model, workers4, TrainConfig(epochs=3))
        result = trainer.fit(eval_graph=tiny_graph, eval_nodes=test)
        curve = result.convergence_curve()
        assert len(curve) == 3
        assert all(c is None or 0 <= c <= 1 for c in curve)

    def test_nan_scores_fail_the_epoch_that_produced_them(
        self, tiny_graph, tiny_splits, detector_config, workers4, monkeypatch
    ):
        """A diverged model must fail the run at its first evaluation
        (as ``Trainer`` and ``ElasticTrainer`` do), not be recorded as
        ``eval_auc=None`` and trained on — that reading is reserved for
        a single-class evaluation set, which still reports."""
        _, test = tiny_splits
        model = GEMModel(detector_config)
        trainer = DistributedTrainer(model, workers4, TrainConfig(epochs=3))
        one_class = test[tiny_graph.labels[test] == 0]
        result = trainer.fit(eval_graph=tiny_graph, eval_nodes=one_class)
        assert [record.eval_auc for record in result.history] == [None] * 3
        assert np.isnan(result.metrics["auc"])

        evaluations = []

        def diverged(graph, nodes):
            evaluations.append(len(nodes))
            return np.full(len(nodes), np.nan)

        monkeypatch.setattr(model, "predict_proba", diverged)
        with pytest.raises(ValueError, match="NaN"):
            trainer.fit(eval_graph=tiny_graph, eval_nodes=test)
        assert len(evaluations) == 1  # not swallowed for two more epochs

    def test_wall_clock_is_max_not_sum(self, detector_config, workers4):
        model = GEMModel(detector_config)
        trainer = DistributedTrainer(model, workers4, TrainConfig(epochs=1))
        record = trainer.train_epoch()
        assert record.wall_seconds <= record.sum_worker_seconds + 1e-9

    def test_empty_worker_tolerated(self, tiny_graph, tiny_splits, detector_config):
        """A worker whose shard holds no labeled nodes must contribute
        zero gradients, not crash."""
        train, _ = tiny_splits
        workers = make_worker_partitions(tiny_graph, train[:4], num_workers=4, num_partitions=24)
        assert any(w.num_train == 0 for w in workers)
        model = GEMModel(detector_config)
        DistributedTrainer(model, workers, TrainConfig(epochs=1)).train_epoch()

    def test_no_workers_rejected(self, detector_config):
        with pytest.raises(ValueError):
            DistributedTrainer(GEMModel(detector_config), [], TrainConfig())


class TestEngineRound:
    """``train_epoch`` is ``step`` over every worker's
    ``shard_gradients``; a supervisor drives the same two calls with
    the shards it accepts."""

    def test_step_over_no_shards_raises_typed_error(self, detector_config, workers4):
        """An all-reduce nobody reached surfaces NoSurvivorsError — a
        total outage is for a supervisor to handle (rollback), never a
        silently skipped step — and does not touch the parameters."""
        from repro.train import NoSurvivorsError

        model = GEMModel(detector_config)
        trainer = DistributedTrainer(model, workers4, TrainConfig(epochs=1))
        before = {k: v.copy() for k, v in model.state_dict().items()}
        with pytest.raises(NoSurvivorsError, match="zero shards"):
            trainer.step([])
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_round_driven_by_hand_equals_train_epoch(self, detector_config, workers4):
        config = TrainConfig(epochs=1, batch_size=64)
        whole, by_hand = GEMModel(detector_config), GEMModel(detector_config)
        record = DistributedTrainer(whole, workers4, config).train_epoch()
        engine = DistributedTrainer(by_hand, workers4, config)
        shards = [engine.shard_gradients(worker) for worker in workers4]
        engine.step([grads for grads, _, _ in shards])
        assert record.loss == float(np.mean([loss for _, loss, _ in shards]))
        s1, s2 = whole.state_dict(), by_hand.state_dict()
        assert all(np.array_equal(s1[k], s2[k]) for k in s1)

    def test_step_renormalises_over_the_shards_it_is_given(self, detector_config, workers4):
        """Withholding a shard averages over the rest (what quarantine
        relies on), not over the group size."""
        config = TrainConfig(epochs=1, clip_norm=1e9, learning_rate=1e-3)
        model = GEMModel(detector_config)
        engine = DistributedTrainer(model, workers4, config)
        kept = [engine.shard_gradients(worker)[0] for worker in workers4][:3]
        engine.step(kept)
        for index, param in enumerate(model.parameters()):
            expected = sum(grads[index] for grads in kept) / 3
            assert np.array_equal(param.grad, expected)
