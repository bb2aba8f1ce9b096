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
        config = TrainConfig(epochs=2, shuffle=False, seed=0, batch_size=10_000)

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


class TestFaultInjectedTraining:
    """Graceful degradation under a FaultPlan (the paper's synchronous
    cluster would simply stall on the first dead worker)."""

    def test_crashed_worker_excluded_and_recorded(self, detector_config, workers4):
        from repro.reliability import FaultPlan

        plan = FaultPlan(num_workers=4, crash_schedule={0: [1]})
        model = GEMModel(detector_config)
        trainer = DistributedTrainer(model, workers4, TrainConfig(epochs=1), fault_plan=plan)
        record = trainer.train_epoch(0)
        assert record.failed_workers == [1]
        assert record.num_survivors == 3
        assert any(e.kind == "crash" and e.worker_id == 1 for e in record.fault_events)

    def test_recovery_event_recorded_next_epoch(self, detector_config, workers4):
        from repro.reliability import FaultPlan

        plan = FaultPlan(num_workers=4, crash_schedule={0: [2]})
        model = GEMModel(detector_config)
        trainer = DistributedTrainer(model, workers4, TrainConfig(epochs=2), fault_plan=plan)
        result = trainer.fit()
        epoch1 = result.history[1]
        assert epoch1.failed_workers == []
        recoveries = [e for e in epoch1.fault_events if e.kind == "recovery"]
        assert [e.worker_id for e in recoveries] == [2]
        assert result.total_failures == 1

    def test_straggler_slows_wall_clock_only(self, detector_config, workers4):
        from repro.reliability import FaultPlan

        plan = FaultPlan(
            num_workers=4,
            crash_schedule={},
            straggler_prob=0.0,
            straggler_slowdown=100.0,
        )
        # Force worker 0 to straggle by a scripted plan substitute:
        plan.straggler_prob = 1.0
        model = GEMModel(detector_config)
        trainer = DistributedTrainer(model, workers4, TrainConfig(epochs=1), fault_plan=plan)
        record = trainer.train_epoch(0)
        assert record.straggler_workers  # someone straggled
        assert record.num_survivors == 4  # but everyone's gradient counted

    def test_degraded_mode_converges_close_to_fault_free(self, detector_config, workers4,
                                                         tiny_graph, tiny_splits):
        """1 of 4 workers failing every epoch still completes fit() and
        lands within 0.05 AUC of the fault-free run."""
        from repro.reliability import FaultPlan

        _, test = tiny_splits
        config = TrainConfig(epochs=5, learning_rate=5e-3)

        clean = DistributedTrainer(
            XFraudDetectorPlus(detector_config), workers4, config
        ).fit(eval_graph=tiny_graph, eval_nodes=test)

        plan = FaultPlan(
            num_workers=4, crash_schedule={e: [e % 4] for e in range(config.epochs)}
        )
        degraded_trainer = DistributedTrainer(
            XFraudDetectorPlus(detector_config), workers4, config, fault_plan=plan
        )
        degraded = degraded_trainer.fit(eval_graph=tiny_graph, eval_nodes=test)

        assert len(degraded.history) == config.epochs
        assert all(len(r.failed_workers) == 1 for r in degraded.history)
        assert abs(degraded.metrics["auc"] - clean.metrics["auc"]) <= 0.05

    def test_all_workers_crashed_raises_typed_error(
        self, detector_config, tiny_graph, tiny_splits
    ):
        """A round with zero survivors (scripted, bypassing the plan's
        survivor guarantee) surfaces NoSurvivorsError — a total outage
        must be handled by a supervisor (rollback), never silently
        skipped — and must not step the optimiser."""
        from repro.train.distributed import NoSurvivorsError, make_worker_partitions

        train, _ = tiny_splits
        workers = make_worker_partitions(tiny_graph, train, num_workers=2, num_partitions=8)

        class TotalOutagePlan:
            straggler_slowdown = 1.0

            def epoch_faults(self, epoch):
                return {0: "crash", 1: "crash"}

        model = GEMModel(detector_config)
        trainer = DistributedTrainer(
            model, workers, TrainConfig(epochs=1), fault_plan=TotalOutagePlan()
        )
        before = {k: v.copy() for k, v in model.state_dict().items()}
        with pytest.raises(NoSurvivorsError, match="all 2 workers"):
            trainer.train_epoch(0)
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)
