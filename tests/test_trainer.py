"""Single-machine trainer: learning, early stopping, evaluation."""

import numpy as np
import pytest

from repro.models import DetectorConfig, GEMModel, XFraudDetectorPlus
from repro.train import TrainConfig, Trainer, measure_inference_time, roc_auc
from repro.util import release_free_memory


class TestTraining:
    def test_loss_decreases(self, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        model = XFraudDetectorPlus(detector_config)
        trainer = Trainer(model, TrainConfig(epochs=6, learning_rate=5e-3, seed=0))
        result = trainer.fit(tiny_graph, train)
        losses = [r.loss for r in result.history]
        assert losses[-1] < losses[0]

    def test_model_beats_chance(self, trained_detector, tiny_graph, tiny_splits):
        _, test = tiny_splits
        scores = trained_detector.predict_proba(tiny_graph, test)
        auc = roc_auc(tiny_graph.labels[test], scores)
        assert auc > 0.7

    def test_evaluate_returns_metric_dict(self, trained_detector, tiny_graph, tiny_splits):
        _, test = tiny_splits
        trainer = Trainer(trained_detector, TrainConfig(epochs=0))
        metrics = trainer.evaluate(tiny_graph, test)
        assert set(metrics) == {"accuracy", "ap", "auc"}
        assert 0 <= metrics["accuracy"] <= 1
        assert 0 <= metrics["ap"] <= 1

    def test_history_records_timing(self, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        model = GEMModel(detector_config)
        trainer = Trainer(model, TrainConfig(epochs=2))
        result = trainer.fit(tiny_graph, train)
        assert len(result.history) == 2
        assert all(r.seconds > 0 for r in result.history)
        assert result.seconds_per_epoch > 0

    def test_eval_nodes_tracked(self, tiny_graph, tiny_splits, detector_config):
        train, test = tiny_splits
        model = GEMModel(detector_config)
        trainer = Trainer(model, TrainConfig(epochs=3))
        result = trainer.fit(tiny_graph, train, eval_nodes=test)
        assert all(r.eval_auc is not None for r in result.history)
        assert result.best_auc > 0

    def test_early_stopping_restores_best(self, tiny_graph, tiny_splits, detector_config):
        train, test = tiny_splits
        model = GEMModel(detector_config)
        trainer = Trainer(model, TrainConfig(epochs=8, patience=1, learning_rate=0.05))
        result = trainer.fit(tiny_graph, train, eval_nodes=test)
        # The restored model must reproduce the best recorded AUC.
        scores = model.predict_proba(tiny_graph, test)
        final_auc = roc_auc(tiny_graph.labels[test], scores)
        assert final_auc == pytest.approx(result.best_auc, abs=1e-9)

    def test_same_seed_is_deterministic(self, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits

        def run():
            model = GEMModel(detector_config)
            trainer = Trainer(model, TrainConfig(epochs=2, seed=1))
            trainer.fit(tiny_graph, train)
            return model.predict_proba(tiny_graph, train[:5])

        np.testing.assert_allclose(run(), run())


class TestFitReturnsItsHeap:
    """A fit-then-serve process must not stay as big as the tape was."""

    def test_fit_trims_once_when_done(self, monkeypatch, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        calls = []
        monkeypatch.setattr("repro.train.trainer.release_free_memory", lambda: calls.append(1))
        Trainer(GEMModel(detector_config), TrainConfig(epochs=2)).fit(tiny_graph, train)
        assert calls == [1]  # once per fit, not per epoch or step

    def test_free_memory_under_a_live_block_goes_back(self):
        if not release_free_memory():
            pytest.skip("this libc has no malloc_trim")

        def rss_mib():
            with open("/proc/self/statm") as handle:
                return int(handle.read().split()[1]) * 4096 / 2**20

        # 100 MiB in 64 KiB blocks (under any mmap threshold, so from the
        # heap), then free all but one in a hundred: free() can return
        # none of it, the survivors sit above every hole.
        blocks = [np.ones(8192) for _ in range(1600)]
        pins = blocks[::100]
        del blocks
        before = rss_mib()
        assert release_free_memory()
        assert before - rss_mib() > 50
        assert all(pin.sum() == 8192 for pin in pins)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"clip_norm": -1.0},  # trained by gradient ascent
            {"clip_norm": float("nan")},
            {"learning_rate": 0.0},
            {"learning_rate": -1e-2},
            {"learning_rate": float("nan")},  # turned every weight NaN
            {"batch_size": 0},
            {"weight_decay": -1e-4},
            {"weight_decay": float("nan")},  # turned every weight and score NaN
            {"epochs": -2},  # returned an empty history
            {"patience": 0},  # ran 0 epochs whenever eval nodes were given
        ],
    )
    def test_refuses_values_that_cannot_train(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)

    def test_accepts_a_clip_of_zero_and_no_clip_at_all(self):
        TrainConfig(clip_norm=0.0)
        TrainConfig(clip_norm=float("inf"), batch_size=1)

    def test_accepts_zero_epochs_and_no_decay(self):
        TrainConfig(epochs=0, weight_decay=0.0, patience=1)


class TestInferenceTiming:
    def test_full_graph_timing(self, trained_detector, tiny_graph, tiny_splits):
        _, test = tiny_splits
        stats = measure_inference_time(trained_detector, tiny_graph, test, batch_size=64)
        assert stats["batches"] == int(np.ceil(len(test) / 64))
        assert stats["mean_s_per_batch"] > 0
        assert stats["total_s"] >= stats["mean_s_per_batch"]

    def test_sampled_timing_uses_sampler(self, trained_detector, tiny_graph, tiny_splits):
        _, test = tiny_splits
        stats = measure_inference_time(
            trained_detector, tiny_graph, test[:32], batch_size=16, sampled=True
        )
        assert stats["batches"] == 2
