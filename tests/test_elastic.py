"""Elastic self-healing training: detector, re-shard, rollback, rejoin.

Everything runs on a ManualClock, so every suspicion value, eviction,
and rollback in this file is exactly reproducible.
"""

import pickle
import zlib

import numpy as np
import pytest

from repro.data import load_dataset
from repro.models import DetectorConfig, GEMModel, XFraudDetectorPlus
from repro.reliability import CheckpointError, CheckpointManager, FaultPlan, ManualClock
from repro.reliability.checkpoint import capture_training_state
from repro.reliability.faults import EVICTION
from repro.cluster import DEAD, HEALTHY, PROBING, SUSPECT
from repro.train import (
    DistributedTrainer,
    ElasticConfig,
    ElasticTrainer,
    ElasticTrainingError,
    FailureDetector,
    NoSurvivorsError,
    SkipBudgetExhaustedError,
    TrainConfig,
    Trainer,
    make_worker_partitions,
    rendezvous_assign,
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _detector(workers=(0, 1, 2), **overrides):
    clock = ManualClock()
    defaults = dict(
        suspect_phi=1.0, dead_phi=4.0, window=8, min_std_s=0.25, bootstrap_interval_s=1.0
    )
    defaults.update(overrides)
    return FailureDetector(workers, clock, **defaults), clock


def _warm(detector, clock, workers, beats=6, interval=1.0):
    """Regular heartbeats so phi has a tight history to accrue against."""
    for _ in range(beats):
        clock.advance(interval)
        for worker in workers:
            detector.heartbeat(worker)


def _trainer(
    tiny_graph, tiny_splits, detector_config, num_workers=4, model_class=GEMModel, **kwargs
):
    train, _ = tiny_splits
    kwargs.setdefault("config", TrainConfig(epochs=3, learning_rate=5e-3, seed=0))
    kwargs.setdefault("elastic", ElasticConfig(num_partitions=16))
    model = model_class(detector_config)
    return (
        ElasticTrainer(model, tiny_graph, train, num_workers, **kwargs),
        model,
    )


def _state_crc(model):
    state, crc = model.state_dict(), 0
    for name in sorted(state):
        crc = zlib.crc32(np.ascontiguousarray(state[name]).tobytes(), crc)
    return crc


# ----------------------------------------------------------------------
# rendezvous placement
# ----------------------------------------------------------------------
class TestRendezvousAssign:
    PARTS = np.arange(32)

    def test_deterministic(self):
        a = rendezvous_assign(self.PARTS, [0, 1, 2, 3])
        b = rendezvous_assign(self.PARTS, [0, 1, 2, 3])
        assert a == b

    def test_covers_every_partition_exactly_once(self):
        assignment = rendezvous_assign(self.PARTS, [0, 1, 2, 3, 4])
        owned = sorted(p for parts in assignment.values() for p in parts)
        assert owned == list(range(32))

    def test_eviction_moves_only_victims_partitions(self):
        before = rendezvous_assign(self.PARTS, range(8))
        after = rendezvous_assign(self.PARTS, [m for m in range(8) if m != 2])
        for member in after:
            # every survivor keeps what it had, plus orphans from 2
            assert set(before[member]) <= set(after[member])
        moved = sorted(p for m in after for p in set(after[m]) - set(before[m]))
        assert moved == before[2]

    def test_rejoin_reclaims_exactly_its_partitions(self):
        full = rendezvous_assign(self.PARTS, range(8))
        without = rendezvous_assign(self.PARTS, [m for m in range(8) if m != 5])
        back = rendezvous_assign(self.PARTS, range(8))
        assert back == full
        lost = sorted(p for m in without for p in set(without[m]) - set(full[m]))
        assert lost == full[5]

    def test_member_ids_not_positions(self):
        """Placement keys off worker *ids*: {0,1,2} and {5,9,40} give
        different owners, but dropping an id never renumbers survivors."""
        sparse = rendezvous_assign(self.PARTS, [5, 9, 40])
        assert set(sparse) == {5, 9, 40}
        smaller = rendezvous_assign(self.PARTS, [5, 40])
        assert set(smaller[5]) >= set(sparse[5])
        assert set(smaller[40]) >= set(sparse[40])

    def test_seed_changes_placement(self):
        assert rendezvous_assign(self.PARTS, range(4), seed=0) != rendezvous_assign(
            self.PARTS, range(4), seed=1
        )

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            rendezvous_assign(self.PARTS, [])

    def test_make_worker_partitions_members_mode(self, tiny_graph, tiny_splits):
        train, _ = tiny_splits
        workers = make_worker_partitions(
            tiny_graph, train, members=[0, 3, 7], num_partitions=16
        )
        assert [w.worker_id for w in workers] == [0, 3, 7]
        total = sum(len(w.original_ids) for w in workers)
        assert total == tiny_graph.num_nodes

    def test_make_worker_partitions_allows_empty_shard(self, tiny_graph, tiny_splits):
        """A member that wins no partition gets an empty (but valid) shard."""
        train, _ = tiny_splits
        partition_ids = np.zeros(tiny_graph.num_nodes, dtype=np.int64)  # one partition
        workers = make_worker_partitions(
            tiny_graph, train, members=[0, 1], partition_ids=partition_ids
        )
        sizes = sorted(len(w.original_ids) for w in workers)
        assert sizes == [0, tiny_graph.num_nodes]


# ----------------------------------------------------------------------
# phi-accrual failure detection
# ----------------------------------------------------------------------
class TestFailureDetector:
    def test_starts_healthy(self):
        detector, _ = _detector()
        assert all(detector.state(w) == HEALTHY for w in detector.workers())

    def test_phi_grows_with_silence(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        clock.advance(1.0)
        low = detector.phi(0)
        clock.advance(3.0)
        assert detector.phi(0) > low

    def test_phi_zero_right_after_heartbeat(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        assert detector.phi(0) == 0.0

    def test_silent_worker_becomes_suspect_then_dead(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        clock.advance(1.8)
        assert (0, HEALTHY, SUSPECT) in detector.poll()
        clock.advance(10.0)
        assert (0, SUSPECT, DEAD) in detector.poll()
        assert detector.state(0) == DEAD

    def test_heartbeat_recants_suspicion(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        clock.advance(1.8)
        detector.poll()
        assert detector.state(0) == SUSPECT
        detector.heartbeat(0)
        assert detector.state(0) == HEALTHY

    def test_dead_worker_heartbeat_moves_to_probing_not_healthy(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        clock.advance(30.0)
        detector.poll()
        assert detector.state(0) == DEAD
        detector.heartbeat(0)
        assert detector.state(0) == PROBING

    def test_confirm_promotes_probing_to_healthy(self):
        detector, clock = _detector()
        detector.mark_probing(1)
        assert detector.state(1) == PROBING
        detector.confirm(1)
        assert detector.state(1) == HEALTHY

    def test_confirm_is_noop_for_healthy(self):
        detector, _ = _detector()
        detector.confirm(0)
        assert detector.state(0) == HEALTHY
        assert detector.transitions == []

    def test_mark_probing_clears_stale_history(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        clock.advance(100.0)
        detector.mark_probing(0)
        # fresh history: the bootstrap prior applies again
        assert list(detector._intervals[0]) == []
        assert detector.phi(0) == 0.0

    def test_live_workers_unaffected_by_dead_peer(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        for _ in range(20):
            clock.advance(1.0)
            detector.heartbeat(1)
            detector.heartbeat(2)
            detector.poll()
        assert detector.state(0) == DEAD
        assert detector.state(1) == HEALTHY
        assert detector.state(2) == HEALTHY

    def test_bootstrap_prior_before_history(self):
        detector, clock = _detector(bootstrap_interval_s=2.0)
        clock.advance(2.0)
        assert detector.phi(0) < 1.0  # on schedule: unsuspicious
        clock.advance(8.0)
        assert detector.phi(0) > 4.0  # 5x the expected interval

    def test_min_std_floor_prevents_hair_trigger(self):
        """A metronomically regular worker (zero variance) must not be
        declared dead by a tiny scheduling hiccup."""
        detector, clock = _detector(min_std_s=0.25)
        _warm(detector, clock, [0], beats=8, interval=1.0)
        clock.advance(1.1)  # 100 ms late
        assert detector.phi(0) < 1.0

    def test_phi_is_finite_even_after_long_silence(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        clock.advance(1e6)
        assert np.isfinite(detector.phi(0))

    def test_add_and_remove_workers(self):
        detector, clock = _detector([0])
        detector.add(7)
        assert detector.workers() == [0, 7]
        detector.remove(0)
        assert detector.workers() == [7]
        detector.heartbeat(0)  # unknown worker: ignored
        assert detector.workers() == [7]

    def test_poll_recants_suspect_whose_phi_dropped(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        clock.advance(1.8)
        detector.poll()
        assert detector.state(0) == SUSPECT
        detector.heartbeat(0, at=clock())
        assert detector.state(0) == HEALTHY

    def test_transitions_are_recorded_in_order(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        clock.advance(30.0)
        detector.poll()
        kinds = [(w, f, t) for (_, w, f, t) in detector.transitions]
        assert (0, HEALTHY, DEAD) in kinds or (0, SUSPECT, DEAD) in kinds

    def test_state_dict_roundtrip(self):
        detector, clock = _detector()
        _warm(detector, clock, [0, 1, 2])
        clock.advance(30.0)
        detector.poll()
        snapshot = detector.state_dict()
        other, _ = _detector()
        other.load_state_dict(snapshot)
        assert other.state(0) == detector.state(0)
        assert other._last == detector._last
        assert {w: list(iv) for w, iv in other._intervals.items()} == {
            w: list(iv) for w, iv in detector._intervals.items()
        }

    def test_validation(self):
        with pytest.raises(ValueError, match="suspect_phi"):
            FailureDetector([0], ManualClock(), suspect_phi=5.0, dead_phi=4.0)
        with pytest.raises(ValueError, match="window"):
            FailureDetector([0], ManualClock(), window=1)
        with pytest.raises(ValueError, match="positive"):
            FailureDetector([0], ManualClock(), min_std_s=0.0)


# ----------------------------------------------------------------------
# config validation / construction
# ----------------------------------------------------------------------
class TestElasticConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ElasticConfig(num_partitions=0)
        with pytest.raises(ValueError):
            ElasticConfig(skip_budget=-1)

    def test_trainer_rejects_non_advanceable_clock(
        self, tiny_graph, tiny_splits, detector_config
    ):
        import time

        with pytest.raises(TypeError, match="advanceable"):
            _trainer(tiny_graph, tiny_splits, detector_config, clock=time.monotonic)

    def test_trainer_needs_enough_partitions(
        self, tiny_graph, tiny_splits, detector_config
    ):
        with pytest.raises(ValueError, match="num_partitions"):
            _trainer(
                tiny_graph,
                tiny_splits,
                detector_config,
                num_workers=8,
                elastic=ElasticConfig(num_partitions=4),
            )


# ----------------------------------------------------------------------
# fault-free supervision
# ----------------------------------------------------------------------
class TestElasticBasics:
    def test_fault_free_run_trains(self, tiny_graph, tiny_splits, detector_config):
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config)
        _, test = tiny_splits
        result = trainer.fit(tiny_graph, test)
        assert len(result.history) == 3
        assert result.history[-1].loss < result.history[0].loss
        assert result.metrics["auc"] > 0.5

    def test_fault_free_run_has_no_supervision_events(
        self, tiny_graph, tiny_splits, detector_config
    ):
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config)
        result = trainer.fit()
        assert result.total_evictions == 0
        assert result.total_rejoins == 0
        assert result.total_quarantined == 0
        assert result.total_rollbacks == 0
        assert all(record.members == [0, 1, 2, 3] for record in result.history)

    def test_membership_matches_shards(self, tiny_graph, tiny_splits, detector_config):
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config)
        assert [w.worker_id for w in trainer.engine.workers] == sorted(trainer.members)

    def test_deterministic_across_runs(self, tiny_graph, tiny_splits, detector_config):
        r1 = _trainer(tiny_graph, tiny_splits, detector_config)[0].fit()
        r2 = _trainer(tiny_graph, tiny_splits, detector_config)[0].fit()
        assert [e.loss for e in r1.history] == [e.loss for e in r2.history]
        assert [e.wall_seconds for e in r1.history] == [e.wall_seconds for e in r2.history]


# ----------------------------------------------------------------------
# eviction / re-shard / rollback
# ----------------------------------------------------------------------
class TestEviction:
    def test_killed_workers_are_evicted(self, tiny_graph, tiny_splits, detector_config):
        plan = FaultPlan(num_workers=4, worker_kill={1: [2]})
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)
        result = trainer.fit()
        assert result.history[1].evicted == [2]
        assert result.history[1].retries == 1
        assert result.history[1].members == [0, 1, 3]
        assert result.history[2].members == [0, 1, 3]
        assert trainer.detector.state(2) == DEAD

    def test_eviction_rolls_back_to_checkpoint(
        self, tiny_graph, tiny_splits, detector_config
    ):
        plan = FaultPlan(num_workers=4, worker_kill={1: [1]})
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)
        result = trainer.fit()
        assert result.total_rollbacks == 1

    def test_eviction_reshards_over_survivors(
        self, tiny_graph, tiny_splits, detector_config
    ):
        plan = FaultPlan(num_workers=4, worker_kill={1: [2]})
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)
        trainer.fit()
        assert [w.worker_id for w in trainer.engine.workers] == [0, 1, 3]
        covered = sum(len(w.original_ids) for w in trainer.engine.workers)
        assert covered == tiny_graph.num_nodes

    def test_all_workers_killed_aborts(self, tiny_graph, tiny_splits, detector_config):
        plan = FaultPlan(num_workers=2, worker_kill={0: [0, 1]})
        trainer, _ = _trainer(
            tiny_graph, tiny_splits, detector_config, num_workers=2, fault_plan=plan
        )
        with pytest.raises(ElasticTrainingError, match="dead or dying"):
            trainer.fit()

    def test_kill_two_of_eight(self, tiny_graph, tiny_splits, detector_config):
        plan = FaultPlan(num_workers=8, worker_kill={1: [2, 5]})
        trainer, _ = _trainer(
            tiny_graph, tiny_splits, detector_config, num_workers=8, fault_plan=plan
        )
        result = trainer.fit()
        assert sorted(result.history[1].evicted) == [2, 5]
        assert result.history[-1].members == [0, 1, 3, 4, 6, 7]


# ----------------------------------------------------------------------
# rejoin
# ----------------------------------------------------------------------
class TestRejoin:
    def test_evicted_worker_rejoins_via_probing(
        self, tiny_graph, tiny_splits, detector_config
    ):
        plan = FaultPlan(num_workers=4, worker_kill={0: [3]}, worker_rejoin={2: [3]})
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)
        result = trainer.fit()
        assert result.history[0].evicted == [3]
        assert result.history[2].rejoined == [3]
        assert result.history[2].members == [0, 1, 2, 3]
        # its first completed round confirmed it healthy again
        assert trainer.detector.state(3) == HEALTHY

    def test_rejoin_restores_shard_ownership(
        self, tiny_graph, tiny_splits, detector_config
    ):
        plan = FaultPlan(num_workers=4, worker_kill={0: [3]}, worker_rejoin={1: [3]})
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)
        original = rendezvous_assign(trainer.partition_ids, [0, 1, 2, 3], seed=0)
        trainer.fit()
        restored = {
            p.worker_id: sorted(np.unique(trainer.partition_ids[p.original_ids]).tolist())
            for p in trainer.engine.workers
        }
        assert restored[3] == original[3]

    def test_rejoin_of_never_evicted_worker_is_ignored(
        self, tiny_graph, tiny_splits, detector_config
    ):
        plan = FaultPlan(num_workers=4, worker_rejoin={1: [2]})
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)
        result = trainer.fit()
        assert result.total_rejoins == 0

    def test_rejoin_records_catch_up_event(self, tiny_graph, tiny_splits, detector_config):
        plan = FaultPlan(num_workers=4, worker_kill={0: [3]}, worker_rejoin={2: [3]})
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)
        result = trainer.fit()
        details = [e.detail for e in result.history[2].events if e.kind == "rejoin"]
        assert details and "caught up from epoch 1" in details[0]


# ----------------------------------------------------------------------
# slow workers
# ----------------------------------------------------------------------
class TestStraggler:
    def test_slow_worker_changes_no_parameter(self, tiny_graph, tiny_splits, detector_config):
        """A 5x-slow worker stretches its round's simulated wall-clock
        only: parameters equal the run where it was never slow."""
        plan = FaultPlan(num_workers=4, worker_slow={1: {2: 5.0}})
        t1, m1 = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)
        t2, m2 = _trainer(tiny_graph, tiny_splits, detector_config)
        slowed, baseline = t1.fit(), t2.fit()
        s1, s2 = m1.state_dict(), m2.state_dict()
        assert all(np.array_equal(s1[k], s2[k]) for k in s1)
        assert slowed.history[1].wall_seconds > baseline.history[1].wall_seconds


# ----------------------------------------------------------------------
# gradient integrity / quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_nan_gradient_quarantined(self, tiny_graph, tiny_splits, detector_config):
        plan = FaultPlan(num_workers=4, grad_corrupt={1: [2]})
        result = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)[0].fit()
        assert result.history[1].quarantined == [2]
        details = [e.detail for e in result.history[1].events if e.kind == "quarantine"]
        assert details == ["gradient quarantined (nan)"]

    def test_bitflip_caught_by_checksum(self, tiny_graph, tiny_splits, detector_config):
        plan = FaultPlan(num_workers=4, grad_corrupt={1: {2: "bitflip"}})
        result = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)[0].fit()
        details = [e.detail for e in result.history[1].events if e.kind == "quarantine"]
        assert details == ["gradient quarantined (checksum)"]

    def test_quarantine_renormalises_and_still_steps(
        self, tiny_graph, tiny_splits, detector_config
    ):
        plan = FaultPlan(num_workers=4, grad_corrupt={1: [2]})
        trainer, model = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)
        result = trainer.fit()
        assert len(result.history) == 3  # run completed despite corruption
        assert all(np.isfinite(record.loss) for record in result.history)
        assert all(np.isfinite(p.data).all() for p in model.parameters())

    def test_budget_exhaustion_aborts(self, tiny_graph, tiny_splits, detector_config):
        # every epoch corrupts two workers: budget of 3 dies in epoch 1
        plan = FaultPlan(
            num_workers=4, grad_corrupt={e: [1, 2] for e in range(3)}
        )
        trainer, _ = _trainer(
            tiny_graph,
            tiny_splits,
            detector_config,
            fault_plan=plan,
            elastic=ElasticConfig(num_partitions=16, skip_budget=3),
        )
        with pytest.raises(SkipBudgetExhaustedError, match="budget is 3"):
            trainer.fit()

    def test_zero_budget_aborts_on_first_corruption(
        self, tiny_graph, tiny_splits, detector_config
    ):
        plan = FaultPlan(num_workers=4, grad_corrupt={0: [1]})
        trainer, _ = _trainer(
            tiny_graph,
            tiny_splits,
            detector_config,
            fault_plan=plan,
            elastic=ElasticConfig(num_partitions=16, skip_budget=0),
        )
        with pytest.raises(SkipBudgetExhaustedError):
            trainer.fit()

    def test_all_shards_quarantined_rolls_back_and_retries(
        self, tiny_graph, tiny_splits, detector_config
    ):
        """Corrupting every worker exhausts the budget via rollback
        retries rather than training on nothing."""
        plan = FaultPlan(num_workers=2, grad_corrupt={1: [0, 1]})
        trainer, _ = _trainer(
            tiny_graph,
            tiny_splits,
            detector_config,
            num_workers=2,
            fault_plan=plan,
            elastic=ElasticConfig(num_partitions=16, skip_budget=100),
        )
        with pytest.raises(ElasticTrainingError, match="no usable gradients"):
            trainer.fit()


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
class TestResume:
    def test_resume_requires_manager(self, tiny_graph, tiny_splits, detector_config):
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config)
        with pytest.raises(ElasticTrainingError, match="checkpoint manager"):
            trainer.fit(resume=True)

    def test_kill_and_resume_is_bitwise_identical(
        self, tiny_graph, tiny_splits, detector_config, tmp_path
    ):
        """Stop right after the eviction epoch (mid-rebalance) and
        resume in a fresh process-equivalent: parameters, membership,
        detector state, and final metrics match the uninterrupted run."""
        _, test = tiny_splits
        plan = lambda: FaultPlan(
            num_workers=4, worker_kill={1: [2]}, worker_rejoin={2: [2]}
        )
        straight, m1 = _trainer(
            tiny_graph, tiny_splits, detector_config, fault_plan=plan()
        )
        r1 = straight.fit(tiny_graph, test)

        half, _ = _trainer(
            tiny_graph,
            tiny_splits,
            detector_config,
            fault_plan=plan(),
            checkpoint=str(tmp_path),
        )
        half.fit(tiny_graph, test, stop_after_epoch=1)
        resumed, m2 = _trainer(
            tiny_graph,
            tiny_splits,
            detector_config,
            fault_plan=plan(),
            checkpoint=str(tmp_path),
        )
        r2 = resumed.fit(tiny_graph, test, resume=True)

        s1, s2 = m1.state_dict(), m2.state_dict()
        assert all(np.array_equal(s1[k], s2[k]) for k in s1)
        assert r1.metrics == r2.metrics
        assert [e.members for e in r1.history] == [e.members for e in r2.history]
        assert resumed.detector.state(2) == straight.detector.state(2)

    def test_resume_into_the_trainer_that_stopped_is_bitwise_identical(
        self, tiny_graph, tiny_splits, detector_config, tmp_path
    ):
        """The stopped trainer's parameters are views of its optimiser's
        flat buffer: the restore writes through them, and the run steps
        on to the uninterrupted run's bits."""
        _, test = tiny_splits
        plan = lambda: FaultPlan(num_workers=4, worker_kill={1: [2]}, worker_rejoin={2: [2]})
        straight, m1 = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan())
        straight.fit(tiny_graph, test)
        trainer, m2 = _trainer(
            tiny_graph, tiny_splits, detector_config, fault_plan=plan(), checkpoint=str(tmp_path)
        )
        trainer.fit(tiny_graph, test, stop_after_epoch=1)
        trainer.fit(tiny_graph, test, resume=True)
        assert _state_crc(m1) == _state_crc(m2)

    def test_a_plain_trainers_checkpoint_is_refused_before_anything_moves(
        self, tiny_graph, tiny_splits, detector_config, tmp_path
    ):
        """``Trainer.fit(checkpoint=...)`` writes no "elastic" section:
        resuming from it raised a bare ``TypeError`` after overwriting
        the parameters."""
        train, _ = tiny_splits
        plain = Trainer(GEMModel(detector_config), TrainConfig(epochs=1, seed=0))
        plain.fit(tiny_graph, train, checkpoint=str(tmp_path))
        trainer, model = _trainer(
            tiny_graph, tiny_splits, detector_config, checkpoint=str(tmp_path)
        )

        def state():
            engine = trainer.engine
            return pickle.dumps(capture_training_state(model, engine.optimizer, engine.rng, 0))

        before = state()
        with pytest.raises(CheckpointError, match='epoch 0 has no "elastic" section'):
            trainer.fit(resume=True)
        assert state() == before

    def test_stop_after_epoch_truncates(self, tiny_graph, tiny_splits, detector_config, tmp_path):
        trainer, _ = _trainer(
            tiny_graph, tiny_splits, detector_config, checkpoint=str(tmp_path)
        )
        result = trainer.fit(stop_after_epoch=0)
        assert len(result.history) == 1

    def test_resume_restores_history(self, tiny_graph, tiny_splits, detector_config, tmp_path):
        plan = FaultPlan(num_workers=4, worker_kill={0: [1]})
        trainer, _ = _trainer(
            tiny_graph, tiny_splits, detector_config, fault_plan=plan, checkpoint=str(tmp_path)
        )
        trainer.fit(stop_after_epoch=1)
        resumed, _ = _trainer(
            tiny_graph, tiny_splits, detector_config, fault_plan=plan, checkpoint=str(tmp_path)
        )
        result = resumed.fit(resume=True)
        assert len(result.history) == 3
        assert result.history[0].evicted == [1]  # restored, not re-run


# ----------------------------------------------------------------------
# observability wiring
# ----------------------------------------------------------------------
class TestObservability:
    def test_counters_and_gauges(self, tiny_graph, tiny_splits, detector_config):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        plan = FaultPlan(
            num_workers=4,
            worker_kill={0: [3]},
            worker_rejoin={1: [3]},
            worker_slow={2: {1: 5.0}},
            grad_corrupt={2: [0]},
        )
        trainer, _ = _trainer(
            tiny_graph, tiny_splits, detector_config, fault_plan=plan, registry=registry
        )
        trainer.fit()
        text = registry.render()
        assert 'elastic_evictions_total{worker="3"} 1' in text
        assert 'elastic_rejoins_total{worker="3"} 1' in text
        assert 'elastic_quarantines_total{worker="0",reason="nan"} 1' in text
        assert "elastic_rollbacks_total 1" in text
        assert "elastic_members 4" in text
        assert "elastic_worker_suspicion" in text

    def test_supervision_spans(self, tiny_graph, tiny_splits, detector_config):
        from repro.obs import Tracer

        tracer = Tracer()
        plan = FaultPlan(num_workers=4, worker_kill={1: [2]})
        trainer, _ = _trainer(
            tiny_graph, tiny_splits, detector_config, fault_plan=plan, tracer=tracer
        )
        trainer.fit()
        names = [span.name for span in tracer.spans()]
        assert "supervise_epoch" in names
        assert "evict" in names
        assert "reshard" in names
        assert "rollback" in names


# ----------------------------------------------------------------------
# one engine under one supervisor
# ----------------------------------------------------------------------
class TestSupervisorOverEngine:
    @pytest.mark.parametrize("model_class", [GEMModel, XFraudDetectorPlus])
    def test_fault_free_supervised_run_is_the_engine_run(
        self, tiny_graph, tiny_splits, detector_config, model_class
    ):
        """No faults: the supervisor adds heartbeats and bookkeeping
        around the engine's round, and not one bit to its arithmetic."""
        config = TrainConfig(epochs=3, batch_size=64, learning_rate=5e-3, seed=0)
        supervisor, supervised = _trainer(
            tiny_graph, tiny_splits, detector_config, model_class=model_class, config=config
        )
        shards = make_worker_partitions(
            tiny_graph,
            tiny_splits[0],
            members=range(4),
            partition_ids=supervisor.partition_ids,
            seed=config.seed,
        )
        plain = model_class(detector_config)
        engine_result = DistributedTrainer(plain, shards, config).fit()
        result = supervisor.fit()
        assert [e.loss for e in result.history] == [e.loss for e in engine_result.history]
        s1, s2 = supervised.state_dict(), plain.state_dict()
        assert all(np.array_equal(s1[k], s2[k]) for k in s1)

    def test_worker_dying_in_the_round_it_rejoins_is_evicted(
        self, tiny_graph, tiny_splits, detector_config
    ):
        """A worker that dies before completing the round it rejoins in
        is evicted in that round — the detector re-scores a probing
        worker and declares it dead — not kept as a member whose
        partitions nobody trains."""
        plan = FaultPlan(num_workers=4, worker_kill={0: [3], 1: [3]}, worker_rejoin={1: [3]})
        trainer, _ = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan)
        result = trainer.fit()
        rejoin_round = result.history[1]
        assert rejoin_round.rejoined == [3] and rejoin_round.evicted == [3]
        assert rejoin_round.events[-1].detail == "declared dead by phi-accrual detector"
        assert [record.members for record in result.history[1:]] == [[0, 1, 2]] * 2
        assert [w.worker_id for w in trainer.engine.workers] == [0, 1, 2]
        assert result.history[2].wall_seconds < 2.0  # no round stalls on it again

    def test_worker_killed_while_probing_is_declared_dead(self):
        # ebay-small-sim, four workers: worker 2 killed at epoch 1, then
        # readmitted probing at epoch 3 and killed again in that round.
        # Both evictions are the phi-accrual detector's verdict.
        bundle = load_dataset("ebay-small-sim", seed=0, scale=0.1)
        plan = FaultPlan(num_workers=4, worker_kill={1: [2], 3: [2]}, worker_rejoin={3: [2]})
        model = GEMModel(DetectorConfig(feature_dim=bundle.graph.feature_dim, seed=0))
        trainer = ElasticTrainer(
            model, bundle.graph, bundle.train_nodes, 4,
            config=TrainConfig(epochs=4, batch_size=512, seed=0), fault_plan=plan,
        )
        result = trainer.fit()
        evictions = [
            (record.epoch, event.detail)
            for record in result.history
            for event in record.events
            if event.kind == EVICTION and event.worker_id == 2
        ]
        assert evictions == [
            (1, "declared dead by phi-accrual detector"),
            (3, "declared dead by phi-accrual detector"),
        ]
        moves = [(start, end) for _, worker, start, end in trainer.detector.transitions if worker == 2]
        assert moves[-2:] == [(DEAD, PROBING), (PROBING, DEAD)]


class TestSupervisorParentParity:
    """The CI chaos schedule on the tiny graph, every number taken from
    a run of this same body at the commit before the supervisor was
    moved onto ``DistributedTrainer.shard_gradients`` / ``step`` and
    the shared snapshot functions: the merge changed no decision, no
    simulated second and no bit of the trained model.

    ``WALL_SECONDS[2]`` and ``TRANSITIONS`` were re-taken from a run
    when the straggler backup was deleted: epoch 2 now waits out worker
    1's 4x step (3.076 simulated seconds, 2.859 with the backup), and
    that longer round adds two detector transitions. The losses, the
    decisions and the model's CRC did not move."""

    LOSSES = [
        0.5093478548980103,
        0.44147226045153837,
        0.41215170434314335,
        0.27525511656342627,
        0.23955859783661235,
    ]
    # members, evicted, rejoined, quarantined, retries
    DECISIONS = [
        ([0, 1, 2, 3, 4, 5, 6, 7], [], [], [], 0),
        ([0, 1, 3, 4, 6, 7], [2, 5], [], [], 1),
        ([0, 1, 3, 4, 6, 7], [], [], [3], 0),
        ([0, 1, 3, 4, 5, 6, 7], [], [5], [], 0),
        ([0, 1, 3, 4, 5, 6, 7], [], [], [], 0),
    ]
    WALL_SECONDS = [
        1.1916554041068212,
        1.1916554041068212,
        3.07552187749686,
        1.1916554041068212,
        1.1916554041068212,
    ]
    TRANSITIONS = [
        (2.3833108082136425, 2, "healthy", "suspect"),
        (2.3833108082136425, 5, "healthy", "suspect"),
        (3.3833108082136425, 2, "suspect", "dead"),
        (3.3833108082136425, 5, "suspect", "dead"),
        (7.650488089817323, 0, "healthy", "suspect"),
        (7.650488089817323, 3, "healthy", "dead"),
        (7.650488089817323, 4, "healthy", "suspect"),
        (7.650488089817323, 6, "healthy", "dead"),
        (7.650488089817323, 7, "healthy", "dead"),
        (7.650488089817323, 5, "dead", "probing"),
        (8.410293982789568, 6, "dead", "probing"),
        (8.67938531277761, 3, "dead", "probing"),
        (8.720874583828031, 7, "dead", "probing"),
        (8.796209914411005, 4, "suspect", "healthy"),
        (8.842143493924144, 0, "suspect", "healthy"),
        (8.842143493924144, 3, "probing", "healthy"),
        (8.842143493924144, 5, "probing", "healthy"),
        (8.842143493924144, 6, "probing", "healthy"),
        (8.842143493924144, 7, "probing", "healthy"),
    ]
    STATE_CRC = 3729223862

    def test_ci_chaos_schedule_matches_the_parent_commit(
        self, tiny_graph, tiny_splits, detector_config
    ):
        plan = FaultPlan(
            num_workers=8,
            worker_kill={1: [2, 5]},
            worker_rejoin={3: [5]},
            worker_slow={2: {1: 4.0}},
            grad_corrupt={2: [3]},
        )
        trainer, model = _trainer(
            tiny_graph,
            tiny_splits,
            detector_config,
            num_workers=8,
            config=TrainConfig(epochs=5, learning_rate=5e-3, seed=0),
            fault_plan=plan,
        )
        history = trainer.fit(tiny_graph, tiny_splits[1]).history
        assert [record.loss for record in history] == pytest.approx(self.LOSSES, abs=1e-12)
        decisions = [
            (r.members, r.evicted, r.rejoined, r.quarantined, r.retries) for r in history
        ]
        assert decisions == self.DECISIONS
        assert [record.wall_seconds for record in history] == self.WALL_SECONDS
        assert trainer.detector.transitions == self.TRANSITIONS
        assert _state_crc(model) == self.STATE_CRC


class TestCheckpointFormat:
    """What an elastic checkpoint holds, spelled out: a directory
    written before the snapshot functions were shared must keep
    loading, so these names are the format."""

    def test_elastic_checkpoint_sections(self, tiny_graph, tiny_splits, detector_config, tmp_path):
        trainer, _ = _trainer(
            tiny_graph, tiny_splits, detector_config, checkpoint=str(tmp_path)
        )
        trainer.fit(stop_after_epoch=0)
        state = CheckpointManager(str(tmp_path)).load()
        assert set(state.rng_states) == {"trainer", "model", "elastic"}
        assert set(state.section("elastic")) == {
            "members",
            "killed",
            "evicted",
            "budget_used",
            "clock",
            "detector",
        }
        assert set(state.section("elastic")["detector"]) == {"states", "last", "intervals"}
        assert state.epoch == 0 and len(state.history) == 1
        assert state.best_state is None

    def test_a_checkpoint_written_with_straggler_backups_resumes(
        self, tiny_graph, tiny_splits, detector_config, tmp_path
    ):
        """Before the straggler backup was deleted, the elastic section
        held an ``ewma`` map, every record a ``backups`` column, and a
        record whose epoch fired one a ``backup`` event. Such a
        checkpoint resumes to the uninterrupted run's parameters and
        records."""
        _, test = tiny_splits
        plan = lambda: FaultPlan(num_workers=4, worker_kill={1: [2]}, worker_rejoin={2: [2]})
        straight, m1 = _trainer(tiny_graph, tiny_splits, detector_config, fault_plan=plan())
        r1 = straight.fit(tiny_graph, test)

        half, _ = _trainer(
            tiny_graph, tiny_splits, detector_config, fault_plan=plan(), checkpoint=str(tmp_path)
        )
        half.fit(tiny_graph, test, stop_after_epoch=1)
        manager = CheckpointManager(str(tmp_path))
        state = manager.load()
        state.section("elastic")["ewma"] = {"0": 1.1, "1": 0.9, "3": 1.0}
        for record in state.history:
            record["backups"] = []
        state.history[1]["backups"] = [3]
        state.history[1]["events"].append(
            {"epoch": 1, "worker_id": 3, "kind": "backup", "detail": "backup on worker 1"}
        )
        manager.save(state)

        resumed, m2 = _trainer(
            tiny_graph, tiny_splits, detector_config, fault_plan=plan(), checkpoint=str(tmp_path)
        )
        r2 = resumed.fit(tiny_graph, test, resume=True)
        assert _state_crc(m1) == _state_crc(m2)
        assert r2.history == r1.history
        assert r2.metrics == r1.metrics


# ----------------------------------------------------------------------
# the chaos gate end to end (CLI)
# ----------------------------------------------------------------------
class TestChaosGate:
    ARGS = ["train", "--elastic", "--scale", "0.1", "--batch-size", "512"]

    def test_plain_elastic_run(self, capsys):
        from repro.cli import main

        code = main(self.ARGS + ["--epochs", "2", "--workers", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "elastic training over 4 workers" in out
        assert "auc=" in out

    def test_chaos_gate_passes(self, capsys):
        from repro.cli import main

        code = main(self.ARGS + ["--epochs", "5", "--workers", "8", "--chaos"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos gate passed" in out
        assert "evictions      : 2" in out
        assert "rejoins        : 1" in out

    def test_chaos_gate_rejects_wrong_fleet(self, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--epochs", "5", "--workers", "4", "--chaos"]) == 2

    def test_cli_stop_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        common = self.ARGS + [
            "--epochs",
            "3",
            "--workers",
            "4",
            "--checkpoint-dir",
            str(tmp_path),
        ]
        assert main(common + ["--stop-after-epoch", "0"]) == 0
        assert main(common + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "elastic training over 4 workers" in out
