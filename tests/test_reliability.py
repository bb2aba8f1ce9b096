"""Fault tolerance: checkpoints, kill-and-resume, fault injectors, fault plans."""

import json
import os
import zlib

import numpy as np
import pytest

from repro import nn
from repro.durable import atomic_write_bytes
from repro.models import GEMModel
from repro.reliability import (
    CheckpointError,
    CheckpointManager,
    FaultPlan,
    FaultyKVStore,
    ManualClock,
    TrainingState,
    TransientReadError,
    capture_training_state,
    collect_rng_states,
    load_training_state,
    restore_rng_states,
    restore_training_state,
)
from repro.storage import InMemoryKVStore, MmapKVStore
from repro.train import TrainConfig, Trainer


def _state(epoch, seed=0):
    rng = np.random.default_rng(seed)
    return TrainingState(
        epoch=epoch,
        model_state={"weight": rng.normal(size=(3, 2)), "bias": rng.normal(size=2)},
        optimizer_state={"lr": 0.01, "step": epoch + 1, "m": [rng.normal(size=(3, 2))]},
        rng_states={"trainer": rng.bit_generator.state},
        best_auc=0.5,
        epochs_since_best=1,
        history=[{"epoch": epoch, "loss": 0.1, "seconds": 0.5, "eval_auc": None}],
    )


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "file.bin")
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        with open(path, "rb") as handle:
            assert handle.read() == b"two"

    def test_no_temp_residue(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "f"), b"x")
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestCheckpointManager:
    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(_state(epoch=2))
        loaded = manager.load()
        assert loaded.epoch == 2
        assert loaded.best_auc == 0.5
        assert loaded.epochs_since_best == 1
        np.testing.assert_array_equal(
            loaded.model_state["weight"], _state(2).model_state["weight"]
        )
        np.testing.assert_array_equal(
            loaded.optimizer_state["m"][0], _state(2).optimizer_state["m"][0]
        )
        assert loaded.optimizer_state["step"] == 3
        assert loaded.history[0]["loss"] == 0.1

    def test_rotation_keeps_last_k(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep_last=2)
        for epoch in range(5):
            manager.save(_state(epoch))
        files = sorted(p for p in os.listdir(tmp_path) if p.startswith("ckpt-"))
        assert files == ["ckpt-000003.npz", "ckpt-000004.npz"]
        assert manager.latest().endswith("ckpt-000004.npz")

    def test_torn_rotation_crash_before_unlink_keeps_newest(self, tmp_path, monkeypatch):
        """Crash between manifest write and stale unlink: the manifest
        must already point at the new checkpoint (orphaned stale file is
        acceptable, losing the pointer is not)."""
        manager = CheckpointManager(str(tmp_path), keep_last=1)
        manager.save(_state(0))

        def crash_unlink(path):
            raise OSError("simulated crash mid-rotation")

        monkeypatch.setattr(os, "remove", crash_unlink)
        with pytest.raises(OSError, match="mid-rotation"):
            manager.save(_state(1))
        monkeypatch.undo()
        # Manifest survived the torn rotation pointing at epoch 1 ...
        assert manager.latest().endswith("ckpt-000001.npz")
        assert manager.load().epoch == 1
        # ... while the stale archive was orphaned on disk, not lost state.
        assert os.path.exists(tmp_path / "ckpt-000000.npz")

    def test_torn_rotation_orphan_is_reaped_by_next_save(self, tmp_path, monkeypatch):
        """An orphan left by a torn rotation does not confuse later
        saves: the next rotation proceeds normally."""
        manager = CheckpointManager(str(tmp_path), keep_last=1)
        manager.save(_state(0))
        monkeypatch.setattr(os, "remove", lambda path: (_ for _ in ()).throw(OSError("crash")))
        with pytest.raises(OSError):
            manager.save(_state(1))
        monkeypatch.undo()
        manager.save(_state(2))
        assert manager.load().epoch == 2
        files = sorted(p for p in os.listdir(tmp_path) if p.startswith("ckpt-"))
        # epoch-0 orphan is outside the manifest; epoch-1 was rotated out.
        assert "ckpt-000002.npz" in files and "ckpt-000001.npz" not in files

    def test_rotation_fsyncs_directory_after_unlinks(self, tmp_path, monkeypatch):
        """The unlink batch is made durable with a directory fsync."""
        from repro.reliability import checkpoint as ckpt_mod

        manager = CheckpointManager(str(tmp_path), keep_last=1)
        manager.save(_state(0))
        stale = tmp_path / "ckpt-000000.npz"
        calls = []
        real = ckpt_mod.fsync_dir
        monkeypatch.setattr(
            ckpt_mod, "fsync_dir", lambda d: (calls.append(stale.exists()), real(d))
        )
        manager.save(_state(1))
        # atomic manifest/archive writes fsync too (stale still present);
        # the rotation's own fsync must come after the unlink removed it.
        assert calls[-1] is False
        assert not stale.exists()

    def test_manifest_has_checksums(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        path = manager.save(_state(0))
        with open(os.path.join(str(tmp_path), "MANIFEST.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        (entry,) = manifest["checkpoints"]
        with open(path, "rb") as handle:
            blob = handle.read()
        assert entry["crc32"] == zlib.crc32(blob)
        assert entry["size"] == len(blob)

    def test_corrupt_checkpoint_detected(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        path = manager.save(_state(0))
        with open(path, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CheckpointError):
            manager.load()

    def test_truncated_checkpoint_detected(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        path = manager.save(_state(0))
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            manager.load()

    def test_empty_directory_rejected(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        assert manager.latest() is None
        with pytest.raises(CheckpointError):
            manager.load()


class TestOptimizerState:
    def test_adamw_resume_matches_continuation(self):
        def make():
            model = nn.Linear(4, 3, rng=np.random.default_rng(0))
            return model, nn.AdamW(model.parameters(), lr=0.05)

        def step(model, optimizer, seed):
            rng = np.random.default_rng(seed)
            for param in model.parameters():
                param.grad = rng.normal(size=param.data.shape)
            optimizer.step()

        model_a, optim_a = make()
        step(model_a, optim_a, 1)
        saved_params = {k: v.copy() for k, v in model_a.state_dict().items()}
        saved_optim = optim_a.state_dict()
        step(model_a, optim_a, 2)

        model_b, optim_b = make()
        model_b.load_state_dict(saved_params)
        optim_b.load_state_dict(saved_optim)
        step(model_b, optim_b, 2)

        for (_, a), (_, b) in zip(model_a.named_parameters(), model_b.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_checkpoint_in_the_per_parameter_format_resumes_bit_exact(self, tmp_path):
        # The on-disk format holds one array per parameter and moment
        # (``optim::m::0000`` ...), as it did before moments moved into
        # one flat buffer: such a checkpoint, written by the
        # per-parameter update, resumes the flat one bit for bit.
        from repro.check.reference import per_parameter_step

        def make():
            model = nn.Linear(4, 3, rng=np.random.default_rng(0))
            return model, nn.AdamW(model.parameters(), lr=0.05, weight_decay=0.1)

        def grads(model, seed):
            rng = np.random.default_rng(seed)
            for param in model.parameters():
                param.grad = rng.normal(size=param.data.shape)

        spec_model, spec_optim = make()
        for seed in (1, 2):
            grads(spec_model, seed)
            per_parameter_step(spec_optim)
        manager = CheckpointManager(str(tmp_path))
        path = manager.save(capture_training_state(spec_model, spec_optim, np.random.default_rng(0), 1))
        with np.load(path) as archive:
            assert {"optim::m::0000", "optim::m::0001", "optim::v::0000", "optim::v::0001"} <= set(
                archive.files
            )
        model, optim = make()
        restore_training_state(manager.load(), model, optim, np.random.default_rng(0))
        for seed in (3, 4):
            grads(spec_model, seed)
            per_parameter_step(spec_optim)
            grads(model, seed)
            optim.step()
        for (_, a), (_, b) in zip(model.named_parameters(), spec_model.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        assert [m.tobytes() for m in optim.state_dict()["m"]] == [
            m.tobytes() for m in spec_optim.state_dict()["m"]
        ]

    def test_adamw_state_shape_mismatch_rejected(self):
        model = nn.Linear(4, 3)
        optim = nn.AdamW(model.parameters())
        other = nn.AdamW(nn.Linear(2, 2).parameters())
        with pytest.raises(ValueError):
            optim.load_state_dict(other.state_dict())

    def test_adamw_moment_roundtrip(self):
        model = nn.Linear(2, 2, rng=np.random.default_rng(0))
        optim = nn.AdamW(model.parameters(), lr=0.1)
        for param in model.parameters():
            param.grad = np.ones_like(param.data)
        optim.step()
        state = optim.state_dict()
        clone = nn.AdamW(model.parameters(), lr=0.1)
        clone.load_state_dict(state)
        np.testing.assert_array_equal(clone._m[0], optim._m[0])
        np.testing.assert_array_equal(clone._v[0], optim._v[0])


class TestRngCapture:
    def test_module_rngs_captured_and_restored(self, detector_config):
        model = GEMModel(detector_config)
        states = collect_rng_states(model)
        assert states, "expected at least one generator in the module tree"
        # Advance every captured generator, confirm the state moved,
        # then restore and confirm it is back at the capture point.
        drop = model.head._items[1]  # the head's Dropout layer
        drop._rng.random(16)
        assert collect_rng_states(model) != states
        restore_rng_states(model, states)
        assert collect_rng_states(model) == states


class TestTrainingSnapshot:
    """``capture_training_state`` / ``restore_training_state``: the one
    snapshot path of ``Trainer``, the elastic supervisor and the online
    fine-tuner. Field and key names below are the on-disk format — a
    directory written before the path was shared must keep loading."""

    def test_field_and_key_names_are_the_format(self, detector_config):
        from dataclasses import fields

        assert [f.name for f in fields(TrainingState)] == [
            "epoch",
            "model_state",
            "optimizer_state",
            "rng_states",
            "best_state",
            "best_auc",
            "epochs_since_best",
            "history",
        ]
        model = GEMModel(detector_config)
        trainer = Trainer(model, TrainConfig(seed=5))
        state = capture_training_state(model, trainer.optimizer, trainer.rng, epoch=2)
        assert set(state.rng_states) == {"trainer", "model"}
        assert state.rng_states["trainer"] == np.random.default_rng(5).bit_generator.state
        assert state.rng_states["model"] == collect_rng_states(model)
        assert state.model_state.keys() == model.state_dict().keys()
        assert (state.epoch, state.best_state, state.history) == (2, None, [])

    def test_sections_ride_beside_the_rng_streams(self, detector_config, tmp_path):
        model = GEMModel(detector_config)
        trainer = Trainer(model, TrainConfig())
        state = capture_training_state(
            model, trainer.optimizer, trainer.rng, 0, sections={"elastic": {"members": [0, 2]}}
        )
        assert set(state.rng_states) == {"trainer", "model", "elastic"}
        manager = CheckpointManager(str(tmp_path))
        manager.save(state)
        assert manager.load().section("elastic") == {"members": [0, 2]}
        assert manager.load().section("absent") == {}

    def test_restore_is_the_inverse(self, tiny_graph, tiny_splits, detector_config):
        train, _ = tiny_splits
        config = TrainConfig(batch_size=64, seed=1)
        model = GEMModel(detector_config)
        trainer = Trainer(model, config)
        trainer.train_epoch(tiny_graph, train)
        state = capture_training_state(model, trainer.optimizer, trainer.rng, epoch=0)
        expected = trainer.train_epoch(tiny_graph, train)

        fresh = GEMModel(detector_config)
        other = Trainer(fresh, config)
        restore_training_state(state, fresh, other.optimizer, other.rng)
        assert other.train_epoch(tiny_graph, train) == expected
        for (name, a), (_, b) in zip(model.named_parameters(), fresh.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_load_training_state_sources(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(_state(0))
        path = manager.save(_state(1))
        assert load_training_state(manager).epoch == 1
        assert load_training_state(str(tmp_path)).epoch == 1
        assert load_training_state(path).epoch == 1
        state = _state(7)
        assert load_training_state(state) is state
        with pytest.raises(TypeError):
            load_training_state(7)


class TestKillAndResume:
    def test_resume_is_bitwise_identical(self, tiny_graph, tiny_splits, detector_config, tmp_path):
        """Training killed after epoch 2 and resumed from its checkpoint
        ends with parameters bitwise-equal to the uninterrupted run."""
        train, test = tiny_splits
        kwargs = dict(batch_size=64, learning_rate=5e-3, seed=3)

        full = GEMModel(detector_config)
        Trainer(full, TrainConfig(epochs=6, **kwargs)).fit(
            tiny_graph, train, eval_nodes=test
        )

        manager = CheckpointManager(str(tmp_path), keep_last=2)
        killed = GEMModel(detector_config)
        Trainer(killed, TrainConfig(epochs=3, **kwargs)).fit(
            tiny_graph, train, eval_nodes=test, checkpoint=manager
        )
        # Simulate the crash: fresh process state — new model, new
        # trainer — restored purely from what is on disk.
        resumed = GEMModel(detector_config)
        result = Trainer(resumed, TrainConfig(epochs=6, **kwargs)).fit(
            tiny_graph, train, eval_nodes=test, checkpoint=manager, resume_from=str(tmp_path)
        )
        assert len(result.history) == 6
        for (name, a), (_, b) in zip(full.named_parameters(), resumed.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_resume_restores_history_and_best(self, tiny_graph, tiny_splits, detector_config, tmp_path):
        train, test = tiny_splits
        config = TrainConfig(epochs=2, batch_size=64, seed=0)
        model = GEMModel(detector_config)
        Trainer(model, config).fit(
            tiny_graph, train, eval_nodes=test, checkpoint=str(tmp_path)
        )
        resumed = GEMModel(detector_config)
        result = Trainer(resumed, TrainConfig(epochs=4, batch_size=64, seed=0)).fit(
            tiny_graph, train, eval_nodes=test, resume_from=str(tmp_path)
        )
        assert [r.epoch for r in result.history] == [0, 1, 2, 3]
        assert result.best_auc > 0

    def test_resume_from_missing_dir_rejected(self, tiny_graph, tiny_splits, detector_config, tmp_path):
        train, _ = tiny_splits
        model = GEMModel(detector_config)
        with pytest.raises(CheckpointError):
            Trainer(model, TrainConfig(epochs=1)).fit(
                tiny_graph, train, resume_from=str(tmp_path / "empty")
            )


class TestInstrumentPropagation:
    """Satellite: ``instrument()`` must reach the backing store through
    wrapper chains, regardless of composition order — instrumenting the
    outermost wrapper is always enough."""

    def _registry(self):
        from repro.obs import MetricsRegistry

        return MetricsRegistry()

    def test_wrapper_instruments_inner_mmap(self, tmp_path):
        from repro.storage import propagate_instrument

        registry = self._registry()
        inner = MmapKVStore(str(tmp_path / "kv.bin"))
        inner.put("k", b"value")
        inner.finalize()
        store = FaultyKVStore(inner, ManualClock())
        propagate_instrument(store, registry)
        store.get("k")
        # The wrapper has no metrics; the store it wraps counted the read.
        assert 'kv_reads_total{store="mmap"} 1' in registry.render()
        inner.close()

    def test_propagation_walks_through_uninstrumentable_layers(self, tmp_path):
        """Two fault injectors above the mmap store, neither with an
        instrument() of its own; propagation steps over both."""
        from repro.storage import propagate_instrument

        registry = self._registry()
        inner = MmapKVStore(str(tmp_path / "kv.bin"))
        inner.put("k", b"value")
        inner.finalize()
        clock = ManualClock()
        store = FaultyKVStore(FaultyKVStore(inner, clock, fail_first=1), clock)
        propagate_instrument(store, registry)
        with pytest.raises(TransientReadError):
            store.get("k")
        assert store.get("k") == b"value"
        # The mmap layer saw one read: the inner injector raised before
        # reaching it on the first try.
        assert 'kv_reads_total{store="mmap"} 1' in registry.render()
        inner.close()

    def test_propagate_helper_is_cycle_safe(self):
        from repro.storage import propagate_instrument

        class Loop:
            def __init__(self):
                self.store = self

        propagate_instrument(Loop(), self._registry())  # must terminate


class TestFaultPlanWorkerSchedules:
    """A plan is data: validated once, read back per epoch."""

    def _plan(self):
        from repro.reliability import FaultPlan

        return FaultPlan(
            num_workers=4,
            worker_kill={1: [3, 2]},
            worker_rejoin={3: [2]},
            worker_slow={2: {1: 4.0}},
            grad_corrupt={2: [3], 4: {0: "bitflip"}},
        )

    def test_accessors_return_the_epochs_entries(self):
        plan = self._plan()
        assert plan.kills_at(1) == [2, 3] and plan.kills_at(0) == []
        assert plan.rejoins_at(3) == [2]
        assert plan.slow_at(2) == {1: 4.0} and plan.slow_at(3) == {}
        assert plan.corrupt_at(2) == {3: "nan"}  # a plain id list means nan
        assert plan.corrupt_at(4) == {0: "bitflip"}

    def test_accessors_hand_out_copies(self):
        plan = self._plan()
        plan.kills_at(1).append(0)
        plan.slow_at(2)[0] = 9.0
        assert plan.kills_at(1) == [2, 3] and plan.slow_at(2) == {1: 4.0}

    @pytest.mark.parametrize(
        "schedule",
        [
            {"worker_kill": {0: [4]}},
            {"worker_rejoin": {0: [-1]}},
            {"worker_slow": {0: {9: 2.0}}},
            {"worker_slow": {0: {1: 0.5}}},
            {"grad_corrupt": {0: [7]}},
            {"grad_corrupt": {0: {1: "zeroed"}}},
        ],
    )
    def test_invalid_schedules_rejected(self, schedule):
        from repro.reliability import FaultPlan

        with pytest.raises(ValueError):
            FaultPlan(num_workers=4, **schedule)


class TestManualClock:
    def test_advance_and_sleep_move_time(self):
        from repro.reliability import ManualClock

        clock = ManualClock()
        assert clock() == 0.0
        clock.advance(1.5)
        clock.sleep(0.5)
        assert clock() == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        from repro.reliability import ManualClock

        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


class TestFaultyKVStore:
    """One injector, one read order: outage, flaky, delay, read, corrupt."""

    def _backing(self):
        backing = InMemoryKVStore()
        backing.put("k", b"value")
        return backing

    def test_outage_window_on_the_clock(self):
        clock = ManualClock()
        store = FaultyKVStore(self._backing(), clock, outages=[(0.5, 1.0)])
        assert store.get("k") == b"value"
        clock.advance(0.7)  # inside the outage
        with pytest.raises(TransientReadError, match=r"scripted outage at t=0.7 reading 'k'"):
            store.get("k")
        clock.advance(0.5)  # past it: recovered
        assert store.get("k") == b"value"
        assert (store.reads, store.injected) == (3, 1)

    def test_windows_accept_any_callable(self):
        now = [0.0]
        store = FaultyKVStore(self._backing(), lambda: now[0], outages=[(1.0, 2.0)])
        assert store.get("k") == b"value"
        now[0] = 1.5
        with pytest.raises(TransientReadError):
            store.get("k")

    def test_an_outage_read_fails_fast_before_the_delay(self):
        clock = ManualClock()
        store = FaultyKVStore(self._backing(), clock, delay_s=0.25, outages=[(0.0, 1.0)])
        with pytest.raises(TransientReadError):
            store.get("k")
        assert clock() == 0.0  # a killed replica costs no simulated time
        clock.advance(1.0)
        assert store.get("k") == b"value"
        assert clock() == pytest.approx(1.25)

    def test_a_corrupt_window_is_judged_after_the_delay(self):
        clock = ManualClock()
        store = FaultyKVStore(self._backing(), clock, delay_s=0.2, corruptions=[(0.3, 1.0)])
        assert store.get("k") == b"value"  # t 0.0 -> 0.2: before the window
        flipped = store.get("k")  # t 0.2 -> 0.4: the window opened during the delay
        assert flipped != b"value" and len(flipped) == len(b"value")
        slot = zlib.crc32(b"k") % len(b"value")
        assert [i for i, (a, b) in enumerate(zip(flipped, b"value")) if a != b] == [slot]
        assert store.get("k") == flipped  # the same flip on every read in the window
        assert (store.reads, store.injected) == (3, 2)

    def test_an_empty_value_is_never_flipped(self):
        backing = InMemoryKVStore()
        backing.put("e", b"")
        store = FaultyKVStore(backing, ManualClock(), corruptions=[(0.0, 1.0)])
        assert store.get("e") == b"" and store.injected == 0

    def test_fail_first_and_fail_rate_draw_one_seeded_value_per_read(self):
        """The per-key first failures, then one ``default_rng(seed)``
        draw per read that reached it: the sequence a flaky replica has
        always produced for this seed."""
        store = FaultyKVStore(self._backing(), ManualClock(), fail_first=2, fail_rate=0.5, seed=7)
        outcomes = []
        for _ in range(12):
            try:
                store.get("k")
            except TransientReadError as error:
                outcomes.append(str(error))
            else:
                outcomes.append("ok")
        rng = np.random.default_rng(7)
        expected = [f"injected fault for 'k' (attempt {n})" for n in (1, 2)] + [
            "injected random fault for 'k'" if rng.random() < 0.5 else "ok" for _ in range(10)
        ]
        assert outcomes == expected
        assert "ok" in expected and expected.count("ok") < 10  # both outcomes drawn
        assert store.injected == 12 - outcomes.count("ok")

    def test_slow_store_burns_simulated_time(self):
        clock = ManualClock()
        store = FaultyKVStore(self._backing(), clock, delay_s=0.01)
        for _ in range(3):
            assert store.get("k") == b"value"
        assert clock() == pytest.approx(0.03)
        store.delay_s = 0.0  # mutable mid-run
        store.get("k")
        assert clock() == pytest.approx(0.03)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            FaultyKVStore(self._backing(), ManualClock(), delay_s=-0.1)

    def test_wrap_replicas_needs_a_clock(self):
        plan = FaultPlan(num_workers=1, replica_kill={0: [(0.0, 1.0)]})
        with pytest.raises(TypeError):
            plan.wrap_replicas([InMemoryKVStore()])

    def test_wrap_replicas_builds_one_injector_per_faulted_replica(self):
        clock = ManualClock()
        plan = FaultPlan(
            num_workers=3,
            seed=4,
            replica_kill={0: [(0.0, 1.0)]},
            replica_corrupt={0: [(2.0, 3.0)]},
            replica_slow={0: 0.5, 1: 0.1},
        )
        backings = [InMemoryKVStore() for _ in range(3)]
        first, second, third = plan.wrap_replicas(backings, clock)
        assert first.store is backings[0] and second.store is backings[1]
        assert third is backings[2]
        assert first.outages == [(0.0, 1.0)] and first.corruptions == [(2.0, 3.0)]
        assert (first.delay_s, second.delay_s, second.outages) == (0.5, 0.1, [])
        assert (first.seed, second.seed) == (4 * 1000003, 4 * 1000003 + 1)
