"""Durable files (repro.durable): the manifest of sealed files, and the
atomic replace that saved weights and the KV-store footer rely on."""

import json
import os
import zlib

import numpy as np
import pytest

from repro import nn
from repro.data.events import TxnEvent
from repro.durable import Manifest, atomic_write_bytes
from repro.nn.serialization import load_state, save_state
from repro.reliability import CheckpointManager, TrainingState
from repro.storage import MmapKVStore
from repro.stream import EventLog


class ManifestDamage(RuntimeError):
    pass


def _manifest(directory):
    return Manifest(str(directory), "test-manifest-v1", "files", ManifestDamage)


def _sealed_entry(path):
    blob = open(path, "rb").read()
    return {"file": os.path.basename(path), "size": len(blob), "crc32": zlib.crc32(blob)}


class TestManifest:
    def test_round_trip_keeps_entry_field_order(self, tmp_path):
        manifest = _manifest(tmp_path)
        assert manifest.read() == []
        entries = [{"file": "a", "epoch": 3, "crc32": 7, "size": 1}, {"file": "b", "size": 2}]
        manifest.write(entries)
        assert manifest.read() == entries
        raw = (tmp_path / "MANIFEST.json").read_bytes()
        expected = {"format": "test-manifest-v1", "files": entries}
        assert raw == json.dumps(expected, indent=2).encode("utf-8")
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_damage_raises_the_callers_error(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text("{not json")
        with pytest.raises(ManifestDamage, match="corrupt manifest"):
            _manifest(tmp_path).read()
        (tmp_path / "MANIFEST.json").write_text(json.dumps({"format": "other", "files": []}))
        with pytest.raises(ManifestDamage, match="unsupported manifest format 'other'"):
            _manifest(tmp_path).read()

    def test_read_sealed_checks_size_and_crc(self, tmp_path):
        path = str(tmp_path / "sealed.bin")
        atomic_write_bytes(path, b"payload")
        entry = _sealed_entry(path)
        manifest = _manifest(tmp_path)
        assert manifest.read_sealed(path, entry, "bad") == b"payload"
        for damaged in (b"payloaD", b"payload!", b"payloa"):
            with open(path, "wb") as handle:
                handle.write(damaged)
            with pytest.raises(ManifestDamage, match=f"{path}: bad"):
                manifest.read_sealed(path, entry, "bad")
            # Without an entry there is nothing to check against.
            assert manifest.read_sealed(path, None, "bad") == damaged


class TestCallerManifests:
    """The WAL and checkpoint manifests keep their on-disk bytes."""

    def test_wal_manifest_bytes_are_pinned(self, tmp_path):
        rng = np.random.default_rng(0)
        events = [
            TxnEvent(
                txn_id=i, buyer_id=1000 + i % 3, email_id=2000 + i % 4, pmt_id=3000,
                addr_id=4000 + i % 2, timestamp=float(i), features=rng.normal(size=6),
                label=int(i % 7 == 0), scenario="benign",
            )
            for i in range(60)
        ]
        with EventLog(str(tmp_path), segment_max_bytes=300, fsync=False) as log:
            log.append_many(events[:40])
            log.rotate()
            log.append_many(events[40:])
        raw = (tmp_path / "MANIFEST.json").read_bytes()
        assert (zlib.crc32(raw), len(raw)) == (2844199521, 4692)

    def test_checkpoint_manifest_layout(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep_last=2)
        for epoch in range(4):
            manager.save(
                TrainingState(epoch=epoch, model_state={"w": np.arange(3.0)},
                              optimizer_state={}, rng_states={})
            )
        entries = []
        for epoch in (2, 3):
            entry = _sealed_entry(str(tmp_path / f"ckpt-{epoch:06d}.npz"))
            entries.append({"file": entry["file"], "epoch": epoch, "crc32": entry["crc32"],
                            "size": entry["size"]})
        expected = {"format": "repro-ckpt-manifest-v1", "checkpoints": entries}
        raw = (tmp_path / "MANIFEST.json").read_bytes()
        assert raw == json.dumps(expected, indent=2).encode("utf-8")


class TestSaveState:
    def test_a_failure_partway_keeps_the_previous_archive(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.npz")
        old = nn.Linear(4, 3, rng=np.random.default_rng(0))
        save_state(old, path)

        real = np.lib.format.write_array
        written = []

        def crash_after_one_array(*args, **kwargs):
            if written:
                raise OSError("simulated crash mid-save")
            written.append(True)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", crash_after_one_array)
        with pytest.raises(OSError, match="mid-save"):
            save_state(nn.Linear(4, 3, rng=np.random.default_rng(1)), path)
        monkeypatch.undo()

        restored = load_state(nn.Linear(4, 3, rng=np.random.default_rng(2)), path)
        np.testing.assert_array_equal(restored.weight.data, old.weight.data)
        np.testing.assert_array_equal(restored.bias.data, old.bias.data)
        assert sorted(os.listdir(tmp_path)) == ["model.npz"]


class TestMmapFinalize:
    def test_finalize_fsyncs_the_directory(self, tmp_path, monkeypatch):
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        store.put("a", b"A" * 10)
        directory = os.stat(tmp_path)
        synced = []
        real = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(os.path.samestat(os.fstat(fd), directory)), real(fd))
        )
        store.finalize()
        monkeypatch.undo()
        assert synced[-1] is True
        assert store.get("a") == b"A" * 10
        store.close()
