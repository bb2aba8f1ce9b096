"""Additional storage edge cases: empty stores, iteration, reopen,
torn/truncated files."""

import os

import numpy as np
import pytest

from repro.storage import CorruptStoreError, GraphStore, InMemoryKVStore, MmapKVStore


class TestEmptyStores:
    def test_empty_mmap_store_finalize(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "empty.bin"))
        store.finalize()
        assert store.keys() == []
        with pytest.raises(KeyError):
            store.get("missing")
        store.close()

    def test_double_finalize_idempotent(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        store.put("a", b"1")
        store.finalize()
        store.finalize()
        assert store.get("a") == b"1"
        store.close()

    def test_close_before_finalize(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        store.put("a", b"1")
        store.close()  # must not raise


class TestIteration:
    def test_contains_before_finalize(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        store.put("a", b"1")
        assert "a" in store and "b" not in store
        store.close()


class TestTornFiles:
    """A finalized store file damaged on disk must fail *loudly* at
    open() — CorruptStoreError with a reason, never garbage reads."""

    def _finalized(self, tmp_path, records=8):
        path = str(tmp_path / "kv.bin")
        store = MmapKVStore(path)
        for index in range(records):
            store.put(f"key/{index}", bytes([index]) * 32)
        store.finalize()
        store.close()
        return path

    def test_truncated_mid_record(self, tmp_path):
        """Half the file gone — the footer (written last) is missing."""
        path = self._finalized(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(CorruptStoreError) as excinfo:
            MmapKVStore.open(path)
        assert "truncated" in str(excinfo.value) or "footer" in str(excinfo.value)

    def test_torn_footer(self, tmp_path):
        """A write torn inside the footer itself (last bytes missing)."""
        path = self._finalized(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        with pytest.raises(CorruptStoreError):
            MmapKVStore.open(path)

    def test_file_smaller_than_footer(self, tmp_path):
        path = self._finalized(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(4)
        with pytest.raises(CorruptStoreError) as excinfo:
            MmapKVStore.open(path)
        assert "too small" in str(excinfo.value)

    def test_flipped_byte_in_index_region(self, tmp_path):
        """Footer intact but the index blob it points at is damaged:
        the index checksum catches it."""
        from repro.storage.kvstore import _FOOTER_BYTES

        path = self._finalized(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - _FOOTER_BYTES - 2)
            byte = handle.read(1)
            handle.seek(size - _FOOTER_BYTES - 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CorruptStoreError) as excinfo:
            MmapKVStore.open(path)
        assert "checksum" in str(excinfo.value)

    def test_unfinalized_file_rejected_at_open(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        store = MmapKVStore(path)
        store.put("k", b"x" * 64)  # large enough to hold a footer's worth
        store.close()  # close without finalize: no footer
        with pytest.raises(CorruptStoreError) as excinfo:
            MmapKVStore.open(path)
        assert "finalized" in str(excinfo.value) or "footer" in str(excinfo.value)

    def test_intact_file_still_opens(self, tmp_path):
        """Control: the happy path survives all this suspicion."""
        path = self._finalized(tmp_path)
        reopened = MmapKVStore.open(path)
        assert reopened.get("key/3") == bytes([3]) * 32
        reopened.close()


class TestGraphStoreEdgeCases:
    def test_zero_feature_graph(self, tmp_path):
        """Graphs whose entity features are all-zero roundtrip exactly."""
        from repro.graph.hetero import NODE_TYPE_IDS, HeteroGraph

        graph = HeteroGraph(
            node_type=[NODE_TYPE_IDS["txn"], NODE_TYPE_IDS["pmt"]],
            edge_src=[0, 1],
            edge_dst=[1, 0],
            edge_type=[0, 1],
            txn_table=np.array([[1.5, -2.5]]),
            labels=[1, -1],
        )
        store = GraphStore(InMemoryKVStore())
        store.save(graph)
        loaded = store.load()
        np.testing.assert_allclose(loaded.txn_table, graph.txn_table)
        np.testing.assert_array_equal(loaded.labels, graph.labels)

    def test_rejects_non_bytes_values(self):
        with pytest.raises(TypeError):
            InMemoryKVStore().put("k", 123)
