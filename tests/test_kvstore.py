"""KV-stores and graph loaders (Sec. 3.3.3)."""

import io
import os
import threading
import time

import numpy as np
import pytest

from repro.storage import (
    CorruptStoreError,
    GraphStore,
    InMemoryKVStore,
    MmapKVStore,
    WorkerLoader,
    decode_array,
    encode_array,
    encode_rows,
    load_rows,
)
from repro.graph import NODE_TYPE_IDS
from repro.obs import MetricsRegistry
from repro.storage.kvstore import kv_read_metrics


class TestInMemoryKVStore:
    def test_roundtrip(self):
        store = InMemoryKVStore()
        store.put("a", b"hello")
        assert store.get("a") == b"hello"
        assert "a" in store

    def test_missing_key(self):
        with pytest.raises(KeyError):
            InMemoryKVStore().get("missing")

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            InMemoryKVStore().put("a", "text")

    def test_delete(self):
        store = InMemoryKVStore()
        store.put("a", b"x")
        store.delete("a")
        assert "a" not in store

    def test_keys(self):
        store = InMemoryKVStore()
        store.put("a", b"1")
        store.put("b", b"2")
        assert sorted(store.keys()) == ["a", "b"]


class TestMmapKVStore:
    def test_write_finalize_read(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        store.put("x", b"abc")
        store.put("y", b"defg")
        store.finalize()
        assert store.get("x") == b"abc"
        assert store.get("y") == b"defg"
        store.close()

    def test_read_latency_is_the_time_the_reads_took(self, tmp_path):
        registry = MetricsRegistry()
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        store.put("x", b"abc")
        store.finalize()
        store.instrument(registry)
        started = time.perf_counter()
        for _ in range(5):
            assert store.get("x") == b"abc"
        elapsed = time.perf_counter() - started
        reads, seconds = kv_read_metrics(registry)
        assert reads.value(store="mmap") == 5
        assert seconds.count(store="mmap") == 5
        assert 0.0 <= seconds.sum(store="mmap") <= elapsed
        store.close()

    def test_read_before_finalize_rejected(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        store.put("x", b"abc")
        with pytest.raises(RuntimeError):
            store.get("x")

    def test_write_after_finalize_rejected(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        store.put("x", b"abc")
        store.finalize()
        with pytest.raises(RuntimeError):
            store.put("y", b"z")

    def test_single_handle_blocks_private_readers(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"), single_handle=True)
        store.put("x", b"abc")
        store.finalize()
        with pytest.raises(RuntimeError):
            store.reader()
        assert store.get("x") == b"abc"
        store.close()

    def test_multi_handle_readers_independent(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        store.put("x", b"abc")
        store.finalize()
        readers = [store.reader() for _ in range(4)]
        assert all(r.get("x") == b"abc" for r in readers)
        for reader in readers:
            reader.close()
        store.close()

    def test_concurrent_reads_consistent(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        payloads = {f"k{i}": bytes([i]) * 100 for i in range(50)}
        for key, value in payloads.items():
            store.put(key, value)
        store.finalize()

        errors = []

        def worker():
            reader = store.reader()
            try:
                for key, value in payloads.items():
                    if reader.get(key) != value:
                        errors.append(key)
            finally:
                reader.close()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        store.close()

    def test_context_manager(self, tmp_path):
        with MmapKVStore(str(tmp_path / "kv.bin")) as store:
            store.put("x", b"1")
            store.finalize()

    def test_refuses_to_clobber_existing_file(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        store = MmapKVStore(path)
        store.put("x", b"precious")
        store.finalize()
        store.close()
        with pytest.raises(FileExistsError):
            MmapKVStore(path)
        # The original data is untouched by the refused open.
        assert MmapKVStore.open(path).get("x") == b"precious"

    def test_non_str_key_rejected_at_put(self, tmp_path):
        """Bad key types fail fast at put(), not as an opaque JSON
        error deep inside finalize()."""
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        with pytest.raises(TypeError, match="keys must be str"):
            store.put(b"node:0", b"abc")
        with pytest.raises(TypeError, match="keys must be str"):
            InMemoryKVStore().put(7, b"abc")

    def test_overwrite_opt_in(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        first = MmapKVStore(path)
        first.put("x", b"old")
        first.finalize()
        first.close()
        second = MmapKVStore(path, overwrite=True)
        second.put("x", b"new")
        second.finalize()
        assert second.get("x") == b"new"
        second.close()


class TestDurableStore:
    """finalize() writes a checksummed footer; open() round-trips it."""

    def _build(self, path, payload):
        store = MmapKVStore(path)
        for key, value in payload.items():
            store.put(key, value)
        store.finalize()
        store.close()

    def test_open_roundtrips_from_disk(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        payload = {f"k{i}": bytes([i]) * (i + 1) for i in range(20)}
        self._build(path, payload)
        # Fresh handle: the index is rebuilt purely from the footer.
        reopened = MmapKVStore.open(path)
        assert sorted(reopened.keys()) == sorted(payload)
        for key, value in payload.items():
            assert reopened.get(key) == value
        reopened.close()

    def test_open_supports_private_readers(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        self._build(path, {"a": b"1234"})
        reopened = MmapKVStore.open(path)
        reader = reopened.reader()
        assert reader.get("a") == b"1234"
        reader.close()
        reopened.close()

    def test_open_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MmapKVStore.open(str(tmp_path / "nope.bin"))

    def test_open_unfinalized_file_rejected(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        store = MmapKVStore(path)
        store.put("a", b"payload-bytes")
        store.close()  # crash before finalize: no footer
        with pytest.raises(CorruptStoreError):
            MmapKVStore.open(path)

    def test_torn_file_rejected_not_garbage(self, tmp_path):
        """Truncating the data file mid-value must raise a typed error,
        never return garbage bytes."""
        path = str(tmp_path / "kv.bin")
        self._build(path, {f"k{i}": b"x" * 100 for i in range(10)})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(CorruptStoreError):
            MmapKVStore.open(path)

    def test_flipped_byte_in_value_detected(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        self._build(path, {"a": b"A" * 50, "b": b"B" * 50})
        with open(path, "r+b") as handle:
            handle.seek(60)  # inside value "b"
            handle.write(b"Z")
        reopened = MmapKVStore.open(path)
        assert reopened.get("a") == b"A" * 50
        with pytest.raises(CorruptStoreError):
            reopened.get("b")
        reopened.close()

    def test_flipped_byte_in_index_detected(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        self._build(path, {"a": b"A" * 50})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 30)  # inside the JSON index blob
            handle.write(b"\x00")
        with pytest.raises(CorruptStoreError):
            MmapKVStore.open(path)

    def test_empty_store_roundtrips(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        self._build(path, {})
        reopened = MmapKVStore.open(path)
        assert reopened.keys() == []
        reopened.close()


class TestConcurrentReaders:
    """Threaded readers: the LevelDB-style shared handle serialises on a
    lock, the LMDB-style multi-handle design reads lock-free — both must
    return consistent bytes."""

    PAYLOAD = {f"k{i}": bytes([i]) * 200 for i in range(40)}

    def _run_threads(self, read_fn, workers=6, rounds=3):
        errors = []

        def worker():
            try:
                for _ in range(rounds):
                    for key, value in self.PAYLOAD.items():
                        if read_fn(key) != value:
                            errors.append(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return errors

    def test_single_handle_threaded_reads(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"), single_handle=True)
        for key, value in self.PAYLOAD.items():
            store.put(key, value)
        store.finalize()
        assert self._run_threads(store.get) == []
        store.close()

    def test_multi_handle_threaded_reads(self, tmp_path):
        store = MmapKVStore(str(tmp_path / "kv.bin"))
        for key, value in self.PAYLOAD.items():
            store.put(key, value)
        store.finalize()
        readers = threading.local()

        def read(key):
            if not hasattr(readers, "handle"):
                readers.handle = store.reader()
            return readers.handle.get(key)

        assert self._run_threads(read) == []
        store.close()

    def test_reopened_store_threaded_reads(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        store = MmapKVStore(path)
        for key, value in self.PAYLOAD.items():
            store.put(key, value)
        store.finalize()
        store.close()
        reopened = MmapKVStore.open(path)
        assert self._run_threads(reopened.get) == []
        reopened.close()


class TestGraphStore:
    def test_graph_roundtrip_memory(self, tiny_graph):
        store = GraphStore(InMemoryKVStore())
        store.save(tiny_graph)
        loaded = store.load()
        assert loaded.num_nodes == tiny_graph.num_nodes
        np.testing.assert_array_equal(loaded.node_type, tiny_graph.node_type)
        np.testing.assert_array_equal(loaded.edge_src, tiny_graph.edge_src)
        np.testing.assert_array_equal(loaded.txn_table, tiny_graph.txn_table)
        np.testing.assert_array_equal(loaded.labels, tiny_graph.labels)

    def test_graph_roundtrip_mmap(self, tiny_graph, tmp_path):
        store = GraphStore(MmapKVStore(str(tmp_path / "g.bin")))
        store.save(tiny_graph)
        loaded = store.load()
        np.testing.assert_array_equal(loaded.txn_table, tiny_graph.txn_table)

    def test_load_features_subset(self, tiny_graph):
        kv = InMemoryKVStore()
        GraphStore(kv).save(tiny_graph)
        rows = load_rows(kv.get_many, [0, 2, 5])
        np.testing.assert_allclose(rows, tiny_graph.txn_table[tiny_graph.txn_rows([0, 2, 5])])

    def test_feature_dtype_roundtrips(self, tiny_graph):
        """float32 features must come back float32, not float64."""
        from repro.graph.hetero import HeteroGraph

        graph32 = HeteroGraph(
            node_type=tiny_graph.node_type,
            edge_src=tiny_graph.edge_src,
            edge_dst=tiny_graph.edge_dst,
            edge_type=tiny_graph.edge_type,
            txn_table=tiny_graph.txn_table.astype(np.float32),
            labels=tiny_graph.labels,
        )
        assert graph32.txn_table.dtype == np.float32
        store = GraphStore(InMemoryKVStore())
        store.save(graph32)
        loaded = store.load()
        assert loaded.txn_table.dtype == np.float32
        np.testing.assert_array_equal(loaded.txn_table, graph32.txn_table)

    def test_keys_are_the_transactions_and_the_structure(self, tiny_graph):
        kv = InMemoryKVStore()
        GraphStore(kv).save(tiny_graph)
        keys = kv.keys()
        txns = tiny_graph.txn_nodes.tolist()
        assert len(txns) < tiny_graph.num_nodes  # the fixture has entities
        assert len(keys) == len(txns) + len(GraphStore.STRUCT_KEYS) + 1  # + struct/meta
        assert sorted(key for key in keys if key.startswith("feat/")) == sorted(
            f"feat/{node}" for node in txns
        )
        loaded = GraphStore(kv).load()
        np.testing.assert_array_equal(loaded.txn_table, tiny_graph.txn_table)
        np.testing.assert_array_equal(loaded.txn_row, tiny_graph.txn_row)

    def test_an_entity_has_no_row_to_load(self, tiny_graph):
        kv = InMemoryKVStore()
        GraphStore(kv).save(tiny_graph)
        entity = int(np.flatnonzero(tiny_graph.node_type != NODE_TYPE_IDS["txn"])[0])
        with pytest.raises(KeyError):
            load_rows(kv.get_many, [0, entity])

    def test_loaded_graph_owns_writable_arrays(self, tiny_graph):
        """decode_array hands out read-only views of the stored blob; a
        loaded graph must not be one (the stream builder writes labels
        in place)."""
        store = GraphStore(InMemoryKVStore())
        store.save(tiny_graph)
        loaded = store.load()
        for name in GraphStore.STRUCT_KEYS + ("txn_table",):
            array = getattr(loaded, name)
            assert array.flags.writeable and array.flags.owndata, name

    def test_empty_load_features_keeps_the_feature_width(self, tiny_graph, tmp_path):
        kv = MmapKVStore(str(tmp_path / "g.bin"))
        GraphStore(kv).save(tiny_graph)
        width = tiny_graph.feature_dim
        assert load_rows(kv.get_many, []).shape == (0, width)
        with WorkerLoader(kv, private_handle=True) as private:
            assert private.load_features([]).shape == (0, width)
        assert WorkerLoader(kv, private_handle=False).load_features([]).shape == (0, width)
        # No struct/meta to read the width from: still empty, width 0.
        bare = InMemoryKVStore()
        bare.put("feat/0", encode_array(np.zeros(3)))
        assert load_rows(bare.get_many, []).shape == (0, 0)


class TestArrayCodec:
    @staticmethod
    def np_load(blob):
        return np.load(io.BytesIO(blob), allow_pickle=False)

    @pytest.mark.parametrize(
        "array",
        [
            np.linspace(-1.0, 1.0, 128),
            np.arange(12, dtype=np.float32).reshape(3, 4),
            np.array(7, dtype=np.int64),
            np.zeros((0, 5)),
            np.array([True, False, True]),
            np.asfortranarray(np.arange(6.0).reshape(2, 3)).T,
        ],
        ids=["row", "2d-f32", "0d", "empty", "bool", "transposed"],
    )
    def test_decode_matches_np_load(self, array):
        blob = encode_array(array)
        fast, reference = decode_array(blob), self.np_load(blob)
        assert fast.dtype == reference.dtype and fast.shape == reference.shape
        assert fast.tobytes() == reference.tobytes()
        np.testing.assert_array_equal(fast, array)

    @pytest.mark.parametrize(
        "table",
        [
            np.random.default_rng(0).normal(size=(5, 7)),
            np.random.default_rng(1).normal(size=(5, 7)).astype(np.float32),
            np.asfortranarray(np.random.default_rng(2).normal(size=(5, 7))),
            np.random.default_rng(3).normal(size=(10, 14))[::2, ::2],
            np.zeros((0, 7)),
            np.ones((1, 7)),
            np.zeros((3, 0)),
        ],
        ids=["f64", "f32", "fortran", "strided", "no-rows", "one-row", "no-columns"],
    )
    def test_encode_rows_is_encode_array_per_row(self, table):
        blobs = encode_rows(table)
        assert blobs == [encode_array(row) for row in table]
        for blob, row in zip(blobs, table):
            np.testing.assert_array_equal(decode_array(blob), row)

    def test_decoded_array_is_a_read_only_view(self):
        decoded = decode_array(encode_array(np.arange(4.0)))
        assert not decoded.flags.writeable
        with pytest.raises(ValueError):
            decoded[0] = 1.0

    def test_one_header_parse_serves_every_row_of_a_table(self):
        from repro.storage.loader import _parse_header

        blobs = [encode_array(np.full(16, float(i))) for i in range(50)]
        _parse_header.cache_clear()
        for i, blob in enumerate(blobs):
            assert decode_array(blob)[0] == float(i)
        info = _parse_header.cache_info()
        assert (info.misses, info.hits) == (1, 49)

    def test_every_blob_is_checked_not_just_the_first_of_its_header(self):
        """A memo hit skips the header parse, never the per-blob
        checks: a cut payload, a broken magic and a different header
        after a good blob are each still refused."""
        good = encode_array(np.arange(8.0))
        decode_array(good)  # header now memoised
        for bad in (good[:-1], good[:130], b"\x92" + good[1:], good[:6] + b"\x09" + good[7:]):
            with pytest.raises(ValueError):
                decode_array(bad)
            with pytest.raises(ValueError):
                self.np_load(bad)
        # ...and, like np.load, bytes past the payload are ignored.
        np.testing.assert_array_equal(decode_array(good + b"tail"), np.arange(8.0))
        np.testing.assert_array_equal(self.np_load(good + b"tail"), np.arange(8.0))

    def test_object_arrays_are_refused(self):
        stream = io.BytesIO()
        np.save(stream, np.array([{"a": 1}], dtype=object), allow_pickle=True)
        with pytest.raises(ValueError, match="allow_pickle=False"):
            decode_array(stream.getvalue())

    def test_failed_parses_are_not_remembered(self):
        from repro.storage.loader import _parse_header

        stream = io.BytesIO()
        np.save(stream, np.array([None], dtype=object), allow_pickle=True)
        _parse_header.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError):
                decode_array(stream.getvalue())
        assert _parse_header.cache_info().currsize == 0

    def test_load_rows_fills_one_matrix(self):
        store = InMemoryKVStore()
        table = np.arange(20, dtype=np.float32).reshape(5, 4)
        for node, row in enumerate(table):
            store.put(f"feat/{node}", encode_array(row))
        rows = load_rows(store.get_many, [4, 0, 4])
        assert rows.dtype == np.float32 and rows.flags.owndata
        np.testing.assert_array_equal(rows, table[[4, 0, 4]])
        # A caller-owned matrix is filled in place, cast to its dtype.
        out = np.empty((2, 4), dtype=np.float64)
        assert load_rows(store.get_many, np.array([1, 2]), out) is out
        np.testing.assert_array_equal(out, table[[1, 2]])

    def test_load_rows_refuses_ragged_rows(self):
        store = InMemoryKVStore()
        store.put("feat/0", encode_array(np.zeros(4)))
        store.put("feat/1", encode_array(np.zeros(1)))  # would broadcast silently
        with pytest.raises(ValueError, match="node 1"):
            load_rows(store.get_many, [0, 1])

    def test_load_rows_decodes_a_uniform_batch_with_one_header_parse(self):
        from repro.storage.loader import _parse_header

        store = InMemoryKVStore()
        table = np.arange(200, dtype=np.float64).reshape(50, 4)
        for node, row in enumerate(table):
            store.put(f"feat/{node}", encode_array(row))
        _parse_header.cache_clear()
        np.testing.assert_array_equal(load_rows(store.get_many, range(50)), table)
        info = _parse_header.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda blob: encode_array(np.zeros(5)), "node 2 has shape"),  # ragged
            (lambda blob: blob[:-3], "truncated"),
            (lambda blob: b"\x92" + blob[1:], "magic"),
        ],
    )
    def test_one_bad_row_inside_a_batch_raises_what_the_row_loop_raised(self, spoil, message):
        store = InMemoryKVStore()
        for node in range(4):
            store.put(f"feat/{node}", encode_array(np.full(4, float(node))))
        store.put("feat/2", spoil(store.get("feat/2")))
        for out in (None, np.empty((4, 4))):
            with pytest.raises(ValueError, match=message):
                load_rows(store.get_many, range(4), out)
        # ...and bytes past one row's payload are ignored, as row by row.
        store.put("feat/2", encode_array(np.full(4, 2.0)) + b"tail")
        np.testing.assert_array_equal(load_rows(store.get_many, range(4))[:, 0], np.arange(4.0))

    def test_load_rows_width_is_checked_against_out_for_a_uniform_batch(self):
        store = InMemoryKVStore()
        for node in range(3):
            store.put(f"feat/{node}", encode_array(np.zeros(4)))
        with pytest.raises(ValueError, match="node 0 has shape"):
            load_rows(store.get_many, range(3), np.empty((3, 5)))


class TestWorkerLoader:
    def test_private_handle_loads(self, tiny_graph, tmp_path):
        kv = MmapKVStore(str(tmp_path / "g.bin"))
        GraphStore(kv).save(tiny_graph)
        loader = WorkerLoader(kv, private_handle=True)
        rows = loader.load_features([1, 3])
        np.testing.assert_allclose(rows, tiny_graph.txn_table[tiny_graph.txn_rows([1, 3])])
        loader.close()

    def test_shared_handle_loads(self, tiny_graph, tmp_path):
        kv = MmapKVStore(str(tmp_path / "g.bin"), single_handle=True)
        GraphStore(kv).save(tiny_graph)
        loader = WorkerLoader(kv, private_handle=False)
        rows = loader.load_features([0])
        np.testing.assert_allclose(rows, tiny_graph.txn_table[tiny_graph.txn_rows([0])])


class TestContextManagers:
    def test_mmap_store_write_context(self, tmp_path):
        path = str(tmp_path / "kv.bin")
        with MmapKVStore(path) as store:
            store.put("k", b"value")
            store.finalize()
        with MmapKVStore.open(path) as reopened:
            assert reopened.get("k") == b"value"

    def test_inmemory_store_context(self):
        with InMemoryKVStore() as store:
            store.put("k", b"v")
            assert store.get("k") == b"v"

    def test_worker_loader_context_closes_private_handle(self, tiny_graph, tmp_path):
        kv = MmapKVStore(str(tmp_path / "g.bin"))
        GraphStore(kv).save(tiny_graph)
        with WorkerLoader(kv, private_handle=True) as loader:
            rows = loader.load_features([1, 3])
            np.testing.assert_allclose(rows, tiny_graph.txn_table[tiny_graph.txn_rows([1, 3])])

    def test_delegating_store_context(self):
        from repro.reliability import FaultyKVStore, ManualClock

        class ClosableStore(InMemoryKVStore):
            closed = False

            def close(self):
                self.closed = True

        backing = ClosableStore()
        backing.put("k", b"v")
        with FaultyKVStore(backing, ManualClock()) as store:
            assert store.get("k") == b"v"
        assert backing.closed  # closing the wrapper closes what it wraps
