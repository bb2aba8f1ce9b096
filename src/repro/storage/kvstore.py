"""Lightweight KV-stores for graph data (Sec. 3.3.3, Figures 12/13).

The paper stores all graph-related information in a KV-store. Its
first implementation used LevelDB, whose single-threaded access became
the system bottleneck (45 min/epoch on eBay-large); switching to LMDB,
which supports many concurrent memory-mapped readers, cut data loading
to ~1 min/epoch. We reproduce both designs:

* :class:`InMemoryKVStore` — dict-backed reference implementation.
* :class:`MmapKVStore` — append-only data file + in-memory key index,
  read through ``mmap``. Opened in one of two modes:

  - ``single_handle=True`` (the LevelDB-like design): every reader
    shares one handle guarded by a mutex, so concurrent workers
    serialise;
  - ``single_handle=False`` (the LMDB-like design): each worker opens
    its **own** handle via :meth:`reader` and reads without locking
    (the file is immutable once written).

Durability: :meth:`MmapKVStore.finalize` appends a checksummed index
footer, then fsyncs the file and its directory (:mod:`repro.durable`),
so a finalized store survives process restarts and is reopenable with
:meth:`MmapKVStore.open` — no in-memory state needed.
The on-disk layout is::

    [value bytes ...][index blob (JSON)][footer]
    footer = magic(8s) | index_offset(Q) | index_length(Q) | index_crc32(I)

Each index entry carries a per-value CRC32, verified on every read;
truncated (mid-crash) files fail the footer checks and corrupt values
fail the per-value check, both surfacing as :class:`CorruptStoreError`
rather than garbage bytes.

Values are arbitrary bytes; :mod:`repro.storage.loader` layers numpy
(de)serialisation on top.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import threading
import time
import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..durable import fsync_dir

_LENGTH_FORMAT = "<Q"
_LENGTH_BYTES = struct.calcsize(_LENGTH_FORMAT)

_FOOTER_MAGIC = b"XFKV0001"
_FOOTER_FORMAT = "<8sQQI"  # magic, index_offset, index_length, index_crc32
_FOOTER_BYTES = struct.calcsize(_FOOTER_FORMAT)
_INDEX_FORMAT_NAME = "xfkv-index-v1"


class CorruptStoreError(RuntimeError):
    """A store file is truncated, unfinalized, or fails a checksum."""


class TransientReadError(IOError):
    """A read failed for a reason that may succeed later (a blip, an
    outage window): injected by the fault wrappers in
    :mod:`repro.reliability.faults`, or raised by a real transport."""


def propagate_instrument(store, registry) -> None:
    """Instrument ``store`` and every store it wraps.

    Wrapper stores (a fault injector) expose their wrapped store as
    ``.store``; this walks that chain calling ``instrument(registry)``
    on every layer that supports it, so read metrics survive any
    wrapping — instrumenting a ``FaultyKVStore`` over an
    ``MmapKVStore`` reaches the mmap store even though the injector has
    no metrics of its own. Layers without an ``instrument`` method are
    skipped, not errors.
    """
    seen = set()
    target = store
    while target is not None and id(target) not in seen:
        seen.add(id(target))
        instrument = getattr(target, "instrument", None)
        if callable(instrument):
            instrument(registry)
        target = getattr(target, "store", None)


def kv_read_metrics(registry):
    """``(kv_reads_total, kv_read_seconds)``: the one declaration of the
    read-timing family every instrumented store and the scoring service
    share, each under its own ``store`` label. Both are pushed from the
    block that timed the read."""
    return (
        registry.counter("kv_reads_total", "KV feature reads issued.", labels=("store",)),
        registry.histogram(
            "kv_read_seconds",
            "Latency of KV feature reads (per chunk).",
            labels=("store",),
        ),
    )


class KVStore:
    """Abstract byte-oriented key-value store."""

    def put(self, key: str, value: bytes) -> None:
        raise NotImplementedError

    def get(self, key: str) -> bytes:
        raise NotImplementedError

    def get_many(self, keys: Sequence[str]) -> List[bytes]:
        """``[get(key) for key in keys]`` — which is what it is here, so
        a fault injector keeps its per-key behaviour.
        A store that can share work across one batch overrides it with
        the same results and the same exception."""
        return [self.get(key) for key in keys]

    def contains(self, key: str) -> bool:
        raise NotImplementedError

    def keys(self) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        return None

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DelegatingKVStore(KVStore):
    """Base of the fault injector: everything but ``get`` (its own to
    define; ``get_many`` stays the loop over it) passes through to
    ``.store`` — the attribute :func:`propagate_instrument` and
    :meth:`~repro.storage.replicated.ReplicatedKVStore.finalize` walk
    to reach the backing store through any stack of wrappers."""

    def __init__(self, store: KVStore) -> None:
        self.store = store

    def put(self, key: str, value: bytes) -> None:
        self.store.put(key, value)

    def contains(self, key: str) -> bool:
        return self.store.contains(key)

    def keys(self) -> List[str]:
        return self.store.keys()

    def close(self) -> None:
        self.store.close()


class InMemoryKVStore(KVStore):
    """Dict-backed store for tests and small graphs."""

    def __init__(self) -> None:
        self._data: Dict[str, bytes] = {}

    def put(self, key: str, value: bytes) -> None:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        self._data[key] = bytes(value)

    def get(self, key: str) -> bytes:
        return self._data[key]

    def contains(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> List[str]:
        return list(self._data.keys())

    def delete(self, key: str) -> None:
        self._data.pop(key, None)


class _MmapReader:
    """One independent memory-mapped read handle.

    The index maps keys to ``(offset, length, crc32)``; every read is
    checksum-verified.
    """

    def __init__(self, path: str, index: Dict[str, Tuple[int, int, int]]) -> None:
        self._file = open(path, "rb")
        size = os.path.getsize(path)
        self._map = mmap.mmap(self._file.fileno(), size, access=mmap.ACCESS_READ) if size else None
        self._index = index

    def get(self, key: str) -> bytes:
        if key not in self._index:
            raise KeyError(key)
        if self._map is None:
            raise KeyError(key)
        offset, length, crc = self._index[key]
        value = self._map[offset : offset + length]
        if zlib.crc32(value) != crc:
            raise CorruptStoreError(f"checksum mismatch reading key {key!r}")
        return value

    def get_many(self, keys: Sequence[str]) -> List[bytes]:
        return [self.get(key) for key in keys]

    def close(self) -> None:
        if self._map is not None:
            self._map.close()
        self._file.close()

    def __enter__(self) -> "_MmapReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _read_index(path: str) -> Tuple[Dict[str, Tuple[int, int, int]], int]:
    """Validate the footer of a finalized store; return (index, data_length).

    Raises :class:`CorruptStoreError` on any inconsistency — missing or
    garbled footer (unfinalized or truncated file), index region that
    does not match the file size, or a failed index checksum.
    """
    size = os.path.getsize(path)
    if size < _FOOTER_BYTES:
        raise CorruptStoreError(f"{path}: file too small to hold a footer (truncated?)")
    with open(path, "rb") as handle:
        handle.seek(size - _FOOTER_BYTES)
        magic, index_offset, index_length, index_crc = struct.unpack(
            _FOOTER_FORMAT, handle.read(_FOOTER_BYTES)
        )
        if magic != _FOOTER_MAGIC:
            raise CorruptStoreError(
                f"{path}: footer magic missing — store was never finalized or the file is truncated"
            )
        if index_offset + index_length + _FOOTER_BYTES != size:
            raise CorruptStoreError(f"{path}: index region inconsistent with file size")
        handle.seek(index_offset)
        blob = handle.read(index_length)
    if len(blob) != index_length or zlib.crc32(blob) != index_crc:
        raise CorruptStoreError(f"{path}: index checksum mismatch")
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CorruptStoreError(f"{path}: index is not valid JSON: {error}") from error
    if payload.get("format") != _INDEX_FORMAT_NAME:
        raise CorruptStoreError(f"{path}: unknown index format {payload.get('format')!r}")
    data_length = int(payload["data_length"])
    index: Dict[str, Tuple[int, int, int]] = {}
    for key, offset, length, crc in payload["entries"]:
        offset, length = int(offset), int(length)
        if offset + length > data_length:
            raise CorruptStoreError(f"{path}: entry {key!r} points outside the data region")
        index[str(key)] = (offset, length, int(crc))
    return index, data_length


class MmapKVStore(KVStore):
    """File-backed append-only KV-store with mmap readers.

    Writing happens in a build phase (``put``); reading requires
    :meth:`finalize` (writes are flushed, a checksummed index footer is
    appended, and the file becomes immutable), mirroring the paper's
    one-time graph ingestion. A finalized store can be reopened from
    disk in a fresh process with :meth:`open`.
    """

    def __init__(
        self,
        path: str,
        single_handle: bool = False,
        overwrite: bool = False,
    ) -> None:
        if os.path.exists(path) and not overwrite:
            raise FileExistsError(
                f"{path} already exists; pass overwrite=True to replace it "
                "or MmapKVStore.open() to read it"
            )
        self.path = path
        self.single_handle = single_handle
        self._index: Dict[str, Tuple[int, int, int]] = {}
        self._write_file = open(path, "wb")
        self._offset = 0
        self._finalized = False
        self._shared_reader: Optional[_MmapReader] = None
        self._lock = threading.Lock()
        self._reads_total = None
        self._read_seconds = None

    @classmethod
    def open(cls, path: str, single_handle: bool = False) -> "MmapKVStore":
        """Reopen a finalized store from disk — no in-memory index needed.

        Validates the footer and index checksum; raises
        :class:`CorruptStoreError` for truncated or unfinalized files
        and :class:`FileNotFoundError` if the path does not exist.
        """
        if not os.path.exists(path):
            raise FileNotFoundError(f"no KV-store file at {path}")
        index, data_length = _read_index(path)
        store = cls.__new__(cls)
        store.path = path
        store.single_handle = single_handle
        store._index = index
        store._write_file = None
        store._offset = data_length
        store._finalized = True
        store._shared_reader = _MmapReader(path, index)
        store._lock = threading.Lock()
        store._reads_total = None
        store._read_seconds = None
        return store

    def instrument(self, registry) -> "MmapKVStore":
        """Attach read counters + latency histograms to a
        :class:`repro.obs.registry.MetricsRegistry`; metrics share the
        ``kv_reads_total`` / ``kv_read_seconds`` family under
        ``store="mmap"``. Returns self for chaining."""
        self._reads_total, self._read_seconds = kv_read_metrics(registry)
        return self

    # -- write phase ----------------------------------------------------
    def put(self, key: str, value: bytes) -> None:
        if self._finalized:
            raise RuntimeError("store is finalized; writes are not allowed")
        if not isinstance(key, str):
            # Catch non-str keys here rather than letting finalize()
            # fail later with an opaque JSON serialisation error.
            raise TypeError(f"keys must be str, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        value = bytes(value)
        self._write_file.write(value)
        self._index[key] = (self._offset, len(value), zlib.crc32(value))
        self._offset += len(value)

    def finalize(self) -> None:
        """Flush writes, append the checksummed index footer, and
        switch to read mode."""
        if self._finalized:
            return
        blob = json.dumps(
            {
                "format": _INDEX_FORMAT_NAME,
                "data_length": self._offset,
                "entries": [
                    [key, offset, length, crc]
                    for key, (offset, length, crc) in self._index.items()
                ],
            }
        ).encode("utf-8")
        self._write_file.write(blob)
        self._write_file.write(
            struct.pack(_FOOTER_FORMAT, _FOOTER_MAGIC, self._offset, len(blob), zlib.crc32(blob))
        )
        self._write_file.flush()
        os.fsync(self._write_file.fileno())
        self._write_file.close()
        fsync_dir(os.path.dirname(self.path) or ".")
        self._finalized = True
        self._shared_reader = _MmapReader(self.path, self._index)

    # -- read phase -------------------------------------------------------
    def get(self, key: str) -> bytes:
        if not self._finalized:
            raise RuntimeError("finalize() the store before reading")
        if self._read_seconds is not None:
            started = time.perf_counter()
            try:
                return self._get_raw(key)
            finally:
                self._read_seconds.observe(time.perf_counter() - started, store="mmap")
                self._reads_total.inc(store="mmap")
        return self._get_raw(key)

    def _get_raw(self, key: str) -> bytes:
        if self.single_handle:
            # LevelDB-like: one handle, all readers serialise on a lock.
            with self._lock:
                return self._shared_reader.get(key)
        return self._shared_reader.get(key)

    def reader(self) -> _MmapReader:
        """A private read handle (the LMDB-like multi-loader design).

        Raises in single-handle mode: that is precisely what the
        LevelDB-style deployment could not provide.
        """
        if not self._finalized:
            raise RuntimeError("finalize() the store before reading")
        if self.single_handle:
            raise RuntimeError("single-handle store cannot open per-worker readers")
        return _MmapReader(self.path, self._index)

    def contains(self, key: str) -> bool:
        return key in self._index

    def keys(self) -> List[str]:
        return list(self._index.keys())

    def items(self) -> Iterator[Tuple[str, bytes]]:
        for key in self._index:
            yield key, self.get(key)

    def close(self) -> None:
        if not self._finalized:
            # Closed mid-build: no footer is written, so the file is
            # deliberately left unreadable (a crash-torn store).
            self._write_file.close()
            self._finalized = True
        if self._shared_reader is not None:
            self._shared_reader.close()
            self._shared_reader = None
