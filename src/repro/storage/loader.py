"""Graph data loaders on top of the KV-store (Sec. 3.3.3).

:class:`GraphStore` serialises a :class:`~repro.graph.hetero.HeteroGraph`
into a KV-store (one entry per transaction's feature row, plus the
structure) and loads it back. :class:`WorkerLoader` is the per-worker data
loader: in the multi-handle design each worker owns an independent
mmap handle, which is the optimisation that removed the paper's
data-loading bottleneck (Figures 12 → 13).

Arrays travel as ``.npy`` blobs: :func:`encode_array` /
:func:`decode_array` are the codec (:func:`encode_rows`: a table's rows,
one header), and :func:`load_rows` is the one multi-get that hydrates
feature rows for both loaders and the scoring service.
"""

from __future__ import annotations

import io
import math
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib import format as npy_format

from ..graph.hetero import NODE_TYPE_IDS, HeteroGraph
from .kvstore import KVStore, MmapKVStore, _MmapReader

# Width of the header-length field that follows the 8 magic+version
# bytes, by major format version. 3.0 (utf-8 field names) is framed like
# 2.0 but numpy exposes no public header reader for it.
_HEADER_LEN_BYTES = {1: 2, 2: 4}


def encode_array(array: np.ndarray) -> bytes:
    """``array`` as one ``.npy`` blob (what ``np.save`` writes)."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def encode_rows(table: np.ndarray) -> List[bytes]:
    """:func:`encode_array` of each row of ``table``, byte for byte, with
    the header written once: the rows share it, so a blob is that prefix
    plus the row's bytes (the write side of :func:`_decode_uniform`)."""
    table = np.asarray(table)
    if not len(table):
        return []
    first, width, payload = encode_array(table[0]), table[0].nbytes, table.tobytes()
    prefix = first[: len(first) - width]
    return [prefix + payload[row * width : (row + 1) * width] for row in range(len(table))]


@lru_cache(maxsize=64)
def _parse_header(prefix: bytes) -> Optional[Tuple[np.dtype, Tuple[int, ...], str, int]]:
    """``(dtype, shape, order, payload bytes)`` of one ``.npy`` prefix
    (magic, version, header length, header text), by numpy's own parser;
    ``None`` for a valid header whose payload is not a plain buffer of
    ``shape`` items (``decode_array`` hands those to numpy whole).

    Memoised per distinct byte-string: every row of one feature table
    carries the identical prefix, and parsing it (``ast.literal_eval``
    compiles the header text) is ~25 us of the ~30 us ``np.load`` costs.
    A prefix that raises is not cached, so a reject is re-examined, not
    remembered.
    """
    stream = io.BytesIO(prefix)
    version = npy_format.read_magic(stream)
    if version == (1, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_1_0(stream)
    elif version == (2, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_2_0(stream)
    else:
        raise ValueError(f"unsupported .npy format version {version}")
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
    if any(extent < 0 for extent in shape):
        raise ValueError(f"negative dimension in .npy header shape {shape}")
    if dtype.subdtype is not None:
        return None  # numpy reads the items flat, then refuses all but size 0
    return dtype, shape, "F" if fortran_order else "C", math.prod(shape) * dtype.itemsize


def _frame(blob: bytes) -> Optional[int]:
    """Where the payload of ``blob`` would start — past the magic, the
    version, the header-length field and the header text it announces —
    or ``None`` when the blob is too short to frame or of a format
    version the public header readers do not cover."""
    width = _HEADER_LEN_BYTES.get(blob[6]) if len(blob) >= 12 else None
    if width is None:
        return None
    return 8 + width + int.from_bytes(blob[8 : 8 + width], "little")


def decode_array(blob: bytes) -> np.ndarray:
    """The array in one ``.npy`` blob, as a read-only view of ``blob``.

    Accepts and rejects exactly what
    ``np.load(io.BytesIO(blob), allow_pickle=False)`` does and returns
    the same dtype, shape and bytes (the ``fast-decode-vs-np-load``
    scenario of :mod:`repro.check.fuzz` holds it to that), but parses
    each distinct header once (:func:`_parse_header`) instead of once
    per blob. Every blob still has its magic and version matched (they
    are part of the memo key), object dtypes refused and its payload
    length checked; like ``np.load``, bytes past the payload are
    ignored. Copy the result for a writable array that does not pin
    ``blob``.
    """
    offset = _frame(blob)
    layout = _parse_header(blob[:offset]) if offset is not None else None
    if layout is None:
        # Too short to frame, a version the public header readers do
        # not cover, or a sub-array dtype: numpy's full reader decides.
        return npy_format.read_array(io.BytesIO(blob), allow_pickle=False)
    dtype, shape, order, nbytes = layout
    if len(blob) - offset < nbytes:
        raise ValueError(
            f"truncated .npy blob: {shape} {dtype} needs {nbytes} payload bytes, "
            f"got {len(blob) - offset}"
        )
    return np.ndarray(shape, dtype, blob, offset, order=order)


def _decode_uniform(blobs: Sequence[bytes]) -> Optional[np.ndarray]:
    """Every blob decoded at once, as one read-only ``(len(blobs),) +
    shape`` array, when they all carry the first one's prefix bytes
    (magic, version, header) and exactly its payload length: one header
    parse, one ``frombuffer`` over the joined payloads. ``None`` when
    they do not, or the first blob is one :func:`decode_array` would
    refuse, hand to numpy or read past (trailing bytes): the caller
    decodes blob by blob and meets the same rows, or the same error."""
    first = blobs[0]
    offset = _frame(first)
    if offset is None:
        return None
    prefix = first[:offset]
    try:
        layout = _parse_header(prefix)
    except Exception:
        return None  # decode_array raises it, for the right row
    if layout is None:
        return None
    dtype, shape, order, nbytes = layout
    if len(first) != offset + nbytes or nbytes == 0 or (order == "F" and len(shape) > 1):
        return None
    length = len(first)
    for blob in blobs:
        if len(blob) != length or not blob.startswith(prefix):
            return None
    payloads = b"".join([blob[offset:] for blob in blobs])
    return np.frombuffer(payloads, dtype).reshape((len(blobs),) + shape)


def _ragged(node: int, shape: Tuple[int, ...], out: np.ndarray) -> ValueError:
    return ValueError(f"feature row of node {node} has shape {shape}, expected {out.shape[1:]}")


def load_rows(
    get_many: Callable[[Sequence[str]], Sequence[bytes]],
    nodes: Sequence[int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Feature rows of ``nodes`` — one ``get_many`` over their
    ``feat/<node>`` keys — decoded straight into one ``(len(nodes), d)``
    matrix: at once when the blobs are uniform (:func:`_decode_uniform`),
    else row by row.

    The matrix is ``out`` when given (rows are cast to its dtype on
    assignment), else it takes the first row's dtype and width; a row
    of another width raises ``ValueError``, as stacking ragged rows
    did. With no nodes and no ``out`` the width comes from the store's
    ``struct/meta`` entry, or is 0 when there is none.
    """
    nodes = [int(node) for node in nodes]
    blobs = get_many([f"feat/{node}" for node in nodes])
    rows = _decode_uniform(blobs) if blobs else None
    if rows is not None:
        if out is None:
            out = np.empty(rows.shape, dtype=rows.dtype)
        elif rows.shape[1:] != out.shape[1:]:
            raise _ragged(nodes[0], rows.shape[1:], out)
        out[: len(rows)] = rows
        return out
    for position, blob in enumerate(blobs):
        row = decode_array(blob)
        if out is None:
            out = np.empty((len(nodes),) + row.shape, dtype=row.dtype)
        elif row.shape != out.shape[1:]:
            raise _ragged(nodes[position], row.shape, out)
        out[position] = row
    if out is None:
        try:
            feature_dim = int(decode_array(get_many(["struct/meta"])[0])[1])
        except KeyError:
            feature_dim = 0
        out = np.zeros((0, feature_dim))
    return out


class GraphStore:
    """(De)serialise a heterogeneous graph through a KV-store."""

    STRUCT_KEYS = ("node_type", "edge_src", "edge_dst", "edge_type", "labels")

    def __init__(self, store: KVStore) -> None:
        self.store = store

    def save(self, graph: HeteroGraph) -> None:
        """Write the structure arrays and each transaction's ``feat/{node}`` row."""
        for key in self.STRUCT_KEYS:
            self.store.put(f"struct/{key}", encode_array(getattr(graph, key)))
        self.store.put(
            "struct/meta",
            encode_array(np.array([graph.num_nodes, graph.feature_dim], dtype=np.int64)),
        )
        for node, blob in zip(graph.txn_nodes.tolist(), encode_rows(graph.txn_table)):
            self.store.put(f"feat/{node}", blob)
        # Duck-typed: MmapKVStore needs its index footer written, and
        # ReplicatedKVStore forwards to any finalizable replicas.
        finalize = getattr(self.store, "finalize", None)
        if callable(finalize):
            finalize()

    def load(self) -> HeteroGraph:
        """Reassemble the full graph, round-tripping the saved dtype."""
        # Copies: a graph owns writable arrays, not views pinning blobs.
        arrays = {
            key: decode_array(self.store.get(f"struct/{key}")).copy()
            for key in self.STRUCT_KEYS
        }
        txn_nodes = np.flatnonzero(arrays["node_type"] == NODE_TYPE_IDS["txn"])
        return HeteroGraph(txn_table=load_rows(self.store.get_many, txn_nodes), **arrays)


class WorkerLoader:
    """Per-worker feature loader.

    With ``private_handle=True`` (LMDB-style) the loader opens its own
    mmap reader; otherwise every call goes through the store's shared,
    possibly lock-guarded handle (LevelDB-style).
    """

    def __init__(self, store: KVStore, private_handle: bool = True) -> None:
        self.store = store
        self._reader: Optional[_MmapReader] = None
        if private_handle and isinstance(store, MmapKVStore) and not store.single_handle:
            self._reader = store.reader()

    def load_features(self, nodes: Sequence[int]) -> np.ndarray:
        source = self._reader if self._reader is not None else self.store
        return load_rows(source.get_many, nodes)

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def __enter__(self) -> "WorkerLoader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
