"""repro.storage — KV-store substrate for graph data loading."""

from .kvstore import (
    CorruptStoreError,
    InMemoryKVStore,
    KVStore,
    MmapKVStore,
    TransientReadError,
    propagate_instrument,
)
from .loader import GraphStore, WorkerLoader, decode_array, encode_array, encode_rows, load_rows
from .replicated import (
    AllReplicasFailedError,
    AntiEntropyReport,
    ReplicaHealth,
    ReplicatedConfig,
    ReplicatedKVStore,
)

__all__ = [
    "KVStore",
    "CorruptStoreError",
    "TransientReadError",
    "InMemoryKVStore",
    "MmapKVStore",
    "GraphStore",
    "WorkerLoader",
    "encode_array",
    "encode_rows",
    "decode_array",
    "load_rows",
    "propagate_instrument",
    "AllReplicasFailedError",
    "AntiEntropyReport",
    "ReplicaHealth",
    "ReplicatedConfig",
    "ReplicatedKVStore",
]
