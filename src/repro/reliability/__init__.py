"""repro.reliability — fault tolerance for training and storage.

Production xFraud (Sec. 3.3, Appendix H.5) retrains daily over a
KV-store-backed graph; this subsystem supplies the durability layer a
deployment needs: crash-safe checkpoint/resume, deterministic failure
injection for the simulated DDP cluster, and checksummed, retryable
storage reads.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointManager,
    TrainingState,
    atomic_write_bytes,
    collect_rng_states,
    fsync_dir,
    restore_rng_states,
)
from .faults import (
    CorruptKVStore,
    FaultEvent,
    FaultPlan,
    FlakyKVStore,
    ManualClock,
    OutageKVStore,
    SlowKVStore,
)
from .retry import RetryPolicy, RetryingKVStore, TransientReadError, retry_call

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "TrainingState",
    "atomic_write_bytes",
    "collect_rng_states",
    "fsync_dir",
    "restore_rng_states",
    "CorruptKVStore",
    "FaultEvent",
    "FaultPlan",
    "FlakyKVStore",
    "ManualClock",
    "OutageKVStore",
    "SlowKVStore",
    "RetryPolicy",
    "RetryingKVStore",
    "TransientReadError",
    "retry_call",
]
