"""repro.reliability — fault tolerance for training and storage.

Production xFraud (Sec. 3.3, Appendix H.5) retrains daily over a
KV-store-backed graph; this subsystem supplies the durability layer a
deployment needs: crash-safe checkpoint/resume and deterministic
failure injection for the simulated DDP cluster and the feature store.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointManager,
    TrainingState,
    capture_training_state,
    collect_rng_states,
    load_training_state,
    restore_rng_states,
    restore_training_state,
)
from .faults import FaultEvent, FaultPlan, FaultyKVStore, ManualClock
from ..storage.kvstore import TransientReadError

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "TrainingState",
    "capture_training_state",
    "collect_rng_states",
    "load_training_state",
    "restore_rng_states",
    "restore_training_state",
    "FaultEvent",
    "FaultPlan",
    "FaultyKVStore",
    "ManualClock",
    "TransientReadError",
]
