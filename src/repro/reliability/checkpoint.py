"""Crash-safe training checkpoints (Appendix H.5: daily retrains).

A checkpoint captures *everything* a training run needs to continue as
if it had never stopped: model parameters, optimizer moments, every RNG
the run draws from (trainer shuffling + module dropout), and the
early-stopping bookkeeping. Restoring one therefore reproduces the
uninterrupted run bit for bit — asserted by the kill-and-resume test.

Each archive is a durable file (:mod:`repro.durable`): written by
atomic replace, then sealed into the directory's ``MANIFEST.json``,
whose size + CRC32 :meth:`CheckpointManager.load` checks before it
trusts the archive. Rotation keeps the newest ``keep_last``.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..durable import Manifest, atomic_write_bytes, fsync_dir

_MANIFEST_FORMAT = "repro-ckpt-manifest-v1"
_CHECKPOINT_FORMAT = "repro-ckpt-v1"
_META_KEY = "__meta__"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, truncated, or fails its checksum."""


# -- RNG capture --------------------------------------------------------
def _iter_modules(module, prefix: str = "") -> Iterator[Tuple[str, object]]:
    yield prefix, module
    for name, child in getattr(module, "_modules", {}).items():
        yield from _iter_modules(child, prefix=f"{prefix}{name}.")


def collect_rng_states(module) -> Dict[str, dict]:
    """Snapshot every ``np.random.Generator`` owned by the module tree.

    Dropout layers (and the heterogeneous conv's attention dropout)
    consume their generator during training, so resuming bit-exactly
    requires restoring these alongside the parameters.
    """
    states: Dict[str, dict] = {}
    for path, mod in _iter_modules(module):
        for attr, value in vars(mod).items():
            if isinstance(value, np.random.Generator):
                states[f"{path}{attr}"] = value.bit_generator.state
    return states


def restore_rng_states(module, states: Dict[str, dict]) -> None:
    """Restore generator states captured by :func:`collect_rng_states`."""
    for path, mod in _iter_modules(module):
        for attr, value in vars(mod).items():
            key = f"{path}{attr}"
            if isinstance(value, np.random.Generator) and key in states:
                value.bit_generator.state = states[key]


# -- training state -----------------------------------------------------
@dataclass
class TrainingState:
    """Complete snapshot of a training run after ``epoch`` finished."""

    epoch: int
    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict
    rng_states: Dict
    best_state: Optional[Dict[str, np.ndarray]] = None
    best_auc: float = 0.0
    epochs_since_best: int = 0
    history: List[Dict] = field(default_factory=list)

    def section(self, name: str) -> Dict:
        """What ``capture_training_state(..., sections={name: ...})``
        stored, or ``{}``. The archive keeps sections beside the RNG
        streams (``rng_states[name]``); only this module knows that."""
        return self.rng_states.get(name, {})


def capture_training_state(
    model, optimizer, rng, epoch: int, sections: Optional[Dict[str, Dict]] = None, **bookkeeping
) -> TrainingState:
    """The one snapshot every trainer takes after ``epoch``.

    Parameters, optimizer moments, the trainer's shuffle ``rng`` and
    every module generator; ``sections`` are a caller's own JSON-safe
    records (the elastic supervisor's membership, detector and clock),
    ``bookkeeping`` the remaining :class:`TrainingState` fields.
    """
    rng_states = {"trainer": rng.bit_generator.state, "model": collect_rng_states(model)}
    rng_states.update(sections or {})
    return TrainingState(
        epoch=epoch,
        model_state=model.state_dict(),
        optimizer_state=optimizer.state_dict(),
        rng_states=rng_states,
        **bookkeeping,
    )


def restore_training_state(state: TrainingState, model, optimizer, rng) -> None:
    """Inverse of :func:`capture_training_state` (resume, rollback and
    rejoin catch-up all land here); sections and bookkeeping are the
    caller's to read back."""
    model.load_state_dict(state.model_state)
    optimizer.load_state_dict(state.optimizer_state)
    rng.bit_generator.state = state.rng_states["trainer"]
    restore_rng_states(model, state.rng_states.get("model", {}))


def _encode_checkpoint(state: TrainingState) -> bytes:
    """Flatten a :class:`TrainingState` into one ``.npz`` byte blob."""
    arrays: Dict[str, np.ndarray] = {}
    for name, value in state.model_state.items():
        arrays[f"model::{name}"] = value
    if state.best_state is not None:
        for name, value in state.best_state.items():
            arrays[f"best::{name}"] = value
    optim_scalars: Dict[str, object] = {}
    optim_array_fields: Dict[str, int] = {}
    for key, value in state.optimizer_state.items():
        if isinstance(value, list) and all(isinstance(item, np.ndarray) for item in value):
            optim_array_fields[key] = len(value)
            for index, item in enumerate(value):
                arrays[f"optim::{key}::{index:04d}"] = item
        elif isinstance(value, np.ndarray):
            optim_array_fields[key] = -1  # single array, not a list
            arrays[f"optim::{key}::single"] = value
        else:
            optim_scalars[key] = value
    meta = {
        "format": _CHECKPOINT_FORMAT,
        "epoch": state.epoch,
        "best_auc": state.best_auc,
        "epochs_since_best": state.epochs_since_best,
        "history": state.history,
        "rng_states": state.rng_states,
        "optim_scalars": optim_scalars,
        "optim_array_fields": optim_array_fields,
        "has_best": state.best_state is not None,
    }
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _decode_checkpoint(blob: bytes, origin: str) -> TrainingState:
    try:
        archive = np.load(io.BytesIO(blob), allow_pickle=False)
    except (ValueError, OSError) as error:
        raise CheckpointError(f"{origin}: not a checkpoint archive: {error}") from error
    with archive:
        if _META_KEY not in archive.files:
            raise CheckpointError(f"{origin}: missing checkpoint metadata")
        meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
        if meta.get("format") != _CHECKPOINT_FORMAT:
            raise CheckpointError(f"{origin}: unsupported format {meta.get('format')!r}")
        model_state: Dict[str, np.ndarray] = {}
        best_state: Dict[str, np.ndarray] = {}
        optim_lists: Dict[str, Dict[int, np.ndarray]] = {}
        optim_state: Dict = dict(meta["optim_scalars"])
        for key in archive.files:
            if key == _META_KEY:
                continue
            section, _, rest = key.partition("::")
            if section == "model":
                model_state[rest] = archive[key]
            elif section == "best":
                best_state[rest] = archive[key]
            elif section == "optim":
                name, _, index = rest.partition("::")
                if index == "single":
                    optim_state[name] = archive[key]
                else:
                    optim_lists.setdefault(name, {})[int(index)] = archive[key]
        for name, expected in meta["optim_array_fields"].items():
            if expected == -1:
                continue
            items = optim_lists.get(name, {})
            if len(items) != expected:
                raise CheckpointError(f"{origin}: optimizer field {name!r} is incomplete")
            optim_state[name] = [items[i] for i in range(expected)]
    return TrainingState(
        epoch=int(meta["epoch"]),
        model_state=model_state,
        optimizer_state=optim_state,
        rng_states=meta["rng_states"],
        best_state=best_state if meta["has_best"] else None,
        best_auc=float(meta["best_auc"]),
        epochs_since_best=int(meta["epochs_since_best"]),
        history=list(meta["history"]),
    )


# -- manager ------------------------------------------------------------
class CheckpointManager:
    """Rotating, checksummed checkpoints under one directory."""

    def __init__(self, directory: str, keep_last: int = 3) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = directory
        self.keep_last = keep_last
        os.makedirs(directory, exist_ok=True)
        self._manifest = Manifest(directory, _MANIFEST_FORMAT, "checkpoints", CheckpointError)

    @property
    def manifest_path(self) -> str:
        return self._manifest.path

    def checkpoints(self) -> List[Dict]:
        """Manifest entries (oldest first) whose files still exist."""
        return [
            entry
            for entry in self._manifest.read()
            if os.path.exists(os.path.join(self.directory, entry["file"]))
        ]

    def latest(self) -> Optional[str]:
        """Path of the newest checkpoint, or ``None``."""
        entries = self.checkpoints()
        if not entries:
            return None
        newest = max(entries, key=lambda entry: entry["epoch"])
        return os.path.join(self.directory, newest["file"])

    # -- save / load ----------------------------------------------------
    def save(self, state: TrainingState) -> str:
        """Atomically write one checkpoint; rotate old ones out.

        Rotation ordering is part of the durability contract: the
        manifest (the pointer to the newest checkpoint) is written and
        directory-fsynced *before* any stale archive is unlinked, and
        the unlinks are fsynced afterwards. A crash at any point
        therefore leaves a manifest whose newest entry exists on disk —
        at worst with an orphaned stale archive alongside it, never
        with the newest checkpoint unreachable.
        """
        blob = _encode_checkpoint(state)
        filename = f"ckpt-{state.epoch:06d}.npz"
        path = os.path.join(self.directory, filename)
        atomic_write_bytes(path, blob)

        entries = [e for e in self._manifest.read() if e["file"] != filename]
        entries.append(
            {"file": filename, "epoch": state.epoch, "crc32": zlib.crc32(blob), "size": len(blob)}
        )
        entries.sort(key=lambda entry: entry["epoch"])
        stale_entries = []
        while len(entries) > self.keep_last:
            stale_entries.append(entries.pop(0))
        self._manifest.write(entries)
        for stale in stale_entries:
            stale_path = os.path.join(self.directory, stale["file"])
            if os.path.exists(stale_path):
                os.remove(stale_path)
        if stale_entries:
            fsync_dir(self.directory)
        return path

    def load(self, path: Optional[str] = None) -> TrainingState:
        """Load (and CRC-verify) a checkpoint; default: the newest."""
        if path is None:
            path = self.latest()
            if path is None:
                raise CheckpointError(f"no checkpoints in {self.directory}")
        if not os.path.exists(path):
            raise CheckpointError(f"checkpoint {path} does not exist")
        name = os.path.basename(path)
        entry = next((e for e in self._manifest.read() if e["file"] == name), None)
        blob = self._manifest.read_sealed(path, entry, "checksum mismatch (truncated or corrupt)")
        return _decode_checkpoint(blob, origin=path)


def load_training_state(source) -> TrainingState:
    """Resolve a resume source: a :class:`TrainingState` itself, a
    manager or checkpoint directory (the newest checkpoint), or one
    checkpoint file."""
    if isinstance(source, TrainingState):
        return source
    if isinstance(source, CheckpointManager):
        return source.load()
    if isinstance(source, str):
        if os.path.isdir(source):
            return CheckpointManager(source).load()
        return CheckpointManager(os.path.dirname(source) or ".").load(source)
    raise TypeError(f"cannot resume from {type(source).__name__}")
