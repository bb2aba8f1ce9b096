"""Model persistence: save/load parameter state as ``.npz`` archives.

The production scenario of Appendix H.5 (daily incremental updates,
combining historical and fresh models) needs trained detectors to be
stored and reloaded; this module provides that without pickle (the
archive holds only arrays plus a manifest).
"""

from __future__ import annotations

import io
import json
import os
import zlib
from typing import Dict

import numpy as np

from ..durable import atomic_write_bytes
from .module import Module

_MANIFEST_KEY = "__manifest__"


def _array_crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def save_state(model: Module, path: str) -> str:
    """Write a model's parameters to ``path`` (``.npz`` appended if
    missing) by atomic replace, so a crash keeps the previous archive.
    Returns the path written."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    state = model.state_dict()
    manifest = {
        "format": "repro-state-v1",
        "num_parameters": int(sum(array.size for array in state.values())),
        "keys": sorted(state),
        "crc32": {key: _array_crc(array) for key, array in state.items()},
    }
    payload: Dict[str, np.ndarray] = dict(state)
    payload[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    atomic_write_bytes(path, buffer.getvalue())
    return path


def load_state(model: Module, path: str) -> Module:
    """Load parameters saved by :func:`save_state` into ``model``.

    The model's architecture must match (same parameter names and
    shapes); mismatches raise KeyError / ValueError via
    ``load_state_dict``.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    if not os.path.exists(path):
        raise FileNotFoundError(f"no model state archive at {path}")
    with np.load(path) as archive:
        manifest_raw = archive.get(_MANIFEST_KEY)
        if manifest_raw is None:
            raise ValueError(f"{path} is not a repro state archive")
        manifest = json.loads(bytes(manifest_raw.tobytes()).decode("utf-8"))
        if manifest.get("format") != "repro-state-v1":
            raise ValueError(f"unsupported state format {manifest.get('format')!r}")
        state = {key: archive[key] for key in archive.files if key != _MANIFEST_KEY}
    # Checksums were added for crash-safety; archives written before
    # then simply skip verification.
    for key, expected in manifest.get("crc32", {}).items():
        if key in state and _array_crc(state[key]) != expected:
            raise ValueError(f"{path}: checksum mismatch for {key!r} (corrupt archive)")
    model.load_state_dict(state)
    return model


def read_manifest(path: str) -> Dict:
    """Read only the manifest of a saved state (cheap inspection)."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as archive:
        manifest_raw = archive.get(_MANIFEST_KEY)
        if manifest_raw is None:
            raise ValueError(f"{path} is not a repro state archive")
        return json.loads(bytes(manifest_raw.tobytes()).decode("utf-8"))
