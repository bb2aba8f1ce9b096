"""What a durable file is: one atomic write and one manifest of sealed files.

*Atomic replace* (:func:`atomic_write_bytes`) is temp write → fsync →
rename → directory fsync: a crash leaves the old file or the new one.
A *seal* is the file's fsync followed by a :class:`Manifest` write that
records its ``size`` and ``crc32``; :meth:`Manifest.read_sealed` checks
both before trusting the bytes. A checkpoint archive is an atomic
replace, then sealed; a WAL segment is appended in place, then sealed;
saved weights and every manifest are atomic replaces. Like
:mod:`repro.util`, this module imports nothing from the package.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, List, Optional, Type

__all__ = ["Manifest", "atomic_write_bytes", "fsync_dir"]


def fsync_dir(directory: str) -> None:
    """fsync a directory so renames/unlinks inside it are durable."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash never leaves a torn file."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp_path = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    fsync_dir(directory)


class Manifest:
    """A directory's ``MANIFEST.json``: ``{"format": <format>, <key>:
    [entries]}``, each entry a sealed file's ``file``, ``size`` and
    ``crc32`` beside the caller's own fields (kept in the order the
    caller built them). Damage is reported as the caller's ``error``."""

    def __init__(self, directory: str, format: str, key: str, error: Type[Exception]) -> None:
        self.directory = directory
        self.format = format
        self.key = key
        self.error = error
        self.path = os.path.join(directory, "MANIFEST.json")

    def read(self) -> List[Dict]:
        """The entries, oldest first; ``[]`` before the first seal."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            try:
                manifest = json.load(handle)
            except json.JSONDecodeError as error:
                raise self.error(f"{self.path}: corrupt manifest: {error}") from error
        if manifest.get("format") != self.format:
            raise self.error(
                f"{self.path}: unsupported manifest format {manifest.get('format')!r}"
            )
        return manifest[self.key]

    def write(self, entries: List[Dict]) -> None:
        manifest = {"format": self.format, self.key: entries}
        atomic_write_bytes(self.path, json.dumps(manifest, indent=2).encode("utf-8"))

    def read_sealed(self, path: str, entry: Optional[Dict], mismatch: str) -> bytes:
        """``path``'s bytes, after a size + CRC32 check against its
        ``entry`` (none without one); a mismatch raises
        ``error(f"{path}: {mismatch}")``."""
        with open(path, "rb") as handle:
            blob = handle.read()
        if entry is not None and (
            len(blob) != entry["size"] or zlib.crc32(blob) != entry["crc32"]
        ):
            raise self.error(f"{path}: {mismatch}")
        return blob
