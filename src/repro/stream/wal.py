"""Durable append-only event log (WAL) for the streaming ingestion path.

Every transaction event is framed ``[u32 length][u32 crc32][payload]``
and appended to the active segment file; segments rotate at a size
threshold. Sealing a segment fsyncs it and records its whole-file
CRC32 and size in ``MANIFEST.json``: a durable file of
:mod:`repro.durable`, like a checkpoint.

Failure model (mirrored in DESIGN.md):

* *torn tail* — the process died mid-append, leaving a half-written
  frame at the end of the **active** (unsealed) segment. Recovery is
  well-defined: every frame before the tear carries its own CRC, so
  :func:`replay_wal` yields the valid prefix and raises
  :class:`TornTailError` at the tear (never garbage events), and
  reopening the log with :class:`EventLog` truncates the tear and
  resumes appending at the last durable record.
* *sealed-segment corruption* — bit rot or truncation in a segment the
  manifest has already sealed. That is not a recoverable tear (the data
  was acknowledged durable), so replay raises
  :class:`WalCorruptionError`.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..data.events import TxnEvent, decode_event, encode_event
from ..durable import Manifest, fsync_dir

_MANIFEST_FORMAT = "repro-wal-manifest-v1"
_SEGMENT_PATTERN = re.compile(r"^wal-(\d{6})\.seg$")
_FRAME_HEADER = struct.Struct("<II")
#: Upper bound on one record's payload — anything larger in a length
#: field is treated as a tear/corruption, not an allocation request.
_MAX_RECORD_BYTES = 16 * 1024 * 1024


class WalError(RuntimeError):
    """Base class for event-log failures."""


@dataclass
class TornTail:
    """Where an unsealed segment tears: everything before is valid."""

    segment: str
    offset: int
    valid_records: int
    reason: str


class TornTailError(WalError):
    """The active segment ends in a half-written frame (crash mid-append)."""

    def __init__(self, tail: TornTail) -> None:
        super().__init__(
            f"{tail.segment}: torn tail at byte {tail.offset} after "
            f"{tail.valid_records} valid records ({tail.reason})"
        )
        self.tail = tail


class WalCorruptionError(WalError):
    """A sealed segment fails its manifest checksum or record framing."""


def _segment_name(index: int) -> str:
    return f"wal-{index:06d}.seg"


def _segment_index(name: str) -> int:
    return int(_SEGMENT_PATTERN.match(name).group(1))


def _manifest(directory: str) -> Manifest:
    return Manifest(directory, _MANIFEST_FORMAT, "segments", WalCorruptionError)


def _scan_directory(manifest: Manifest) -> Tuple[List[Dict], List[str], Optional[str]]:
    """The sealed entries, the sealed names missing on disk, and the one
    unsealed (active) segment or ``None``. A second unsealed segment
    means the manifest lost a seal: which holds the older records is
    unknowable, so it raises."""
    sealed = manifest.read()
    sealed_names = {entry["file"] for entry in sealed}
    on_disk = {name for name in os.listdir(manifest.directory) if _SEGMENT_PATTERN.match(name)}
    unsealed = sorted(on_disk - sealed_names)
    if len(unsealed) > 1:
        raise WalCorruptionError(f"{manifest.directory}: multiple unsealed segments: {unsealed}")
    return sealed, sorted(sealed_names - on_disk), (unsealed[0] if unsealed else None)


def _scan_frames(blob: bytes) -> Tuple[List[bytes], int, Optional[str]]:
    """Walk ``blob`` frame by frame.

    Returns ``(payloads, valid_end, tear_reason)`` where ``valid_end``
    is the byte offset just past the last frame whose CRC verified and
    ``tear_reason`` is ``None`` for a cleanly-ending blob.
    """
    payloads: List[bytes] = []
    offset = 0
    total = len(blob)
    while offset < total:
        if total - offset < _FRAME_HEADER.size:
            return payloads, offset, "truncated frame header"
        length, crc = _FRAME_HEADER.unpack_from(blob, offset)
        if length == 0:
            # No codec emits an empty payload, but crc32(b"") == 0, so a
            # zero-filled tail (preallocated blocks after a crash) would
            # otherwise parse as an endless run of "valid" empty frames.
            return payloads, offset, "zero-length frame"
        if length > _MAX_RECORD_BYTES:
            return payloads, offset, f"implausible record length {length}"
        body_start = offset + _FRAME_HEADER.size
        if total - body_start < length:
            return payloads, offset, "truncated record body"
        payload = blob[body_start : body_start + length]
        if zlib.crc32(payload) != crc:
            return payloads, offset, "record checksum mismatch"
        payloads.append(payload)
        offset = body_start + length
    return payloads, offset, None


def _read_unsealed(path: str) -> Tuple[List[bytes], int, Optional[TornTail]]:
    """The active segment's valid payloads, where they end, and its
    tear (``None`` for a cleanly-ending segment)."""
    with open(path, "rb") as handle:
        payloads, valid_end, tear = _scan_frames(handle.read())
    if tear is None:
        return payloads, valid_end, None
    return payloads, valid_end, TornTail(os.path.basename(path), valid_end, len(payloads), tear)


class EventLog:
    """Segmented, checksummed, append-only log of :class:`TxnEvent`.

    Opening an existing directory recovers it: sealed segments are
    trusted to the manifest, the single unsealed (active) segment is
    scanned frame-by-frame, and a torn tail is truncated away (recorded
    in :attr:`recovered_tail`) so appends resume at the last durable
    record. Appends are buffered through the OS page cache;
    :meth:`sync` (and every seal) makes them durable with ``fsync``.
    """

    def __init__(
        self,
        directory: str,
        segment_max_bytes: int = 1 << 20,
        fsync: bool = True,
    ) -> None:
        if segment_max_bytes < _FRAME_HEADER.size + 1:
            raise ValueError("segment_max_bytes too small for one frame")
        self.directory = directory
        self.segment_max_bytes = segment_max_bytes
        self.fsync = fsync
        self.recovered_tail: Optional[TornTail] = None
        os.makedirs(directory, exist_ok=True)
        self._manifest = _manifest(directory)
        self._recover()
        # A crash between the append that filled the segment to the
        # rotation boundary and the rotate() it triggers leaves a full
        # unsealed segment behind. Seal it now so the manifest agrees
        # with what a healthy run would have produced and the next
        # append never grows a segment past the boundary.
        if self._active_records and self._active_size >= self.segment_max_bytes:
            self.rotate()

    # -- recovery -------------------------------------------------------
    def _recover(self) -> None:
        self._sealed, missing, unsealed = _scan_directory(self._manifest)
        if missing:
            raise WalCorruptionError(
                f"{self.directory}: sealed segments missing on disk: {missing}"
            )
        self._next_seq = int(self._sealed[-1]["last_seq"]) + 1 if self._sealed else 0
        if unsealed is None:
            last_index = max((_segment_index(entry["file"]) for entry in self._sealed), default=0)
            self._open_segment(last_index + 1)
            return
        path = os.path.join(self.directory, unsealed)
        payloads, valid_end, self.recovered_tail = _read_unsealed(path)
        if self.recovered_tail is not None:
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
                handle.flush()
                os.fsync(handle.fileno())
            fsync_dir(self.directory)
        self._active_name = unsealed
        self._active_records = len(payloads)
        self._active_first_seq = self._next_seq
        self._next_seq += len(payloads)
        self._active_size = valid_end
        self._active_file = open(path, "ab")

    def _open_segment(self, index: int) -> None:
        self._active_name = _segment_name(index)
        self._active_records = 0
        self._active_first_seq = self._next_seq
        self._active_size = 0
        path = os.path.join(self.directory, self._active_name)
        self._active_file = open(path, "ab")
        if self.fsync:
            fsync_dir(self.directory)

    # -- introspection --------------------------------------------------
    @property
    def record_count(self) -> int:
        """Total durable records across sealed + active segments."""
        return self._next_seq

    def segment_count(self) -> int:
        return len(self._sealed) + 1

    def segments(self) -> List[Dict]:
        """Sealed manifest entries plus the live active-segment row."""
        rows = [dict(entry, sealed=True) for entry in self._sealed]
        rows.append(
            {
                "file": self._active_name,
                "records": self._active_records,
                "first_seq": self._active_first_seq,
                "last_seq": self._next_seq - 1,
                "size": self._active_size,
                "sealed": False,
            }
        )
        return rows

    # -- append / rotate ------------------------------------------------
    def append(self, event: TxnEvent) -> int:
        """Append one event; returns its global sequence number."""
        payload = encode_event(event)
        frame = _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._active_file.write(frame)
        self._active_file.flush()
        seq = self._next_seq
        self._next_seq += 1
        self._active_records += 1
        self._active_size += len(frame)
        if self._active_size >= self.segment_max_bytes:
            self.rotate()
        return seq

    def append_many(self, events: List[TxnEvent]) -> List[int]:
        return [self.append(event) for event in events]

    def sync(self) -> None:
        """Group commit: fsync the active segment."""
        self._active_file.flush()
        if self.fsync:
            os.fsync(self._active_file.fileno())

    def rotate(self) -> None:
        """Seal the active segment into the manifest; open the next one."""
        self.sync()
        self._active_file.close()
        path = os.path.join(self.directory, self._active_name)
        with open(path, "rb") as handle:
            blob = handle.read()
        if self._active_records:
            self._sealed.append(
                {
                    "file": self._active_name,
                    "records": self._active_records,
                    "first_seq": self._active_first_seq,
                    "last_seq": self._next_seq - 1,
                    "size": len(blob),
                    "crc32": zlib.crc32(blob),
                }
            )
            self._manifest.write(self._sealed)
            self._open_segment(_segment_index(self._active_name) + 1)
        else:
            # Nothing to seal — reopen the same empty segment.
            self._active_file = open(path, "ab")

    def close(self) -> None:
        """Make the active segment durable; it stays unsealed so a
        reopened log keeps appending into it."""
        self.sync()
        self._active_file.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay ---------------------------------------------------------
    def replay(self) -> Iterator[Tuple[int, TxnEvent]]:
        """Replay every durable event in sequence order (read-only).

        Safe to call on an open log: it re-reads the files rather than
        touching the append handle. Raises :class:`WalCorruptionError`
        for sealed-segment damage and :class:`TornTailError` if the
        active segment tears (only possible when the file was mangled
        after this instance recovered it).
        """
        self._active_file.flush()
        return replay_wal(self.directory)


def replay_wal(directory: str) -> Iterator[Tuple[int, TxnEvent]]:
    """Read-only replay of a WAL directory.

    Yields ``(seq, event)`` for every record whose checksum verifies,
    in order. Sealed segments must match the manifest byte-for-byte
    (size + CRC32) or :class:`WalCorruptionError` is raised before any
    of their records are yielded; a torn frame at the end of the active
    segment raises :class:`TornTailError` *after* the valid prefix has
    been yielded — the replayer never fabricates events past the tear.
    """
    manifest = _manifest(directory)
    sealed, missing, unsealed = _scan_directory(manifest)
    if missing:
        raise WalCorruptionError(f"{os.path.join(directory, missing[0])}: sealed segment missing")
    seq = 0
    for entry in sealed:
        path = os.path.join(directory, entry["file"])
        blob = manifest.read_sealed(path, entry, "sealed segment fails manifest checksum")
        payloads, _, tear = _scan_frames(blob)
        if tear is not None or len(payloads) != entry["records"]:
            raise WalCorruptionError(f"{path}: sealed segment framing damaged")
        for payload in payloads:
            yield seq, decode_event(payload)
            seq += 1
    if unsealed is not None:
        payloads, _, tail = _read_unsealed(os.path.join(directory, unsealed))
        for payload in payloads:
            yield seq, decode_event(payload)
            seq += 1
        if tail is not None:
            raise TornTailError(tail)
