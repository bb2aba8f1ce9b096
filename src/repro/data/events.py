"""Time-ordered transaction events — the streaming view of the log.

A :class:`~repro.data.records.TransactionLog` is a batch of
:class:`TxnEvent` rows; the production system xFraud fronts (Sec. 1)
sees the same rows as a *stream*: one event per transaction, in
timestamp order, with the fraud label unknown at arrival (chargebacks
land days later — the stream layer's
:class:`~repro.stream.feedback.LabelFeed` models that lag).
:func:`export_events` is the generator's event-stream export mode: the
same seed produces the same log and therefore the same event sequence,
which is what makes the ``repro stream --demo`` replay gate and the WAL
round-trip tests deterministic.

Events also define their own durable byte codec (:func:`encode_event` /
:func:`decode_event`): a canonical JSON header (sorted keys) followed
by the raw little-endian float64 feature block. The encoding is
byte-stable across runs and platforms, so the stream WAL can frame and
CRC these payloads and a replayed log diffs byte-for-byte. The header is
filled into one fixed template whose bytes are what
``json.dumps(header, sort_keys=True, separators=(",", ":"))`` writes;
``tests/test_stream_wal.py`` holds the two equal.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:  # records.py imports TxnEvent from here
    from .records import TransactionLog

_CODEC_VERSION = 1
_HEADER_SEP = b"\x00"
# The canonical header, keys sorted: what json.dumps(sort_keys=True) writes.
_HEADER = (
    '{"addr_id":%d,"buyer_id":%s,"dim":%d,"email_id":%d,"kind":"txn","label":%d,'
    '"pmt_id":%d,"scenario":%s,"timestamp":%s,"txn_id":%d,"v":' + str(_CODEC_VERSION) + "}"
)
_json_string = functools.lru_cache(maxsize=64)(json.dumps)
# TxnEvent's fields on either side of its timestamp, in field order.
_BEFORE_TIMESTAMP = attrgetter("txn_id", "buyer_id", "email_id", "pmt_id", "addr_id")
_AFTER_TIMESTAMP = attrgetter("features", "label", "scenario")


class EventCodecError(ValueError):
    """An event payload does not decode to a known event shape."""


@dataclass(frozen=True)
class TxnEvent:
    """One transaction: a row of the batch log and an event of the stream.

    ``label`` carries the generator's ground truth: the batch graph's
    supervision, and on the stream what the feedback plane reveals
    after the chargeback delay (a real deployment would receive it in
    a separate chargeback feed). Streamed scoring never reads it — the
    live graph stores ``-1`` until the label feed matures.
    """

    txn_id: int
    buyer_id: Optional[int]
    email_id: int
    pmt_id: int
    addr_id: int
    timestamp: float
    features: np.ndarray = field(compare=False)
    label: int = -1
    scenario: str = "benign"

    def linked_entities(self) -> List[tuple]:
        """(entity_kind, entity_id) pairs this transaction links to."""
        links = [
            ("pmt", self.pmt_id),
            ("email", self.email_id),
            ("addr", self.addr_id),
        ]
        if self.buyer_id is not None:
            links.append(("buyer", self.buyer_id))
        return links


def encode_event(event: TxnEvent) -> bytes:
    """Serialize deterministically: canonical JSON header + raw floats."""
    features = np.ascontiguousarray(event.features, dtype="<f8")
    timestamp = float(event.timestamp)
    head = _HEADER % (
        int(event.addr_id),
        "null" if event.buyer_id is None else "%d" % int(event.buyer_id),
        int(features.shape[0]),
        int(event.email_id),
        int(event.label),
        int(event.pmt_id),
        _json_string(event.scenario),
        repr(timestamp) if math.isfinite(timestamp) else json.dumps(timestamp),
        int(event.txn_id),
    )
    return head.encode("utf-8") + _HEADER_SEP + features.tobytes()


def decode_event(payload: bytes) -> TxnEvent:
    """Inverse of :func:`encode_event`; raises :class:`EventCodecError`."""
    head, sep, body = payload.partition(_HEADER_SEP)
    if not sep:
        raise EventCodecError("event payload missing header separator")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise EventCodecError(f"bad event header: {error}") from error
    shape = (header.get("v"), header.get("kind")) if isinstance(header, dict) else None
    if shape != (_CODEC_VERSION, "txn"):
        raise EventCodecError(f"unsupported event header: {header!r}")
    try:
        dim = int(header["dim"])
        if len(body) != dim * 8:
            raise EventCodecError(f"feature block is {len(body)} bytes, expected {dim * 8}")
        return TxnEvent(
            txn_id=int(header["txn_id"]),
            buyer_id=None if header["buyer_id"] is None else int(header["buyer_id"]),
            email_id=int(header["email_id"]),
            pmt_id=int(header["pmt_id"]),
            addr_id=int(header["addr_id"]),
            timestamp=float(header["timestamp"]),
            features=np.frombuffer(body, dtype="<f8", count=dim).copy(),
            label=int(header["label"]),
            scenario=str(header["scenario"]),
        )
    except EventCodecError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise EventCodecError(f"malformed event header {header!r}: {error!r}") from error


def assemble_event(
    txn_id, buyer_id, email_id, pmt_id, addr_id, timestamp, features, label, scenario
) -> TxnEvent:
    """``TxnEvent(...)`` with all nine fields given: the same instance, minus the
    frozen constructor's lookups (``tests/test_generator.py::TestAssembledEvent``)."""
    event = object.__new__(TxnEvent)
    set_field = object.__setattr__
    set_field(event, "txn_id", txn_id)
    set_field(event, "buyer_id", buyer_id)
    set_field(event, "email_id", email_id)
    set_field(event, "pmt_id", pmt_id)
    set_field(event, "addr_id", addr_id)
    set_field(event, "timestamp", timestamp)
    set_field(event, "features", features)
    set_field(event, "label", label)
    set_field(event, "scenario", scenario)
    return event


def _event_of(event: TxnEvent, timestamp: float) -> TxnEvent:
    """``event`` re-timed to ``timestamp``, around the same features array."""
    return assemble_event(*_BEFORE_TIMESTAMP(event), timestamp, *_AFTER_TIMESTAMP(event))


def export_events(
    log: "TransactionLog", interleave_seed: Optional[int] = None
) -> List[TxnEvent]:
    """Export a transaction log as a time-ordered event stream.

    The generator's clock is globally monotonic, so append order already
    is time order for a freshly generated log; the explicit stable sort
    on ``(timestamp, txn_id)`` makes the contract hold for *any* log
    (e.g. after :meth:`~repro.data.generator.TransactionGenerator.
    downsample_benign`, or logs assembled by tests) and pins a total
    order so the same seed always yields the same event sequence.

    The generator emits scenario by scenario (all benign buyers, then
    the fraud campaigns), so its raw time axis has fraud clustered at
    the end — unrealistic for a stream, where campaigns overlap organic
    traffic. ``interleave_seed`` fixes that deterministically: events
    are permuted by a seeded RNG and re-timed onto the same (sorted)
    multiset of timestamps, preserving every transaction's features,
    links, and label while mixing the scenarios along the clock. A
    re-timed event is assembled around the same features array, as
    ``dataclasses.replace`` would build it, at a fraction of its cost.

    The order is one seeded ``permutation`` draw, and ``TestDigest`` in
    ``tests/test_generator.py`` pins the CRC32 of the encoded events: a
    change to the draws must re-commit that digest and say why.
    """
    events = sorted(log, key=attrgetter("timestamp", "txn_id"))
    if interleave_seed is None:
        return events
    rng = np.random.default_rng(interleave_seed)
    order = rng.permutation(len(events))
    times = [event.timestamp for event in events]  # already ascending
    return [
        _event_of(events[position], timestamp)
        for position, timestamp in zip(order.tolist(), times)
    ]
