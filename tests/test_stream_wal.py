"""Event codec + durable event log (WAL): framing, rotation, recovery.

The torn-tail tests pin the subsystem's central durability claim: a
crash mid-append loses at most the half-written record — replay yields
every checksummed prefix record and raises a *typed* error at the tear
(never garbage events), and reopening the log truncates the tear and
resumes appending at the last durable record.
"""

import json
import os
import zlib

import numpy as np
import pytest

from repro.data import GeneratorConfig, TransactionGenerator, export_events, generate_log
from repro.data.events import TxnEvent, decode_event, encode_event
from repro.stream import EventLog, TornTailError, WalCorruptionError, replay_wal


def _events(n=12, seed=0, dim=6):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(
            TxnEvent(
                txn_id=i,
                buyer_id=None if i % 5 == 0 else 1000 + i % 3,
                email_id=2000 + i % 4,
                pmt_id=3000 + i % 3,
                addr_id=4000 + i % 2,
                timestamp=float(i),
                features=rng.normal(size=dim),
                label=int(i % 7 == 0),
                scenario="benign" if i % 7 else "stolen_card",
            )
        )
    return out


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestEventCodec:
    def test_round_trip(self):
        for event in _events():
            back = decode_event(encode_event(event))
            assert back.txn_id == event.txn_id
            assert back.buyer_id == event.buyer_id
            assert back.email_id == event.email_id
            assert back.pmt_id == event.pmt_id
            assert back.addr_id == event.addr_id
            assert back.timestamp == event.timestamp
            assert back.label == event.label
            assert back.scenario == event.scenario
            np.testing.assert_array_equal(back.features, event.features)

    def test_guest_checkout_has_no_buyer_link(self):
        event = _events()[0]
        assert event.buyer_id is None
        kinds = [kind for kind, _ in event.linked_entities()]
        assert kinds == ["pmt", "email", "addr"]

    def test_encoding_is_byte_stable(self):
        for event in _events():
            assert encode_event(event) == encode_event(event)

    def test_garbage_rejected(self):
        from repro.data.events import EventCodecError

        with pytest.raises(EventCodecError):
            decode_event(b"not an event at all")
        # Valid header, truncated feature block.
        blob = encode_event(_events()[1])
        with pytest.raises(EventCodecError):
            decode_event(blob[:-4])

    @staticmethod
    def _json_header(event):
        """The header spec: ``json.dumps`` of the sorted header dict."""
        header = {
            "v": 1,
            "kind": "txn",
            "txn_id": int(event.txn_id),
            "buyer_id": None if event.buyer_id is None else int(event.buyer_id),
            "email_id": int(event.email_id),
            "pmt_id": int(event.pmt_id),
            "addr_id": int(event.addr_id),
            "timestamp": float(event.timestamp),
            "label": int(event.label),
            "scenario": event.scenario,
            "dim": len(event.features),
        }
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def test_header_is_the_sorted_json_dump(self):
        stream = TransactionGenerator(
            GeneratorConfig(num_benign_buyers=60, feature_dim=4, seed=5)
        ).event_stream(interleave=True)
        event = _events(n=1)[0]
        edge_cases = [
            TxnEvent(
                txn_id=2**31 + 7,
                buyer_id=buyer_id,
                email_id=2**40,
                pmt_id=2**63 - 1,
                addr_id=0,
                timestamp=timestamp,
                features=event.features,
                label=label,
                scenario=scenario,
            )
            for buyer_id, label in ((None, -1), (2**33, 0), (np.int64(5), np.int64(1)))
            for timestamp in (0.0, 1e-7, 1e16, 0.1 + 0.2, -2.5, np.float64(3.25), np.nan, np.inf, -np.inf)
            for scenario in ("benign", 'say "hi"', "back\\slash", "caf\u00e9 \u2603", "tab\tnew\nline")
        ]
        for event in stream + edge_cases:
            head, sep, body = encode_event(event).partition(b"\x00")
            assert (head, sep) == (self._json_header(event), b"\x00")
            assert body == np.asarray(event.features, dtype="<f8").tobytes()

    def _payload(self, **changes):
        """A well-framed payload whose header dict took ``changes``
        (``None`` deletes a key)."""
        head, _, body = encode_event(_events()[1]).partition(b"\x00")
        header = json.loads(head)
        for key, value in changes.items():
            if value is None:
                del header[key]
            else:
                header[key] = value
        return json.dumps(header).encode() + b"\x00" + body

    def test_a_header_that_is_not_an_object_is_a_codec_error(self):
        from repro.data.events import EventCodecError

        with pytest.raises(EventCodecError):
            decode_event(b"[1]\x00" + bytes(48))

    def test_a_header_without_dim_is_a_codec_error(self):
        from repro.data.events import EventCodecError

        with pytest.raises(EventCodecError, match="dim"):
            decode_event(self._payload(dim=None))

    def test_a_non_numeric_dim_is_a_codec_error(self):
        from repro.data.events import EventCodecError

        with pytest.raises(EventCodecError, match="'x'"):
            decode_event(self._payload(dim="x"))
        assert decode_event(self._payload()).txn_id == 1


# ----------------------------------------------------------------------
# Generator export mode
# ----------------------------------------------------------------------
class TestEventExport:
    def _generator(self, seed=0):
        return TransactionGenerator(
            GeneratorConfig(
                num_benign_buyers=40,
                num_stolen_cards=3,
                num_warehouse_rings=2,
                num_cultivated_accounts=2,
                num_guest_checkouts=5,
                num_apartment_buildings=2,
                feature_dim=8,
                seed=seed,
            )
        )

    def test_same_seed_same_sequence(self):
        first = self._generator().event_stream()
        second = self._generator().event_stream()
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert encode_event(a) == encode_event(b)

    def test_time_ordered(self):
        events = self._generator().event_stream()
        times = [event.timestamp for event in events]
        assert times == sorted(times)

    def test_interleave_is_deterministic_and_time_ordered(self):
        first = self._generator().event_stream(interleave=True)
        second = self._generator().event_stream(interleave=True)
        for a, b in zip(first, second):
            assert encode_event(a) == encode_event(b)
        times = [event.timestamp for event in first]
        assert times == sorted(times)
        # Same transactions, same multiset of timestamps, mixed order.
        plain = self._generator().event_stream()
        assert sorted(e.txn_id for e in first) == sorted(e.txn_id for e in plain)
        assert [e.timestamp for e in first] == [e.timestamp for e in plain]
        assert [e.txn_id for e in first] != [e.txn_id for e in plain]

    def test_export_matches_log(self):
        log = generate_log(
            GeneratorConfig(num_benign_buyers=30, feature_dim=8, seed=1)
        )
        events = export_events(log)
        by_id = {record.txn_id: record for record in log}
        assert len(events) == len(log)
        for event in events:
            record = by_id[event.txn_id]
            assert event.label == record.label
            np.testing.assert_array_equal(event.features, record.features)


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestEventLog:
    def test_append_replay_round_trip(self, tmp_path):
        events = _events(10)
        with EventLog(str(tmp_path), fsync=False) as log:
            seqs = log.append_many(events)
        assert seqs == list(range(10))
        replayed = list(replay_wal(str(tmp_path)))
        assert [seq for seq, _ in replayed] == list(range(10))
        for (_, back), event in zip(replayed, events):
            assert encode_event(back) == encode_event(event)

    def test_rotation_seals_segments_in_manifest(self, tmp_path):
        events = _events(20)
        log = EventLog(str(tmp_path), segment_max_bytes=256, fsync=False)
        log.append_many(events)
        log.close()
        assert log.segment_count() > 1
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["format"] == "repro-wal-manifest-v1"
        total = sum(entry["records"] for entry in manifest["segments"])
        assert total + log.segments()[-1]["records"] == 20
        for entry in manifest["segments"]:
            blob = (tmp_path / entry["file"]).read_bytes()
            assert len(blob) == entry["size"]
            assert zlib.crc32(blob) == entry["crc32"]
        # Replay crosses every sealed segment plus the active one.
        assert len(list(replay_wal(str(tmp_path)))) == 20

    def test_reopen_continues_sequence(self, tmp_path):
        events = _events(8)
        with EventLog(str(tmp_path), fsync=False) as log:
            log.append_many(events[:5])
        reopened = EventLog(str(tmp_path), fsync=False)
        assert reopened.recovered_tail is None
        assert reopened.record_count == 5
        assert reopened.append(events[5]) == 5
        reopened.close()
        assert len(list(replay_wal(str(tmp_path)))) == 6

    def test_reopen_leaves_a_segment_with_room_unsealed(self, tmp_path):
        with EventLog(str(tmp_path), fsync=False) as log:
            log.append_many(_events(5))
        reopened = EventLog(str(tmp_path), fsync=False)
        assert reopened.segment_count() == 1
        assert [row["sealed"] for row in reopened.segments()] == [False]
        reopened.close()

    def test_two_unsealed_segments_are_refused(self, tmp_path):
        """Only the active segment may be unsealed: a second one means
        the manifest lost a seal, and neither the log nor the reader
        guesses which segment holds the older records."""
        with EventLog(str(tmp_path), fsync=False) as log:
            log.append_many(_events(3))
        (tmp_path / "wal-000002.seg").write_bytes((tmp_path / "wal-000001.seg").read_bytes())
        with pytest.raises(WalCorruptionError, match="multiple unsealed"):
            EventLog(str(tmp_path), fsync=False)
        with pytest.raises(WalCorruptionError, match="multiple unsealed"):
            list(replay_wal(str(tmp_path)))

    def _torn_log(self, tmp_path, cut=7):
        """A closed log whose active segment is truncated mid-record."""
        events = _events(6)
        with EventLog(str(tmp_path), fsync=False) as log:
            log.append_many(events)
            name = log.segments()[-1]["file"]
        path = os.path.join(str(tmp_path), name)
        blob = open(path, "rb").read()
        # Cut inside the last record's payload.
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) - cut])
        return events

    def test_torn_tail_replay_stops_with_typed_error(self, tmp_path):
        events = self._torn_log(tmp_path)
        replayed = []
        with pytest.raises(TornTailError) as excinfo:
            for seq, event in replay_wal(str(tmp_path)):
                replayed.append((seq, event))
        # The valid prefix — and only the valid prefix — came out.
        assert len(replayed) == 5
        for (_, back), event in zip(replayed, events[:5]):
            assert encode_event(back) == encode_event(event)
        tail = excinfo.value.tail
        assert tail.valid_records == 5
        assert tail.reason == "truncated record body"

    def test_torn_tail_header_cut(self, tmp_path):
        # Cut inside the 8-byte frame header instead of the payload.
        events = _events(6)
        with EventLog(str(tmp_path), fsync=False) as log:
            log.append_many(events)
            name = log.segments()[-1]["file"]
            last_size = log.segments()[-1]["size"]
        path = os.path.join(str(tmp_path), name)
        frame = len(encode_event(events[-1])) + 8
        with open(path, "r+b") as handle:
            handle.truncate(last_size - frame + 3)  # 3 header bytes remain
        with pytest.raises(TornTailError) as excinfo:
            list(replay_wal(str(tmp_path)))
        assert excinfo.value.tail.reason == "truncated frame header"

    def test_reopen_truncates_torn_tail_and_resumes(self, tmp_path):
        events = self._torn_log(tmp_path)
        log = EventLog(str(tmp_path), fsync=False)
        assert log.recovered_tail is not None
        assert log.recovered_tail.valid_records == 5
        assert log.record_count == 5
        # The tear is gone: appends resume and a full replay is clean.
        log.append(events[5])
        log.close()
        replayed = list(replay_wal(str(tmp_path)))
        assert len(replayed) == 6
        assert encode_event(replayed[-1][1]) == encode_event(events[5])

    def test_zero_filled_tail_is_torn_not_phantom_records(self, tmp_path):
        # Regression (repro check --case wal-crash-replay --seed 0 --size 1):
        # a power loss can leave a zero-filled tail after a metadata-only
        # flush. crc32(b"") == 0 validates an all-zero header, so these
        # bytes used to replay as phantom zero-length records.
        events = _events(6)
        with EventLog(str(tmp_path), fsync=False) as log:
            log.append_many(events)
            name = log.segments()[-1]["file"]
        path = os.path.join(str(tmp_path), name)
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 64)
        with pytest.raises(TornTailError) as excinfo:
            list(replay_wal(str(tmp_path)))
        assert excinfo.value.tail.valid_records == 6
        assert excinfo.value.tail.reason == "zero-length frame"
        # Reopen truncates the zero tail and appends resume cleanly.
        log = EventLog(str(tmp_path), fsync=False)
        assert log.record_count == 6
        log.append(_events(7)[6])
        log.close()
        assert len(list(replay_wal(str(tmp_path)))) == 7

    def test_append_on_exact_rotation_boundary(self, tmp_path):
        # A segment limit that is an exact multiple of the frame size
        # makes every rotation fire on a boundary-landing append.
        events = _events(4)
        boundary = sum(len(encode_event(e)) + 8 for e in events[:2])
        log = EventLog(str(tmp_path), segment_max_bytes=boundary, fsync=False)
        log.append_many(events)
        log.close()
        assert log.segment_count() >= 2
        sealed = json.loads((tmp_path / "MANIFEST.json").read_text())["segments"]
        assert sealed[0]["size"] == boundary  # filled to the byte, no overhang
        replayed = list(replay_wal(str(tmp_path)))
        assert len(replayed) == 4
        reopened = EventLog(str(tmp_path), segment_max_bytes=boundary, fsync=False)
        assert reopened.recovered_tail is None
        assert reopened.record_count == 4
        reopened.close()

    def test_reopen_seals_crash_recovered_full_segment(self, tmp_path):
        # Crash window: the append that filled the segment to exactly
        # segment_max_bytes completed, but the rotate() it triggers did
        # not. Reopen must treat the full segment as sealed — not torn —
        # and the next append must start a fresh segment.
        events = _events(2)
        import struct

        payload = encode_event(events[0])
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        (tmp_path / "wal-000000.seg").write_bytes(frame)  # full, unsealed
        log = EventLog(str(tmp_path), segment_max_bytes=len(frame), fsync=False)
        assert log.recovered_tail is None
        assert log.record_count == 1
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert [e["records"] for e in manifest["segments"]] == [1]
        assert manifest["segments"][0]["size"] == len(frame)
        log.append(events[1])
        log.close()
        replayed = list(replay_wal(str(tmp_path)))
        assert [seq for seq, _ in replayed] == [0, 1]
        assert encode_event(replayed[0][1]) == encode_event(events[0])

    def test_corrupt_record_checksum_is_detected(self, tmp_path):
        events = _events(6)
        with EventLog(str(tmp_path), fsync=False) as log:
            log.append_many(events)
            name = log.segments()[-1]["file"]
        path = os.path.join(str(tmp_path), name)
        blob = bytearray(open(path, "rb").read())
        # Flip a byte inside the second record's payload (past its
        # 8-byte frame header) so the record CRC — not the framing —
        # is what catches it.
        offset = (8 + len(encode_event(events[0]))) + 8 + 5
        blob[offset] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(TornTailError) as excinfo:
            list(replay_wal(str(tmp_path)))
        assert excinfo.value.tail.reason == "record checksum mismatch"

    def test_sealed_segment_corruption_is_not_recoverable(self, tmp_path):
        log = EventLog(str(tmp_path), segment_max_bytes=256, fsync=False)
        log.append_many(_events(20))
        log.close()
        sealed = json.loads((tmp_path / "MANIFEST.json").read_text())["segments"][0]
        path = tmp_path / sealed["file"]
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(WalCorruptionError):
            list(replay_wal(str(tmp_path)))

    def test_replay_on_open_log(self, tmp_path):
        log = EventLog(str(tmp_path), fsync=False)
        events = _events(4)
        log.append_many(events)
        assert len(list(log.replay())) == 4
        log.close()
