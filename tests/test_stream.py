"""Streaming ingestion subsystem: incremental graph maintenance, the
feedback plane, the micro-batching scorer, and the demo replay gate.

The load-bearing contracts pinned here:

* ``HeteroGraph.append_delta`` grows the cached CSR into its buckets'
  headroom without moving an old entry, and its compacted view is
  *bit-identical* to a from-scratch rebuild, so the vectorized sampler
  fast path (which trusts the CSR) cannot diverge between a
  delta-layered and a compacted graph;
* the :class:`IncrementalGraphBuilder` reaches the same topology as
  the batch :func:`build_graph` fed the same transactions — entity
  dedup included;
* replaying the same event stream on a :class:`ManualClock` yields
  byte-identical verdicts (the ``repro stream --demo`` gate).
"""

import dataclasses
import math
import os
import tempfile
import zlib

import numpy as np
import pytest

from repro.check.gen import random_delta, random_hetero_graph
from repro.check.reference import compacted, scalar_sample
from repro.data import GeneratorConfig, TransactionGenerator, export_events
from repro.data.events import TxnEvent
from repro.graph import (
    EDGE_TYPE_IDS,
    NODE_TYPE_IDS,
    NODE_TYPES,
    HeteroGraph,
    SageSampler,
    SubgraphCache,
)
from repro.graph.builder import build_graph
from repro.models import DetectorConfig, XFraudDetectorPlus
from repro.obs import MetricsRegistry
from repro.reliability import CheckpointManager, ManualClock
from repro.serving import ScoringService, ServiceConfig
from repro.storage import GraphStore, InMemoryKVStore, decode_array
from repro.stream import (
    DriftConfig,
    DriftDetector,
    FineTuneConfig,
    IncrementalGraphBuilder,
    LabelFeed,
    OnlineAUC,
    OnlineFineTuner,
    StreamConfig,
    StreamScorer,
    run_stream_demo,
)


def _small_config(seed=0, feature_dim=12):
    return GeneratorConfig(
        num_benign_buyers=60,
        num_stolen_cards=3,
        num_warehouse_rings=2,
        num_cultivated_accounts=2,
        num_guest_checkouts=5,
        num_apartment_buildings=2,
        feature_dim=feature_dim,
        risk_signal=0.5,
        seed=seed,
    )


def _downsampled_log(config):
    """A generated log, benign traffic downsampled as the datasets do."""
    generator = TransactionGenerator(config)
    return generator.downsample_benign(generator.generate())


_ARRAYS = ("node_type", "labels", "txn_table", "edge_src", "edge_dst", "edge_type")


def _rebuilt(graph):
    """A from-scratch graph over copies of ``graph``'s public arrays."""
    return HeteroGraph(**{name: getattr(graph, name).copy() for name in _ARRAYS})


# ----------------------------------------------------------------------
# append_delta: the CSR merge contract
# ----------------------------------------------------------------------
class TestAppendDelta:
    def _base_graph(self, seed=0):
        log = _downsampled_log(_small_config(seed))
        graph, _ = build_graph(log)
        return graph

    def _delta(self, graph, rng, num_txn=7, num_entities=3):
        """A txn/entity delta whose edges hit both old and new nodes."""
        old = graph.num_nodes
        node_type = [NODE_TYPE_IDS["txn"]] * num_txn + [
            NODE_TYPE_IDS["email"]
        ] * num_entities
        labels = [-1] * (num_txn + num_entities)
        table = rng.normal(size=(num_txn, graph.feature_dim))
        entities = np.flatnonzero(graph.node_type != NODE_TYPE_IDS["txn"])
        src, dst, etype = [], [], []
        for i in range(num_txn):
            txn = old + i
            # one link to an existing entity, one to a new one
            existing = int(entities[rng.integers(len(entities))])
            fresh = old + num_txn + int(rng.integers(num_entities))
            kind_of_existing = NODE_TYPES[graph.node_type[existing]]
            for other, kind in ((existing, kind_of_existing), (fresh, "email")):
                src.extend([txn, other])
                dst.extend([other, txn])
                etype.extend([EDGE_TYPE_IDS[f"txn->{kind}"], EDGE_TYPE_IDS[f"{kind}->txn"]])
        return dict(
            node_type=node_type,
            labels=labels,
            txn_table=table,
            edge_src=src,
            edge_dst=dst,
            edge_type=etype,
        )

    def test_merged_csr_bit_equals_rebuild(self):
        rng = np.random.default_rng(7)
        graph = self._base_graph()
        graph.csr()  # materialise so append_delta takes the merge path
        for _ in range(3):  # stack several deltas: merge-of-merge
            graph.append_delta(**self._delta(graph, rng))
        rebuilt = compacted(_rebuilt(graph).csr())
        for merged_part, rebuilt_part in zip(compacted(graph.csr()), rebuilt):
            np.testing.assert_array_equal(merged_part, rebuilt_part)
        graph.validate()

    def test_version_bumps_once_per_delta(self):
        rng = np.random.default_rng(3)
        graph = self._base_graph()
        before = graph.version
        graph.append_delta(**self._delta(graph, rng))
        assert graph.version == before + 1

    def test_rebuild_csr_keeps_version(self):
        rng = np.random.default_rng(3)
        graph = self._base_graph()
        graph.csr()
        graph.append_delta(**self._delta(graph, rng))
        version = graph.version
        merged = tuple(part.copy() for part in compacted(graph.csr()))
        rebuilt = graph.rebuild_csr()
        assert graph.version == version  # compaction is invisible
        for merged_part, rebuilt_part in zip(merged, compacted(rebuilt)):
            np.testing.assert_array_equal(merged_part, rebuilt_part)

    def test_label_only_mutation_keeps_csr(self):
        graph = self._base_graph()
        csr = graph.csr()
        version = graph.version
        graph.labels[int(graph.txn_nodes[0])] = 1
        graph.mark_mutated(structural=False)
        assert graph.version == version + 1
        assert graph.csr() is csr  # same tuple: nothing was rebuilt

    def test_delta_validation(self):
        graph = self._base_graph()
        with pytest.raises(ValueError):
            graph.append_delta(
                node_type=[NODE_TYPE_IDS["txn"]],
                labels=[-1],
                txn_table=np.zeros((1, graph.feature_dim + 1)),
                edge_src=[],
                edge_dst=[],
                edge_type=[],
            )
        with pytest.raises(ValueError):
            graph.append_delta(
                node_type=[NODE_TYPE_IDS["txn"]],
                labels=[-1],
                txn_table=np.zeros((1, graph.feature_dim)),
                edge_src=[graph.num_nodes + 5],  # beyond grown count
                edge_dst=[0],
                edge_type=[0],
            )


# ----------------------------------------------------------------------
# append_delta: growth in spare capacity (prefix views, publish order)
# ----------------------------------------------------------------------
class TestGrowthInPlace:
    def _grown(self, seed=0, deltas=6):
        rng = np.random.default_rng(seed)
        graph = random_hetero_graph(rng, num_txns=8)
        graph.csr()
        for _ in range(deltas):
            graph.append_delta(**random_delta(rng, graph, num_new_txns=2))
        return graph, rng

    def _backing(self, graph):
        """Identity of the memory behind each of the eleven grown arrays."""
        arrays = [getattr(graph, name) for name in _ARRAYS] + list(graph.csr())
        return [array if array.base is None else array.base for array in arrays]

    def test_many_deltas_across_reallocations_equal_a_rebuild(self):
        rng = np.random.default_rng(11)
        graph = random_hetero_graph(rng, num_txns=4)
        graph.csr()
        reallocations = np.zeros(11, dtype=int)
        backing = self._backing(graph)
        for _ in range(200):
            graph.append_delta(**random_delta(rng, graph, num_new_txns=int(rng.integers(1, 4))))
            now = self._backing(graph)
            reallocations += [new is not old for new, old in zip(now, backing)]
            backing = now
        assert reallocations.min() >= 3, reallocations
        rebuilt = _rebuilt(graph)
        for name in _ARRAYS:
            array = getattr(graph, name)
            expected = graph.num_nodes if name in _ARRAYS[:2] else graph.num_edges
            if name == "txn_table":
                expected = len(graph.txn_nodes)
            assert len(array) == expected and array.flags.c_contiguous, name
        for part in graph.csr():
            assert part.flags.c_contiguous
        for part, rebuilt_part in zip(compacted(graph.csr()), compacted(rebuilt.csr())):
            np.testing.assert_array_equal(part, rebuilt_part)
        csr = graph.csr()
        assert len(csr.src) == len(csr.edge_id) <= 4 * graph.num_edges
        graph.validate()
        # 200 deltas, a handful of reallocations: growth is geometric.
        assert reallocations.max() <= 16, reallocations

    def test_captured_arrays_are_snapshots(self):
        graph, rng = self._grown()
        seen = set()
        while seen != {True, False}:  # a delta that reallocates, and one that does not
            captured = {name: getattr(graph, name) for name in _ARRAYS}
            expected = {name: array.copy() for name, array in captured.items()}
            before = self._backing(graph)[0]
            graph.append_delta(**random_delta(rng, graph, num_new_txns=2))
            seen.add(self._backing(graph)[0] is not before)
            for name, array in captured.items():
                assert len(array) < len(getattr(graph, name))
                np.testing.assert_array_equal(array, expected[name])
                np.testing.assert_array_equal(getattr(graph, name)[: len(array)], array)

    def test_rejected_delta_changes_nothing(self):
        graph, rng = self._grown()
        arrays = {name: getattr(graph, name) for name in _ARRAYS}
        copies = {name: array.copy() for name, array in arrays.items()}
        csr, version = graph.csr(), graph.version
        csr_copy = [part.copy() for part in csr]
        good = random_delta(rng, graph, num_new_txns=2)
        bad_endpoint = dict(good, edge_src=good["edge_src"] + graph.num_nodes)
        bad_shape = dict(good, txn_table=good["txn_table"][:, :-1])
        bad_label = dict(good, labels=np.ones_like(good["labels"]))  # labels an entity
        for bad in (bad_endpoint, bad_shape, bad_label):
            with pytest.raises(ValueError):
                graph.append_delta(**bad)
            assert graph.version == version and graph.csr() is csr
            for name in _ARRAYS:
                assert getattr(graph, name) is arrays[name]
                np.testing.assert_array_equal(arrays[name], copies[name])
            for part, part_copy in zip(csr, csr_copy):
                np.testing.assert_array_equal(part, part_copy)

    def test_foreign_array_is_readopted_by_copy(self):
        graph, rng = self._grown()
        foreign = graph.labels.copy()
        foreign[graph.txn_nodes] = 1 - np.maximum(foreign[graph.txn_nodes], 0)
        graph.labels = foreign  # not a view of the graph's buffer, which is now stale
        graph.append_delta(**random_delta(rng, graph, num_new_txns=2))
        assert graph.labels.base is not foreign and len(foreign) < graph.num_nodes
        np.testing.assert_array_equal(graph.labels[: len(foreign)], foreign)
        graph.validate()

    def test_label_flips_between_deltas_land_in_the_live_graph(self):
        graph, rng = self._grown()
        flipped = {}
        for _ in range(30):  # crosses reallocations of the label buffer
            node = int(rng.choice(graph.txn_nodes))
            flipped[node] = int(rng.integers(0, 2))
            graph.labels[node] = flipped[node]
            graph.mark_mutated(structural=False)
            graph.append_delta(**random_delta(rng, graph, num_new_txns=2))
        for node, label in flipped.items():
            assert graph.labels[node] == label

    def test_static_graph_owns_exact_arrays(self):
        graph = random_hetero_graph(np.random.default_rng(0), num_txns=8)
        graph.csr()
        graph.subgraph(np.arange(3))
        assert graph._buffers is None
        for array in self._backing(graph):
            assert array.base is None

    def test_clones_are_unaffected_by_later_deltas(self):
        graph, rng = self._grown()
        clone = graph.with_features(graph.txn_table * 2.0)
        sub, nodes = graph.subgraph(np.arange(graph.num_nodes - 1, -1, -2))
        expected_clone, expected_sub = _rebuilt(clone), _rebuilt(sub)
        for _ in range(12):  # past a reallocation and several in-place splices
            graph.append_delta(**random_delta(rng, graph, num_new_txns=3))
        for held, expected in ((clone, expected_clone), (sub, expected_sub)):
            for name in _ARRAYS:
                np.testing.assert_array_equal(getattr(held, name), getattr(expected, name))
            for part, expected_part in zip(compacted(held.csr()), compacted(expected.csr())):
                np.testing.assert_array_equal(part, expected_part)
        rebuilt = compacted(_rebuilt(graph).csr())
        for part, rebuilt_part in zip(compacted(graph.csr()), rebuilt):
            np.testing.assert_array_equal(part, rebuilt_part)

    def test_a_delta_leaves_every_live_slot_untouched(self):
        graph, rng = self._grown(deltas=2)
        moved = 0
        for _ in range(60):  # across bucket moves and slot-buffer reallocations
            csr = graph.csr()
            live = compacted(csr)[1:]
            slots = np.repeat(csr.base - csr.indptr[:-1], np.diff(csr.indptr))
            slots += np.arange(graph.num_edges)
            src, edge_id = csr.src[slots].copy(), csr.edge_id[slots].copy()
            np.testing.assert_array_equal(src, live[0])
            graph.append_delta(**random_delta(rng, graph, num_new_txns=2))
            grown = graph.csr()
            np.testing.assert_array_equal(grown.src[slots], src)
            np.testing.assert_array_equal(grown.edge_id[slots], edge_id)
            moved += int(np.count_nonzero(grown.base[: len(csr.base)] != csr.base))
        assert moved > 0  # some bucket outgrew its room and moved to the tail

    def test_a_hub_moves_logarithmically_often(self):
        rng = np.random.default_rng(5)
        graph = random_hetero_graph(rng, num_txns=3)
        hub = int(np.flatnonzero(graph.node_type == NODE_TYPE_IDS["email"])[0])
        graph.csr()
        moves, base = 0, graph.csr().base[hub]
        worst = 0.0
        for _ in range(1_000):  # a new transaction and its one edge into the hub
            graph.append_delta(
                node_type=[NODE_TYPE_IDS["txn"]],
                labels=[-1],
                txn_table=rng.normal(size=(1, graph.feature_dim)),
                edge_src=[graph.num_nodes],
                edge_dst=[hub],
                edge_type=[EDGE_TYPE_IDS["txn->email"]],
            )
            csr = graph.csr()
            moves += int(csr.base[hub] != base)
            base = csr.base[hub]
            worst = max(worst, len(csr.src) / graph.num_edges)
        assert moves <= 2 * math.ceil(math.log2(1_000))
        assert worst <= 4.0, worst
        np.testing.assert_array_equal(compacted(graph.csr())[1], _rebuilt(graph).csr().src)

    def test_a_clone_keeps_its_csr_across_a_later_delta(self):
        graph, rng = self._grown()
        clone = graph.with_features(graph.txn_table + 1.0)
        csr = clone.csr()
        kept = [part.copy() for part in csr]
        graph.append_delta(**random_delta(rng, graph, num_new_txns=3))
        assert clone.csr() is csr and graph.csr() is not csr
        for part, before in zip(csr, kept):
            np.testing.assert_array_equal(part, before)
        for part, rebuilt_part in zip(compacted(csr), compacted(_rebuilt(clone).csr())):
            np.testing.assert_array_equal(part, rebuilt_part)

    def test_graph_store_round_trips_a_grown_graph_at_exact_size(self):
        graph, _ = self._grown()
        store = GraphStore(InMemoryKVStore())
        store.save(graph)
        loaded = store.load()
        for name in _ARRAYS:
            assert getattr(loaded, name).shape == getattr(graph, name).shape
            np.testing.assert_array_equal(getattr(loaded, name), getattr(graph, name))
        assert len(decode_array(store.store.get("struct/labels"))) == graph.num_nodes


# ----------------------------------------------------------------------
# IncrementalGraphBuilder
# ----------------------------------------------------------------------
class TestIncrementalBuilder:
    def _reverse(self, index):
        return {
            kind: {node: ext for ext, node in mapping.items()}
            for kind, mapping in index.items()
        }

    def _neighbourhoods(self, graph, index):
        """txn_id -> sorted (kind, external_id) out-neighbour multiset."""
        reverse = self._reverse(index)
        entity_of = {}
        for kind, mapping in reverse.items():
            if kind == "txn":
                continue
            for node, ext in mapping.items():
                entity_of[node] = (kind, ext)
        out = {}
        for txn_id, node in index["txn"].items():
            mask = graph.edge_src == node
            out[txn_id] = sorted(
                entity_of[int(dst)] for dst in graph.edge_dst[mask]
            )
        return out

    def test_matches_batch_builder(self):
        log = _downsampled_log(_small_config(seed=5))
        batch_graph, batch_index = build_graph(log)
        builder = IncrementalGraphBuilder(feature_dim=len(log.records[0].features))
        events = export_events(log)
        for event in events:
            builder.apply(event)
        builder.flush()
        for event in events:
            if event.label >= 0:
                builder.apply_label(event.txn_id, event.label)
        graph = builder.graph
        graph.validate()
        # Same size, same dedup'd entity population...
        assert graph.num_nodes == batch_graph.num_nodes
        assert graph.num_edges == batch_graph.num_edges
        assert {kind: len(ids) for kind, ids in builder.index.items()} == {
            kind: len(ids) for kind, ids in batch_index.items()
        }
        # ...and per-transaction, the same entity neighbourhood and label.
        assert self._neighbourhoods(graph, builder.index) == self._neighbourhoods(
            batch_graph, batch_index
        )
        for txn_id, node in builder.index["txn"].items():
            batch_node = batch_index["txn"][txn_id]
            assert graph.labels[node] == batch_graph.labels[batch_node]
            np.testing.assert_array_equal(
                graph.txn_table[graph.txn_rows(node)],
                batch_graph.txn_table[batch_graph.txn_rows(batch_node)],
            )

    def test_incremental_equals_one_shot(self):
        # Many small flushes must reach the same graph as one big one.
        log = _downsampled_log(_small_config(seed=2))
        events = export_events(log)
        one_shot = IncrementalGraphBuilder(feature_dim=len(log.records[0].features))
        for event in events:
            one_shot.apply(event)
        one_shot.flush()
        chunked = IncrementalGraphBuilder(feature_dim=len(log.records[0].features))
        for position, event in enumerate(events):
            chunked.apply(event)
            if position % 7 == 0:
                chunked.flush()
        chunked.flush()
        np.testing.assert_array_equal(
            one_shot.graph.node_type, chunked.graph.node_type
        )
        np.testing.assert_array_equal(one_shot.graph.edge_src, chunked.graph.edge_src)
        np.testing.assert_array_equal(one_shot.graph.edge_dst, chunked.graph.edge_dst)
        np.testing.assert_array_equal(
            one_shot.graph.txn_table, chunked.graph.txn_table
        )

    def test_buffer_holds_transaction_rows_only(self):
        log = _downsampled_log(_small_config(seed=3))
        events = export_events(log)
        builder = IncrementalGraphBuilder(feature_dim=12)
        for position, event in enumerate(events):
            builder.apply(event)
            if position % 5 == 0:
                builder.flush()
        builder.flush()
        graph, count = builder.graph, len(events)
        assert graph.num_nodes > count  # the events brought entities too
        assert graph.txn_table.shape == (count, 12)
        buffer = graph._buffers["txn_table"]
        assert graph.txn_table.base is buffer and len(buffer) <= count + count // 2
        np.testing.assert_array_equal(graph.txn_table, [event.features for event in events])

    def test_from_log_wal_replay_and_live_stream_build_one_table(self, tmp_path):
        """Transactions take table rows in arrival order however they
        arrive: batch-built from the log, streamed live, or replayed
        from the WAL after a restart."""
        from repro.stream import EventLog, replay_wal

        log = _downsampled_log(_small_config(seed=6))
        events = export_events(log)
        live = IncrementalGraphBuilder(feature_dim=12)
        with EventLog(str(tmp_path / "wal"), fsync=False) as wal:
            for position, event in enumerate(events):
                wal.append(event)
                live.apply(event)
                if position % 9 == 0:
                    live.flush()
        live.flush()
        replayed = IncrementalGraphBuilder(feature_dim=12)
        for _, event in replay_wal(str(tmp_path / "wal")):
            replayed.apply(event)
        replayed.flush()
        from_log = IncrementalGraphBuilder.from_log(log).graph
        want = np.stack([event.features for event in events])
        for graph in (live.graph, replayed.graph, from_log):
            assert graph.txn_table.tobytes() == want.tobytes()
            np.testing.assert_array_equal(graph.txn_row[graph.txn_nodes], np.arange(len(events)))

    def test_entity_dedup_links_shared_entities(self):
        builder = IncrementalGraphBuilder(feature_dim=4)
        first = TxnEvent(
            txn_id=1, buyer_id=None, email_id=9, pmt_id=5, addr_id=3,
            timestamp=0.0, features=np.zeros(4),
        )
        second = TxnEvent(
            txn_id=2, buyer_id=None, email_id=9, pmt_id=6, addr_id=3,
            timestamp=1.0, features=np.zeros(4),
        )
        builder.apply(first)
        builder.apply(second)
        builder.flush()
        counts = {kind: len(ids) for kind, ids in builder.index.items()}
        assert counts["email"] == 1 and counts["addr"] == 1 and counts["pmt"] == 2
        # The shared email node has an in-edge from both transactions.
        email_node = builder.index["email"][9]
        assert int(np.sum(builder.graph.edge_dst == email_node)) == 2

    def test_apply_label_pending_and_materialised(self):
        builder = IncrementalGraphBuilder(feature_dim=4)
        event = TxnEvent(
            txn_id=1, buyer_id=None, email_id=1, pmt_id=1, addr_id=1,
            timestamp=0.0, features=np.zeros(4),
        )
        builder.apply(event)
        builder.apply_label(1, 1)  # still staged: patches the buffer
        builder.flush()
        node = builder.node_of(1)
        assert builder.graph.labels[node] == 1
        version = builder.graph.version
        csr = builder.graph.csr()
        builder.apply_label(1, 0)  # materialised: in-place + version bump
        assert builder.graph.labels[node] == 0
        assert builder.graph.version == version + 1
        assert builder.graph.csr() is csr

    def test_error_paths(self):
        builder = IncrementalGraphBuilder(feature_dim=4)
        event = TxnEvent(
            txn_id=1, buyer_id=None, email_id=1, pmt_id=1, addr_id=1,
            timestamp=0.0, features=np.zeros(4),
        )
        builder.apply(event)
        with pytest.raises(ValueError, match="duplicate"):
            builder.apply(event)
        with pytest.raises(KeyError):
            builder.apply_label(99, 1)
        with pytest.raises(ValueError):
            builder.apply_label(1, 7)
        with pytest.raises(ValueError):
            builder.apply(
                TxnEvent(
                    txn_id=2, buyer_id=None, email_id=1, pmt_id=1, addr_id=1,
                    timestamp=0.0, features=np.zeros(5),
                )
            )

    def test_from_log_warm_start_dedups_into_history(self):
        log = _downsampled_log(_small_config(seed=1))
        builder = IncrementalGraphBuilder.from_log(log)
        known_email = next(iter(builder.index["email"]))
        email_node = builder.index["email"][known_email]
        nodes_before = builder.graph.num_nodes
        builder.apply(
            TxnEvent(
                txn_id=10_000_000, buyer_id=None, email_id=known_email,
                pmt_id=10_000_000, addr_id=10_000_000,
                timestamp=1e9, features=np.zeros(len(log.records[0].features)),
            )
        )
        builder.flush()
        # txn + fresh pmt + fresh addr, but the email linked in place.
        assert builder.graph.num_nodes == nodes_before + 3
        assert builder.index["email"][known_email] == email_node

    def test_compact_after_stream_matches_delta_sampling(self):
        # The satellite gate in miniature: delta-layered vs rebuilt
        # subgraphs, the sampler vs its scalar spec, all identical.
        # compact() keeps the grown CSR, so the rebuilt side is
        # rebuild_csr(): a CSR is never compared with itself.
        log = _downsampled_log(_small_config(seed=4))
        events = export_events(log)
        builder = IncrementalGraphBuilder(feature_dim=len(log.records[0].features))
        for position, event in enumerate(events):
            builder.apply(event)
            if position % 11 == 0:
                builder.flush()
                builder.graph.csr()  # keep a live CSR to merge into
        builder.flush()
        graph = builder.graph
        probe = graph.txn_nodes[-16:]
        sampler = SageSampler(hops=2, fanout=5, seed=0)
        before = [scalar_sample(sampler, graph, probe), sampler.sample(graph, probe)]
        builder.compact()
        grown = compacted(graph.csr())
        rebuilt = compacted(graph.rebuild_csr())
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(grown, rebuilt))
        after = [scalar_sample(sampler, graph, probe), sampler.sample(graph, probe)]
        for a, b in [(before[0], before[1]), (before[0], after[0]), (before[1], after[1])]:
            np.testing.assert_array_equal(a.original_ids, b.original_ids)
            np.testing.assert_array_equal(a.graph.edge_src, b.graph.edge_src)
            np.testing.assert_array_equal(a.graph.edge_dst, b.graph.edge_dst)

    def test_metrics_exported(self):
        registry = MetricsRegistry()
        builder = IncrementalGraphBuilder(feature_dim=4, registry=registry)
        builder.apply(
            TxnEvent(
                txn_id=1, buyer_id=None, email_id=1, pmt_id=1, addr_id=1,
                timestamp=0.0, features=np.zeros(4),
            )
        )
        builder.flush()
        builder.compact()
        text = registry.render()
        assert "stream_builder_events_total 1" in text
        assert "stream_builder_compactions_total 1" in text
        assert "stream_graph_nodes 4" in text


# ----------------------------------------------------------------------
# Feedback plane
# ----------------------------------------------------------------------
class TestLabelFeed:
    def test_matures_after_delay_in_offer_order(self):
        feed = LabelFeed(delay_s=10.0)
        feed.offer(1, 1, event_time=0.0)
        feed.offer(2, 0, event_time=0.0)
        feed.offer(3, 1, event_time=5.0)
        assert feed.due(9.0) == []
        assert feed.pending == 3
        assert feed.due(10.0) == [(1, 1), (2, 0)]
        assert feed.due(100.0) == [(3, 1)]
        assert feed.pending == 0

    @pytest.mark.parametrize("delay", [float("nan"), -1.0])
    def test_a_delay_that_never_matures_is_refused(self, delay):
        """A NaN delay took every offer and matured none, even at
        ``due(1e9)``: ``repro stream --label-delay nan`` never fine-tuned."""
        with pytest.raises(ValueError, match="delay_s"):
            LabelFeed(delay)
        with pytest.raises(ValueError, match="label_delay_s"):
            StreamConfig(label_delay_s=delay)
        LabelFeed(0.0)
        StreamConfig(label_delay_s=0.0)


class TestOnlineAUC:
    def test_perfect_separation(self):
        auc = OnlineAUC(window=8)
        for score, label in [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]:
            auc.add(label, score)
        assert auc.auc() == 1.0

    def test_nan_until_both_classes(self):
        auc = OnlineAUC(window=8)
        assert math.isnan(auc.auc())
        auc.add(1, 0.5)
        assert math.isnan(auc.auc())
        auc.add(0, 0.4)
        assert auc.auc() == 1.0

    def test_window_slides(self):
        auc = OnlineAUC(window=4)
        for _ in range(4):
            auc.add(1, 0.9)
        auc.add(0, 0.1)  # evicts one of the positives
        assert auc.count == 5
        assert auc.auc() == 1.0


class TestDriftDetector:
    def _feed(self, detector, rng, n, shift=0.0):
        detector.observe_many(rng.normal(size=n) + shift)

    def test_stable_distribution_no_alert(self):
        rng = np.random.default_rng(0)
        detector = DriftDetector("score", DriftConfig(window=128, min_samples=64))
        self._feed(detector, rng, 128)  # freezes the reference
        assert detector.reference_frozen
        self._feed(detector, rng, 128)
        report = detector.check()
        assert report is not None and not report.alert
        assert report.psi < 0.25 and report.ks < 0.25
        assert detector.alerts == []

    def test_shifted_distribution_alerts_through_registry(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(0)
        detector = DriftDetector(
            "score", DriftConfig(window=128, min_samples=64), registry
        )
        self._feed(detector, rng, 128)
        self._feed(detector, rng, 128, shift=2.0)
        report = detector.check()
        assert report.alert and report.psi > 0.25
        assert len(detector.alerts) == 1
        text = registry.render()
        assert 'stream_drift_alerts_total{signal="score"} 1' in text
        assert 'stream_drift_psi{signal="score"}' in text

    @pytest.mark.parametrize("seed", range(16))
    def test_psi_and_ks_equal_np_histogram_and_a_fresh_sort(self, seed):
        """The PSI bins are counted over the window the KS statistic
        sorts: bit-equal to ``np.histogram`` over the edges, on windows
        with ties, repeats of the reference and values exactly on an
        edge (a value on an inner edge counts in the bin to its right)."""
        from repro.stream.feedback import PSI_EPSILON

        rng = np.random.default_rng(seed)
        window = int(rng.integers(16, 200))
        detector = DriftDetector("score", DriftConfig(window=window, min_samples=1))
        reference = np.round(rng.normal(size=window), int(rng.integers(0, 3)))  # ties
        detector.observe_many(reference)
        edges = detector._edges
        pools = (rng.normal(size=window) + rng.normal(), edges[1:-1], reference)
        current = np.concatenate([rng.choice(pool, size=window // 3 + 1) for pool in pools])
        current = rng.permutation(current[:window])
        detector.observe_many(current)
        report = detector.check()

        def fractions(values):
            counts = np.histogram(values, bins=edges)[0].astype(np.float64)
            return (counts + PSI_EPSILON) / (counts.sum() + PSI_EPSILON * len(counts))

        kept = np.asarray(detector._current)
        np.testing.assert_array_equal(detector._ref_fractions, fractions(reference))
        expected, base = fractions(kept), detector._ref_fractions
        assert report.psi == float(np.sum((expected - base) * np.log(expected / base)))
        ordered, spec = np.sort(reference), np.sort(kept)
        grid = np.concatenate([ordered, spec])
        cdf_ref = np.searchsorted(ordered, grid, side="right") / len(ordered)
        cdf_cur = np.searchsorted(spec, grid, side="right") / len(spec)
        assert report.ks == float(np.max(np.abs(cdf_ref - cdf_cur)))
        assert np.isin(kept, edges[1:-1]).any()

    def test_warming_up_returns_none(self):
        detector = DriftDetector("score", DriftConfig(window=64, min_samples=32))
        detector.observe(0.5)
        assert detector.check() is None

    @pytest.mark.parametrize(
        "knobs", [{"window": 64, "min_samples": 128}, {"min_samples": 0}, {"window": 0, "min_samples": 0}]
    )
    def test_a_config_that_turns_checks_off_is_refused(self, knobs):
        """The current window holds at most ``window`` points: with
        ``min_samples > window`` a 5-sigma shift over 1,000 events gave
        ``check() is None`` and no alert. With ``min_samples=0`` a check
        ran on an empty window and read KS = NaN, which never alerts."""
        with pytest.raises(ValueError):
            DriftConfig(**knobs)
        DriftConfig(window=64, min_samples=64)  # a full window is enough


class TestOnlineFineTuner:
    def test_a_window_of_no_nodes_is_refused(self):
        """``max_nodes=0`` trained on the whole labelled window, since
        ``nodes[-0:]`` is every node."""
        with pytest.raises(ValueError, match="max_nodes"):
            FineTuneConfig(max_nodes=0)
        FineTuneConfig(max_nodes=1)

    def _labelled_graph(self, seed=0):
        log = _downsampled_log(_small_config(seed))
        graph, _ = build_graph(log)
        return graph

    def test_updates_gate_and_checkpoint(self, tmp_path):
        graph = self._labelled_graph()
        model = XFraudDetectorPlus(DetectorConfig(feature_dim=graph.feature_dim, seed=0))
        manager = CheckpointManager(str(tmp_path), keep_last=2)
        tuner = OnlineFineTuner(
            model,
            FineTuneConfig(min_labels=8, max_nodes=32, batch_size=8, every_labels=8),
            checkpoint=manager,
        )
        labelled = [int(node) for node in graph.txn_nodes[:32]]
        # Not enough fresh labels yet: gated.
        tuner.notify_labels(4)
        assert tuner.maybe_update(graph, labelled) is None
        tuner.notify_labels(4)
        record = tuner.maybe_update(graph, labelled)
        assert record is not None
        assert record.nodes == 32
        assert np.isfinite(record.loss)
        assert record.checkpoint is not None
        assert manager.latest() is not None
        # The gate re-arms after an update.
        assert tuner.maybe_update(graph, labelled) is None

    def test_crashed_tuner_resumes_its_lineage(self, tmp_path):
        """k updates, then a fresh tuner (fresh model, fresh optimizer)
        resumed from the k-th checkpoint: update k+1 is the one the
        uninterrupted run takes — loss, weights and optimizer moments
        bit for bit, and it is numbered k."""
        graph = self._labelled_graph()
        labelled = [int(node) for node in graph.txn_nodes[:48]]
        config = FineTuneConfig(min_labels=8, max_nodes=32, batch_size=8, every_labels=8)

        def tuner_with(directory):
            model = XFraudDetectorPlus(DetectorConfig(feature_dim=graph.feature_dim, seed=0))
            manager = CheckpointManager(str(tmp_path / directory), keep_last=2)
            return OnlineFineTuner(model, config, checkpoint=manager), manager

        def update(tuner, window):
            tuner.notify_labels(8)
            return tuner.maybe_update(graph, labelled[:window])

        straight, manager = tuner_with("straight")
        for window in (32, 40):
            update(straight, window)
        crashed_at = manager.latest()
        expected = update(straight, 48)

        resumed, _ = tuner_with("resumed")
        resumed.resume(crashed_at)
        record = update(resumed, 48)
        assert record.update == expected.update == 2
        assert record.loss == expected.loss
        assert record.checkpoint.endswith("ckpt-000002.npz")
        for (name, a), (_, b) in zip(
            straight.model.named_parameters(), resumed.model.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)
        ours, theirs = (t.trainer.optimizer.state_dict() for t in (straight, resumed))
        assert ours.keys() == theirs.keys()
        for key, value in ours.items():
            if isinstance(value, list):
                for a, b in zip(value, theirs[key]):
                    np.testing.assert_array_equal(a, b, err_msg=key)
            else:
                assert value == theirs[key], key

    def test_resume_accepts_a_manager(self, tmp_path):
        graph = self._labelled_graph()
        model = XFraudDetectorPlus(DetectorConfig(feature_dim=graph.feature_dim, seed=0))
        manager = CheckpointManager(str(tmp_path))
        config = FineTuneConfig(min_labels=8, max_nodes=16, batch_size=8, every_labels=8)
        first = OnlineFineTuner(model, config, checkpoint=manager)
        first.notify_labels(8)
        first.maybe_update(graph, [int(node) for node in graph.txn_nodes[:16]])

        fresh = XFraudDetectorPlus(DetectorConfig(feature_dim=graph.feature_dim, seed=0))
        second = OnlineFineTuner(fresh, config, checkpoint=manager)
        second.resume(manager)
        for (name, a), (_, b) in zip(model.named_parameters(), fresh.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)


# ----------------------------------------------------------------------
# StreamScorer
# ----------------------------------------------------------------------
class TestStreamScorer:
    def _stack(self, seed=0, queue_capacity=64, batch_size=8, label_delay_s=5.0,
               registry=None, tmp_path=None):
        events = TransactionGenerator(_small_config(seed)).event_stream(interleave=True)
        n_warm = len(events) // 2
        warmup, live = events[:n_warm], events[n_warm:]
        builder = IncrementalGraphBuilder(feature_dim=12, registry=registry)
        for event in warmup:
            builder.apply(event)
        builder.flush()
        for event in warmup:
            if event.label >= 0:
                builder.apply_label(event.txn_id, event.label)
        builder.compact()
        clock = ManualClock()
        clock.advance(warmup[-1].timestamp)
        model = XFraudDetectorPlus(
            DetectorConfig(feature_dim=12, seed=seed)
        )
        service = ScoringService(
            model,
            builder.graph,
            config=ServiceConfig(
                deadline_s=60.0,
                queue_capacity=128,
                static_prior=0.05,
                batch_size=batch_size,
            ),
            clock=clock,
            registry=registry,
            cache=SubgraphCache(capacity=64),
        )
        wal = None
        if tmp_path is not None:
            from repro.stream import EventLog

            wal = EventLog(str(tmp_path / "wal"), fsync=False)
        scorer = StreamScorer(
            service,
            builder,
            wal=wal,
            config=StreamConfig(
                batch_size=batch_size,
                queue_capacity=queue_capacity,
                label_delay_s=label_delay_s,
                compact_every=32,
                drift=DriftConfig(window=32, min_samples=16),
            ),
            clock=clock,
            registry=registry,
        )
        return scorer, live, clock

    def test_requires_shared_graph(self):
        scorer, _, clock = self._stack()
        other_builder = IncrementalGraphBuilder(feature_dim=12)
        with pytest.raises(ValueError, match="one live graph"):
            StreamScorer(scorer.service, other_builder)

    def test_backpressure_bounded_queue(self, tmp_path):
        scorer, live, _ = self._stack(queue_capacity=4, tmp_path=tmp_path)
        accepted = 0
        for event in live[:10]:
            if scorer.ingest(event):
                accepted += 1
        assert accepted == 4
        assert scorer.backpressure_rejections == 6
        # Refused ingests left no WAL trace: replay-safe.
        assert scorer.wal.record_count == 4
        # Draining frees capacity.
        scorer.pump()
        assert scorer.lag_events == 0
        assert scorer.ingest(live[10])

    def test_pump_scores_in_event_order(self):
        scorer, live, clock = self._stack()
        batch = live[:12]
        clock.advance(max(event.timestamp for event in batch) - clock() + 1)
        for event in batch:
            assert scorer.ingest(event)
        responses = scorer.pump()
        assert len(responses) == 12
        expected = [scorer.builder.node_of(event.txn_id) for event in batch]
        assert [response.node for response in responses] == expected
        assert scorer.events_scored == 12

    def test_labels_mature_on_clock_and_feed_auc(self):
        scorer, live, clock = self._stack(label_delay_s=50.0)
        batch = live[:24]
        clock.advance(max(event.timestamp for event in batch) - clock() + 1)
        for event in batch:
            assert scorer.ingest(event)
        scorer.pump()
        assert scorer.labels_matured == 0  # chargebacks not due yet
        assert scorer.label_feed.pending == sum(1 for e in batch if e.label >= 0)
        graph = scorer.builder.graph
        streamed_nodes = [scorer.builder.node_of(event.txn_id) for event in batch]
        assert all(graph.labels[node] == -1 for node in streamed_nodes)
        clock.advance(100.0)
        matured = scorer.mature_labels()
        assert matured == sum(1 for e in batch if e.label >= 0)
        for event in batch:
            if event.label >= 0:
                node = scorer.builder.node_of(event.txn_id)
                assert graph.labels[node] == event.label
        assert scorer.online_auc.count == matured

    def test_unlabelled_events_leave_no_score_behind(self):
        scorer, live, clock = self._stack()
        batch = [dataclasses.replace(event, label=-1) for event in live[:24]]
        clock.advance(max(event.timestamp for event in batch) - clock() + 100)
        for event in batch:
            assert scorer.ingest(event)
        assert len(scorer.pump()) == 24
        assert scorer.label_feed.pending == 0
        assert scorer._scores == {}

    def test_health_and_metrics(self, tmp_path):
        registry = MetricsRegistry()
        scorer, live, clock = self._stack(registry=registry, tmp_path=tmp_path)
        batch = live[:16]
        clock.advance(max(event.timestamp for event in batch) - clock() + 1)
        for event in batch:
            scorer.ingest(event)
        scorer.pump()
        clock.advance(1000.0)
        scorer.mature_labels()
        health = scorer.health()
        assert health.events_scored == 16
        assert health.lag_events == 0
        assert health.wal_records == 16
        assert health.graph_version == scorer.builder.graph.version
        assert health.labels_matured == scorer.labels_matured > 0
        text = health.describe()
        assert text.startswith("stream health")
        assert "backpressure" in text
        rendered = registry.render()
        assert "stream_events_ingested_total 16" in rendered
        assert "stream_events_scored_total 16" in rendered
        assert "stream_lag_events 0" in rendered


# ----------------------------------------------------------------------
# The demo replay gate
# ----------------------------------------------------------------------
class TestStreamDemo:
    DEMO_KWARGS = dict(
        seed=3,
        scale=0.12,
        epochs=1,
        max_events=120,
        batch_size=8,
        compact_every=24,
        label_delay_s=4.0,
    )
    # CRC32 of each integer array of the final live graph, and its
    # version: the warm-start batch build plus every flushed delta.
    LIVE_GRAPH = {
        "node_type": 3777783113,
        "edge_src": 3386824022,
        "edge_dst": 1504932982,
        "edge_type": 1033685113,
        "labels": 2450373371,
    }
    LIVE_GRAPH_VERSION = 129

    def test_replay_is_byte_identical_and_gate_passes(self, tmp_path):
        first = run_stream_demo(
            wal_dir=str(tmp_path / "a"), checkpoint_dir=str(tmp_path / "ca"),
            **self.DEMO_KWARGS
        )
        second = run_stream_demo(
            wal_dir=str(tmp_path / "b"), checkpoint_dir=str(tmp_path / "cb"),
            **self.DEMO_KWARGS
        )
        assert first.subgraph_gate_passed and second.subgraph_gate_passed
        assert first.verdict_lines == second.verdict_lines
        assert first.verdict_digest == second.verdict_digest
        assert first.graph_version == second.graph_version
        graph = first.scorer.builder.graph
        crcs = {
            name: zlib.crc32(np.ascontiguousarray(getattr(graph, name)).tobytes())
            for name in self.LIVE_GRAPH
        }
        assert (crcs, graph.version) == (self.LIVE_GRAPH, self.LIVE_GRAPH_VERSION)
        assert first.graph_version == self.LIVE_GRAPH_VERSION
        assert first.streamed_events == len(first.responses)
        assert first.health.events_scored == first.streamed_events
        # Too few events here for the drift reference to freeze (the
        # alert path is pinned in TestDriftDetector); every streamed
        # score was still observed.
        assert first.scorer.score_drift.observed == first.streamed_events
        # The WAL holds exactly the streamed (accepted) events.
        assert first.health.wal_records == first.streamed_events

    def test_a_run_without_wal_dir_leaves_no_temp_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = run_stream_demo(
            seed=0, scale=0.1, epochs=0, max_events=40, batch_size=8, finetune=False
        )
        assert result.health.wal_records == result.streamed_events > 0
        assert os.listdir(tmp_path) == []

    def test_feature_drift_is_the_per_event_loop(self, tmp_path, monkeypatch):
        # The pump takes a micro-batch's feature means in one
        # np.mean(axis=1); a detector fed np.mean event by event, checked
        # at the same points, must hold the same windows bit for bit and
        # raise the same reports — drift burst and all.
        checks = []
        check = DriftDetector.check

        def recording(self):
            report = check(self)
            if self.signal == "feature":
                checks.append((self.observed, report))
            return report

        monkeypatch.setattr(DriftDetector, "check", recording)
        result = run_stream_demo(
            seed=3, scale=0.2, epochs=1, batch_size=8, compact_every=24, finetune=False,
            wal_dir=str(tmp_path / "wal"), checkpoint_dir=str(tmp_path / "ckpt"),
        )
        monkeypatch.undo()
        graph, drift = result.scorer.builder.graph, result.scorer.feature_drift
        means = [float(np.mean(graph.txn_table[graph.txn_row[r.node]])) for r in result.responses]
        twin, fed = DriftDetector("feature", drift.config), 0
        for observed, report in checks:
            for mean in means[fed:observed]:
                twin.observe(mean)
            fed = observed
            assert twin.check() == report
        assert drift.observed == len(means) == fed
        assert drift.reference_frozen and twin._reference == drift._reference
        assert list(twin._current) == list(drift._current)
        assert twin.alerts == drift.alerts and len(drift.alerts) > 0


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestStreamCli:
    def test_stream_demo_command(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "stream", "--demo", "--seed", "3", "--scale", "0.12",
                "--events", "100", "--epochs", "1", "--batch-size", "8",
                "--compact-every", "24", "--runs", "2",
                "--wal-dir", str(tmp_path / "wal"),
                "--metrics",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identical" in out
        assert "stream health" in out
        assert "stream_events_scored_total" in out

    @pytest.mark.parametrize("delay", ["nan", "-1"])
    def test_a_label_delay_that_never_matures_exits_2(self, delay, capsys):
        from repro.cli import main

        assert main(["stream", "--demo", "--label-delay", delay]) == 2
        assert "--label-delay" in capsys.readouterr().err

    def test_healthcheck_reports_stream(self, capsys):
        from repro.cli import main

        code = main(
            ["healthcheck", "--replicas", "2", "--keys", "8", "--stream-events", "16"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stream health" in out
        assert "wal" in out
        assert "last compaction" in out
