"""repro.cluster: the one rendezvous hash, pinned to the parent's placement.

``storage/replicated.py::rendezvous_order`` and
``train/distributed.py::rendezvous_assign`` used to compute the same
ranking twice; both now call ``repro.cluster.rendezvous_order``. A
placement change would silently move every replicated key and every
worker shard, so the values below are hard-coded from the two old
functions at commit 1630fad.
"""

import zlib

import numpy as np

from repro.cluster import mix64, rendezvous_order
from repro.storage import InMemoryKVStore, ReplicatedConfig, ReplicatedKVStore
from repro.train import rendezvous_assign


def _key_hash(key):
    return zlib.crc32(key.encode("utf-8"))


class TestPinnedPlacement:
    def test_replica_order_of_1000_keys_over_5_replicas(self):
        # CRC32 over the 5,000 ranked replica indices, key by key.
        for seed, digest, first in (
            (0, 846453613, [4, 1, 2, 3, 0]),
            (3, 3034500039, [3, 4, 1, 0, 2]),
        ):
            orders = [
                rendezvous_order(_key_hash(f"feat/{k}"), range(5), seed)
                for k in range(1000)
            ]
            assert orders[0] == first
            assert zlib.crc32(bytes(i for order in orders for i in order)) == digest

    def test_store_owners_are_the_top_of_that_order(self):
        store = ReplicatedKVStore(
            [InMemoryKVStore() for _ in range(5)],
            config=ReplicatedConfig(replication_factor=2),
            seed=3,
        )
        assert store.owners("feat/0") == (3, 4)
        assert store.owners("feat/1") == (4, 2)
        assert store.owners("feat/2") == (4, 1)

    def test_partition_assignment_over_full_and_shrunk_membership(self):
        parts = np.arange(32)
        assert rendezvous_assign(parts, range(8)) == {
            0: [0, 8, 13, 21, 22],
            1: [4, 5, 7, 9],
            2: [3, 11, 12, 19, 20],
            3: [17, 18, 25, 26],
            4: [],
            5: [2, 14, 28, 29, 30, 31],
            6: [15, 27],
            7: [1, 6, 10, 16, 23, 24],
        }
        assert rendezvous_assign(parts, [0, 1, 3, 4, 6, 7]) == {
            0: [0, 8, 13, 14, 21, 22],
            1: [4, 5, 7, 9, 12, 19],
            3: [11, 17, 18, 25, 26, 29],
            4: [20, 28],
            6: [2, 3, 15, 27, 30, 31],
            7: [1, 6, 10, 16, 23, 24],
        }


class TestMix64:
    def test_reduces_any_int_modulo_2_to_the_64(self):
        # Callers pass seeds unmasked; a negative or oversized int mixes
        # as its two's-complement low 64 bits.
        assert mix64(-5) == mix64(-5 & ((1 << 64) - 1))
        assert mix64((1 << 64) + 7) == mix64(7)
        assert 0 <= mix64(-1) < 1 << 64

    def test_rank_depends_on_ids_not_on_their_order(self):
        order = rendezvous_order(123, [5, 3, 9], seed=0)
        assert sorted(order) == [3, 5, 9]
        assert rendezvous_order(123, [9, 3, 5], seed=0) == order
