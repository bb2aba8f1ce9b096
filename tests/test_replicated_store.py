"""Replicated feature-store tier: placement, failover, health,
corruption quarantine, anti-entropy repair, and wiring.

Everything runs on a :class:`ManualClock` except the thread-safety
test, whose clock stands still.
"""

import zlib

import numpy as np
import pytest

from repro.cluster import rendezvous_order as _rank
from repro.obs import MetricsRegistry
from repro.reliability.faults import FaultPlan, FaultyKVStore, ManualClock
from repro.storage import (
    AllReplicasFailedError,
    GraphStore,
    InMemoryKVStore,
    MmapKVStore,
    ReplicaHealth,
    ReplicatedConfig,
    ReplicatedKVStore,
)


def _make_store(
    num_replicas=3,
    clock=None,
    config=None,
    seed=0,
    wrap=None,
):
    """N in-memory replicas, optionally wrapped per index by ``wrap``."""
    clock = clock or ManualClock()
    backings = [InMemoryKVStore() for _ in range(num_replicas)]
    replicas = list(backings)
    if wrap is not None:
        replicas = [wrap(index, replica) for index, replica in enumerate(replicas)]
    config = config or ReplicatedConfig(
        replication_factor=num_replicas, probe_interval_s=0.5
    )
    store = ReplicatedKVStore(replicas, config=config, clock=clock, seed=seed)
    return store, backings, clock


def rendezvous_order(key, num_replicas, seed=0):
    """Replica preference order for ``key``, as the store computes it."""
    return _rank(zlib.crc32(key.encode("utf-8")), range(num_replicas), seed)


class TestRendezvousPlacement:
    def test_pure_function_of_inputs(self):
        assert rendezvous_order("feat/1", 5, seed=3) == rendezvous_order(
            "feat/1", 5, seed=3
        )
        assert rendezvous_order("feat/1", 5, seed=3) != rendezvous_order(
            "feat/1", 5, seed=4
        )

    def test_is_a_permutation(self):
        for key in ("a", "b", "feat/7", ""):
            order = rendezvous_order(key, 7, seed=1)
            assert sorted(order) == list(range(7))

    def test_balanced_primaries(self):
        counts = np.zeros(4, dtype=int)
        for index in range(2000):
            counts[rendezvous_order(f"key/{index}", 4)[0]] += 1
        # Fair-ish coin: every replica owns 15%-40% of the keyspace.
        assert counts.min() > 2000 * 0.15
        assert counts.max() < 2000 * 0.40

    def test_removal_only_moves_owned_keys(self):
        """The consistent-hashing property: dropping the last replica
        reassigns only the keys it was primary for."""
        keys = [f"key/{i}" for i in range(500)]
        before = {k: rendezvous_order(k, 4)[0] for k in keys}
        after = {k: rendezvous_order(k, 3)[0] for k in keys}
        for key in keys:
            if before[key] != 3:
                assert after[key] == before[key]

    def test_owners_respects_replication_factor(self):
        store, _, _ = _make_store(
            5, config=ReplicatedConfig(replication_factor=2)
        )
        owners = store.owners("feat/1")
        assert len(owners) == 2
        assert owners == tuple(rendezvous_order("feat/1", 5)[:2])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ReplicatedKVStore([])
        with pytest.raises(ValueError):
            ReplicatedConfig(replication_factor=0)
        with pytest.raises(ValueError):
            ReplicatedConfig(suspect_after=3, dead_after=2)


class TestReadWritePath:
    def test_put_fans_out_to_owners_only(self):
        store, backings, _ = _make_store(
            4, config=ReplicatedConfig(replication_factor=2)
        )
        for index in range(50):
            store.put(f"key/{index}", f"value-{index}".encode())
        for index in range(50):
            key = f"key/{index}"
            holding = {i for i, b in enumerate(backings) if b.contains(key)}
            assert holding == set(store.owners(key))
            assert store.get(key) == f"value-{index}".encode()

    def test_failover_to_secondary_on_primary_error(self):
        clock = ManualClock()

        def wrap(index, replica):
            # Replica 0 fails hard forever; others are fine.
            if index == 0:
                return FaultyKVStore(replica, clock, outages=[(0.0, 1e9)])
            return replica

        store, _, _ = _make_store(3, clock=clock, wrap=wrap)
        # Force a key whose primary is replica 0 for a guaranteed failover.
        probe = 0
        while store.owners(f"key/{probe}")[0] != 0:
            probe += 1
        key = f"key/{probe}"
        store.put(key, b"payload")
        assert store.get(key) == b"payload"
        assert store.failovers == 1
        assert store.health[0].state_path()[-1] in ("suspect", "dead")

    def test_intermittent_primary_costs_a_failover_per_failed_read(self):
        """A replica failing every other read, never ``dead_after`` in
        a row, has no penalty box: it is tried on every read it is
        primary for, and each failure is absorbed by one failover."""
        clock = ManualClock()
        config = ReplicatedConfig(replication_factor=2, dead_after=1000)
        store, _, _ = _make_store(
            2,
            clock=clock,
            config=config,
            wrap=lambda i, r: FaultyKVStore(r, clock, fail_rate=0.5, seed=1) if i == 0 else r,
        )
        for index in range(40):
            store.put(f"key/{index}", f"value-{index}".encode())
        primary_reads = 0
        for step in range(400):  # AllReplicasFailedError would propagate
            key = f"key/{step % 40}"
            primary_reads += store.owners(key)[0] == 0
            assert store.get(key) == f"value-{step % 40}".encode()
        flaky = store.health[0]
        assert 0.3 * primary_reads < flaky.reads_error < 0.7 * primary_reads
        assert store.failovers == flaky.reads_error
        assert flaky.reads_ok + flaky.reads_error == primary_reads  # never skipped
        assert "dead" not in flaky.state_path()
        assert store.health[1].reads_error == 0

    def test_missing_key_raises_keyerror_not_failure(self):
        store, _, _ = _make_store(3)
        store.put("exists", b"1")
        with pytest.raises(KeyError):
            store.get("never-written")
        # A miss is divergence, not an error: health is untouched.
        assert all(h.reads_error == 0 for h in store.health)

    def test_all_replicas_failing_raises_typed_error(self):
        clock = ManualClock()
        store, _, _ = _make_store(
            2,
            clock=clock,
            wrap=lambda i, r: FaultyKVStore(r, clock, outages=[(0.0, 1e9)]),
        )
        store.put("k", b"v")
        with pytest.raises(AllReplicasFailedError):
            store.get("k")

    def test_write_requires_one_owner_success(self):
        class BrokenStore(InMemoryKVStore):
            def put(self, key, value):
                raise IOError("disk full")

        clock = ManualClock()
        replicas = [BrokenStore(), BrokenStore()]
        store = ReplicatedKVStore(
            replicas, config=ReplicatedConfig(replication_factor=2), clock=clock
        )
        with pytest.raises(AllReplicasFailedError):
            store.put("k", b"v")

    def test_contains_and_keys(self):
        store, _, _ = _make_store(3)
        store.put("a", b"1")
        store.put("b", b"2")
        assert store.contains("a") and store.contains("b")
        assert not store.contains("c")
        assert sorted(store.keys()) == ["a", "b"]


class TestBatchedReads:
    """``get_many`` is the per-key walk (``check.reference.per_key_get``)
    with the per-batch work hoisted, and ``get`` is a batch of one;
    ``batched-read-vs-per-key-gets`` in ``repro.check`` holds the whole
    contract, these pin its corners."""

    def _filled(self, num_replicas=3, **config):
        store, backings, clock = _make_store(
            num_replicas, config=ReplicatedConfig(**{"replication_factor": 2, **config})
        )
        for index in range(40):
            store.put(f"key/{index}", f"value-{index}".encode())
        return store, backings, clock

    def test_empty_batch(self):
        store, _, _ = self._filled()
        assert store.get_many([]) == []
        assert [health.reads_ok for health in store.health] == [0, 0, 0]

    def test_equals_the_loop_and_folds_one_observation_per_replica(self, monkeypatch):
        store, _, clock = self._filled()
        keys = [f"key/{index}" for index in range(40)]
        observed = []
        record_success = ReplicaHealth.record_success

        def spy(health, latency_s, reads=1):
            observed.append((health.index, reads))
            record_success(health, latency_s, reads=reads)

        monkeypatch.setattr(ReplicaHealth, "record_success", spy)
        assert store.get_many(keys) == [f"value-{index}".encode() for index in range(40)]
        primaries = [sum(store.owners(key)[0] == r for key in keys) for r in range(3)]
        assert [health.reads_ok for health in store.health] == primaries
        # 40 reads, three latency observations: one mean per replica.
        assert sorted(observed) == [(r, primaries[r]) for r in range(3)]
        assert store.failovers == 0

    def test_absent_key_raises_keyerror_after_folding_the_earlier_keys(self):
        store, _, _ = self._filled()
        with pytest.raises(KeyError):
            store.get_many(["key/0", "key/1", "key/2", "nope", "key/3"])
        assert sum(health.reads_ok for health in store.health) == 3
        assert sum(health.reads_error for health in store.health) == 0

    def test_every_owner_dead_raises_after_folding_the_earlier_keys(self):
        store, _, clock = self._filled(5, probe_interval_s=10.0)
        doomed = "key/7"
        others = [
            key
            for key in (f"key/{index}" for index in range(40))
            if set(store.owners(key)).isdisjoint(store.owners(doomed))
        ]
        assert len(others) > 5
        for index in store.owners(doomed):
            store.health[index].quarantine("planted")
        before = [health.reads_ok for health in store.health]
        with pytest.raises(AllReplicasFailedError, match="all dead"):
            store.get_many(others[:5] + [doomed] + others[5:])
        after = [health.reads_ok for health in store.health]
        assert sum(after) - sum(before) == len(others[:5])

    def test_failover_inside_a_batch_is_a_failover_not_a_primary_success(self):
        store, backings, _ = self._filled()
        key = "key/5"
        primary, secondary = store.owners(key)
        backings[primary].delete(key)  # divergence: a miss, not a failure
        assert store.get_many(["key/4", key, "key/6"])[1] == b"value-5"
        assert store.failovers == 1
        assert store.health[primary].reads_error == 0
        assert sum(health.reads_ok for health in store.health) == 3

    def test_corrupt_copy_is_quarantined_and_the_gate_re_evaluated(self):
        store, backings, _ = self._filled(probe_interval_s=10.0)
        key = "key/5"
        primary = store.owners(key)[0]
        backings[primary].put(key, b"poisoned")
        later = [
            other
            for other in (f"key/{index}" for index in range(40))
            if store.owners(other)[0] == primary and other != key
        ]
        calls = []
        real = backings[primary].get
        backings[primary].get = lambda k: calls.append(k) or real(k)
        values = store.get_many([key] + later)
        assert values[0] == b"value-5" and store.corrupt_reads == 1
        # Read once, quarantined, and skipped for the rest of the batch.
        assert calls == [key]
        assert store.health[primary].state == "dead"
        assert store.failovers == 1  # a dead owner is not a candidate, so not failed over

    def test_one_metric_observation_per_batch_one_count_per_key(self):
        registry = MetricsRegistry()
        store, _, _ = self._filled()
        store.instrument(registry)
        store.get_many([f"key/{index}" for index in range(7)])
        store.get("key/0")
        text = registry.render()
        assert 'kv_reads_total{store="replicated"} 8' in text
        assert 'kv_read_seconds_count{store="replicated"} 2' in text

    def test_threads_lose_no_success(self):
        import sys
        import threading

        store, _, _ = _make_store(
            3, clock=lambda: 0.0, config=ReplicatedConfig(replication_factor=2)
        )
        for index in range(16):
            store.put(f"key/{index}", b"v" * 8)
        keys = [f"key/{index}" for index in range(16)]
        failures = []
        together = threading.Barrier(8)

        def read():
            try:
                together.wait(timeout=60)
                for _ in range(100):
                    assert store.get_many(keys) == [b"v" * 8] * 16
            except Exception as error:  # surfaced below: a thread cannot fail a test
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(thread.is_alive() for thread in threads)
        assert sum(health.reads_ok for health in store.health) == 8 * 100 * 16


class TestHealthStateMachine:
    def _flaky_store(self, fail_windows, probe_interval_s=0.5, dead_after=3):
        clock = ManualClock()
        config = ReplicatedConfig(
            replication_factor=1,
            suspect_after=1,
            dead_after=dead_after,
            probe_interval_s=probe_interval_s,
        )
        backing = InMemoryKVStore()
        replica = FaultyKVStore(backing, clock, outages=fail_windows)
        store = ReplicatedKVStore([replica], config=config, clock=clock)
        return store, backing, clock

    def test_healthy_suspect_dead_progression(self):
        store, _, clock = self._flaky_store([(0.0, 10.0)], dead_after=3)
        store.put("k", b"v")
        for _ in range(2):
            clock.advance(0.01)
            with pytest.raises(AllReplicasFailedError):
                store.get("k")
        assert store.health[0].state == "suspect"
        clock.advance(0.01)
        with pytest.raises(AllReplicasFailedError):
            store.get("k")
        assert store.health[0].state == "dead"
        assert store.health[0].state_path() == ("healthy", "suspect", "dead")

    def test_dead_replica_skipped_until_probe_interval(self):
        store, _, clock = self._flaky_store([(0.0, 1.0)], probe_interval_s=0.5)
        store.put("k", b"v")
        for _ in range(3):
            clock.advance(0.01)
            with pytest.raises(AllReplicasFailedError):
                store.get("k")
        assert store.health[0].state == "dead"
        # Inside the probe interval every candidate is dead -> skip.
        with pytest.raises(AllReplicasFailedError):
            store.get("k")
        # After the interval the replica probes; the outage persists so
        # the probe fails straight back to dead...
        clock.advance(0.6)
        with pytest.raises(AllReplicasFailedError):
            store.get("k")
        assert "probing" in store.health[0].state_path()
        assert store.health[0].state == "dead"
        # ...until the outage window ends and a probe resurrects it.
        clock.advance(0.6)
        assert store.get("k") == b"v"
        assert store.health[0].state == "healthy"
        path = store.health[0].state_path()
        assert path[0] == "healthy" and path[-1] == "healthy"
        assert "dead" in path and "probing" in path

    def test_success_resets_consecutive_errors(self):
        store, _, clock = self._flaky_store([(0.1, 0.2), (0.3, 0.4)], dead_after=5)
        store.put("k", b"v")
        clock.advance(0.11)
        with pytest.raises(AllReplicasFailedError):
            store.get("k")
        assert store.health[0].consecutive_errors == 1
        clock.advance(0.15)  # window over
        assert store.get("k") == b"v"
        assert store.health[0].consecutive_errors == 0
        assert store.health[0].state == "healthy"

    def test_ewma_tracks_latency(self):
        clock = ManualClock()
        store, _, _ = _make_store(
            1,
            clock=clock,
            config=ReplicatedConfig(replication_factor=1),
            wrap=lambda i, r: FaultyKVStore(r, clock, delay_s=0.004),
        )
        store.put("k", b"v")
        for _ in range(8):
            store.get("k")
        assert store.health[0].ewma_latency_s == pytest.approx(0.004, rel=0.01)


class TestCorruptionQuarantine:
    def test_ledger_mismatch_quarantines_and_fails_over(self):
        store, backings, _ = _make_store(3)
        # A key whose primary we can poison.
        probe = 0
        while store.owners(f"key/{probe}")[0] != 1:
            probe += 1
        key = f"key/{probe}"
        store.put(key, b"good-bytes")
        backings[1].put(key, b"bad--bytes")  # silent divergence
        assert store.get(key) == b"good-bytes"  # served from a good copy
        assert store.corrupt_reads == 1
        assert store.failovers == 1
        assert store.health[1].state == "dead"
        assert store.health[1].state_path() == ("healthy", "dead")

    def test_mmap_checksum_corruption_also_quarantines(self, tmp_path):
        """MmapKVStore's own per-value CRC raises CorruptStoreError;
        the replicated tier absorbs it exactly like a ledger miss."""
        clock = ManualClock()
        paths = [str(tmp_path / f"replica-{i}.bin") for i in range(2)]
        builders = [MmapKVStore(p) for p in paths]
        for builder in builders:
            builder.put("k", b"precious-payload")
            builder.finalize()
            builder.close()
        # Flip a data byte in one replica's file (before the index).
        with open(paths[0], "r+b") as handle:
            handle.seek(3)
            byte = handle.read(1)
            handle.seek(3)
            handle.write(bytes([byte[0] ^ 0xFF]))
        replicas = [MmapKVStore.open(p) for p in paths]
        store = ReplicatedKVStore(
            replicas, config=ReplicatedConfig(replication_factor=2), clock=clock
        )
        assert store.get("k") == b"precious-payload"
        bad = 0 if store.owners("k")[0] == 0 else None
        # Whichever order the owners came in, the poisoned replica is
        # dead and the read was served.
        assert store.health[0].state == "dead"
        assert store.corrupt_reads == 1
        store.close()


class TestParentParity:
    """What a faulted read run returns to its caller must not move when
    the read path is restructured; how it was routed may."""

    def test_fault_plan_run_tallies_as_at_the_parent_commit(self):
        """A flaky, a corrupting, an outaged and a jittery-slow replica
        on a ManualClock. ``outcomes`` and ``digest`` — everything the
        caller sees — are the values this script produced at c927664
        and again at 1630fad, where a circuit breaker also sat in front
        of each replica. The routing tallies below them were re-derived
        when ``ReplicaHealth`` became the only gate: with the breakers
        gone the same reads take *fewer* detours (failovers 43 -> 33;
        the 12 breaker skips were of replicas the health machine had
        already revived). They held again when ``get`` became a batch
        of one, and again when the read path lost its threaded
        alternative. A change to any of them is a behaviour change of
        the read path, not a refactor."""
        clock = ManualClock()
        plan = FaultPlan(
            num_workers=1,
            seed=5,
            replica_kill={1: [(0.10, 0.45)]},
            replica_corrupt={2: [(0.20, 0.30)]},
            replica_slow={0: 0.002},
        )
        backings = [InMemoryKVStore() for _ in range(4)]
        replicas = plan.wrap_replicas(backings, clock)
        replicas[3] = FaultyKVStore(replicas[3], clock, fail_rate=0.04, seed=11)
        config = ReplicatedConfig(replication_factor=3, probe_interval_s=0.05)
        store = ReplicatedKVStore(replicas, config=config, clock=clock, seed=2)
        for index in range(60):
            store.put(f"key/{index}", f"value-{index}".encode() * 3)
        backings[store.owners("key/7")[0]].delete("key/7")  # one divergent copy
        digest, outcomes = 0, {"ok": 0, "missing": 0, "failed": 0}
        for step in range(900):
            clock.advance(0.001)
            replicas[0].delay_s = 0.001 * (1 + (step * 3) % 5)  # jitter
            key = f"key/{(step * 7) % 64}"  # keys 60..63 were never written
            try:
                value = store.get(key)
            except KeyError:
                outcomes["missing"] += 1
            except AllReplicasFailedError:
                outcomes["failed"] += 1
            else:
                outcomes["ok"] += 1
                assert value == f"value-{key[4:]}".encode() * 3
                digest = zlib.crc32(value, digest)

        assert outcomes == {"ok": 843, "missing": 56, "failed": 1}
        assert digest == 165049317
        assert store.failovers == 33
        assert store.corrupt_reads == 2
        assert [(h.reads_ok, h.reads_error) for h in store.health] == [
            (225, 0),
            (125, 7),
            (274, 2),
            (219, 11),
        ]
        dead_probing = ("dead", "probing")
        assert [h.state_path() for h in store.health] == [
            ("healthy",),
            ("healthy", "suspect") + dead_probing * 5 + ("healthy",),
            ("healthy",) + dead_probing * 2 + ("healthy",),
            ("healthy",) + ("suspect", "healthy") * 11,
        ]


class TestAntiEntropy:
    def test_detects_and_repairs_divergence(self):
        store, backings, _ = _make_store(3)
        for index in range(30):
            store.put(f"key/{index}", f"value-{index}".encode())
        # Silently corrupt one copy and delete another.
        backings[0].put("key/3", b"garbage")
        victim_key = next(
            f"key/{i}" for i in range(30) if 2 in store.owners(f"key/{i}")
        )
        backings[2].delete(victim_key)
        report = store.anti_entropy(repair=True)
        assert report.keys_checked == 30
        kinds = {(replica, kind) for _, replica, kind in report.divergent}
        assert (0, "divergent") in kinds
        assert (2, "missing") in kinds
        assert report.repaired == len(report.divergent)
        assert report.unrepairable == 0
        # Fully healed: a second pass is clean.
        assert not store.anti_entropy(repair=True).divergent
        assert backings[0].get("key/3") == b"value-3"
        assert backings[2].get(victim_key) == victim_key.replace("key/", "value-").encode()

    def test_repair_resurrects_quarantined_replica(self):
        store, backings, clock = _make_store(3)
        probe = 0
        while store.owners(f"key/{probe}")[0] != 1:
            probe += 1
        key = f"key/{probe}"
        store.put(key, b"truth")
        backings[1].put(key, b"lies!")
        assert store.get(key) == b"truth"  # quarantine fires
        assert store.health[1].state == "dead"
        report = store.anti_entropy(repair=True)
        assert report.repaired >= 1
        assert store.health[1].state == "probing"
        assert store.get(key) == b"truth"  # probe read succeeds
        assert store.health[1].state == "healthy"

    def test_majority_vote_without_ledger(self):
        """Keys written out-of-band have no ledger CRC; the majority
        checksum arbitrates."""
        store, backings, _ = _make_store(3)
        probe = 0
        while len(set(store.owners(f"key/{probe}"))) != 3:
            probe += 1
        key = f"key/{probe}"
        for backing in backings:
            backing.put(key, b"agreed")
        backings[0].put(key, b"outvoted")
        report = store.anti_entropy(repair=True)
        assert report.repaired == 1
        assert backings[0].get(key) == b"agreed"

    def test_tie_is_unrepairable(self):
        store, backings, _ = _make_store(
            2, config=ReplicatedConfig(replication_factor=2)
        )
        probe = 0
        while len(set(store.owners(f"key/{probe}"))) != 2:
            probe += 1
        key = f"key/{probe}"
        backings[0].put(key, b"version-a")
        backings[1].put(key, b"version-b")
        report = store.anti_entropy(repair=True)
        assert report.unrepairable == 2  # both copies flagged, no quorum
        assert report.repaired == 0
        assert backings[0].get(key) == b"version-a"  # untouched

    def test_report_describe_mentions_counts(self):
        store, backings, _ = _make_store(2)
        store.put("k", b"v")
        report = store.anti_entropy()
        assert "1 keys checked" in report.describe()


class TestFaultPlanReplicaFaults:
    def test_wrap_replicas_kill_window(self):
        clock = ManualClock()
        plan = FaultPlan(num_workers=2, seed=0, replica_kill={0: [(0.1, 0.2)]})
        backings = [InMemoryKVStore(), InMemoryKVStore()]
        wrapped = plan.wrap_replicas(backings, clock)
        assert isinstance(wrapped[0], FaultyKVStore)
        assert wrapped[1] is backings[1]
        backings[0].put("k", b"v")
        assert wrapped[0].get("k") == b"v"
        clock.advance(0.15)
        with pytest.raises(Exception):
            wrapped[0].get("k")

    def test_wrap_replicas_corrupt_flips_deterministically(self):
        plan = FaultPlan(num_workers=1, seed=3, replica_corrupt={0: [(0, 100)]})
        backing = InMemoryKVStore()
        backing.put("k", b"hello")
        wrapped = plan.wrap_replicas([backing], ManualClock())[0]
        assert isinstance(wrapped, FaultyKVStore)
        first, second = wrapped.get("k"), wrapped.get("k")
        assert first == second != b"hello"  # same flip every read

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(num_workers=1, replica_kill={0: [(0.5, 0.1)]})


class TestInstrumentation:
    def test_registry_metrics_flow(self):
        registry = MetricsRegistry()
        store, backings, clock = _make_store(2)
        store.instrument(registry)
        probe = 0
        while store.owners(f"key/{probe}")[0] != 0:
            probe += 1
        key = f"key/{probe}"
        store.put(key, b"good")
        store.get(key)
        backings[0].put(key, b"bads")
        store.get(key)  # corrupt -> quarantine -> failover
        text = registry.render()
        assert 'kv_reads_total{store="replicated"} 2' in text
        assert 'kv_replica_reads_total{replica="0",outcome="corrupt"} 1' in text
        assert "kv_failovers_total 1" in text
        assert 'kv_replica_state{replica="0",state="dead"} 1' in text
        assert "kv_replica_info" in text

    def test_state_gauge_tracks_transitions(self):
        registry = MetricsRegistry()
        store, backings, clock = _make_store(
            1,
            config=ReplicatedConfig(
                replication_factor=1, suspect_after=1, dead_after=1, probe_interval_s=0.1
            ),
        )
        store.instrument(registry)
        store.put("k", b"v")
        backings[0].put("k", b"x")
        with pytest.raises(AllReplicasFailedError):
            store.get("k")
        assert 'kv_replica_state{replica="0",state="dead"} 1' in registry.render()
        store.anti_entropy(repair=False)  # detect-only: no resurrection
        assert store.health[0].state == "dead"


class TestGraphStoreIntegration:
    def test_graph_roundtrip_through_replicated_store(self, tiny_graph):
        store, _, _ = _make_store(3)
        graph_store = GraphStore(store)
        graph_store.save(tiny_graph)
        loaded = graph_store.load()
        np.testing.assert_allclose(loaded.txn_table, tiny_graph.txn_table)
        np.testing.assert_array_equal(loaded.labels, tiny_graph.labels)
        np.testing.assert_array_equal(loaded.edge_src, tiny_graph.edge_src)

    def test_graph_roundtrip_over_mmap_replicas(self, tiny_graph, tmp_path):
        clock = ManualClock()
        replicas = [
            MmapKVStore(str(tmp_path / f"replica-{i}.bin")) for i in range(2)
        ]
        store = ReplicatedKVStore(
            replicas, config=ReplicatedConfig(replication_factor=2), clock=clock
        )
        graph_store = GraphStore(store)
        graph_store.save(tiny_graph)  # save() finalizes through the tier
        loaded = graph_store.load()
        np.testing.assert_allclose(loaded.txn_table, tiny_graph.txn_table)
        store.close()

    def test_describe_renders_health_table(self):
        store, _, _ = _make_store(2)
        store.put("k", b"v")
        store.get("k")
        text = store.describe()
        assert "replicated store: 2 replicas" in text
        assert "replica 0:" in text and "replica 1:" in text
        assert "path:" in text
