"""Scripted failure injection for the simulated DDP cluster and KV-store.

The paper's 16-machine cluster (Sec. 3.3.2) is synchronous: one dead
worker stalls every epoch. :class:`FaultPlan` scripts the failures a
production deployment actually sees — dead, rejoining and straggling
workers, corrupt gradients, replica outages, flaky reads — as data, so
a degraded run is exactly reproducible. A plan only *schedules*; what
happens to a faulty worker is decided in one place, the elastic
supervisor (:class:`~repro.train.elastic.ElasticTrainer`), and what
happens to a faulty replica in :mod:`repro.storage.replicated`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..storage.kvstore import DelegatingKVStore, KVStore, TransientReadError


class ManualClock:
    """A hand-advanced monotonic clock for deterministic chaos tests.

    Drop-in for ``time.monotonic`` wherever a ``clock=`` parameter is
    accepted (deadlines, token buckets, replica health): calling the
    instance returns the current simulated time, :meth:`advance` moves
    it forward. Sharing one clock between a scripted-latency store and
    a scoring service lets a test burn a request's budget (in its
    micro-batch's :class:`~repro.serving.deadline.Deadline`) one
    simulated read at a time.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self.now += float(seconds)
        return self.now

    def sleep(self, seconds: float) -> None:
        """``time.sleep`` stand-in: advancing instead of blocking."""
        self.advance(seconds)


# Elastic-training event kinds (repro.train.elastic). KILL/REJOIN are
# *scheduled* by a plan; EVICTION/QUARANTINE are *decisions* the
# supervisor records in response.
KILL = "kill"
REJOIN = "rejoin"
EVICTION = "evict"
QUARANTINE = "quarantine"

GRAD_CORRUPT_MODES = ("nan", "bitflip")


@dataclass(frozen=True)
class FaultEvent:
    """One observed fault or recovery, recorded in the epoch history."""

    epoch: int
    worker_id: int
    kind: str  # "kill" | "rejoin" | "evict" | "quarantine"
    detail: str = ""


class FaultPlan:
    """Deterministic fault schedule for ``num_workers`` workers (or
    replicas): every fault is scripted, none is drawn.

    For the **elastic** supervisor (:mod:`repro.train.elastic`) a plan
    scripts membership-level faults, all keyed by epoch:

    * ``worker_kill`` — epoch -> workers that die *permanently* at that
      epoch (heartbeats stop; the failure detector must evict them);
    * ``worker_rejoin`` — epoch -> previously killed workers asking to
      be readmitted (they re-enter via the probing state);
    * ``worker_slow`` — epoch -> {worker: latency multiplier >= 1} for
      that epoch only (the round waits for it; its late heartbeat
      moves the failure detector's phi);
    * ``grad_corrupt`` — epoch -> {worker: mode} where mode is ``nan``
      (poisoned values) or ``bitflip`` (checksum mismatch); a plain
      sequence of worker ids means ``nan``.

    The same plan also scripts *storage-replica* faults for a
    :class:`~repro.storage.replicated.ReplicatedKVStore`:
    ``replica_kill`` (replica -> outage windows), ``replica_corrupt``
    (replica -> bit-flip windows) and ``replica_slow`` (replica ->
    per-read delay) are applied by :meth:`wrap_replicas`, which puts one
    :class:`FaultyKVStore` around each faulted replica store.
    """

    def __init__(
        self,
        num_workers: int,
        replica_kill: Optional[Mapping[int, Sequence[Tuple[float, float]]]] = None,
        replica_corrupt: Optional[Mapping[int, Sequence[Tuple[float, float]]]] = None,
        replica_slow: Optional[Mapping[int, float]] = None,
        worker_kill: Optional[Mapping[int, Sequence[int]]] = None,
        worker_rejoin: Optional[Mapping[int, Sequence[int]]] = None,
        worker_slow: Optional[Mapping[int, Mapping[int, float]]] = None,
        grad_corrupt: Optional[Mapping[int, object]] = None,
        seed: int = 0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.replica_kill = self._windows_by_replica(replica_kill)
        self.replica_corrupt = self._windows_by_replica(replica_corrupt)
        self.replica_slow = (
            {int(r): float(d) for r, d in replica_slow.items()} if replica_slow else {}
        )
        for replica, delay in self.replica_slow.items():
            if delay < 0:
                raise ValueError(f"replica_slow[{replica}] must be >= 0")
        self.worker_kill = self._ids_by_epoch(worker_kill, "worker_kill")
        self.worker_rejoin = self._ids_by_epoch(worker_rejoin, "worker_rejoin")
        self.worker_slow = self._slowdowns_by_epoch(worker_slow)
        self.grad_corrupt = self._corruptions_by_epoch(grad_corrupt)
        self.seed = seed

    def _ids_by_epoch(
        self, schedule: Optional[Mapping[int, Sequence[int]]], name: str
    ) -> Dict[int, List[int]]:
        if not schedule:
            return {}
        validated: Dict[int, List[int]] = {}
        for epoch, workers in schedule.items():
            ids = sorted(int(w) for w in workers)
            for worker in ids:
                if not 0 <= worker < self.num_workers:
                    raise ValueError(f"{name}[{epoch}] worker {worker} out of range")
            validated[int(epoch)] = ids
        return validated

    def _slowdowns_by_epoch(
        self, schedule: Optional[Mapping[int, Mapping[int, float]]]
    ) -> Dict[int, Dict[int, float]]:
        if not schedule:
            return {}
        validated: Dict[int, Dict[int, float]] = {}
        for epoch, slowdowns in schedule.items():
            entry: Dict[int, float] = {}
            for worker, factor in slowdowns.items():
                worker, factor = int(worker), float(factor)
                if not 0 <= worker < self.num_workers:
                    raise ValueError(f"worker_slow[{epoch}] worker {worker} out of range")
                if factor < 1.0:
                    raise ValueError(f"worker_slow[{epoch}][{worker}] must be >= 1")
                entry[worker] = factor
            validated[int(epoch)] = entry
        return validated

    def _corruptions_by_epoch(
        self, schedule: Optional[Mapping[int, object]]
    ) -> Dict[int, Dict[int, str]]:
        if not schedule:
            return {}
        validated: Dict[int, Dict[int, str]] = {}
        for epoch, spec in schedule.items():
            entry: Dict[int, str] = {}
            items = spec.items() if isinstance(spec, Mapping) else [(w, "nan") for w in spec]
            for worker, mode in items:
                worker = int(worker)
                if not 0 <= worker < self.num_workers:
                    raise ValueError(f"grad_corrupt[{epoch}] worker {worker} out of range")
                if mode not in GRAD_CORRUPT_MODES:
                    raise ValueError(
                        f"grad_corrupt[{epoch}][{worker}] mode {mode!r} not in "
                        f"{GRAD_CORRUPT_MODES}"
                    )
                entry[worker] = mode
            validated[int(epoch)] = entry
        return validated

    # -- elastic accessors ----------------------------------------------
    def kills_at(self, epoch: int) -> List[int]:
        """Workers scheduled to die permanently at ``epoch``."""
        return list(self.worker_kill.get(int(epoch), []))

    def rejoins_at(self, epoch: int) -> List[int]:
        """Previously killed workers asking to rejoin at ``epoch``."""
        return list(self.worker_rejoin.get(int(epoch), []))

    def slow_at(self, epoch: int) -> Dict[int, float]:
        """Worker -> latency multiplier for ``epoch`` (absent = 1.0)."""
        return dict(self.worker_slow.get(int(epoch), {}))

    def corrupt_at(self, epoch: int) -> Dict[int, str]:
        """Worker -> gradient corruption mode for ``epoch``."""
        return dict(self.grad_corrupt.get(int(epoch), {}))

    @staticmethod
    def _windows_by_replica(
        schedule: Optional[Mapping[int, Sequence[Tuple[float, float]]]]
    ) -> Dict[int, List[Tuple[float, float]]]:
        if not schedule:
            return {}
        return {int(replica): _validated_windows(w) for replica, w in schedule.items()}

    def wrap_replicas(self, stores: Sequence[KVStore], clock: ManualClock) -> List[KVStore]:
        """One :class:`FaultyKVStore` on ``clock`` around each store this
        plan faults; the others are returned as they are. Replica
        indices outside ``stores`` are ignored."""
        faulted = {*self.replica_kill, *self.replica_corrupt, *self.replica_slow}
        return [
            FaultyKVStore(
                store,
                clock,
                delay_s=self.replica_slow.get(index, 0.0),
                outages=self.replica_kill.get(index, ()),
                corruptions=self.replica_corrupt.get(index, ()),
                seed=self.seed * 1000003 + index,
            )
            if index in faulted
            else store
            for index, store in enumerate(stores)
        ]


def _validated_windows(windows: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Half-open ``[start, stop)`` fault windows as float pairs."""
    for start, stop in windows:
        if start < 0 or stop < start:
            raise ValueError(f"bad fault window ({start}, {stop})")
    return [(float(start), float(stop)) for start, stop in windows]


class FaultyKVStore(DelegatingKVStore):
    """One replica's scripted faults, on ``clock``.

    Every ``get`` takes the same steps in this order:

    1. inside an ``outages`` window (half-open seconds on ``clock``,
       read before any delay, so a killed replica fails fast) it raises
       :class:`TransientReadError` — the store that goes *down*, which
       walks a replica's :class:`~repro.storage.replicated.ReplicaHealth`
       to ``dead``;
    2. the first ``fail_first`` reads of each key raise, then a seeded
       draw fails a read with probability ``fail_rate`` — the per-key
       blips one failover absorbs;
    3. ``clock.sleep(delay_s)`` — a straggler's latency, simulated on a
       :class:`ManualClock` (the only step that needs one); ``delay_s``
       is mutable, so a scenario can slow a replica mid-run;
    4. the inner read;
    5. inside a ``corruptions`` window, judged *after* the read, byte
       ``(crc32(key) ^ seed) % len`` of the value is flipped — the quiet
       failure checksums exist for, the same flip on every read of a key.

    ``reads`` counts every ``get``, ``injected`` every fault it raised
    or flipped.
    """

    def __init__(
        self,
        store: KVStore,
        clock: Callable[[], float],
        delay_s: float = 0.0,
        outages: Sequence[Tuple[float, float]] = (),
        corruptions: Sequence[Tuple[float, float]] = (),
        fail_first: int = 0,
        fail_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        super().__init__(store)
        self.clock = clock
        self.delay_s = float(delay_s)
        self.outages = _validated_windows(outages)
        self.corruptions = _validated_windows(corruptions)
        self.fail_first = fail_first
        self.fail_rate = fail_rate
        self.seed = int(seed)
        self.reads = 0
        self.injected = 0
        self._attempts: Dict[str, int] = {}
        self._rng = np.random.default_rng(seed)

    def get(self, key: str) -> bytes:
        self.reads += 1
        now = float(self.clock())
        if _inside(self.outages, now):
            self._fault(f"scripted outage at t={now:g} reading {key!r}")
        seen = self._attempts.get(key, 0)
        if seen < self.fail_first:
            self._attempts[key] = seen + 1
            self._fault(f"injected fault for {key!r} (attempt {seen + 1})")
        if self.fail_rate and float(self._rng.random()) < self.fail_rate:
            self._fault(f"injected random fault for {key!r}")
        if self.delay_s:
            self.clock.sleep(self.delay_s)
        value = self.store.get(key)
        if value and _inside(self.corruptions, float(self.clock())):
            self.injected += 1
            flipped = bytearray(value)
            flipped[(zlib.crc32(key.encode("utf-8")) ^ self.seed) % len(flipped)] ^= 0xFF
            return bytes(flipped)
        return value

    def put(self, key: str, value: bytes) -> None:
        """Inside an ``outages`` window the write raises too: a store
        that is down takes no writes, so it misses them."""
        now = float(self.clock())
        if _inside(self.outages, now):
            self._fault(f"scripted outage at t={now:g} writing {key!r}")
        self.store.put(key, value)

    def _fault(self, message: str) -> None:
        self.injected += 1
        raise TransientReadError(message)


def _inside(windows: List[Tuple[float, float]], now: float) -> bool:
    return any(start <= now < stop for start, stop in windows)
