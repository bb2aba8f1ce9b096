"""Replicated feature-store tier: failover, hedged reads, anti-entropy.

The deployed xFraud system (Sec. 3.3.3, Appendix H.5) reads features
from a remote KV-store on every scoring request. A single store node is
therefore a single point of failure: one slow machine inflates every
tail latency and one dead machine is a whole-service outage.
:class:`ReplicatedKVStore` turns the storage tier into the availability
layer a production deployment actually runs:

* **Placement** — every key is owned by the top ``replication_factor``
  replicas of the rendezvous (highest-random-weight) ranking in
  :func:`repro.cluster.rendezvous_order`, over the CRC32 of the key.
  Placement is a pure function of ``(key, seed, num_replicas)``: no
  ring state, no rebalancing metadata, and two stores built the same
  way agree on every key's preference list.
* **Health tracking** — each replica carries a
  :class:`ReplicaHealth` state machine (``healthy → suspect → dead →
  probing``) driven by consecutive errors, plus an EWMA of observed
  read latency and a bounded :class:`~repro.obs.registry.Reservoir` of
  latency samples. Dead replicas are skipped entirely until a probe
  interval elapses; a probe read then decides resurrection vs. another
  stint in the penalty box.
* **Hedged reads** — with ``concurrent_hedge=True``, when a read of
  the *primary* owner exceeds that replica's own latency quantile
  (``hedge_quantile`` over its sample reservoir), a backup read is
  fired at the next-preferred owner and the first answer wins (real
  threads). Samples from hedged primary reads are excluded from the
  hedge reservoir so a persistently slow replica cannot drift its own
  threshold up and disarm hedging. ``concurrent_hedge=False`` (the
  default, and the setting for a simulated
  :class:`~repro.reliability.faults.ManualClock`) means no hedging:
  nothing reads a threshold.
* **One read path** — :meth:`ReplicatedKVStore.get_many` is the only
  read; ``get(key)`` is a batch of one. The replica gate is read once
  per run of keys, primary successes are tallied locally and folded
  into :class:`ReplicaHealth` in one critical section (one latency
  observation per replica: the mean of its reads), and any key that
  misses, fails, has a dead owner or is hedged is finished by the
  per-key walk. Same bytes, same exception, same calls made of every
  replica, same counters and state paths as reading the keys one at a
  time (:func:`repro.check.reference.per_key_get`); only the
  latency-derived values differ.
* **Corruption quarantine** — ``put`` fans out to every owner and
  records a CRC32 ledger entry; a ``get`` whose bytes fail the ledger
  check (or whose replica raises
  :class:`~repro.storage.kvstore.CorruptStoreError` from
  :class:`~repro.storage.kvstore.MmapKVStore`'s own per-value
  checksums) quarantines that replica as dead and fails over — the
  caller never sees garbage bytes *or* an exception while a good copy
  exists.
* **Anti-entropy** — :meth:`ReplicatedKVStore.anti_entropy` compares
  per-owner CRC32s against the ledger (majority vote when no ledger
  entry exists), read-repairs divergent/missing/corrupt copies from a
  verified-good replica, and flips repaired quarantined replicas back
  to probing. A pass runs when called (``repro healthcheck``, the
  serve demo); reads never start one.

One gate per replica: :class:`ReplicaHealth` alone decides whether a
replica is read; there is no circuit breaker in this tier. A replica
that fails *intermittently*, never ``dead_after`` reads in a row, is
therefore not put in a penalty box — each failed read costs one
failover to the next owner and still returns the right bytes.

Layering: this module sits in ``repro.storage`` and therefore imports
only :mod:`repro.storage.kvstore`, the dependency-free
:mod:`repro.obs.registry` and the root helpers (:mod:`repro.util`,
:mod:`repro.cluster`).
"""

from __future__ import annotations

import time
import threading
import zlib
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster import DEAD, HEALTHY, PROBING, SUSPECT, rendezvous_order
from ..obs.registry import MetricsRegistry, Reservoir
from ..util import nearest_rank_index
from .kvstore import CorruptStoreError, KVStore, kv_read_metrics, propagate_instrument

#: Weight of the newest read in a replica's latency EWMA.
EWMA_ALPHA = 0.2
#: Latency samples each replica keeps for its hedge threshold.
LATENCY_RESERVOIR_SIZE = 256


class AllReplicasFailedError(IOError):
    """Every candidate replica failed (or is dead) for one operation."""


class _ReplicaMiss(KeyError):
    """Internal: the key is absent on one replica (divergence, not failure)."""


@dataclass(frozen=True)
class ReplicatedConfig:
    """Operating envelope of one :class:`ReplicatedKVStore`.

    ``concurrent_hedge`` turns on real threaded hedging (wall-clock
    latency wins, for production/benchmarks; ``hedge_quantile`` and
    ``hedge_min_observations`` arm it). ``False`` means no hedging,
    which is what a :class:`~repro.reliability.faults.ManualClock`
    needs.
    """

    replication_factor: int = 2
    suspect_after: int = 1  # consecutive errors before healthy -> suspect
    dead_after: int = 3  # consecutive errors before -> dead
    probe_interval_s: float = 0.5  # dead -> probing after this long
    hedge_quantile: float = 0.95
    hedge_min_observations: int = 16  # reservoir floor before hedging arms
    concurrent_hedge: bool = False

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.suspect_after < 1 or self.dead_after < self.suspect_after:
            raise ValueError("need 1 <= suspect_after <= dead_after")
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")
        if not 0.0 < self.hedge_quantile <= 1.0:
            raise ValueError("hedge_quantile must be in (0, 1]")
        if self.hedge_min_observations < 1:
            raise ValueError("hedge_min_observations must be >= 1")


class ReplicaHealth:
    """Per-replica EWMA latency + consecutive-error state machine.

    ``healthy`` — serving normally. ``suspect`` — one or more recent
    consecutive errors; still a read candidate (failover covers it).
    ``dead`` — skipped entirely until ``probe_interval_s`` elapses.
    ``probing`` — one trial read decides: success resurrects to
    healthy, failure goes straight back to dead.
    """

    def __init__(
        self,
        index: int,
        clock: Callable[[], float],
        config: ReplicatedConfig,
    ) -> None:
        self.index = index
        self.state = HEALTHY
        self.config = config
        self.consecutive_errors = 0
        self.ewma_latency_s: Optional[float] = None
        self.last_error: Optional[str] = None
        self.reads_ok = 0
        self.reads_error = 0
        self.transitions: List[Tuple[float, str, str, str]] = []  # (at, from, to, reason)
        self.latencies = Reservoir(LATENCY_RESERVOIR_SIZE, seed=index)
        # (reservoir version, threshold): one tuple so a reader never
        # pairs one version with another version's value.
        self._threshold_memo: Tuple[int, Optional[float]] = (-1, None)
        self._clock = clock
        self._dead_since = 0.0

    def _transition(self, to_state: str, reason: str) -> None:
        if to_state == self.state:
            return
        previous, self.state = self.state, to_state
        self.transitions.append((self._clock(), previous, to_state, reason))

    def state_path(self) -> Tuple[str, ...]:
        """Visited states in order, leading with the initial state."""
        if not self.transitions:
            return (self.state,)
        return (self.transitions[0][1],) + tuple(t[2] for t in self.transitions)

    def record_success(
        self, latency_s: float, record_sample: bool = True, reads: int = 1
    ) -> None:
        """``reads`` reads served correct bytes: one in ``latency_s``
        seconds, or a batch's run of them at that mean — one latency
        observation either way.

        ``record_sample=False`` keeps the observation out of the hedge
        reservoir (used for hedged primary reads, whose samples are
        censored by the hedge decision itself) while still updating the
        EWMA the operators watch.
        """
        self.consecutive_errors = 0
        if self.ewma_latency_s is None:
            self.ewma_latency_s = float(latency_s)
        else:
            self.ewma_latency_s += EWMA_ALPHA * (float(latency_s) - self.ewma_latency_s)
        if record_sample:
            self.latencies.add(float(latency_s))
        self.reads_ok += reads
        if self.state in (SUSPECT, PROBING):
            self._transition(HEALTHY, "read succeeded")

    def record_failure(self, error: str) -> None:
        """A read (or write) errored; may demote suspect -> dead."""
        self.consecutive_errors += 1
        self.last_error = error
        self.reads_error += 1
        if self.state == PROBING:
            self._dead_since = self._clock()
            self._transition(DEAD, "probe failed")
        elif self.consecutive_errors >= self.config.dead_after:
            self._dead_since = self._clock()
            self._transition(DEAD, f"{self.consecutive_errors} consecutive errors")
        elif self.consecutive_errors >= self.config.suspect_after:
            self._transition(SUSPECT, f"{self.consecutive_errors} consecutive errors")

    def quarantine(self, error: str) -> None:
        """Corrupt bytes: straight to dead, no grace period."""
        self.consecutive_errors += 1
        self.last_error = error
        self.reads_error += 1
        self._dead_since = self._clock()
        self._transition(DEAD, "corrupt read quarantined")

    def mark_probing(self, reason: str) -> None:
        """External resurrection nudge (e.g. after an anti-entropy repair)."""
        if self.state == DEAD:
            self._transition(PROBING, reason)

    def available(self, now: float) -> bool:
        """May this replica serve a read right now? Moves dead -> probing
        once the probe interval has elapsed."""
        if self.state == DEAD:
            if now - self._dead_since >= self.config.probe_interval_s:
                self._transition(PROBING, "probe interval elapsed")
                return True
            return False
        return True

    def hedge_threshold(self) -> Optional[float]:
        """This replica's hedge trigger: its own latency quantile, or
        ``None`` until ``hedge_min_observations`` samples accrue."""
        latencies = self.latencies
        version, threshold = self._threshold_memo
        if version != latencies.version:
            # The retained sample changed since the memo was taken (once
            # the reservoir is full that is ~capacity/seen of reads).
            version, threshold = latencies.version, None
            if len(latencies) >= self.config.hedge_min_observations:
                ordered = sorted(latencies)
                # Nearest-rank quantile (same selection rule as
                # obs.registry.Histogram.percentile and latency_percentiles).
                rank = nearest_rank_index(self.config.hedge_quantile * 100.0, len(ordered))
                threshold = float(ordered[rank])
            self._threshold_memo = (version, threshold)
        return threshold


@dataclass
class AntiEntropyReport:
    """Outcome of one :meth:`ReplicatedKVStore.anti_entropy` pass."""

    keys_checked: int = 0
    divergent: List[Tuple[str, int, str]] = field(default_factory=list)  # (key, replica, kind)
    repaired: int = 0
    unrepairable: int = 0

    def describe(self) -> str:
        return (
            f"anti-entropy: {self.keys_checked} keys checked, "
            f"{len(self.divergent)} divergent copies, "
            f"{self.repaired} repaired, {self.unrepairable} unrepairable"
        )


# Sentinels for anti-entropy observations that are not checksums.
_MISSING = "missing"
_CORRUPT = "corrupt"
_UNREACHABLE = "unreachable"


class ReplicatedKVStore(KVStore):
    """Fan a keyspace over N replicas with failover, hedging, and repair.

    Writes fan out to every owner of the key (the top
    ``replication_factor`` replicas by rendezvous rank) and record a
    CRC32 ledger entry; a write that lands on at least one owner
    succeeds, and anti-entropy later heals the stragglers. Reads walk
    the preference list: dead replicas are skipped, errors fail over to
    the next owner, corrupt bytes quarantine the replica, and an
    exhausted list raises :class:`AllReplicasFailedError` (or
    ``KeyError`` when every live owner simply lacks the key).

    ``clock`` is any monotonic callable;
    inject a :class:`~repro.reliability.faults.ManualClock` for
    deterministic chaos tests (with the default, unhedged config).
    """

    def __init__(
        self,
        replicas: Sequence[KVStore],
        config: Optional[ReplicatedConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        replicas = list(replicas)
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas: List[KVStore] = replicas
        self.config = config or ReplicatedConfig()
        self.seed = int(seed)
        self.replication_factor = min(self.config.replication_factor, len(replicas))
        self._clock = clock
        self.health = [ReplicaHealth(i, clock, self.config) for i in range(len(replicas))]
        self._crc: Dict[str, int] = {}  # ledger: key -> crc32 recorded at put
        self._owners_cache: Dict[str, Tuple[int, ...]] = {}
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        # counters (the only copy: an attached registry reads them when scraped)
        self.hedged_reads = 0  # backup reads fired (concurrent_hedge only)
        self.failovers = 0  # reads served by a non-primary owner
        self.corrupt_reads = 0  # checksum failures absorbed by quarantine
        self.repairs = 0  # divergent copies rewritten by anti-entropy
        # (replica, "error" | "corrupt") -> failed reads; a replica's
        # ReplicaHealth.reads_error also counts its failed writes.
        self.read_failures: Counter = Counter()
        self._reads_total = None
        self._read_seconds = None
        if registry is not None:
            self.instrument(registry)

    @property
    def hedge_overruns(self) -> int:
        """Read-only alias of :attr:`hedged_reads` (a backup fires exactly
        when a primary overruns its threshold). Its one reader is the
        performance ledger's ``storage.hedge_overruns`` counter in
        ``benchmarks/ledger/workloads.py``; it goes when that does."""
        return self.hedged_reads

    # -- wiring ---------------------------------------------------------
    def instrument(self, registry: MetricsRegistry) -> "ReplicatedKVStore":
        """Let ``registry`` read the health/hedging/repair tallies, time
        reads into the shared ``kv_reads_total`` / ``kv_read_seconds``
        family under ``store="replicated"``, and propagate
        ``instrument`` down into every replica. Returns self for
        chaining."""
        self._reads_total, self._read_seconds = kv_read_metrics(registry)
        registry.collect(self._collect)
        for replica in self.replicas:
            propagate_instrument(replica, registry)
        return self

    def _collect(self):
        with self._lock:  # one critical section: what describe() would print now
            return list(self._samples())

    def _samples(self):
        help = "Backup reads fired by the hedging policy."
        yield "counter", "kv_hedged_reads_total", help, {}, self.hedged_reads
        help = "Reads served by a non-primary replica."
        yield "counter", "kv_failovers_total", help, {}, self.failovers
        help = "Divergent copies rewritten by anti-entropy."
        yield "counter", "kv_anti_entropy_repairs_total", help, {}, self.repairs
        reads = "kv_replica_reads_total", "Replica read outcomes (ok/error/corrupt)."
        corrupt = "kv_corrupt_reads_total", "Checksum-failed reads absorbed by quarantine."
        yield ("counter", *corrupt, {"replica": ""}, None)
        for (index, outcome), count in sorted(self.read_failures.items()):
            yield ("counter", *reads, {"replica": str(index), "outcome": outcome}, count)
            if outcome == "corrupt":
                yield ("counter", *corrupt, {"replica": str(index)}, count)
        for health in self.health:
            replica = {"replica": str(health.index)}
            yield ("counter", *reads, {**replica, "outcome": "ok"}, health.reads_ok)
            help = "One-hot replica health state."
            for state in (HEALTHY, SUSPECT, DEAD, PROBING):
                labels = {**replica, "state": state}
                yield "gauge", "kv_replica_state", help, labels, int(state == health.state)
            help = "EWMA of observed read latency per replica."
            ewma = health.ewma_latency_s or 0.0
            yield "gauge", "kv_replica_ewma_latency_seconds", help, replica, ewma
            help = "Consecutive errors per replica (resets on success)."
            yield "gauge", "kv_replica_consecutive_errors", help, replica, health.consecutive_errors
            help = "Per-replica health snapshot (state and last error as labels)."
            last_error = (health.last_error or "")[:120]
            labels = {**replica, "state": health.state, "last_error": last_error}
            yield "gauge", "kv_replica_info", help, labels, 1

    # -- placement ------------------------------------------------------
    def owners(self, key: str) -> Tuple[int, ...]:
        """The ``replication_factor`` replicas that own ``key``, most
        preferred first."""
        cached = self._owners_cache.get(key)
        if cached is None:
            order = rendezvous_order(
                zlib.crc32(key.encode("utf-8")), range(len(self.replicas)), self.seed
            )
            cached = tuple(order[: self.replication_factor])
            self._owners_cache[key] = cached
        return cached

    # -- write path -----------------------------------------------------
    def put(self, key: str, value: bytes) -> None:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        value = bytes(value)
        owners = self.owners(key)
        succeeded = 0
        last_error: Optional[BaseException] = None
        for index in owners:
            try:
                self.replicas[index].put(key, value)
            except Exception as error:
                last_error = error
                with self._lock:
                    self.health[index].record_failure(repr(error))
            else:
                succeeded += 1
        if succeeded == 0:
            raise AllReplicasFailedError(
                f"write of {key!r} failed on all {len(owners)} owners"
            ) from last_error
        self._crc[key] = zlib.crc32(value)

    # -- read path ------------------------------------------------------
    def get(self, key: str) -> bytes:
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[str]) -> List[bytes]:
        """The tier's one read: what reading the keys one at a time
        (:func:`repro.check.reference.per_key_get`) returns or raises,
        the replicas seeing the same ``contains`` / ``get`` calls in the
        same order, for one gate evaluation, one health update and one
        read-latency observation per run of keys instead of per key.

        Hoisted out of the loop: which replicas are dead, read once
        under the lock and again only after a key that left the fast
        path. Kept per key: the preference list, the ``contains`` probe,
        the read and its CRC check against the ledger. While the primary
        owner answers, successes are tallied locally and folded into
        :class:`ReplicaHealth` in one critical section: ``reads_ok``
        grows by the count, and the replica gets ONE latency observation
        — the mean of those reads — into its EWMA and its reservoir. A
        key with a dead owner, or whose primary lacks it, raises or
        fails its CRC, first folds the tallies in (so successes and
        failures reach the state machine in read order), then is
        finished by the per-key accounting and failover without
        re-reading the primary. So ``reads_ok``, ``reads_error``,
        ``consecutive_errors``, ``state_path()``, ``failovers``,
        ``corrupt_reads`` and ``read_failures`` end where the per-key
        walk would leave them; only the EWMA and reservoir contents
        differ. With ``concurrent_hedge`` every key is its own race.
        """
        if self._read_seconds is None:
            return self._get_many(keys)
        started = self._clock()
        try:
            return self._get_many(keys)
        finally:
            self._read_seconds.observe(self._clock() - started, store="replicated")
            self._reads_total.inc(len(keys), store="replicated")

    def _get_many(self, keys: Sequence[str]) -> List[bytes]:
        hedging = self.config.concurrent_hedge  # every key its own race
        owners_of, clock = self._owners_cache, self._clock
        reads = [0] * len(self.replicas)  # primary successes not yet in ReplicaHealth,
        busy = [0.0] * len(self.replicas)  # and the seconds they took
        values: List[bytes] = []
        dead = None  # the gate: which replicas to skip; None = stale
        mark = clock()
        try:
            for key in keys:
                if dead is None:
                    dead = self._dead_replicas()
                owners = owners_of.get(key) or self.owners(key)
                if hedging or (dead and not dead.isdisjoint(owners)):
                    self._fold(reads, busy)
                    values.append(self._gated_get(key))
                else:
                    index = owners[0]
                    try:
                        present = self.replicas[index].contains(key)
                    except Exception:
                        present = True  # let the real read produce the real error
                    failure: Optional[Exception] = None
                    try:
                        if not present:
                            raise _ReplicaMiss(key)
                        values.append(self._verified_read(index, key))
                    except Exception as error:
                        failure = error
                    if failure is None:
                        now = clock()
                        busy[index] += now - mark
                        reads[index] += 1
                        mark = now
                        continue
                    self._fold(reads, busy)
                    values.append(self._failed_over(key, owners, failure))
                # The key left the fast path: a replica's state may have moved.
                dead = None
                mark = clock()
        finally:
            self._fold(reads, busy)
        return values

    def _dead_replicas(self) -> set:
        """The replicas a read must not take for granted, as of now —
        what :meth:`_gated_get` looks for per key, taken once for a run
        of keys. None dead means every owner is a candidate."""
        with self._lock:
            return {health.index for health in self.health if health.state == DEAD}

    def _fold(self, reads: List[int], busy: List[float]) -> None:
        """Move a run's primary successes into :class:`ReplicaHealth`
        (and zero the tallies): one critical section, one latency
        observation per replica — the mean of its reads."""
        if not any(reads):
            return
        with self._lock:
            for index, count in enumerate(reads):
                if count:
                    self.health[index].record_success(busy[index] / count, reads=count)
                    reads[index], busy[index] = 0, 0.0

    def _failed_over(self, key: str, owners: Sequence[int], error: Exception) -> bytes:
        """Finish a read whose primary owner already answered with
        ``error``: charge it to that replica (a miss costs nothing),
        then walk the rest of the preference list — the primary is not
        read again."""
        if isinstance(error, _ReplicaMiss):
            return self._sequential_get(key, owners, start=1)
        self._read_failed(owners[0], error)
        return self._sequential_get(key, owners, start=1, last_error=error)

    def _gated_get(self, key: str) -> bytes:
        """Read one key that left the fast path: its live owners in
        preference order, raced when hedging is on, else walked."""
        owners = self.owners(key)
        health = self.health
        now = self._clock()
        with self._lock:
            candidates: Sequence[int] = owners
            for index in owners:
                if health[index].state == DEAD:
                    # Only a dead owner can be unavailable (or due its
                    # dead -> probing move); otherwise every owner is a
                    # candidate and the cached tuple serves as is.
                    candidates = [i for i in owners if health[i].available(now)]
                    break
            threshold = (
                health[candidates[0]].hedge_threshold()
                if self.config.concurrent_hedge and len(candidates) > 1
                else None
            )
        if not candidates:
            raise AllReplicasFailedError(
                f"no live replica holds {key!r} (owners {list(owners)} all dead)"
            )
        if threshold is not None:
            return self._hedged_get(key, candidates, threshold)
        return self._sequential_get(key, candidates)

    def _sequential_get(
        self,
        key: str,
        candidates: Sequence[int],
        start: int = 0,
        last_error: Optional[BaseException] = None,
    ) -> bytes:
        """Walk ``candidates[start:]`` until one answers. ``last_error``
        is the caller's own reads of ``candidates[:start]``: ``None``
        when each of them missed."""
        for slot in range(start, len(candidates)):
            try:
                return self._read_replica(candidates[slot], key, position=slot)
            except _ReplicaMiss:
                pass
            except Exception as error:
                last_error = error
        if last_error is None:  # every candidate lacks the key
            raise KeyError(key)
        raise AllReplicasFailedError(
            f"all {len(candidates)} candidate replicas failed reading {key!r}"
        ) from last_error

    def _hedged_get(self, key: str, candidates: Sequence[int], threshold: float) -> bytes:
        """Race the primary against a backup fired after ``threshold``."""
        executor = self._ensure_executor()
        primary_index = candidates[0]
        started = self._clock()
        primary = executor.submit(self._read_replica, primary_index, key, False)
        try:
            value = primary.result(timeout=threshold)
        except _FutureTimeout:
            pass
        except _ReplicaMiss:
            return self._sequential_get(key, candidates, start=1)
        except Exception as error:
            # Primary failed outright: plain failover over the remaining owners.
            return self._sequential_get(key, candidates, start=1, last_error=error)
        else:
            # Un-hedged fast path: the sample is uncensored, so it may
            # feed the hedge reservoir (record_sample=False above only
            # skipped the in-thread recording).
            with self._lock:
                self.health[primary_index].latencies.add(self._clock() - started)
            return value
        with self._lock:
            self.hedged_reads += 1
        backup = executor.submit(self._read_replica, candidates[1], key)
        pending = {primary, backup}
        last_error = None
        while pending:
            done, pending = _wait_futures(pending, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    return future.result()
                except _ReplicaMiss:
                    pass
                except Exception as error:  # noqa: PERF203 - tiny set
                    last_error = error
        return self._sequential_get(key, candidates, start=2, last_error=last_error)

    def _read_replica(
        self,
        index: int,
        key: str,
        record_sample: bool = True,
        position: int = 0,
    ) -> bytes:
        """One verified read of one replica, with health accounting.

        ``position`` is the replica's place in the preference walk of a
        sequential read: a non-primary (``> 0``) answer is a failover,
        tallied in the same critical section as the success. A hedged
        race leaves it 0.

        Raises :class:`_ReplicaMiss` (without penalising health) when
        the replica simply lacks the key; other failures count against
        the replica's health.
        """
        replica = self.replicas[index]
        try:
            present = replica.contains(key)
        except Exception:
            present = True  # let the real read produce the real error
        if not present:
            raise _ReplicaMiss(key)
        started = self._clock()
        try:
            value = self._verified_read(index, key)
        except Exception as error:
            self._read_failed(index, error)
            raise
        elapsed = self._clock() - started
        with self._lock:
            self.health[index].record_success(elapsed, record_sample=record_sample)
            if position:
                self.failovers += 1
        return value

    def _read_failed(self, index: int, error: Exception) -> None:
        """Charge one failed read to replica ``index``: corrupt bytes
        quarantine it, anything else counts towards suspect / dead."""
        with self._lock:
            if isinstance(error, CorruptStoreError):
                self.corrupt_reads += 1
                self.health[index].quarantine(str(error))
                self.read_failures[index, "corrupt"] += 1
            else:
                self.health[index].record_failure(repr(error))
                self.read_failures[index, "error"] += 1

    def _verified_read(self, index: int, key: str) -> bytes:
        """``key`` from replica ``index``, CRC-checked against the ledger."""
        value = self.replicas[index].get(key)
        expected = self._crc.get(key)
        if expected is not None and zlib.crc32(value) != expected:
            raise CorruptStoreError(f"replica {index}: ledger checksum mismatch for {key!r}")
        return value

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(2, len(self.replicas)),
                    thread_name_prefix="kv-hedge",
                )
            return self._executor

    # -- anti-entropy ---------------------------------------------------
    def anti_entropy(self, repair: bool = True) -> AntiEntropyReport:
        """Compare per-owner checksums and read-repair divergence.

        The ledger CRC (recorded at ``put``) is the source of truth;
        for keys written out-of-band the majority checksum arbitrates
        (a tie is unrepairable — there is no quorum to trust).
        Unreachable replicas are skipped, not repaired: failover
        already covers them, and rewriting through a faulty transport
        could spread damage. Replicas that were quarantined and then
        repaired are nudged back to probing.
        """
        report = AntiEntropyReport()
        resurrected: set = set()
        for key in self.keys():
            report.keys_checked += 1
            owners = self.owners(key)
            observed: Dict[int, object] = {}
            for index in owners:
                replica = self.replicas[index]
                try:
                    if not replica.contains(key):
                        observed[index] = _MISSING
                        continue
                    observed[index] = zlib.crc32(replica.get(key))
                except KeyError:
                    observed[index] = _MISSING
                except CorruptStoreError:
                    observed[index] = _CORRUPT
                except Exception:
                    observed[index] = _UNREACHABLE
            expected = self._crc.get(key)
            tied = False
            if expected is None:
                votes = Counter(c for c in observed.values() if isinstance(c, int))
                ranked = votes.most_common(2)
                if ranked and (len(ranked) == 1 or ranked[0][1] > ranked[1][1]):
                    expected = ranked[0][0]
                elif len(ranked) > 1:
                    tied = True  # divergent copies, no quorum to trust
            bad: List[Tuple[int, str]] = []
            for index, checksum in observed.items():
                if checksum is _UNREACHABLE:
                    continue
                if checksum is _MISSING:
                    bad.append((index, "missing"))
                elif checksum is _CORRUPT:
                    bad.append((index, "corrupt"))
                elif expected is not None and checksum != expected:
                    bad.append((index, "divergent"))
                elif tied:
                    bad.append((index, "divergent"))
            if not bad:
                continue
            report.divergent.extend((key, index, kind) for index, kind in bad)
            if not repair:
                continue
            good_value: Optional[bytes] = None
            if expected is not None:
                for index, checksum in observed.items():
                    if checksum != expected:
                        continue
                    try:
                        candidate = self.replicas[index].get(key)
                    except Exception:
                        continue
                    if zlib.crc32(candidate) == expected:
                        good_value = candidate
                        break
            if good_value is None:
                report.unrepairable += len(bad)
                continue
            for index, _kind in bad:
                try:
                    self.replicas[index].put(key, good_value)
                except Exception:
                    report.unrepairable += 1
                else:
                    report.repaired += 1
                    resurrected.add(index)
            if expected is not None and key not in self._crc:
                self._crc[key] = expected
        with self._lock:
            for index in sorted(resurrected):
                self.health[index].mark_probing("anti-entropy repair")
            self.repairs += report.repaired
        return report

    # -- KVStore surface ------------------------------------------------
    def contains(self, key: str) -> bool:
        if key in self._crc:
            return True
        for index in self.owners(key):
            try:
                if self.replicas[index].contains(key):
                    return True
            except Exception:
                continue
        return False

    def keys(self) -> List[str]:
        if self._crc:
            return list(self._crc.keys())
        merged: Dict[str, None] = {}
        for replica in self.replicas:
            try:
                for key in replica.keys():
                    merged.setdefault(key, None)
            except Exception:
                continue
        return list(merged.keys())

    def finalize(self) -> None:
        """Finalize any finalizable backing store (walking wrapper
        chains), so replicated-over-:class:`MmapKVStore` builds work
        with :class:`~repro.storage.loader.GraphStore.save`."""
        for replica in self.replicas:
            target = replica
            while target is not None:
                finalize = getattr(target, "finalize", None)
                if callable(finalize):
                    finalize()
                    break
                target = getattr(target, "store", None)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for replica in self.replicas:
            replica.close()

    # -- reporting ------------------------------------------------------
    def describe(self) -> str:
        """Human-readable health table (the ``--health`` epilogue)."""
        hedging = (
            f"hedge q={self.config.hedge_quantile:g} (concurrent)"
            if self.config.concurrent_hedge
            else "no hedging"
        )
        lines = [
            f"replicated store: {len(self.replicas)} replicas, "
            f"rf={self.replication_factor}, {hedging}",
            f"reads: hedged={self.hedged_reads} "
            f"failovers={self.failovers} corrupt={self.corrupt_reads}",
        ]
        for health in self.health:
            ewma = (
                f"{health.ewma_latency_s * 1000:.3f}ms"
                if health.ewma_latency_s is not None
                else "n/a"
            )
            lines.append(
                f"replica {health.index}: state={health.state:8s} ewma={ewma:>10s} "
                f"ok={health.reads_ok} errors={health.reads_error} "
                f"consecutive={health.consecutive_errors} "
                f"last_error={health.last_error or '-'}"
            )
            path = " -> ".join(health.state_path())
            lines.append(f"  path: {path}")
        return "\n".join(lines)
