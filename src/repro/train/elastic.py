"""Elastic self-healing distributed training (supervision layer).

The paper's detector+ trains on a 16-machine synchronous cluster
(Sec. 3.3.2) where one dead worker stalls every epoch; multi-hour runs
over billion-edge graphs cannot assume a static fleet.
:class:`ElasticTrainer` wraps the simulated DDP cluster of
:mod:`repro.train.distributed` in the supervision loop a production
deployment runs, so training survives worker death, slowdown, and
rejoin with zero manual intervention:

* **Failure detection** — a phi-accrual :class:`FailureDetector`
  (Hayashibara et al.) driven by per-worker heartbeats on an
  injectable clock. Suspicion ``phi = -log10 P(silence this long)``
  accrues continuously from each worker's own inter-heartbeat history,
  so a naturally slow worker is not declared dead by a fixed timeout.
  A slow worker (``FaultPlan.worker_slow``) is waited for: its late
  heartbeat ends the round's simulated wall-clock and feeds its phi
  history. No backup copy of its shard is run — it would compute the
  identical gradient and change only that simulated time. States are
  the four shared names of :mod:`repro.cluster`, the ones the replica
  health machine of :mod:`repro.storage.replicated` also uses:
  ``healthy → suspect → dead → probing``.
* **Eviction & re-shard** — a worker declared dead (or still silent
  when the barrier's grace period ends) is evicted, the
  graph partitions it owned are re-assigned by rendezvous hashing
  (:func:`~repro.train.distributed.rendezvous_assign` — only the
  victim's partitions move), the all-reduce group is rebuilt over the
  survivors, and the run rolls back to the last CRC-verified
  checkpoint so the retried epoch starts from known-good state.
* **Rejoin** — a previously evicted worker readmits through the
  probing state with a state catch-up from that same checkpoint; its
  first completed round confirms it back to healthy.
* **Gradient integrity** — every shard's gradient carries a CRC32
  computed at the worker; NaN/Inf values or checksum mismatches are
  quarantined, the all-reduce renormalises over the accepted shards,
  and a bounded skip budget aborts the run
  (:class:`SkipBudgetExhaustedError`, CLI exit 2) when corruption is
  no longer survivable.

Everything is deterministic on a
:class:`~repro.reliability.faults.ManualClock`: worker step latencies
are a pure function of ``(seed, worker)``, fault schedules come from a
:class:`~repro.reliability.faults.FaultPlan`, and re-sharding is a
pure function of ``(partition ids, membership, seed)`` — so the chaos
gate (``repro train --elastic --chaos``) replays bit-for-bit.
"""

from __future__ import annotations

import math
import zlib
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cluster import DEAD, HEALTHY, PROBING, SUSPECT, mix64
from ..graph.hetero import HeteroGraph
from ..graph.partition import pic_partition
from ..obs.registry import MetricsRegistry
from ..obs.trace import Tracer, timed
from ..reliability.checkpoint import (
    CheckpointError,
    CheckpointManager,
    TrainingState,
    capture_training_state,
    restore_training_state,
)
from ..reliability.faults import (
    EVICTION,
    KILL,
    QUARANTINE,
    REJOIN,
    FaultEvent,
    FaultPlan,
    ManualClock,
)
from .distributed import (
    DistributedTrainer,
    NoSurvivorsError,
    WorkerPartition,
    make_worker_partitions,
)
from .metrics import epoch_auc, evaluate_model
from .trainer import TrainConfig

__all__ = [
    "ElasticConfig",
    "ElasticEpoch",
    "ElasticResult",
    "ElasticTrainer",
    "ElasticTrainingError",
    "FailureDetector",
    "SkipBudgetExhaustedError",
]

#: Floor for the survival probability inside phi: caps suspicion at 12
#: and keeps ``-log10`` finite when ``erfc`` underflows to exactly 0.
_MIN_SURVIVAL = 1e-12

#: Simulated per-worker step latency (seconds), spread +-``STEP_JITTER``
#: deterministically by worker id; also the detector's bootstrap interval.
_BASE_STEP_S = 1.0
STEP_JITTER = 0.25
#: Rollback-and-retry bound per epoch.
MAX_RETRIES_PER_EPOCH = 3
#: Max simulated wait for suspicion of a silent worker to resolve.
_HEARTBEAT_GRACE_S = 30.0
#: Clock step while the barrier is held open on a silent worker.
_GRACE_TICK_S = 0.5


class ElasticTrainingError(RuntimeError):
    """The supervisor cannot keep the run alive (no members left, or an
    epoch kept failing after the configured number of rollbacks)."""


class SkipBudgetExhaustedError(ElasticTrainingError):
    """More gradients were quarantined than the skip budget allows.

    Renormalising away a few corrupt gradients is survivable;
    persistent corruption means the model update stream can no longer
    be trusted and the run must abort loudly (CLI exit 2) rather than
    train on whatever survives.
    """


# ----------------------------------------------------------------------
# Phi-accrual failure detection
# ----------------------------------------------------------------------
class FailureDetector:
    """Phi-accrual failure detector over per-worker heartbeats.

    Each worker's inter-heartbeat intervals feed a bounded window;
    suspicion for a silent worker is
    ``phi = -log10 P(interval > elapsed)`` under a normal model of its
    own history (std floored by ``min_std_s`` so a metronomic worker is
    not declared dead by scheduling jitter). ``phi >= suspect_phi``
    marks the worker suspect, ``phi >= dead_phi`` dead; a heartbeat
    while suspect recants the suspicion, a heartbeat while dead moves
    to probing (signs of life, but readmission needs a completed
    round — :meth:`confirm`).

    The clock is injectable: a
    :class:`~repro.reliability.faults.ManualClock` makes every
    transition deterministic for tests, ``time.monotonic`` gives real
    wall-clock detection in live runs.
    """

    def __init__(
        self,
        workers: Sequence[int],
        clock: Callable[[], float],
        suspect_phi: float = 1.0,
        dead_phi: float = 4.0,
        window: int = 64,
        min_std_s: float = 0.25,
        bootstrap_interval_s: float = 1.0,
    ) -> None:
        if not 0 < suspect_phi <= dead_phi:
            raise ValueError("need 0 < suspect_phi <= dead_phi")
        if window < 2:
            raise ValueError("window must be >= 2")
        if min_std_s <= 0 or bootstrap_interval_s <= 0:
            raise ValueError("min_std_s and bootstrap_interval_s must be positive")
        self.clock = clock
        self.suspect_phi = suspect_phi
        self.dead_phi = dead_phi
        self.window = window
        self.min_std_s = min_std_s
        self.bootstrap_interval_s = bootstrap_interval_s
        self._intervals: Dict[int, deque] = {}
        self._last: Dict[int, float] = {}
        self._states: Dict[int, str] = {}
        self.transitions: List[Tuple[float, int, str, str]] = []  # (at, worker, from, to)
        for worker in workers:
            self.add(int(worker))

    # -- membership -----------------------------------------------------
    def add(self, worker: int, at: Optional[float] = None) -> None:
        """Start tracking ``worker`` (fresh history, healthy)."""
        at = self.clock() if at is None else float(at)
        self._intervals[worker] = deque(maxlen=self.window)
        self._last[worker] = at
        self._states[worker] = HEALTHY

    def remove(self, worker: int) -> None:
        """Stop tracking ``worker`` entirely."""
        self._intervals.pop(worker, None)
        self._last.pop(worker, None)
        self._states.pop(worker, None)

    def workers(self) -> List[int]:
        return sorted(self._states)

    def state(self, worker: int) -> str:
        return self._states[worker]

    # -- heartbeats -----------------------------------------------------
    def heartbeat(self, worker: int, at: Optional[float] = None) -> None:
        """Record one heartbeat; recants suspicion, revives the dead to
        probing (a completed round must then :meth:`confirm` them)."""
        if worker not in self._states:
            return
        at = self.clock() if at is None else float(at)
        interval = at - self._last[worker]
        if interval > 0:
            self._intervals[worker].append(interval)
        self._last[worker] = at
        if self._states[worker] == SUSPECT:
            self._transition(worker, HEALTHY, at)
        elif self._states[worker] == DEAD:
            self._transition(worker, PROBING, at)

    def phi(self, worker: int, now: Optional[float] = None) -> float:
        """Current suspicion: ``-log10 P(silence this long)``."""
        now = self.clock() if now is None else float(now)
        elapsed = now - self._last[worker]
        if elapsed <= 0:
            return 0.0
        intervals = self._intervals[worker]
        if intervals:
            mean = float(np.mean(intervals))
            std = max(float(np.std(intervals)), self.min_std_s)
        else:
            mean = self.bootstrap_interval_s
            std = max(self.bootstrap_interval_s / 2.0, self.min_std_s)
        survival = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2.0)))
        return -math.log10(max(survival, _MIN_SURVIVAL))

    def poll(self, now: Optional[float] = None) -> List[Tuple[int, str, str]]:
        """Re-evaluate suspicion for every healthy, suspect and probing
        worker.

        Returns the transitions taken as ``(worker, from, to)``. A
        probing worker is re-scored for death only: silent to
        ``dead_phi`` it is dead again, and otherwise only
        :meth:`confirm` moves it (to healthy). Dead stays dead until a
        heartbeat revives it.
        """
        now = self.clock() if now is None else float(now)
        taken: List[Tuple[int, str, str]] = []
        for worker in sorted(self._states):
            state = self._states[worker]
            if state == DEAD:
                continue
            phi = self.phi(worker, now)
            if phi >= self.dead_phi:
                taken.append((worker, state, DEAD))
                self._transition(worker, DEAD, now)
            elif state == PROBING:
                continue
            elif phi >= self.suspect_phi:
                if state == HEALTHY:
                    taken.append((worker, state, SUSPECT))
                    self._transition(worker, SUSPECT, now)
            elif state == SUSPECT:
                taken.append((worker, state, HEALTHY))
                self._transition(worker, HEALTHY, now)
        return taken

    def mark_probing(self, worker: int, at: Optional[float] = None) -> None:
        """Admit a (re)joining worker in the probing state with a fresh
        heartbeat history — its pre-eviction cadence is stale."""
        at = self.clock() if at is None else float(at)
        if worker not in self._states:
            self.add(worker, at)
        self._intervals[worker].clear()
        self._last[worker] = at
        self._transition(worker, PROBING, at)

    def confirm(self, worker: int, at: Optional[float] = None) -> None:
        """Probing worker completed a full round: healthy again."""
        if self._states.get(worker) == PROBING:
            self._transition(worker, HEALTHY, self.clock() if at is None else at)

    def _transition(self, worker: int, to_state: str, at: float) -> None:
        previous = self._states[worker]
        if previous == to_state:
            return
        self._states[worker] = to_state
        self.transitions.append((float(at), worker, previous, to_state))

    # -- persistence (elastic resume) -----------------------------------
    def state_dict(self) -> Dict:
        """JSON-safe snapshot (keys stringified for the npz manifest)."""
        return {
            "states": {str(w): s for w, s in self._states.items()},
            "last": {str(w): float(t) for w, t in self._last.items()},
            "intervals": {str(w): [float(i) for i in iv] for w, iv in self._intervals.items()},
        }

    def load_state_dict(self, state: Dict) -> None:
        self._states = {int(w): s for w, s in state["states"].items()}
        self._last = {int(w): float(t) for w, t in state["last"].items()}
        self._intervals = {
            int(w): deque((float(i) for i in iv), maxlen=self.window)
            for w, iv in state["intervals"].items()
        }


# ----------------------------------------------------------------------
# Supervisor configuration / records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ElasticConfig:
    """Operating envelope of one :class:`ElasticTrainer`."""

    num_partitions: int = 32
    skip_budget: int = 4  # quarantined gradients tolerated per run

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.skip_budget < 0:
            raise ValueError("skip_budget must be >= 0")


@dataclass
class ElasticEpoch:
    """One supervised synchronisation round (after retries resolved)."""

    epoch: int
    loss: float
    wall_seconds: float
    members: List[int] = field(default_factory=list)
    eval_auc: Optional[float] = None
    evicted: List[int] = field(default_factory=list)
    rejoined: List[int] = field(default_factory=list)
    quarantined: List[int] = field(default_factory=list)
    retries: int = 0
    events: List[FaultEvent] = field(default_factory=list)


@dataclass
class ElasticResult:
    history: List[ElasticEpoch] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def total_evictions(self) -> int:
        return sum(len(record.evicted) for record in self.history)

    @property
    def total_rejoins(self) -> int:
        return sum(len(record.rejoined) for record in self.history)

    @property
    def total_quarantined(self) -> int:
        return sum(len(record.quarantined) for record in self.history)

    @property
    def total_rollbacks(self) -> int:
        return sum(record.retries for record in self.history)

    def describe(self) -> str:
        final_members = self.history[-1].members if self.history else []
        lines = [
            f"epochs         : {len(self.history)}",
            f"final members  : {final_members}",
            f"evictions      : {self.total_evictions}",
            f"rejoins        : {self.total_rejoins}",
            f"quarantined    : {self.total_quarantined}",
            f"rollbacks      : {self.total_rollbacks}",
        ]
        return "\n".join(lines)


@dataclass
class _Shard:
    """One worker's contribution to a round, pre-all-reduce."""

    worker: int
    grads: List[np.ndarray]
    loss: float
    latency: float  # the worker's own step latency (simulated seconds)
    crc: int  # gradient checksum computed worker-side


@dataclass
class _Round:
    dead: List[int] = field(default_factory=list)
    loss: float = 0.0
    wall_seconds: float = 0.0


def _arrays_crc(arrays: Iterable[np.ndarray]) -> int:
    """One CRC32 over a sequence of arrays (a shard's gradients, or a
    snapshot's parameters in name order): each array's C-order bytes,
    read in place."""
    crc = 0
    for array in arrays:
        crc = zlib.crc32(np.ascontiguousarray(array), crc)
    return crc


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class ElasticTrainer:
    """Self-healing supervisor around the simulated DDP cluster.

    Owns the membership (worker ids), the failure detector, the
    re-shard machinery, and a rolling CRC-verified checkpoint; the
    gradient arithmetic itself is the round of a
    :class:`~repro.train.distributed.DistributedTrainer` engine —
    ``shard_gradients`` per live worker, one ``step`` over the shards
    accepted, all supervision between the two — whose worker list the
    supervisor rebuilds on every membership change.

    Requires an advanceable clock (:class:`ManualClock` by default):
    worker step latencies are *simulated* deterministically from
    ``(seed, worker id)`` so eviction and rejoin decisions
    replay exactly. Pass ``checkpoint=`` a directory or
    :class:`CheckpointManager` for durable on-disk checkpoints (and
    ``fit(resume=True)``); without one, rollback uses an in-memory
    CRC-verified snapshot only.
    """

    def __init__(
        self,
        model,
        graph: HeteroGraph,
        train_nodes: Sequence[int],
        num_workers: int,
        config: Optional[TrainConfig] = None,
        elastic: Optional[ElasticConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        clock: Optional[ManualClock] = None,
        checkpoint: Optional[Union[CheckpointManager, str]] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.model = model
        self.graph = graph
        self.train_nodes = np.asarray(train_nodes, dtype=np.int64)
        self.config = config or TrainConfig()
        self.elastic = elastic or ElasticConfig()
        self.fault_plan = fault_plan
        self.clock = clock or ManualClock()
        if not hasattr(self.clock, "advance"):
            raise TypeError("ElasticTrainer needs an advanceable (ManualClock-like) clock")
        self.tracer = tracer
        self.registry = registry
        self._manager = (
            CheckpointManager(checkpoint) if isinstance(checkpoint, str) else checkpoint
        )

        num_partitions = min(self.elastic.num_partitions, graph.num_nodes)
        if num_partitions < num_workers:
            raise ValueError(
                f"num_partitions ({num_partitions}) must be >= num_workers ({num_workers})"
            )
        self.partition_ids = pic_partition(graph, num_partitions, seed=self.config.seed)
        self.members: set = set(range(num_workers))
        self._killed: set = set()
        self._evicted: set = set()
        self.detector = FailureDetector(
            sorted(self.members), self.clock, bootstrap_interval_s=_BASE_STEP_S
        )
        # Deterministic per-worker step latency: base * (1 +- jitter).
        self._base = {
            w: _BASE_STEP_S
            * (
                1.0
                + STEP_JITTER
                * (2.0 * (mix64(self.config.seed ^ (w << 16)) / 2**64) - 1.0)
            )
            for w in range(num_workers)
        }
        self._budget_used = 0
        self.engine = DistributedTrainer(model, self._shards(), self.config)
        self._metrics_init()
        self._checkpoint_state(-1, [])  # rollback target for epoch-0 faults

    # -- metrics --------------------------------------------------------
    def _metrics_init(self) -> None:
        if self.registry is None:
            self._counters = None
            return
        self._counters = {
            "evictions": self.registry.counter(
                "elastic_evictions_total", "workers evicted by the supervisor", ("worker",)
            ),
            "rejoins": self.registry.counter(
                "elastic_rejoins_total", "workers readmitted after eviction", ("worker",)
            ),
            "quarantines": self.registry.counter(
                "elastic_quarantines_total", "gradients quarantined", ("worker", "reason")
            ),
            "rollbacks": self.registry.counter(
                "elastic_rollbacks_total", "checkpoint rollbacks taken"
            ),
        }
        self.registry.collect(self._collect)

    def _count(self, name: str, **labels: str) -> None:
        """The one pushed tally outside a timed block: four cold-path
        event counters whose ``worker`` / ``reason`` labels no record
        keeps per label value."""
        if self._counters is not None:
            self._counters[name].inc(**labels)

    def _collect(self):
        yield "gauge", "elastic_members", "live all-reduce group size", {}, len(self.members)
        help = "phi-accrual suspicion per worker"
        for worker in self.detector.workers():
            labels = {"worker": str(worker)}
            yield "gauge", "elastic_worker_suspicion", help, labels, self.detector.phi(worker)

    # -- sharding / checkpointing ---------------------------------------
    def _shards(self) -> List[WorkerPartition]:
        """Per-member shards for the current membership (HRW), in
        member-id order."""
        return make_worker_partitions(
            self.graph,
            self.train_nodes,
            members=sorted(self.members),
            partition_ids=self.partition_ids,
            seed=self.config.seed,
        )

    def _reshard(self) -> None:
        """Rebuild the engine's all-reduce group after a membership change."""
        self.engine.workers = self._shards()

    def _elastic_extras(self) -> Dict:
        return {
            "members": sorted(self.members),
            "killed": sorted(self._killed),
            "evicted": sorted(self._evicted),
            "budget_used": int(self._budget_used),
            "clock": float(self.clock()),
            "detector": self.detector.state_dict(),
        }

    @staticmethod
    def _state_crc(state: TrainingState) -> int:
        return _arrays_crc(state.model_state[name] for name in sorted(state.model_state))

    def _checkpoint_state(self, epoch: int, history: List[ElasticEpoch]) -> None:
        """Snapshot everything a rollback or resume needs, CRC-stamped.
        The history goes only into the durable copy: a resume reads it,
        a rollback does not."""
        state = capture_training_state(
            self.model,
            self.engine.optimizer,
            self.engine.rng,
            epoch,
            sections={"elastic": self._elastic_extras()},
        )
        self._last_checkpoint = (state, self._state_crc(state))
        if self._manager is not None and epoch >= 0:
            self._manager.save(replace(state, history=[asdict(record) for record in history]))

    def _verified_snapshot(self) -> TrainingState:
        """The last snapshot, its parameters re-checked against the CRC
        taken when it was stored (rollback and rejoin catch-up both
        start from known-good state or not at all)."""
        state, crc = self._last_checkpoint
        if self._state_crc(state) != crc:
            raise CheckpointError(
                f"in-memory checkpoint for epoch {state.epoch} failed its CRC"
            )
        return state

    def _rollback(self, epoch: int) -> None:
        """Restore model/optimizer/RNG from the last verified snapshot.

        Membership is *not* restored — eviction moves forward; only the
        training state rewinds to the checkpointed epoch.
        """
        state = self._verified_snapshot()
        with timed(self.tracer, "rollback", epoch=epoch, to_epoch=state.epoch):
            restore_training_state(state, self.model, self.engine.optimizer, self.engine.rng)
        self._count("rollbacks")

    # -- resume ---------------------------------------------------------
    def _restore(self, state: TrainingState, result: ElasticResult) -> int:
        """Inverse of :meth:`_checkpoint_state`; returns the next epoch.
        A checkpoint without the supervisor's section (one a plain
        ``Trainer.fit`` wrote) is refused before the model is touched.

        A checkpoint written while the supervisor still ran straggler
        backups also holds an ``ewma`` entry in its section, a
        ``backups`` column in every record and maybe ``backup`` events.
        The backup never changed a gradient, so those are dropped and
        the run resumes on the same arithmetic."""
        extras = state.section("elastic")
        if not extras:
            raise CheckpointError(
                f'the checkpoint of epoch {state.epoch} has no "elastic" section: '
                "it was not written by an elastic run"
            )
        restore_training_state(state, self.model, self.engine.optimizer, self.engine.rng)
        self.members = set(extras.get("members", sorted(self.members)))
        self._killed = set(extras.get("killed", []))
        self._evicted = set(extras.get("evicted", []))
        self._budget_used = int(extras.get("budget_used", 0))
        if "clock" in extras and hasattr(self.clock, "now"):
            self.clock.now = float(extras["clock"])
        if "detector" in extras:
            self.detector.load_state_dict(extras["detector"])
        self._reshard()
        result.history = [
            ElasticEpoch(
                **{
                    **{key: value for key, value in record.items() if key != "backups"},
                    "events": [
                        FaultEvent(**event)
                        for event in record.get("events", [])
                        if event["kind"] != "backup"
                    ],
                }
            )
            for record in state.history
        ]
        self._last_checkpoint = (state, self._state_crc(state))
        return state.epoch + 1

    # -- the supervised loop --------------------------------------------
    def fit(
        self,
        eval_graph: Optional[HeteroGraph] = None,
        eval_nodes: Optional[Sequence[int]] = None,
        resume: bool = False,
        stop_after_epoch: Optional[int] = None,
    ) -> ElasticResult:
        """Train for the configured epochs under supervision.

        ``resume=True`` restores the newest checkpoint from the
        attached manager — model, optimizer, RNG streams, membership,
        detector state, and the simulated clock — so the continued run
        is bit-identical to one that never stopped.
        ``stop_after_epoch=k`` returns right after epoch ``k`` is
        checkpointed (the kill half of a kill-and-resume test).
        """
        result = ElasticResult()
        start_epoch = 0
        if resume:
            if self._manager is None:
                raise ElasticTrainingError("resume=True needs a checkpoint manager")
            start_epoch = self._restore(self._manager.load(), result)
        for epoch in range(start_epoch, self.config.epochs):
            record = self._supervised_epoch(epoch)
            record.eval_auc = epoch_auc(self.model, eval_graph, eval_nodes)
            result.history.append(record)
            self._checkpoint_state(epoch, result.history)
            if stop_after_epoch is not None and epoch >= stop_after_epoch:
                return result
        if eval_graph is not None and eval_nodes is not None and len(eval_nodes):
            result.metrics = evaluate_model(self.model, eval_graph, eval_nodes)
        return result

    def _supervised_epoch(self, epoch: int) -> ElasticEpoch:
        plan = self.fault_plan
        record = ElasticEpoch(epoch=epoch, loss=0.0, wall_seconds=0.0)
        with timed(self.tracer, "supervise_epoch", epoch=epoch):
            # 1. Scheduled rejoins: readmit through probing + catch-up.
            for worker in plan.rejoins_at(epoch) if plan else []:
                if worker not in self._evicted:
                    continue
                self._readmit(epoch, worker, record)
            if record.rejoined:
                with timed(self.tracer, "reshard", epoch=epoch, reason="rejoin"):
                    self._reshard()
            # 2. Scheduled kills: heartbeats stop as of this round.
            for worker in plan.kills_at(epoch) if plan else []:
                if worker in self.members and worker not in self._killed:
                    self._killed.add(worker)
                    record.events.append(
                        FaultEvent(epoch, worker, KILL, "worker died; heartbeats stopped")
                    )
            # 3. Attempt the round; evict + re-shard + roll back + retry
            #    until it completes or the retry bound trips.
            while True:
                try:
                    outcome = self._attempt_round(epoch, record)
                except NoSurvivorsError:
                    if record.retries >= MAX_RETRIES_PER_EPOCH:
                        raise ElasticTrainingError(
                            f"epoch {epoch}: no usable gradients after "
                            f"{record.retries} retries"
                        )
                    self._rollback(epoch)
                    record.retries += 1
                    continue
                if outcome.dead:
                    for worker in outcome.dead:
                        self._evict(epoch, worker, record)
                    if not self.members - self._killed:
                        raise ElasticTrainingError(
                            f"epoch {epoch}: every worker is dead or dying"
                        )
                    with timed(self.tracer, "reshard", epoch=epoch, reason="eviction"):
                        self._reshard()
                    self._rollback(epoch)
                    record.retries += 1
                    if record.retries > MAX_RETRIES_PER_EPOCH:
                        raise ElasticTrainingError(
                            f"epoch {epoch}: still failing after {record.retries} rollbacks"
                        )
                    continue
                break
            record.loss = outcome.loss
            record.wall_seconds = outcome.wall_seconds
            record.members = sorted(self.members)
        return record

    def _readmit(self, epoch: int, worker: int, record: ElasticEpoch) -> None:
        """Eviction's inverse: probing state + checkpoint catch-up."""
        with timed(self.tracer, "readmit", epoch=epoch, worker=worker):
            # Catch-up payload: the rejoining worker receives the last
            # CRC-verified state rather than its stale pre-eviction copy.
            state = self._verified_snapshot()
            self.detector.mark_probing(worker)
        self._evicted.discard(worker)
        self._killed.discard(worker)
        self.members.add(worker)
        record.rejoined.append(worker)
        record.events.append(
            FaultEvent(
                epoch, worker, REJOIN, f"readmitted probing, caught up from epoch {state.epoch}"
            )
        )
        self._count("rejoins", worker=str(worker))

    def _evict(self, epoch: int, worker: int, record: ElasticEpoch) -> None:
        with timed(self.tracer, "evict", epoch=epoch, worker=worker):
            self.members.discard(worker)
            self._killed.discard(worker)
            self._evicted.add(worker)
        record.evicted.append(worker)
        declared = self.detector.state(worker) == DEAD
        detail = (
            "declared dead by phi-accrual detector"
            if declared
            else f"silent through the {_HEARTBEAT_GRACE_S:g}s grace period"
        )
        record.events.append(FaultEvent(epoch, worker, EVICTION, detail))
        self._count("evictions", worker=str(worker))

    def _attempt_round(self, epoch: int, record: ElasticEpoch) -> _Round:
        """One all-reduce attempt over the current membership."""
        slow = self.fault_plan.slow_at(epoch) if self.fault_plan else {}
        corrupt = self.fault_plan.corrupt_at(epoch) if self.fault_plan else {}
        round_start = self.clock()

        # Live workers compute their shard gradient; latency simulated.
        shards: List[_Shard] = []
        for partition in self.engine.workers:
            worker = partition.worker_id
            if worker in self._killed:
                continue
            grads, loss, _ = self.engine.shard_gradients(partition)
            latency = self._base[worker] * slow.get(worker, 1.0)
            shards.append(_Shard(worker, grads, loss, latency, _arrays_crc(grads)))

        # Advance the simulated round; deliver heartbeats at completion.
        wall = max((shard.latency for shard in shards), default=_GRACE_TICK_S)
        self.clock.advance(wall)
        for shard in sorted(shards, key=lambda s: (s.latency, s.worker)):
            self.detector.heartbeat(shard.worker, at=round_start + shard.latency)
        self.detector.poll()

        # Workers the all-reduce never heard from: hold the barrier open
        # (live workers keep heartbeating) until suspicion resolves.
        missing = sorted((self.members & self._killed))
        waited = 0.0
        while (
            missing
            and any(self.detector.state(w) != DEAD for w in missing)
            and waited < _HEARTBEAT_GRACE_S
        ):
            self.clock.advance(_GRACE_TICK_S)
            waited += _GRACE_TICK_S
            for shard in shards:
                self.detector.heartbeat(shard.worker)
            self.detector.poll()
        # Whoever is still missing is evicted — declared dead by the
        # detector (a worker killed while probing included) or, failing
        # that, silent through the whole grace period. The round is
        # never taken without a member's shard.
        if missing:
            return _Round(dead=missing)

        # A probing (rejoined) worker that completed the round is back.
        for shard in shards:
            if self.detector.state(shard.worker) == PROBING:
                self.detector.confirm(shard.worker)

        # All-reduce renormalised over the accepted shards; with every
        # shard quarantined the engine raises NoSurvivorsError.
        accepted = self._integrity_check(epoch, shards, corrupt, record)
        self.engine.step([shard.grads for shard in accepted])
        return _Round(
            loss=float(np.mean([shard.loss for shard in accepted])),
            wall_seconds=float(wall + waited),
        )

    def _integrity_check(
        self,
        epoch: int,
        shards: List[_Shard],
        corrupt: Dict[int, str],
        record: ElasticEpoch,
    ) -> List[_Shard]:
        """Quarantine NaN/Inf and checksum-failing gradients (budgeted)."""
        accepted: List[_Shard] = []
        for shard in shards:
            mode = corrupt.get(shard.worker)
            if mode is not None:
                self._inject_corruption(epoch, shard, mode)
            reason = None
            if not all(np.isfinite(grad).all() for grad in shard.grads):
                reason = "nan"
            elif _arrays_crc(shard.grads) != shard.crc:
                reason = "checksum"
            if reason is None:
                accepted.append(shard)
                continue
            with timed(
                self.tracer, "quarantine", epoch=epoch, worker=shard.worker, reason=reason
            ):
                record.quarantined.append(shard.worker)
                record.events.append(
                    FaultEvent(
                        epoch, shard.worker, QUARANTINE, f"gradient quarantined ({reason})"
                    )
                )
            self._count("quarantines", worker=str(shard.worker), reason=reason)
            self._budget_used += 1
            if self._budget_used > self.elastic.skip_budget:
                raise SkipBudgetExhaustedError(
                    f"epoch {epoch}: {self._budget_used} gradients quarantined, "
                    f"budget is {self.elastic.skip_budget}"
                )
        return accepted

    def _inject_corruption(self, epoch: int, shard: _Shard, mode: str) -> None:
        """Scripted in-flight corruption, *after* the worker-side CRC."""
        target = next((g for g in shard.grads if g.size), None)
        if target is None:
            return
        slot = mix64((epoch << 20) ^ (shard.worker << 4) ^ self.config.seed)
        if mode == "nan":
            target.flat[slot % target.size] = np.nan
        else:  # bitflip: flip one byte so only the checksum notices
            view = target.view(np.uint8).reshape(-1)
            view[slot % view.size] ^= 0xFF
