"""Simulated distributed data-parallel training (Sec. 3.3).

The paper's distributed xFraud detector+ partitions the graph with PIC
into 128 subgraphs, groups them into κ balanced worker groups, and
trains one model replica per worker with DDP gradient averaging. This
module reproduces that architecture inside one process:

* :func:`make_worker_partitions` — PIC partitioning + footnote-3
  grouping; each worker receives the subgraph induced on its group, so
  its field of neighbours is **restrained** exactly as on a real
  cluster (the cause of the paper's 16-machine AUC drop);
* :class:`DistributedTrainer` — per epoch, every worker runs
  forward/backward on its own partition, gradients are averaged
  following the DDP protocol, and the single set of parameters is
  updated (replicas therefore stay identical). Simulated wall-clock
  per epoch is the **maximum** over worker compute times, which is
  what a synchronous cluster would observe.

The engine is fault-free by construction: it knows nothing of dead,
slow or lying workers. Those are decisions of the supervisor
(:class:`~repro.train.elastic.ElasticTrainer`), which drives a round
through the same two calls :meth:`~DistributedTrainer.train_epoch` is
made of — :meth:`~DistributedTrainer.shard_gradients` per live worker,
then one :meth:`~DistributedTrainer.step` over the shards it accepts.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..cluster import rendezvous_order
from ..graph.hetero import HeteroGraph
from ..graph.partition import group_partitions, pic_partition
from ..util import batched
from ..obs.trace import Tracer, timed
from .metrics import epoch_auc, evaluate_model
from .trainer import TrainConfig


class NoSurvivorsError(RuntimeError):
    """No shard reached the all-reduce of a synchronisation round.

    A synchronous all-reduce with zero contributors has no gradient to
    apply and no survivor set to renormalise over — silently skipping
    the step would hide a total outage from the caller. The elastic
    supervisor (:class:`~repro.train.elastic.ElasticTrainer`) catches
    this and rolls back to the last verified checkpoint instead.
    """


@dataclass
class WorkerPartition:
    """One worker's shard: induced subgraph + local labeled nodes."""

    worker_id: int
    graph: HeteroGraph
    original_ids: np.ndarray
    train_local: np.ndarray

    @property
    def num_train(self) -> int:
        return len(self.train_local)


def rendezvous_assign(
    partition_ids: np.ndarray, members: Sequence[int], seed: int = 0
) -> Dict[int, List[int]]:
    """HRW-assign graph partitions to worker *ids*: member -> partitions.

    Each partition goes to the member ranked first by
    :func:`repro.cluster.rendezvous_order` — the ranking
    :mod:`repro.storage.replicated` uses for replica placement. Because
    the weight hashes the member's *id* (not its position in the
    membership list), evicting a worker reassigns only the partitions
    it owned; every other partition keeps its owner. Ties break to the
    lowest member id.
    """
    members = sorted({int(m) for m in members})
    if not members:
        raise ValueError("need at least one member")
    assignment: Dict[int, List[int]] = {member: [] for member in members}
    for part in np.unique(np.asarray(partition_ids, dtype=np.int64)):
        part_hash = zlib.crc32(f"part-{int(part)}".encode("utf-8"))
        assignment[rendezvous_order(part_hash, members, seed)[0]].append(int(part))
    return assignment


def make_worker_partitions(
    graph: HeteroGraph,
    train_nodes: Sequence[int],
    num_workers: Optional[int] = None,
    num_partitions: int = 128,
    seed: int = 0,
    members: Optional[Sequence[int]] = None,
    partition_ids: Optional[np.ndarray] = None,
) -> List[WorkerPartition]:
    """PIC partition → placement → per-worker induced subgraphs.

    Two placement modes share the PIC partitioning front end:

    * default (``members=None``) — the paper's footnote-3 grouping:
      partitions sorted by size fill ``num_workers`` balanced groups;
      worker ids are ``0..num_workers-1``;
    * rebalance-aware (``members=[ids]``) — each partition is owned by
      the rendezvous-hash winner among the given member ids
      (:func:`rendezvous_assign`), so the elastic supervisor can evict
      or readmit a worker and re-shard *deterministically*, moving only
      the partitions the membership change actually touches. A member
      that wins no partition receives an empty shard.

    ``partition_ids`` short-circuits the PIC step with a precomputed
    assignment (the supervisor computes it once and re-shards cheaply).
    """
    train_nodes = np.asarray(train_nodes, dtype=np.int64)
    if partition_ids is None:
        num_partitions = min(num_partitions, graph.num_nodes)
        partition_ids = pic_partition(graph, num_partitions, seed=seed)
    else:
        partition_ids = np.asarray(partition_ids, dtype=np.int64)

    train_mask = np.zeros(graph.num_nodes, dtype=bool)
    train_mask[train_nodes] = True

    if members is None:
        if num_workers is None:
            raise ValueError("need num_workers (or members=)")
        groups = list(enumerate(group_partitions(partition_ids, num_workers)))
    else:
        assignment = rendezvous_assign(partition_ids, members, seed=seed)
        groups = [
            (member, np.flatnonzero(np.isin(partition_ids, parts)))
            for member, parts in assignment.items()
        ]

    workers: List[WorkerPartition] = []
    for worker_id, nodes in groups:
        subgraph, original_ids = graph.subgraph(nodes)
        local_train = np.flatnonzero(train_mask[original_ids])
        workers.append(
            WorkerPartition(
                worker_id=worker_id,
                graph=subgraph,
                original_ids=original_ids,
                train_local=local_train,
            )
        )
    return workers


@dataclass
class DistributedEpoch:
    epoch: int
    loss: float
    wall_seconds: float
    sum_worker_seconds: float
    eval_auc: Optional[float] = None


@dataclass
class DistributedResult:
    history: List[DistributedEpoch] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds_per_epoch(self) -> float:
        """Simulated synchronous wall-clock: mean over epochs of the
        slowest worker's time."""
        if not self.history:
            return 0.0
        return float(np.mean([e.wall_seconds for e in self.history]))

    def convergence_curve(self) -> List[Optional[float]]:
        """Per-epoch eval AUC (Figure 14)."""
        return [e.eval_auc for e in self.history]


class DistributedTrainer:
    """DDP-style synchronous training over simulated workers.

    The fault-free engine of Sec. 3.3: every worker contributes every
    round. A worker that dies, straggles or corrupts its gradient is
    the supervisor's business, not a mode of this class.
    """

    def __init__(
        self,
        model,
        workers: List[WorkerPartition],
        config: Optional[TrainConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker partition")
        self.model = model
        self.workers = workers
        self.config = config or TrainConfig()
        self.tracer = tracer
        self.optimizer = nn.AdamW(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.rng = np.random.default_rng(self.config.seed)  # shuffle stream

    # ------------------------------------------------------------------
    def shard_gradients(self, worker: WorkerPartition) -> tuple:
        """Forward/backward on one worker; returns (grads, loss, secs).

        Runs over the worker's local labeled nodes in mini-batches and
        returns the mean gradient, matching what a DDP worker
        contributes per synchronisation round when accumulating.
        """
        self.model.train()
        with timed(self.tracer, "worker", worker=worker.worker_id) as timer:
            accumulated = [np.zeros_like(p.data) for p in self.model.parameters()]
            losses: List[float] = []
            if worker.num_train:
                nodes = self.rng.permutation(worker.train_local)
                for batch in batched(nodes, self.config.batch_size):
                    self.model.zero_grad()
                    loss = self.model.loss(worker.graph, batch)
                    loss.backward()
                    for slot, param in zip(accumulated, self.model.parameters()):
                        if param.grad is not None:
                            slot += param.grad * (len(batch) / len(nodes))
                    losses.append(loss.item())
        mean_loss = float(np.mean(losses)) if losses else 0.0
        return accumulated, mean_loss, timer.seconds

    def step(self, shard_grads: Sequence[List[np.ndarray]]) -> None:
        """DDP all-reduce: average the shards' gradients, then one
        clipped optimiser step so every replica stays identical.

        The mean is over the shards *given* — a supervisor that
        withholds a quarantined shard gets the renormalised update.
        """
        if not shard_grads:
            raise NoSurvivorsError("all-reduce over zero shards: no gradient to apply")
        self.model.zero_grad()
        for index, param in enumerate(self.model.parameters()):
            param.grad = sum(grads[index] for grads in shard_grads) / len(shard_grads)
        nn.clip_grad_norm(self.model.parameters(), self.config.clip_norm)
        self.optimizer.step()

    def train_epoch(self, epoch: int = 0) -> DistributedEpoch:
        """One synchronous round: every worker computes, one step."""
        shards = [self.shard_gradients(worker) for worker in self.workers]
        self.step([grads for grads, _, _ in shards])
        return DistributedEpoch(
            epoch=epoch,
            loss=float(np.mean([loss for _, loss, _ in shards])),
            wall_seconds=float(np.max([seconds for _, _, seconds in shards])),
            sum_worker_seconds=float(np.sum([seconds for _, _, seconds in shards])),
        )

    def fit(
        self,
        eval_graph: Optional[HeteroGraph] = None,
        eval_nodes: Optional[Sequence[int]] = None,
    ) -> DistributedResult:
        """Train for the configured epochs, tracking convergence."""
        result = DistributedResult()
        for epoch in range(self.config.epochs):
            record = self.train_epoch(epoch)
            record.eval_auc = epoch_auc(self.model, eval_graph, eval_nodes)
            result.history.append(record)
        if eval_graph is not None and eval_nodes is not None and len(eval_nodes):
            result.metrics = evaluate_model(self.model, eval_graph, eval_nodes)
        return result
