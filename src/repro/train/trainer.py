"""Single-machine trainer (paper hyperparameters: AdamW, clip 0.25,
early-stopping patience).

Trains any model exposing ``loss(graph, targets)`` and
``predict_proba(graph, targets)`` — the detector, detector+, GAT, GEM
and the MLP all do. Mini-batched over labeled target nodes; a step's
forward and backward run on the batch's receptive field, not on the
(partitioned) graph it is handed — ``model.loss`` cuts it out
(:mod:`repro.models.field`) and gets the whole graph's loss, gradients
and dropout masks, so a step costs what the batch can see. Evaluation
(``predict_proba``) is handed the graph as is; the detector's lays it
out by distance to the batch and computes, layer by layer, only the
rows the next layer reads, the baselines' convolve all of it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .. import nn
from ..graph.hetero import HeteroGraph
from ..util import batched, release_free_memory
from ..obs.trace import Tracer, timed
from ..reliability.checkpoint import (
    CheckpointManager,
    TrainingState,
    capture_training_state,
    load_training_state,
    restore_training_state,
)
from .metrics import epoch_auc, evaluate_model, latency_percentiles


@dataclass
class TrainConfig:
    """Training hyperparameters (Appendix C, scaled)."""

    epochs: int = 16
    batch_size: int = 256
    learning_rate: float = 1e-2
    weight_decay: float = 1e-4
    clip_norm: float = 0.25
    patience: int = 32
    seed: int = 0  # also seeds the per-epoch shuffle of the training nodes

    def __post_init__(self) -> None:
        # clip_grad_norm would scale by a negative factor: gradient ascent.
        if not self.clip_norm >= 0:
            raise ValueError(f"clip_norm must be >= 0, got {self.clip_norm}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # A NaN decay turns every weight NaN in one step.
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        # patience=0 stops before the first epoch whenever eval nodes are given.
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    seconds: float
    eval_auc: Optional[float] = None


@dataclass
class TrainResult:
    """Per-epoch history plus final evaluation scores."""

    history: List[EpochRecord] = field(default_factory=list)
    best_auc: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds_per_epoch(self) -> float:
        if not self.history:
            return 0.0
        return float(np.mean([record.seconds for record in self.history]))

    def epoch_time_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of per-epoch wall time (tail, not just the mean)."""
        return latency_percentiles([record.seconds for record in self.history])


class Trainer:
    """Gradient-descent training loop with early stopping.

    ``tracer`` (optional :class:`~repro.obs.trace.Tracer`) records one
    ``fit`` span with per-``epoch`` (and per-``evaluate``) children —
    the trace behind ``repro train --trace-out``.
    """

    def __init__(
        self,
        model,
        config: Optional[TrainConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.tracer = tracer
        self.optimizer = nn.AdamW(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.rng = np.random.default_rng(self.config.seed)  # shuffle stream

    def train_epoch(self, graph: HeteroGraph, train_nodes: Sequence[int]) -> float:
        """One pass over the labeled training nodes; returns mean loss."""
        self.model.train()
        nodes = self.rng.permutation(np.asarray(train_nodes, dtype=np.int64))
        losses: List[float] = []
        for batch in batched(nodes, self.config.batch_size):
            self.optimizer.zero_grad()
            loss = self.model.loss(graph, batch)
            loss.backward()
            nn.clip_grad_norm(self.model.parameters(), self.config.clip_norm)
            self.optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses)) if losses else 0.0

    # -- checkpoint plumbing -------------------------------------------
    def _capture_state(
        self,
        epoch: int,
        result: TrainResult,
        best_state: Optional[Dict[str, np.ndarray]],
        epochs_since_best: int,
    ) -> TrainingState:
        """Snapshot everything the run needs to continue bit-exactly."""
        return capture_training_state(
            self.model,
            self.optimizer,
            self.rng,
            epoch,
            best_state=best_state,
            best_auc=result.best_auc,
            epochs_since_best=epochs_since_best,
            history=[asdict(record) for record in result.history],
        )

    def _restore_state(self, state: TrainingState, result: TrainResult) -> tuple:
        """Inverse of :meth:`_capture_state`; returns resume bookkeeping."""
        restore_training_state(state, self.model, self.optimizer, self.rng)
        result.best_auc = state.best_auc
        result.history = [EpochRecord(**record) for record in state.history]
        return state.epoch + 1, state.best_state, state.epochs_since_best

    def fit(
        self,
        graph: HeteroGraph,
        train_nodes: Sequence[int],
        eval_nodes: Optional[Sequence[int]] = None,
        checkpoint: Optional[Union[CheckpointManager, str]] = None,
        resume_from: Optional[Union[TrainingState, CheckpointManager, str]] = None,
    ) -> TrainResult:
        """Train with optional per-epoch evaluation and early stopping.

        ``checkpoint`` (a :class:`CheckpointManager` or a directory
        path) writes a crash-safe checkpoint after every epoch.
        ``resume_from`` (a checkpoint file, directory, manager, or
        :class:`TrainingState`) restores a previous run — model,
        optimizer moments, RNG streams, and early-stopping counters —
        so the resumed run is bit-identical to an uninterrupted one.
        """
        manager = CheckpointManager(checkpoint) if isinstance(checkpoint, str) else checkpoint
        result = TrainResult()
        best_state = None
        epochs_since_best = 0
        start_epoch = 0
        if resume_from is not None:
            start_epoch, best_state, epochs_since_best = self._restore_state(
                load_training_state(resume_from), result
            )
        with timed(self.tracer, "fit", epochs=self.config.epochs):
            for epoch in range(start_epoch, self.config.epochs):
                # Early stopping is checked at the top of the iteration so a
                # resumed run makes the identical decision an uninterrupted
                # run made after the checkpointed epoch.
                if eval_nodes is not None and epochs_since_best >= self.config.patience:
                    break
                with timed(self.tracer, "epoch", epoch=epoch) as timer:
                    loss = self.train_epoch(graph, train_nodes)
                record = EpochRecord(epoch=epoch, loss=loss, seconds=timer.seconds)

                if eval_nodes is not None and len(eval_nodes):
                    with timed(self.tracer, "evaluate", epoch=epoch):
                        record.eval_auc = epoch_auc(self.model, graph, eval_nodes)
                    if record.eval_auc is not None and record.eval_auc > result.best_auc:
                        result.best_auc = record.eval_auc
                        best_state = self.model.state_dict()
                        epochs_since_best = 0
                    else:
                        epochs_since_best += 1
                result.history.append(record)
                if manager is not None:
                    manager.save(
                        self._capture_state(epoch, result, best_state, epochs_since_best)
                    )
        if best_state is not None:
            self.model.load_state_dict(best_state)
        # Whatever runs next in this process (a scoring service, a stream
        # scorer) should start from the live data, not the tape's heap.
        release_free_memory()
        return result

    def evaluate(self, graph: HeteroGraph, nodes: Sequence[int]) -> Dict[str, float]:
        """Accuracy / AP / AUC on held-out labeled nodes (Table 7 row)."""
        return evaluate_model(self.model, graph, nodes)


def measure_inference_time(
    model,
    graph: HeteroGraph,
    nodes: Sequence[int],
    batch_size: int = 640,
    sampled: bool = False,
) -> Dict[str, float]:
    """Per-batch inference timing (Table 3's inference column).

    ``predict_proba`` is handed the whole of ``graph`` for every batch:
    the detector computes, per layer, the rows within that layer's
    reach of the batch and no others; GAT and GEM convolve all of it.
    When ``sampled`` is true and the model has a ``sampler``
    (``predict_proba_sampled``), the production path — capped
    neighbourhood sampling, then scoring the sample — is measured
    instead.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    times: List[float] = []
    for batch in batched(nodes, batch_size):
        with timed(name="inference_batch") as timer:
            if sampled and hasattr(model, "sampler"):
                model.predict_proba_sampled(graph, batch)
            else:
                model.predict_proba(graph, batch)
        times.append(timer.seconds)
    summary = {
        "mean_s_per_batch": float(np.mean(times)),
        "std_s_per_batch": float(np.std(times)),
        "total_s": float(np.sum(times)),
        "batches": len(times),
    }
    summary.update(latency_percentiles(times))
    return summary
