"""Feedback plane for the streaming scorer: delayed labels, online
evaluation, drift detection, and incremental fine-tuning.

Chargebacks — the fraud ground truth — land days after a transaction
scores (the paper trains on labels gathered long after the fact).
:class:`LabelFeed` models that lag on the stream's event-time axis;
matured labels drive three consumers:

* :class:`OnlineAUC` — prequential (test-then-train) windowed ROC AUC:
  each transaction is scored *before* its label is known, so the
  running AUC over the last ``window`` matured pairs is an unbiased
  online estimate of serving quality;
* :class:`DriftDetector` — Population Stability Index + Kolmogorov-
  Smirnov statistics of a sliding current window against a frozen
  reference window, raised as alerts through the obs registry (the
  standard PSI reading: < 0.1 stable, 0.1–0.25 drifting, > 0.25 act);
* :class:`OnlineFineTuner` — a bounded mini-epoch of
  :class:`~repro.train.trainer.Trainer` over the recent labelled
  window, checkpointed through
  :class:`~repro.reliability.checkpoint.CheckpointManager` so the
  online model lineage is crash-recoverable like the batch one.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..reliability.checkpoint import (
    CheckpointManager,
    capture_training_state,
    load_training_state,
    restore_training_state,
)
from ..train.metrics import roc_auc
from ..train.trainer import TrainConfig, Trainer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.hetero import HeteroGraph
    from ..obs.registry import MetricsRegistry


# ----------------------------------------------------------------------
# Delayed labels
# ----------------------------------------------------------------------
class LabelFeed:
    """Event-time queue of labels maturing after a chargeback delay.

    ``offer`` enqueues the ground-truth verdict at transaction time;
    ``due`` releases every verdict whose ``event_time + delay_s`` has
    passed, in a deterministic ``(available_at, offer order)`` order —
    replaying the same event log therefore matures labels identically.
    """

    def __init__(self, delay_s: float) -> None:
        if not delay_s >= 0:  # a NaN delay never matures a label
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self.delay_s = delay_s
        self._heap: List[Tuple[float, int, int, int]] = []
        self._offered = 0

    def offer(self, txn_id: int, label: int, event_time: float) -> None:
        heapq.heappush(
            self._heap, (event_time + self.delay_s, self._offered, txn_id, label)
        )
        self._offered += 1

    def due(self, now: float) -> List[Tuple[int, int]]:
        """Pop every ``(txn_id, label)`` matured by ``now``."""
        matured: List[Tuple[int, int]] = []
        while self._heap and self._heap[0][0] <= now:
            _, _, txn_id, label = heapq.heappop(self._heap)
            matured.append((txn_id, label))
        return matured

    @property
    def pending(self) -> int:
        return len(self._heap)


# ----------------------------------------------------------------------
# Prequential evaluation
# ----------------------------------------------------------------------
class OnlineAUC:
    """Windowed prequential ROC AUC over matured (label, score) pairs."""

    def __init__(self, window: int = 512) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self._pairs: Deque[Tuple[int, float]] = deque(maxlen=window)
        self.count = 0

    def add(self, label: int, score: float) -> None:
        self._pairs.append((int(label), float(score)))
        self.count += 1

    def auc(self) -> float:
        """AUC of the current window; NaN until both classes appear."""
        if not self._pairs:
            return float("nan")
        labels = [pair[0] for pair in self._pairs]
        scores = [pair[1] for pair in self._pairs]
        return float(roc_auc(labels, scores, default=float("nan")))


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------
#: PSI bins, cut at the reference window's quantiles.
PSI_BINS = 10
#: Added to every bin's count so an empty bin keeps PSI finite.
PSI_EPSILON = 1e-4


@dataclass
class DriftConfig:
    """PSI/KS drift-detector knobs."""

    window: int = 256
    min_samples: int = 64
    psi_alert: float = 0.25
    ks_alert: float = 0.25

    def __post_init__(self) -> None:
        # The current window holds at most ``window`` points, so a larger
        # ``min_samples`` would keep every check() at None forever.
        if self.min_samples > self.window:
            raise ValueError("min_samples must be <= window (checks would never run)")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1 (a check needs a current window)")


@dataclass
class DriftReport:
    """One drift check of a signal's current window vs its reference."""

    signal: str
    psi: float
    ks: float
    samples: int
    alert: bool


class DriftDetector:
    """PSI + KS drift over one scalar signal (scores, a feature, ...).

    The first ``window`` observations freeze as the *reference*
    distribution and fix the PSI bin edges (reference quantiles);
    subsequent observations fill a sliding *current* window.
    :meth:`check` compares the two and records an alert when either
    statistic crosses its threshold; a registry reads the last report's
    statistics and the alert count when it is scraped.
    """

    def __init__(
        self,
        signal: str,
        config: Optional[DriftConfig] = None,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.signal = signal
        self.config = config or DriftConfig()
        self._reference: List[float] = []
        self._edges: Optional[np.ndarray] = None
        self._ref_fractions: Optional[np.ndarray] = None
        self._ref_sorted: Optional[np.ndarray] = None
        self._current: Deque[float] = deque(maxlen=self.config.window)
        self.alerts: List[DriftReport] = []
        self.last_report: Optional[DriftReport] = None
        self.observed = 0
        if registry is not None:
            registry.collect(self._collect)

    def _collect(self):
        labels, last = {"signal": self.signal}, self.last_report
        help = "Population Stability Index vs reference window."
        yield "gauge", "stream_drift_psi", help, labels, None if last is None else last.psi
        help = "Kolmogorov-Smirnov statistic vs reference window."
        yield "gauge", "stream_drift_ks", help, labels, None if last is None else last.ks
        help = "Drift alerts raised."
        yield "counter", "stream_drift_alerts_total", help, labels, len(self.alerts)

    @property
    def reference_frozen(self) -> bool:
        return self._edges is not None

    def observe(self, value: float) -> None:
        self.observed += 1
        if not self.reference_frozen:
            self._reference.append(float(value))
            if len(self._reference) >= self.config.window:
                self._freeze_reference()
            return
        self._current.append(float(value))

    def observe_many(self, values: Sequence[float]) -> None:
        for value in values:
            self.observe(value)

    def _freeze_reference(self) -> None:
        reference = np.sort(np.asarray(self._reference, dtype=np.float64))
        quantiles = np.linspace(0.0, 1.0, PSI_BINS + 1)[1:-1]
        inner = np.quantile(reference, quantiles)
        self._edges = np.concatenate(([-np.inf], inner, [np.inf]))
        self._ref_fractions = self._bin_fractions(reference)
        self._ref_sorted = reference

    def _bin_fractions(self, ordered: np.ndarray) -> np.ndarray:
        """Each PSI bin's share of the sorted ``ordered``, counted as
        ``np.histogram(ordered, bins=self._edges)`` counts (its own rule
        for explicit edges: the left side of every edge but the last,
        the right side of that one), plus :data:`PSI_EPSILON` a bin."""
        cuts = np.concatenate(
            (ordered.searchsorted(self._edges[:-1], "left"), ordered.searchsorted(self._edges[-1:], "right"))
        )
        counts = np.diff(cuts).astype(np.float64)
        return (counts + PSI_EPSILON) / (counts.sum() + PSI_EPSILON * len(counts))

    def check(self) -> Optional[DriftReport]:
        """Compare current vs reference; record (and count) alerts.

        Returns ``None`` while the reference is still accumulating or
        the current window has fewer than ``min_samples`` points.
        """
        if not self.reference_frozen or len(self._current) < self.config.min_samples:
            return None
        current = np.sort(np.asarray(self._current, dtype=np.float64))
        fractions = self._bin_fractions(current)
        psi = float(
            np.sum((fractions - self._ref_fractions) * np.log(fractions / self._ref_fractions))
        )
        ks = self._ks_statistic(current)
        alert = psi > self.config.psi_alert or ks > self.config.ks_alert
        report = self.last_report = DriftReport(
            signal=self.signal, psi=psi, ks=ks, samples=len(current), alert=alert
        )
        if alert:
            self.alerts.append(report)
        return report

    def _ks_statistic(self, current: np.ndarray) -> float:
        """Two-sample KS statistic of the sorted ``current`` window."""
        reference = self._ref_sorted
        grid = np.concatenate([reference, current])
        cdf_ref = np.searchsorted(reference, grid, side="right") / len(reference)
        cdf_cur = np.searchsorted(current, grid, side="right") / len(current)
        return float(np.max(np.abs(cdf_ref - cdf_cur)))


# ----------------------------------------------------------------------
# Incremental fine-tuning
# ----------------------------------------------------------------------
@dataclass
class FineTuneConfig:
    """Bounds on the online mini-epoch."""

    min_labels: int = 64
    max_nodes: int = 256
    batch_size: int = 64
    learning_rate: float = 1e-3
    every_labels: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        # ``window[-0:]`` is the whole window, not none of it.
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")


@dataclass
class FineTuneRecord:
    """One completed online fine-tune step."""

    update: int
    nodes: int
    loss: float
    checkpoint: Optional[str] = None


class OnlineFineTuner:
    """Bounded mini-epochs over the recent labelled window.

    Keeps one long-lived :class:`Trainer` (optimizer moments persist
    across updates, like a production online learner) and checkpoints
    every update through ``checkpoint`` so a crashed scorer resumes
    (:meth:`resume`) from the last fine-tuned weights rather than the
    batch snapshot.
    """

    def __init__(
        self,
        model,
        config: Optional[FineTuneConfig] = None,
        checkpoint: Optional[CheckpointManager] = None,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.model = model
        self.config = config or FineTuneConfig()
        self.checkpoint = checkpoint
        self.trainer = Trainer(
            model,
            TrainConfig(
                epochs=1,
                batch_size=self.config.batch_size,
                learning_rate=self.config.learning_rate,
                seed=self.config.seed,
            ),
        )
        self.updates: List[FineTuneRecord] = []
        self._next_update = 0
        self._labels_since_update = 0
        if registry is not None:
            registry.collect(self._collect)

    def _collect(self):
        help = "Online fine-tune mini-epochs run."
        yield "counter", "stream_finetune_updates_total", help, {}, len(self.updates)
        loss = self.updates[-1].loss if self.updates else None
        yield "gauge", "stream_finetune_loss", "Mean loss of the last online mini-epoch.", {}, loss

    def resume(self, source) -> None:
        """Continue the lineage of a crashed tuner: weights, optimizer
        moments and RNG streams from ``source`` (a checkpoint manager,
        directory, file or :class:`TrainingState`), so the next update
        is the one the crashed run would have taken."""
        state = load_training_state(source)
        restore_training_state(state, self.model, self.trainer.optimizer, self.trainer.rng)
        self._next_update = state.epoch + 1

    def notify_labels(self, count: int) -> None:
        self._labels_since_update += count

    def maybe_update(
        self, graph: "HeteroGraph", recent_labelled: Sequence[int]
    ) -> Optional[FineTuneRecord]:
        """Run one bounded mini-epoch if enough fresh labels accrued.

        ``recent_labelled`` is the labelled window in arrival order;
        only the newest ``max_nodes`` of it are trained on, keeping the
        step O(max_nodes) regardless of stream length.
        """
        if self._labels_since_update < self.config.every_labels:
            return None
        nodes = np.asarray(recent_labelled, dtype=np.int64)
        nodes = nodes[graph.labels[nodes] >= 0]
        if len(nodes) < self.config.min_labels:
            return None
        nodes = nodes[-self.config.max_nodes :]
        loss = self.trainer.train_epoch(graph, nodes)
        self.model.eval()
        self._labels_since_update = 0
        record = FineTuneRecord(update=self._next_update, nodes=len(nodes), loss=loss)
        self._next_update += 1
        if self.checkpoint is not None:
            record.checkpoint = self.checkpoint.save(
                capture_training_state(
                    self.model, self.trainer.optimizer, self.trainer.rng, record.update
                )
            )
        self.updates.append(record)
        return record
