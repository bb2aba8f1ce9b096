"""Evaluation metrics for the imbalanced fraud-detection task.

Everything the paper reports: AUC-ROC, average precision (AP),
accuracy, full ROC and precision-recall curves (Figures 8/9/15),
confusion-rate tables and precision/recall sweeps over prediction-score
thresholds (Tables 14–19), plus the precision re-projection onto the
pre-downsampling stream of Appendix H.4.

Implemented from scratch on numpy (no sklearn dependency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..util import nearest_rank_index


def _validate(labels: np.ndarray, scores: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same shape")
    if len(labels) == 0:
        raise ValueError("empty inputs")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be binary 0/1")
    if np.isnan(scores).any():
        # NaN breaks the sort-based threshold sweep silently; fail loudly.
        raise ValueError("scores must not contain NaN")
    return labels, scores


def roc_curve(labels: Sequence[int], scores: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ROC curve: (fpr, tpr, thresholds), thresholds descending."""
    labels, scores = _validate(np.asarray(labels), np.asarray(scores))
    order = np.argsort(-scores, kind="stable")
    labels = labels[order]
    scores = scores[order]
    distinct = np.flatnonzero(np.diff(scores)) if len(scores) > 1 else np.array([], dtype=int)
    cut = np.concatenate([distinct, [len(labels) - 1]])

    tps = np.cumsum(labels)[cut]
    fps = (1 + cut) - tps
    total_pos = labels.sum()
    total_neg = len(labels) - total_pos
    tpr = tps / max(total_pos, 1)
    fpr = fps / max(total_neg, 1)
    thresholds = scores[cut]
    # Prepend the (0, 0) origin.
    return (
        np.concatenate([[0.0], fpr]),
        np.concatenate([[0.0], tpr]),
        np.concatenate([[np.inf], thresholds]),
    )


# Sentinel distinguishing "no default given" from default=None.
_RAISE = object()


def roc_auc(labels: Sequence[int], scores: Sequence[float], default=_RAISE):
    """Area under the ROC curve via the trapezoid rule.

    AUC is undefined when only one class is present. By default that
    raises ValueError; pass ``default=`` (e.g. ``float("nan")`` or
    ``None``) to get that value back instead — essential for serving
    stats and benchmarks, where a degraded-traffic window can easily be
    all-benign and must not crash metric reporting.
    """
    labels, scores = _validate(np.asarray(labels), np.asarray(scores))
    if labels.min() == labels.max():
        if default is _RAISE:
            raise ValueError("AUC needs both classes present")
        return default
    fpr, tpr, _ = roc_curve(labels, scores)
    return float(np.trapezoid(tpr, fpr))


def latency_percentiles(
    samples: Sequence[float],
    percentiles: Sequence[float] = (50.0, 95.0, 99.0),
) -> Dict[str, float]:
    """Latency summary as ``{"p50": ..., "p95": ..., "p99": ...}``.

    The shared helper behind ``ServiceStats`` and ``Trainer`` epoch
    timing (tail latency, not just the mean, is what an online scorer
    is judged on). Empty input yields NaNs rather than raising so a
    zero-traffic window still reports.

    Selection is nearest-rank (see :func:`repro.util.nearest_rank_index`),
    not linear interpolation: every reported value is a sample that was
    actually observed, and at tiny counts (n=1, 2) p50/p95/p99 stay
    honest instead of inventing midpoints.
    """
    keys = [f"p{percentile:g}" for percentile in percentiles]
    samples = np.asarray(list(samples), dtype=np.float64)
    if samples.size == 0:
        return {key: float("nan") for key in keys}
    ordered = np.sort(samples)
    return {
        key: float(ordered[nearest_rank_index(percentile, ordered.size)])
        for key, percentile in zip(keys, percentiles)
    }


def partial_roc_auc(labels: Sequence[int], scores: Sequence[float], max_fpr: float = 0.1) -> float:
    """AUC restricted to FPR <= max_fpr (Figure 9's regime)."""
    fpr, tpr, _ = roc_curve(np.asarray(labels), np.asarray(scores))
    keep = fpr <= max_fpr
    if keep.sum() < 2:
        return 0.0
    fpr_k, tpr_k = fpr[keep], tpr[keep]
    if fpr_k[-1] < max_fpr and keep.sum() < len(fpr):
        # Interpolate the curve at exactly max_fpr.
        nxt = int(keep.sum())
        span = fpr[nxt] - fpr_k[-1]
        frac = (max_fpr - fpr_k[-1]) / span if span > 0 else 0.0
        fpr_k = np.append(fpr_k, max_fpr)
        tpr_k = np.append(tpr_k, tpr_k[-1] + frac * (tpr[nxt] - tpr_k[-1]))
    return float(np.trapezoid(tpr_k, fpr_k))


def precision_recall_curve(
    labels: Sequence[int], scores: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PR curve: (precision, recall, thresholds), recall ascending order
    reversed to the conventional descending-threshold sweep."""
    labels, scores = _validate(np.asarray(labels), np.asarray(scores))
    order = np.argsort(-scores, kind="stable")
    labels = labels[order]
    scores = scores[order]
    tps = np.cumsum(labels)
    fps = np.cumsum(1 - labels)
    distinct = np.flatnonzero(np.diff(scores)) if len(scores) > 1 else np.array([], dtype=int)
    cut = np.concatenate([distinct, [len(labels) - 1]])
    precision = tps[cut] / (tps[cut] + fps[cut])
    recall = tps[cut] / max(labels.sum(), 1)
    thresholds = scores[cut]
    # sklearn convention: thresholds ascending, recall descending,
    # terminating at full precision / zero recall.
    return (
        np.concatenate([precision[::-1], [1.0]]),
        np.concatenate([recall[::-1], [0.0]]),
        thresholds[::-1],
    )


def average_precision(labels: Sequence[int], scores: Sequence[float]) -> float:
    """AP: sum over recall steps of precision (step-wise integral)."""
    precision, recall, _ = precision_recall_curve(labels, scores)
    # precision/recall arrive with recall descending at the tail; walk
    # the curve in threshold order.
    return float(-np.sum(np.diff(recall) * precision[:-1]))


def accuracy(labels: Sequence[int], scores: Sequence[float], threshold: float = 0.5) -> float:
    """Fraction of correct hard predictions at ``threshold``."""
    labels, scores = _validate(np.asarray(labels), np.asarray(scores))
    predicted = (scores >= threshold).astype(np.int64)
    return float((predicted == labels).mean())


def evaluate_model(model, graph, nodes: Sequence[int]) -> Dict[str, float]:
    """Accuracy / AP / AUC of ``model.predict_proba`` on labeled nodes.

    The one held-out evaluation (Table 7 row) behind ``Trainer.evaluate``
    and the final metrics of the distributed and elastic trainers. AUC
    is NaN on a single-class node set; NaN *scores* — a diverged model —
    raise rather than being reported as a metric.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    scores = model.predict_proba(graph, nodes)
    labels = graph.labels[nodes]
    return {
        "accuracy": accuracy(labels, scores),
        "ap": average_precision(labels, scores),
        "auc": roc_auc(labels, scores, default=float("nan")),
    }


def epoch_auc(model, graph, nodes: Optional[Sequence[int]]) -> Optional[float]:
    """One point of a convergence curve (Figure 14): held-out AUC after
    an epoch, ``None`` without an evaluation set or with one class."""
    if graph is None or nodes is None or not len(nodes):
        return None
    nodes = np.asarray(nodes, dtype=np.int64)
    return roc_auc(graph.labels[nodes], model.predict_proba(graph, nodes), default=None)


@dataclass
class ConfusionRates:
    """TPR/TNR/FPR/FNR at one threshold (Tables 14–16)."""

    threshold: float
    tpr: float
    tnr: float
    fpr: float
    fnr: float
    precision: Optional[float]
    recall: float

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "threshold": self.threshold,
            "TPR": self.tpr,
            "TNR": self.tnr,
            "FPR": self.fpr,
            "FNR": self.fnr,
            "precision": self.precision,
            "recall": self.recall,
        }


def confusion_rates(labels: Sequence[int], scores: Sequence[float], threshold: float) -> ConfusionRates:
    """Confusion-rate row at a threshold; precision is None when no
    score clears the threshold (the paper's "-" cells)."""
    labels, scores = _validate(np.asarray(labels), np.asarray(scores))
    predicted = scores >= threshold
    positives = labels == 1
    negatives = ~positives
    tp = int(np.sum(predicted & positives))
    fp = int(np.sum(predicted & negatives))
    fn = int(np.sum(~predicted & positives))
    tn = int(np.sum(~predicted & negatives))
    tpr = tp / max(tp + fn, 1)
    tnr = tn / max(tn + fp, 1)
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    return ConfusionRates(
        threshold=threshold,
        tpr=tpr,
        tnr=tnr,
        fpr=1.0 - tnr,
        fnr=1.0 - tpr,
        precision=precision,
        recall=tpr,
    )


def threshold_sweep(
    labels: Sequence[int],
    scores: Sequence[float],
    thresholds: Sequence[float],
) -> Tuple[ConfusionRates, ...]:
    """Tables 14–19: confusion rates over a threshold grid."""
    return tuple(confusion_rates(labels, scores, t) for t in thresholds)


def project_precision_to_stream(
    precision_sampled: float,
    fraud_rate_sampled: float,
    fraud_rate_stream: float,
) -> float:
    """Re-project precision from the downsampled set to the raw stream.

    Appendix H.4: a 0.98 precision at 4.33% fraud corresponds to ~0.32
    at the 0.043% filtered-stream rate, because benign downsampling
    inflates precision. Derivation via odds: the downsampling keeps all
    fraud and a fraction ``f`` of benign, with
    ``f = (fr_s / (1 - fr_s)) / (fr_r / (1 - fr_r))`` linking the two
    fraud rates; false positives scale back up by ``1/f``.
    """
    if not (0 < fraud_rate_stream <= fraud_rate_sampled < 1):
        raise ValueError("fraud rates must satisfy 0 < stream <= sampled < 1")
    if precision_sampled <= 0:
        return 0.0
    odds_sampled = fraud_rate_sampled / (1 - fraud_rate_sampled)
    odds_stream = fraud_rate_stream / (1 - fraud_rate_stream)
    keep_fraction = odds_stream / odds_sampled
    fp_ratio = (1 - precision_sampled) / precision_sampled
    fp_ratio_stream = fp_ratio / keep_fraction
    return 1.0 / (1.0 + fp_ratio_stream)
