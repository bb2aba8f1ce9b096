"""Stateless neural-network functions built on the autograd engine.

Activation functions, normalisations, dropout, and the loss functions
used by the detector (softmax cross entropy, eq. 11) and the explainer
(binary entropy regularisers, eqs. 12–13).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor

EPSILON = 1e-12


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """LeakyReLU used inside GAT attention scoring."""
    positive = x.relu()
    negative = (-x).relu() * (-negative_slope)
    return positive + negative


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """ELU — the activation of the original GAT layer."""
    from .tensor import where

    negative_part = ((-(-x).relu()).exp() - 1.0) * alpha
    return where(x.data > 0, x, negative_part)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def check_dropout_rate(rate: float) -> float:
    """``rate`` if it is a drop probability in ``[0, 1)``, else raise:
    at 1 the rescale is ``0 / 0`` and past it the mask turns negative."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate!r}")
    return rate


def dropout(
    x: Tensor,
    rate: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
    rows: Optional[Tuple[int, np.ndarray]] = None,
) -> Tensor:
    """Inverted dropout: at train time zero a fraction and rescale.

    ``rows=(extent, index)`` says ``x`` is rows ``index`` of an array of
    ``extent`` rows: the mask is drawn for that whole array and gathered,
    so a row is dropped or kept — and ``rng`` is left — exactly as if the
    whole array had been passed, whichever other rows came along.
    """
    check_dropout_rate(rate)
    if not training or rate == 0.0:
        return x
    if rng is None:
        rng = np.random.default_rng()
    keep = 1.0 - rate
    if rows is None:
        draws = rng.random(x.shape)
    else:
        extent, index = rows
        draws = rng.random((extent,) + x.shape[1:])[index]
    return x * Tensor((draws < keep).astype(np.float64) / keep)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the trailing feature dimension."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normalised = centered / ((variance + eps) ** 0.5)
    return normalised * weight + bias


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross entropy against integer class labels.

    This is the detector loss of the paper (eq. 11): the cross entropy
    of the true label and the probability score calculated by softmax.
    One tape node: the forward is :func:`log_softmax` and a pick, the
    backward ``(softmax − onehot) · grad / B`` for ``B`` labels — each
    written with the operations, in the order, the per-op tape takes
    (:func:`repro.check.reference.cross_entropy`), so loss and gradient
    are its bits.
    """
    labels = np.asarray(labels, dtype=np.int64)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(sums)
    rows = np.arange(len(labels))
    loss = -(log_probs[rows, labels].sum() * (1.0 / len(labels)))

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            d_picked = -grad * (1.0 / len(labels))
            d_logits = (-d_picked / sums) * exps
            d_logits[rows, labels] += d_picked
            logits._accumulate(d_logits)

    return Tensor._make(np.asarray(loss), (logits,), backward)


def bernoulli_entropy(probabilities: Tensor, eps: float = 1e-12) -> Tensor:
    """Elementwise entropy ``-p log p - (1-p) log (1-p)``.

    Used as the mask-entropy regulariser of the modified GNNExplainer
    (eqs. 12 and 13 of the paper's Appendix D).
    """
    p = probabilities
    return -(p * (p + eps).log()) - ((1.0 - p) * (1.0 - p + eps).log())

