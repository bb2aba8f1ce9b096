"""Eval-mode scoring through a model's ``Tensor`` forward.

The baselines (GAT, GEM, MLP) score this way. The detector does not —
its ``predict_proba`` is a plain-array kernel, and its ``forward`` a
tape node over that same kernel — so the reference ``repro check`` and
the tests hold the kernel to is this function given a
:class:`repro.check.reference.PerOpDetector`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import nn
from ..graph.hetero import HeteroGraph
from ..nn import functional as F


def tensor_predict_proba(
    model: nn.Module, graph: HeteroGraph, targets: Sequence[int]
) -> np.ndarray:
    """Fraud probability per target from ``model.forward`` with dropout
    off and no tape; the model's training flag is restored on exit."""
    was_training = model.training
    model.eval()
    try:
        with nn.no_grad():
            probabilities = F.softmax(model.forward(graph, targets), axis=-1)
    finally:
        model.train(was_training)
    return probabilities.data[:, 1].copy()


def padded_features(graph: HeteroGraph) -> np.ndarray:
    """``(N, F)``: ``graph.txn_table`` at the transactions, zeros at the
    entities — the per-node input of GAT and GEM, built per forward."""
    padded = np.zeros((graph.num_nodes, graph.feature_dim), dtype=graph.txn_table.dtype)
    padded[graph.txn_row >= 0] = graph.txn_table
    return padded
