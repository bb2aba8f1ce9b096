"""The graph a training loss is computed on.

A loss over a batch of targets reads the targets' outputs only, and an
``L``-layer model's output at a node depends on nothing beyond that
node's ``L``-hop in-closure. Every model's ``loss`` therefore runs its
forward on :func:`~repro.graph.sampling.receptive_field` of the batch
rather than on the graph it was handed: same loss, same parameter
gradients (to float reordering), at a cost that follows the batch and
not the graph.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..graph.hetero import HeteroGraph
from ..graph.sampling import SampledSubgraph, receptive_field

#: ``(parent_num_edges, edge_ids)``: the graph a forward is given holds
#: edges ``edge_ids`` of a parent graph with that many edges. Per-edge
#: dropout draws its mask for the parent and gathers these rows of it
#: (:func:`repro.nn.functional.dropout`, ``rows``).
EdgeRows = Tuple[int, np.ndarray]


def loss_field(
    graph: HeteroGraph, targets: Sequence[int], hops: int
) -> Tuple[SampledSubgraph, np.ndarray]:
    """``(field, labels)`` for a loss over ``targets``.

    ``hops`` is the model's number of message-passing layers. Run the
    forward on ``field.graph`` at ``field.target_local``; a model with
    per-edge dropout also passes the :data:`EdgeRows`
    ``(graph.num_edges, field.edge_ids)`` so each edge keeps the mask
    it has on ``graph``.
    """
    field = receptive_field(graph, targets, hops)  # refuses targets that are not nodes
    labels = graph.labels[np.asarray(targets, dtype=np.int64)]
    if np.any(labels < 0):
        raise ValueError("loss targets must be labeled transactions")
    return field, labels
