"""Segment operations — the message-passing kernels of the GNN stack.

A GNN layer computes, for each target node, an aggregation over a
variable-sized set of incoming edges. Representing that as dense
matrices would be quadratic in graph size; instead every model in this
repository flattens the edge set into arrays indexed by ``segment_ids``
(the target node of each edge) and uses the kernels here:

``gather``            rows of a node matrix for each edge endpoint,
``segment_sum``       sum edge messages into target nodes,
``segment_mean``      mean aggregation (used by the GEM baseline),
``segment_softmax``   per-target-node softmax over incoming attention
                      logits (eq. 9 of the paper),
``segment_max``       numerical-stability helper.

All kernels are differentiable through the autograd engine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from .tensor import Tensor


def scatter_selector(index: np.ndarray, num_rows: int) -> sparse.csc_matrix:
    """The 0/1 matrix ``S`` with ``S[index[i], i] = 1``: ``S @ values``
    is ``out[index[i]] += values[i]`` and ``S.T @ x`` is ``x[index]``.

    One entry per column is already a valid CSC — ``(ones, index,
    arange(n + 1))`` — so nothing is sorted, and the matrix is built as
    it is used (not as a CSR and its transposed view); the bounds are
    checked here because scipy takes the three arrays as given.
    """
    index = np.asarray(index, dtype=np.int64)
    if len(index) and not 0 <= index.min() <= index.max() < num_rows:
        raise IndexError(f"row index out of range for {num_rows} rows")
    return sparse.csc_matrix(
        (np.ones(len(index)), index, np.arange(len(index) + 1)), shape=(num_rows, len(index))
    )


def scatter_add_rows(values: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` as a sparse matmul.

    ``np.add.at`` performs the same reduction but through a slow
    element-wise inner loop; routing it through :func:`scatter_selector`
    keeps the hot path of every GNN layer in BLAS-speed code.
    """
    index = np.asarray(index, dtype=np.int64)
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=num_rows)
    # Explicit width: ``-1`` cannot be inferred when there are no rows.
    flat = values.reshape(len(index), int(np.prod(values.shape[1:])))
    out = scatter_selector(index, num_rows) @ flat
    return np.asarray(out).reshape((num_rows,) + values.shape[1:])


def gather(source: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``source[index]`` with gradient scatter-add back."""
    index = np.asarray(index, dtype=np.int64)
    out_data = source.data[index]

    def backward(grad: np.ndarray) -> None:
        if source.requires_grad:
            source._accumulate(scatter_add_rows(grad, index, len(source.data)))

    return Tensor._make(out_data, (source,), backward)


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets.

    ``segment_ids`` maps each row of ``values`` to its output bucket; the
    ids do not need to be sorted. Empty buckets receive zeros.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = scatter_add_rows(values.data, segment_ids, num_segments)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[segment_ids])

    return Tensor._make(out_data, (values,), backward)


def segment_count(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Number of rows per segment (plain ndarray; not differentiable)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    return np.bincount(segment_ids, minlength=num_segments).astype(np.float64)


def segment_mean(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean of rows per segment; empty segments stay zero."""
    counts = segment_count(segment_ids, num_segments)
    counts = np.maximum(counts, 1.0)
    summed = segment_sum(values, segment_ids, num_segments)
    inverse = 1.0 / counts
    return summed * Tensor(inverse.reshape((-1,) + (1,) * (summed.ndim - 1)))


def segment_max_data(values: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment max of raw data (used to stabilise the softmax)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_shape = (num_segments,) + values.shape[1:]
    out = np.full(out_shape, -np.inf, dtype=np.float64)
    np.maximum.at(out, segment_ids, values)
    # Segments with no members keep -inf; replace so later subtraction
    # does not produce NaNs for them (they have no rows anyway).
    out[np.isinf(out)] = 0.0
    return out


def segment_softmax(
    logits: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
) -> Tensor:
    """Softmax of ``logits`` normalised within each segment.

    This implements the per-target-node attention normalisation of
    eq. 9: for every target node, the attention scores of its incoming
    edges sum to one. Works for 1-D logits or 2-D (edges, heads) logits.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    maxima = segment_max_data(logits.data, segment_ids, num_segments)
    shifted = logits - Tensor(maxima[segment_ids])
    exp = shifted.exp()
    denom = segment_sum(exp, segment_ids, num_segments)
    denom_per_edge = gather(denom, segment_ids)
    return exp / (denom_per_edge + 1e-16)


def scatter_rows(
    values: Tensor,
    index: np.ndarray,
    num_rows: int,
    base: Optional[np.ndarray] = None,
) -> Tensor:
    """Place row ``i`` of ``values`` at output row ``index[i]``.

    Rows not covered by ``index`` are taken from ``base`` (zeros by
    default). Duplicate indices accumulate, matching scatter-add
    semantics.
    """
    index = np.asarray(index, dtype=np.int64)
    out_data = scatter_add_rows(values.data, index, num_rows)
    if base is not None:
        out_data = out_data + np.asarray(base, dtype=np.float64)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[index])

    return Tensor._make(out_data, (values,), backward)
