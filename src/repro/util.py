"""Small dependency-free helpers shared across layers.

Lives at the package root (below ``graph``, ``train`` and ``serving``)
so every layer can import it without cycles. :func:`batched` is the one
index-slicing helper the whole stack shares — the training epoch loops,
the KV feature-fetch chunking, and the serving micro-batch coalescer
all cut sequences the same way. :func:`nearest_rank_index` is the one
percentile-selection rule: both quantiles the stack reports
(``latency_percentiles``, ``Histogram.percentile``) select the same
sorted index, so a p99 from the benchmark tables and one from the
Prometheus exposition mean the same observed sample.
:func:`release_free_memory` is what a training run calls when it is
done, so that the process that goes on to serve does not carry the
tape's working set.
"""

from __future__ import annotations

import ctypes
import math
from typing import List, Sequence, TypeVar

T = TypeVar("T", bound=Sequence)

__all__ = ["batched", "nearest_rank_index", "release_free_memory"]


def nearest_rank_index(percentile: float, count: int) -> int:
    """Sorted-array index of the nearest-rank percentile for ``count`` samples.

    Nearest-rank definition: the smallest sample such that at least
    ``percentile`` percent of the data is <= it, i.e. index
    ``ceil(p/100 * n) - 1`` clamped to ``[0, n - 1]``. Unlike linear
    interpolation this always lands on an *observed* sample — a p99
    latency that nobody ever experienced is not a latency.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    rank = math.ceil(percentile / 100.0 * count) - 1
    return max(0, min(count - 1, rank))


def batched(items: T, batch_size: int) -> List[T]:
    """Split a sliceable sequence (numpy array, list) into consecutive batches.

    Every item appears in exactly one batch, order preserved; the last
    batch may be short. Works on anything supporting ``len`` and slice
    indexing — index arrays in the trainers, request lists in the
    serving micro-batcher.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [items[i : i + batch_size] for i in range(0, len(items), batch_size)]


def release_free_memory() -> bool:
    """Hand the C allocator's free pages back to the OS (glibc ``malloc_trim``).

    A training run grows the heap to the autograd tape's working set.
    Once freed, that memory stays resident under whichever small
    long-lived block was allocated while the heap was high — how much
    follows the heap's layout (ASLR, the string-hash seed), so it
    differs between runs of identical inputs (DESIGN.md, "A fit gives
    its heap back"). After a trim what stays resident is the live data.
    Returns ``False`` where there is no ``malloc_trim`` (any libc but
    glibc), which costs nothing but the memory.
    """
    try:
        return bool(ctypes.CDLL(None).malloc_trim(0))
    except (OSError, AttributeError, TypeError):
        return False
