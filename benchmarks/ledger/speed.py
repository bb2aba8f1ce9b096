"""The box's speed, measured beside the work, and times scaled by it.

The reference box is a 2-core VM on a shared host. It flips between a
fast state and one 20-50% slower, every 0.1-0.2 s at times and for tens
of seconds at others (identical inputs, no page faults, no steal
reported). Raw timings of one commit therefore spread wider than any
bound worth having: over ten back-to-back runs the interquartile range
of serve_cold's raw p50 was 16-19% of its median, of stream_ingest's
raw p95 31%.

A fixed loop of harness code slows down with the box, so the timed
phase is cut into ~50 ms *rounds*, a 3 ms *slice* of that loop runs
before each, and every time measured in a round is divided by its
slice's *speed factor*: the slice's duration over :data:`REFERENCE_S`
(1.0 on a quiet reference box, 1.3 when it is 30% slower). Reported
times are thus "at reference speed"; on the same ten runs that brought
the spreads above to 3-4% and 8%. The raw wall time and the mean factor
are printed beside the scaled numbers.

The slice is half interpreter work (an integer loop) and half small
numpy kernels (matmul, exp, row-normalise on a 32-row block), the mix
all four workloads are made of. It is harness code: no change to the
program can make it faster, so it cannot hide or fake a gain.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

PYTHON_LOOPS = 30_000
NUMPY_LOOPS = 54
REFERENCE_S = 0.0028  # one slice on the reference box when nothing else runs
SETUP_SLICES = 8

_BLOCK = np.random.default_rng(0).normal(size=(32, 114))
_WEIGHTS = np.random.default_rng(1).normal(size=(114, 64))


def slice_factor() -> float:
    """One slice: how much slower than the reference the box is right now."""
    started = time.perf_counter()
    total = 0
    for i in range(PYTHON_LOOPS):
        total += i * i
    for _ in range(NUMPY_LOOPS):
        hidden = _BLOCK @ _WEIGHTS
        weights = np.exp(hidden - hidden.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
    return (time.perf_counter() - started) / REFERENCE_S


class RoundMeter:
    """Times a phase as rounds, each scaled by the slice taken before it."""

    def __init__(self, rec=None) -> None:
        self.rec = rec  # a tracing.SpanRecorder: the slice gets its own span
        self.wall_s = 0.0  # at reference speed, slices excluded
        self.raw_wall_s = 0.0
        self.factors: List[float] = []

    def begin(self, latencies: List[float]) -> None:
        """Take a slice, then start the round's clock."""
        if self.rec is not None:
            with self.rec.span("harness.calibrate"):
                self._factor = slice_factor()
        else:
            self._factor = slice_factor()
        self._first = len(latencies)
        self.started = time.perf_counter()

    def end(self, latencies: List[float]) -> None:
        """Stop the clock; scale the samples the round appended, in place."""
        wall = time.perf_counter() - self.started
        factor = self._factor
        latencies[self._first :] = [sample / factor for sample in latencies[self._first :]]
        self.raw_wall_s += wall
        self.wall_s += wall / factor
        self.factors.append(factor)

    @contextmanager
    def round(self, latencies: List[float]) -> Iterator[None]:
        self.begin(latencies)
        yield
        self.end(latencies)

    @property
    def factor(self) -> float:
        """Mean factor of the phase (information; each round used its own)."""
        return statistics.fmean(self.factors)


def at_reference_speed(work):
    """Run ``work()``; returns its result, its seconds at reference speed
    and the factor used: the mean of ``SETUP_SLICES`` slices before and as
    many after. For the set-up, which is one long operation the harness
    cannot cut into rounds."""
    factors = [slice_factor() for _ in range(SETUP_SLICES)]
    started = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - started
    factors += [slice_factor() for _ in range(SETUP_SLICES)]
    factor = statistics.fmean(factors)
    return result, elapsed / factor, factor
