"""repro.obs — unified observability: metrics, tracing, profiling.

The paper's systems claims are all *measured* (inference-time/AUC
trade-offs, KV read latencies, convergence timing); this package is the
instrumentation layer those measurements flow through:

* :class:`MetricsRegistry` — labelled Counter / Gauge / Histogram
  primitives with Prometheus text exposition; a histogram is its fixed
  buckets, sum and count — what it exports — so memory stays O(1)
  under sustained traffic (:class:`Reservoir` is the bounded sample
  behind the scoring service's latency percentiles);
* :class:`Tracer` / :class:`Span` — nested, thread-safe span context
  managers on an injectable clock (``ManualClock`` chaos runs stay
  deterministic), exported as JSONL or Chrome ``chrome://tracing``
  JSON via :mod:`repro.obs.export`;
* :class:`timed` — the one wall-time helper shared by the training
  loops (replaces hand-rolled ``perf_counter`` pairs);
* :class:`Profiler` — op-level autograd profiler hooking
  :class:`repro.nn.Module` forward and the backward tape for per-op
  wall time, call counts, and array bytes.

Dependency-free (stdlib only) so every layer — storage, graph,
serving, train — can import it without cycles. Instrumentation is
opt-in everywhere: with no registry/tracer attached the hot paths pay
one ``is None`` check where they would read a clock, and nothing where
they count — a tally is a plain attribute its owner lets an attached
registry read at scrape time (:meth:`MetricsRegistry.collect`).
"""

from .export import (
    chrome_trace,
    read_jsonl,
    spans_to_dicts,
    write_chrome_trace,
    write_jsonl,
)
from .profile import OpRecord, Profiler
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Reservoir,
)
from .trace import NULL_TRACER, Span, Tracer, timed

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reservoir",
    "DEFAULT_LATENCY_BUCKETS",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "timed",
    "OpRecord",
    "Profiler",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "spans_to_dicts",
]
