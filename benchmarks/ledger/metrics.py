"""Metric definitions and how each value is computed.

``END_TO_END`` and ``PER_LAYER`` are the single list of what the ledger
reports; ``BENCHMARK.json`` repeats them (``test_ledger.py`` checks the
two agree) because the driver reads the JSON, not this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.train.metrics import latency_percentiles

from tracing import Span, attr_sum, totals_by_name

# (name, unit, better). Bounds live in BENCHMARK.json. Every time is at
# reference speed (speed.py).
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("auc", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]

# Reported beside the end-to-end metrics but not listed in
# BENCHMARK.json, whose metrics may never be 0: fail_share is 0 on every
# workload at the committed sizes and any rise is a regression (bound
# +0 absolute, enforced by agree.py and by the run's own exit code).
FAIL_SHARE = ("fail_share", "ratio", "lower")

# Which spans' self time makes up each share. Every span name the
# proxies emit appears exactly once, so the shares partition the traced
# wall time and sum to 1.
SELF_SHARES: Dict[str, Tuple[str, ...]] = {
    "models.forward_share": ("models.predict_proba",),
    "train.forward_share": ("train.forward",),
    "train.backward_share": ("train.backward",),
    "train.optimizer_share": ("train.optimizer",),
    "train.other_share": ("train.step",),  # zero_grad, clip_grad_norm, loss.item
    "storage.busy_share": ("storage.get",),
    "graph.sampling.busy_share": ("graph.sampling.sample",),
    "graph.cache.self_share": ("graph.cache.get_or_sample", "graph.cache.invalidate"),
    "serving.self_share": ("serving.score", "serving.score_batch"),
    "stream.wal.busy_share": ("stream.wal.append",),
    "stream.builder.apply_share": ("stream.builder.apply",),
    "stream.builder.flush_share": ("stream.builder.flush",),
    "stream.builder.compact_share": ("stream.builder.compact",),
    "stream.scorer.ingest_self_share": ("stream.scorer.ingest",),
    "stream.scorer.pump_self_share": ("stream.scorer.pump",),
    "stream.scorer.feedback_share": ("stream.scorer.mature_labels",),
    "harness.self_share": ("harness.timed",),
    "harness.calibrate_share": ("harness.calibrate",),  # the speed slices of speed.py
}

PER_LAYER: List[Tuple[str, str, str]] = [
    ("models.forward_calls", "count", "lower"),
    ("models.forward_share", "ratio", "lower"),
    ("models.targets_per_call", "count", "higher"),
    ("models.nodes_per_call", "count", "lower"),
    ("nn.forward_share", "ratio", "lower"),
    ("nn.backward_share", "ratio", "lower"),
    ("nn.tensors_made", "count", "lower"),
    ("nn.bytes_made", "bytes", "lower"),
    ("train.steps", "count", "higher"),
    ("train.forward_share", "ratio", "lower"),
    ("train.backward_share", "ratio", "lower"),
    ("train.optimizer_share", "ratio", "lower"),
    ("train.other_share", "ratio", "lower"),
    ("train.loss_final", "loss", "lower"),
    ("storage.reads", "count", "lower"),
    ("storage.busy_share", "ratio", "lower"),
    ("storage.bytes_read", "bytes", "lower"),
    ("storage.rows_per_op", "count", "lower"),
    ("storage.failovers", "count", "lower"),
    ("storage.hedge_overruns", "count", "lower"),
    ("graph.sampling.calls", "count", "lower"),
    ("graph.sampling.busy_share", "ratio", "lower"),
    ("graph.sampling.nodes_per_call", "count", "lower"),
    ("graph.sampling.edges_per_call", "count", "lower"),
    ("graph.cache.lookups", "count", "lower"),
    ("graph.cache.hits", "count", "higher"),
    ("graph.cache.misses", "count", "lower"),
    ("graph.cache.hit_ratio", "ratio", "higher"),
    ("graph.cache.evictions", "count", "lower"),
    ("graph.cache.invalidations", "count", "lower"),
    ("graph.cache.self_share", "ratio", "lower"),
    ("serving.requests", "count", "higher"),
    ("serving.self_share", "ratio", "lower"),
    ("serving.batch_size_mean", "count", "higher"),
    ("serving.shed", "count", "lower"),
    ("serving.degraded", "count", "lower"),
    ("serving.deadline_hits", "count", "lower"),
    ("stream.wal.appends", "count", "higher"),
    ("stream.wal.busy_share", "ratio", "lower"),
    ("stream.wal.bytes", "bytes", "lower"),
    ("stream.wal.segments", "count", "lower"),
    ("stream.builder.apply_share", "ratio", "lower"),
    ("stream.builder.flush_calls", "count", "lower"),
    ("stream.builder.flush_share", "ratio", "lower"),
    ("stream.builder.compact_calls", "count", "lower"),
    ("stream.builder.compact_share", "ratio", "lower"),
    ("stream.builder.nodes_final", "count", "lower"),
    ("stream.builder.edges_final", "count", "lower"),
    ("stream.builder.version_final", "count", "lower"),
    ("stream.scorer.ingest_self_share", "ratio", "lower"),
    ("stream.scorer.pump_self_share", "ratio", "lower"),
    ("stream.scorer.feedback_share", "ratio", "lower"),
    ("stream.scorer.backpressure_rejections", "count", "lower"),
    ("stream.scorer.lag_events_max", "count", "lower"),
    ("harness.self_share", "ratio", "lower"),
    ("harness.calibrate_share", "ratio", "lower"),
    ("warmup_s", "s", "lower"),
    ("setup.generate_s", "s", "lower"),
    ("setup.fit_s", "s", "lower"),
    ("setup.kv_populate_s", "s", "lower"),
    ("setup.graph_build_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def end_to_end(outcome, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced timed phase, plus the
    informational ones (``fail_share``, p99, sample count). Times are
    at reference speed (see speed.py)."""
    percentiles = latency_percentiles(outcome.latencies_s)
    return {
        "setup_s": setup_s,
        "throughput_per_s": outcome.ops / outcome.meter.wall_s,
        "latency_p50_ms": percentiles["p50"] * 1e3,
        "latency_p95_ms": percentiles["p95"] * 1e3,
        "auc": outcome.auc,
        "peak_rss_mb": peak_rss_mb,
        "fail_share": outcome.failed / outcome.attempted,
        # Information only: p99 moved +-20-60% between identical
        # prototype runs, so nothing may be gated on it.
        "latency_p99_ms": percentiles["p99"] * 1e3,
        "latency_samples": len(outcome.latencies_s),
    }


def per_layer(
    spans: Sequence[Span],
    delta: Dict[str, float],
    extra: Dict[str, float],
    wall_s: float,
    profiler: Optional[object],
) -> Dict[str, float]:
    """Per-layer metrics of one traced timed phase.

    ``spans`` are the ``harness.timed`` span and everything beneath it,
    ``delta`` the change in the program's own counters across the phase,
    ``extra`` the counts the harness took itself, ``wall_s`` the traced
    phase's wall time (the base of every share).
    """
    totals = totals_by_name(list(spans))

    def calls(*names: str) -> int:
        return sum(totals[name].calls for name in names if name in totals)

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    values: Dict[str, float] = {
        share: sum(totals[name].self_s for name in names if name in totals) / wall_s
        for share, names in SELF_SHARES.items()
    }
    forwards = calls("models.predict_proba")
    samples = calls("graph.sampling.sample")
    reads = calls("storage.get")
    requests = delta.get("serving.requests", 0)
    hits, misses = delta.get("graph.cache.hits", 0), delta.get("graph.cache.misses", 0)
    values.update(
        {
            "models.forward_calls": forwards,
            "models.targets_per_call": per(attr_sum(spans, "models.predict_proba", "targets"), forwards),
            "models.nodes_per_call": per(attr_sum(spans, "models.predict_proba", "nodes"), forwards),
            "storage.reads": reads,
            "storage.bytes_read": attr_sum(spans, "storage.get", "bytes"),
            "storage.rows_per_op": per(reads, requests),
            "storage.failovers": delta.get("storage.failovers", 0),
            "storage.hedge_overruns": delta.get("storage.hedge_overruns", 0),
            "graph.sampling.calls": samples,
            "graph.sampling.nodes_per_call": per(attr_sum(spans, "graph.sampling.sample", "nodes"), samples),
            "graph.sampling.edges_per_call": per(attr_sum(spans, "graph.sampling.sample", "edges"), samples),
            "graph.cache.lookups": hits + misses,
            "graph.cache.hits": hits,
            "graph.cache.misses": misses,
            "graph.cache.hit_ratio": per(hits, hits + misses),
            "graph.cache.evictions": delta.get("graph.cache.evictions", 0),
            # Entries dropped by invalidate(), not the number of calls:
            # a cache that survives flushes lowers this one.
            "graph.cache.invalidations": attr_sum(spans, "graph.cache.invalidate", "removed"),
            "serving.requests": requests,
            "serving.batch_size_mean": per(requests, calls("serving.score", "serving.score_batch")),
            "serving.shed": delta.get("serving.shed", 0),
            "serving.degraded": delta.get("serving.completed", 0) - delta.get("serving.gnn", 0),
            "serving.deadline_hits": delta.get("serving.deadline_hits", 0),
            "stream.wal.appends": delta.get("stream.wal.appends", 0),
            "stream.wal.bytes": delta.get("stream.wal.bytes", 0),
            "stream.wal.segments": extra.get("stream.wal.segments", 0),
            "stream.builder.flush_calls": calls("stream.builder.flush"),
            "stream.builder.compact_calls": delta.get("stream.builder.compact_calls", 0),
            "stream.builder.nodes_final": extra.get("stream.builder.nodes_final", 0),
            "stream.builder.edges_final": extra.get("stream.builder.edges_final", 0),
            "stream.builder.version_final": extra.get("stream.builder.version_final", 0),
            "stream.scorer.backpressure_rejections": delta.get(
                "stream.scorer.backpressure_rejections", 0
            ),
            "stream.scorer.lag_events_max": extra.get("stream.scorer.lag_events_max", 0),
            "train.steps": extra.get("train.steps", 0),
            "train.loss_final": extra.get("train.loss_final", 0.0),
        }
    )
    # The engine underneath train.forward/backward, from the existing
    # op table: these overlap the train.* shares and are not part of
    # the partition. tensors_made counts tape nodes whose backward ran;
    # bytes_made adds module outputs and the gradients those received.
    records = profiler.records() if profiler is not None else []
    values.update(
        {
            "nn.forward_share": sum(r.self_s for r in records if r.phase == "forward") / wall_s,
            "nn.backward_share": sum(r.self_s for r in records if r.phase == "backward") / wall_s,
            "nn.tensors_made": sum(r.calls for r in records if r.phase == "backward"),
            "nn.bytes_made": sum(r.bytes for r in records),
        }
    )
    return values


def unmapped_spans(spans: Sequence[Span]) -> List[str]:
    """Span names no share accounts for (must be empty, or the shares
    would not sum to the traced wall)."""
    mapped = {name for names in SELF_SHARES.values() for name in names}
    return sorted({span.name for span in spans} - mapped)
