"""Span exporter: Chrome ``chrome://tracing`` JSON.

:func:`chrome_trace` / :func:`write_chrome_trace` emit the Trace Event
Format complete events (``ph: "X"``) that ``chrome://tracing`` and
Perfetto load directly; span nesting renders as stacked bars per thread
track, which is how you *see* where a request or an epoch spends its
budget.

Timestamps: tracer clocks are relative (``perf_counter`` or a
``ManualClock`` starting at 0), so events are emitted relative to the
earliest span start, in integer-friendly microseconds.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from .trace import Span

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
]


def chrome_trace(spans: Sequence[Span]) -> Dict[str, Any]:
    """Trace Event Format document for ``chrome://tracing`` / Perfetto.

    Every finished span becomes one complete event (``ph: "X"``) with
    ``ts``/``dur`` in microseconds relative to the earliest span, so a
    ``ManualClock`` trace starting at simulated t=0 renders from 0.
    Span attributes surface under ``args`` alongside the span/parent
    ids, letting the UI's selection panel show the tree linkage.
    """
    spans = [span for span in spans if span.end_s is not None]
    origin = min((span.start_s for span in spans), default=0.0)
    events: List[Dict[str, Any]] = []
    for span in sorted(spans, key=lambda s: (s.start_s, s.span_id)):
        args = {str(k): v for k, v in span.attributes.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start_s - origin) * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": 1,
                "tid": span.thread_id,
                "cat": "repro",
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path: str) -> int:
    """Write the Chrome trace JSON; returns the number of events."""
    document = chrome_trace(spans)
    with open(path, "w") as handle:
        json.dump(document, handle, default=str)
    return len(document["traceEvents"])
