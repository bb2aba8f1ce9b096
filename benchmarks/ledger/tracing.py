"""Bench-owned span recording: timing proxies and self-time arithmetic.

The ledger times the layers *from outside*: :meth:`SpanRecorder.wrap`
replaces a bound method on an object the harness hands to the program
(``model.predict_proba``, ``cache.get_or_sample``, the feature store's
``get`` ...) with a proxy that records one span per call. Nothing under
``src/`` knows it is being timed, and the service's own
:class:`repro.obs.trace.Tracer` is deliberately not the source — a later
PR moves those spans, and the ledger must not move with them.

A span is ``(id, name, start, end, parent, op, attrs)``: ``parent`` is
the id of the span that was open when this one started (``None`` for a
root), ``op`` is the harness's operation counter, so the spans of one
request share an identifier. Spans stay in memory and are written as
JSONL when the run ends.

Self time is a span's duration minus the part of its interval that its
children cover (:func:`self_times`); per-name totals are what the
``*_share`` metrics are made of.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    attrs: Optional[dict]


class NameTotals(NamedTuple):
    calls: int
    total_s: float
    self_s: float


class SpanRecorder:
    """In-memory span list plus the open-span stack that parents them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.op = -1  # set by the harness before each timed operation
        self._stack: List[int] = []
        self._next_id = 0

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, start: float, end: float, attrs) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(span_id, name, start, end, parent, self.op, attrs))

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        """A span around harness code (phases, the hand-driven train step)."""
        span_id = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(span_id, name, start, self.clock(), attrs or None)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        measure: Optional[Callable[[tuple, object], dict]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a proxy recording span ``name``.

        ``measure(args, result)`` runs after the span has ended (so it
        is never inside the timed interval) and returns the counts
        recorded at this boundary: rows read, nodes sampled, ...
        """
        inner = getattr(owner, attribute)
        clock = self.clock

        def proxy(*args, **kwargs):
            span_id = self._open()
            start = clock()
            try:
                result = inner(*args, **kwargs)
            except BaseException:
                self._close(span_id, name, start, clock(), {"raised": True})
                raise
            end = clock()
            self._close(
                span_id, name, start, end, measure(args, result) if measure else None
            )
            return result

        setattr(owner, attribute, proxy)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged before subtracting, so an interval is never
    subtracted twice. A span whose parent is not in ``spans`` is a root:
    nobody's self time is reduced by it.
    """
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent in by_id:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def totals_by_name(spans: List[Span]) -> Dict[str, NameTotals]:
    """Calls, total time and self time summed per span name."""
    own = self_times(spans)
    totals: Dict[str, NameTotals] = {}
    for span in spans:
        calls, total_s, self_s = totals.get(span.name, NameTotals(0, 0.0, 0.0))
        totals[span.name] = NameTotals(
            calls + 1, total_s + (span.end - span.start), self_s + own[span.id]
        )
    return totals


def attr_sum(spans: List[Span], name: str, key: str) -> float:
    """Sum of one recorded count over every span called ``name``."""
    return sum(
        span.attrs.get(key, 0) for span in spans if span.name == name and span.attrs
    )


def descendants(spans: List[Span], root_name: str) -> List[Span]:
    """The last span called ``root_name`` and everything beneath it."""
    roots = [span for span in spans if span.name == root_name]
    if not roots:
        return []
    keep = {roots[-1].id}
    # Ids are handed out when a span opens, so a parent's id is smaller
    # than its children's: in id order the parent is examined first.
    selected = []
    for span in sorted(spans, key=lambda s: s.id):
        if span.id in keep or span.parent in keep:
            keep.add(span.id)
            selected.append(span)
    return selected
