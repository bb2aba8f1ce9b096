"""Nested span tracing with an injectable clock.

A :class:`Tracer` produces :class:`Span` context managers that nest —
each thread keeps its own active-span stack, so a span opened inside
another becomes its child (parent/child ids recorded), and concurrent
request threads never cross wires. The clock is injectable: production
uses ``time.perf_counter``; chaos tests and the ``repro serve --demo``
storyline inject a :class:`~repro.reliability.faults.ManualClock` so
every span's ``ts``/``dur`` is simulated and bit-reproducible.

Finished spans accumulate in a bounded buffer (oldest-first drop
counting, never unbounded growth) and export through
:mod:`repro.obs.export` as Chrome ``chrome://tracing`` JSON.

A tracer constructed with ``enabled=False`` (or the module-level
:data:`NULL_TRACER`) hands out a shared no-op span, so instrumented
hot paths cost one attribute check and nothing else when tracing is
off.

:class:`timed` is the one timing helper the training stack shares —
it replaces the hand-rolled ``time.perf_counter()`` pairs that used to
be copy-pasted across ``Trainer.fit``, ``DistributedTrainer`` and
``measure_inference_time``, and optionally emits a span on a tracer
while doing so.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "NULL_TRACER", "timed"]

#: Finished spans a :class:`Tracer` retains before dropping the oldest.
MAX_SPANS = 100_000


class Span:
    """One timed operation; use as a context manager via :meth:`Tracer.span`.

    Attributes are free-form key/values (``span.set("rung", "gnn")``).
    ``end_s`` is ``None`` until the span finishes.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start_s",
        "end_s",
        "attributes",
        "thread_id",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        trace_id: int,
        start_s: float,
        thread_id: int,
        tracer: "Tracer",
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.thread_id = thread_id
        self._tracer = tracer

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; chainable."""
        self.attributes[key] = value
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"dur={self.duration_s:.6f})"
        )


class _NullSpan:
    """Shared do-nothing span handed out by disabled tracers. Falsy, so
    a hot path can skip *computing* an attribute nobody will record:
    ``if span: span.set("rows", expensive())``."""

    __slots__ = ()
    name = ""
    span_id = -1
    parent_id = None
    trace_id = -1
    attributes: Dict[str, Any] = {}
    duration_s = 0.0

    def __bool__(self) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Produces nested spans; thread-safe; clock injectable.

    Parameters
    ----------
    clock:
        Zero-argument monotonic time source. Defaults to
        ``time.perf_counter``; inject a ``ManualClock`` for
        deterministic chaos traces.
    enabled:
        When false every :meth:`span` call returns the shared no-op
        span — the disabled fast path adds no measurable overhead.

    At most :data:`MAX_SPANS` finished spans are retained; beyond it the
    oldest are dropped and :attr:`dropped` counts them, keeping a
    long-running service O(1).
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, enabled: bool = True
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.dropped = 0
        self._finished: List[Span] = []
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle -------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attributes: Any):
        """Open a span; nests under the thread's current span."""
        if not self.enabled:
            return _NULL_SPAN
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            trace_id=parent.trace_id if parent else span_id,
            start_s=self.clock(),
            thread_id=threading.get_ident(),
            tracer=self,
            attributes=attributes,
        )
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end_s = self.clock()
        stack = self._stack()
        # Pop up to (and including) this span; tolerates exceptional
        # exits that skipped inner __exit__ calls.
        while stack:
            top = stack.pop()
            if top is span:
                break
        with self._lock:
            self._finished.append(span)
            if len(self._finished) > MAX_SPANS:
                overflow = len(self._finished) - MAX_SPANS
                del self._finished[:overflow]
                self.dropped += overflow

    # -- inspection -----------------------------------------------------
    def spans(self) -> List[Span]:
        """Finished spans, oldest first (at most :data:`MAX_SPANS`)."""
        with self._lock:
            return list(self._finished)


#: Shared disabled tracer: instrument code paths unconditionally and
#: let callers opt in by passing a real tracer.
NULL_TRACER = Tracer(enabled=False)


class timed:
    """Measure a block's wall time; optionally emit a span too.

    The single timing helper behind every ``started = perf_counter()``
    pair this repo used to hand-roll::

        with timed() as timer:
            loss = train_epoch(...)
        record.seconds = timer.seconds

    With a tracer the same block also lands in the trace::

        with timed(tracer, "epoch", epoch=3) as timer:
            ...

    The clock defaults to the tracer's (keeping span ``dur`` and
    ``timer.seconds`` on one timeline — essential under a
    ``ManualClock``) and to ``time.perf_counter`` without one.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        name: str = "timed",
        clock: Optional[Callable[[], float]] = None,
        **attributes: Any,
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        if clock is not None:
            self._clock = clock
        elif tracer is not None and tracer.enabled:
            self._clock = tracer.clock
        else:
            self._clock = time.perf_counter
        self.seconds = 0.0
        self.span = None

    def __enter__(self) -> "timed":
        if self._tracer is not None:
            self.span = self._tracer.span(self._name, **self._attributes)
            self.span.__enter__()
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = self._clock() - self._start
        if self.span is not None:
            self.span.__exit__(*exc_info)
