"""Labelled metric primitives behind a :class:`MetricsRegistry`.

The paper's production claims are all *measured* — inference-time/AUC
trade-offs (Fig. 7), KV read latencies (Figs. 12/13), convergence
timing (Fig. 14) — so the serving and training stacks need first-class
counters rather than ad-hoc lists. This module supplies the three
Prometheus-style primitives:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — a value that can go up and down;
* :class:`Histogram` — fixed cumulative bucket boundaries **plus** a
  bounded :class:`Reservoir` sample, so percentile queries stay
  possible while memory stays O(1) under sustained traffic.

All primitives support labels (``counter.inc(store="mmap")``) and are
thread-safe: one lock per metric guards every mutation, so concurrent
workers (the multi-handle KV loaders, request threads) lose no counts.
:meth:`MetricsRegistry.render` emits the Prometheus text exposition
format, which is what ``repro serve --metrics`` prints at exit.

One rule decides how a number reaches the exposition: **counts are
read, timings are observed**. A tally a component already keeps as a
plain attribute (hits, admitted requests, a graph version, a replica's
state) is not copied into a metric when it changes; the component
hands the registry a source (:meth:`MetricsRegistry.collect`) and the
registry reads the attribute when someone looks. Only what costs a
clock read and is therefore opt-in — the latency histograms, and the
counters taken in the same timed block — is pushed with
``observe`` / ``inc``.

Dependency-free by design: stdlib only, importable from any layer
(storage, graph, serving) without cycles.
"""

from __future__ import annotations

import random
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..util import nearest_rank_index

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reservoir",
    "Sample",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Prometheus-style latency boundaries (seconds). Spans four decades so
#: both a sub-millisecond mmap read and a multi-second epoch land in a
#: discriminating bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Reservoir:
    """Bounded uniform sample of a value stream (Vitter's algorithm R).

    Keeps at most ``capacity`` observations no matter how many are
    offered, each retained observation being a uniform draw over
    everything seen — the standard trick for percentile estimates with
    O(1) memory. Replacement decisions come from a *seeded* PRNG, so
    two identically-fed reservoirs hold identical samples (the same
    determinism the rest of this reproduction demands).

    Not internally locked: callers that share one across threads wrap
    it in their own lock (:class:`Histogram` does).
    """

    def __init__(self, capacity: int = 1024, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: List = []  # floats for histograms; any value works
        self._seen = 0
        self._rng = random.Random(seed)

    def add(self, value) -> None:
        self._seen += 1
        if len(self._items) < self.capacity:
            self._items.append(value)
        else:
            slot = self._rng.randrange(self._seen)
            if slot >= self.capacity:
                return
            self._items[slot] = value

    def extend(self, values: Iterable) -> None:
        for value in values:
            self.add(value)

    @property
    def seen(self) -> int:
        """Total observations offered (not just those retained)."""
        return self._seen

    def values(self) -> List:
        """The retained sample (a copy, at most ``capacity`` long)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        """Iterate the retained sample in place (no copy)."""
        return iter(self._items)

    def clear(self) -> None:
        self._items.clear()
        self._seen = 0


def _label_key(
    label_names: Tuple[str, ...], labels: Dict[str, str], metric: str
) -> Tuple[str, ...]:
    # As many labels as names and every name present: the same sets.
    if len(labels) == len(label_names):
        try:
            return tuple([str(labels[name]) for name in label_names])
        except KeyError:
            pass
    raise ValueError(
        f"{metric}: expected labels {sorted(label_names)}, got {sorted(labels)}"
    )


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(label_names: Sequence[str], key: Sequence[str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"' for name, value in zip(label_names, key)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    # Prometheus renders integral samples without an exponent; repr()
    # keeps full float precision for the rest.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared plumbing: name/help validation, label keys, the lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        return _label_key(self.label_names, labels, self.name)

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines

    def render(self) -> str:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge to decrement")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def render(self) -> str:
        lines = self._header()
        with self._lock:
            for key in sorted(self._values):
                labels = _render_labels(self.label_names, key)
                lines.append(f"{self.name}{labels} {_format_value(self._values[key])}")
        return "\n".join(lines)


class Gauge(_Metric):
    """A point-in-time value that can move both directions."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> str:
        lines = self._header()
        with self._lock:
            for key in sorted(self._values):
                labels = _render_labels(self.label_names, key)
                lines.append(f"{self.name}{labels} {_format_value(self._values[key])}")
        return "\n".join(lines)


class _HistogramState:
    """Per-label-set histogram accumulators: buckets + sum + reservoir.

    ``bucket_counts[i]`` holds the observations whose *first* boundary
    is ``buckets[i]`` (the last slot those above every boundary);
    :meth:`Histogram.render` cumulates them into the ``le`` series.
    """

    __slots__ = ("bucket_counts", "count", "sum", "reservoir")

    def __init__(self, num_buckets: int, reservoir_size: int, seed: int) -> None:
        self.bucket_counts = [0] * (num_buckets + 1)
        self.count = 0
        self.sum = 0.0
        self.reservoir = Reservoir(reservoir_size, seed=seed)


class Histogram(_Metric):
    """Fixed-boundary cumulative histogram with a bounded reservoir.

    The buckets give the Prometheus exposition (``_bucket{le=...}``
    series); the reservoir gives :meth:`percentile` without unbounded
    storage. Both update on every :meth:`observe` under the metric
    lock.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        reservoir_size: int = 1024,
        seed: int = 0,
    ) -> None:
        super().__init__(name, help, labels)
        boundaries = tuple(sorted(float(b) for b in buckets))
        if not boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        if len(set(boundaries)) != len(boundaries):
            raise ValueError("bucket boundaries must be distinct")
        self.buckets = boundaries
        self.reservoir_size = reservoir_size
        self._seed = seed
        self._states: Dict[Tuple[str, ...], _HistogramState] = {}

    def _state(self, key: Tuple[str, ...]) -> _HistogramState:
        state = self._states.get(key)
        if state is None:
            state = _HistogramState(len(self.buckets), self.reservoir_size, self._seed)
            self._states[key] = state
        return state

    def observe(self, value: float, **labels: str) -> None:
        value = float(value)
        key = self._key(labels)
        with self._lock:
            state = self._state(key)
            state.count += 1
            state.sum += value
            state.reservoir.add(value)
            # First boundary >= value; a NaN is below no boundary.
            state.bucket_counts[
                bisect_left(self.buckets, value) if value == value else len(self.buckets)
            ] += 1

    def count(self, **labels: str) -> int:
        key = self._key(labels)
        with self._lock:
            state = self._states.get(key)
            return state.count if state else 0

    def sum(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            state = self._states.get(key)
            return state.sum if state else 0.0

    def percentile(self, q: float, **labels: str) -> float:
        """Reservoir-estimated percentile (``q`` in [0, 100]); NaN when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be within [0, 100]")
        key = self._key(labels)
        with self._lock:
            state = self._states.get(key)
            sample = sorted(state.reservoir.values()) if state else []
        if not sample:
            return float("nan")
        # Nearest-rank on the retained sample — the same selection rule
        # as repro.train.metrics.latency_percentiles, so a p99 from the
        # registry and one from the benchmark tables agree.
        return sample[nearest_rank_index(q, len(sample))]

    def render(self) -> str:
        lines = self._header()
        with self._lock:
            for key in sorted(self._states):
                state = self._states[key]
                at_most = 0
                for boundary, bucket_count in zip(self.buckets, state.bucket_counts):
                    at_most += bucket_count
                    labels = _render_labels(
                        self.label_names, key, extra=f'le="{repr(boundary)}"'
                    )
                    lines.append(f"{self.name}_bucket{labels} {at_most}")
                inf_labels = _render_labels(self.label_names, key, extra='le="+Inf"')
                lines.append(f"{self.name}_bucket{inf_labels} {state.count}")
                plain = _render_labels(self.label_names, key)
                lines.append(f"{self.name}_sum{plain} {_format_value(state.sum)}")
                lines.append(f"{self.name}_count{plain} {state.count}")
        return "\n".join(lines)


#: What a collected source yields per sample: ``(kind, name, help,
#: {label: value}, number)``, kind ``"counter"`` or ``"gauge"``. A
#: ``None`` number declares the family — its ``# HELP`` / ``# TYPE``
#: header renders — without a sample: a labelled family nothing has
#: happened to yet, a level that does not exist yet (no AUC before the
#: first label).
Sample = Tuple[str, str, str, Mapping[str, object], Optional[float]]


class MetricsRegistry:
    """Get-or-create home for every metric in one process.

    ``registry.counter(name, ...)`` returns the existing metric when the
    name is already registered (so two subsystems sharing a metric
    family — e.g. ``kv_read_seconds`` from both the scoring service and
    an instrumented store — compose without coordination), and raises
    when the registered kind or label names conflict.

    Those are the *observed* families. A *collected* family has no
    state here: :meth:`render`, :meth:`get` and :meth:`names` first read
    every source registered with :meth:`collect` into fresh families,
    so what they show is what the components' attributes say right then.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._sources: List[Callable[[], Iterable[Sample]]] = []
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, kwargs: dict) -> _Metric:
        labels = tuple(kwargs.get("labels", ()))
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                if existing.label_names != labels:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names}, not {labels}"
                    )
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, {"help": help, "labels": labels})

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, {"help": help, "labels": labels})

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        reservoir_size: int = 1024,
        seed: int = 0,
    ) -> Histogram:
        return self._get_or_create(
            Histogram,
            name,
            {
                "help": help,
                "labels": labels,
                "buckets": buckets,
                "reservoir_size": reservoir_size,
                "seed": seed,
            },
        )

    def collect(self, source: Callable[[], Iterable[Sample]]) -> None:
        """Read ``source()``, an iterable of :data:`Sample`, on every
        scrape from now on. A source keeps its own reads consistent (a
        component with a lock snapshots under it); two sources reporting
        one ``(name, labels)`` add, as two pushers into one metric did;
        registering a source again is a no-op, so ``instrument(registry)``
        stays idempotent."""
        with self._lock:
            if source not in self._sources:
                self._sources.append(source)

    def _scrape(self) -> Dict[str, _Metric]:
        """Every family by name: the observed ones and, read now into a
        scratch registry, the collected ones. A name that is both raises."""
        with self._lock:
            families = dict(self._metrics)
            sources = list(self._sources)
        scratch = MetricsRegistry()
        declare = {"counter": scratch.counter, "gauge": scratch.gauge}
        for source in sources:
            for kind, name, help, labels, value in source():
                if name in families:
                    raise ValueError(f"metric {name!r} is both observed and collected")
                family = declare[kind](name, help, tuple(labels))
                if value is not None:
                    family.inc(value, **labels)
        families.update(scratch._metrics)
        return families

    def get(self, name: str) -> Optional[_Metric]:
        return self._scrape().get(name)

    def names(self) -> List[str]:
        return sorted(self._scrape())

    def render(self) -> str:
        """Prometheus text exposition over every family."""
        families = self._scrape()
        blocks = [families[name].render() for name in sorted(families)]
        return "\n".join(block for block in blocks if block) + ("\n" if blocks else "")
