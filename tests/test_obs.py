"""Tests for repro.obs: metrics registry, tracing, export, profiler,
and the bounded ServiceStats riding on top of them."""

import json
import re
import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_TRACER,
    Profiler,
    Reservoir,
    Tracer,
    chrome_trace,
    read_jsonl,
    timed,
    write_chrome_trace,
    write_jsonl,
)
from repro.reliability.faults import ManualClock
from repro.serving.stats import ServiceStats


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests.", labels=("rung",))
        counter.inc(rung="gnn")
        counter.inc(2, rung="linked")
        assert counter.value(rung="gnn") == 1
        assert counter.value(rung="linked") == 2
        assert counter.total() == 3

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "Ops.")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth", "Depth.")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4

    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", "Hits.")
        second = registry.counter("hits_total", "Hits.")
        assert first is second

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "X.")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("y_total", "Y.", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("y_total", "Y.", labels=("b",))

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "Nope.")

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "Lat.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = registry.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1.0"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text

    def test_render_is_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "Letter a.").inc()
        registry.gauge("b_depth", "Letter b.").set(2)
        text = registry.render()
        assert text.endswith("\n")
        assert "# HELP a_total Letter a." in text
        assert "# TYPE a_total counter" in text
        assert "# TYPE b_depth gauge" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc_total", "Esc.", labels=("reason",))
        counter.inc(reason='say "hi"\nbye\\')
        text = registry.render()
        assert '\\"hi\\"' in text
        assert "\\n" in text

    def test_thread_safety_no_lost_counts(self):
        """≥4 concurrent threads hammering one registry lose no counts."""
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", "Hammer.", labels=("worker",))
        hist = registry.histogram("hammer_seconds", "Hammer latency.")
        threads, per_thread = 8, 2500

        def hammer(worker):
            for i in range(per_thread):
                counter.inc(worker=str(worker % 2))
                hist.observe(i / per_thread)

        pool = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.total() == threads * per_thread
        assert hist.count() == threads * per_thread

    @pytest.mark.parametrize(
        "labels", [{}, {"rung": "gnn", "extra": "x"}, {"ring": "gnn"}, {"rung": "gnn", "a": 1, "b": 2}]
    )
    def test_wrong_label_names_rejected(self, labels):
        registry = MetricsRegistry()
        counter = registry.counter("labelled_total", "L.", labels=("rung",))
        with pytest.raises(ValueError, match=r"expected labels \['rung'\]"):
            counter.inc(**labels)
        assert counter.total() == 0


# The exposition, at the parent commit (bucket counts kept cumulative by
# a walk over all 16 boundaries per observation), of 40 observations on
# and around every default boundary: per store, the ``le`` series and
# the ``_sum`` text.
_PINNED_VALUES = [
    DEFAULT_LATENCY_BUCKETS[i % 16] * (0.5, 1.0, 1.5)[i % 3] for i in range(36)
] + [0.0, -1.0, 1e9, 20.0]
_PINNED = {
    "a": ([3, 5, 6, 7, 8, 10, 11, 12, 12, 13, 14, 16, 17, 18, 18, 19, 20], "1000000012.24805"),
    "b": ([1, 3, 5, 6, 8, 8, 9, 10, 12, 13, 14, 14, 15, 16, 18, 19, 20], "41.47624999999999"),
}


class TestHistogramBuckets:
    def test_exposition_pinned_byte_for_byte(self):
        registry = MetricsRegistry()
        hist = registry.histogram("pinned_seconds", "Pinned.", labels=("store",))
        for index, value in enumerate(_PINNED_VALUES):
            hist.observe(value, store="ab"[index % 2])
        lines = ["# HELP pinned_seconds Pinned.", "# TYPE pinned_seconds histogram"]
        for store, (cumulative, total) in _PINNED.items():
            edges = [repr(boundary) for boundary in DEFAULT_LATENCY_BUCKETS] + ["+Inf"]
            lines += [
                f'pinned_seconds_bucket{{store="{store}",le="{edge}"}} {count}'
                for edge, count in zip(edges, cumulative)
            ]
            lines.append(f'pinned_seconds_sum{{store="{store}"}} {total}')
            lines.append(f'pinned_seconds_count{{store="{store}"}} 20')
        assert registry.render() == "\n".join(lines) + "\n"

    def test_per_bucket_counts_cumulate_to_the_boundary_walk(self):
        """Reference: the loop ``observe`` used to run — one comparison
        per boundary, every bucket at or above the value incremented."""
        buckets = (0.1, 0.5, 1.0, 2.0)
        rng = np.random.default_rng(0)
        values = list(rng.uniform(-0.5, 3.0, size=200)) + list(buckets)
        values += [float("nan"), float("inf"), -float("inf")]
        want = [0] * len(buckets)
        registry = MetricsRegistry()
        hist = registry.histogram("walk_seconds", "W.", buckets=buckets)
        for value in values:
            hist.observe(value)
            for index, boundary in enumerate(buckets):
                if value <= boundary:
                    want[index] += 1
        text = registry.render()
        for boundary, count in zip(buckets, want):
            assert f'walk_seconds_bucket{{le="{boundary!r}"}} {count}\n' in text
        assert f'walk_seconds_bucket{{le="+Inf"}} {len(values)}\n' in text


# ----------------------------------------------------------------------
# Collected families: counts are read, timings are observed
# ----------------------------------------------------------------------
class TestCollect:
    @staticmethod
    def _source(tally, name="things_total", kind="counter", help="Things."):
        def source():
            for label, value in dict(tally).items():
                yield kind, name, help, {"what": label}, value

        return source

    def test_read_when_scraped_not_when_registered(self):
        registry, tally = MetricsRegistry(), {"a": 1}
        registry.collect(self._source(tally))
        assert 'things_total{what="a"} 1\n' in registry.render()
        tally["a"] = 5
        tally["b"] = 2
        text = registry.render()
        assert 'things_total{what="a"} 5\n' in text and 'things_total{what="b"} 2\n' in text
        assert text.count("# TYPE things_total counter") == 1

    def test_two_sources_reporting_one_sample_add(self):
        registry = MetricsRegistry()
        registry.collect(self._source({"a": 1, "b": 1}))
        registry.collect(self._source({"a": 2}))
        registry.collect(self._source({"x": 3}, name="level", kind="gauge"))
        registry.collect(self._source({"x": 4}, name="level", kind="gauge"))
        text = registry.render()
        assert 'things_total{what="a"} 3\n' in text
        assert 'things_total{what="b"} 1\n' in text
        assert 'level{what="x"} 7\n' in text

    def test_registering_a_source_twice_scrapes_it_once(self):
        registry, stats = MetricsRegistry(), ServiceStats()
        registry.collect(stats._collect)
        registry.collect(stats._collect)  # a second instrument(registry)
        stats.record_admitted()
        assert "service_admitted_total 1\n" in registry.render()

    def test_a_name_both_observed_and_collected_raises(self):
        registry = MetricsRegistry()
        registry.counter("things_total", "Things.", labels=("what",)).inc(what="a")
        registry.collect(self._source({"a": 1}))
        for scrape in (registry.render, registry.names, lambda: registry.get("things_total")):
            with pytest.raises(ValueError, match="both observed and collected"):
                scrape()

    def test_sources_disagreeing_on_kind_or_labels_raise(self):
        registry = MetricsRegistry()
        registry.collect(self._source({"a": 1}))
        registry.collect(self._source({"a": 1}, kind="gauge"))
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.render()
        registry = MetricsRegistry()
        registry.collect(self._source({"a": 1}))
        registry.collect(lambda: [("counter", "things_total", "Things.", {"which": "a"}, 1)])
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.render()
        registry = MetricsRegistry()
        registry.collect(lambda: [("histogram", "h_seconds", "H.", {}, 1.0)])
        with pytest.raises(KeyError):
            registry.render()

    def test_a_declared_family_prints_its_header_without_a_sample(self):
        """What ``service_shed_total`` looks like before anything was
        shed: the pushed metric printed HELP and TYPE and no sample."""
        registry = MetricsRegistry()
        registry.collect(lambda: [("gauge", "level", "A level.", {}, None)])
        assert registry.render() == "# HELP level A level.\n# TYPE level gauge\n"
        registry = MetricsRegistry()
        ServiceStats(registry=registry)
        text = registry.render()
        for name in ("service_shed_total", "service_degraded_total"):
            assert f"# TYPE {name} counter\n" in text
            assert f"\n{name}{{" not in text
        assert "service_admitted_total 0\n" in text

    def test_get_and_names_see_collected_families(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "Lat.")
        registry.collect(self._source({"a": 4}))
        assert registry.names() == ["lat_seconds", "things_total"]
        assert registry.get("things_total").value(what="a") == 4
        assert registry.get("things_total").kind == "counter"
        assert registry.get("nope") is None

    def test_scrape_racing_tallying_threads_is_never_torn(self):
        """Eight threads look up ``[t, t]`` under keys of their own (a
        sampler seed each) right after dropping every entry: one miss
        and one hit per call, counted in one critical section, so any
        consistent reading has ``hits == misses``. A collector that
        read the two attributes one after the other would not."""
        from repro.check import random_hetero_graph
        from repro.graph.cache import SubgraphCache
        from repro.graph.sampling import SageSampler

        graph = random_hetero_graph(np.random.default_rng(0), num_txns=40)
        registry = MetricsRegistry()
        cache = SubgraphCache(capacity=4).instrument(registry)
        threads, calls, failures = 8, 150, []

        def churn(worker):
            sampler = SageSampler(hops=1, fanout=2, seed=worker)
            try:
                for call in range(calls):
                    target = call % graph.num_nodes
                    cache.invalidate()
                    sampled = cache.get_or_sample(graph, sampler, [target, target])
                    assert sampled.target_local.tolist() == [0, 0]  # one component, twice
            except Exception as error:  # pragma: no cover - the failure path
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=churn, args=(w,)) for w in range(threads)]
            for thread in pool:
                thread.start()
            scrapes, seen = 0, 0
            while any(thread.is_alive() for thread in pool):
                text = registry.render()  # one scrape: one reading of both
                hits, misses = (
                    int(re.search(rf'{name}_total{{cache="subgraph"}} (\d+)\n', text).group(1))
                    for name in ("subgraph_cache_hits", "subgraph_cache_misses")
                )
                assert hits == misses >= seen
                scrapes, seen = scrapes + 1, hits
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == [] and scrapes > 0
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == threads * calls
        assert stats["hits"] + stats["misses"] == stats["lookups"]


class TestReservoir:
    def test_bounded_capacity(self):
        reservoir = Reservoir(16, seed=0)
        for i in range(10_000):
            reservoir.extend([float(i)])
        assert len(reservoir.values()) == 16

    def test_deterministic_given_seed(self):
        a, b = Reservoir(8, seed=3), Reservoir(8, seed=3)
        for i in range(1000):
            a.extend([i])
            b.extend([i])
        assert a.values() == b.values()

    @pytest.mark.parametrize("seed", range(4))
    def test_extend_is_a_loop_of_add(self, seed):
        """Bulk extends in chunks that fill the free slots and then cross
        into replacement hold the sample, and draw the slots, of one
        value at a time."""
        rng = np.random.default_rng(seed)
        bulk, loop = Reservoir(32, seed=seed), Reservoir(32, seed=seed)
        for _ in range(40):
            chunk = rng.normal(size=int(rng.integers(0, 24))).tolist()
            bulk.extend(chunk)
            for value in chunk:
                loop.extend([value])
            assert bulk.values() == loop.values()
        assert bulk._rng.random() == loop._rng.random()

    def test_histogram_observe_many_is_a_loop_of_observe(self):
        rng = np.random.default_rng(0)
        bulk, loop = MetricsRegistry(), MetricsRegistry()
        histograms = [
            registry.histogram("h_seconds", "h", labels=("rung",))
            for registry in (bulk, loop)
        ]
        for step in range(30):
            values = rng.exponential(0.01, size=int(rng.integers(0, 9))).tolist()
            if step % 7 == 0:
                values += [float("nan"), 0.005, 10.0 * step]  # a NaN, on a boundary, past all
            rung = ("gnn", "linked")[step % 2]
            histograms[0].observe_many(values, rung=rung)
            for value in values:
                histograms[1].observe(value, rung=rung)
        assert bulk.render() == loop.render()

    def test_holds_arbitrary_items(self):
        reservoir = Reservoir(4, seed=0)
        for i in range(100):
            reservoir.extend([(i % 2, i / 100.0)])
        assert all(isinstance(item, tuple) for item in reservoir.values())


# ----------------------------------------------------------------------
# Tracer / spans
# ----------------------------------------------------------------------
class TestTracer:
    def test_manual_clock_nesting(self):
        """Span tree driven by a ManualClock is fully deterministic."""
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("request", node=7) as request:
            clock.advance(0.010)
            with tracer.span("sample") as sample:
                clock.advance(0.020)
            with tracer.span("forward") as forward:
                clock.advance(0.005)
            clock.advance(0.001)
        assert sample.parent_id == request.span_id
        assert forward.parent_id == request.span_id
        assert sample.trace_id == request.trace_id == forward.trace_id
        assert request.start_s == 0.0
        assert sample.duration_s == pytest.approx(0.020)
        assert forward.duration_s == pytest.approx(0.005)
        assert request.duration_s == pytest.approx(0.036)
        assert [s.name for s in tracer.spans()] == ["sample", "forward", "request"]

    def test_disabled_tracer_is_noop(self):
        span = NULL_TRACER.span("anything", k=1)
        with span as entered:
            entered.set("x", 2)
        assert NULL_TRACER.spans() == []
        # Same shared object every time — no allocation on the hot path.
        assert NULL_TRACER.span("other") is span

    def test_bounded_span_buffer(self, monkeypatch):
        monkeypatch.setattr("repro.obs.trace.MAX_SPANS", 10)
        tracer = Tracer()
        for i in range(25):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans()) == 10
        assert tracer.dropped == 15
        assert tracer.spans()[0].name == "s15"

    def test_threads_do_not_cross_nest(self):
        tracer = Tracer()
        done = threading.Event()

        def other():
            with tracer.span("other-root"):
                done.wait(timeout=5)

        thread = threading.Thread(target=other)
        with tracer.span("main-root"):
            thread.start()
            with tracer.span("main-child") as child:
                pass
        done.set()
        thread.join()
        roots = [s for s in tracer.spans() if s.parent_id is None]
        assert {s.name for s in roots} == {"other-root", "main-root"}
        assert child.parent_id is not None

    def test_timed_measures_on_manual_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with timed(tracer, "epoch", epoch=3) as timer:
            clock.advance(1.5)
        assert timer.seconds == pytest.approx(1.5)
        (span,) = tracer.spans()
        assert span.name == "epoch"
        assert span.attributes["epoch"] == 3
        assert span.duration_s == pytest.approx(1.5)

    def test_timed_without_tracer(self):
        with timed() as timer:
            pass
        assert timer.seconds >= 0.0
        assert timer.span is None


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
class TestExport:
    def _make_spans(self):
        clock = ManualClock(start=2.0)
        tracer = Tracer(clock=clock)
        with tracer.span("request", node=1):
            clock.advance(0.010)
            with tracer.span("forward"):
                clock.advance(0.030)
            clock.advance(0.002)
        return tracer.spans()

    def test_chrome_trace_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        spans = self._make_spans()
        count = write_chrome_trace(spans, str(path))
        assert count == 2
        trace = json.load(open(path))  # must be valid JSON
        events = trace["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        by_name = {e["name"]: e for e in events}
        request, forward = by_name["request"], by_name["forward"]
        # ts are µs relative to the earliest span; durations consistent.
        assert request["ts"] == 0
        assert forward["ts"] == pytest.approx(10_000)
        assert forward["dur"] == pytest.approx(30_000)
        assert request["dur"] == pytest.approx(42_000)
        # Children lie within their parent on the timeline.
        assert request["ts"] <= forward["ts"]
        assert forward["ts"] + forward["dur"] <= request["ts"] + request["dur"]
        assert forward["args"]["parent_id"] == request["args"]["span_id"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        spans = self._make_spans()
        assert write_jsonl(spans, str(path)) == 2
        rows = read_jsonl(str(path))
        # Export orders by start time: the request opens before its child.
        assert [row["name"] for row in rows] == ["request", "forward"]
        assert rows[1]["duration_s"] == pytest.approx(0.030)


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def _tiny_model(self):
        return nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 1))

    def test_records_forward_and_backward(self):
        model = self._tiny_model()
        x = nn.Tensor(np.random.default_rng(0).normal(size=(16, 4)))
        with Profiler() as profiler:
            out = model(x)
            out.sum().backward()
        forward_names = {r.name for r in profiler.records("forward")}
        assert {"Sequential", "Linear", "ReLU"} <= forward_names
        backward_names = {r.name for r in profiler.records("backward")}
        assert "matmul" in backward_names
        linear = next(r for r in profiler.records("forward") if r.name == "Linear")
        assert linear.calls == 2
        assert linear.bytes > 0
        report = profiler.report()
        assert "forward" in report and "backward" in report

    def test_detector_step_has_one_backward_row_per_convolution(
        self, tiny_graph, tiny_splits, detector_config
    ):
        # The convolution is one tape node per layer: its backward is
        # one row, called once per layer — a report someone can read.
        from repro.models import XFraudDetector

        model = XFraudDetector(detector_config)
        with Profiler() as profiler:
            model.loss(tiny_graph, tiny_splits[0][:8]).backward()
        backward = {row.name: row for row in profiler.records("backward")}
        assert backward["hetero_conv"].calls == detector_config.num_layers
        assert backward["hetero_conv"].bytes > 0
        forward = {row.name: row for row in profiler.records("forward")}
        assert forward["HeteroConvLayer"].calls == detector_config.num_layers
        assert "hetero_conv" in profiler.report()

    def test_detector_plus_training_step_records_five_tape_nodes(self, tiny_graph, tiny_splits):
        # Pinned: a node per layer, the targets' rows, the head, the
        # loss. With the head and the loss op by op a step recorded 49.
        from repro.models import DetectorConfig, XFraudDetectorPlus

        model = XFraudDetectorPlus(DetectorConfig(feature_dim=tiny_graph.feature_dim, seed=0))
        optimizer = nn.AdamW(model.parameters(), lr=1e-2)
        model.train()
        with Profiler() as profiler:
            optimizer.zero_grad()
            model.loss(tiny_graph, tiny_splits[0][:32]).backward()
            nn.clip_grad_norm(model.parameters(), 0.25)
            optimizer.step()
        backward = {row.name: row.calls for row in profiler.records("backward")}
        assert backward == {"hetero_conv": 2, "gather": 1, "head": 1, "cross_entropy": 1}

    def test_hooks_restored_after_exit(self):
        call_before = nn.Module.__call__
        make_before = nn.Tensor._make
        with Profiler():
            pass
        assert nn.Module.__call__ is call_before
        assert nn.Tensor._make is make_before

    def test_profilers_do_not_nest(self):
        with Profiler():
            with pytest.raises(RuntimeError):
                with Profiler():
                    pass


# ----------------------------------------------------------------------
# ServiceStats on bounded reservoirs + registry
# ----------------------------------------------------------------------
class TestServiceStats:
    def test_snapshot_shape_unchanged(self):
        stats = ServiceStats()
        stats.record_admitted()
        stats.record_response("gnn", 0.012)
        snapshot = stats.snapshot()
        assert set(snapshot) == {
            "received",
            "admitted",
            "completed",
            "shed",
            "rungs",
            "degraded_reasons",
            "deadline_hits",
            "kv_failures",
            "latency_s",
        }
        assert snapshot["rungs"] == {"gnn": 1}

    def test_latencies_bounded(self):
        from repro.serving.stats import RESERVOIR_SIZE

        stats = ServiceStats()
        for i in range(5000):
            stats.record_response("gnn", i / 5000.0)
        assert len(stats._latencies.values()) == RESERVOIR_SIZE < 5000
        assert stats.completed == 5000
        summary = stats.latency_summary()
        assert set(summary) == {"p50", "p95", "p99"}

    def test_registry_mirroring(self):
        registry = MetricsRegistry()
        stats = ServiceStats(registry=registry)
        stats.record_admitted()
        stats.record_response("linked", 0.004, degraded_reason="kv_unavailable")
        stats.record_shed("queue_full")
        text = registry.render()
        assert 'service_request_latency_seconds_count{rung="linked"} 1' in text
        assert 'service_shed_total{reason="queue_full"} 1' in text
        assert 'service_degraded_total{reason="kv_unavailable"} 1' in text
        assert "service_admitted_total 1" in text


def test_default_latency_buckets_sorted():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
