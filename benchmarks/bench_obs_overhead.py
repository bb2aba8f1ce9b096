"""Observability overhead — what tracing + metrics cost one request.

The obs layer is wired into the hottest path in the repo: every
``ScoringService.score`` call opens a span tree and, with a registry
attached, lands in latency histograms. That cost is a fixed number of
span and histogram operations per request, so the budget is stated in
**microseconds per request**, not as a share of p50: the share doubles
whenever the forward gets twice as fast (it did, when ``predict_proba``
became a plain-array kernel) although nothing about tracing changed.

Three services — instrumentation off (NULL_TRACER), tracing + metrics
on, tracer constructed but disabled — score the same request stream
*interleaved*: each request goes to all three back to back, in rotating
order, and the overhead is the median of the per-request differences.
The box's speed drifts by tens of per cent over seconds, which a
run-A-then-run-B comparison of two p50s reads as overhead (or as a
negative one); adjacent calls share the drift and their difference
does not.
"""

import time

import numpy as np

from _helpers import format_table, write_result
from repro import (
    DetectorConfig,
    MetricsRegistry,
    ScoringService,
    ServiceConfig,
    TrainConfig,
    Trainer,
    Tracer,
    XFraudDetectorPlus,
)
from repro.data import ebay_small_sim

REQUESTS = 600
WARMUP = 30

#: The budget: what tracing + metrics, and a constructed-but-disabled
#: tracer, may add to one request. Five runs on the reference box read
#: +54..+69 us and -6..+5 us. The asserts allow half the budget on top
#: (the box's speed factor ranges 0.97-1.42, and absolute times scale
#: with it) — never more slack than the claim itself.
TRACED_BUDGET_US = 80.0
DISABLED_BUDGET_US = 10.0
SLACK = 0.5


def _median_us(seconds) -> float:
    return float(np.median(seconds)) * 1e6


def test_obs_overhead(benchmark):
    bundle = ebay_small_sim(seed=0, scale=0.3)
    graph = bundle.graph
    model = XFraudDetectorPlus(DetectorConfig(feature_dim=graph.feature_dim, seed=0))
    Trainer(model, TrainConfig(epochs=1, batch_size=2048, seed=0)).fit(
        graph, bundle.train_nodes
    )
    nodes = np.resize(np.asarray(bundle.test_nodes, dtype=np.int64), WARMUP + REQUESTS)

    config = ServiceConfig(deadline_s=5.0)
    services = {
        "off (no tracer)": ScoringService(model, graph, config=config),
        "tracing + metrics": ScoringService(
            model, graph, config=config, tracer=Tracer(), registry=MetricsRegistry()
        ),
        "tracer disabled": ScoringService(
            model, graph, config=config, tracer=Tracer(enabled=False)
        ),
    }
    names = list(services)
    latencies = {name: [] for name in names}
    try:
        for position, node in enumerate(nodes):
            for offset in range(len(names)):
                name = names[(position + offset) % len(names)]
                started = time.perf_counter()
                services[name].score(int(node))
                elapsed = time.perf_counter() - started
                if position >= WARMUP:
                    latencies[name].append(elapsed)
        benchmark.pedantic(
            lambda: services["tracing + metrics"].score(int(nodes[0])),
            rounds=30,
            iterations=1,
        )
    finally:
        for service in services.values():
            service.close()

    off = np.asarray(latencies[names[0]])
    overhead_us = {name: _median_us(np.asarray(latencies[name]) - off) for name in names[1:]}
    rows = [[names[0], f"{_median_us(off) / 1e3:.3f}ms", "-", "-"]]
    for name, budget in zip(names[1:], (TRACED_BUDGET_US, DISABLED_BUDGET_US)):
        rows.append(
            [
                name,
                f"{_median_us(latencies[name]) / 1e3:.3f}ms",
                f"{overhead_us[name]:+.1f}us",
                f"{budget:.0f}us",
            ]
        )
    text = (
        f"Observability overhead — ScoringService.score, {REQUESTS} requests "
        "interleaved across the three services\n"
        + format_table(
            ["Instrumentation", "p50", "median paired overhead / request", "budget"], rows
        )
    )
    path = write_result("obs_overhead", text)
    print("\n" + text + f"\n-> {path}")

    assert overhead_us["tracing + metrics"] < TRACED_BUDGET_US * (1 + SLACK)
    assert overhead_us["tracer disabled"] < DISABLED_BUDGET_US * (1 + SLACK)
