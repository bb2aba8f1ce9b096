"""Observability overhead — what tracing + metrics cost one request.

The obs layer is wired into the hottest path in the repo: every
``ScoringService.score`` call opens a span tree and, with a registry
attached, lands in latency histograms. That cost is a fixed number of
span and histogram operations per request, so the budget is stated in
**microseconds per request**, not as a share of p50: the share doubles
whenever the forward gets twice as fast (it did, when ``predict_proba``
became a plain-array kernel) although nothing about tracing changed.

Four services — instrumentation off (NULL_TRACER), tracing + metrics
on, metrics only (a registry, no tracer), tracer constructed but
disabled — score the same request stream *interleaved*: each request
goes to all four back to back, in an order shuffled per request (seeded),
and the overhead is the median of the per-request differences. The
order is shuffled, not rotated, because a rotation gives every service a
fixed predecessor and the slot after a registry-carrying service is
slower than the slot after an uninstrumented one: a control fourth
service constructed exactly like the first read +5..+9 us in rotation
and -4..+4 us shuffled. The metrics-only row is what
separates the two costs: with a registry attached a request observes
its latency histogram and times the walk it asked the sampler for (a
clock pair, one ``Histogram.observe``, one ``Counter.inc``); the
tallies cost nothing per request — the registry reads them when it is
scraped. All four services score through ONE model: a service observes
into its own registry and leaves nothing on the shared sampler.
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

#: The budget: what each kind of instrumentation may add to one
#: request, at the reference box's speed (uninstrumented p50 0.60-0.70
#: ms). Ten runs read +68..+91 us (tracing + metrics), +18..+39 us
#: (metrics only) and -5..+9 us (tracer disabled) with the box 0.9-1.3x
#: that speed; the seven of them inside 0.60-0.70 ms read at most +83.9,
#: +30.4 and +8.9, rounded up to the next 5. (100 and 50 before the
#: service timed its own walk: the sampler then read the clock and
#: observed a histogram per hop.) The asserts allow half the budget on
#: top (the box's speed factor ranges 0.9-1.5, and absolute times scale
#: with it) — never more slack than the claim itself.
BUDGET_US = {
    "tracing + metrics": 85.0,
    "metrics only (no tracer)": 35.0,
    "tracer disabled": 10.0,
}
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
    instrumentation = {
        "off (no tracer)": {},
        "tracing + metrics": {"tracer": Tracer(), "registry": MetricsRegistry()},
        "metrics only (no tracer)": {"registry": MetricsRegistry()},
        "tracer disabled": {"tracer": Tracer(enabled=False)},
    }
    services = {
        name: ScoringService(model, graph, config=config, **obs)
        for name, obs in instrumentation.items()
    }
    names = list(services)
    latencies = {name: [] for name in names}
    order = np.random.default_rng(0)
    try:
        for position, node in enumerate(nodes):
            for name in order.permutation(names):
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
    for name in names[1:]:
        rows.append(
            [
                name,
                f"{_median_us(latencies[name]) / 1e3:.3f}ms",
                f"{overhead_us[name]:+.1f}us",
                f"{BUDGET_US[name]:.0f}us",
            ]
        )
    text = (
        f"Observability overhead — ScoringService.score, {REQUESTS} requests "
        f"interleaved across the {len(names)} services\n"
        + format_table(
            ["Instrumentation", "p50", "median paired overhead / request", "budget"], rows
        )
    )
    path = write_result("obs_overhead", text)
    print("\n" + text + f"\n-> {path}")

    for name, budget in BUDGET_US.items():
        assert overhead_us[name] < budget * (1 + SLACK), name
