"""Tests of the ledger harness itself.

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Not part of the tier-1 suite (``testpaths = ["tests"]``): the repeat
test starts eight small benchmark processes and takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
sys.path.insert(0, os.path.join(ROOT, "src"))

import agree  # noqa: E402
import metrics  # noqa: E402
from tracing import Span, SpanRecorder, descendants, self_times, totals_by_name  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, os.path.join(LEDGER_DIR, "run.py")]


def span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, 0, None)


# -- self-time arithmetic -------------------------------------------------
def test_self_time_subtracts_each_covered_interval_once():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 6.0, parent=0),  # overlaps a on [3, 4]
        span(3, "leaf", 1.5, 2.0, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)  # children cover [1, 6] once
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)


def test_self_time_zero_width_and_out_of_range_children():
    spans = [
        span(0, "root", 2.0, 4.0),
        span(1, "marker", 3.0, 3.0, parent=0),  # zero width
        span(2, "early", 1.0, 2.5, parent=0),  # starts before the parent
        span(3, "late", 3.5, 9.0, parent=0),  # ends after the parent
    ]
    own = self_times(spans)
    assert own[1] == 0.0
    assert own[0] == pytest.approx(2.0 - 0.5 - 0.5)  # children clipped to [2, 4]


def test_span_with_missing_parent_is_a_root():
    spans = [span(0, "root", 0.0, 5.0), span(7, "orphan", 1.0, 2.0, parent=99)]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)  # nobody's time is reduced by the orphan
    assert own[7] == pytest.approx(1.0)
    assert totals_by_name(spans)["orphan"].calls == 1


def test_recorder_parents_ops_and_counts():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    class Store:
        def get(self, key):
            return b"abc"

        def fail(self):
            raise KeyError("gone")

    store = Store()
    rec.wrap(store, "get", "storage.get", lambda args, out: {"bytes": len(out)})
    rec.wrap(store, "fail", "storage.fail")
    with rec.span("warm"):
        store.get("k")
    rec.op = 5
    with rec.span("harness.timed"):
        assert store.get("k") == b"abc"
        with pytest.raises(KeyError):
            store.fail()
    timed = descendants(rec.spans, "harness.timed")
    assert [s.name for s in timed] == ["harness.timed", "storage.get", "storage.fail"]
    root, get, fail = timed
    assert get.parent == root.id and fail.parent == root.id and root.parent is None
    assert get.op == 5 and get.attrs == {"bytes": 3} and fail.attrs == {"raised": True}
    own = self_times(timed)
    assert sum(own.values()) == pytest.approx(root.end - root.start)


# -- BENCHMARK.json agrees with the code ----------------------------------
def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert benchmark["paths"] == ["benchmarks/ledger"]
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (cls.name, cls.why) for cls in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 for w in benchmark["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]] == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    listed = {name for name, _, _ in metrics.PER_LAYER}
    assert set(metrics.SELF_SHARES) <= listed and set(agree.EXACT_COUNTS) <= listed


# -- agreement tool --------------------------------------------------------
def ledger(throughput, p50, fail_share=0.0, crc=1):
    values = {"setup_s": 2.0, "throughput_per_s": throughput, "latency_p50_ms": p50,
              "latency_p95_ms": 5.0, "auc": 0.6, "peak_rss_mb": 500.0, "fail_share": fail_share}
    return {"serve_cold": {"seed": 0, "end_to_end": values, "exact": {"scores_crc32": crc, "auc": 0.6}}}


BOUNDS = [
    {"name": "throughput_per_s", "better": "higher", "bound": 0.08},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.08},
]


def test_agree_flags_only_what_got_worse_beyond_its_bound():
    assert agree.compare(ledger(300, 3.0), ledger(290, 3.1), BOUNDS)[1]
    assert agree.compare(ledger(300, 3.0), ledger(400, 2.0), BOUNDS)[1]  # better is not a disagreement
    rows, agreed = agree.compare(ledger(300, 3.0), ledger(270, 3.0), BOUNDS)
    assert not agreed and sum("exceeds" in row for row in rows) == 1
    assert not agree.compare(ledger(300, 3.0), ledger(300, 3.3), BOUNDS)[1]
    assert not agree.compare(ledger(300, 3.0), ledger(300, 3.0, fail_share=0.001), BOUNDS)[1]
    rows, agreed = agree.compare(ledger(300, 3.0), ledger(300, 3.0, crc=2), BOUNDS)
    assert not agreed and any("differs in ['scores_crc32']" in row for row in rows)


# -- the harness, end to end, at 2% size -----------------------------------
def run_small(workload, out):
    command = RUN + ["--workload", workload, "--trace", "1", "--ops-scale", "0.02", "--out", str(out)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [name for name, _, _ in metrics.PER_LAYER]
    with open(os.path.join(out, f"{workload}.json")) as handle:
        result = json.load(handle)
    with open(os.path.join(out, f"{workload}.trace.jsonl")) as handle:
        first = json.loads(handle.readline())
    assert set(first) == {"id", "name", "start", "end", "parent", "op", "attrs"}
    return result


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_and_outputs_repeat_exactly_for_a_seed(workload, tmp_path):
    first = run_small(workload, tmp_path / "a")
    second = run_small(workload, tmp_path / "b")
    assert first["exact"] == second["exact"]
    for count in agree.EXACT_COUNTS:
        assert first["per_layer"][count] == second["per_layer"][count], count
    assert abs(first["share_sum"] - 1.0) < 0.01
    assert first["end_to_end"]["fail_share"] == 0.0
    assert {"nproc", "cpu_model", "python", "numpy", "blas_thread_pin", "git_commit"} <= set(first["env"])
    assert not os.path.exists(os.path.join(LEDGER_DIR, ".work"))  # the WAL scratch is removed


def test_exits_non_zero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "serve_cold", "--seed", "0",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
