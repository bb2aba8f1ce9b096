#!/usr/bin/env python3
"""One ledger for the three end-to-end paths: serve, stream, train.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed S]
        [--seconds N] [--trace 0|1] [--out DIR] [--ops-scale F]

With ``--workload`` the workload runs in this process: set-up, a
discarded warm-up, then a timed phase of a fixed operation count. With
``--trace 1`` an identical second pass follows with the timing proxies
of :mod:`tracing` installed; the first pass still gives the end-to-end
numbers, the second the per-layer ones, and the ratio of their walls is
the tracing overhead. Without ``--workload`` every workload runs in its
own child process (so peak RSS is per workload) and ``--out`` collects
them into ``ledger.json``.

Every metric is printed by name with its unit. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
WORK_ROOT = os.path.join(LEDGER_DIR, ".work")  # WAL segments; removed when the run ends

# The box has two shared cores: a second BLAS thread measures the
# scheduler, not the program. The pin must be in the environment before
# numpy is first imported, so it sits above the imports that pull it in.
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import metrics  # noqa: E402
from speed import at_reference_speed  # noqa: E402
from tracing import SpanRecorder, descendants  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
SHARE_SUM_TOLERANCE = 0.01


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload, in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="reaches only the traffic generators")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="sizes the timed phase: nominal rate x seconds operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: repeat the workload under timing proxies, report per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    parser.add_argument("--out", help="directory for <workload>.json, the JSONL trace and ledger.json")
    parser.add_argument("--ops-scale", type=float, default=1.0,
                        help="harness-only size factor for tests; never a committed number")
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly (no process started)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"  # not a git checkout, or the ref is packed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, object]:
    """What a ledger diff needs to tell a code change from a machine change."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_thread_pin": THREAD_PIN,
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


class Pass:
    """One set-up -> warm-up -> timed sequence and what it measured.

    Times are at reference speed (see :mod:`speed`) unless named raw.
    """

    def __init__(self, cls, args: argparse.Namespace, workdir: str, rec=None) -> None:
        os.makedirs(workdir)
        self.workload = cls(args.seed, args.seconds, args.ops_scale, workdir)
        phases, self.setup_s, factor = at_reference_speed(self.workload.setup)
        self.setup_phases = {name: seconds / factor for name, seconds in phases.items()}
        try:
            if rec is not None:
                self.workload.instrument(rec)
            started = time.perf_counter()
            self.workload.warmup(rec)
            self.warmup_s = time.perf_counter() - started
            before = self.workload.counters()
            self.outcome = self.workload.timed(rec)
            after = self.workload.counters()
            self.peak_rss_mb = peak_rss_mb()
        finally:
            self.workload.close()
        self.delta = {name: after[name] - before[name] for name in after}


def time_setup(cls, args: argparse.Namespace, workdir: str) -> float:
    os.makedirs(workdir)
    workload = cls(args.seed, args.seconds, args.ops_scale, workdir)
    _, seconds, _ = at_reference_speed(workload.setup)
    workload.close()
    return seconds


def measure(args: argparse.Namespace, workdir: str):
    """Run one workload; returns the result record and the span recorder
    (``None`` on an untraced run)."""
    cls = WORKLOADS[args.workload]
    started = time.perf_counter()
    plain = Pass(cls, args, os.path.join(workdir, "plain"))
    failures = list(plain.outcome.failures)
    setup_runs = [plain.setup_s]
    result: Dict[str, object] = {
        "workload": cls.name,
        "why": cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops_scale": args.ops_scale,
        "trace": args.trace,
        "env": environment(),
        "op_counts": plain.workload.op_counts(),
        "attempted": plain.outcome.attempted,
        "failed": plain.outcome.failed,
        "exact": dict(plain.outcome.exact, auc=plain.outcome.auc),
        "harness_counts": plain.outcome.extra,
    }
    phases = {
        "setup": plain.setup_phases,
        "warmup": plain.warmup_s,
        "timed": plain.outcome.meter.wall_s,
        "timed_raw": plain.outcome.meter.raw_wall_s,
        "speed_factor": plain.outcome.meter.factor,
    }
    rec = None
    if args.trace:
        rec = SpanRecorder()
        traced = Pass(cls, args, os.path.join(workdir, "traced"), rec)
        setup_runs.append(traced.setup_s)
        failures += [f"traced pass: {failure}" for failure in traced.outcome.failures]
        if traced.outcome.exact != plain.outcome.exact or traced.outcome.auc != plain.outcome.auc:
            failures.append(
                f"traced pass outputs differ from the untraced pass: "
                f"{dict(traced.outcome.exact, auc=traced.outcome.auc)} != {result['exact']}"
            )
        spans = descendants(rec.spans, "harness.timed")
        stray = metrics.unmapped_spans(spans)
        if stray:
            failures.append(f"spans no share accounts for: {stray}")
        traced_wall = spans[0].end - spans[0].start
        layers = metrics.per_layer(
            spans,
            traced.delta,
            traced.outcome.extra,
            traced_wall,
            traced.workload.profiler,
        )
        share_sum = sum(layers[name] for name in metrics.SELF_SHARES)
        if abs(share_sum - 1.0) > SHARE_SUM_TOLERANCE:
            failures.append(f"shares sum to {share_sum:.4f} of the traced wall, not 1")
        layers["warmup_s"] = plain.warmup_s
        for name in ("generate", "fit", "kv_populate", "graph_build"):
            layers[f"setup.{name}_s"] = plain.setup_phases.get(name, 0.0)
        # Overhead must be stated beside every share: the proxies slow
        # the layers they wrap, the cheapest calls the most.
        layers["trace.overhead_share"] = traced.outcome.meter.wall_s / plain.outcome.meter.wall_s - 1.0
        result["per_layer"] = layers
        result["share_sum"] = share_sum
        phases["traced_timed"] = traced.outcome.meter.wall_s
    else:
        # Set-up again, after the measured path and after peak RSS was
        # read, so that setup_s is a median and the repeats disturb nothing.
        for repeat in range(1, SETUP_REPEATS):
            setup_runs.append(time_setup(cls, args, os.path.join(workdir, f"setup{repeat}")))
    phases["setup_runs"] = setup_runs
    phases["total"] = time.perf_counter() - started
    result["phases_s"] = phases
    result["end_to_end"] = metrics.end_to_end(
        plain.outcome, statistics.median(setup_runs), plain.peak_rss_mb
    )
    result["failures"] = failures
    result["correct"] = not failures
    return result, rec


def report(result: Dict[str, object]) -> None:
    """Every metric by name with its unit, then the checks."""
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']:g}  "
          f"ops-scale {result['ops_scale']:g}  trace {result['trace']}")
    env = result["env"]
    print(f"  env: nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
          f"numpy {env['numpy']}, BLAS threads 1, commit {env['git_commit'][:12]}")
    print(f"  ops: {result['op_counts']}")
    values = result["end_to_end"]
    for name, unit, _ in metrics.END_TO_END + [metrics.FAIL_SHARE]:
        print(f"  {name:<42} {values[name]:>16.6f} {unit}")
    print(f"  {'latency_p99_ms (information only)':<42} {values['latency_p99_ms']:>16.6f} ms")
    print(f"  {'latency_samples':<42} {values['latency_samples']:>16d} count")
    print(f"  attempted {result['attempted']}  succeeded {result['attempted'] - result['failed']}  "
          f"failed {result['failed']}")
    if "per_layer" in result:
        for name, unit, _ in metrics.PER_LAYER:
            print(f"  {name:<42} {result['per_layer'][name]:>16.6f} {unit}")
        print(f"  shares sum to {result['share_sum']:.6f} of the traced wall")
    phases = result["phases_s"]
    print(f"  phases: set-up runs {[round(s, 3) for s in phases['setup_runs']]} s, "
          f"warm-up {phases['warmup']:.3f} s (raw), timed {phases['timed']:.3f} s "
          f"({phases['timed_raw']:.3f} s raw at speed factor {phases['speed_factor']:.3f}), "
          f"total {phases['total']:.3f} s (raw)")
    print(f"  exact for this seed: {result['exact']}")
    for failure in result["failures"]:
        print(f"  FAILED CHECK: {failure}")
    print(f"  checks: {'ok' if result['correct'] else 'FAILED'}")


def contract_line(result: Dict[str, object]) -> str:
    """The one JSON object the driver reads from the last line."""
    if result["trace"]:
        listed, values = metrics.PER_LAYER, result["per_layer"]
    else:
        listed, values = metrics.END_TO_END, result["end_to_end"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in listed},
        }
    )


def run_one(args: argparse.Namespace) -> int:
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result, rec = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    report(result)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"{args.workload}.json"), "w") as handle:
            json.dump(result, handle, indent=1)
        if rec is not None:
            rec.write_jsonl(os.path.join(args.out, f"{args.workload}.trace.jsonl"))
    print(contract_line(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; ``--out`` gathers ledger.json."""
    started = time.perf_counter()
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--ops-scale", str(args.ops_scale)]
        if args.out:
            command += ["--out", args.out]
        status |= subprocess.run(command, check=False).returncode
    total = time.perf_counter() - started
    print(f"all workloads: {total:.1f} s wall, {'ok' if status == 0 else 'FAILED'}")
    if args.out and status == 0:
        ledger = {"total_wall_s": total, "workloads": {}}
        for name in WORKLOADS:
            with open(os.path.join(args.out, f"{name}.json")) as handle:
                ledger["workloads"][name] = json.load(handle)
        with open(os.path.join(args.out, "ledger.json"), "w") as handle:
            json.dump(ledger, handle, indent=1)
    return 1 if status else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
