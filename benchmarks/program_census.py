"""Program census: which ``src/repro`` functions does no program reach?

A function outside ``repro.check`` needs a program user (DESIGN.md,
"Every function has a program user"). This script runs every program
the repository has, each in its own process under ``sys.setprofile`` and
``threading.setprofile``:

- the four ledger workloads (``benchmarks/ledger/run.py --ops-scale 0.02
  --trace 1``, as CI runs them);
- every ``python -m repro`` command in ``.github/workflows/ci.yml``, plus
  ``datasets``, ``evaluate``, ``score``, ``explain``, ``pipeline``, a GAT
  ``train`` and ``stream`` with ``--wal-dir`` and ``--checkpoint-dir``;
- ``examples/*.py``;
- 17 benches: the 15 paper-table and figure benches, the degraded-rung
  bench and the elastic-overhead bench.

It writes ``benchmarks/results/program_census.txt``: each function under
``src/repro`` outside ``check/`` that no program called, with its line
count (from the AST, with the blank lines above the definition), split
into those kept for a stated reason (``KEPT``) and the rest, which should
be empty. Text after the ``NOTES`` marker in the existing file is kept
when the file is rewritten.

How a call is attributed:

- a call counts only when no ``repro/check/`` frame is on the stack: what
  the harness calls has a spec as its user, not a program;
- a nested function is part of the function that defines it;
- an unreached function that only unreached functions were seen calling
  (under the harness) is folded into its outermost caller.

The census is function-level: a reached function's dead branches are not
counted. It slows the timed code it runs, so it is a census, not a
timing. Programs run in a temporary copy of the repository, so the
benches rewrite their results files there, not here.

Usage (no flags)::

    python benchmarks/program_census.py
"""

from __future__ import annotations

import ast
import collections
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTPUT = os.path.join(HERE, "results", "program_census.txt")
PACKAGE = os.path.join("src", "repro")
EXCLUDED = os.path.join(PACKAGE, "check")
NOTES = "## Notes"

#: (label, argv); ``{tmp}`` is a scratch directory of the copy.
_LEDGER = [
    (f"ledger {name}", ["benchmarks/ledger/run.py", "--workload", name, "--ops-scale", "0.02", "--trace", "1"])
    for name in ("serve_cold", "serve_hot", "stream_ingest", "train_epoch")
]
_SERVE_DEMO = ["serve", "--demo", "--scale", "0.1", "--epochs", "1", "--requests", "30", "--burst", "14"]
_ELASTIC_RESUME = [
    "train", "--elastic", "--workers", "4", "--scale", "0.1", "--model", "gem", "--epochs", "4",
    "--batch-size", "512", "--kill-at", "1:2", "--rejoin-at", "3:2", "--checkpoint-dir", "{tmp}/elastic",
]
_CLI = [
    # ci.yml, job by job
    _SERVE_DEMO,
    _SERVE_DEMO + ["--replicas", "3", "--health"],
    ["healthcheck", "--replicas", "3", "--keys", "60", "--kill-replica", "1", "--metrics"],
    _SERVE_DEMO + ["--metrics", "--trace-out", "{tmp}/serve-trace.json"],
    ["train", "--scale", "0.1", "--epochs", "2", "--trace-out", "{tmp}/train-trace.json"],
    ["train", "--elastic", "--workers", "8", "--chaos", "--scale", "0.1", "--epochs", "5", "--batch-size", "512"],
    ["stream", "--demo", "--scale", "0.15", "--events", "160", "--epochs", "1", "--batch-size", "8",
     "--compact-every", "24", "--runs", "2", "--metrics"],
    ["healthcheck", "--replicas", "2", "--keys", "32", "--stream-events", "24"],
    ["check", "--fuzz", "150", "--seed", "0"],
    ["train", "--scale", "0.1", "--model", "gem", "--epochs", "2", "--checkpoint-dir", "{tmp}/ckpts"],
    ["train", "--scale", "0.1", "--model", "gem", "--epochs", "4", "--checkpoint-dir", "{tmp}/ckpts", "--resume"],
    _ELASTIC_RESUME + ["--stop-after-epoch", "1"],
    _ELASTIC_RESUME + ["--resume"],
    # the subcommands CI does not run
    ["datasets", "--scale", "0.1"],
    ["train", "--scale", "0.1", "--epochs", "2", "--save", "{tmp}/model.npz"],
    ["evaluate", "--scale", "0.1", "--load", "{tmp}/model.npz"],
    ["score", "--scale", "0.1", "--load", "{tmp}/model.npz"],
    ["explain", "--scale", "0.1", "--epochs", "2", "--explainer-epochs", "20", "--dot"],
    ["pipeline"],
    ["train", "--scale", "0.1", "--model", "gat", "--epochs", "2"],
    ["stream", "--demo", "--scale", "0.1", "--events", "64", "--epochs", "1", "--runs", "1",
     "--wal-dir", "{tmp}/wal", "--checkpoint-dir", "{tmp}/stream-ckpts"],
]
_BENCHES = [
    "bench_ablation_aggregation", "bench_agg_methods", "bench_case_studies", "bench_convergence",
    "bench_curves", "bench_datasets", "bench_end_to_end", "bench_feature_only", "bench_hybrid",
    "bench_kvstore", "bench_sampler_ablation", "bench_survey", "bench_table1_centrality",
    "bench_thresholds", "bench_tradeoff", "bench_degraded_rung", "bench_elastic_overhead",
]
PROGRAMS: List[Tuple[str, List[str]]] = (
    _LEDGER
    + [("repro " + " ".join(argv), ["-m", "repro"] + argv) for argv in _CLI]
    + [(f"examples/{name}", [f"examples/{name}"])
       for name in sorted(os.listdir(os.path.join(ROOT, "examples"))) if name.endswith(".py")]
    + [(name, ["-m", "pytest", f"benchmarks/{name}.py", "-q", "-p", "no:cacheprovider"]) for name in _BENCHES]
)

_RECOVERY = "a recovery path with no program yet: ROADMAP item 4 gives it one"
_CACHE = "the cache's mixed-hit path, which ROADMAP item 5 decides"
_REFERENCE = "called by check/reference.py's per-op spec"
_INTERFACE = "a method of an interface whose reached siblings implement it"
_HG = "HGSampler's half of the sampler interface: no program scores through HG"
_PROTOCOL = "a Python protocol method (operator, len, in, with, pickle, repr)"
_METRIC = "a metric or tally accessor tests and check/ read to observe exported state"
_SAFETY = "safety code: an error, a fallback or an alarm no healthy run trips"
_BENCH = "read by bench_stream_throughput.py, a CI ratio floor outside this list"
_IAA = "holds the annotator panel to the paper's inter-annotator agreement (test_iaa_calibrated_to_paper)"
#: ``path:qualname`` -> why an unreached function stays.
KEPT: Dict[str, str] = {
    **dict.fromkeys([
        "src/repro/stream/wal.py:replay_wal",
        "src/repro/stream/wal.py:EventLog.replay",
        "src/repro/storage/kvstore.py:MmapKVStore.open",
        "src/repro/storage/kvstore.py:_read_index",
        "src/repro/stream/builder.py:IncrementalGraphBuilder.from_log",
        "src/repro/stream/feedback.py:OnlineFineTuner.resume",
        "src/repro/storage/loader.py:GraphStore.load",
    ], _RECOVERY),
    **dict.fromkeys([
        "src/repro/graph/cache.py:SubgraphCache._loop_outcomes",
        "src/repro/graph/cache.py:SubgraphCache._replay",
    ], _CACHE),
    **dict.fromkeys([
        "src/repro/nn/tensor.py:Tensor.T",
        "src/repro/nn/functional.py:log_softmax",
        "src/repro/nn/segment.py:scatter_rows",
        "src/repro/nn/module.py:Embedding.forward",
        "src/repro/models/detector.py:XFraudDetector.node_representations",
    ], _REFERENCE),
    **dict.fromkeys([
        "src/repro/storage/kvstore.py:KVStore.put",
        "src/repro/storage/kvstore.py:KVStore.get",
        "src/repro/storage/kvstore.py:KVStore.contains",
        "src/repro/storage/kvstore.py:KVStore.keys",
        "src/repro/storage/kvstore.py:DelegatingKVStore.keys",
        "src/repro/storage/kvstore.py:InMemoryKVStore.keys",
        "src/repro/storage/kvstore.py:InMemoryKVStore.delete",
        "src/repro/storage/kvstore.py:MmapKVStore.contains",
        "src/repro/storage/kvstore.py:MmapKVStore.keys",
        "src/repro/storage/replicated.py:ReplicatedKVStore.contains",
        "src/repro/nn/module.py:Module.forward",
        "src/repro/nn/optim.py:Optimizer._begin_step",
        "src/repro/nn/optim.py:Optimizer._update",
        "src/repro/obs/registry.py:_Metric.render",
        "src/repro/obs/trace.py:_NullSpan.set",
    ], _INTERFACE),
    **dict.fromkeys([
        "src/repro/graph/sampling.py:_Sampler._walk_disjoint",
        "src/repro/graph/sampling.py:HGSampler.steps",
        "src/repro/graph/sampling.py:HGSampler.cache_key",
    ], _HG),
    **dict.fromkeys([
        "src/repro/graph/cache.py:SubgraphCache.__len__",
        "src/repro/nn/module.py:Parameter.__setstate__",
        "src/repro/nn/module.py:ModuleDict.__contains__",
        "src/repro/nn/optim.py:Optimizer.__getstate__",
        "src/repro/nn/tensor.py:Tensor.__len__",
        "src/repro/nn/tensor.py:Tensor.__repr__",
        "src/repro/nn/tensor.py:Tensor.__rtruediv__",
        "src/repro/obs/trace.py:Span.__repr__",
        "src/repro/serving/admission.py:AdmissionQueue.__len__",
        "src/repro/storage/kvstore.py:KVStore.__contains__",
        "src/repro/storage/kvstore.py:KVStore.__enter__",
        "src/repro/storage/kvstore.py:KVStore.__exit__",
        "src/repro/storage/kvstore.py:_MmapReader.__enter__",
        "src/repro/storage/kvstore.py:_MmapReader.__exit__",
        "src/repro/storage/loader.py:WorkerLoader.__enter__",
        "src/repro/storage/loader.py:WorkerLoader.__exit__",
        "src/repro/stream/wal.py:EventLog.__enter__",
        "src/repro/stream/wal.py:EventLog.__exit__",
    ], _PROTOCOL),
    **dict.fromkeys([
        "src/repro/obs/registry.py:Counter.value",
        "src/repro/obs/registry.py:Counter.total",
        "src/repro/obs/registry.py:Gauge.set",
        "src/repro/obs/registry.py:Gauge.dec",
        "src/repro/obs/registry.py:Gauge.value",
        "src/repro/obs/registry.py:Histogram.count",
        "src/repro/obs/registry.py:Histogram.sum",
        "src/repro/obs/registry.py:MetricsRegistry.get",
        "src/repro/obs/registry.py:MetricsRegistry.names",
        "src/repro/serving/stats.py:ServiceStats.snapshot",
        "src/repro/storage/kvstore.py:MmapKVStore.instrument",
        "src/repro/train/elastic.py:ElasticTrainer._collect",
        "src/repro/train/elastic.py:FailureDetector.workers",
    ], _METRIC),
    "src/repro/serving/stats.py:ServiceStats.record_response":
        "the one-response form of record_batch that check/invariants.py's audits drive",
    **dict.fromkeys([
        "src/repro/nn/segment.py:_through_public",
        "src/repro/serving/deadline.py:DeadlineExceeded.__init__",
        "src/repro/storage/loader.py:_ragged",
        "src/repro/stream/feedback.py:DriftDetector._ks_statistic",
    ], _SAFETY),
    **dict.fromkeys([
        "src/repro/stream/builder.py:IncrementalGraphBuilder.pending_events",
        "src/repro/stream/wal.py:EventLog.append_many",
    ], _BENCH),
    **dict.fromkeys([
        "src/repro/explain/annotations.py:cohen_kappa",
        "src/repro/explain/annotations.py:mean_pairwise_kappa",
        "src/repro/explain/annotations.py:random_panel",
    ], _IAA),
}


# -- attribution -------------------------------------------------------------


class Census:
    """Records which functions under ``tree/package`` are called with no
    frame from ``tree/excluded`` on the stack, in this thread and every
    thread started while it runs.

    ``reached`` holds ``(path relative to tree, first line)`` pairs,
    ``edges`` the ``(caller, callee)`` pairs of calls made under an
    excluded frame from one function under the package (outside
    ``excluded``) to another.
    """

    def __init__(self, tree: str, package: str = PACKAGE, excluded: str = EXCLUDED) -> None:
        self.tree = os.path.abspath(tree)
        self.root = os.path.join(self.tree, package, "")
        self.excluded = os.path.join(self.tree, excluded, "")
        self._done: Set[object] = set()  # code reached, outside root, or excluded
        self._reached: Set[object] = set()
        self._edges: Set[Tuple[object, object]] = set()

    def _inside(self, code) -> bool:
        path = code.co_filename
        return path.startswith(self.root) and not path.startswith(self.excluded)

    def _profile(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if code in self._done:
            return
        if not self._inside(code):
            self._done.add(code)
            return
        back = frame.f_back
        while back is not None:
            if back.f_code.co_filename.startswith(self.excluded):
                caller = frame.f_back.f_code
                if self._inside(caller):
                    self._edges.add((caller, code))
                return
            back = back.f_back
        self._done.add(code)
        self._reached.add(code)

    def __enter__(self) -> "Census":
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def _key(self, code) -> Tuple[str, int]:
        return os.path.relpath(code.co_filename, self.tree), code.co_firstlineno

    @property
    def reached(self) -> Set[Tuple[str, int]]:
        return {self._key(code) for code in self._reached}

    @property
    def edges(self) -> Set[Tuple[Tuple[str, int], Tuple[str, int]]]:
        return {(self._key(a), self._key(b)) for a, b in self._edges}


@dataclass
class Function:
    path: str  # relative to the tree the census ran
    qualname: str
    first: int  # first decorator's line, or the def line
    lines: int  # with the blank lines above the definition
    parent: Optional[Tuple[str, int]]  # the enclosing function's key

    @property
    def name(self) -> str:
        return f"{self.path}:{self.qualname}"


def functions(tree: str, package: str = PACKAGE, excluded: str = EXCLUDED) -> Dict[Tuple[str, int], Function]:
    """Every function under ``tree/package`` outside ``excluded``, keyed
    by ``(path, line)`` for both its first decorator's and its def line
    (so either ``co_firstlineno`` convention finds it)."""
    found: Dict[Tuple[str, int], Function] = {}
    for directory, subdirs, names in os.walk(os.path.join(tree, package)):
        subdirs.sort()
        rel_dir = os.path.relpath(directory, tree)
        if rel_dir == excluded or rel_dir.startswith(excluded + os.sep):
            continue
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(rel_dir, name)
            with open(os.path.join(tree, path)) as handle:
                source = handle.read()
            _collect(ast.parse(source), source.splitlines(), path, [], None, found)
    return found


def _collect(node, text: List[str], path: str, scope: List[str], parent, found) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            blank = 0
            while first - blank - 2 >= 0 and not text[first - blank - 2].strip():
                blank += 1
            function = Function(path, ".".join(scope + [child.name]), first,
                                child.end_lineno - first + 1 + blank, parent)
            found[(path, first)] = found[(path, child.lineno)] = function
            _collect(child, text, path, scope + [child.name, "<locals>"], (path, first), found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, text, path, scope + [child.name], parent, found)
        else:
            _collect(child, text, path, scope, parent, found)


def unreached(
    found: Dict[Tuple[str, int], Function],
    reached: Iterable[Tuple[str, int]],
    edges: Iterable[Tuple[Tuple[str, int], Tuple[str, int]]],
) -> List[Tuple[Function, List[Function]]]:
    """The outermost unreached functions, each with the unreached
    functions folded into it, in path and line order."""
    canon = {key: (f.path, f.first) for key, f in found.items()}
    hit = {canon[key] for key in reached if key in canon}
    dead = {key for key in set(canon.values()) if key not in hit}

    def top(key):
        while found[key].parent in dead:
            key = found[key].parent
        return key

    outer = {key for key in dead if found[key].parent not in dead}
    callers: Dict[Tuple[str, int], Set[Tuple[str, int]]] = collections.defaultdict(set)
    callees: Dict[Tuple[str, int], Set[Tuple[str, int]]] = collections.defaultdict(set)
    for a, b in edges:
        if a in canon and b in canon and canon[a] in dead and canon[b] in dead:
            a, b = top(canon[a]), top(canon[b])
            if a != b:
                callers[b].add(a)
                callees[a].add(b)
    owner: Dict[Tuple[str, int], Tuple[str, int]] = {}
    # roots first, then whatever a cycle left unowned, in a fixed order
    for root in sorted(outer, key=lambda k: (bool(callers[k]), k)):
        if root in owner:
            continue
        owner[root] = root
        stack = [root]
        while stack:
            for callee in sorted(callees[stack.pop()]):
                if callee not in owner:
                    owner[callee] = root
                    stack.append(callee)
    groups: Dict[Tuple[str, int], List[Function]] = collections.defaultdict(list)
    for key in sorted(outer):
        if owner[key] != key:
            groups[owner[key]].append(found[key])
    return [(found[key], groups[key]) for key in sorted(outer) if owner[key] == key]


# -- running the programs ------------------------------------------------------

_BOOT = (
    "import sys; sys.path.insert(0, {here!r}); import program_census; "
    "del sys.path[0]; program_census._child()"
)


def _child() -> None:
    """``python -c _BOOT OUT -m MODULE ARGS...`` or ``... OUT SCRIPT ARGS...``:
    run the program under a census and write what it reached to OUT."""
    out, target = sys.argv[1], sys.argv[2:]
    census = Census(os.getcwd())
    if target[0] == "-m":
        sys.argv = [target[1]] + target[2:]
        run = lambda: runpy.run_module(target[1], run_name="__main__", alter_sys=True)  # noqa: E731
    else:
        sys.argv = target
        sys.path.insert(0, os.path.dirname(os.path.abspath(target[0])))
        run = lambda: runpy.run_path(target[0], run_name="__main__")  # noqa: E731
    status = 0
    with census:
        try:
            run()
        except SystemExit as exit_:
            status = exit_.code if isinstance(exit_.code, int) else (0 if exit_.code is None else 1)
    with open(out, "w") as handle:
        json.dump({"reached": sorted(census.reached), "edges": sorted(census.edges)}, handle)
    sys.stdout.flush()
    os._exit(status)


def _copy_tree(destination: str) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache", ".benchmarks", ".work")
    for name in ("src", "benchmarks", "examples", "pyproject.toml", "BENCHMARK.json"):
        source = os.path.join(ROOT, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(destination, name), ignore=ignore)
        else:
            shutil.copy(source, destination)


def run_programs(tree: str, programs: Sequence[Tuple[str, List[str]]]):
    """Run each program in ``tree``; returns reached keys, edges and
    ``(label, exit status, seconds)`` per program."""
    scratch = os.path.join(tree, "census-tmp")
    os.makedirs(scratch)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    reached: Set[Tuple[str, int]] = set()
    edges: Set[Tuple[Tuple[str, int], Tuple[str, int]]] = set()
    statuses = []
    for index, (label, argv) in enumerate(programs):
        out = os.path.join(scratch, f"reach-{index}.json")
        argv = [part.replace("{tmp}", scratch) for part in argv]
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _BOOT.format(here=HERE), out] + argv,
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        seconds = time.perf_counter() - started
        if os.path.exists(out):
            with open(out) as handle:
                record = json.load(handle)
            reached |= {tuple(key) for key in record["reached"]}
            edges |= {(tuple(a), tuple(b)) for a, b in record["edges"]}
        else:
            sys.stderr.write(done.stderr[-2000:])
        statuses.append((label, done.returncode, seconds))
        print(f"{'ok ' if done.returncode == 0 else 'ERR'} {seconds:7.1f} s  {label}", flush=True)
    return reached, edges, statuses


def render(found: Dict[Tuple[str, int], Function], groups, programs: int, notes: str) -> str:
    total = {(f.path, f.first): f for f in found.values()}
    dead = sum(1 + len(folded) for _, folded in groups)
    lines = sum(head.lines + sum(f.lines for f in folded) for head, folded in groups)
    kept = [(head, folded) for head, folded in groups if head.name in KEPT]
    rest = [(head, folded) for head, folded in groups if head.name not in KEPT]

    def row(head: Function, folded: List[Function]) -> str:
        text = f"{head.name}  {head.lines + sum(f.lines for f in folded)}"
        if folded:
            text += "  (with " + ", ".join(f.qualname for f in folded) + ")"
        return text

    out = [
        "# Program census: functions under src/repro outside check/ that no program reached",
        "# Regenerate with: python benchmarks/program_census.py (see its docstring for the programs)",
        f"# {programs} programs; {len(total)} functions, {len(total) - dead} reached, "
        f"{dead} unreached in {len(groups)} outermost groups ({lines} lines)",
        "",
        f"## Unreached, kept ({len(kept)})",
    ]
    for head, folded in kept:
        out.append(f"{row(head, folded)}  -- {KEPT[head.name]}")
    out += ["", f"## Unreached, no reason: delete it or give it a program ({len(rest)})"]
    out += [row(head, folded) for head, folded in rest] or ["none"]
    out += ["", NOTES, notes.strip("\n"), ""] if notes.strip() else ["", NOTES, ""]
    return "\n".join(out)


def main() -> int:
    notes = ""
    if os.path.exists(OUTPUT):
        with open(OUTPUT) as handle:
            text = handle.read()
        if NOTES in text:
            notes = text.split(NOTES, 1)[1]
    started = time.perf_counter()
    tree = tempfile.mkdtemp(prefix="program-census-")
    try:
        _copy_tree(tree)
        reached, edges, statuses = run_programs(tree, PROGRAMS)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    found = functions(ROOT)
    groups = unreached(found, reached, edges)
    with open(OUTPUT, "w") as handle:
        handle.write(render(found, groups, len(PROGRAMS), notes))
    failed = [label for label, status, _ in statuses if status != 0]
    print(f"census: {time.perf_counter() - started:.0f} s, {len(PROGRAMS)} programs, "
          f"{len(failed)} exited nonzero {failed}; wrote {os.path.relpath(OUTPUT, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
