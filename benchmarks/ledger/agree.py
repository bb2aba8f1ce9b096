#!/usr/bin/env python3
"""Do two ledgers agree within the benchmark's own bounds?

    python3 benchmarks/ledger/agree.py A.json B.json

``A`` and ``B`` are ``ledger.json`` files written by ``run.py --out``
(or single ``<workload>.json`` results). One row per (workload,
end-to-end metric): both values, how much worse ``B`` is than ``A`` as
a share of ``A`` (negative = better), the bound from ``BENCHMARK.json``
and ``ok`` / ``exceeds``. ``fail_share`` is held to +0 absolute. When
both sides ran the same seed, the outputs and counts that must repeat
exactly for a seed are compared too (``same`` / ``differs``). Exit code
1 on any ``exceeds`` or ``differs``.

This is the table a later performance change shows for every workload
it did not aim at; README.md describes the pairing protocol around it.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Per-layer counts that must repeat exactly for a seed (``auc`` and the
# output checksums join them from each result's "exact" record). A later
# change may cite one as evidence only because it does; test_ledger.py
# asserts the repeat.
EXACT_COUNTS = (
    "serving.requests",
    "graph.cache.lookups",
    "graph.cache.hits",
    "graph.cache.misses",
    "storage.reads",
    "stream.wal.appends",
    "stream.builder.flush_calls",
    "train.steps",
)


def load_workloads(path: str) -> Dict[str, dict]:
    with open(path) as handle:
        document = json.load(handle)
    if "workloads" in document:
        return document["workloads"]
    return {document["workload"]: document}


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is, as a share of ``before`` (negative = better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def compare(a: Dict[str, dict], b: Dict[str, dict], end_to_end: List[dict]) -> Tuple[List[str], bool]:
    """Rows of the agreement table and whether every row holds."""
    rows = [
        f"{'workload':<14} {'metric':<18} {'A':>14} {'B':>14} {'worse by':>9} {'bound':>7}  verdict"
    ]
    agreed = True
    for name in a:
        if name not in b:
            rows.append(f"{name:<14} missing from B")
            agreed = False
            continue
        left, right = a[name], b[name]
        for metric in end_to_end:
            before = left["end_to_end"][metric["name"]]
            after = right["end_to_end"][metric["name"]]
            change = worse_by(before, after, metric["better"])
            holds = change <= metric["bound"]
            agreed &= holds
            rows.append(
                f"{name:<14} {metric['name']:<18} {before:>14.6f} {after:>14.6f} "
                f"{change:>+8.2%} {metric['bound']:>7.1%}  {'ok' if holds else 'exceeds'}"
            )
        before = left["end_to_end"]["fail_share"]
        after = right["end_to_end"]["fail_share"]
        holds = after <= before
        agreed &= holds
        rows.append(
            f"{name:<14} {'fail_share':<18} {before:>14.6f} {after:>14.6f} "
            f"{after - before:>+9.6f} {'+0 abs':>7}  {'ok' if holds else 'exceeds'}"
        )
        if left["seed"] != right["seed"]:
            rows.append(f"{name:<14} exact outputs: seeds differ ({left['seed']} vs {right['seed']}), not compared")
            continue
        exact = [("exact outputs", left["exact"], right["exact"])]
        if "per_layer" in left and "per_layer" in right:
            exact.append(
                (
                    "exact counts",
                    {key: left["per_layer"][key] for key in EXACT_COUNTS},
                    {key: right["per_layer"][key] for key in EXACT_COUNTS},
                )
            )
        for label, before, after in exact:
            differing = sorted(key for key in before if before[key] != after.get(key))
            agreed &= not differing
            rows.append(
                f"{name:<14} {label}: " + (f"differs in {differing}" if differing else "same")
            )
    return rows, agreed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    rows, agreed = compare(load_workloads(argv[0]), load_workloads(argv[1]), end_to_end)
    print("\n".join(rows))
    print("agree" if agreed else "DISAGREE")
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
