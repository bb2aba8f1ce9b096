#!/usr/bin/env python3
"""Summarise alternating parent/change ledger pairs into one results file.

    python3 benchmarks/summarise_pairs.py RUNS --out benchmarks/results/NAME.txt \\
        --claim stream_ingest throughput_per_s 1.3 [--parent e840b69] [--notes FILE]

``RUNS`` holds what ``benchmarks/ledger/run.py --out`` wrote for each
side and seed, ledger code byte-identical on both sides::

    RUNS/parent/seed<k>/ledger.json    RUNS/change/seed<k>/ledger.json          untraced pairs
    RUNS/parent/traced_seed<k>/...     RUNS/change/traced_seed<k>/...           optional, --trace 1

(the pairing loop itself is three lines of shell: for each seed run both
checkouts, the parent first on even seeds). One row per (workload,
end-to-end metric) with each side's median and quartiles, how many pairs
the change is ahead in, the ``BENCHMARK.json`` bound and a verdict by
the rule of the choosing-metrics guide: a gain only when the change is
ahead in >= 9/10 of the pairs (ties count for neither) and the medians
lie further apart than the parent's own quartiles; otherwise within the
bound, exceeding it, or — when the parent's quartiles alone span more
than the bound — unresolved. Below the table: failed operations, whether
everything that must repeat for a seed did, the claim pair by pair, and
for each traced pair every per-layer metric that differs between the
sides. No per-seed dump is committed; this file is the record.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "benchmarks", "ledger"), os.path.join(ROOT, "src")]

from _helpers import format_table  # noqa: E402
from agree import EXACT_COUNTS, load_workloads, worse_by  # noqa: E402
from metrics import SELF_SHARES  # noqa: E402  (the ledger's partition of the traced wall)

# Per-layer metrics that are wall-clock facts of one run, not of the program.
INFORMATIONAL = ("warmup_s", "trace.overhead_share")


def load_side(runs: str, side: str, prefix: str) -> Dict[int, Dict[str, dict]]:
    """``{seed: {workload: result}}`` of every ``<prefix><k>`` run of one side."""
    found = {}
    for name in sorted(os.listdir(os.path.join(runs, side))):
        match = re.fullmatch(re.escape(prefix) + r"(\d+)", name)
        path = os.path.join(runs, side, name, "ledger.json")
        if match and os.path.exists(path):
            found[int(match.group(1))] = load_workloads(path)
    return found


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q1), float(q3)


def spread(values: Sequence[float]) -> str:
    median, q1, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def table(headers: List[str], rows: List[List[str]]) -> List[str]:
    return [line.rstrip() for line in format_table(headers, rows).split("\n")]


def end_to_end_rows(parent, change, seeds, metrics, claim) -> List[List[str]]:
    rows = []
    for workload in parent[seeds[0]]:
        for metric in metrics:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            before = [parent[s][workload]["end_to_end"][name] for s in seeds]
            after = [change[s][workload]["end_to_end"][name] for s in seeds]
            ahead = sum(worse_by(b, a, better) < 0 for b, a in zip(before, after))
            ties = sum(b == a for b, a in zip(before, after))
            (p_median, p_q1, p_q3), (c_median, _, _) = quartiles(before), quartiles(after)
            worse = worse_by(p_median, c_median, better)
            resolved = ahead >= 0.9 * len(seeds) and abs(c_median - p_median) > p_q3 - p_q1
            if ties == len(seeds):
                verdict = "identical"
            elif claim and (workload, name) == tuple(claim[:2]):
                ratio = c_median / p_median if better == "higher" else p_median / c_median
                met = resolved and ratio >= float(claim[2])
                verdict = f"CLAIM {'met' if met else 'NOT met'}: {ratio:.2f}x (claimed >= {claim[2]}x)"
            elif worse > bound:
                verdict = "EXCEEDS bound"
            elif resolved:
                verdict = "better (>= 9/10, > parent IQR)"
            elif (p_q3 - p_q1) / abs(p_median) > bound:
                verdict = "unresolved (parent quartiles span more than the bound)"
            else:
                verdict = "within bound"
            rows.append(
                [
                    workload,
                    name,
                    spread(before),
                    spread(after),
                    f"{(c_median - p_median) / p_median:+.1%}",
                    f"tie x{ties}" if ties == len(seeds) else f"{ahead}/{len(seeds) - ties}",
                    f"{bound:.0%}",
                    verdict,
                ]
            )
    return rows


def traced_lines(parent: Dict[str, dict], change: Dict[str, dict], seed: int) -> List[str]:
    lines = []
    for workload in parent:
        before, after = parent[workload]["per_layer"], change[workload]["per_layer"]
        counts_equal = all(before[key] == after[key] for key in EXACT_COUNTS)
        exact_equal = parent[workload]["exact"] == change[workload]["exact"]
        lines.append(
            f"traced pair, seed {seed}, {workload}: exact outputs {'equal' if exact_equal else 'DIFFER'}, "
            f"exact counts ({', '.join(EXACT_COUNTS)}) {'equal' if counts_equal else 'DIFFER'}; "
            f"shares sum to {sum(v for k, v in before.items() if k in SELF_SHARES):.3f} -> "
            f"{sum(v for k, v in after.items() if k in SELF_SHARES):.3f}; "
            f"traced wall {parent[workload]['phases_s']['traced_timed']:.2f} -> "
            f"{change[workload]['phases_s']['traced_timed']:.2f} s (at reference speed, speed slices excluded)"
        )
        # A share is of its own side's raw wall, speed slices included, and
        # the walls differ: beside it, seconds at reference speed.
        walls = [
            side[workload]["phases_s"]["traced_timed"]
            / (1.0 - side[workload]["per_layer"]["harness.calibrate_share"])
            for side in (parent, change)
        ]
        rows = [
            [key, f"{before[key]:.6g}", f"{after[key]:.6g}", f"{after[key] - before[key]:+.4g}"]
            + ([f"{before[key] * walls[0]:.3f} -> {after[key] * walls[1]:.3f}"] if key in SELF_SHARES else [""])
            for key in before
            if key not in INFORMATIONAL
            and (before[key] != after[key])
            and (key not in SELF_SHARES or abs(after[key] - before[key]) >= 0.002)
        ]
        headers = ["per-layer metric", "parent", "change", "diff", "s at reference speed"]
        lines += ["  " + line for line in table(headers, rows)]
        lines.append("  (every other per-layer metric equal, or a share that moved by < 0.002)")
        lines.append("")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs")
    parser.add_argument("--out", required=True)
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "RATIO"))
    parser.add_argument("--parent", default="parent", help="label of the parent commit")
    parser.add_argument("--notes", help="file appended verbatim (measurements taken by hand)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    parent, change = (load_side(args.runs, side, "seed") for side in ("parent", "change"))
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        parser.error(f"no seed<k>/ledger.json pairs under {args.runs}")

    lines = [
        f"{len(seeds)} alternating parent/change pairs (seeds {seeds[0]}-{seeds[-1]}; even seeds ran the "
        f"parent, {args.parent}, first), untraced,",
        "run.py defaults, times at reference speed, ledger code byte-identical on both sides. median [q1, q3].",
    ]
    if args.claim:
        lines.append(
            f"Claimed beforehand: {args.claim[0]} {args.claim[1]} >= {args.claim[2]}x the parent's median, "
            "ahead in >= 9/10 pairs, medians apart"
        )
        lines.append("by more than the parent's IQR. Every other row must stay inside its BENCHMARK.json bound.")
    lines.append("")
    headers = ["workload", "metric", f"parent ({args.parent})", "change", "change vs parent", "change ahead", "bound", "verdict"]
    lines += table(headers, end_to_end_rows(parent, change, seeds, metrics, args.claim))
    lines.append("")

    runs = [side[s][w] for side in (parent, change) for s in seeds for w in side[s]]
    lines.append(
        f"failed operations over all {len(runs)} workload runs: {sum(run['failed'] for run in runs)}; "
        f"runs with a failed output check: {sum(not run['correct'] for run in runs)}"
    )
    for workload in parent[seeds[0]]:
        same = all(parent[s][workload]["exact"] == change[s][workload]["exact"] for s in seeds)
        keys = ", ".join(parent[seeds[0]][workload]["exact"])
        lines.append(f"{workload}: 'exact for this seed' record ({keys}) equal for every seed: {same}")
    if args.claim:
        workload, name, _ = args.claim
        before = [parent[s][workload]["end_to_end"][name] for s in seeds]
        after = [change[s][workload]["end_to_end"][name] for s in seeds]
        (p_median, p_q1, p_q3), (c_median, _, _) = quartiles(before), quartiles(after)
        lines.append(
            f"{workload} {name}: parent median {p_median:.4g}, IQR {p_q3 - p_q1:.4g}; change median "
            f"{c_median:.4g}; medians apart by {abs(c_median - p_median):.4g}"
        )
        lines.append(
            f"{workload} {name}, change over parent, pair by pair (seeds {seeds[0]}-{seeds[-1]}): "
            + " ".join(f"{a / b:.2f}x" for b, a in zip(before, after))
        )
    lines.append("")

    traced_parent, traced_change = (
        load_side(args.runs, side, "traced_seed") for side in ("parent", "change")
    )
    for seed in sorted(set(traced_parent) & set(traced_change)):
        lines += traced_lines(traced_parent[seed], traced_change[seed], seed)
    if args.notes:
        with open(args.notes) as handle:
            lines += handle.read().rstrip("\n").split("\n")
    with open(args.out, "w") as handle:
        handle.write("\n".join(lines).rstrip("\n") + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
