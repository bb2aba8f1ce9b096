#!/usr/bin/env python3
"""Summarise alternating parent/change ledger pairs into BENCH_ledger.json.

    python3 benchmarks/summarise_pairs.py RUNS --pr N \\
        [--claim stream_ingest throughput_per_s 1.3] [--parent e840b69] [--change LABEL] \\
        [--notes FILE]
    python3 benchmarks/summarise_pairs.py --trajectory
    python3 benchmarks/summarise_pairs.py --check

``RUNS`` holds what ``benchmarks/ledger/run.py --out`` wrote for each
side and seed, ledger code byte-identical on both sides::

    RUNS/parent/seed<k>/ledger.json    RUNS/change/seed<k>/ledger.json          untraced pairs
    RUNS/parent/traced_seed<k>/...     RUNS/change/traced_seed<k>/...           optional, --trace 1

(the pairing loop itself is three lines of shell: for each seed run both
checkouts, the parent first on even seeds). ``--pr N`` appends one entry
to the file ``--out`` names (``BENCH_ledger.json`` at the repository
root by default) and prints it as a table. The entry holds the parent and
change labels, the claim, one row per (workload, end-to-end metric) with
each side's median and quartiles, how many pairs the change is ahead in,
the change/parent ratio of medians, the ``BENCHMARK.json`` bound and a
verdict by the rule of the choosing-metrics guide: a gain only when the
change is ahead in >= 9/10 of the pairs (ties count for neither) and the
medians lie further apart than the parent's own quartiles; otherwise
within the bound, exceeding it, or — when the parent's quartiles alone
span more than the bound — unresolved. Its ``env`` is what the runs
recorded (a field no run recorded stays null; runs that disagree on a
field are refused). Its ``notes`` are the
summary's other lines: failed operations, whether everything that must
repeat for a seed did, the claim pair by pair, and for each traced pair
every per-layer metric that differs between the sides.

Each side is labelled by ``--parent`` / ``--change``, or else by the
commit its runs recorded. A change measured before it is committed
records its parent's HEAD, and a checkout without ``.git`` records
``unknown``, so an append whose change label is ``unknown`` or equals
the parent's is refused: name the measured change with ``--change``.

``--trajectory`` prints, per workload and metric, each PR's ratio and
their running product; ``--check`` exits 1 when the newest row of any
(workload, metric) is worse than its ``BENCHMARK.json`` bound.
"""

from __future__ import annotations

import argparse
import json
import math
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

LEDGER = os.path.join(ROOT, "BENCH_ledger.json")
# What a row needs to tell a code change from a machine change.
ENV_FIELDS = ("cpu_model", "nproc", "python", "numpy", "scipy", "blas_core")
# Per-layer metrics that are wall-clock facts of one run, not of the program.
INFORMATIONAL = ("warmup_s", "trace.overhead_share")


def end_to_end_metrics() -> List[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)["end_to_end"]


def load_side(runs: str, side: str, prefix: str) -> Dict[int, Dict[str, dict]]:
    """``{seed: {workload: result}}`` of every ``<prefix><k>`` run of one side."""
    found = {}
    for name in sorted(os.listdir(os.path.join(runs, side))):
        match = re.fullmatch(re.escape(prefix) + r"(\d+)", name)
        path = os.path.join(runs, side, name, "ledger.json")
        if match and os.path.exists(path):
            found[int(match.group(1))] = load_workloads(path)
    return found


def quartiles(values: Sequence[float]) -> List[float]:
    """``[median, q1, q3]``."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return [float(median), float(q1), float(q3)]


def spread(stats: Sequence[float]) -> str:
    median, q1, q3 = stats
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def table(headers: List[str], rows: List[List[str]]) -> List[str]:
    return [line.rstrip() for line in format_table(headers, rows).split("\n")]


def row_of(workload: str, metric: dict, before: List[float], after: List[float], claim) -> dict:
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    ahead = sum(worse_by(b, a, better) < 0 for b, a in zip(before, after))
    ties = sum(b == a for b, a in zip(before, after))
    parent, change = quartiles(before), quartiles(after)
    p_median, p_q1, p_q3 = parent
    resolved = ahead >= 0.9 * len(before) and abs(change[0] - p_median) > p_q3 - p_q1
    if ties == len(before):
        verdict = "identical"
    elif claim and (workload, name) == (claim["workload"], claim["metric"]):
        ratio = change[0] / p_median if better == "higher" else p_median / change[0]
        met = resolved and ratio >= claim["ratio"]
        verdict = f"CLAIM {'met' if met else 'NOT met'}: {ratio:.2f}x (claimed >= {claim['ratio']}x)"
    elif worse_by(p_median, change[0], better) > bound:
        verdict = "EXCEEDS bound"
    elif resolved:
        verdict = "better (>= 9/10, > parent IQR)"
    elif (p_q3 - p_q1) / abs(p_median) > bound:
        verdict = "unresolved (parent quartiles span more than the bound)"
    else:
        verdict = "within bound"
    return {
        "workload": workload,
        "metric": name,
        "parent": parent,
        "change": change,
        "ahead": ahead,
        "n": len(before) - ties,
        "ratio": change[0] / p_median,
        "bound": bound,
        "verdict": verdict,
    }


def run_env(runs: List[dict], parser: argparse.ArgumentParser) -> Dict[str, object]:
    """Each ``ENV_FIELDS`` value the runs recorded (null when none did); runs
    that disagree on one were taken on different machines and are no pairing."""
    env = {}
    for field in ENV_FIELDS:
        values = {run.get("env", {}).get(field) for run in runs} - {None}
        if len(values) > 1:
            parser.error(f"the runs disagree on {field}: {sorted(map(str, values))}")
        env[field] = values.pop() if values else None
    return env


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


def summarise(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """One ledger entry from the pairs under ``args.runs``."""
    parent, change = (load_side(args.runs, side, "seed") for side in ("parent", "change"))
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        parser.error(f"no seed<k>/ledger.json pairs under {args.runs}")
    claim = dict(workload=args.claim[0], metric=args.claim[1], ratio=float(args.claim[2])) if args.claim else None
    workloads = list(parent[seeds[0]])
    runs = [side[s][w] for side in (parent, change) for s in seeds for w in side[s]]
    commits = [parent[seeds[0]][workloads[0]]["env"].get("git_commit", "unknown")[:7],
               change[seeds[0]][workloads[0]]["env"].get("git_commit", "unknown")[:7]]
    env = run_env(runs, parser)
    parent_label, change_label = args.parent or commits[0], args.change or commits[1]
    if change_label in ("unknown", parent_label):
        parser.error(
            f"the change is labelled {change_label!r} and the parent {parent_label!r}: "
            "name the measured change with --change LABEL"
        )
    rows = [
        row_of(
            workload,
            metric,
            [parent[s][workload]["end_to_end"][metric["name"]] for s in seeds],
            [change[s][workload]["end_to_end"][metric["name"]] for s in seeds],
            claim,
        )
        for workload in workloads
        for metric in end_to_end_metrics()
    ]

    notes = [
        f"seeds {seeds[0]}-{seeds[-1]}, even seeds ran the parent first; untraced, run.py defaults, "
        "times at reference speed, ledger code byte-identical on both sides",
        f"failed operations over all {len(runs)} workload runs: {sum(run['failed'] for run in runs)}; "
        f"runs with a failed output check: {sum(not run['correct'] for run in runs)}",
    ]
    for workload in workloads:
        same = all(parent[s][workload]["exact"] == change[s][workload]["exact"] for s in seeds)
        keys = ", ".join(parent[seeds[0]][workload]["exact"])
        notes.append(f"{workload}: 'exact for this seed' record ({keys}) equal for every seed: {same}")
    if claim:
        workload, name = claim["workload"], claim["metric"]
        before = [parent[s][workload]["end_to_end"][name] for s in seeds]
        after = [change[s][workload]["end_to_end"][name] for s in seeds]
        (p_median, p_q1, p_q3), (c_median, _, _) = quartiles(before), quartiles(after)
        notes.append(
            f"{workload} {name}: parent median {p_median:.4g}, IQR {p_q3 - p_q1:.4g}; change median "
            f"{c_median:.4g}; medians apart by {abs(c_median - p_median):.4g}"
        )
        notes.append(
            f"{workload} {name}, change over parent, pair by pair (seeds {seeds[0]}-{seeds[-1]}): "
            + " ".join(f"{a / b:.2f}x" for b, a in zip(before, after))
        )
    notes.append("")
    traced_parent, traced_change = (
        load_side(args.runs, side, "traced_seed") for side in ("parent", "change")
    )
    for seed in sorted(set(traced_parent) & set(traced_change)):
        notes += traced_lines(traced_parent[seed], traced_change[seed], seed)
    if args.notes:
        with open(args.notes) as handle:
            notes += handle.read().rstrip("\n").split("\n")
    while notes and not notes[-1]:
        notes.pop()
    return {
        "pr": args.pr,
        "parent": parent_label,
        "change": change_label,
        "pairs": len(seeds),
        "claim": claim,
        "env": env,
        "rows": rows,
        "notes": notes,
    }


def entry_lines(entry: dict) -> List[str]:
    """The entry as the table a reader compares: what ``--pr`` prints."""
    lines = [
        f"PR {entry['pr']}: {entry['pairs']} alternating parent/change pairs, parent {entry['parent']}, "
        f"change {entry['change'] or 'uncommitted'}. median [q1, q3]."
    ]
    claim = entry["claim"]
    if claim:
        lines.append(
            f"Claimed beforehand: {claim['workload']} {claim['metric']} >= {claim['ratio']}x the parent's "
            "median, ahead in >= 9/10 pairs, medians apart by more than the parent's IQR."
        )
    lines.append("env: " + ", ".join(f"{field} {entry['env'][field]}" for field in ENV_FIELDS))
    lines.append("")
    headers = ["workload", "metric", f"parent ({entry['parent']})", "change", "change vs parent",
               "change ahead", "bound", "verdict"]
    rows = [
        [
            row["workload"],
            row["metric"],
            spread(row["parent"]),
            spread(row["change"]),
            f"{row['ratio'] - 1:+.1%}",
            f"{row['ahead']}/{row['n']}" if row["n"] else f"tie x{entry['pairs']}",
            f"{row['bound']:.0%}",
            row["verdict"],
        ]
        for row in entry["rows"]
    ]
    return lines + table(headers, rows) + [""] + entry["notes"]


def load_ledger(path: str) -> List[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return json.load(handle)


def dumps(ledger: List[dict]) -> str:
    """JSON with one row or note per line, so a new entry is a diff of added lines."""
    entries = []
    for entry in ledger:
        fields = []
        for key, value in entry.items():
            if key in ("rows", "notes") and value:
                items = ",\n".join("   " + json.dumps(item, ensure_ascii=False) for item in value)
                fields.append(f'  "{key}": [\n{items}\n  ]')
            else:
                fields.append(f'  "{key}": {json.dumps(value, ensure_ascii=False)}')
        entries.append(" {\n" + ",\n".join(fields) + "\n }")
    return "[\n" + ",\n".join(entries) + "\n]\n"


def series(ledger: List[dict]) -> Dict[Tuple[str, str], Dict[int, dict]]:
    """``{(workload, metric): {pr: row}}``, in the order the rows first appear."""
    found: Dict[Tuple[str, str], Dict[int, dict]] = {}
    for entry in sorted(ledger, key=lambda entry: entry["pr"]):
        for row in entry["rows"]:
            found.setdefault((row["workload"], row["metric"]), {})[entry["pr"]] = row
    return found


def trajectory_lines(ledger: List[dict], metrics: Optional[Sequence[str]] = None) -> List[str]:
    """A markdown table: per (workload, metric), each PR's change/parent ratio
    of medians and, last, their running product."""
    prs = sorted(entry["pr"] for entry in ledger)
    lines = [
        "| workload | metric | " + " | ".join(f"PR {pr}" for pr in prs) + " | running product |",
        "|---|---|" + "---:|" * (len(prs) + 1),
    ]
    for (workload, metric), rows in series(ledger).items():
        if metrics is None or metric in metrics:
            cells = [f"{rows[pr]['ratio']:.3f}" if pr in rows else "" for pr in prs]
            product = math.prod(row["ratio"] for row in rows.values())
            lines.append(f"| {workload} | {metric} | " + " | ".join(cells) + f" | {product:.3g} |")
    return lines


def regressions(ledger: List[dict]) -> List[str]:
    """The newest row of each (workload, metric) that is worse than its bound."""
    metrics = {metric["name"]: metric for metric in end_to_end_metrics()}
    found = []
    for (workload, name), rows in series(ledger).items():
        pr, row = max(rows.items())
        metric = metrics[name]
        worse = worse_by(row["parent"][0], row["change"][0], metric["better"])
        if worse > metric["bound"]:
            found.append(f"PR {pr} {workload} {name}: {worse:+.1%} worse than its parent, bound {metric['bound']:.0%}")
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="?", help="directory of paired runs (with --pr)")
    parser.add_argument("--out", default=LEDGER, help="the ledger file (default: BENCH_ledger.json)")
    parser.add_argument("--pr", type=int, help="append the summary of RUNS as this PR's entry")
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "RATIO"))
    parser.add_argument("--parent", help="label of the parent commit (default: the runs' own)")
    parser.add_argument("--change", help="label of the measured change (default: the runs' own)")
    parser.add_argument("--notes", help="file appended verbatim (measurements taken by hand)")
    parser.add_argument("--trajectory", action="store_true", help="print each PR's ratio per workload and metric")
    parser.add_argument("--check", action="store_true", help="exit 1 if a newest row is worse than its bound")
    args = parser.parse_args(argv)

    ledger = load_ledger(args.out)
    if args.pr is not None:
        if not args.runs:
            parser.error("--pr needs RUNS")
        if any(entry["pr"] == args.pr for entry in ledger):
            parser.error(f"{args.out} already holds an entry for PR {args.pr}")
        entry = summarise(args, parser)
        ledger.append(entry)
        with open(args.out, "w") as handle:
            handle.write(dumps(ledger))
        print("\n".join(entry_lines(entry)))
    elif not (args.trajectory or args.check):
        parser.error("give RUNS --pr N, --trajectory or --check")
    if args.trajectory:
        print("\n".join(trajectory_lines(ledger)))
    if args.check:
        found = regressions(ledger)
        print("\n".join(found) or f"every newest row of {args.out} is inside its bound")
        return 1 if found else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
