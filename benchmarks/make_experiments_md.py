"""Assemble EXPERIMENTS.md from benchmarks/results/*.txt and BENCH_ledger.json.

Usage:  python benchmarks/make_experiments_md.py EXPERIMENTS.md README.md
Run after ``pytest benchmarks/ --benchmark-only`` so every result file
exists. Pairs each reproduced artefact with the paper's reference
numbers and the shape conclusion the bench asserts, and regenerates
README's performance table between its markers: the ledger
trajectory's rows for ``README_METRICS``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from summarise_pairs import LEDGER, load_ledger, trajectory_lines

RESULTS = os.path.join(os.path.dirname(__file__), "results")
README_START = "<!-- performance table: benchmarks/make_experiments_md.py -->"
README_END = "<!-- end of performance table -->"
README_METRICS = ("throughput_per_s", "latency_p50_ms", "peak_rss_mb")

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of *xFraud* (VLDB 2021) regenerated on the
synthetic substrate. Absolute numbers are not comparable — the paper
ran on eBay's proprietary billion-scale graphs and a GPU cluster, this
repo runs a scaled simulation on one CPU — so each experiment reports
the paper's reference values, our measured values, and whether the
**shape** (orderings, trade-offs, crossovers) reproduces. The shape
claims are enforced as assertions inside `benchmarks/bench_*.py`, and
a row is certified only by its own bench passing. One does not pass:
`bench_sampler_ablation.py::test_fig10_sampler_ablation` (Figure 10)
fails its speed ordering, so that row is not certified.

Regenerate: `pytest benchmarks/ --benchmark-only && python benchmarks/make_experiments_md.py EXPERIMENTS.md README.md`
"""

SECTIONS = [
    (
        "Table 2 & 6 — dataset statistics",
        "table2_6_datasets",
        """Paper: eBay-small 289K nodes / 613K edges / 4.30% fraud (114 features);
eBay-large 8.9M / 13.2M / 3.57% (480); eBay-xlarge 1.1B / 3.7B / 4.33% (480);
txn nodes dominate every mix (42–77%).

Shape reproduced: five node types with txn the most frequent, sparsity
in the 1.3–3.5 edges/node band, post-downsampling fraud rate in the low
percent — asserted in `bench_datasets.py`.""",
    ),
    (
        "Table 3 & 7 — end-to-end detector comparison",
        "table3_7_end_to_end",
        """Paper (8 machines, mean over seeds): detector+ AUC 0.9074 > GEM 0.8961 >
GAT 0.8879; detector+ AP 0.594 well ahead (GEM 0.456, GAT 0.430); GEM fastest
inference (0.0167 s/batch), detector+ slowest (0.0799 s/batch); 16 machines
~1.8x faster per epoch with AUC drop for detector+ (0.9074 -> 0.8892).

Shape asserted in `bench_end_to_end.py`: detector+ clearly beats the
GEM-style model on AUC and AP (the paper's headline architecture
comparison, Sec. 1 contribution (1)); 16 workers faster per epoch with no
AUC gain. **Deviation, inference column:** the paper's ordering (GEM
fastest, detector+ slowest) is reported but no longer asserted. Since
PR 12 detector+ scores through a plain-array kernel while GAT and GEM
still score through the per-op ``Tensor`` forward, so the column times
two engines, not three architectures: it reads GEM 0.353 vs detector+
0.165 s/batch below, and the assertion "GEM <= detector+" had been
failing since then. The same holds for "Train s/epoch (sim)" since the
detector's convolution became one tape node: detector+ now trains the
8-machine epoch in 0.077 s against GEM's 0.086 (0.269 vs 0.135 when
both ran on the per-op tape). Accuracy, AP and AUC regenerate identical
to the printed precision.
**Divergence:** at simulation scale the
type-blind GAT baseline overperforms its paper ranking — with 10^3–10^4
labeled nodes and transductive training, convergence speed and neighbour
feature-fingerprint memorisation dominate, favouring the single shared
projection. The bench asserts detector+ stays within noise of GAT and
EXPERIMENTS reports the measured numbers.""",
    ),
    (
        "Figures 8 / 9 / 15 — PR and ROC curves",
        "fig8_9_15_curves",
        """Paper: detector+ dominates the PR trade-off and the ROC at FPR < 0.1
("xFraud significantly outperforms GAT and GEM when only a small FPR is
allowed").

Shape asserted in `bench_curves.py`: detector+'s partial AUC (FPR<0.1) is
at least GEM's and within noise of GAT's (see the GAT divergence note).""",
    ),
    (
        "Figure 10 — sampler ablation (detector vs detector+)",
        "fig10_sampler_ablation",
        """Paper: detector+ (GraphSAGE sampling) is 5x (eBay-large) to 7x
(eBay-small) faster in total test-set inference than detector (HGSampling),
at equal or slightly better AUC (0.7262 vs 0.7248 small; 0.8690 vs 0.8683
large).

Shape asserted in `bench_sampler_ablation.py`: detector+ clearly faster at
equal AUC. The magnitude is bounded on the simulation because HGSampling
saturates our small connected components; the 5–7x arises at eBay scale.""",
    ),
    (
        "Sampler fast path — vectorized CSR batch sampling (repo optimisation)",
        "fastpath",
        """Not a paper table: this is the serving-path optimisation this repo
adds on top of the paper's samplers. The scalar per-node walk is kept as
the executable specification (``repro.check.reference.scalar_sample``,
a function of the sampler it is the spec of); the vectorized CSR walk —
the only one the samplers carry — must return seed-for-seed identical
subgraphs (both share one stateless hash RNG), and a bounded LRU
subgraph cache fronts it in serving.

Shape asserted in `bench_sampler_fastpath.py`: equivalence on every
(sampler, batch-size) configuration; vectorized speedup >= 2x at batch
128 for both samplers (the conservative floor CI's perf-smoke enforces
as ``test_vectorized_ratio_floor`` of the same file); end-to-end fast
path (vectorized + warmed cache) >= 5x at batch 128. Third table: what a
serving micro-batch samples — one ``sample(..., disjoint=True)`` walk
over 32 transaction targets — against the 32 singleton samples +
``stack_subgraphs`` it is defined by, on graphs of the ledger stream's
shape (``test_disjoint_walk_ratio_floor``: >= 3x, and the walk on 45k
nodes <= 1.5x the walk on 7k).""",
    ),
    (
        "The performance ledger — each PR's change over its parent",
        None,
        """Not a paper table, but the costs behind the paper's deployment claims
(Sec. 3.3.3, Table 3's inference column, Fig. 10): every change that
touched a ledger workload ran ten alternating parent/change pairs of
`benchmarks/ledger/run.py`, and `benchmarks/summarise_pairs.py --pr N`
appended the summary to `BENCH_ledger.json` — per workload and metric,
both sides' median and quartiles, the pairs the change was ahead in, the
bound, the verdict, the runs' environment and the summary's notes
(failed operations, equal `exact` records, the claim pair by pair, the
traced per-layer differences). Below, from `python
benchmarks/summarise_pairs.py --trajectory`: each PR's ratio of the
change's median to the parent's, and their running product. For a
`higher`-is-better metric (throughput, auc) a ratio above 1 is a gain;
for the others, below 1. The product chains ratios measured on
different days and is not one measurement. What each PR changed, and
its claim, is in CHANGES.md and in the entry's `notes`.""",
    ),
    (
        "Observability overhead — what a registry and a tracer each cost one request",
        "obs_overhead",
        """Not a paper artefact: the budget `benchmarks/bench_obs_overhead.py`
holds the instrumentation of the hottest path to, in microseconds per
``ScoringService.score``. Four services — off, tracing + metrics,
metrics only (a registry, no tracer), tracer constructed but disabled —
score the same 600 requests interleaved, each request to all four back
to back; the overhead is the median of the paired differences, because
the box's speed drifts by tens of per cent over seconds. All four score
through ONE model: a service times the walk it asked its sampler for and
observes it into its own registry (``sampler_sample_seconds`` +
``sampler_hops_total``, once per sampling stage that walked), so nothing
is left on a shared sampler and the bench's per-service sampler copies
are gone. The per-hop latency family is dropped from the exposition.

**The order is now shuffled per request (seeded), not rotated.** In
rotation every service has a fixed predecessor, and the slot after a
registry-carrying service is slower than the slot after an
uninstrumented one: a control whose fourth service was constructed
exactly like the first (``{}``: the same ``NULL_TRACER``, the same code)
read +4.9 / +8.5 / +9.3 us in rotation and +1.1 / -4.1 / +1.9 / +3.7 us
shuffled. That bias, not the span attributes, was most of the "tracer
disabled +3..+15 us" ROADMAP item 3 step 0 names: at this change *off*
and *tracer disabled* execute the same statements (attributes are
computed only for a recording span; ``_NullSpan`` is falsy), and in
rotation the row still read +0.7..+16.3 us (ten runs, four over the
10 us x 1.5 assert) against -3.9..+17.4 at the parent (one over).

Ten interleaved runs each, parent (cc8f527, its own bench file with the
shuffle applied and its per-service sampler copies kept) and this change, alternating
inside 90 seconds, box 0.9-1.4x the reference speed (uninstrumented p50 0.60-0.94 ms);
us per request, run by run:

```
parent   off p50 ms   0.689 0.686 0.686 0.935 0.671 0.621 0.630 0.628 0.639 0.615
  tracing + metrics   +87.7 +81.5 +83.6 +99.0 +92.8 +81.2 +92.7 +82.5 +88.5 +89.2   median +88.1
  metrics only        +41.7 +44.2 +41.5 +45.5 +43.7 +36.4 +42.1 +38.4 +35.3 +43.0   median +41.9
  tracer disabled      +9.6  -1.4  -3.6  -2.9  +6.2  +2.0  -7.2  -3.7  +4.3  +3.8   median  +0.3
change   off p50 ms   0.754 0.726 0.675 0.637 0.649 0.597 0.665 0.836 0.629 0.632
  tracing + metrics   +78.0 +90.5 +74.4 +83.9 +79.5 +67.7 +76.5 +88.5 +74.4 +75.3   median +77.3
  metrics only        +23.8 +27.9 +20.0 +24.1 +21.0 +18.8 +17.6 +38.8 +30.4 +23.8   median +23.8
  tracer disabled      +3.5  -0.0  -4.8  +0.8  +8.9  -3.8  -4.8  +2.4  -4.3  +4.5   median  +0.4
```

No row reads higher at the change. *Metrics only* fell (every change
run but the slowest-box one is under every parent run); *tracing +
metrics* fell by about the same microseconds; *tracer disabled* is zero
to within the method's resolution at both commits and under its 10 us
budget in all ten (and all ten of the parent's, once shuffled). What is
left in the *metrics only* row is two ``observe`` calls (request latency,
the walk), one ``inc`` and three clock reads per request. The same ten
pairs in the old rotating order read, parent -> change: +78.5..+131.6 ->
+68.7..+85.0 (tracing + metrics), +31.3..+59.8 -> +23.1..+34.1 (metrics
only); three more rotating-order runs at the change on a box then
~1.5x slower read +101.9 / +37.4 / +13.1, +94.5 / +38.5 / +7.4 and
+92.5 / +45.9 / +7.5.

Budgets, re-derived and never raised: the seven change runs inside the
reference speed band (p50 0.60-0.70 ms) read at most +83.9 / +30.4 /
+8.9 us, rounded up to the next 5: ``tracing + metrics`` 100 -> 85,
``metrics only`` 50 -> 35, ``tracer disabled`` stays 10; the asserts
keep their 1.5x for the box's speed, and CI's obs job now runs them.
The table below is the last run at this change with the box at
reference speed (the run before it, at 0.97 ms, read +90.4 / +28.1 /
+2.5).""",
    ),
    (
        "Figure 14 — distributed convergence",
        "fig14_convergence",
        """Paper (Appendix C): 16-machine training does not converge faster and
lands at worse final AUC than 8-machine training, for all three models.

Shape asserted in `bench_convergence.py`: detector+'s final AUC on 16
workers does not beat 8 workers.""",
    ),
    (
        "Table 1 — hit rate of 13 centralities vs GNNExplainer vs random",
        "table1_hit_rates",
        """Paper (all 41 communities): informative measures cluster tightly
(H_Top5 0.441–0.469, GNNExplainer 0.445) far above random (0.127); hit
rates grow with k toward ~0.92 at Top25; no centrality dominates.

Shape asserted in `bench_table1_centrality.py`: GNNExplainer and the
centralities beat random at Top5; hit rates grow with k; GNNExplainer
lands inside the centrality band. Absolute agreement is lower than the
paper's (their annotators and the explainer both concentrate on the same
real risk paths; our simulated panel necessarily agrees less).""",
    ),
    (
        "Tables 4 & 12 — hybrid explainer on the 21/20 split",
        "table4_12_hybrid",
        """Paper: the hybrid (grid/ridge) matches or beats both pure strategies at
every k (e.g. Top10 0.811 hybrid-ridge vs 0.782/0.776 pure), and the
polynomial-degree search selects degree 1.

Shape asserted in `bench_hybrid.py`: hybrid never falls below the weaker
pure strategy, matches-or-beats both on a subset of k, and the
polynomial-degree search selects degree 1.""",
    ),
    (
        "Tables 8–11 — GNNExplainer vs random under avg/min/sum aggregation",
        "table8_11_aggregations",
        """Paper: GNNExplainer beats random at every k under every aggregation
(Top5 0.45 vs 0.13); the gap is largest at Top5 and shrinks as k grows; no
substantial difference between aggregation strategies or community labels.

Shape asserted in `bench_agg_methods.py`: positive gap at Top5 and on
average across k for all three aggregations, with no material loss at any
k.""",
    ),
    (
        "Table 13 — confusion by community complexity",
        "table13_case_studies",
        """Paper: no false positives in complex communities; higher FN share in
complex communities (24%) than FP (0%); most communities classified
correctly. Case studies (Figures 11/16/17) rendered as text + DOT.

Shape asserted in `bench_case_studies.py`: counts add up and the majority
of communities are classified correctly.""",
    ),
    (
        "Tables 14–19 — threshold sweeps and the production projection",
        "tables14_19_thresholds",
        """Paper: TPR falls / TNR rises monotonically with the threshold; at high
thresholds detector+ keeps usable recall at precision near 1 where the
baselines are empty; Appendix H.4 projects 0.98 precision at 4.33% fraud
to ~0.32 on the 0.043% stream (and 0.95 -> ~0.16).

Shape asserted in `bench_thresholds.py`: monotone sweeps; detector+
retains recall > 0.02 at precision > 0.8 in the high-threshold regime. The
H.4 projection identities are unit-tested exactly
(`tests/test_metrics.py::TestStreamProjection`).""",
    ),
    (
        "Figure 7 — the explainer/centrality trade-off",
        "fig7_tradeoff",
        """Paper: neither GNNExplainer nor any centrality dominates across
communities — each wins on a meaningful subset, motivating the hybrid.

Shape asserted in `bench_tradeoff.py`: both sides win on >= 3 of the 41
communities for the headline measure (edge betweenness).""",
    ),
    (
        "Figures 12 & 13 — KV-store data loading",
        "fig12_13_kvstore",
        """Paper: replacing the single-threaded (LevelDB-style) store with
multi-reader mmap (LMDB) cut eBay-large data loading from ~45 min to
~1 min per epoch.

This table used to read 1.01x (8,990 vs 9,086 rows/s), and ROADMAP asked
which it was: a bench that exercises no contention, or a store with no
contended section. Neither — the single handle's lock *is* a contended
section, and two things hid it. (1) Each row then cost ~30 us of
GIL-held ``np.load`` outside the lock against ~0.3 us inside it, so the
lock was ~1% of a row; with the header-once decoder a row is ~3 us and
the lock path is a real share of it (one worker, no contention: the
locked path alone costs 1.15x). (2) The cost of contention under the
GIL is a lock *convoy* — a holder that loses the GIL stalls every
waiter — which takes a while to form and then persists: the old bench
ran 7,680 rows once. Re-run at the parent commit with 10x the rows, the
old decoder already showed 2.7-3.0x in two runs of three (93-107 vs 34
us/row). With the new decoder a convoyed single-handle run lands at
~36 us/row against ~2.9 us/row on private handles (12x) and an
unconvoyed one at 1.2x; the state is sticky within a process — over
four executions of this bench, all five single-handle runs convoyed in
two and one or two of five in the others (the committed table is one
of the latter: read the range column, its slow end is a convoy) —
hence the median of five alternating runs beside the range.

Shape asserted in `bench_kvstore.py`: with four workers the multi-handle
design beats the single handle (median speedup >= 1.05; measured 1.18x
to 12x). The old check allowed it to be 25% *slower*.
`test_decode_ratio_floor` in the same file is the CI floor for the
decoder (>= 5x ``np.load`` per 128-float row, measured ~26x).""",
    ),
    (
        "Table 5 / Figure 1 — heterogeneous dataset survey",
        "table5_fig1_survey",
        """Paper: Appendix A surveys 2015–2021 heterogeneous datasets; eBay-xlarge
is the largest reported heterogeneous GNN workload (1.1B nodes / 3.7B edges).

Reproduced as static data plus the live statistics of the simulated
datasets; asserted in `bench_survey.py`.""",
    ),
    (
        "Ablation — graph value (feature-only MLP vs GNNs)",
        "ablation_feature_only",
        """Implied by the paper's premise: relational fraud (stolen cards whose
features mimic normal buying) is invisible to a feature-only model.

Shape asserted in `bench_feature_only.py`: every GNN beats the
feature-only MLP by a clear AUC margin.""",
    ),
    (
        "Degraded rung — the linked-label score on held-out transactions",
        "degraded_rung",
        """Not a paper table: this repository's serving ladder (gnn -> linked ->
prior). When the GNN path cannot answer, a transaction scores the
largest fraud share among the labelled transactions sharing an entity
with it — the relational evidence of the paper's case studies (Table 13:
shared addresses, cultivated accounts), read off the serving graph.

Shape asserted in `bench_degraded_rung.py`: with the test labels hidden,
the rung's AUC is >= 0.6 in >= 5 of 6 seeds on both datasets. The feature
rules it replaced read AUC 0.496-0.510 on the same runs. No ordering
against the GNN is asserted on this random split.""",
    ),
    (
        "Ablation — shared vs target-specific aggregation (Sec. 3.2.1)",
        "ablation_aggregation",
        """Paper: "We see a better performance in our detector when shared weights
among different types of nodes are used" (and lower compute cost).

Shape asserted in `bench_ablation_aggregation.py`: the shared variant uses
fewer parameters and does not lose AUC.""",
    ),
]


def render() -> str:
    parts = [HEADER]
    for title, result_name, commentary in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(commentary.strip() + "\n")
        if result_name is None:
            parts.append("\n" + "\n".join(trajectory_lines(load_ledger(LEDGER))) + "\n")
            continue
        path = os.path.join(RESULTS, f"{result_name}.txt")
        if os.path.exists(path):
            with open(path) as handle:
                body = handle.read().strip()
            # Keep the generated file readable: clip very long dumps.
            lines = body.splitlines()
            if len(lines) > 60:
                body = "\n".join(lines[:60]) + f"\n… ({len(lines) - 60} more lines in benchmarks/results/{result_name}.txt)"
            parts.append(f"\nMeasured (this run):\n\n```\n{body}\n```\n")
        else:
            parts.append(
                f"\n*(results file benchmarks/results/{result_name}.txt missing — run the bench suite)*\n"
            )
    return "\n".join(parts)


def readme_with_table(text: str) -> str:
    """``text`` with the lines between README's markers regenerated."""
    start, end = text.index(README_START) + len(README_START), text.index(README_END)
    table = trajectory_lines(load_ledger(LEDGER), README_METRICS)
    return text[:start] + "\n" + "\n".join(table) + "\n" + text[end:]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="where to write EXPERIMENTS.md")
    parser.add_argument("readme", help="the README.md whose performance table is regenerated in place")
    args = parser.parse_args(argv)
    with open(args.out, "w") as handle:
        handle.write(render())
    with open(args.readme) as handle:
        text = readme_with_table(handle.read())
    with open(args.readme, "w") as handle:
        handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
