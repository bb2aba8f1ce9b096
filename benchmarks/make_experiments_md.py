"""Assemble EXPERIMENTS.md from benchmarks/results/*.txt.

Usage:  python benchmarks/make_experiments_md.py
Run after ``pytest benchmarks/ --benchmark-only`` so every result file
exists. Pairs each reproduced artefact with the paper's reference
numbers and the shape conclusion the bench asserts.
"""

from __future__ import annotations

import os

RESULTS = os.path.join(os.path.dirname(__file__), "results")
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of *xFraud* (VLDB 2021) regenerated on the
synthetic substrate. Absolute numbers are not comparable — the paper
ran on eBay's proprietary billion-scale graphs and a GPU cluster, this
repo runs a scaled simulation on one CPU — so each experiment reports
the paper's reference values, our measured values, and whether the
**shape** (orderings, trade-offs, crossovers) reproduces. The shape
claims are enforced as assertions inside `benchmarks/bench_*.py`; a
green `pytest benchmarks/ --benchmark-only` certifies every row below.

Regenerate: `pytest benchmarks/ --benchmark-only && python benchmarks/make_experiments_md.py`
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
comparison, Sec. 1 contribution (1)); GEM fastest inference; 16 workers
faster per epoch with no AUC gain. **Divergence:** at simulation scale the
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
the executable specification (``reference=True``); the vectorized CSR
path must return seed-for-seed identical subgraphs (both share one
stateless hash RNG), and a bounded LRU subgraph cache fronts the fast
path in serving.

Shape asserted in `bench_sampler_fastpath.py`: equivalence on every
(sampler, batch-size) configuration; vectorized speedup >= 2x at batch
128 for both samplers (the conservative floor CI enforces via
``repro bench-sampler --min-speedup 2.0``); end-to-end fast path
(vectorized + warmed cache) >= 5x at batch 128.""",
    ),
    (
        "Autograd-free inference forward — the performance ledger, before / after",
        "inference_forward",
        """Not a paper table, but the paper's systems claim is per-transaction
inference cost (Sec. 3.2.3 / Table 3 / Fig. 10). The ledger
(`benchmarks/ledger/`, PR 11) decomposed a 3.2 ms cold request into 60%
forward — 2 ms for an 11-node subgraph, which is per-op ``Tensor``
construction, not arithmetic. ``XFraudDetector.predict_proba`` is now
one plain-numpy kernel over type-sorted nodes and target-sorted edges
(`models/hetero_conv.py` ``forward_inference``); the ``Tensor``
``forward`` stays for training, the explainer and as the kernel's
reference (``repro check`` scenario ``fused-vs-autograd-forward``,
bound 1e-12; measured max |Δscore| 3e-16 on the 6.9k-node graph).

Claimed beforehand: ``latency_p50_ms`` on ``serve_cold`` improves by 25%
or more. Measured by the ledger README's "Comparing two commits"
protocol with the ledger code byte-identical on both sides; every run
made is committed under `benchmarks/results/ledger_pr12/` (20 untraced
+ 4 traced ``ledger.json``; compare any two with
`benchmarks/ledger/agree.py`). Seeds 3-9 were not used while the change
was written (three earlier seed-0 ``serve_cold`` runs, 3.25 / 3.17 ms
parent and 1.59 ms change, are not in the table). Should move, not
claimed: ``serve_cold`` throughput and p95, ``serve_hot`` and
``stream_ingest`` (forward share 29% / 27%). Should not move:
``train_epoch``, ``setup_s``, ``peak_rss_mb``, every ``auc`` (equal to
the printed precision; ``scores_crc32`` and every exact count equal for
every seed). ``failed`` is 0 in all 96 workload runs.

``models.forward_share`` on ``serve_cold`` fell from 60% to 26% (the
issue predicted 20-25%) with ``models.forward_calls``,
``serving.requests``, ``graph.cache.*`` and ``storage.reads`` exactly
equal: the saving sits in `models` (2.05 -> 0.46 ms a forward) and
nowhere else — every other layer's ms per request is unchanged, its
share of a shorter request is larger. The serving module's own time
(0.61 ms a request, mostly ``np.load`` row decodes) is now the largest
``serve_cold`` layer; ``stream_ingest`` is flush-bound (35-42%), not
scoring-bound. ``storage.hedge_overruns`` reads ~5% of reads where it
read 93-100%: this PR also fixed the tally to compare the duration that
feeds the threshold's reservoir.""",
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

Shape asserted in `bench_kvstore.py`: the multi-handle design never loses
to the serialised one under 4-way concurrent loading; its advantage grows
with reader contention (up to ~3x in contended runs on this machine).""",
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
        "Ablation — shared vs target-specific aggregation (Sec. 3.2.1)",
        "ablation_aggregation",
        """Paper: "We see a better performance in our detector when shared weights
among different types of nodes are used" (and lower compute cost).

Shape asserted in `bench_ablation_aggregation.py`: the shared variant uses
fewer parameters and does not lose AUC.""",
    ),
]


def main() -> None:
    parts = [HEADER]
    for title, result_name, commentary in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(commentary.strip() + "\n")
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
    with open(OUTPUT, "w") as handle:
        handle.write("\n".join(parts))
    print(f"wrote {os.path.abspath(OUTPUT)}")


if __name__ == "__main__":
    main()
