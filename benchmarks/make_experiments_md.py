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
reference (``repro check`` scenario ``fused-backward-vs-autograd``,
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
scoring-bound. ``storage.hedge_overruns`` read ~5% of reads where it
read 93-100%: this PR also fixed the tally to compare the duration that
feeds the threshold's reservoir. (The tally is gone since: an unhedged
store reads no threshold, and ``hedge_overruns`` is an alias of the
backup reads a concurrent store fires — 0 on every ledger row.)""",
    ),
    (
        "Feature hydration at memory speed — the performance ledger, before / after",
        "feature_hydration",
        """xFraud Sec. 3.3.3 / Figs. 12-13 is about this layer: the KV-backed
feature loader, not the GNN, was the paper's bottleneck. After the
inference kernel the ledger said the same of this repo: on ``serve_hot``
the serving module's own time was 51% and storage 25% of the traced
wall. Each of the ~250 rows a ``score_batch(32)`` hydrates paid ~30 us
in ``np.load(BytesIO)`` (``ast.literal_eval`` compiling a header that
is byte-identical for every row) and ~14 us in
``ReplicatedKVStore.get`` around a 0.3 us dict read — 4 us of it
``hedge_threshold()`` copying and sorting the 256-sample latency
reservoir on every read (the unhedged store every caller uses no longer
reads a threshold at all). Now `storage.decode_array` parses each
distinct header once (numpy's own parser, memoised on the header
bytes; every blob still has magic/version matched, object dtypes
refused, payload length checked), rows land in one preallocated matrix
(`storage.load_rows`, the one loop all four hydration sites share), and
the threshold is memoised on ``Reservoir.version`` — the identical
value, re-sorted on ~256/seen of reads. The wire format, the per-key
``store.get`` and every per-read check are unchanged; ``repro check``
scenario ``fast-decode-vs-np-load`` holds the decoder to ``np.load``'s
accept/reject set and bytes.

Claimed beforehand: ``latency_p50_ms`` on ``serve_hot`` improves by 50%
or more (17.0 -> <= 8 ms). Same protocol as the section above, ledger
code byte-identical on both sides; all 24 ``ledger.json`` are under
`benchmarks/results/ledger_pr13/`. Seeds 1-9 were not used while the
change was written (three seed-0 ``serve_hot`` runs made then, 18.0 /
18.2 ms parent and 6.28 ms change, are not in the table). Expected to
move, not claimed: ``serve_hot`` throughput / p95 and all three
``serve_cold`` timings (p50 1.56 -> 0.78 ms). Must not move:
``stream_ingest`` and ``train_epoch`` (neither has a feature store),
``setup_s`` (rows are still written by ``np.save``), ``peak_rss_mb``,
every ``auc`` and ``scores_crc32`` (equal for every seed), ``failed``
(0 in all 80 + 16 workload runs). ``train_epoch`` read -1.2% throughput
with the change ahead in only 2/10 pairs although no code it runs was
touched; ten further ``train_epoch``-only pairs (seeds 10-19,
`ledger_pr13/train_epoch_seeds10_19.txt` and `train_epoch_only/`) read
+1.2% with the change ahead in 7/10, so the first reading was noise
inside the workload's 3% spread.

Where the saving sits (traced pairs, seeds 0 and 1): on ``serve_hot``
``serving.self_share`` + ``storage.busy_share`` fell from 75.6% / 75.8%
to 42.5% / 44.0% of the traced wall (the issue asked for under 45%)
with ``storage.reads`` (100,268 / 93,437) and ``models.forward_calls``
(400) exactly equal on both sides; per hydrated row the serving
module's self time went 42 -> 6 us and the traced ``storage.get``
20 -> 6 us. One thing the issue predicted did not hold: ms per forward
was expected unchanged and fell (3.62 -> 2.77 ms on ``serve_hot``,
0.49 -> 0.38 ms on ``serve_cold``) with the forward's code and inputs
identical (``scores_crc32`` equal) — consistent with the forward no
longer running behind 250 header compiles that evict its working set,
but that cause is not verified. The largest ``serve_hot`` layer is now
the forward (39%), then the serving module (22%) and storage (21%).""",
    ),
    (
        "Live-graph growth at O(delta) — the performance ledger, before / after",
        "graph_growth",
        """xFraud scores each incoming transaction against a graph that every
transaction grows (Sec. 1: deployed on a 1.1B-node graph). The ledger
row nobody had acted on: on ``stream_ingest`` the traced
``stream.builder.flush_share`` was 0.39-0.43 of the timed wall — ~7 ms
per flush to add ~95 node rows and ~260 edges, more than sampling and
the forward together — because ``HeteroGraph.append_delta`` rebuilt
every node, edge and feature array with ``np.concatenate`` (a fresh
41 MB feature matrix per flush by the end of the run) and ``_merge_csr``
scattered all E old entries through E-sized temporaries. Total ingest
cost was quadratic in stream length. Now each of the six arrays and the
CSR's source / edge-id columns lives in a spare-capacity buffer that
grows by half when full; a delta writes its own rows past the published
length and re-publishes exact-length prefix views (still plain
C-contiguous ``ndarray`` attributes; a graph that never appends owns
exact arrays and allocates nothing), and ``_splice_csr`` shifts the old
CSR entries back to front inside the buffer, one slice copy per
receiving bucket, bit-identical to a stable rebuild. ``compact()`` is
unchanged (rebuild + validate), as are sampler output and every score.

Claimed beforehand: ``throughput_per_s`` on ``stream_ingest`` improves
to a median of 2,300 ops/s or more from ~1,770-1,880 (>= +25%; expected
+40-60%). Measured +62.7% (1,823 -> 2,967), the change ahead in 10/10
pairs, parent interquartile range 68 ops/s. Same protocol as the two
sections above, ledger code byte-identical on both sides; all 24
``ledger.json`` are under `benchmarks/results/ledger_pr14/`. Seeds 1-9
were not used while the change was written (seed-0 ``stream_ingest``
runs made then — 1,848 / 1,824 parent, 2,798 change — are not in the
table). Expected to move, not claimed: ``stream_ingest``
``latency_p50_ms`` (about one 32-event batch period; 17.4 -> 10.0 ms)
and ``latency_p95_ms`` (26.4 -> 17.3 ms). Must not move: every metric
on ``serve_cold``, ``serve_hot`` and ``train_epoch`` (none of them
calls ``append_delta``); on ``stream_ingest`` ``auc`` (identical),
``setup_s`` and ``peak_rss_mb`` (559.9 vs 560.2 MiB: spare capacity is
``np.empty`` and untouched until written, and the 41 MB-per-flush
transient is gone); ``failed`` (0 in all 80 + 16 + 40 workload runs);
``scores_crc32``, ``graph_version``, ``graph_nodes`` and the final
node / edge / version counts (equal for every seed). ``serve_cold`` and
``serve_hot`` read -3.3% / -4.0% throughput with the change ahead in
3/10 pairs although the code they run is the parent's (a microbench of
``subgraph`` / ``with_features`` / ``sample`` reads the same on both
trees); ten further serve-only pairs with the order reversed (seeds
10-19, `ledger_pr14/serve_only_seeds10_19.txt` and `serve_only/`) read
-0.4% (5/10) and +4.3% (6/10), so the first reading was noise inside
the box's spread.

Where the saving sits (traced pairs, seeds 0 and 1):
``stream.builder.flush_share`` fell from 0.392 / 0.398 to 0.059 / 0.059
(the issue asked for <= 0.12) — one real flush 6.8 / 7.7 ms -> 0.68 /
0.67 ms (asked: <= 1.5) — with ``flush_calls`` (586), ``compact_calls``
(117), ``edges_final``, every cache / sampling / forward count and
``scores_crc32`` exactly equal on both sides, and the traced timed wall
went 8.2 / 9.1 s -> 5.4 / 5.3 s. Every other layer's *share* rose
because the wall shrank; none of them got slower. ``stream_ingest`` is
now sampling-bound (30%), then the forward (22%); compaction (rebuild +
re-validate every 128 events, 4-4.6 ms each, untouched here) is 10% and
is the next item on this path. What remains of a flush is the O(E) part
of the in-place splice (the block shift is a memmove of the entries
past the first receiving bucket) and a re-adoption copy of the CSR
columns after each compaction's rebuild; `bench_stream_throughput.py::
test_flush_ratio_floor` holds a 32-event flush into 40k nodes to <= 2x
one into 5k nodes (reads 1.5-1.9x; the parent reads ~10x), and
`benchmarks/results/stream.txt` has apply+flush at 76k events/s (29k
before; the floor is now 29,000).""",
    ),
    (
        "One request path — the performance ledger, a change that claims no gain",
        "one_request_path",
        """xFraud's deployed path (Sec. 3.3.3, App. H.5) is one pipeline per
transaction — sample, KV feature lookup, forward. ``ScoringService``
had it twice (a sequential scorer behind ``score()``, a micro-batch
scorer behind ``score_batch()`` / ``drain()``, kept equal by a fuzz
scenario) and gated every replicated read twice (``ReplicaHealth``
beside an injected per-replica ``CircuitBreaker``). Now ``score(r)`` is
a batch of one through the micro-batch pipeline and a replica's health
machine is its only gate; the sequential scorer, the per-replica
breakers, four copies of the KV-wrapper pass-through and the second
rendezvous hash are deleted (net -228 lines of ``src/``). The service's
own breaker and retry layer in front of a *plain* store went later:
the service reads every store through one path, and a lone store is
served as a one-replica tier, whose health machine is its gate.

Nothing was claimed beforehand except "no worse": every end-to-end
metric on all four workloads inside its bound, and ``serve_cold``
``latency_p50_ms`` — ``serve_cold`` is the workload that calls
``score()`` — within the parent's own interquartile range of the parent
median. Measured +0.5% (0.8129 -> 0.8172 ms, parent IQR 0.044 ms, the
change ahead in 6/10 pairs). Same protocol as the three sections above,
ledger code byte-identical on both sides; every run made is under
`benchmarks/results/ledger_pr15/` (20 untraced + 2 traced
``ledger.json``, 20 ``stream_ingest``-only results). ``auc``,
``scores_crc32`` and every exact count are equal for every seed and
``failed`` is 0 in all 80 + 8 + 20 workload runs. Four seed-0..3
``serve_cold``-only pairs made while the change was being written
(0.819 / 0.854 / 0.842 / 0.821 ms parent, 0.893 / 0.792 / 0.803 / 0.835
ms change) are not in the table.

The one behaviour that changed, on purpose: a replica that fails
intermittently without ever failing ``dead_after`` reads in a row is no
longer skipped for a cool-down; each failed read costs one failover and
still returns the right bytes (DESIGN.md, "One gate per replica";
``tests/test_replicated_store.py::
test_intermittent_primary_costs_a_failover_per_failed_read``).""",
    ),
    (
        "Training on the receptive field — the performance ledger, before / after",
        "receptive_field",
        """The paper's own cost centre is minutes per training epoch (App. H,
Figs. 12-13), and Sec. 3.2.3 builds detector+ so that a step touches a
k-hop neighbourhood rather than the graph. ``train_epoch`` was the one
ledger workload that had never moved: every 64-target step ran forward
and backward over all 1,808 nodes / 7,172 edges, while a 2-layer
detector's loss on that batch can see 500-600 nodes and 1.2-1.4k edges.
Now every model's ``loss`` runs on
``graph.sampling.receptive_field(graph, targets, L)`` — the uncapped
``L``-hop in-closure, holding exactly the CSR slices it walked —
through one shared path (`models/field.py`) that the trainer, the
distributed / elastic workers and the online fine-tuner all reach via
``model.loss``. The whole-graph step is gone, not kept beside it. The
contract is bit-level: attention dropout draws its mask at the parent's
edge count and gathers it by the field's ascending ``edge_ids``, so the
same seed gives the parent commit's losses (max difference over the 60
epoch losses of this table 1.8e-14), its ``auc`` per seed, the same
generator states, and hence the same fixture weights on the serving
workloads (``scores_crc32`` equal per seed). DESIGN.md ("field
contract") says which rows of the field are exact and why the rest are
never read; ``repro check`` scenario ``pruned-step-vs-full-graph`` holds
it on random graphs (five planted mutants each fail ``--fuzz 120``).

Claimed beforehand: ``throughput_per_s`` on ``train_epoch`` >= 2.0x the
parent's median (447 -> >= 890 targets/s). Measured 3.71x (453 ->
1,680), the change ahead in 10/10 pairs (3.15x-4.21x), parent
interquartile range 25 targets/s. Same protocol as the four sections
above, ledger code byte-identical on both sides; all 22 ``ledger.json``
are under `benchmarks/results/ledger_pr16/`. Seeds 1-9 were not used
while the change was written (three seed-0-fixture epochs timed by hand
then, 333-353 targets/s parent and 1,116-1,188 change on a slower spell
of the box, are not in the table). Expected to fall with it, not
claimed: ``train_epoch`` latency and ``peak_rss_mb``; ``setup_s`` and
``peak_rss_mb`` of the three serving workloads, whose fixture fit is ten
training steps. Must not move: the serving workloads' throughput and
latency (no training in their timed phase) — all inside their bounds;
``stream_ingest`` throughput reads -2.2% with the change ahead in 3/10,
a difference of 68 ev/s against a parent IQR of 131.""",
    ),
    (
        "One kernel, one tape node — the performance ledger, before / after",
        "fused_backward",
        """Training cost is the paper's own cost centre (App. H, Figs. 12-13:
minutes per epoch). After the receptive-field step a 64-target step ran
on ~570 nodes / ~1.4k edges and still took 40 ms where ``predict_proba``
on that field takes ~5: the step was tape overhead — 251 ``Tensor``
nodes and 40 scipy one-hot constructions — not arithmetic.
``HeteroConvLayer`` is now one autograd node over one kernel
(`models/hetero_conv.py`): ``kernel`` is the plain-array convolution
``predict_proba`` already scored with, taking an optional per-edge scale
(the dropout mask or the explainer's ``edge_mask``) and, only when a
tape records, returning its hand-derived backward; ``forward`` is a
single ``Tensor._make``; ``XFraudDetector.forward`` lays the graph out
once and keeps only the 64-row FFN head on the per-op tape. The per-op
``Tensor`` layer survives only as `src/repro/check/reference.py`, the
spec of ``repro check``'s ``fused-backward-vs-autograd`` scenario
(the forward, and from here the backward: loss, generator states and
every gradient within 1e-12 of the per-op tape, plus central
differences of the kernel; five planted mutants each fail ``--fuzz
120``). There is no switch between the two. DESIGN.md has the node's
six-clause contract.

Claimed beforehand: ``throughput_per_s`` on ``train_epoch`` >= 2.0x the
parent's median (1.53k -> >= 3.0k targets/s). Measured 2.98x (1,500 ->
4,467), the change ahead in 10/10 pairs (2.39x-3.30x), parent
interquartile range 93 targets/s; the same seed gives the parent's
epoch losses to 2.9e-14 and its ``auc`` exactly. Same protocol as the
sections above, ledger code byte-identical on both sides; this summary
is the one file committed (the per-seed ``ledger.json`` were not).
Seeds 1-9 were not used while the change was written (seed-0 runs made
then — 1,592 parent; 4,225 / 4,289 change — are not in the table).
Expected to fall with it, not claimed: ``train_epoch`` latency and
``peak_rss_mb``; ``setup_s`` and ``peak_rss_mb`` of the three serving
workloads, whose fixture fit is ten training steps. Must not move: the
serving workloads' throughput and latency — all inside their 25%
bounds, ``scores_crc32`` / ``auc`` / ``graph_version`` / counts equal
per seed. ``serve_cold`` reads -3.9% throughput / +5.0% p50 with the
change ahead in 2/10: small against the bound and against the spread of
single runs, but consistent in sign, so it is reported as unresolved,
not as unchanged (the summary below says where it was looked for).
``serve_hot`` and ``stream_ingest``, whose stacked batches are past the
layout's 256-edge line and so reduce through a sparse matrix product
instead of ``np.add.reduceat``, read +3.4% / +2.4%.

One gate of the issue is **not met**: "net `models/` + `nn/` lines do
not grow, counting the per-op reference wherever it now lives". Counted
that way the change adds 312 lines (`models/hetero_conv.py` 471 -> 591,
`models/detector.py` 217 -> 245, `models/inference.py` 32 -> 33,
`nn/segment.py` 146 -> 157, `nn/tensor.py` 472 -> 475,
`check/reference.py` 0 -> 149): the hand-derived backward is new code,
and the per-op layer it replaces had to be kept, whole, as its
reference.""",
    ),
    (
        "One walk per micro-batch — the performance ledger, before / after",
        "batched_walk",
        """detector+ exists because neighbour sampling, not the convolution, is
what per-transaction inference pays for on graphs of 1.5-3.4 edges/node
(paper Sec. 3.2.3, Fig. 10: 5-7x from the sampler alone). After the flush
fix ``stream_ingest`` was sampling-bound (29% of the traced wall, more
than the forward), and not because every flush empties the
``SubgraphCache``: each event scores the transaction node created by
the flush before it and a ``txn_id`` cannot repeat, so its 15,000
lookups are 15,000 misses by construction (``graph.cache.hit_ratio`` 0
at both commits, whatever the cache does). What it paid was 15,000
``SageSampler.sample`` calls returning 8.8 nodes / 28 edges each, and
under each of them two group-deadline checks polling all 32 members
(2,112 ``Deadline.expired()`` calls per micro-batch).

``sample(graph, targets, disjoint=True)`` (`graph/sampling.py`) now
returns the block-diagonal union of one singleton sample per target
from ONE frontier expansion over ``(component, node)`` pairs — array
for array what ``stack_subgraphs([sample(graph, [t]) for t in
targets])`` returns, which stays in the code as the spec (the base
sampler's ``_sample_disjoint``: the ``HGSampler`` path, and what
``check.reference.scalar_sample(..., disjoint=True)`` runs);
``SubgraphCache.get_or_sample(..., disjoint=True)`` looks a micro-batch
up per target under today's singleton keys, samples the distinct misses
in one unlocked walk and leaves entries, LRU order and counters exactly
as the per-target loop would; ``ScoringService`` makes that one call
per micro-batch (``_sample`` and the per-member loop are gone,
``warm_cache`` is one call too). A single target takes the plain
``sample(graph, [t])`` route, read from the input: no switch, config
field, flag or environment variable was added. Entry fee: a ``repro
check`` scenario holding the walk to the stacked loop (now part of
``sampler-fast-vs-reference``; five planted mutants, each one edit of
the walk's own source, each failing ``--fuzz 120``), the ``cache-coherence`` invariant extended to a twin
cache driven by the loop (planted mutant: inserts before hits), and
`benchmarks/bench_sampler_fastpath.py::test_disjoint_walk_ratio_floor`
(>= 3x the 32 samples + stack, <= 1.5x its 7k-node cost at 45k nodes)
in CI's perf-smoke.

Claimed beforehand: ``throughput_per_s`` on ``stream_ingest`` >= 1.3x
the parent's median (2.85k -> >= 3.7k ev/s). Measured 1.44x (2,699 ->
3,883 ev/s), the change ahead in 10/10 pairs (1.29x-1.89x), medians
1,184 ev/s apart against a parent interquartile range of 235; p50
10.9 -> 7.4 ms and p95 18.6 -> 14.3 ms fall with it (expected, not
claimed). Same protocol as the sections above: ten alternating
parent/change pairs on seeds 0-9, untraced, ledger code byte-identical
on both sides, then two traced pairs (seeds 0, 1) for the per-layer
rows; ``scores_crc32`` / ``graph_version`` / ``graph_nodes`` / ``auc``
equal for every seed and every exact count equal in both traced pairs,
``failed`` 0 in all 80 runs. Seeds 4-9 were not run before the code was
final. Must not move, and did not: every end-to-end metric of
``serve_cold`` (batches of one: the unchanged singleton route),
``serve_hot`` (all hits: no walk in the timed phase; an all-hit lookup
of 32 costs 35 us against the loop's 71) and ``train_epoch`` (executes
no changed line) is inside its bound with the change ahead in 2-6 of 10
pairs — none resolved in either direction. Traced: ``graph.sampling.calls``
15,000 -> 469 (= ``models.forward_calls``), ``nodes_per_call`` 8.8 ->
280.6 (= ``models.nodes_per_call``), ``graph.sampling.busy_share`` 0.293
-> 0.063, ``serving.deadline_hits`` 0, shares summing to 1 on both
sides.

One acceptance line of the issue is **not met as written**:
"``graph.cache.self_share`` + ``serving.self_share`` not up by more than
0.02 together" reads +0.039 (seed 0) and +0.021 (seed 1). The summary
below gives seconds beside every share: together the two rows fell
(0.645 -> 0.625 s, 0.745 -> 0.567 s at reference speed) while the wall
they are a share of fell by a third; cache self alone rose by 0.04-0.09
s because ``unstack_subgraphs`` — cutting the walk into the per-target
entries the cache stores — runs inside ``get_or_sample`` (0.26 ms per
micro-batch here). Splitting and re-stacking together cost ~0.5 ms of a
~7.4 ms micro-batch; handing the union through when a whole cohort
missed and nobody was demoted was left out (it needs either a new field
on ``SampledSubgraph`` or a second return shape from the cache).

The hand measurements at the end of the summary are: a counting wrapper
round ``Deadline.expired`` over one ``score_batch`` of 32; ``sample`` /
``_sample_disjoint`` / ``stack_subgraphs`` / ``unstack_subgraphs`` timed
with ``perf_counter`` (medians of 100-300 calls, batch-of-one figures
over 400 distinct targets in 15 alternated passes); one
``StreamIngest`` workload object driven at ``--ops-scale 0.3`` with
timers round the same functions; and the demo commands of
`.github/workflows/ci.yml` run at both commits and diffed.""",
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
        "Samplers as pure functions — the ledger did not move (repo simplification)",
        "pure_sampler",
        """Not a paper table, and no gain claimed: the record that deleting the
samplers' second implementation (the constructor knob; the scalar walks
are now ``repro.check.reference.scalar_sample``), their registry handle
and clock (``instrument()``, the per-hop latency family) and
``ScoringService``'s full-graph branch left every end-to-end metric of
`BENCHMARK.json` inside its bound on all four workloads, with
``scores_crc32`` / ``exact`` equal per seed — the samplers return the
same subgraphs, array for array. No ledger workload attaches a registry,
so what the service's own timing of its walks saves shows in the
*Observability overhead* section below, not here.""",
    ),
    (
        "Each layer computes only the rows the next one reads — the ledger, before / after",
        "trimmed_layers",
        """Nodes are laid out by in-hop distance to the forward's targets, so
what each convolution layer reads, walks and outputs is a prefix of one
layout (DESIGN.md): on a 64-target training field layer 2 walks the 256
edges into the targets instead of all 1,395. Claimed beforehand:
``train_epoch`` ``throughput_per_s`` >= 1.2x; measured 1.199x, a hair
under the claim, with ``serve_hot`` 1.22x beside it and served
``scores_crc32`` equal per seed.""",
    ),
    (
        "One multi-get per micro-batch — the ledger, before / after",
        "batched_hydration",
        """Feature rows are hydrated through ``KVStore.get_many``: one replica
gate, one health fold and one header parse per chunk instead of per row,
every per-key check kept (``batched-read-vs-per-key-gets`` holds it to
the loop of ``get`` calls). Claimed beforehand: ``serve_hot``
``throughput_per_s`` >= 1.2x; measured 1.32x (10/10), ``stream_ingest``
1.22x beside it.""",
    ),
    (
        "Weight-only tables once per parameter version — the ledger, before / after",
        "layer_plan",
        """Each layer's ``LayerPlan`` (packed Q/K/V, stacked attention, the
first layer's constant rows) is memoised on its parameters' versions,
and parameters are read-only outside ``Parameter.write``. Claimed
beforehand: ``serve_cold`` ``throughput_per_s`` >= 1.15x; measured
1.16x (10/10), ``serve_hot`` 1.16x beside it.""",
    ),
    (
        "Layer 1 through (transaction, edge type) tables — the ledger, before / after",
        "layer_one_tables",
        """Every first-layer edge joins a transaction to an entity whose row is a
constant of the weights, so its attention logit is linear in the
transaction's features: one matmul of the transaction rows gives every
logit per (edge type, head) and every value row, and an edge is two
lookups (DESIGN.md). Claimed beforehand: ``serve_hot``
``throughput_per_s`` >= 1.10x the parent's median, ahead in >= 9/10
pairs, medians apart by more than the parent's IQR; the table below is
the record, with the traced pair's per-layer shares.""",
    ),
    (
        "Features belong to transactions — the ledger, before / after",
        "txn_table",
        """Only transactions have input features (Sec. 3.2(1)), so a graph holds
one ``(transactions, F)`` table, row ``k`` the ``k``-th transaction in
node order, and no entity row exists in any graph, delta, stack or KV
tier; ``GraphStore.save`` writes the transactions' ``feat/{node}`` rows
under one shared ``.npy`` header (DESIGN.md). Claimed beforehand:
``serve_cold`` ``setup_s`` >= 12% lower than the parent's median (ratio
>= 1.136x), ahead in >= 9/10 pairs, medians apart by more than the
parent's IQR; served scores and training losses unchanged.""",
    ),
    (
        "Head, loss and optimiser off the per-op tape — the ledger, before / after",
        "head_off_tape",
        """The detector's FFN head is one kernel on plain arrays, called with
nothing saved by ``predict_proba`` and recorded as one tape node by
``forward``; ``F.cross_entropy`` is one node; ``Optimizer.step`` is one
flat in-place update with moments in flat buffers (DESIGN.md). A
detector+ step records five tape nodes where it recorded 49, and its
bits are the per-op tape's. Claimed beforehand: ``train_epoch``
``throughput_per_s`` >= 1.06x the parent's median, ahead in >= 9/10
pairs, medians apart by more than the parent's IQR; ``scores_crc32``
equal per seed on every serving row, epoch losses within 1e-12.""",
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
