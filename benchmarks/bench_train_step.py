"""One training step must cost what its batch can see, not what the
graph holds.

``model.loss`` runs its forward and backward on the batch's receptive
field (``repro.graph.sampling.receptive_field``): for a 2-layer
detector and 64 targets that is ~550 nodes / ~1.3k edges of the
quarter-scale graph's 1.8k / 7.2k. ``test_step_ratio_floor`` holds the
scaling: the same 64-target step on four disjoint copies of that graph
— the same field, four times the graph — costs at most
``STEP_RATIO_BUDGET``x the step on one copy (a ratio of two timings
taken in one process, so machine speed cancels; CI's perf-smoke runs
it). When every step ran over the whole graph the ratio read 5.0x
(139 -> 692 ms); per pair it reads 1.04-1.12x over 15 runs. What still follows the graph is the dropout mask,
drawn at the parent's edge count so that every edge keeps the mask it
would have had there.

``test_step_vs_inference_ratio_floor`` holds the other half: a step
records five tape nodes — one per convolution layer over the kernel
``predict_proba`` runs, the targets' rows, the FFN head over the head
kernel ``predict_proba`` runs, the loss — each with a hand-derived
backward, and AdamW is one flat update, so a full step (loss, backward,
clip, AdamW) costs at most ``STEP_VS_INFERENCE_BUDGET``x scoring the
same targets on the same field — read as the median of the per-pair
ratios of two timings alternated in one process, so a slow spell of the
box moves one pair's ratio, not one side's median. On a 2-core Xeon VM
it read 4.12-4.52x over 16 runs (the ratio of the two series' medians
read 3.59-4.49x over 16 runs on the same box, and up to 5.83x on a busier day;
on other days the per-pair ratio read 5.22-6.09x over 22 runs, and
5.44-6.62x over 16 with 5.56-6.68x over 16 runs of the previous commit
alternated with them, 12 of 16 over the budget on each side;
5.67-5.80x with the head and the loss on the per-op tape and one update
per parameter). When every op and every node/edge type was its own
``Tensor`` it read 10x or more.

``test_trimmed_forward_ratio_floor`` holds what both sides of that
ratio share: each layer computes only the rows the next one reads
(``InferenceLayout.layer``), so scoring a stacked micro-batch of 32
sampled neighbourhoods at its 32 targets costs at most
``TRIMMED_FORWARD_BUDGET``x scoring the same graph with every
transaction a target (an entity has no row to score; every transaction
at distance 0, so nothing the first layer reads is cut). It reads
0.49-0.55x per pair over 15 runs; 0.53-0.58x when entities were scored
too.

``test_plan_memo_ratio_floor`` holds what every call of that kernel
no longer does: derive the packed ``[Q|K|V]`` weights, the stacked
attention matrices, the first layer's edge-type tables and each node
type's layer-1 row from the weights. Those live in a plan memoised per
parameter version (``HeteroConvLayer.plan``), so a single served sample
scored after a write of every conv parameter — the plan rebuilt each
time, as every call derived them before — costs at least
``PLAN_MEMO_BUDGET``x the same call on a warm plan. It reads 2.15-2.57x
per pair over 15 runs (1.50-1.58x on an earlier day).

``test_layer_one_tables_ratio_floor`` holds what the first layer's plan
buys: every first-layer edge joins a transaction to an entity whose row
is a constant, so the layer's logits are one matmul of the transaction
rows into a (transaction, edge type) table and its per-edge work is
lookups. On a 64-target training field its forward plus pullback costs
at most ``LAYER_ONE_BUDGET``x layer 2's on the same field, though it
walks 5x the edges and reads 2x the rows of a 2x wider input: 1.56-1.66x
per pair over 15 runs.

``test_selector_ratio_floor`` holds the pullback's per-edge sums: a
layout's 0/1 selectors (``nn.segment.Selector``) call scipy's compiled
``csr_matvecs`` / ``csc_matvecs`` on their index arrays, so layer 1's
three pullback sums on the 64-target field — built fresh, as every step
builds them — cost at most ``SELECTOR_BUDGET``x the same sums through
scipy matrices built the way the layout built them before (a
``csr_matrix`` and two bounds-checked ``csc_matrix`` one-hots), which
construct, validate and dispatch in Python around the same kernels: the
same bits, asserted.
On a 2-core Xeon VM it reads 0.28-0.44x over 13 runs, and 0.30-0.36x per
pair over 15; the budget is the worst of the 13 plus 15%.

``test_optimizer_step_ratio_floor`` holds what an AdamW step pays around
its arithmetic: the parameters are views of the optimiser's flat value
buffer, so a whole ``optimizer.step()`` over the detector's parameters
costs at most ``OPTIMIZER_STEP_BUDGET``x its ``_update`` alone over the
same flat buffers — the rest is the gradients laid end to end and a
version bump per parameter, no values concatenated or written back. It
reads 1.11-1.23x over 22 runs (1.58-1.73x while each step concatenated
the 72,524 values and wrote each parameter back), and 1.17-1.25x per
pair over 15; the budget is the worst of the 22 plus 15%.

Every floor here reads the median of the per-pair ratios of its
alternated timings (``_helpers.paired_ratio``), so a slow spell of the
box moves one pair's ratio, not one side's median.
``results/train_step_ratio_floors.txt`` holds 15 readings of each of the
six floors that read the ratio of two series' medians before, beside 15
readings of that estimator on the previous commit, alternated with them.
"""

import numpy as np
from scipy import sparse

from _helpers import alternated_readings, model_config, paired_ratio
from repro import nn
from repro.check.reference import stack_subgraphs
from repro.data import load_dataset
from repro.graph.hetero import EDGE_TYPES, NODE_TYPES
from repro.graph.sampling import SampledSubgraph, receptive_field
from repro.models import XFraudDetectorPlus
from repro.models.hetero_conv import InferenceLayout
from repro.nn.segment import Selector

STEP_RATIO_BUDGET = 1.5  # step on 4 copies of the graph vs on 1, same batch
STEP_VS_INFERENCE_BUDGET = 6.0  # full step vs predict_proba on the batch's field, per pair (4.12-6.68x by day, code alike)
TRIMMED_FORWARD_BUDGET = 0.8  # scoring a stacked batch at its targets vs at every transaction
PLAN_MEMO_BUDGET = 1.15  # a sample scored with its plan rebuilt vs on a warm plan
LAYER_ONE_BUDGET = 2.2  # layer 1's forward + pullback vs layer 2's, one training field
SELECTOR_BUDGET = 0.51  # layer 1's pullback sums through Selectors vs scipy matrices (worst 0.44x)
OPTIMIZER_STEP_BUDGET = 1.42  # AdamW step() vs its _update arithmetic alone (worst 1.23x)
PLAN_SAMPLES = 50
MICRO_BATCH = 32
BATCH = 64
COPIES = 4


def _tiled(graph, copies):
    part = SampledSubgraph(graph, np.zeros(0, dtype=np.int64), np.arange(graph.num_nodes))
    return stack_subgraphs([part] * copies).graph


def test_step_ratio_floor():
    """Per-step cost must not track the size of the graph."""
    bundle = load_dataset("ebay-small-sim", seed=0, scale=0.25)
    graphs = [bundle.graph, _tiled(bundle.graph, COPIES)]
    batch = np.random.default_rng(0).permutation(bundle.train_nodes)[:BATCH]
    model = XFraudDetectorPlus(model_config(bundle.graph.feature_dim, seed=0))
    optimizer = nn.AdamW(model.parameters(), lr=1e-2)
    model.train()

    def step(graph):
        optimizer.zero_grad()
        model.loss(graph, batch).backward()
        nn.clip_grad_norm(model.parameters(), 0.25)
        optimizer.step()

    for graph in graphs:  # build each CSR, grow the heap to the tape's working set
        step(graph)
    small, large = alternated_readings([lambda g=g: step(g) for g in graphs])
    ratio = paired_ratio(large, small)
    small_us, large_us = np.median(small), np.median(large)
    fields = [receptive_field(graph, batch, hops=2).graph for graph in graphs]
    assert fields[0].num_edges == fields[1].num_edges
    print(
        f"\n{BATCH}-target step (field {fields[0].num_nodes:,} nodes / {fields[0].num_edges:,} "
        f"edges): {small_us / 1e3:.1f} ms on {graphs[0].num_nodes:,} nodes / "
        f"{graphs[0].num_edges:,} edges, {large_us / 1e3:.1f} ms on {graphs[1].num_nodes:,} / "
        f"{graphs[1].num_edges:,} -> {ratio:.2f}x per pair (budget <= {STEP_RATIO_BUDGET:.1f}x)"
    )
    assert ratio <= STEP_RATIO_BUDGET


def test_step_vs_inference_ratio_floor():
    """Training must run at the inference kernel's speed, not the tape's."""
    bundle = load_dataset("ebay-small-sim", seed=0, scale=0.25)
    batch = np.random.default_rng(0).permutation(bundle.train_nodes)[:BATCH]
    field = receptive_field(bundle.graph, batch, hops=2)
    model = XFraudDetectorPlus(model_config(bundle.graph.feature_dim, seed=0))
    optimizer = nn.AdamW(model.parameters(), lr=1e-2)
    model.train()

    def step():
        optimizer.zero_grad()
        model.loss(bundle.graph, batch).backward()
        nn.clip_grad_norm(model.parameters(), 0.25)
        optimizer.step()

    def score():
        model.predict_proba(field.graph, field.target_local)

    step()  # build the CSR, grow the heap to the step's working set
    step_us, score_us = alternated_readings([step, score])
    ratio = paired_ratio(step_us, score_us)
    print(
        f"\n{BATCH}-target step {np.median(step_us) / 1e3:.1f} ms vs predict_proba "
        f"{np.median(score_us) / 1e3:.1f} ms on its field ({field.graph.num_nodes:,} nodes / "
        f"{field.graph.num_edges:,} edges) -> {ratio:.2f}x per pair "
        f"(budget <= {STEP_VS_INFERENCE_BUDGET:.1f}x)"
    )
    assert ratio <= STEP_VS_INFERENCE_BUDGET


def test_trimmed_forward_ratio_floor():
    """A forward must cost what its targets can see, not what the graph holds."""
    bundle = load_dataset("ebay-small-sim", seed=0, scale=0.25)
    model = XFraudDetectorPlus(model_config(bundle.graph.feature_dim, seed=0))
    txns = np.random.default_rng(0).permutation(bundle.graph.txn_nodes)[:MICRO_BATCH]
    stacked = model.sampler.sample(bundle.graph, txns, disjoint=True)
    everywhere = stacked.graph.txn_nodes

    def at_targets():
        model.predict_proba(stacked.graph, stacked.target_local)

    def at_every_transaction():
        model.predict_proba(stacked.graph, everywhere)

    trimmed, whole = alternated_readings([at_targets, at_every_transaction], number=5)
    ratio = paired_ratio(trimmed, whole)
    trimmed_us, whole_us = np.median(trimmed), np.median(whole)
    print(
        f"\n{MICRO_BATCH} stacked samples ({stacked.graph.num_nodes:,} nodes / "
        f"{stacked.graph.num_edges:,} edges): predict_proba {trimmed_us / 1e3:.2f} ms at the "
        f"{MICRO_BATCH} targets vs {whole_us / 1e3:.2f} ms at every transaction -> {ratio:.2f}x "
        f"per pair (budget <= {TRIMMED_FORWARD_BUDGET:.1f}x)"
    )
    assert ratio <= TRIMMED_FORWARD_BUDGET


def test_plan_memo_ratio_floor():
    """Weight-only tables are derived once per parameter version, not per call."""
    bundle = load_dataset("ebay-small-sim", seed=0, scale=0.25)
    model = XFraudDetectorPlus(model_config(bundle.graph.feature_dim, seed=0))
    txns = np.random.default_rng(0).permutation(bundle.graph.txn_nodes)[:PLAN_SAMPLES]
    samples = [model.sampler.sample(bundle.graph, [int(txn)]) for txn in txns]
    versioned = [param for conv in model.convs for param in conv.parameters()]

    def on_a_warm_plan():
        for sample in samples:
            model.predict_proba(sample.graph, sample.target_local)

    def after_a_write():
        for sample in samples:
            for param in versioned:  # a write that leaves the weights as they were
                with param.write():
                    pass
            model.predict_proba(sample.graph, sample.target_local)

    rebuilt, warm = alternated_readings([after_a_write, on_a_warm_plan])
    ratio = paired_ratio(rebuilt, warm)
    warm_us = np.median(warm)
    print(
        f"\n{PLAN_SAMPLES} single-target samples: predict_proba {warm_us / PLAN_SAMPLES:.0f} us "
        f"on a warm plan vs {np.median(rebuilt) / PLAN_SAMPLES:.0f} us with the plan rebuilt -> "
        f"{ratio:.2f}x per pair (budget >= {PLAN_MEMO_BUDGET:.2f}x)"
    )
    assert ratio >= PLAN_MEMO_BUDGET


def test_layer_one_tables_ratio_floor():
    """Layer 1 pays for its transactions, not per edge for both endpoints."""
    bundle = load_dataset("ebay-small-sim", seed=0, scale=0.25)
    batch = np.random.default_rng(0).permutation(bundle.train_nodes)[:BATCH]
    field = receptive_field(bundle.graph, batch, hops=2)
    model = XFraudDetectorPlus(model_config(bundle.graph.feature_dim, seed=0))
    layout = InferenceLayout.of(field.graph, field.target_local, depth=len(model.convs))
    rng = np.random.default_rng(0)
    read = model._laid_out(field.graph, field.target_local)[1]
    h = field.graph.txn_table[field.graph.txn_row[read]]
    cases = []
    for conv, hops_left in zip(model.convs, (1, 0)):
        view = layout.layer(hops_left)
        out, _ = conv.kernel(view, h)
        scale = (rng.random((len(view.src), conv.num_heads)) >= 0.2) / 0.8  # a dropout mask
        cases.append((conv, hops_left, h, scale, rng.normal(size=out.shape), len(view.src)))
        h = out

    def forward_and_pullback(conv, hops_left, h, scale, grad, _):
        view = layout.layer(hops_left)  # fresh: what a pullback builds is not reused
        _, pullback = conv.kernel(view, h, scale, save=True)
        pullback(grad, conv is not model.convs[0])  # layer 1's input is data

    first, second = alternated_readings(
        [lambda case=case: forward_and_pullback(*case) for case in cases], number=5
    )
    ratio = paired_ratio(first, second)
    first_us, second_us = np.median(first), np.median(second)
    print(
        f"\n{BATCH}-target field: layer 1 forward + pullback {first_us:.0f} us "
        f"({cases[0][-1]:,} edges) vs layer 2 {second_us:.0f} us ({cases[1][-1]:,} edges) "
        f"-> {ratio:.2f}x per pair (budget <= {LAYER_ONE_BUDGET:.1f}x)"
    )
    assert ratio <= LAYER_ONE_BUDGET


def _scipy_scatter(index, num_rows):
    """The one-hot ``S[index[i], i] = 1`` as a ``csc_matrix``, bounds
    checked first, as ``nn.segment`` built it before its sums called
    ``csc_matvecs`` directly."""
    if len(index) and not 0 <= index.min() <= index.max() < num_rows:
        raise IndexError(f"row index out of range for {num_rows} rows")
    ones, indptr = np.ones(len(index)), np.arange(len(index) + 1)
    return sparse.csc_matrix((ones, index, indptr), shape=(num_rows, len(index)))


def test_selector_ratio_floor():
    """The pullback's 0/1 sums pay for the kernel, not for a sparse matrix object."""
    bundle = load_dataset("ebay-small-sim", seed=0, scale=0.25)
    batch = np.random.default_rng(0).permutation(bundle.train_nodes)[:BATCH]
    field = receptive_field(bundle.graph, batch, hops=2)
    model = XFraudDetectorPlus(model_config(bundle.graph.feature_dim, seed=0))
    layout = InferenceLayout.of(field.graph, field.target_local, depth=len(model.convs))
    view = layout.layer(len(model.convs) - 1)  # layer 1's prefix
    conv = model.convs[0]
    num_edges, starts = len(view.src), view.starts
    txn, value_row, logit_row = view.table_rows
    cell = logit_row * len(EDGE_TYPES) + view.edge_type
    rows, cells = len(txn) + len(NODE_TYPES), len(txn) * len(EDGE_TYPES)
    rng = np.random.default_rng(0)
    by_edge = rng.normal(size=(num_edges, conv.num_heads))
    d_values = rng.normal(size=(num_edges, conv.out_dim))

    def through_selectors():
        return (
            Selector.by_segment(starts, num_edges) @ by_edge,
            Selector.scatter(value_row, rows) @ d_values,
            Selector.scatter(cell, cells) @ by_edge,
        )

    def through_scipy_matrices():
        indptr = np.append(starts, num_edges)
        by_target = sparse.csr_matrix(
            (np.ones(num_edges), np.arange(num_edges), indptr), shape=(len(starts), num_edges)
        )
        return (
            by_target @ by_edge,
            _scipy_scatter(value_row, rows) @ d_values,
            _scipy_scatter(cell, cells) @ by_edge,
        )

    for ours, theirs in zip(through_selectors(), through_scipy_matrices()):
        assert ours.tobytes() == theirs.tobytes()  # the same kernels: the same bits
    selectors, matrices = alternated_readings([through_selectors, through_scipy_matrices], number=20)
    ratio = paired_ratio(selectors, matrices)
    selector_us, scipy_us = np.median(selectors), np.median(matrices)
    print(
        f"\n{BATCH}-target field, layer 1 ({num_edges:,} edges): pullback sums "
        f"{selector_us:.0f} us through Selectors vs {scipy_us:.0f} us through scipy matrices "
        f"-> {ratio:.2f}x per pair (budget <= {SELECTOR_BUDGET:.2f}x)"
    )
    assert ratio <= SELECTOR_BUDGET


def test_optimizer_step_ratio_floor():
    """An AdamW step costs its arithmetic plus the gradients' copy, nothing per value."""
    bundle = load_dataset("ebay-small-sim", seed=0, scale=0.25)
    model = XFraudDetectorPlus(model_config(bundle.graph.feature_dim, seed=0))
    optimizer = nn.AdamW(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    for param in model.parameters():
        param.grad = rng.normal(size=param.shape)
    optimizer.step()  # the parameters move into the flat buffer once
    span = slice(0, len(optimizer._values))
    grad, scratch = optimizer._work

    def arithmetic():
        optimizer._update(span, optimizer._values, grad, scratch)

    steps, updates = alternated_readings([optimizer.step, arithmetic], number=20)
    ratio = paired_ratio(steps, updates)
    step_us, arithmetic_us = np.median(steps), np.median(updates)
    print(
        f"\nAdamW over {len(optimizer._values):,} values in {len(optimizer.parameters)} "
        f"parameters: step() {step_us:.0f} us vs _update alone {arithmetic_us:.0f} us "
        f"-> {ratio:.2f}x per pair (budget <= {OPTIMIZER_STEP_BUDGET:.2f}x)"
    )
    assert ratio <= OPTIMIZER_STEP_BUDGET
