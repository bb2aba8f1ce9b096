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
(139 -> 692 ms). What still follows the graph is the dropout mask,
drawn at the parent's edge count so that every edge keeps the mask it
would have had there.

``test_step_vs_inference_ratio_floor`` holds the other half: a step's
convolution is one tape node per layer over the kernel ``predict_proba``
runs, with a hand-derived backward, so a full step (loss, backward,
clip, AdamW) costs at most ``STEP_VS_INFERENCE_BUDGET``x scoring the
same targets on the same field — again a ratio of two timings
alternated in one process. It reads 3.4-3.5x; when every op and every
node/edge type was its own ``Tensor`` it read 10x or more.

``test_trimmed_forward_ratio_floor`` holds what both sides of that
ratio share: each layer computes only the rows the next one reads
(``InferenceLayout.layer``), so scoring a stacked micro-batch of 32
sampled neighbourhoods at its 32 targets costs at most
``TRIMMED_FORWARD_BUDGET``x scoring the same graph with every node a
target (every node at distance 0: no row, no edge is cut). It reads
0.53-0.58x.
"""

import numpy as np

from _helpers import best_us, model_config
from repro import nn
from repro.data import load_dataset
from repro.graph.sampling import SampledSubgraph, receptive_field, stack_subgraphs
from repro.models import XFraudDetectorPlus

STEP_RATIO_BUDGET = 1.5  # step on 4 copies of the graph vs on 1, same batch
STEP_VS_INFERENCE_BUDGET = 6.0  # full step vs predict_proba on the batch's field
TRIMMED_FORWARD_BUDGET = 0.8  # scoring a stacked batch at its targets vs at every node
MICRO_BATCH = 32
STEP_SAMPLES = 9
BATCH = 64
COPIES = 4


def _alternated_medians(fns, number=1):
    """Median microseconds per call of each of ``fns``, timed in turns
    so a slow spell of the box hits all of them."""
    samples = [[] for _ in fns]
    for _ in range(STEP_SAMPLES):
        for fn, times in zip(fns, samples):
            times.append(best_us(fn, number=number))
    return [float(np.median(times)) for times in samples]


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
    small_us, large_us = _alternated_medians([lambda g=g: step(g) for g in graphs])
    ratio = large_us / small_us
    fields = [receptive_field(graph, batch, hops=2).graph for graph in graphs]
    assert fields[0].num_edges == fields[1].num_edges
    print(
        f"\n{BATCH}-target step (field {fields[0].num_nodes:,} nodes / {fields[0].num_edges:,} "
        f"edges): {small_us / 1e3:.1f} ms on {graphs[0].num_nodes:,} nodes / "
        f"{graphs[0].num_edges:,} edges, {large_us / 1e3:.1f} ms on {graphs[1].num_nodes:,} / "
        f"{graphs[1].num_edges:,} -> {ratio:.2f}x (budget <= {STEP_RATIO_BUDGET:.1f}x)"
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
    step_us, score_us = _alternated_medians([step, score])
    ratio = step_us / score_us
    print(
        f"\n{BATCH}-target step {step_us / 1e3:.1f} ms vs predict_proba {score_us / 1e3:.1f} ms "
        f"on its field ({field.graph.num_nodes:,} nodes / {field.graph.num_edges:,} edges) "
        f"-> {ratio:.2f}x (budget <= {STEP_VS_INFERENCE_BUDGET:.1f}x)"
    )
    assert ratio <= STEP_VS_INFERENCE_BUDGET


def test_trimmed_forward_ratio_floor():
    """A forward must cost what its targets can see, not what the graph holds."""
    bundle = load_dataset("ebay-small-sim", seed=0, scale=0.25)
    model = XFraudDetectorPlus(model_config(bundle.graph.feature_dim, seed=0))
    txns = np.random.default_rng(0).permutation(bundle.graph.txn_nodes)[:MICRO_BATCH]
    stacked = model.sampler.sample(bundle.graph, txns, disjoint=True)
    everywhere = np.arange(stacked.graph.num_nodes)

    def at_targets():
        model.predict_proba(stacked.graph, stacked.target_local)

    def at_every_node():
        model.predict_proba(stacked.graph, everywhere)

    trimmed_us, whole_us = _alternated_medians([at_targets, at_every_node], number=5)
    ratio = trimmed_us / whole_us
    print(
        f"\n{MICRO_BATCH} stacked samples ({stacked.graph.num_nodes:,} nodes / "
        f"{stacked.graph.num_edges:,} edges): predict_proba {trimmed_us / 1e3:.2f} ms at the "
        f"{MICRO_BATCH} targets vs {whole_us / 1e3:.2f} ms at every node -> {ratio:.2f}x "
        f"(budget <= {TRIMMED_FORWARD_BUDGET:.1f}x)"
    )
    assert ratio <= TRIMMED_FORWARD_BUDGET
