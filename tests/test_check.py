"""The correctness harness itself: audits, fuzz scenarios, shrinker, CLI.

Regression seeds pinned here came out of the harness's own shrinker
while this PR was developed:

* ``wal-crash-replay`` with a zero-filled tail (shrunk to seed 0,
  size 1) exposed phantom zero-length frames being replayed as durable
  records (``crc32(b"") == 0`` validates an all-zero header).
* ``single-vs-batched-scoring`` (shrunk to seed 0, size 1) exposed
  batch-composition-dependent scores: the union-sampled subgraph leaked
  cross-target edges into each member's attention normalisation.
"""

import dataclasses
import inspect
import textwrap
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn

from repro.check import (
    REGISTRY,
    SCENARIOS,
    csr_violations,
    ledger_violations,
    random_delta,
    random_events,
    random_hetero_graph,
    run_audits,
    run_case,
    run_fuzz,
    shrink,
    subgraph_equal,
    wal_violations,
)
from repro.cli import main
from repro.graph import sampling
from repro.graph.cache import SubgraphCache
from repro.graph.hetero import NODE_TYPES, HeteroGraph
from repro.check.reference import component_bounds, unstack
from repro.graph.sampling import SageSampler, gather, stack_subgraphs
from repro.models import detector as detector_module
from repro.models import field as field_module
from repro.serving.service import ScoringService
from repro.models import hetero_conv
from repro.nn import functional as F
from repro.nn.segment import scatter_selector
from repro.storage import loader as loader_module
from repro.storage.replicated import ReplicatedKVStore
from repro.stream.builder import IncrementalGraphBuilder
from repro.train import DistributedTrainer, NoSurvivorsError
from repro.train import elastic as elastic_module


class TestInvariantRegistry:
    def test_registry_covers_every_layer(self):
        layers = {check.layer for check in REGISTRY.values()}
        for expected in ("graph", "stream", "storage", "serving", "reliability", "obs"):
            assert any(expected in layer for layer in layers), expected

    def test_all_audits_pass(self):
        results = run_audits()
        failures = {r.name: r.violations for r in results if not r.passed}
        assert failures == {}

    def test_named_subset_runs_only_those(self):
        results = run_audits(["graph-csr-validity"])
        assert [r.name for r in results] == ["graph-csr-validity"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_audits(["no-such-checker"])


class TestStatusSurfaceMutants:
    """``status-surfaces-agree`` must notice an exporter that hands the
    registry a copy of its tallies instead of the tallies."""

    NAME = "status-surfaces-agree"

    def _violations(self):
        (result,) = run_audits([self.NAME])
        return result.violations

    def test_values_captured_at_instrument_time(self, monkeypatch):
        def instrument(self, registry):
            captured = list(self._collect())
            registry.collect(lambda: captured)
            return self

        assert self._violations() == []
        monkeypatch.setattr(SubgraphCache, "instrument", instrument)
        found = self._violations()
        assert found and all("caches, step" in problem for problem in found)

    def test_graph_version_pushed_at_flush_time_only(self, monkeypatch):
        """The exporter this invariant was written against: ``repro
        stream --demo --metrics`` printed version 157 under a health
        block saying 171, because label flips bump the version after
        the flush that pushed it."""
        from repro.stream.builder import IncrementalGraphBuilder

        flush, collect = IncrementalGraphBuilder.flush, IncrementalGraphBuilder._collect

        def pushing_flush(self):
            applied = flush(self)
            if applied:
                self.pushed_version = self.graph.version
            return applied

        def collect_pushed(self):
            for kind, name, help, labels, value in collect(self):
                if name == "stream_graph_version":
                    value = getattr(self, "pushed_version", 0)
                yield kind, name, help, labels, value

        monkeypatch.setattr(IncrementalGraphBuilder, "flush", pushing_flush)
        monkeypatch.setattr(IncrementalGraphBuilder, "_collect", collect_pushed)
        found = self._violations()
        assert found and all("stream_graph_version scraped as" in problem for problem in found)


class TestAuditHelpers:
    def test_csr_violations_clean_graph(self):
        graph = random_hetero_graph(np.random.default_rng(0), num_txns=6)
        assert csr_violations(graph) == []

    def test_csr_violations_detects_corruption(self):
        graph = random_hetero_graph(np.random.default_rng(0), num_txns=6)
        src = graph.csr().src
        src[0] = (src[0] + 1) % graph.num_nodes
        assert csr_violations(graph) != []

    def test_csr_violations_detects_broken_indptr(self):
        graph = random_hetero_graph(np.random.default_rng(1), num_txns=6)
        indptr = graph.csr().indptr
        indptr[1] = indptr[-1] + 5
        assert csr_violations(graph) != []

    def test_csr_violations_detects_published_capacity(self):
        rng = np.random.default_rng(2)
        graph = random_hetero_graph(rng, num_txns=6)
        graph.csr()
        graph.append_delta(**random_delta(rng, graph, num_new_txns=2))
        assert csr_violations(graph) == []
        graph.edge_type = graph.edge_type.base[: graph.num_edges + 1]  # off-by-one publish
        assert any("edge_type" in problem for problem in csr_violations(graph))

    def test_subgraph_equal_reports_field(self):
        graph = random_hetero_graph(np.random.default_rng(2), num_txns=5)
        sampler = SageSampler(hops=1, fanout=2, seed=0)
        a = sampler.sample(graph, [0])
        b = sampler.sample(graph, [1])
        assert subgraph_equal(a, a) is None
        assert subgraph_equal(a, b) is not None

    def test_wal_violations_empty_dir_is_clean(self, tmp_path):
        # No manifest yet: a log that never rotated is legal.
        assert wal_violations(str(tmp_path)) == []

    def test_ledger_violations_detects_divergent_replica(self):
        from repro.storage.kvstore import InMemoryKVStore
        from repro.storage.replicated import ReplicatedConfig, ReplicatedKVStore

        replicas = [InMemoryKVStore() for _ in range(3)]
        store = ReplicatedKVStore(replicas, ReplicatedConfig(replication_factor=2))
        store.put("k", b"payload")
        assert ledger_violations(store) == []
        owner = store.owners("k")[0]
        replicas[owner]._data["k"] = b"poisoned"
        assert any("k@replica" in problem for problem in ledger_violations(store))


class TestFuzzScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_clean_on_small_cases(self, name):
        for seed in (0, 1, 2):
            assert run_case(name, seed, 3) is None, (name, seed)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_case("no-such-scenario", 0, 1)

    def test_run_fuzz_reports_spread(self):
        report = run_fuzz(len(SCENARIOS), seed=0)
        assert report.ok
        assert sum(report.per_scenario.values()) == len(SCENARIOS)
        assert set(report.per_scenario) == set(SCENARIOS)

    def test_run_fuzz_restricted_scenarios(self):
        report = run_fuzz(4, seed=0, names=["delta-merge-vs-rebuild"])
        assert set(report.per_scenario) == {"delta-merge-vs-rebuild"}

    def test_a_scenarios_cases_do_not_depend_on_the_others(self, monkeypatch):
        # Registering or selecting another scenario must not re-deal an
        # existing one (it did: every mutant test's pinned seeds moved
        # whenever a scenario was added).
        dealt = {}
        for name in SCENARIOS:
            monkeypatch.setitem(
                SCENARIOS,
                name,
                lambda seed, size, name=name: dealt.setdefault(name, []).append((seed, size)),
            )
        rounds = 7  # past the end of the size ladder
        run_fuzz(rounds * len(SCENARIOS), seed=3)
        together = dealt.copy()
        assert {len(cases) for cases in together.values()} == {rounds}
        assert len({tuple(cases) for cases in together.values()}) == len(SCENARIOS)
        for name in SCENARIOS:
            dealt.clear()
            run_fuzz(rounds, seed=3, names=[name])
            assert dealt == {name: together[name]}
        monkeypatch.setitem(SCENARIOS, "one-more", lambda seed, size: None)
        dealt.clear()
        run_fuzz(rounds * len(SCENARIOS), seed=3)
        assert dealt == together


class TestShrinker:
    def _plant(self, fails):
        """Register a synthetic scenario; returns its name for cleanup."""
        name = "synthetic-shrink-target"
        SCENARIOS[name] = fails
        return name

    def test_shrinks_size_to_minimum(self):
        # Fails whenever size >= 4, for any seed: minimal repro is size 4.
        name = self._plant(lambda seed, size: "boom" if size >= 4 else None)
        try:
            seed, size, detail, attempts = shrink(name, seed=50, size=21)
            assert size == 4
            assert seed == 0  # seed scan finds the smallest failing seed
            assert detail == "boom"
            assert attempts >= 1
        finally:
            del SCENARIOS[name]

    def test_shrinks_seed_at_fixed_size(self):
        # Only odd seeds fail; size is irrelevant (fails at size 1 too).
        name = self._plant(lambda seed, size: "odd" if seed % 2 else None)
        try:
            seed, size, detail, _ = shrink(name, seed=33, size=8)
            assert size == 1
            assert seed == 1
        finally:
            del SCENARIOS[name]

    def test_shrink_requires_a_failing_case(self):
        name = self._plant(lambda seed, size: None)
        try:
            with pytest.raises(ValueError):
                shrink(name, seed=0, size=5)
        finally:
            del SCENARIOS[name]

    def test_failure_record_carries_repro_command(self):
        name = self._plant(lambda seed, size: "always")
        try:
            report = run_fuzz(1, seed=7, names=[name])
            assert not report.ok
            failure = report.failures[0]
            assert failure.shrunk_size == 1
            assert failure.shrunk_seed == 0
            assert "--case" in failure.repro_command()
        finally:
            del SCENARIOS[name]


class TestRegressionSeeds:
    """Shrunk seeds that exposed the bugs fixed in this PR."""

    def test_wal_zero_fill_shrunk_case(self):
        # Pre-fix: an all-zero tail parsed as valid zero-length frames
        # (phantom records); the scenario diverged at this exact case.
        assert run_case("wal-crash-replay", 0, 1) is None
        assert run_case("wal-crash-replay", 1354443655, 2) is None

    def test_batched_scoring_shrunk_case(self):
        # Pre-fix: union sampling made node 0's score depend on its
        # batch-mates (0.1442 sequential vs 0.1399 batched).
        assert run_case("single-vs-batched-scoring", 0, 1) is None
        assert run_case("single-vs-batched-scoring", 1434336075, 3) is None

    def test_edgeless_forward_shrunk_case(self):
        # Pre-fix: the autograd forward raised on a graph with no edges
        # (concat of zero per-type pieces, then a zero-row reshape(-1)
        # in scatter_add_rows) where the inference kernel scores it.
        assert run_case("fused-vs-autograd-forward", 0, 1) is None
        assert run_case("fused-vs-autograd-forward", 1882789421, 3) is None

    def test_fast_decode_shrunk_cases(self):
        # Found while the decoder was being written: a header extent of
        # -1 makes np.ndarray(buffer=...) infer the length np.load
        # refuses (seed 98), and a sub-array dtype ('4f4', one bit flip
        # from '<f4') is read flat by np.load, which then rejects all
        # but size-0 arrays (seed 65).
        assert run_case("fast-decode-vs-np-load", 98, 1) is None
        assert run_case("fast-decode-vs-np-load", 65, 1) is None

    def test_in_place_growth_shrunk_cases(self):
        # Found by planting bugs while append_delta moved to in-place
        # growth: blocks shifted front to back (or the first one
        # skipped) overwrite unmoved CSR entries (seed 0), and writing
        # a delta through the stale buffer of a label array someone
        # had swapped out loses the swapped-in flips (seed 37).
        assert run_case("delta-merge-vs-rebuild", 0, 1) is None
        assert run_case("delta-merge-vs-rebuild", 37, 1) is None
        assert run_case("delta-merge-vs-rebuild", 1139250825, 8) is None

    def test_gradient_oracle_shrunk_cases(self):
        # Found by grad-vs-finite-difference on its first run: BCE on
        # logits took |x| off the tape, so its gradient was 1[x>0] - t
        # instead of sigmoid(x) - t (seed 0, size 1), and the backward of
        # a batched matmul with a 1-D right operand multiplied the batch
        # of rows by the output gradient as if it were a matrix — it
        # raised on most shapes (seed 0, size 2) and returned a wrong
        # gradient when batch size and row count agreed (seed 4, size 2).
        assert run_case("grad-vs-finite-difference", 0, 1) is None
        assert run_case("grad-vs-finite-difference", 0, 2) is None
        assert run_case("grad-vs-finite-difference", 4, 2) is None

    def test_a_crashing_side_is_a_divergence(self):
        def crashes(seed, size):
            raise ValueError("one side blew up")

        SCENARIOS["synthetic-crash"] = crashes
        try:
            assert "ValueError: one side blew up" in run_case("synthetic-crash", 0, 1)
        finally:
            del SCENARIOS["synthetic-crash"]


#: Cases each scenario gets in a mutant test: what `repro check --fuzz
#: 150` deals each of the 15 (``--fuzz 120`` did over 13; a fixed trial
#: count would thin every scenario's share as scenarios are added).
CASES_PER_SCENARIO = 10


def _caught_by(name, alone=False):
    """`repro check --fuzz 150` (= ``run_fuzz(150, seed=0)``: ten cases a
    scenario) fails, and fails first in scenario ``name``: its failure
    record. ``alone``, for a mutant that a scenario dealt earlier in the
    round also sees: fails on the cases that run deals to ``name``
    itself (a scenario's case sequence does not depend on which others
    are selected)."""
    if alone:
        report = run_fuzz(CASES_PER_SCENARIO, seed=0, names=[name])
    else:
        report = run_fuzz(CASES_PER_SCENARIO * len(SCENARIOS), seed=0)
    assert not report.ok
    assert report.failures[0].scenario == name, report.failures[0]
    return report.failures[0]


def _rebuilt(graph, field, edge_ids):
    sub, ids = graph.subgraph(field.original_ids, edge_ids=edge_ids)
    return sampling.SampledSubgraph(sub, field.target_local, ids, edge_ids)


_real_field = sampling.receptive_field


def _one_hop_short(graph, targets, hops):
    return _real_field(graph, targets, max(hops - 1, 0))


def _fanout_cap_left_in(graph, targets, hops, cap=2):
    field = _real_field(graph, targets, hops)
    dst = graph.edge_dst[field.edge_ids]
    order = np.argsort(dst, kind="stable")
    rank = np.arange(len(dst)) - np.searchsorted(dst[order], dst[order])
    return _rebuilt(graph, field, np.sort(field.edge_ids[order][rank < cap]))


def _target_rows_dropped(graph, targets, hops):
    field = _real_field(graph, targets, hops)
    into_targets = np.isin(graph.edge_dst[field.edge_ids], targets)
    return _rebuilt(graph, field, field.edge_ids[~into_targets])


def _edge_ids_unsorted(graph, targets, hops):
    field = _real_field(graph, targets, hops)
    return _rebuilt(graph, field, field.edge_ids[::-1].copy())


class TestPrunedStepMutants:
    """`repro check --fuzz 150` (= ``run_fuzz(150, seed=0)``) must fail,
    in ``pruned-step-vs-full-graph``, on each way the receptive-field
    step can be subtly wrong. The first three are planted on the step's
    path only (``models.field``), so it is the loss / gradient
    comparison that catches them, not the BFS reference."""

    NAME = "pruned-step-vs-full-graph"

    @pytest.mark.parametrize(
        "mutant", [_one_hop_short, _fanout_cap_left_in, _target_rows_dropped]
    )
    def test_a_smaller_field_changes_the_loss(self, monkeypatch, mutant):
        monkeypatch.setattr(field_module, "receptive_field", mutant)
        assert "!= whole-graph" in _caught_by(self.NAME).detail

    def test_mask_drawn_at_the_field_extent(self, monkeypatch):
        real = F.dropout
        monkeypatch.setattr(
            F, "dropout", lambda x, rate, training, rng=None, rows=None: real(x, rate, training, rng)
        )
        # A field holding the parent's first k edges gets the first k
        # rows of the parent's draw either way: there only the generator,
        # left k rows further instead of E, gives the mutant away.
        # (The convolution node draws through F.dropout too, so
        # fused-backward-vs-autograd sees this mutant as well.)
        detail = _caught_by(self.NAME, alone=True).detail
        assert "!= whole-graph" in detail or "generator states differ" in detail

    def test_edge_ids_unsorted(self, monkeypatch):
        # Numerically harmless (each edge still gets its own mask row):
        # only the contract check against the BFS reference sees it.
        monkeypatch.setattr(sampling, "receptive_field", _edge_ids_unsorted)
        assert "BFS (ascending)" in _caught_by(self.NAME).detail

    def test_shrunk_cases_pass_on_the_real_step(self):
        # What the five mutants above shrink to since a scenario's cases
        # depend on its own name and position only, then what they
        # shrank to under the two earlier, count-dependent dealings.
        for seed, size in ((7, 1), (6, 1), (4, 1), (1, 3), (0, 1), (6, 5), (1, 5), (0, 2)):
            assert run_case(self.NAME, seed, size) is None, (seed, size)


def _mean_over_members(self, shard_grads):
    """``DistributedTrainer.step`` dividing by the group size instead of
    by the shards it was given."""
    if not shard_grads:
        raise NoSurvivorsError("all-reduce over zero shards")
    for index, param in enumerate(self.model.parameters()):
        param.grad = sum(grads[index] for grads in shard_grads) / len(self.workers)
    nn.clip_grad_norm(self.model.parameters(), self.config.clip_norm)
    self.optimizer.step()


_real_restore = elastic_module.restore_training_state


def _optimizer_left_behind(state, model, optimizer, rng):
    _real_restore(state, model, SimpleNamespace(load_state_dict=lambda moments: None), rng)


def _shuffle_stream_left_behind(state, model, optimizer, rng):
    _real_restore(state, model, optimizer, np.random.default_rng())


class TestSupervisedRoundMutants:
    """`repro check --fuzz 150` must fail, in
    ``supervised-round-vs-engine``, when the one all-reduce or the one
    restore is subtly wrong. Rollback, rejoin catch-up and resume share
    ``restore_training_state``, so the two restore mutants are planted
    once, where the supervisor imports it: a rollback that forgets the
    shuffle stream shows against the by-hand run as soon as a kill
    forces a retry; one that forgets the optimizer moments is invisible
    there (no step is taken between snapshot and rollback) and shows in
    the replay that is killed and resumed after every epoch."""

    NAME = "supervised-round-vs-engine"

    def test_mean_over_members_not_accepted_shards(self, monkeypatch):
        monkeypatch.setattr(DistributedTrainer, "step", _mean_over_members)
        assert "by-hand" in _caught_by(self.NAME).detail

    def test_restore_skips_the_optimizer(self, monkeypatch):
        monkeypatch.setattr(elastic_module, "restore_training_state", _optimizer_left_behind)
        assert "resumed after every epoch" in _caught_by(self.NAME).detail

    def test_restore_skips_the_trainer_rng(self, monkeypatch):
        monkeypatch.setattr(
            elastic_module, "restore_training_state", _shuffle_stream_left_behind
        )
        failure = _caught_by(self.NAME)
        assert "by-hand" in failure.detail or "resumed after every epoch" in failure.detail

    def test_shrunk_cases_pass_on_the_real_supervisor(self):
        # What the three mutants above shrink to, and (0, 3): the case
        # that found a worker dying in the round it rejoins (probing,
        # so never re-scored) being kept as a member forever, its
        # partitions trained by nobody — it is evicted once the grace
        # period has passed.
        # (1, 1), (0, 1) and (0, 5) are what they shrink to since a
        # scenario's cases stopped depending on how many are registered;
        # the rest under the two earlier dealings.
        for seed, size in ((1, 1), (0, 1), (0, 5), (0, 3), (4, 4), (3, 2), (0, 2), (0, 13)):
            assert run_case(self.NAME, seed, size) is None, (seed, size)


_real_blocks_vjp = hetero_conv._apply_blocks_vjp
_real_layout = hetero_conv.InferenceLayout.of.__func__


def _softmax_segment_term_dropped(layout, attention, grad):
    return attention * grad


def _by_source_sum_uses_dst(layout, values):
    return scatter_selector(layout.dst, len(layout.node_type)) @ values


def _bias_grad_omitted(layout, x, weights, grad, need_d_x=True, need_weights=True):
    d_x, d_weights = _real_blocks_vjp(layout, x, weights, grad, need_d_x, need_weights)
    return d_x, {key: (d_weight, 0.0 * d_bias) for key, (d_weight, d_bias) in d_weights.items()}


def _absent_type_grad_left_none(layout, x, weights, grad, need_d_x=True, need_weights=True):
    d_x, d_weights = _real_blocks_vjp(layout, x, weights, grad, need_d_x, need_weights)
    present = {"shared"} | {NODE_TYPES[type_id] for type_id, _, _ in layout.type_blocks}
    return d_x, {key: pair for key, pair in d_weights.items() if key in present}


def _mask_not_permuted(cls, graph, targets=None, depth=0):
    layout = _real_layout(cls, graph, targets, depth)
    return dataclasses.replace(layout, order=np.arange(len(layout.order)))


class TestFusedBackwardMutants:
    """`repro check --fuzz 150` must fail, in
    ``fused-backward-vs-autograd``, on each way the convolution node's
    hand-written backward (or its use of the layout) can be subtly
    wrong. Every mutant leaves the eval-mode forward alone, so no
    scenario that only scores can see it."""

    NAME = "fused-backward-vs-autograd"

    def test_softmax_backward_without_the_segment_term(self, monkeypatch):
        monkeypatch.setattr(hetero_conv, "_softmax_vjp", _softmax_segment_term_dropped)
        assert "grad of" in _caught_by(self.NAME).detail

    def test_by_source_sum_scattered_by_target(self, monkeypatch):
        monkeypatch.setattr(hetero_conv.InferenceLayout, "sum_by_source", _by_source_sum_uses_dst)
        # Only layers past the first sum by source: what the failing case
        # shrinks to is a deeper layer's backward against central differences.
        detail = _caught_by(self.NAME).detail
        assert "grad of" in detail or "central difference" in detail

    def test_bias_gradient_omitted(self, monkeypatch):
        monkeypatch.setattr(hetero_conv, "_apply_blocks_vjp", _bias_grad_omitted)
        assert "bias: max |the node - the per-op tape|" in _caught_by(self.NAME).detail

    def test_absent_type_gradient_left_none(self, monkeypatch):
        monkeypatch.setattr(hetero_conv, "_apply_blocks_vjp", _absent_type_grad_left_none)
        # A layer's prefix holds fewer node types than the whole graph, so
        # trimmed-layers-vs-untrimmed-layout (dealt earlier) sees this too.
        failure = _caught_by(self.NAME, alone=True)
        assert "missing on the node, present on the per-op tape" in failure.detail

    def test_mask_not_permuted_into_layout_order(self, monkeypatch):
        monkeypatch.setattr(hetero_conv.InferenceLayout, "of", classmethod(_mask_not_permuted))
        assert "!= the per-op tape" in _caught_by(self.NAME).detail

    @pytest.mark.parametrize("line", [0, 10**9])
    def test_either_segment_sum_gives_the_reference_gradients(self, monkeypatch, line):
        # A layer sums in-neighbourhoods through a sparse matrix from
        # 256 edges on and by reduceat below; fuzz graphs are mostly
        # below. Move the line so every case takes one side, then the other.
        monkeypatch.setattr(hetero_conv, "_REDUCEAT_MAX_EDGES", line)
        for seed, size in ((0, 3), (1, 8), (2, 13), (3, 21)):
            assert run_case(self.NAME, seed, size) is None, (seed, size)

    def test_shrunk_cases_pass_on_the_real_node(self):
        # What the five mutants above shrink to: (1, 2) a thinned
        # 5-edge graph under a two-layer per-type detector (three of
        # them) and (0, 1) a 3-edge graph under shared, target-specific
        # projections (two). Under
        # the earlier, count-dependent dealing: (0, 3) a thinned 13-edge
        # graph under a two-layer per-type, target-specific detector;
        # (2, 2) per-type projections on an edgeless graph, where node
        # types are absent.
        for seed, size in ((1, 2), (0, 1), (0, 3), (2, 2)):
            assert run_case(self.NAME, seed, size) is None, (seed, size)


def _edited(function, old, new):
    """``function`` recompiled from its source with ``old`` replaced by
    ``new``: a mutant one edit away from the code that runs. ``old``
    must occur exactly once, so rewriting the function fails here,
    loudly, rather than leaving a mutant that mutates nothing."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} is not (or no longer) in {function.__qualname__}"
    scope = {}
    exec(compile(source.replace(old, new), "<mutant>", "exec"), function.__globals__, scope)
    return scope[function.__name__]


class TestTrimmedLayerMutants:
    """`repro check --fuzz 150` must fail, in
    ``trimmed-layers-vs-untrimmed-layout``, on each way a layer's prefix
    of the layout can be cut wrong. A cut that is too short mostly
    indexes past a prefix (and a raising scenario is a divergence), so
    the older forward/backward scenarios, dealt earlier in a round, see
    two of these too: those are asserted on this scenario's own cases."""

    NAME = "trimmed-layers-vs-untrimmed-layout"

    def test_edge_prefix_one_hop_short(self, monkeypatch):
        # Every layer walks the edges of the layer after it: nothing
        # raises, the targets just aggregate from too few neighbours.
        mutant = _edited(
            hetero_conv.InferenceLayout.of.__func__,
            "edge_reach=np.searchsorted(dst, reach).tolist()",
            "edge_reach=np.searchsorted(dst, [0] + reach[:-1]).tolist()",
        )
        monkeypatch.setattr(hetero_conv.InferenceLayout, "of", classmethod(mutant))
        assert "trimmed - read everywhere" in _caught_by(self.NAME, alone=True).detail

    def test_distance_walked_along_out_edges(self, monkeypatch):
        # Invisible while every link runs both ways; a thinned graph
        # has one-way links.
        mutant = _edited(
            hetero_conv.InferenceLayout.of.__func__,
            "graph.edge_src[distance[graph.edge_dst] == hop - 1]",
            "graph.edge_dst[distance[graph.edge_src] == hop - 1]",
        )
        monkeypatch.setattr(hetero_conv.InferenceLayout, "of", classmethod(mutant))
        # A source the layout put out of reach is indexed past the prefix.
        assert "IndexError" in _caught_by(self.NAME, alone=True).detail

    def test_mask_rows_gathered_by_the_whole_order(self, monkeypatch):
        mutant = _edited(
            hetero_conv.HeteroConvLayer.forward,
            "order = layout.order[: len(layout.src)]",
            "order = layout.order",
        )
        monkeypatch.setattr(hetero_conv.HeteroConvLayer, "forward", mutant)
        assert "could not be broadcast" in _caught_by(self.NAME, alone=True).detail

    def test_unwalked_edges_left_uninitialised(self, monkeypatch):
        mutant = _edited(
            hetero_conv.HeteroConvLayer._hetero_conv,
            "d_mask = np.zeros(len(layout.order))",
            "d_mask = np.full(len(layout.order), 1e-300)",
        )
        monkeypatch.setattr(hetero_conv.HeteroConvLayer, "_hetero_conv", mutant)
        assert "exactly 0" in _caught_by(self.NAME).detail

    def test_relation_and_shrunk_cases_hold_on_the_real_layout(self):
        assert run_fuzz(120, seed=0, names=[self.NAME]).ok
        # What the four mutants above shrink to: (1, 2) three targets
        # on a thinned 7-node graph under three layers, (0, 1) three
        # targets on a 9-node, 4-edge graph with an explainer's masks.
        for seed, size in ((1, 2), (0, 1)):
            assert run_case(self.NAME, seed, size) is None, (seed, size)


class TestDisjointWalkMutants:
    """`repro check --fuzz 150` must fail, in
    ``disjoint-walk-vs-singleton-samples``, on each way the one walk can
    lose track of which component a node or an edge belongs to. Every
    mutant leaves ``sample(graph, [t])`` and the loop alone."""

    NAME = "disjoint-walk-vs-singleton-samples"

    def test_visited_set_shared_across_components(self, monkeypatch):
        mutant = _edited(
            SageSampler._sample_disjoint,
            "reached[~_in_sorted(seen, reached)[0]]",
            "reached[~np.isin(reached % stride, seen % stride)]",
        )
        monkeypatch.setattr(SageSampler, "_sample_disjoint", mutant)
        assert "original_ids" in _caught_by(self.NAME).detail

    def test_fanout_rank_taken_over_the_whole_frontier(self, monkeypatch):
        mutant = _edited(
            SageSampler._sample_disjoint,
            "self._kept(starts, counts)",
            "self._kept(starts[:1], counts.sum(keepdims=True))",
        )
        monkeypatch.setattr(SageSampler, "_sample_disjoint", mutant)
        assert "original_ids" in _caught_by(self.NAME).detail

    def test_edges_ordered_by_csr_position(self, monkeypatch):
        mutant = _edited(
            sampling._induce_disjoint,
            "np.argsort(edge_owner * graph.num_edges + edge_ids)",
            "np.arange(len(edge_ids))",
        )
        monkeypatch.setattr(sampling, "_induce_disjoint", mutant)
        assert "edge_src differs" in _caught_by(self.NAME).detail

    def test_induction_matches_sources_across_components(self, monkeypatch):
        mutant = _edited(
            sampling._induce_disjoint,
            "edge_owner * stride + csr.src[slots]",
            "csr.src[slots]",
        )
        monkeypatch.setattr(sampling, "_induce_disjoint", mutant)
        # A cached batch gathers components joined by such edges, so
        # single-vs-batched-scoring (dealt earlier) sees this one too.
        assert "edge_src" in _caught_by(self.NAME, alone=True).detail

    def test_target_not_first_in_its_component(self, monkeypatch):
        # Nodes ascending inside each component, target_local still on
        # the target: an isomorphic graph, the same scores — and a
        # layout the cache's gathers misread (each scores a component at
        # its first node), which is how
        # single-vs-batched-scoring sees it too.
        mutant = _edited(
            sampling._induce_disjoint,
            "    slot += seen < root\n    slot[rooted] = starts\n",
            "    starts = np.flatnonzero(rooted)\n",
        )
        monkeypatch.setattr(sampling, "_induce_disjoint", mutant)
        assert "original_ids differs" in _caught_by(self.NAME, alone=True).detail

    def test_an_edge_bound_off_by_one(self, monkeypatch):
        # The first component's edges end one edge late: the gather of a
        # piece takes an edge of its neighbour.
        count = "np.cumsum(np.bincount(edge_owner, minlength=len(roots)))"
        mutant = _edited(sampling._induce_disjoint, count, f"{count} + (np.arange(len(roots)) == 0)")
        monkeypatch.setattr(sampling, "_induce_disjoint", mutant)
        assert "the walk's bounds" in _caught_by(self.NAME, alone=True).detail

    def test_shrunk_case_passes_on_the_real_walk(self):
        # All six shrink to one case: four targets, two of them the
        # same node, on a 9-node graph, two hops at fanout 2.
        assert run_case(self.NAME, 0, 1) is None


class TestStackedSampleMutants:
    """`repro check --fuzz 150` must fail, in
    ``single-vs-batched-scoring``, on each way a micro-batch's one
    stacked sample can point a request at a component other than its
    own target's singleton sample."""

    NAME = "single-vs-batched-scoring"

    def test_two_distinct_targets_sharing_a_component(self, monkeypatch):
        # Every walked target of a batch with a repeat or a hit is
        # pointed at the walk's first component.
        mutant = _edited(
            SubgraphCache.get_or_sample,
            "slots = {key[-1]: index for index, key in enumerate(missed)}",
            "slots = dict.fromkeys((key[-1] for key in missed), 0)",
        )
        monkeypatch.setattr(SubgraphCache, "get_or_sample", mutant)
        assert "cached batch" in _caught_by(self.NAME).detail

    def test_a_hit_gathered_at_the_neighbouring_component(self, monkeypatch):
        mutant = _edited(
            SubgraphCache.get_or_sample,
            "pieces.append(entry)",
            "pieces.append((entry[0], (entry[1] + 1) % entry[0].num_components))",
        )
        monkeypatch.setattr(SubgraphCache, "get_or_sample", mutant)
        assert "cached batch" in _caught_by(self.NAME).detail

    def test_a_repeat_pointed_at_the_wrong_root(self, monkeypatch):
        # The distinct targets are walked in order of first appearance;
        # this maps the requests onto them in sorted order.
        mutant = _edited(
            ScoringService._sample,
            "[(walk, slots[node]) for node in nodes]",
            "[(walk, int(slot)) for slot in np.unique(nodes, return_inverse=True)[1]]",
        )
        monkeypatch.setattr(ScoringService, "_sample", mutant)
        assert "uncached batch" in _caught_by(self.NAME).detail

    def test_shrunk_cases_pass_on_the_real_lookup(self):
        # What the three mutants above shrink to: (0, 5) a six-request
        # batch with two repeats, (0, 1) a five-request batch of two targets.
        for seed, size in ((0, 5), (0, 1)):
            assert run_case(self.NAME, seed, size) is None, (seed, size)


class TestFastWalkMutants:
    """The fast walks have one implementation each now; what keeps it
    honest is the scalar spec in ``repro.check.reference``. Two
    one-expression edits of the vectorized SAGE walk each fail
    `repro check --fuzz 150`."""

    def test_fanout_cap_keeps_one_edge_too_many(self, monkeypatch):
        mutant = _edited(SageSampler._kept, "rank < self.fanout", "rank <= self.fanout")
        monkeypatch.setattr(SageSampler, "_kept", mutant)
        assert "original_ids" in _caught_by("sampler-fast-vs-reference").detail

    def test_dedup_by_node_instead_of_by_component_and_node(self, monkeypatch):
        mutant = _edited(
            SageSampler._sample_disjoint,
            "np.unique(component * stride + csr.src[slots])",
            "np.sort((component * stride + csr.src[slots])"
            "[np.unique(csr.src[slots], return_index=True)[1]])",
        )
        monkeypatch.setattr(SageSampler, "_sample_disjoint", mutant)
        assert "original_ids" in _caught_by("disjoint-walk-vs-singleton-samples").detail


class TestCsrGrowthMutants:
    """`repro check --fuzz 150` must fail, in ``delta-merge-vs-rebuild``,
    on each way ``append_delta`` can grow the CSR's buckets wrong or let
    a bad edge in unchecked now that compaction re-validates nothing."""

    NAME = "delta-merge-vs-rebuild"

    def _planted(self, monkeypatch, old, new):
        mutant = _edited(HeteroGraph._grow_csr, old, new)
        monkeypatch.setattr(HeteroGraph, "_grow_csr", mutant)

    def test_a_move_that_drops_the_last_old_entry(self, monkeypatch):
        self._planted(monkeypatch, "degree[moves], 2 *", "np.maximum(degree[moves] - 1, 0), 2 *")
        assert "grown" in _caught_by(self.NAME).detail

    def test_a_new_entry_written_at_its_canonical_index(self, monkeypatch):
        self._planted(
            monkeypatch, "np.repeat(base[nodes] + degree", "np.repeat(indptr[nodes] + degree"
        )
        assert "grown" in _caught_by(self.NAME).detail

    def test_headroom_check_off_by_one(self, monkeypatch):
        self._planted(monkeypatch, "> cap[nodes]", "> cap[nodes] + 1")
        assert "grown" in _caught_by(self.NAME).detail

    def test_the_delta_check_skips_the_last_edge(self, monkeypatch):
        from repro.graph import hetero

        mutant = _edited(
            hetero._check_growth,
            "_check_edge_schema(types_of(edge_src), types_of(edge_dst), edge_type)",
            "_check_edge_schema(*(column[: len(column) - (before is not None)] for column in "
            "(types_of(edge_src), types_of(edge_dst), edge_type)))",
        )
        monkeypatch.setattr(hetero, "_check_growth", mutant)
        assert "mistyped" in _caught_by(self.NAME).detail


class TestLayerPlanMutants:
    """`repro check --fuzz 150` must fail, in ``plan-memo-vs-fresh-plan``,
    on each way the layer plan's memo can outlive the weights it was
    derived from. Older scenarios dealt earlier in a round see them too
    — the central differences of ``fused-backward-vs-autograd`` move
    parameters through ``load_state_dict``, and a plan shared across
    detectors meets one of another shape — so each is asserted on the
    scenario's own cases."""

    NAME = "plan-memo-vs-fresh-plan"

    def test_a_writer_that_does_not_bump_the_version(self, monkeypatch):
        mutant = _edited(nn.Parameter.write.__wrapped__, "self.version += 1", "pass")
        monkeypatch.setattr(nn.Parameter, "write", mutant)
        assert "!= a plan built now" in _caught_by(self.NAME, alone=True).detail

    def test_a_plan_keyed_on_the_parameters_identity(self, monkeypatch):
        mutant = _edited(
            hetero_conv.HeteroConvLayer.plan,
            "key = [(param, param.version) for param in self.parameters()]",
            "key = [id(param) for param in self.parameters()]",
        )
        monkeypatch.setattr(hetero_conv.HeteroConvLayer, "plan", mutant)
        assert "!= a plan built now" in _caught_by(self.NAME, alone=True).detail

    def test_a_swap_that_does_not_count_as_a_write(self, monkeypatch):
        # The memo's O(1) check trusts the write counter: a parameter
        # assigned into a module without moving it leaves a stale plan.
        mutant = _edited(
            nn.Module.__setattr__, "_count_write()  # a parameter swapped in is a write", "pass"
        )
        monkeypatch.setattr(nn.Module, "__setattr__", mutant)
        assert "!= a plan built now" in _caught_by(self.NAME, alone=True).detail

    def test_one_plan_shared_by_two_detectors(self, monkeypatch):
        plans = {}

        def plan(self):  # memoised by position and versions, not per layer
            key = (self.first_layer, tuple(param.version for param in self.parameters()))
            if key not in plans:
                plans[key] = self._build_plan(None)
            return plans[key]

        monkeypatch.setattr(hetero_conv.HeteroConvLayer, "plan", plan)
        assert "memoised plan" in _caught_by(self.NAME, alone=True).detail

    def test_relation_and_shrunk_case_hold_on_the_real_plan(self):
        assert run_fuzz(120, seed=0, names=[self.NAME]).ok
        # What all three shrink to: one restore_training_state (then an
        # SGD step and a fine-tune) on a one-layer detector.
        assert run_case(self.NAME, 0, 1) is None


class TestHeadLossAndStepMutants:
    """`repro check --fuzz 150` must fail on each way the rest of a
    training step — the head node, the loss node, the flat optimiser
    update — can be subtly wrong: the head and loss against the per-op
    tape (``fused-backward-vs-autograd``,
    ``trimmed-layers-vs-untrimmed-layout``, central differences), the
    step against ``reference.per_parameter_step``. The eval-mode forward
    is left alone."""

    def test_layer_norm_backward_without_its_projection_term(self, monkeypatch):
        # The term is the variance's path: zero it.
        mutant = _edited(
            detector_module._layer_norm_vjp,
            "through_variance = np.broadcast_to(d_scale",
            "through_variance = 0.0 * np.broadcast_to(d_scale",
        )
        monkeypatch.setattr(detector_module, "_layer_norm_vjp", mutant)
        assert "the per-op tape" in _caught_by("fused-backward-vs-autograd").detail
        assert "read everywhere" in _caught_by("trimmed-layers-vs-untrimmed-layout", alone=True).detail

    def test_head_dropout_mask_left_out_of_the_pullback(self, monkeypatch):
        mutant = _edited(detector_module.XFraudDetector.head_kernel, " d *= mask", " pass")
        monkeypatch.setattr(detector_module.XFraudDetector, "head_kernel", mutant)
        failure = _caught_by("fused-backward-vs-autograd")
        assert "train" in failure.detail and "the per-op tape" in failure.detail

    def test_cross_entropy_gradient_not_divided_by_the_batch(self, monkeypatch):
        mutant = _edited(F.cross_entropy, "-grad * (1.0 / len(labels))", "-grad")
        monkeypatch.setattr(F, "cross_entropy", mutant)
        assert "the per-op tape" in _caught_by("fused-backward-vs-autograd").detail
        detail = _caught_by("grad-vs-finite-difference", alone=True).detail
        assert detail.startswith("cross_entropy:")

    def test_flat_slices_shifted_by_one_parameter(self, monkeypatch):
        mutant = _edited(
            nn.Optimizer.step,
            "slice(offsets[first], offsets[last])",
            "slice(offsets[first + 1], offsets[last + 1])",
        )
        monkeypatch.setattr(nn.Optimizer, "step", mutant)
        # Past the last parameter the slice leaves the buffer, and
        # supervised-round-vs-engine, dealt earlier, steps AdamW too.
        assert not run_fuzz(CASES_PER_SCENARIO * len(SCENARIOS), seed=0).ok
        _caught_by("flat-step-vs-per-parameter-step", alone=True)

    def test_shrunk_cases_pass_on_the_real_nodes_and_step(self):
        assert run_fuzz(60, seed=0, names=["flat-step-vs-per-parameter-step"]).ok
        # What the mutants above shrink to.
        for name, seed, size in (
            ("fused-backward-vs-autograd", 0, 1),
            ("fused-backward-vs-autograd", 1, 1),
            ("flat-step-vs-per-parameter-step", 0, 1),
        ):
            assert run_case(name, seed, size) is None, (name, seed, size)


class TestTxnTableMutants:
    """`repro check`'s ``txn-table`` audit must fail on each way a
    producer of a graph can break the table's contract: one row per
    transaction, in node order, none per entity."""

    NAME = "txn-table"

    def _violations(self):
        (result,) = run_audits([self.NAME])
        return result.violations

    def test_an_entity_given_a_row(self, monkeypatch):
        mutant = _edited(HeteroGraph.txn_table_of, "rows[rows >= 0]", "np.maximum(rows, 0)")
        monkeypatch.setattr(HeteroGraph, "txn_table_of", mutant)
        assert any("subgraph: txn_table is" in problem for problem in self._violations())

    def test_a_gathered_components_rows_reversed(self, monkeypatch):
        mutant = _edited(sampling.gather, "take(rows, axis=0)", "take(rows[::-1], axis=0)")
        monkeypatch.setattr(sampling, "gather", mutant)
        assert any("gathered part" in problem and "holds another row" in problem for problem in self._violations())

    def test_a_delta_that_drops_a_row(self, monkeypatch):
        mutant = _edited(
            IncrementalGraphBuilder.flush,
            "np.stack(self._pending_features)",
            "np.stack(self._pending_features[:-1])",
        )
        monkeypatch.setattr(IncrementalGraphBuilder, "flush", mutant)
        assert any("delta txn_table must be" in problem for problem in self._violations())

    def test_store_rows_written_under_other_keys(self, monkeypatch):
        save = loader_module.GraphStore.save
        mutant = _edited(save, "graph.txn_nodes.tolist()", "graph.txn_nodes[::-1].tolist()")
        monkeypatch.setattr(loader_module.GraphStore, "save", mutant)
        assert any("GraphStore.load" in problem for problem in self._violations())


class TestLayerOneTableMutants:
    """`repro check --fuzz 150` must fail on each way layer 1's table
    path can drop or misroute a term of eqs. 2–10, first in one of the
    scenarios that hold the kernel to the per-op tape or to central
    differences."""

    CATCHERS = (
        "fused-vs-autograd-forward",
        "fused-backward-vs-autograd",
        "grad-vs-finite-difference",
    )

    def _caught(self):
        report = run_fuzz(CASES_PER_SCENARIO * len(SCENARIOS), seed=0)
        assert not report.ok
        assert report.failures[0].scenario in self.CATCHERS, report.failures[0]
        return report.failures[0]

    def test_phi_value_term_dropped_from_transaction_sources(self, monkeypatch):
        mutant = _edited(
            hetero_conv.HeteroConvLayer.kernel,
            "summed += (attention_sum[:, :, None] * dst_values).reshape(-1, out_dim)",
            "pass",
        )
        monkeypatch.setattr(hetero_conv.HeteroConvLayer, "kernel", mutant)
        self._caught()

    def test_entity_source_constant_keyed_by_destination_type(self, monkeypatch):
        mutant = _edited(
            hetero_conv._first_layer_tables,
            "key_end = type_rows[_END_TYPES[:, 1],",
            "key_end = type_rows[_END_TYPES[:, 0],",
        )
        monkeypatch.setattr(hetero_conv, "_first_layer_tables", mutant)
        self._caught()

    def test_dropout_scale_missing_from_the_phi_sum(self, monkeypatch):
        mutant = _edited(
            hetero_conv.HeteroConvLayer.kernel,
            "attention_sum = layout.segment_sum(scaled)",
            "attention_sum = layout.segment_sum(attention)",
        )
        monkeypatch.setattr(hetero_conv.HeteroConvLayer, "kernel", mutant)
        # Eval-mode scoring has no scale: only a recorded forward sees it.
        assert self._caught().scenario == "fused-backward-vs-autograd"


class TestBatchedReadMutants:
    """`repro check --fuzz 150` must fail, in
    ``batched-read-vs-per-key-gets``, on each way the tier's one read
    path can stop being the per-key walk of
    ``repro.check.reference.per_key_get``. Every mutant is one edit of
    ``ReplicatedKVStore._get_many``, which ``get`` reaches too (a batch
    of one): three of the four are first seen in a round of ``get``
    calls."""

    NAME = "batched-read-vs-per-key-gets"

    def _plant(self, monkeypatch, old, new):
        monkeypatch.setattr(
            ReplicatedKVStore, "_get_many", _edited(ReplicatedKVStore._get_many, old, new)
        )

    def test_crc_skipped_on_the_batch_path(self, monkeypatch):
        self._plant(
            monkeypatch,
            "values.append(self._verified_read(index, key))",
            "values.append(self.replicas[index].get(key))",
        )
        # Poisoned bytes are served instead of failing over, so the walk
        # gets further than the loop does and ends on another error.
        assert "result: 'KeyError' != 'AllReplicasFailedError'" in _caught_by(self.NAME).detail

    def test_failover_answer_tallied_as_a_primary_success(self, monkeypatch):
        self._plant(
            monkeypatch,
            "values.append(self._failed_over(key, owners, failure))",
            "values.append(self._failed_over(key, owners, failure)); reads[index] += 1",
        )
        assert "reads_ok" in _caught_by(self.NAME).detail

    def test_gate_not_re_evaluated_after_a_replica_turns_dead(self, monkeypatch):
        self._plant(
            monkeypatch,
            "            dead = None\n            mark = clock()",
            "            mark = clock()",
        )
        # The dead replica keeps being asked (and keeps failing over).
        failure = _caught_by(self.NAME)
        assert "result" in failure.detail and "replica calls[0]" in failure.shrunk_detail

    def test_failing_key_read_again_on_the_same_replica(self, monkeypatch):
        self._plant(
            monkeypatch,
            "values.append(self._failed_over(key, owners, failure))",
            "values.append(self._gated_get(key))",
        )
        assert "replica calls" in _caught_by(self.NAME).detail

    def test_relation_and_shrunk_cases_hold_on_the_real_store(self):
        assert run_fuzz(120, seed=0, names=[self.NAME]).ok
        # What the four mutants above shrink to: (0, 1) five replicas at
        # rf 1, (1, 1) four replicas at rf 3.
        for seed, size in ((0, 1), (1, 1)):
            assert run_case(self.NAME, seed, size) is None, (seed, size)


class TestUniformRowDecodeMutants:
    """...and, in ``fast-decode-vs-np-load``, on each check the batch
    decode of ``load_rows`` could drop: the one loop over the blobs is
    what lets one header parse stand for all of them."""

    NAME = "fast-decode-vs-np-load"

    def test_prefix_compared_on_the_first_blob_only(self, monkeypatch):
        mutant = _edited(
            loader_module._decode_uniform,
            "if len(blob) != length or not blob.startswith(prefix):",
            "if len(blob) != length:",
        )
        monkeypatch.setattr(loader_module, "_decode_uniform", mutant)
        assert "load_rows ->" in _caught_by(self.NAME).detail

    def test_trailing_bytes_admitted_to_the_joined_payload(self, monkeypatch):
        mutant = _edited(
            loader_module._decode_uniform,
            "len(first) != offset + nbytes or ",
            "len(first) < offset + nbytes or ",
        )
        monkeypatch.setattr(loader_module, "_decode_uniform", mutant)
        assert "row by row ->" in _caught_by(self.NAME).detail


class TestGenerators:
    def test_graph_generator_is_seed_deterministic(self):
        a = random_hetero_graph(np.random.default_rng(9), num_txns=7)
        b = random_hetero_graph(np.random.default_rng(9), num_txns=7)
        assert subgraph_equal is not None  # helper imported
        assert np.array_equal(a.node_type, b.node_type)
        assert np.array_equal(a.edge_src, b.edge_src)
        assert np.array_equal(a.txn_table, b.txn_table)

    def test_delta_is_appendable(self):
        rng = np.random.default_rng(10)
        graph = random_hetero_graph(rng, num_txns=5)
        before = graph.num_nodes
        graph.append_delta(**random_delta(rng, graph, num_new_txns=3))
        assert graph.num_nodes > before
        graph.validate()

    def test_events_are_time_ordered(self):
        events = random_events(np.random.default_rng(11), 20)
        stamps = [event.timestamp for event in events]
        assert stamps == sorted(stamps)
        assert len({event.txn_id for event in events}) == 20


class TestStackSubgraphs:
    def test_stack_is_disjoint_and_score_preserving(self):
        graph = random_hetero_graph(np.random.default_rng(12), num_txns=6)
        sampler = SageSampler(hops=2, fanout=3, seed=1)
        parts = [sampler.sample(graph, [t]) for t in (0, 1, 2)]
        stacked = stack_subgraphs(parts)
        assert stacked.graph.num_nodes == sum(p.graph.num_nodes for p in parts)
        assert stacked.graph.num_edges == sum(p.graph.num_edges for p in parts)
        # No edge crosses a component boundary.
        bounds = np.cumsum([0] + [p.graph.num_nodes for p in parts])
        component = np.searchsorted(bounds, np.arange(stacked.graph.num_nodes), side="right")
        assert np.array_equal(
            component[stacked.graph.edge_src], component[stacked.graph.edge_dst]
        )
        # Each target's rows are its solo subgraph's rows, shifted.
        for part, local, off in zip(parts, stacked.target_local, bounds):
            assert local == off + part.target_local[0]

    def test_single_part_passthrough(self):
        graph = random_hetero_graph(np.random.default_rng(13), num_txns=4)
        part = SageSampler(hops=1, fanout=2, seed=0).sample(graph, [0])
        assert stack_subgraphs([part]) is part

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stack_subgraphs([])

    def test_unstack_inverts_a_stack_of_single_target_samples(self):
        graph = random_hetero_graph(np.random.default_rng(12), num_txns=6)
        sampler = SageSampler(hops=2, fanout=3, seed=1)
        parts = [sampler.sample(graph, [t]) for t in (0, 1, 0, graph.num_nodes - 1)]
        stacked = stack_subgraphs(parts)
        np.testing.assert_array_equal(stacked.bounds, component_bounds(stacked))
        cuts = unstack(stacked)  # the spec: bounds found by search
        assert [subgraph_equal(cut, part) for cut, part in zip(cuts, parts)] == [None] * 4
        assert all(cut.graph.txn_table.base is stacked.graph.txn_table for cut in cuts)
        gathered = [gather([(stacked, index)]) for index in range(len(parts))]
        assert [subgraph_equal(one, part) for one, part in zip(gathered, parts)] == [None] * 4
        assert gather([(parts[0], 0)]) is parts[0]
        # A stack of stacks keeps every component of its parts.
        again = stack_subgraphs([stacked, parts[1]])
        np.testing.assert_array_equal(again.bounds, component_bounds(again))

    def test_unstack_takes_one_root_per_component(self):
        graph = random_hetero_graph(np.random.default_rng(12), num_txns=6)
        sampler = SageSampler(hops=2, fanout=3, seed=1)
        walk = sampler.sample(graph, [0, 1, 2], disjoint=True)
        repeated = gather([(walk, 0), (walk, 1), (walk, 2)], [0, 2, 0, 1])
        assert repeated.graph is walk.graph
        assert repeated.target_local.tolist() == walk.target_local[[0, 2, 0, 1]].tolist()
        cuts = unstack(repeated, walk.target_local)
        assert [subgraph_equal(cut, sampler.sample(graph, [t])) for cut, t in zip(cuts, range(3))] == [
            None
        ] * 3
        assert [
            subgraph_equal(gather([(repeated, index)]), cut) for index, cut in enumerate(cuts)
        ] == [None] * 3
        with pytest.raises(ValueError, match="target first"):
            unstack(repeated)  # a repeated root is not one root per component

    def test_unstack_refuses_what_is_not_such_a_stack(self):
        graph = random_hetero_graph(np.random.default_rng(12), num_txns=6)
        sampler = SageSampler(hops=2, fanout=3, seed=1)
        union = sampler.sample(graph, [0, 1])  # one component, two targets
        assert union.graph.num_edges
        with pytest.raises(ValueError, match="not a stack"):
            unstack(union)
        stacked = stack_subgraphs([sampler.sample(graph, [t]) for t in (0, 1)])
        stacked.target_local = stacked.target_local + 1  # targets not first
        with pytest.raises(ValueError, match="target first"):
            unstack(stacked)


class TestCacheCountersThreaded:
    def test_counters_sum_to_lookups_under_concurrent_churn(self):
        graph = random_hetero_graph(np.random.default_rng(14), num_txns=12)
        sampler = SageSampler(hops=1, fanout=2, seed=0)
        cache = SubgraphCache(capacity=4)  # smaller than the key space: constant eviction
        txns = np.flatnonzero(graph.node_type == 0)
        per_thread = 200
        threads = 8
        errors = []

        def worker(worker_id):
            rng = np.random.default_rng(worker_id)
            try:
                for _ in range(per_thread):
                    target = int(txns[int(rng.integers(0, len(txns)))])
                    cache.get_or_sample(graph, sampler, [target])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert errors == []
        snapshot = cache.stats()
        assert snapshot["lookups"] == threads * per_thread
        assert snapshot["hits"] + snapshot["misses"] == snapshot["lookups"]
        assert snapshot["entries"] <= cache.capacity
        # misses - evictions - entries counts duplicate-miss races (two
        # threads miss the same key; the loser skips insertion): it can
        # never go negative, and every eviction stems from some miss.
        assert snapshot["evictions"] <= snapshot["misses"]
        assert snapshot["misses"] - snapshot["evictions"] - snapshot["entries"] >= 0


class TestCheckCli:
    def test_audit_only_exits_zero(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "audits: 12/12 passed" in out

    def test_fuzz_smoke_exits_zero(self, capsys):
        assert main(["check", "--skip-audit", "--fuzz", "4", "--seed", "0"]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_case_replay(self, capsys):
        code = main(
            ["check", "--case", "delta-merge-vs-rebuild", "--seed", "0", "--size", "2"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["check", "--list"]) == 0
        out = capsys.readouterr().out
        assert "invariant checkers:" in out
        assert "status-surfaces-agree" in out
        assert "wal-crash-replay" in out
        assert "batched-read-vs-per-key-gets" in out

    def test_divergence_exits_nonzero(self, capsys):
        name = "synthetic-cli-failure"
        SCENARIOS[name] = lambda seed, size: "planted"
        try:
            code = main(
                ["check", "--skip-audit", "--fuzz", "1", "--scenario", name]
            )
        finally:
            del SCENARIOS[name]
        assert code == 1
        out = capsys.readouterr().out
        assert "planted" in out
        assert "repro:" in out
