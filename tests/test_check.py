"""The correctness harness itself: audits, fuzz scenarios, shrinker, CLI,
and the planted mutants each check must kill.

Every mutant is declared beside its check (``repro.check.mutants``);
``test_mutant_is_killed_by_its_check`` holds each to its declaration.
``PINNED`` holds cases the shrinker found: regression seeds of bugs the
harness caught in the real code, which stay here as cases it must pass.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.check import (
    MUTANTS,
    REGISTRY,
    SCENARIOS,
    csr_violations,
    kill,
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
from repro.check.reference import component_bounds, stack_subgraphs, unstack
from repro.cli import main
from repro.graph.cache import SubgraphCache
from repro.graph.sampling import SageSampler, gather
from repro.models import hetero_conv

#: Scenarios folded into another, by the one that now holds their cases:
#: their tests and pinned rows keep the old name and run the survivor.
FOLDED = {
    "disjoint-walk-vs-singleton-samples": "sampler-fast-vs-reference",
    "fused-vs-autograd-forward": "fused-backward-vs-autograd",
}

class TestInvariantRegistry:
    def test_registry_covers_every_layer(self):
        layers = {check.layer for check in REGISTRY.values()}
        for expected in ("graph", "stream", "storage", "serving", "obs"):
            assert any(expected in layer for layer in layers), expected
        assert "supervised-round-vs-engine" in SCENARIOS  # reliability: the checkpoints

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
    @pytest.mark.parametrize("name", sorted(SCENARIOS) + sorted(FOLDED))
    def test_scenario_clean_on_small_cases(self, name):
        for seed in (3, 4, 5) if name in FOLDED else (0, 1, 2):  # a folded name: fresh seeds
            assert run_case(FOLDED.get(name, name), seed, 3) is None, (name, seed)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_case("no-such-scenario", 0, 1)

    def test_run_fuzz_reports_spread(self):
        report = run_fuzz(len(SCENARIOS), seed=0)
        assert report.ok
        assert sum(report.per_scenario.values()) == len(SCENARIOS)
        assert set(report.per_scenario) == set(SCENARIOS)

    @pytest.mark.parametrize("line", [0, 10**9])
    def test_either_segment_sum_gives_the_reference_gradients(self, monkeypatch, line):
        # A layer sums in-neighbourhoods through a sparse matrix from 256
        # edges on and by reduceat below; fuzz graphs are mostly below. Move
        # the line so every case takes one side, then the other.
        monkeypatch.setattr(hetero_conv, "_REDUCEAT_MAX_EDGES", line)
        for seed, size in ((0, 3), (1, 8), (2, 13), (3, 21)):
            assert run_case("fused-backward-vs-autograd", seed, size) is None, (seed, size)

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


#: Cases the real code must pass, beyond what a mutant shrinks to (each
#: ``Mutant.shrinks_to`` is a row too): regression seeds the shrinker
#: found, and what mutants shrank to under earlier dealings of the cases.
PINNED = [
    # A zero-filled tail parsed as phantom zero-length frames
    # (crc32(b"") == 0 validates an all-zero header).
    ("wal-crash-replay", 0, 1),
    ("wal-crash-replay", 1354443655, 2),
    # Every frame was counted as long as the first; events encode to
    # 173-177 bytes, so a cut's surviving records were miscounted.
    ("wal-crash-replay", 14, 21),
    # The autograd forward raised on a graph with no edges, which the
    # inference kernel scores (edgeless cases).
    ("fused-vs-autograd-forward", 3, 1),
    ("fused-vs-autograd-forward", 11, 3),
    # What the disjoint walk's mutants shrank to when it was a check of its own.
    ("disjoint-walk-vs-singleton-samples", 0, 1),
    # A header extent of -1 (seed 98) and a sub-array dtype '4f4', one bit
    # flip from '<f4' (seed 65), both of which np.load refuses.
    ("fast-decode-vs-np-load", 98, 1),
    ("fast-decode-vs-np-load", 65, 1),
    # In-place growth: blocks shifted front to back overwrite unmoved CSR
    # entries (seed 0); a delta written through the stale buffer of a
    # swapped-out label array loses the swapped-in flips (seed 37).
    ("delta-merge-vs-rebuild", 0, 1),
    ("delta-merge-vs-rebuild", 37, 1),
    ("delta-merge-vs-rebuild", 1139250825, 8),
    # BCE on logits took |x| off the tape (0, 1); a batched matmul's
    # backward with a 1-D right operand (0, 2) and (4, 2).
    ("grad-vs-finite-difference", 0, 1),
    ("grad-vs-finite-difference", 0, 2),
    ("grad-vs-finite-difference", 4, 2),
    ("pruned-step-vs-full-graph", 1, 3),
    ("pruned-step-vs-full-graph", 6, 5),
    ("pruned-step-vs-full-graph", 1, 5),
    ("pruned-step-vs-full-graph", 0, 2),
    # (0, 3): a worker dying in the round it rejoins was kept as a member
    # forever, its partitions trained by nobody.
    ("supervised-round-vs-engine", 0, 3),
    ("supervised-round-vs-engine", 4, 4),
    ("supervised-round-vs-engine", 3, 2),
    ("supervised-round-vs-engine", 0, 2),
    ("supervised-round-vs-engine", 0, 13),
    ("fused-backward-vs-autograd", 0, 3),
    ("fused-backward-vs-autograd", 2, 2),
    ("trimmed-layers-vs-untrimmed-layout", 0, 1),
]


class TestRegressionSeeds:
    @pytest.mark.parametrize(
        "name, seed, size",
        sorted(
            set(PINNED)
            | {(m.check, *m.shrinks_to) for m in MUTANTS.values() if m.shrinks_to is not None}
        ),
    )
    def test_pinned_case_passes_on_the_real_code(self, name, seed, size):
        assert run_case(FOLDED.get(name, name), seed, size) is None

    @pytest.mark.parametrize(
        "name, trials",
        [
            ("trimmed-layers-vs-untrimmed-layout", 120),
            ("plan-memo-vs-fresh-plan", 120),
            ("batched-read-vs-per-key-gets", 120),
            ("flat-step-vs-per-parameter-step", 60),
        ],
    )
    def test_relation_holds_past_the_round(self, name, trials):
        assert run_fuzz(trials, seed=0, names=[name]).ok

    def test_batched_scoring_shrunk_case(self):
        # Union sampling made a node's score depend on its batch-mates
        # (0.1442 one at a time vs 0.1399 batched).
        assert run_case("single-vs-batched-scoring", 0, 1) is None
        assert run_case("single-vs-batched-scoring", 1434336075, 3) is None

    def test_a_crashing_side_is_a_divergence(self, monkeypatch):
        def crashes(seed, size):
            raise ValueError("one side blew up")

        monkeypatch.setitem(SCENARIOS, "synthetic-crash", crashes)
        assert "ValueError: one side blew up" in run_case("synthetic-crash", 0, 1)


class TestStackedSampleMutants:
    """The three ways a micro-batch's stacked sample can point a request
    at another target's component are declared beside
    ``single-vs-batched-scoring``; what they shrink to passes on the
    real lookup."""

    NAME = "single-vs-batched-scoring"

    def test_shrunk_cases_pass_on_the_real_lookup(self):
        # (0, 5) a six-request batch with two repeats, (0, 1) a
        # five-request batch of two targets.
        shrunk = {m.shrinks_to for m in MUTANTS.values() if m.check == self.NAME}
        assert shrunk == {(0, 5), (0, 1)}
        for seed, size in sorted(shrunk):
            assert run_case(self.NAME, seed, size) is None, (seed, size)


@pytest.mark.parametrize("mutant", MUTANTS.values(), ids=lambda mutant: mutant.name)
def test_mutant_is_killed_by_its_check(mutant):
    """First in its check (``repro check --fuzz 150 --seed 0``, or the
    check's own cases when ``alone``), carrying what it declares,
    shrunk to the case it pins."""
    where, shrunk, texts = kill(mutant)
    assert where == mutant.check
    assert shrunk == mutant.shrinks_to
    assert texts and all(part in text for text in texts for part in mutant.carries), texts


@pytest.mark.parametrize(
    "name, check, part",
    [
        (
            "layer-norm-backward-without-its-projection-term",
            "trimmed-layers-vs-untrimmed-layout",
            "read everywhere",
        ),
        (
            "cross-entropy-gradient-not-divided-by-the-batch",
            "grad-vs-finite-difference",
            "cross_entropy:",
        ),
    ],
)
def test_mutant_is_killed_by_another_check_alone(name, check, part):
    where, _, (text,) = kill(dataclasses.replace(MUTANTS[name], check=check, alone=True))
    assert where == check and part in text


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
        assert "audits: 8/8 passed" in out

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
        assert "inserts-before-hits" in out and "killed by cache-coherence" in out

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
