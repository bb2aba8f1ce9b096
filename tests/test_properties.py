"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Tensor, segment_softmax, segment_sum
from repro.nn import functional as F
from repro.train.metrics import accuracy, average_precision, roc_auc

finite_floats = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)


def small_arrays(shape):
    return arrays(dtype=np.float64, shape=shape, elements=finite_floats)


class TestAutogradProperties:
    @given(small_arrays((4,)), small_arrays((4,)))
    @settings(max_examples=30, deadline=None)
    def test_addition_gradient_is_ones(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta + tb).sum().backward()
        np.testing.assert_allclose(ta.grad, 1.0)
        np.testing.assert_allclose(tb.grad, 1.0)

    @given(small_arrays((5,)))
    @settings(max_examples=30, deadline=None)
    def test_tanh_gradient_formula(self, x):
        t = Tensor(x, requires_grad=True)
        t.tanh().sum().backward()
        np.testing.assert_allclose(t.grad, 1 - np.tanh(x) ** 2, atol=1e-9)

    @given(small_arrays((3, 4)))
    @settings(max_examples=30, deadline=None)
    def test_sum_then_mean_consistency(self, x):
        t = Tensor(x)
        np.testing.assert_allclose(
            t.mean().item(), t.sum().item() / x.size, atol=1e-9
        )

    @given(small_arrays((6,)), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_segment_sum_total_preserved(self, values, num_segments):
        ids = np.arange(6) % num_segments
        out = segment_sum(Tensor(values.reshape(6, 1)), ids, num_segments)
        np.testing.assert_allclose(out.data.sum(), values.sum(), atol=1e-9)

    @given(small_arrays((8,)))
    @settings(max_examples=30, deadline=None)
    def test_segment_softmax_sums_to_one(self, logits):
        ids = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        out = segment_softmax(Tensor(logits), ids, 3).data
        for segment in range(3):
            np.testing.assert_allclose(out[ids == segment].sum(), 1.0, atol=1e-9)

    @given(small_arrays((4, 3)))
    @settings(max_examples=30, deadline=None)
    def test_softmax_invariant_to_shift(self, x):
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestMetricProperties:
    labels_scores = st.integers(min_value=2, max_value=60).flatmap(
        lambda n: st.tuples(
            arrays(np.int64, n, elements=st.integers(0, 1)),
            arrays(
                np.float64,
                n,
                elements=st.floats(0, 1, allow_nan=False),
            ),
        )
    )

    @given(labels_scores)
    @settings(max_examples=50, deadline=None)
    def test_auc_bounded_and_complement(self, data):
        labels, scores = data
        if labels.min() == labels.max():
            return
        # Quantise first so ``1 - scores`` cannot absorb distinct tiny
        # scores into a tie (1 - 2e-308 == 1 - 0).
        scores = np.round(scores, 3)
        auc = roc_auc(labels, scores)
        assert 0 <= auc <= 1
        flipped = roc_auc(labels, 1 - scores)
        # AUC(s) + AUC(1-s) == 1 up to tie handling.
        assert abs(auc + flipped - 1.0) < 0.35

    @given(labels_scores)
    @settings(max_examples=50, deadline=None)
    def test_auc_invariant_to_monotone_transform(self, data):
        labels, scores = data
        if labels.min() == labels.max():
            return
        # Quantise first so the affine map cannot create or destroy
        # ties through floating-point rounding.
        scores = np.round(scores, 3)
        a = roc_auc(labels, scores)
        b = roc_auc(labels, scores * 7 + 3)
        np.testing.assert_allclose(a, b, atol=1e-9)

    @given(labels_scores)
    @settings(max_examples=100, deadline=None)
    def test_auc_matches_brute_force_pairwise_under_ties(self, data):
        # The sorted-rank implementation must agree with the textbook
        # definition — P(score_pos > score_neg) + 0.5 P(tie) — even when
        # quantisation creates long runs of tied scores.
        labels, scores = data
        if labels.min() == labels.max():
            return
        scores = np.round(scores, 1)  # force heavy ties
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
        np.testing.assert_allclose(roc_auc(labels, scores), brute, atol=1e-12)

    def test_auc_rejects_nan_scores(self):
        # NaN sorts unpredictably and would silently corrupt the ranking;
        # the metric must refuse it outright.
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.1, np.nan, 0.3, 0.9])
        with pytest.raises(ValueError):
            roc_auc(labels, scores)

    @given(labels_scores)
    @settings(max_examples=50, deadline=None)
    def test_ap_bounded(self, data):
        labels, scores = data
        if labels.sum() == 0:
            return
        assert 0 <= average_precision(labels, scores) <= 1 + 1e-9

    @given(labels_scores)
    @settings(max_examples=50, deadline=None)
    def test_accuracy_bounded(self, data):
        labels, scores = data
        assert 0 <= accuracy(labels, scores) <= 1


class TestHitRateProperties:
    @given(
        st.integers(min_value=6, max_value=40),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_self_agreement_is_one(self, n_edges, k, seed):
        from repro.explain import topk_hit_rate

        rng = np.random.default_rng(seed)
        weights = {(i, i + 1): float(v) for i, v in enumerate(rng.random(n_edges))}
        assert topk_hit_rate(weights, weights, k, draws=5, seed=seed) == 1.0

    @given(st.integers(min_value=6, max_value=30), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_hit_rate_bounded(self, n_edges, seed):
        from repro.explain import topk_hit_rate

        rng = np.random.default_rng(seed)
        a = {(i, i + 1): float(v) for i, v in enumerate(rng.random(n_edges))}
        b = {(i, i + 1): float(v) for i, v in enumerate(rng.random(n_edges))}
        rate = topk_hit_rate(a, b, 5, draws=10, seed=seed)
        assert 0.0 <= rate <= 1.0


class TestGraphProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_generated_graph_invariants(self, seed):
        """Any generator seed yields a structurally valid graph."""
        from repro.data import GeneratorConfig, TransactionGenerator
        from repro.graph import NODE_TYPE_IDS, build_graph

        config = GeneratorConfig(
            num_benign_buyers=15,
            num_stolen_cards=2,
            num_warehouse_rings=1,
            num_cultivated_accounts=1,
            num_guest_checkouts=3,
            feature_dim=8,
            seed=seed,
        )
        generator = TransactionGenerator(config)
        log = generator.downsample_benign(generator.generate())
        graph, _ = build_graph(log)
        graph.validate()
        # Symmetric edges.
        pairs = set(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))
        assert all((d, s) in pairs for s, d in pairs)
        # Edges only connect txn to entities.
        txn = NODE_TYPE_IDS["txn"]
        for s, d in zip(graph.edge_src, graph.edge_dst):
            kinds = {int(graph.node_type[s]), int(graph.node_type[d])}
            assert txn in kinds and len(kinds) == 2

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_sampler_subgraph_is_valid(self, seed, fanout):
        from repro.data import GeneratorConfig, TransactionGenerator
        from repro.graph import SageSampler, build_graph

        config = GeneratorConfig(
            num_benign_buyers=15,
            num_stolen_cards=2,
            num_warehouse_rings=1,
            num_cultivated_accounts=1,
            num_guest_checkouts=2,
            feature_dim=8,
            seed=seed % 5,
        )
        generator = TransactionGenerator(config)
        log = generator.downsample_benign(generator.generate())
        graph, _ = build_graph(log)
        targets = graph.labeled_nodes[:4]
        sampled = SageSampler(hops=2, fanout=fanout, seed=seed).sample(graph, targets)
        sampled.graph.validate()
        assert sampled.num_targets == len(targets)
