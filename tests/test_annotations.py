"""Simulated annotations, IAA, node→edge aggregation (Appendix E)."""

import numpy as np
import pytest

from repro.explain import (
    AGGREGATIONS,
    AnnotatorPanel,
    cohen_kappa,
    edge_importance_from_nodes,
    ground_truth_importance,
    human_edge_importance,
    mean_pairwise_kappa,
    random_panel,
)
from repro.graph import select_communities


@pytest.fixture(scope="module")
def communities(tiny_graph, tiny_splits):
    _, test = tiny_splits
    return select_communities(tiny_graph, test, count=6, seed=3)


class TestGroundTruth:
    def test_scores_in_range(self, communities):
        for community in communities:
            truth = ground_truth_importance(community)
            assert truth.shape == (community.graph.num_nodes,)
            assert np.all((truth >= 0) & (truth <= 2))

    def test_seed_most_important(self, communities):
        for community in communities:
            truth = ground_truth_importance(community)
            assert truth[community.seed_local] == 2

    def test_distance_decay(self, communities):
        """Mean importance near the seed exceeds the periphery's."""
        from repro.graph import bfs

        near_scores, far_scores = [], []
        for community in communities:
            truth = ground_truth_importance(community)
            reached, hops, _ = bfs(community.graph, [community.seed_local])
            distance = np.full(community.graph.num_nodes, np.inf)
            distance[reached] = hops
            near_scores.extend(truth[distance <= 1])
            far_scores.extend(truth[distance > 2])
        if far_scores:
            assert np.mean(near_scores) > np.mean(far_scores)


class TestPanel:
    def test_panel_shape(self, communities):
        panel = AnnotatorPanel().annotate(communities[0])
        assert panel.shape == (5, communities[0].graph.num_nodes)
        assert np.all((panel >= 0) & (panel <= 2))

    def test_iaa_calibrated_to_paper(self, communities):
        """Mean pairwise kappa near the paper's 0.53."""
        kappas = [
            mean_pairwise_kappa(AnnotatorPanel().annotate(c)) for c in communities
        ]
        assert 0.35 < float(np.mean(kappas)) < 0.7

    def test_random_panel_iaa_near_zero(self, communities):
        kappas = [
            mean_pairwise_kappa(random_panel(c.graph.num_nodes, seed=i))
            for i, c in enumerate(communities)
        ]
        assert abs(float(np.mean(kappas))) < 0.12

    def test_node_importance_is_mean(self, communities):
        panel = AnnotatorPanel(seed=1)
        scores = panel.node_importance(communities[0])
        raw = panel.annotate(communities[0])
        np.testing.assert_allclose(scores, raw.mean(axis=0))

    def test_deterministic_per_community(self, communities):
        a = AnnotatorPanel(seed=2).annotate(communities[0])
        b = AnnotatorPanel(seed=2).annotate(communities[0])
        np.testing.assert_array_equal(a, b)


class TestCohenKappa:
    def test_perfect_agreement(self):
        a = np.array([0, 1, 2, 1, 0])
        assert cohen_kappa(a, a) == pytest.approx(1.0)

    def test_random_agreement_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, 10_000)
        b = rng.integers(0, 3, 10_000)
        assert abs(cohen_kappa(a, b)) < 0.05

    def test_systematic_disagreement_negative(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([2, 2, 0, 0, 1, 1])
        assert cohen_kappa(a, b) < 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cohen_kappa([0, 1], [0])


class TestEdgeAggregation:
    def test_three_strategies(self, communities):
        community = communities[0]
        scores = np.arange(community.graph.num_nodes, dtype=float)
        for aggregation in AGGREGATIONS:
            weights = edge_importance_from_nodes(community, scores, aggregation)
            assert set(weights) == set(community.undirected_edges())

    def test_avg_between_min_and_sum(self, communities):
        community = communities[0]
        scores = np.random.default_rng(0).random(community.graph.num_nodes)
        avg = edge_importance_from_nodes(community, scores, "avg")
        low = edge_importance_from_nodes(community, scores, "min")
        total = edge_importance_from_nodes(community, scores, "sum")
        for edge in avg:
            assert low[edge] <= avg[edge] <= total[edge]

    def test_sum_is_twice_avg(self, communities):
        community = communities[0]
        scores = np.random.default_rng(1).random(community.graph.num_nodes)
        avg = edge_importance_from_nodes(community, scores, "avg")
        total = edge_importance_from_nodes(community, scores, "sum")
        for edge in avg:
            assert total[edge] == pytest.approx(2 * avg[edge])

    def test_unknown_aggregation(self, communities):
        with pytest.raises(KeyError):
            edge_importance_from_nodes(communities[0], np.zeros(1), "median")

    def test_human_edge_importance_range(self, communities):
        weights = human_edge_importance(communities[0], AnnotatorPanel())
        values = np.array(list(weights.values()))
        # avg aggregation of scores in [0, 2] stays in [0, 2].
        assert np.all((values >= 0) & (values <= 2))
