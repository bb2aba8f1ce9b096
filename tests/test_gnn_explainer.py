"""Modified GNNExplainer (Appendix D)."""

import copy
from contextlib import contextmanager

import numpy as np
import pytest

from repro import nn
from repro.check.reference import PerOpDetector
from repro.explain import ExplainerConfig, GNNExplainer, gnn_explainer
from repro.graph import select_communities
from repro.graph.sampling import receptive_field
from repro.models import hetero_conv
from repro.nn import functional as F
from repro.nn import load_state, save_state


@pytest.fixture(scope="module")
def community(tiny_graph, tiny_splits):
    _, test = tiny_splits
    return select_communities(tiny_graph, test, count=1, seed=3)[0]


@pytest.fixture(scope="module")
def explanation(trained_detector, community):
    explainer = GNNExplainer(trained_detector, ExplainerConfig(epochs=30, seed=0))
    return explainer.explain(community.graph, community.seed_local)


class TestOutputs:
    def test_edge_mask_shape_and_range(self, explanation, community):
        mask = explanation.edge_mask
        assert mask.shape == (community.graph.num_edges,)
        assert np.all((mask > 0) & (mask < 1))

    def test_node_feature_mask_covers_all_nodes(self, explanation, community):
        mask = explanation.node_feature_mask
        assert mask.shape == (
            community.graph.num_nodes,
            community.graph.feature_dim,
        )
        assert np.all((mask > 0) & (mask < 1))

    def test_loss_decreases(self, explanation):
        history = explanation.loss_history
        assert history[-1] < history[0]

    def test_predicted_label_valid(self, explanation):
        assert explanation.predicted_label in (0, 1)

    def test_top_features(self, explanation):
        top = explanation.top_features(explanation.node_index, k=3)
        assert len(top) == 3
        weights = explanation.node_feature_mask[explanation.node_index]
        assert weights[top[0]] >= weights[top[1]] >= weights[top[2]]


class TestUndirectedWeights:
    def test_max_over_directions(self, explanation, community):
        """Footnote 4: undirected weight = max of the two directions."""
        graph = community.graph
        weights = explanation.undirected_edge_weights(graph)
        for edge_id, (src, dst) in enumerate(zip(graph.edge_src, graph.edge_dst)):
            pair = (min(int(src), int(dst)), max(int(src), int(dst)))
            assert weights[pair] >= explanation.edge_mask[edge_id] - 1e-12

    def test_covers_every_undirected_pair(self, explanation, community):
        weights = explanation.undirected_edge_weights(community.graph)
        assert set(weights) == set(community.undirected_edges())


class TestTraining:
    def test_detector_frozen(self, trained_detector, community):
        before = {k: v.copy() for k, v in trained_detector.state_dict().items()}
        explainer = GNNExplainer(trained_detector, ExplainerConfig(epochs=5))
        explainer.explain(community.graph, community.seed_local)
        after = trained_detector.state_dict()
        for key in before:
            np.testing.assert_allclose(before[key], after[key])

    def test_detector_grads_left_untouched(self, trained_detector, community, monkeypatch):
        """The masks are all an explanation trains: no detector parameter
        ends up holding a ``.grad``, each is back on the tape afterwards,
        and taking the detector off the tape moves no bit of the masks
        against a run that leaves it on (the pullbacks' weight halves
        then run, and feed nothing the masks read)."""
        trained_detector.zero_grad()
        config = ExplainerConfig(epochs=10, seed=0)
        graph, seed = community.graph, community.seed_local
        frozen = GNNExplainer(trained_detector, config).explain(graph, seed)
        assert all(param.grad is None for param in trained_detector.parameters())
        assert all(param.requires_grad for param in trained_detector.parameters())

        @contextmanager
        def eval_only(detector):
            was_training = detector.training
            detector.eval()
            yield
            detector.train(was_training)

        monkeypatch.setattr(gnn_explainer, "_frozen", eval_only)
        live = GNNExplainer(trained_detector, config).explain(graph, seed)
        assert all(param.grad is not None for param in trained_detector.parameters())
        trained_detector.zero_grad()
        assert np.array_equal(frozen.edge_mask, live.edge_mask)
        assert np.array_equal(frozen.node_feature_mask, live.node_feature_mask)

    def test_lays_out_once_per_explanation(self, trained_detector, community, monkeypatch):
        """An explanation's 101 forwards share one layout; a different
        graph object, a version bump or other targets lay out anew; and
        the masks are bit for bit those of a detector that lays out on
        every forward."""
        calls = []
        real = hetero_conv.InferenceLayout.of.__func__

        def counted(cls, graph, targets=None, depth=0):
            calls.append(graph)
            return real(cls, graph, targets, depth)

        monkeypatch.setattr(hetero_conv.InferenceLayout, "of", classmethod(counted))
        graph, seed = copy.deepcopy(community.graph), community.seed_local
        config = ExplainerConfig(epochs=100, seed=0)
        explanation = GNNExplainer(trained_detector, config).explain(graph, seed)
        assert len(calls) == 1

        with nn.no_grad():
            trained_detector(graph, [seed])
            assert len(calls) == 1
            trained_detector(copy.deepcopy(graph), [seed])
            assert len(calls) == 2
            trained_detector(graph, [seed, seed])
            assert len(calls) == 3
            graph.mark_mutated(structural=False)
            trained_detector(graph, [seed, seed])
            assert len(calls) == 4

        forgetful = property(lambda self: None, lambda self, value: None)
        monkeypatch.setattr(type(trained_detector), "_layout_memo", forgetful, raising=False)
        calls.clear()
        again = GNNExplainer(trained_detector, config).explain(community.graph, seed)
        assert len(calls) == config.epochs + 1
        assert np.array_equal(explanation.edge_mask, again.edge_mask)
        assert np.array_equal(explanation.node_feature_mask, again.node_feature_mask)

    def test_detector_mode_restored(self, trained_detector, community):
        trained_detector.train()
        explainer = GNNExplainer(trained_detector, ExplainerConfig(epochs=2))
        explainer.explain(community.graph, community.seed_local)
        assert trained_detector.training
        trained_detector.eval()

    def test_deterministic_given_seed(self, trained_detector, community):
        config = ExplainerConfig(epochs=5, seed=42)
        a = GNNExplainer(trained_detector, config).explain(
            community.graph, community.seed_local
        )
        b = GNNExplainer(trained_detector, config).explain(
            community.graph, community.seed_local
        )
        np.testing.assert_allclose(a.edge_mask, b.edge_mask)

    def test_use_true_label(self, trained_detector, community):
        config = ExplainerConfig(epochs=3, use_true_label=True)
        explanation = GNNExplainer(trained_detector, config).explain(
            community.graph, community.seed_local
        )
        assert explanation.predicted_label == community.label

    def test_true_label_on_unlabeled_node_rejected(self, trained_detector, community):
        entity = int(np.flatnonzero(community.graph.labels < 0)[0])
        config = ExplainerConfig(epochs=2, use_true_label=True)
        with pytest.raises(ValueError):
            GNNExplainer(trained_detector, config).explain(community.graph, entity)

    def test_edge_size_penalty_shrinks_masks(self, trained_detector, community):
        """A heavier edge-size penalty yields smaller average masks."""
        light = GNNExplainer(
            trained_detector, ExplainerConfig(epochs=25, beta_edge_size=0.0, seed=1)
        ).explain(community.graph, community.seed_local)
        heavy = GNNExplainer(
            trained_detector, ExplainerConfig(epochs=25, beta_edge_size=1.0, seed=1)
        ).explain(community.graph, community.seed_local)
        assert heavy.edge_mask.mean() < light.edge_mask.mean()


class TestFusedNodeAgainstPerOpReference:
    """The explainer differentiates the detector w.r.t. its inputs —
    ``edge_mask`` and, through ``h``, ``feature_mask`` — which is the
    convolution node's hand-written backward. Forty Adam steps through
    it must land where forty steps through the per-op ``Tensor``
    convolution land, and a saved-and-loaded detector must explain the
    same way."""

    TOP_K = 5

    def _explain(self, detector, community):
        config = ExplainerConfig(epochs=40, seed=0)
        return GNNExplainer(detector, config).explain(community.graph, community.seed_local)

    def _assert_same(self, explanation, reference):
        assert np.abs(explanation.edge_mask - reference.edge_mask).max() <= 1e-9
        assert np.abs(explanation.node_feature_mask - reference.node_feature_mask).max() <= 1e-9
        assert explanation.predicted_label == reference.predicted_label
        top, reference_top = (
            np.argsort(-e.edge_mask, kind="stable")[: self.TOP_K] for e in (explanation, reference)
        )
        assert top.tolist() == reference_top.tolist()

    def test_same_masks_and_top_edges(self, trained_detector, community):
        reference = self._explain(PerOpDetector(trained_detector), community)
        self._assert_same(self._explain(trained_detector, community), reference)
        assert np.ptp(reference.edge_mask) > 1e-3  # the masks did move

    def test_same_after_save_and_load(self, trained_detector, community, tmp_path):
        path = save_state(trained_detector, str(tmp_path / "detector"))
        loaded = load_state(type(trained_detector)(trained_detector.config), path)
        reference = self._explain(PerOpDetector(trained_detector), community)
        self._assert_same(self._explain(loaded, community), reference)

    def test_edges_no_layer_walks_get_exactly_zero_gradient(self, trained_detector, community):
        """From the detector loss, ``d edge_mask`` of every edge outside
        the target's in-closure is exactly 0 — as the per-op tape gives
        it, not a rounding residue and not what ``np.empty`` held."""
        explanation = self._explain(trained_detector, community)
        graph, seed = community.graph, community.seed_local
        walked = receptive_field(graph, [seed], hops=len(trained_detector.convs)).edge_ids
        outside = np.setdiff1d(np.arange(graph.num_edges), walked)
        assert len(outside) and len(walked)
        was_training = trained_detector.training
        trained_detector.eval()
        try:
            grads = []
            for detector in (trained_detector, PerOpDetector(trained_detector)):
                edge_mask = nn.Parameter(explanation.edge_mask.copy())
                logits = detector.forward(
                    graph,
                    [seed],
                    edge_mask=edge_mask,
                    feature_mask=nn.Tensor(explanation.node_feature_mask),
                )
                F.cross_entropy(logits, np.array([explanation.predicted_label])).backward()
                grads.append(edge_mask.grad)
        finally:
            trained_detector.train(was_training)
        fused, per_op = grads
        assert not fused[outside].any() and not per_op[outside].any()
        assert fused[walked].any()
        assert np.abs(fused - per_op).max() <= 1e-12
