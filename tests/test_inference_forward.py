"""The detector's plain-array inference forward against its reference.

``XFraudDetector.predict_proba`` is a numpy kernel with no ``Tensor``
behind it — and ``XFraudDetector.forward`` is a tape node over that same
kernel, so the reference is ``repro.check.reference.PerOpDetector``: the
same parameters through the op-by-op ``Tensor`` convolution, in eval
mode under ``no_grad``. The two must agree to ``BOUND`` on every graph
shape and every ablation config, the kernel must follow every write
of the parameters (its weight-only tables are memoised per parameter
version, never past a write) and leave the module's mode and dropout
generator alone.
"""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.check.gen import random_hetero_graph, random_weights
from repro.data import load_dataset
from repro.graph.hetero import EDGE_TYPES, NODE_TYPE_IDS, HeteroGraph
from repro.graph.sampling import SageSampler, stack_subgraphs
from repro.models import DetectorConfig, XFraudDetector
from repro.check.reference import PerOpDetector
from repro.models.inference import tensor_predict_proba

BOUND = 1e-12
FEATURE_DIM = 6


def reference_scores(model, graph, targets):
    return tensor_predict_proba(PerOpDetector(model), graph, targets)

ABLATIONS = list(itertools.product([False, True], repeat=2))
ablations = pytest.mark.parametrize("per_type, target_specific", ABLATIONS)


def make_detector(per_type=False, target_specific=False, feature_dim=FEATURE_DIM, seed=0):
    """A small detector with every parameter randomised, so zero-init
    type embeddings and identity layer norms cannot hide a term."""
    model = XFraudDetector(
        DetectorConfig(
            feature_dim=feature_dim,
            hidden_dim=8,
            num_heads=2,
            num_layers=2,
            ffn_hidden_dim=8,
            dropout=0.5,
            per_type_projections=per_type,
            target_specific_aggregation=target_specific,
            seed=seed,
        )
    )
    random_weights(np.random.default_rng(seed + 1), model)
    return model


def linked_graph(node_kinds, links, seed=0):
    node_types = [NODE_TYPE_IDS[kind] for kind in node_kinds]
    is_txn = np.array(node_types) == NODE_TYPE_IDS["txn"]
    features = np.random.default_rng(seed).normal(size=(len(node_types), FEATURE_DIM))
    labels = np.where(is_txn, 0, -1)
    return HeteroGraph.from_links(node_types, links, features[is_txn], labels)


def _edgeless():
    return linked_graph(["txn", "txn", "pmt", "txn"], []), [0, 1, 3]


def _target_without_in_edges():
    # One directed edge txn -> pmt: the graph has an edge, the txn has
    # no in-neighbourhood, and txn 1 is isolated altogether.
    graph = HeteroGraph(
        node_type=[0, 0, 1],
        edge_src=[0],
        edge_dst=[2],
        edge_type=[EDGE_TYPES.index("txn->pmt")],
        txn_table=linked_graph(["txn", "txn", "pmt"], []).txn_table,
        labels=[0, 1, -1],
    )
    return graph, [0, 1]


def _single_edge_neighbourhoods():
    return linked_graph(["txn", "pmt", "txn", "email"], [(0, 1), (2, 3)]), [0, 2]


def _all_edge_types():
    graph = linked_graph(
        ["txn", "pmt", "email", "addr", "buyer", "txn"],
        [(0, 1), (0, 2), (0, 3), (0, 4), (5, 1), (5, 4)],
    )
    assert set(graph.edge_type.tolist()) == set(range(len(EDGE_TYPES)))
    return graph, [0, 5]


def _absent_node_types():
    # Only txn and buyer exist; buyer is the *last* type id, so the
    # blocks in between are empty.
    return linked_graph(["buyer", "txn", "txn", "buyer"], [(1, 0), (2, 0), (2, 3)]), [1, 2]


def _duplicate_targets():
    graph, _ = _all_edge_types()
    return graph, [0, 0, 5, 0]


def singleton_samples(count=32):
    """``count`` one-target sampled neighbourhoods of one random graph."""
    graph = random_hetero_graph(np.random.default_rng(5), num_txns=40, feature_dim=FEATURE_DIM)
    sampler = SageSampler(hops=2, fanout=3, seed=1)
    txns = np.flatnonzero(graph.node_type == 0)[:count]
    return [sampler.sample(graph, [int(txn)]) for txn in txns]


def _stacked_32():
    stacked = stack_subgraphs(singleton_samples())
    return stacked.graph, stacked.target_local


SHAPES = {
    "edgeless": _edgeless,
    "target-without-in-edges": _target_without_in_edges,
    "single-edge-neighbourhoods": _single_edge_neighbourhoods,
    "all-8-edge-types": _all_edge_types,
    "absent-node-types": _absent_node_types,
    "duplicate-targets": _duplicate_targets,
    "stacked-32": _stacked_32,
}


@ablations
@pytest.mark.parametrize("shape", SHAPES)
def test_kernel_matches_tensor_forward(shape, per_type, target_specific):
    graph, targets = SHAPES[shape]()
    model = make_detector(per_type, target_specific)
    scores = model.predict_proba(graph, targets)
    assert scores.shape == (len(targets),)
    assert np.abs(scores - reference_scores(model, graph, targets)).max() <= BOUND


@pytest.fixture(scope="module")
def serving_graph():
    return load_dataset("ebay-small-sim", seed=0, scale=1.0).graph


@ablations
def test_kernel_matches_tensor_forward_on_the_full_graph(
    serving_graph, per_type, target_specific
):
    model = make_detector(per_type, target_specific, feature_dim=serving_graph.feature_dim)
    targets = serving_graph.txn_nodes
    scores = model.predict_proba(serving_graph, targets)
    reference = reference_scores(model, serving_graph, targets)
    assert np.abs(scores - reference).max() <= BOUND
    assert scores.std() > 1e-3  # not a constant both sides agree on


def test_stacked_scores_equal_singleton_scores():
    """PR 10's batch-composition bug must not return through a
    ``reduceat`` over a mis-sorted segment: a target scores the same
    alone as inside a 32-part block-diagonal stack."""
    parts = singleton_samples()
    model = make_detector()
    alone = np.concatenate([model.predict_proba(p.graph, p.target_local) for p in parts])
    stacked = stack_subgraphs(parts)
    together = model.predict_proba(stacked.graph, stacked.target_local)
    assert np.abs(alone - together).max() <= BOUND
    # ... in any stacking order.
    reversed_stack = stack_subgraphs(parts[::-1])
    backwards = model.predict_proba(reversed_stack.graph, reversed_stack.target_local)
    assert np.abs(alone - backwards[::-1]).max() <= BOUND


class TestLiveWeights:
    """Optimisers and ``load_state_dict`` write ``param.data`` in place;
    a plan that outlived such a write would keep scoring with the old
    weights."""

    def test_follows_an_optimizer_step(self):
        graph, targets = _all_edge_types()
        model = make_detector()
        before = model.predict_proba(graph, targets)
        optimizer = nn.AdamW(model.parameters(), lr=0.05)
        model.loss(graph, targets).backward()
        optimizer.step()
        after = model.predict_proba(graph, targets)
        assert np.abs(after - before).max() > 1e-4
        assert np.abs(after - reference_scores(model, graph, targets)).max() <= BOUND

    def test_follows_load_state_dict(self):
        graph, targets = _all_edge_types()
        model = make_detector(seed=0)
        before = model.predict_proba(graph, targets)
        model.load_state_dict(make_detector(seed=9).state_dict())
        after = model.predict_proba(graph, targets)
        assert np.abs(after - before).max() > 1e-4
        assert np.abs(after - reference_scores(model, graph, targets)).max() <= BOUND
        assert np.array_equal(after, make_detector(seed=9).predict_proba(graph, targets))


class TestLayerPlan:
    """Each layer derives its weight-only tables once per version of its
    parameters (``HeteroConvLayer.plan``), and the versions cannot be
    skipped: a parameter array is read-only outside ``Parameter.write``."""

    @staticmethod
    def _count_builds(monkeypatch):
        from repro.models.hetero_conv import HeteroConvLayer

        builds, real = [], HeteroConvLayer._build_plan
        monkeypatch.setattr(
            HeteroConvLayer, "_build_plan", lambda layer, key: builds.append(layer) or real(layer, key)
        )
        return builds

    def test_built_once_until_a_write(self, monkeypatch):
        graph, targets = _all_edge_types()
        model = make_detector()
        builds = self._count_builds(monkeypatch)
        first = model.predict_proba(graph, targets)
        assert builds == list(model.convs)
        assert np.array_equal(model.predict_proba(graph, targets), first)
        assert builds == list(model.convs)  # the second call built nothing
        model.load_state_dict(model.state_dict())
        assert np.array_equal(model.predict_proba(graph, targets), first)
        assert builds == 2 * list(model.convs)

    def test_one_plan_per_training_step(self, monkeypatch):
        graph, targets = _all_edge_types()
        model = make_detector()
        optimizer = nn.AdamW(model.parameters(), lr=0.01)
        builds = self._count_builds(monkeypatch)
        for _ in range(3):
            optimizer.zero_grad()
            model.loss(graph, targets).backward()
            optimizer.step()
        assert builds == 3 * list(model.convs)

    def test_one_plan_per_explanation(self, monkeypatch):
        from repro.explain import ExplainerConfig, GNNExplainer

        graph, targets = _all_edge_types()
        model = make_detector()
        builds = self._count_builds(monkeypatch)
        explanation = GNNExplainer(model, ExplainerConfig(epochs=20)).explain(graph, targets[0])
        assert len(explanation.loss_history) == 20  # 21 forwards on frozen weights
        assert builds == list(model.convs)

    def test_a_write_around_the_version_raises(self):
        param = make_detector().convs[0].att_src
        with pytest.raises(ValueError, match="read-only"):
            param.data[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            param.data -= 1.0
        version = param.version
        with param.write() as data:
            data -= 1.0
        assert param.version == version + 1 and not param.data.flags.writeable

    def test_a_copy_is_read_only_too(self):
        import copy

        twin = copy.deepcopy(make_detector())
        assert not any(param.data.flags.writeable for param in twin.parameters())
        assert all(param.version == 1 for param in twin.parameters())

    def test_plans_are_per_layer_not_per_version(self):
        """Two detectors at the same versions hold other weights."""
        graph, targets = _all_edge_types()
        one, other = make_detector(seed=0), make_detector(seed=3)
        assert [p.version for p in one.parameters()] == [p.version for p in other.parameters()]
        assert not np.array_equal(one.predict_proba(graph, targets), other.predict_proba(graph, targets))
        assert np.abs(other.predict_proba(graph, targets) - reference_scores(other, graph, targets)).max() <= BOUND


@pytest.mark.parametrize("training", [True, False])
def test_mode_is_left_as_found_and_dropout_never_fires(training):
    graph, targets = _all_edge_types()
    model = make_detector()  # dropout 0.5
    model.train(training)
    generator_state = model._rng.bit_generator.state
    first = model.predict_proba(graph, targets)
    second = model.predict_proba(graph, targets)
    assert all(module.training is training for module in [model, *model.convs])
    assert model._rng.bit_generator.state == generator_state
    assert np.array_equal(first, second)
    assert np.abs(first - reference_scores(model, graph, targets)).max() <= BOUND


def test_no_targets():
    graph, _ = _all_edge_types()
    assert make_detector().predict_proba(graph, []).shape == (0,)


def test_an_entity_target_is_refused():
    """An entity has no feature row for the head to concatenate: every
    scorer refuses it rather than scoring a made-up zero row."""
    from repro.models import GATModel, GEMModel
    from repro.models.inference import tensor_predict_proba
    from repro.models.mlp import FeatureMLP

    graph, targets = _all_edge_types()
    entity = int(np.flatnonzero(graph.node_type != NODE_TYPE_IDS["txn"])[0])
    detector = make_detector()
    with pytest.raises(ValueError, match=rf"nodes \[{entity}\] are not transactions"):
        detector.predict_proba(graph, [targets[0], entity])
    with pytest.raises(ValueError, match="are not transactions"):
        detector.forward(graph, [entity])
    for baseline in (GATModel, GEMModel, FeatureMLP):
        model = baseline(detector.config)
        with pytest.raises(ValueError, match="are not transactions"):
            tensor_predict_proba(model, graph, [entity])


def test_scoring_builds_nothing_only_a_backward_needs(monkeypatch):
    """The by-source grouping and layer 1's by-row and by-cell ones are
    lazy properties of each layer's prefix of the layout: a recorded
    step builds them, ``predict_proba`` never."""
    from repro.models.hetero_conv import InferenceLayout

    graph, targets = _all_edge_types()
    model = make_detector()
    calls, real = [], InferenceLayout.layer

    def layer(layout, hops_left):
        calls[-1].append(real(layout, hops_left))
        return calls[-1][-1]

    monkeypatch.setattr(InferenceLayout, "layer", layer)
    calls.append([])
    model.predict_proba(graph, targets)
    calls.append([])
    model.loss(graph, targets).backward()
    scoring, training = ([set(vars(view)) for view in views] for views in calls)
    assert len(scoring) == len(training) == len(model.convs)
    groupings = {"_by_source", "_by_value_row", "_by_logit_cell"}
    assert {"_by_value_row", "_by_logit_cell"} <= training[0]
    assert all("_by_source" in built for built in training[1:])
    assert not any((groupings | {"_by_target"}) & built for built in scoring)
