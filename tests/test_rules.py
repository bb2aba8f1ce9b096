"""Rule mining and the Appendix-B prefilter pipeline."""

import numpy as np
import pytest

from repro.data import GeneratorConfig, TransactionGenerator
from repro.rules import (
    Condition,
    Rule,
    RuleMiner,
    RuleSet,
    appendix_b_pipeline,
    rule_prefilter,
)
from repro.rules import miner


def separable_data(n=600, seed=0):
    """Feature 0 separates the classes; feature 1 is noise."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.1).astype(int)
    features = rng.normal(size=(n, 4))
    features[labels == 1, 0] += 3.0
    return features, labels


class TestCondition:
    def test_greater(self):
        cond = Condition(0, ">", 1.0)
        mask = cond.apply(np.array([[0.5, 0], [1.5, 0]]))
        np.testing.assert_array_equal(mask, [False, True])

    def test_leq(self):
        cond = Condition(1, "<=", 0.0)
        mask = cond.apply(np.array([[0, -1.0], [0, 1.0]]))
        np.testing.assert_array_equal(mask, [True, False])

    def test_invalid_op(self):
        with pytest.raises(ValueError):
            Condition(0, ">=", 1.0)

    def test_str(self):
        assert "x[2] > 1.5000" in str(Condition(2, ">", 1.5))


class TestRule:
    def test_conjunction(self):
        rule = Rule((Condition(0, ">", 0.0), Condition(1, "<=", 0.0)))
        features = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
        np.testing.assert_array_equal(rule.apply(features), [True, False, False])

    def test_precision_recall(self):
        rule = Rule((Condition(0, ">", 0.5),))
        features = np.array([[1.0], [1.0], [0.0], [0.0]])
        labels = np.array([1, 0, 1, 0])
        precision, recall = rule.precision_recall(features, labels)
        assert precision == 0.5 and recall == 0.5

    def test_empty_fire(self):
        rule = Rule((Condition(0, ">", 100.0),))
        precision, recall = rule.precision_recall(np.zeros((4, 1)), np.array([1, 0, 1, 0]))
        assert precision == 0.0 and recall == 0.0


class TestMiner:
    def test_finds_separating_rule(self):
        features, labels = separable_data()
        rules = RuleMiner().fit(features, labels)
        assert len(rules) >= 1
        # The top rule fires on feature 0.
        assert any(c.feature == 0 for c in rules.rules[0].conditions)

    def test_rules_meet_floors(self):
        features, labels = separable_data(seed=1)
        rules = RuleMiner().fit(features, labels)
        assert len(rules) >= 1
        for precision, recall in rules.scores:
            assert precision >= miner.MIN_PRECISION
            assert recall >= miner.MIN_RECALL

    def test_no_fraud_no_rules(self):
        features = np.random.default_rng(0).normal(size=(50, 3))
        rules = RuleMiner().fit(features, np.zeros(50, dtype=int))
        assert len(rules) == 0

    def test_ruleset_disjunction(self):
        rules = RuleSet(
            rules=[Rule((Condition(0, ">", 0.0),)), Rule((Condition(1, ">", 0.0),))],
            scores=[(1.0, 0.5), (1.0, 0.5)],
        )
        features = np.array([[1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        np.testing.assert_array_equal(rules.apply(features), [True, True, False])

    def test_describe(self):
        features, labels = separable_data()
        rules = RuleMiner().fit(features, labels)
        if len(rules):
            assert "p=" in rules.describe()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            RuleMiner().fit(np.zeros((3, 2)), np.zeros(4, dtype=int))


@pytest.fixture(scope="module")
def raw_log():
    config = GeneratorConfig(
        num_benign_buyers=250,
        num_stolen_cards=3,
        num_warehouse_rings=1,
        num_cultivated_accounts=2,
        num_guest_checkouts=5,
        feature_dim=24,
        seed=9,
    )
    return TransactionGenerator(config).generate()


class TestPrefilter:
    def test_keeps_all_fraud(self, raw_log):
        miner = RuleMiner()
        rules = miner.fit(raw_log.feature_matrix(), raw_log.labels())
        filtered = rule_prefilter(raw_log, rules, keep_benign_floor=0.1)
        assert sum(r.label for r in filtered) == sum(r.label for r in raw_log)

    def test_raises_fraud_rate(self, raw_log):
        miner = RuleMiner()
        rules = miner.fit(raw_log.feature_matrix(), raw_log.labels())
        filtered = rule_prefilter(raw_log, rules, keep_benign_floor=0.1)
        assert filtered.fraud_rate() > raw_log.fraud_rate()

    def test_invalid_floor(self, raw_log):
        with pytest.raises(ValueError):
            rule_prefilter(raw_log, RuleSet(), keep_benign_floor=1.5)

    def test_empty_ruleset_keeps_floor_fraction(self, raw_log):
        filtered = rule_prefilter(raw_log, RuleSet(), keep_benign_floor=0.5, seed=1)
        benign_before = sum(1 for r in raw_log if r.label == 0)
        benign_after = sum(1 for r in filtered if r.label == 0)
        assert 0.35 < benign_after / benign_before < 0.65


class TestPipeline:
    def test_three_stages_monotone_fraud_rate(self, raw_log):
        result = appendix_b_pipeline(raw_log, keep_benign_floor=0.3, benign_sample=0.2)
        rates = [stage.fraud_rate for stage in result.stages]
        assert len(rates) == 3
        # The paper's progression: each stage raises the fraud rate.
        assert rates[0] < rates[1] < rates[2]

    def test_all_fraud_survives(self, raw_log):
        result = appendix_b_pipeline(raw_log)
        fraud_raw = sum(r.label for r in raw_log)
        fraud_final = sum(r.label for r in result.log)
        assert fraud_final == fraud_raw

    def test_describe_output(self, raw_log):
        result = appendix_b_pipeline(raw_log)
        text = result.describe()
        assert "original stream" in text and "after label sampling" in text
