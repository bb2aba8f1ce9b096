"""Evaluation metrics: identities and edge cases."""

import numpy as np
import pytest

from repro.train.metrics import (
    accuracy,
    average_precision,
    confusion_rates,
    partial_roc_auc,
    precision_recall_curve,
    project_precision_to_stream,
    roc_auc,
    roc_curve,
    threshold_sweep,
)


LABELS = np.array([0, 0, 1, 1, 0, 1, 0, 0, 0, 1])
SCORES = np.array([0.1, 0.2, 0.9, 0.8, 0.3, 0.7, 0.4, 0.35, 0.05, 0.6])


class TestROC:
    def test_perfect_ranking_auc_one(self):
        assert roc_auc(LABELS, SCORES) == pytest.approx(1.0)

    def test_reversed_ranking_auc_zero(self):
        assert roc_auc(LABELS, 1 - SCORES) == pytest.approx(0.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 5000)
        scores = rng.random(5000)
        assert abs(roc_auc(labels, scores) - 0.5) < 0.03

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc(np.ones(4, dtype=int), np.random.rand(4))

    def test_curve_monotone(self):
        fpr, tpr, _ = roc_curve(LABELS, SCORES)
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)

    def test_curve_endpoints(self):
        fpr, tpr, _ = roc_curve(LABELS, SCORES)
        assert fpr[0] == 0 and tpr[0] == 0
        assert fpr[-1] == pytest.approx(1.0) and tpr[-1] == pytest.approx(1.0)

    def test_ties_handled(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert roc_auc(labels, scores) == pytest.approx(0.5)

    def test_known_value(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        assert roc_auc(labels, scores) == pytest.approx(0.75)


class TestPartialAUC:
    def test_partial_below_full(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 500)
        scores = labels * 0.4 + rng.random(500) * 0.6
        assert partial_roc_auc(labels, scores, 0.1) <= roc_auc(labels, scores)

    def test_perfect_classifier_partial(self):
        # Perfect classifier: TPR=1 for all FPR, so area over [0, 0.1] is 0.1.
        assert partial_roc_auc(LABELS, SCORES, 0.1) == pytest.approx(0.1, abs=0.01)


class TestPR:
    def test_ap_perfect(self):
        assert average_precision(LABELS, SCORES) == pytest.approx(1.0)

    def test_ap_known_value(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        assert average_precision(labels, scores) == pytest.approx(5 / 6)

    def test_ap_bounded(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 300)
        scores = rng.random(300)
        assert 0 <= average_precision(labels, scores) <= 1

    def test_curve_ends_at_zero_recall(self):
        precision, recall, _ = precision_recall_curve(LABELS, SCORES)
        assert recall[-1] == 0.0
        assert precision[-1] == 1.0

    def test_ap_at_least_prevalence_for_random(self):
        rng = np.random.default_rng(3)
        labels = (rng.random(2000) < 0.05).astype(int)
        scores = rng.random(2000)
        ap = average_precision(labels, scores)
        assert 0.02 < ap < 0.15


class TestAccuracy:
    def test_threshold_half(self):
        assert accuracy(LABELS, SCORES) == pytest.approx(1.0)

    def test_custom_threshold(self):
        assert accuracy(np.array([1, 0]), np.array([0.4, 0.2]), threshold=0.3) == 1.0


class TestConfusion:
    def test_rates_sum_identities(self):
        rates = confusion_rates(LABELS, SCORES, 0.5)
        assert rates.tpr + rates.fnr == pytest.approx(1.0)
        assert rates.tnr + rates.fpr == pytest.approx(1.0)

    def test_precision_none_above_all_scores(self):
        rates = confusion_rates(LABELS, SCORES, 0.99)
        assert rates.precision is None
        assert rates.tpr == 0.0

    def test_recall_equals_tpr(self):
        rates = confusion_rates(LABELS, SCORES, 0.5)
        assert rates.recall == rates.tpr

    def test_sweep_monotone_tpr(self):
        thresholds = np.linspace(0.05, 0.95, 10)
        sweep = threshold_sweep(LABELS, SCORES, thresholds)
        tprs = [r.tpr for r in sweep]
        assert all(a >= b for a, b in zip(tprs, tprs[1:]))

    def test_sweep_monotone_fpr(self):
        thresholds = np.linspace(0.05, 0.95, 10)
        sweep = threshold_sweep(LABELS, SCORES, thresholds)
        fprs = [r.fpr for r in sweep]
        assert all(a >= b for a, b in zip(fprs, fprs[1:]))

    def test_as_dict_keys(self):
        rates = confusion_rates(LABELS, SCORES, 0.5)
        assert set(rates.as_dict()) == {
            "threshold",
            "TPR",
            "TNR",
            "FPR",
            "FNR",
            "precision",
            "recall",
        }


class TestStreamProjection:
    def test_paper_appendix_h4_value(self):
        """0.98 precision at 4.33% fraud ≈ 0.32 on the 0.043% stream."""
        projected = project_precision_to_stream(0.98, 0.0433, 0.00043)
        assert projected == pytest.approx(0.32, abs=0.05)

    def test_paper_second_value(self):
        projected = project_precision_to_stream(0.95, 0.0433, 0.00043)
        assert projected == pytest.approx(0.16, abs=0.04)

    def test_identity_when_rates_equal(self):
        assert project_precision_to_stream(0.9, 0.04, 0.04) == pytest.approx(0.9)

    def test_zero_precision(self):
        assert project_precision_to_stream(0.0, 0.04, 0.001) == 0.0

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            project_precision_to_stream(0.9, 0.001, 0.04)


class TestValidation:
    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([]), np.array([]))

    def test_nonbinary_labels(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([0, 2]), np.array([0.1, 0.2]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([0, 1]), np.array([0.1]))


class TestAUCDefault:
    def test_single_class_returns_default_when_given(self):
        assert np.isnan(roc_auc(np.ones(4, dtype=int), np.random.rand(4), default=float("nan")))
        assert roc_auc(np.zeros(3, dtype=int), np.random.rand(3), default=None) is None

    def test_default_untouched_when_defined(self):
        assert roc_auc(LABELS, SCORES, default=None) == pytest.approx(1.0)

    def test_validation_errors_still_raise_with_default(self):
        # default= is a single-class escape hatch, not a blanket silencer.
        with pytest.raises(ValueError):
            roc_auc(np.array([]), np.array([]), default=0.5)
        with pytest.raises(ValueError):
            roc_auc(np.array([0, 2]), np.array([0.1, 0.2]), default=0.5)


class TestLatencyPercentiles:
    def test_default_keys_and_ordering(self):
        from repro.train.metrics import latency_percentiles

        samples = np.linspace(0.001, 0.1, 200)
        summary = latency_percentiles(samples)
        assert set(summary) == {"p50", "p95", "p99"}
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        # Nearest-rank: every reported value is an observed sample.
        assert summary["p50"] == pytest.approx(samples[99])
        assert summary["p95"] == pytest.approx(samples[189])
        assert summary["p99"] == pytest.approx(samples[197])

    def test_custom_percentiles(self):
        from repro.train.metrics import latency_percentiles

        summary = latency_percentiles([1.0, 2.0, 3.0], percentiles=(0.0, 100.0))
        assert summary == {"p0": 1.0, "p100": 3.0}

    def test_empty_input_yields_nans(self):
        from repro.train.metrics import latency_percentiles

        summary = latency_percentiles([])
        assert set(summary) == {"p50", "p95", "p99"}
        assert all(np.isnan(v) for v in summary.values())

    def test_single_sample(self):
        from repro.train.metrics import latency_percentiles

        summary = latency_percentiles([0.25])
        assert all(v == pytest.approx(0.25) for v in summary.values())

    def test_two_samples_exact_nearest_rank(self):
        # n=2: p50 must be the LOWER sample (ceil(0.5*2)-1 = index 0),
        # p95/p99 the upper. Linear interpolation would invent 5.0
        # (never observed) for p50 — the off-by-one this audit fixed.
        from repro.train.metrics import latency_percentiles

        summary = latency_percentiles([9.0, 1.0])
        assert summary == {"p50": 1.0, "p95": 9.0, "p99": 9.0}

    def test_four_samples_exact_nearest_rank(self):
        from repro.train.metrics import latency_percentiles

        summary = latency_percentiles([0.04, 0.01, 0.03, 0.02])
        assert summary == {"p50": 0.02, "p95": 0.04, "p99": 0.04}

    def test_values_are_always_observed_samples(self):
        from repro.train.metrics import latency_percentiles

        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 5, 17, 100):
            samples = list(rng.uniform(size=n))
            for value in latency_percentiles(samples).values():
                assert value in samples

    def test_shared_selection_rule_across_layers(self):
        # One definition of "p-th percentile" across the whole stack.
        from repro.train.metrics import latency_percentiles
        from repro.util import nearest_rank_index

        rng = np.random.default_rng(4)
        samples = list(rng.uniform(size=11))
        summary = latency_percentiles(samples)
        ordered = sorted(samples)
        for q in (50.0, 95.0, 99.0):
            expected = ordered[nearest_rank_index(q, len(samples))]
            assert summary[f"p{q:g}"] == expected


class TestNearestRankIndex:
    def test_definition(self):
        import math

        from repro.util import nearest_rank_index

        for n in range(1, 30):
            for q in (0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0):
                expected = min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))
                assert nearest_rank_index(q, n) == expected

    def test_rejects_bad_input(self):
        from repro.util import nearest_rank_index

        with pytest.raises(ValueError):
            nearest_rank_index(50.0, 0)
        with pytest.raises(ValueError):
            nearest_rank_index(101.0, 5)
