"""Stateless NN functions: activations, norms, losses."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        out = F.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_stable(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = F.softmax(x)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_consistency(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-9
        )

    def test_leaky_relu(self):
        x = Tensor(np.array([-2.0, 3.0]))
        out = F.leaky_relu(x, negative_slope=0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])

    def test_leaky_relu_grad(self):
        x = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        F.leaky_relu(x, 0.1).sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones(100))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_allclose(out.data, 1.0)

    def test_zero_rate_identity(self):
        x = Tensor(np.ones(10))
        assert F.dropout(x, 0.0, training=True) is x

    def test_training_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(10000))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        survivors = out.data[out.data > 0]
        np.testing.assert_allclose(survivors, 2.0)
        assert 0.4 < (out.data > 0).mean() < 0.6

    def test_expected_value_preserved(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones(20000))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.05

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        # rate 1.0 used to return 0/0 = NaN everywhere, rate 1.5 all -0.
        from repro import nn
        from repro.models.gat import GATLayer
        from repro.models.hetero_conv import HeteroConvLayer

        for training in (True, False):
            with pytest.raises(ValueError, match="dropout rate"):
                F.dropout(Tensor(np.ones(4)), rate, training=training)
        with pytest.raises(ValueError, match="dropout rate"):
            nn.Dropout(rate)
        with pytest.raises(ValueError, match="dropout rate"):
            HeteroConvLayer(4, 4, num_heads=2, dropout=rate)
        with pytest.raises(ValueError, match="dropout rate"):
            GATLayer(4, 4, num_heads=2, dropout=rate)

    def test_rows_take_the_mask_of_the_whole_array(self):
        x = np.arange(24.0).reshape(8, 3) + 1.0
        whole_rng, part_rng = np.random.default_rng(3), np.random.default_rng(3)
        whole = F.dropout(Tensor(x), 0.5, training=True, rng=whole_rng)
        index = np.array([6, 1, 1, 4])
        part = F.dropout(Tensor(x[index]), 0.5, training=True, rng=part_rng, rows=(8, index))
        np.testing.assert_array_equal(part.data, whole.data[index])
        assert whole_rng.bit_generator.state == part_rng.bit_generator.state


class TestLayerNorm:
    def test_normalises_last_dim(self):
        x = Tensor(np.random.default_rng(0).normal(2.0, 3.0, size=(5, 8)))
        out = F.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.data.std(axis=1), 1.0, atol=1e-3)

    def test_affine_params_apply(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
        out = F.layer_norm(x, Tensor(np.full(4, 2.0)), Tensor(np.full(4, 1.0)))
        base = F.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, base.data * 2 + 1, atol=1e-9)

    def test_grad_flows(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        w = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        F.layer_norm(x, w, b).sum().backward()
        assert x.grad is not None and w.grad is not None and b.grad is not None


class TestLosses:
    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 2)))
        loss = F.cross_entropy(logits, np.array([0, 1, 0, 1]))
        np.testing.assert_allclose(loss.item(), np.log(2), atol=1e-9)

    def test_cross_entropy_grad_direction(self):
        logits = Tensor(np.zeros((1, 2)), requires_grad=True)
        F.cross_entropy(logits, np.array([1])).backward()
        # Pushing up the true class logit lowers the loss.
        assert logits.grad[0, 1] < 0 < logits.grad[0, 0]

    def test_bernoulli_entropy_peak_at_half(self):
        probs = Tensor(np.array([0.01, 0.5, 0.99]))
        entropy = F.bernoulli_entropy(probs).data
        assert entropy[1] > entropy[0] and entropy[1] > entropy[2]
        np.testing.assert_allclose(entropy[1], np.log(2), atol=1e-6)


class TestELU:
    def test_positive_identity(self):
        x = Tensor(np.array([0.5, 2.0]))
        np.testing.assert_allclose(F.elu(x).data, [0.5, 2.0])

    def test_negative_saturates(self):
        x = Tensor(np.array([-1.0, -10.0]))
        out = F.elu(x).data
        np.testing.assert_allclose(out[0], np.exp(-1) - 1, atol=1e-9)
        assert out[1] > -1.0 - 1e-9

    def test_grad_continuous_at_zero(self):
        for v in (1e-4, -1e-4):
            x = Tensor(np.array([v]), requires_grad=True)
            F.elu(x).sum().backward()
            np.testing.assert_allclose(x.grad, [1.0], atol=1e-3)

    def test_alpha_scales_negative_part(self):
        x = Tensor(np.array([-100.0]))
        np.testing.assert_allclose(F.elu(x, alpha=2.0).data, [-2.0], atol=1e-6)
