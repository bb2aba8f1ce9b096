"""Autograd engine: op-level gradients checked against finite differences."""

import numpy as np
import pytest

from repro.check import numerical_grad
from repro.nn import Tensor, concat, no_grad, stack, where


def check_unary(op, x: np.ndarray, atol: float = 1e-6):
    tensor = Tensor(x.copy(), requires_grad=True)
    out = op(tensor).sum()
    out.backward()
    expected = numerical_grad(lambda arr: float(op(Tensor(arr)).sum().data), x.copy())
    np.testing.assert_allclose(tensor.grad, expected, atol=atol)


class TestElementwise:
    def test_add_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_add_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a + 5).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])

    def test_radd(self):
        a = Tensor([1.0], requires_grad=True)
        (5 + a).sum().backward()
        np.testing.assert_allclose(a.grad, [1])

    def test_mul_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [4, 5])
        np.testing.assert_allclose(b.grad, [2, 3])

    def test_sub_grad(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_allclose(a.grad, [1])
        np.testing.assert_allclose(b.grad, [-1])

    def test_rsub(self):
        a = Tensor([2.0], requires_grad=True)
        (10 - a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1])

    def test_div_grad(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.5])

    def test_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        (4 / a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_neg(self):
        a = Tensor([3.0], requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1])

    def test_pow_grad(self):
        check_unary(lambda t: t**3, np.array([1.5, -0.5, 2.0]))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_exp_grad(self):
        check_unary(lambda t: t.exp(), np.array([0.1, -1.0, 0.5]))

    def test_log_grad(self):
        check_unary(lambda t: t.log(), np.array([0.5, 1.5, 3.0]))

    def test_tanh_grad(self):
        check_unary(lambda t: t.tanh(), np.array([-1.0, 0.0, 2.0]))

    def test_relu_grad(self):
        a = Tensor([-1.0, 2.0, 3.0], requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 1])

    def test_sigmoid_grad(self):
        check_unary(lambda t: t.sigmoid(), np.array([-2.0, 0.0, 1.0]))

    def test_sqrt(self):
        a = Tensor([4.0], requires_grad=True)
        a.sqrt().backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [0.25])


class TestBroadcasting:
    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [3, 3, 3, 3])
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_broadcast_mul_column(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        c = Tensor(np.array([[2.0], [3.0]]), requires_grad=True)
        (x * c).sum().backward()
        np.testing.assert_allclose(c.grad, [[3], [3]])

    def test_broadcast_scalar_tensor(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, 4.0)


class TestMatmulAndShape:
    def test_matmul_grad(self):
        a = np.random.default_rng(0).normal(size=(3, 4))
        b = np.random.default_rng(1).normal(size=(4, 2))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 2)) @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 2)))

    def test_matvec_grad(self):
        a = Tensor(np.eye(2), requires_grad=True)
        v = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a @ v).sum().backward()
        np.testing.assert_allclose(v.grad, [1.0, 1.0])

    def test_transpose_roundtrip(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.T.T.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_reshape_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_reshape_accepts_tuple(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape((3, 2)).shape == (3, 2)

    def test_getitem_grad_accumulates_duplicates(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        index = np.array([0, 0, 2])
        x[index].sum().backward()
        np.testing.assert_allclose(x.grad, [2, 0, 1])


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        x = Tensor(np.ones((4,)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full(4, 0.25))

    def test_mean_axis(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        x.mean(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 4), 0.25))

    def test_max_grad_splits_ties(self):
        x = Tensor(np.array([1.0, 3.0, 3.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0, 0.5, 0.5])

    def test_max_axis(self):
        x = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 1], [1, 0]])


class TestGraphMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            t.backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3 + x * 4
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = x.detach()
        assert not y.requires_grad

    def test_no_grad_disables_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_diamond_graph(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2
        b = x * 3
        (a * b).sum().backward()
        # d/dx (2x * 3x) = 12x = 12
        np.testing.assert_allclose(x.grad, [12.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    @pytest.mark.parametrize("shape, incoming", [
        ((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 4), ()), ((0, 4), (0, 4)), ((0, 4), (4,)), ((), ()),
    ])
    def test_first_accumulate_is_a_copy_of_the_broadcast(self, shape, incoming):
        # Same-shape gradients skip np.broadcast_to; either way the
        # result is what the one-expression version gave, in a buffer
        # of its own.
        grad = np.random.default_rng(0).normal(size=incoming)
        x = Tensor(np.zeros(shape), requires_grad=True)
        x._accumulate(grad)
        assert np.array_equal(x.grad, np.array(np.broadcast_to(grad, shape), dtype=np.float64))
        assert x.grad.shape == shape and not np.shares_memory(x.grad, grad)
        x._accumulate(grad)
        assert np.array_equal(x.grad, 2 * np.broadcast_to(grad, shape))

    def test_repr_mentions_grad_flag(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestCombinators:
    def test_concat_grad_routing(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_allclose(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_stack_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_where_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = where(np.array([True, False]), a, b)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1, 0])
        np.testing.assert_allclose(b.grad, [0, 1])
