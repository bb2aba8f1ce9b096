"""Segment (message-passing) kernels: values and gradients."""

import numpy as np
import pytest
from scipy import sparse

from repro.nn import (
    Tensor,
    gather,
    scatter_rows,
    segment_count,
    segment_max_data,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn.segment import scatter_add_rows, scatter_selector


class TestGather:
    def test_values(self):
        source = Tensor(np.array([[1.0, 2], [3, 4], [5, 6]]))
        out = gather(source, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[5, 6], [1, 2]])

    def test_grad_scatter_add(self):
        source = Tensor(np.zeros((3, 2)), requires_grad=True)
        gather(source, np.array([1, 1, 0])).sum().backward()
        np.testing.assert_allclose(source.grad, [[1, 1], [2, 2], [0, 0]])


class TestSegmentSum:
    def test_values_unsorted_ids(self):
        values = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = segment_sum(values, np.array([1, 0, 1]), 3)
        np.testing.assert_allclose(out.data, [[2], [4], [0]])

    def test_empty_segment_is_zero(self):
        values = Tensor(np.ones((2, 2)))
        out = segment_sum(values, np.array([0, 0]), 3)
        np.testing.assert_allclose(out.data[1:], 0)

    def test_grad(self):
        values = Tensor(np.ones((3, 2)), requires_grad=True)
        out = segment_sum(values, np.array([0, 1, 0]), 2)
        (out * Tensor(np.array([[1.0, 1], [5, 5]]))).sum().backward()
        np.testing.assert_allclose(values.grad, [[1, 1], [5, 5], [1, 1]])


class TestSegmentMeanCount:
    def test_count(self):
        np.testing.assert_allclose(segment_count(np.array([0, 0, 2]), 4), [2, 0, 1, 0])

    def test_mean(self):
        values = Tensor(np.array([[2.0], [4.0], [6.0]]))
        out = segment_mean(values, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3], [6]])

    def test_mean_empty_segment_zero(self):
        values = Tensor(np.array([[2.0]]))
        out = segment_mean(values, np.array([0]), 2)
        np.testing.assert_allclose(out.data, [[2], [0]])


class TestSegmentSoftmax:
    def test_normalises_per_segment(self):
        logits = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        ids = np.array([0, 0, 1, 1])
        out = segment_softmax(logits, ids, 2)
        np.testing.assert_allclose(out.data[:2].sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(out.data[2:].sum(), 1.0, atol=1e-9)

    def test_matches_dense_softmax(self):
        logits = Tensor(np.array([1.0, 2.0, 3.0]))
        out = segment_softmax(logits, np.array([0, 0, 0]), 1)
        dense = np.exp([1.0, 2, 3]) / np.exp([1.0, 2, 3]).sum()
        np.testing.assert_allclose(out.data, dense, atol=1e-9)

    def test_numerically_stable_large_logits(self):
        logits = Tensor(np.array([1000.0, 1000.0]))
        out = segment_softmax(logits, np.array([0, 0]), 1)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-9)

    def test_two_dim_logits(self):
        logits = Tensor(np.zeros((4, 3)))
        out = segment_softmax(logits, np.array([0, 0, 1, 1]), 2)
        np.testing.assert_allclose(out.data, 0.5)

    def test_grad_matches_numeric(self):
        raw = np.array([0.5, -1.0, 2.0, 0.3])
        ids = np.array([0, 1, 0, 1])

        def value(arr):
            t = Tensor(arr)
            out = segment_softmax(t, ids, 2)
            return float((out * Tensor(np.array([1.0, 2, 3, 4]))).sum().data)

        t = Tensor(raw.copy(), requires_grad=True)
        out = segment_softmax(t, ids, 2)
        (out * Tensor(np.array([1.0, 2, 3, 4]))).sum().backward()

        eps = 1e-6
        numeric = np.zeros_like(raw)
        for i in range(len(raw)):
            up, down = raw.copy(), raw.copy()
            up[i] += eps
            down[i] -= eps
            numeric[i] = (value(up) - value(down)) / (2 * eps)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)


class TestSegmentMax:
    def test_values(self):
        values = np.array([1.0, 5.0, 3.0])
        out = segment_max_data(values, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out, [5, 3])

    def test_empty_segment_replaced(self):
        out = segment_max_data(np.array([1.0]), np.array([0]), 2)
        assert np.isfinite(out).all()


class TestScatterRows:
    def test_places_rows(self):
        values = Tensor(np.array([[1.0, 2], [3, 4]]))
        out = scatter_rows(values, np.array([2, 0]), 3)
        np.testing.assert_allclose(out.data, [[3, 4], [0, 0], [1, 2]])

    def test_duplicates_accumulate(self):
        values = Tensor(np.ones((2, 1)))
        out = scatter_rows(values, np.array([0, 0]), 2)
        np.testing.assert_allclose(out.data, [[2], [0]])

    def test_base_array(self):
        values = Tensor(np.ones((1, 1)))
        base = np.full((2, 1), 7.0)
        out = scatter_rows(values, np.array([1]), 2, base=base)
        np.testing.assert_allclose(out.data, [[7], [8]])
        # base must not be mutated
        np.testing.assert_allclose(base, 7.0)

    def test_grad(self):
        values = Tensor(np.ones((2, 2)), requires_grad=True)
        out = scatter_rows(values, np.array([1, 0]), 3)
        (out * Tensor(np.array([[1.0, 1], [2, 2], [3, 3]]))).sum().backward()
        np.testing.assert_allclose(values.grad, [[2, 2], [1, 1]])


class TestScatterAddRows:
    """The unsorted one-hot (``scatter_selector(...) @ values``) must give
    what the COO-built one did, bit for bit: every tape that stays on
    the per-op engine (GAT, GEM, the FFN head) runs through it."""

    @staticmethod
    def _through_coo(values, index, num_rows):
        flat = values.reshape(len(index), int(np.prod(values.shape[1:])))
        one_hot = sparse.csr_matrix(
            (np.ones(len(index)), (index, np.arange(len(index)))), shape=(num_rows, len(index))
        )
        return np.asarray(one_hot @ flat).reshape((num_rows,) + values.shape[1:])

    @pytest.mark.parametrize("rows, num_rows, trailing", [
        (1400, 580, (64,)), (64, 64, (4, 16)), (7, 3, (1,)), (5, 9, (2, 0)), (0, 4, (3,)), (0, 0, (3,)),
    ])
    def test_bit_identical_to_the_coo_one_hot(self, rows, num_rows, trailing):
        rng = np.random.default_rng(rows + num_rows)
        values = rng.normal(size=(rows,) + trailing)
        index = rng.integers(0, max(num_rows, 1), size=rows)
        out = scatter_add_rows(values, index, num_rows)
        assert out.shape == (num_rows,) + trailing
        assert np.array_equal(out, self._through_coo(values, index, num_rows))

    def test_selector_scatters_and_its_transpose_gathers(self):
        index = np.array([2, 0, 2, 1])
        selector = scatter_selector(index, 3)
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(selector.T @ x, x[index])
        assert np.array_equal(selector @ np.ones((4, 1)), [[1.0], [1.0], [2.0]])

    @pytest.mark.parametrize("index", [[0, 3], [-1, 0]])
    def test_out_of_range_index_raises(self, index):
        # scipy takes (data, indices, indptr) as given: unchecked, the
        # product would write outside the output.
        with pytest.raises(IndexError):
            scatter_add_rows(np.ones((2, 2)), np.array(index), 3)
