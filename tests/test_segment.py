"""Segment (message-passing) kernels: values and gradients."""

import inspect
import subprocess
import sys

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
from repro.nn.segment import scatter_add_rows

#: ``(rows, num_rows, trailing)``: the sums' shapes, down to empty ones.
SHAPES = [
    (1400, 580, (64,)), (64, 64, (4, 16)), (7, 3, (1,)), (5, 9, (2, 0)), (0, 4, (3,)), (0, 0, (3,)),
    (50, 7, ()),
]


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
    """``Selector.scatter(index) @ values`` must give what the COO-built
    one-hot did, bit for bit: every tape that stays on the per-op engine
    (GAT, GEM, the FFN head) runs through it."""

    @staticmethod
    def _through_coo(values, index, num_rows):
        flat = values.reshape(len(index), int(np.prod(values.shape[1:])))
        one_hot = sparse.csr_matrix(
            (np.ones(len(index)), (index, np.arange(len(index)))), shape=(num_rows, len(index))
        )
        return np.asarray(one_hot @ flat).reshape((num_rows,) + values.shape[1:])

    @pytest.mark.parametrize("rows, num_rows, trailing", SHAPES)
    def test_bit_identical_to_the_coo_one_hot(self, rows, num_rows, trailing):
        rng = np.random.default_rng(rows + num_rows)
        values = rng.normal(size=(rows,) + trailing)
        index = rng.integers(0, max(num_rows, 1), size=rows)
        out = scatter_add_rows(values, index, num_rows)
        assert out.shape == (num_rows,) + trailing
        assert np.array_equal(out, self._through_coo(values, index, num_rows))

    def test_selector_scatters_and_its_transpose_gathers(self):
        index = np.array([2, 0, 2, 1])
        one_hot = sparse.csc_matrix((np.ones(4), index, np.arange(5)), shape=(3, 4))
        values, x = np.arange(8.0).reshape(4, 2), np.arange(6.0).reshape(3, 2)
        scattered = scatter_add_rows(values, index, 3)
        assert scattered.tobytes() == (one_hot @ values).tobytes()
        assert np.vdot(scattered, x) == np.vdot(values, x[index])  # gather is its transpose
        assert np.array_equal(scatter_add_rows(np.ones((4, 1)), index, 3), [[1.0], [1.0], [2.0]])

    @pytest.mark.parametrize("index", [[0, 3], [-1, 0]])
    def test_out_of_range_index_raises(self, index):
        # The kernel takes (indptr, indices, data) as given: unchecked,
        # the sum would write outside the output.
        with pytest.raises(IndexError):
            scatter_add_rows(np.ones((2, 2)), np.array(index), 3)

    @pytest.mark.parametrize("rows", [3, 5])
    @pytest.mark.parametrize("trailing", [(), (2,), (2, 0)])
    def test_a_row_count_other_than_the_index_length_raises(self, rows, trailing):
        # Unchecked, the kernel would read past the end of the values
        # (too few rows) or leave the rest unsummed (too many).
        with pytest.raises(ValueError):
            scatter_add_rows(np.ones((rows,) + trailing), np.array([0, 2, 1, 2]), 3)


def _kernel_sums(shapes):
    """Every sum the two kernels serve — ``scatter_add_rows``,
    ``Selector.scatter`` and ``Selector.by_segment`` — on ``shapes``
    (self-contained: its source also runs in a fresh interpreter)."""
    from repro.nn.segment import Selector, scatter_add_rows

    sums = {}
    for rows, num_rows, trailing in shapes:
        rng = np.random.default_rng(rows + num_rows)
        values = rng.normal(size=(rows,) + trailing)
        index = rng.integers(0, max(num_rows, 1), size=rows)
        flat = values.reshape(rows, int(np.prod(trailing)))
        starts = np.searchsorted(np.sort(index), np.arange(num_rows))
        key = f"{rows}-{num_rows}-{trailing}"
        sums[f"scatter_add_rows {key}"] = scatter_add_rows(values, index, num_rows)
        sums[f"scatter {key}"] = Selector.scatter(index, num_rows) @ flat
        sums[f"by_segment {key}"] = Selector.by_segment(starts, rows) @ flat
    return sums


#: Two ways the kernels' extension can be out of reach, planted before
#: ``repro`` is imported: its file is not found, or it does not load.
FALLBACK_CAUSES = {
    "file-not-found": "importlib.machinery.EXTENSION_SUFFIXES = []",
    "load-fails": """
real_create = importlib.machinery.ExtensionFileLoader.create_module
def refuse_once(self, spec, refused=[]):
    if spec.name == "scipy.sparse._sparsetools" and not refused:
        refused.append(spec)
        raise ImportError("planted")
    return real_create(self, spec)
importlib.machinery.ExtensionFileLoader.create_module = refuse_once
""",
}


@pytest.mark.parametrize("cause", sorted(FALLBACK_CAUSES))
def test_public_api_fallback_gives_the_loaded_kernels_bits(cause, tmp_path):
    """Without scipy's ``_sparsetools`` extension file the sums go through
    ``csr_matrix`` / ``csc_matrix @ dense``: the same bytes as the
    loaded kernels, and the bounds check still raises."""
    out = tmp_path / "sums.npz"
    script = f"""
import importlib.machinery, sys
import numpy as np
{FALLBACK_CAUSES[cause]}
from repro.nn import segment
assert "scipy.sparse" in sys.modules and segment.csc_matvecs.func is segment._through_public
{inspect.getsource(_kernel_sums)}
np.savez({str(out)!r}, **_kernel_sums({SHAPES!r}))
for index in ([0, 3], [-1, 0]):
    try:
        segment.scatter_add_rows(np.ones((2, 2)), np.array(index), 3)
    except IndexError:
        continue
    raise AssertionError(f"index {{index}} accepted")
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = _kernel_sums(SHAPES)
    with np.load(out) as fallback:
        assert sorted(fallback.files) == sorted(loaded)
        for key, value in loaded.items():
            assert fallback[key].tobytes() == value.tobytes(), key
