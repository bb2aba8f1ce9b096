"""Weight initialisers."""

import numpy as np

from repro.nn import xavier_uniform, zeros


class TestInitializers:
    def test_zeros(self):
        out = zeros((3, 4))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, 0.0)

    def test_xavier_bound_formula(self):
        rng = np.random.default_rng(0)
        out = xavier_uniform((100, 200), rng)
        bound = np.sqrt(6.0 / 300)
        assert np.abs(out).max() <= bound + 1e-12

    def test_xavier_gain(self):
        rng = np.random.default_rng(0)
        small = xavier_uniform((50, 50), np.random.default_rng(1), gain=0.5)
        large = xavier_uniform((50, 50), np.random.default_rng(1), gain=2.0)
        assert np.abs(large).max() > np.abs(small).max()

    def test_xavier_one_dim(self):
        out = xavier_uniform((10,), np.random.default_rng(0))
        assert out.shape == (10,)

    def test_variance_preservation_through_linear_stack(self):
        """Xavier keeps forward activation scale roughly stable."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 64))
        for _ in range(4):
            w = xavier_uniform((x.shape[1], 64), rng)
            x = np.tanh(x @ w)
        assert 0.05 < x.std() < 1.5
