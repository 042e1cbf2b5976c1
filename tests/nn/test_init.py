import numpy as np
import pytest

from repro.nn import init


class TestInitializers:
    def test_normal_std(self):
        w = init.normal((2000, 50), std=0.02, rng=0)
        assert abs(w.std() - 0.02) < 0.002
        assert w.dtype == np.float32

    def test_scaled_normal_shrinks_with_depth(self):
        a = init.scaled_normal((1000, 50), 0.02, num_layers=1, rng=0)
        b = init.scaled_normal((1000, 50), 0.02, num_layers=8, rng=0)
        assert b.std() < a.std()
        assert b.std() == pytest.approx(a.std() / np.sqrt(8), rel=0.05)

    def test_zeros_ones(self):
        assert np.all(init.zeros((3, 3)) == 0)
        assert np.all(init.ones(5) == 1)

    def test_deterministic_given_seed(self):
        np.testing.assert_array_equal(
            init.normal((4, 4), rng=7), init.normal((4, 4), rng=7)
        )
