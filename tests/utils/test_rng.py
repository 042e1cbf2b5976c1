import numpy as np
import pytest

from repro.utils.rng import get_rng, seed_all, spawn_rng


class TestGetRng:
    def test_none_returns_global(self):
        seed_all(7)
        a = get_rng(None).integers(0, 1000, 5)
        seed_all(7)
        b = get_rng(None).integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_int_seeds_fresh_generator(self):
        a = get_rng(3).integers(0, 1000, 5)
        b = get_rng(3).integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert get_rng(g) is g

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            get_rng("seed")


class TestSpawnRng:
    def test_children_are_independent_and_deterministic(self):
        kids1 = spawn_rng(5, n=3)
        kids2 = spawn_rng(5, n=3)
        for a, b in zip(kids1, kids2):
            assert np.array_equal(a.integers(0, 100, 4), b.integers(0, 100, 4))

    def test_children_differ_from_each_other(self):
        kids = spawn_rng(5, n=2)
        assert not np.array_equal(
            kids[0].integers(0, 10**9, 8), kids[1].integers(0, 10**9, 8)
        )
