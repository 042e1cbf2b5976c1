"""Alternative routing algorithms (paper §7): balance guarantees and
compatibility with the dMoE layer."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import dMoE
from repro.moe import (
    BaseLayerRouter,
    SinkhornRouter,
    hash_assign,
    min_capacity_factor,
    sinkhorn,
)


class TestBaseLayerRouter:
    def test_perfectly_balanced(self, rng):
        r = BaseLayerRouter(8, 4, rng=0)
        res = r(Tensor(rng.standard_normal((24, 8)).astype(np.float32)))
        counts = np.bincount(res.expert_indices.reshape(-1), minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_balanced_with_remainder(self, rng):
        r = BaseLayerRouter(8, 4, rng=0)
        res = r(Tensor(rng.standard_normal((10, 8)).astype(np.float32)))
        counts = np.bincount(res.expert_indices.reshape(-1), minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_no_aux_loss_needed(self, rng):
        r = BaseLayerRouter(8, 4, rng=0)
        res = r(Tensor(rng.standard_normal((8, 8)).astype(np.float32)))
        assert res.aux_loss is None

    def test_maximizes_affinity_vs_random(self, rng):
        """The assignment's total score beats a random balanced one."""
        r = BaseLayerRouter(8, 4, rng=0)
        x = Tensor(rng.standard_normal((16, 8)).astype(np.float32))
        res = r(x)
        total = float(res.expert_weights.data.sum())
        random_assign = np.tile(np.arange(4), 4)
        rng.shuffle(random_assign)
        random_total = float(
            res.scores.data[np.arange(16), random_assign].sum()
        )
        assert total >= random_total - 1e-6

    def test_drives_dmoe_with_perfect_balance(self, rng):
        layer = dMoE(8, 16, 4, block_size=4, router=BaseLayerRouter(8, 4, rng=1), rng=2)
        out, aux = layer(Tensor(rng.standard_normal((20, 8)).astype(np.float32)))
        assert out.shape == (20, 8)
        cf = min_capacity_factor(layer.last_routing.expert_indices, 4)
        assert cf <= 1.0 + 1e-9

    def test_weights_differentiable(self, rng):
        r = BaseLayerRouter(8, 4, rng=0)
        res = r(Tensor(rng.standard_normal((8, 8)).astype(np.float32)))
        res.expert_weights.sum().backward()
        assert r.proj.weight.grad is not None

    def test_rejects_3d(self, rng):
        with pytest.raises(ValueError):
            BaseLayerRouter(8, 4, rng=0)(
                Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32))
            )


class TestSinkhorn:
    def test_marginals_converge(self, rng):
        scores = rng.random((32, 4)) + 1e-3
        plan = sinkhorn(scores, iterations=50)
        np.testing.assert_allclose(plan.sum(axis=1), 1.0, atol=1e-3)
        np.testing.assert_allclose(plan.sum(axis=0), 8.0, atol=1e-2)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            sinkhorn(np.ones(4))

    def test_router_improves_balance_over_greedy(self, rng):
        """Sinkhorn routing is more balanced than raw argmax routing."""
        x = rng.standard_normal((64, 8)).astype(np.float32)
        sk = SinkhornRouter(8, 4, rng=3)
        res = sk(Tensor(x))
        cf_sinkhorn = min_capacity_factor(res.expert_indices, 4)
        greedy = res.scores.data.argmax(axis=1)[:, None]
        cf_greedy = min_capacity_factor(greedy, 4)
        assert cf_sinkhorn <= cf_greedy + 1e-9

    def test_drives_dmoe(self, rng):
        layer = dMoE(8, 16, 4, block_size=4, router=SinkhornRouter(8, 4, rng=1), rng=2)
        out, _ = layer(Tensor(rng.standard_normal((16, 8)).astype(np.float32)))
        ((out * out).sum()).backward()
        assert layer.experts.w1.grad is not None

    def test_optional_aux_loss(self, rng):
        sk = SinkhornRouter(8, 4, load_balance_coef=0.1, rng=0)
        res = sk(Tensor(rng.standard_normal((16, 8)).astype(np.float32)))
        assert res.load_balancing_loss is not None


class TestHashRouter:
    def test_deterministic(self):
        ids = np.arange(100)
        np.testing.assert_array_equal(hash_assign(ids, 8), hash_assign(ids, 8))

    def test_different_seeds_differ(self):
        ids = np.arange(100)
        a = hash_assign(ids, 8, seed=0)
        b = hash_assign(ids, 8, seed=1)
        assert not np.array_equal(a, b)

    def test_roughly_uniform_over_many_ids(self):
        counts = np.bincount(hash_assign(np.arange(80_000), 8), minlength=8)
        assert counts.min() > 0.8 * counts.mean()


def test_importing_the_library_loads_no_scipy():
    """SciPy is imported by the one router that calls it, on its first
    assignment: a fresh interpreter that imports the training and
    serving entry points has no ``scipy`` module loaded."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import sys\n"
        "import repro, repro.training, repro.serving.engine, repro.serving.scheduler\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
