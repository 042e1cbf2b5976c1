import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.nn import Parameter
from repro.training import SGD, Adam, clip_grad_norm


def _quadratic_params(rng, n=3):
    ps = [Parameter(rng.standard_normal(4).astype(np.float32)) for _ in range(n)]
    return ps


class TestClipGradNorm:
    def test_no_clip_below_threshold(self, rng):
        p = Parameter(np.zeros(4, dtype=np.float32))
        p.grad = np.array([0.3, 0.0, 0.0, 0.0], dtype=np.float32)
        norm = clip_grad_norm([p], 1.0)
        assert abs(norm - 0.3) < 1e-6
        np.testing.assert_allclose(p.grad, [0.3, 0, 0, 0])

    def test_clips_to_max_norm(self, rng):
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([3.0, 4.0], dtype=np.float32)
        norm = clip_grad_norm([p], 1.0)
        assert abs(norm - 5.0) < 1e-5
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-5

    def test_global_norm_across_params(self):
        ps = [Parameter(np.zeros(1, dtype=np.float32)) for _ in range(2)]
        ps[0].grad = np.array([3.0], dtype=np.float32)
        ps[1].grad = np.array([4.0], dtype=np.float32)
        clip_grad_norm(ps, 1.0)
        total = np.sqrt(sum(float((p.grad**2).sum()) for p in ps))
        assert abs(total - 1.0) < 1e-5

    def test_none_grads_skipped(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        assert clip_grad_norm([p], 1.0) == 0.0


class TestSGD:
    def test_descends_quadratic(self, rng):
        p = Parameter(np.array([5.0], dtype=np.float32))
        opt = SGD([p], lr=0.1)
        for _ in range(50):
            opt.zero_grad()
            p.grad = 2 * p.data  # d/dx x^2
            opt.step()
        assert abs(p.data[0]) < 0.01

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.array([5.0], dtype=np.float32))
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(20):
                p.grad = 2 * p.data
                opt.step()
            return abs(float(p.data[0]))

        assert run(0.9) < run(0.0)

    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_descends_quadratic(self):
        p = Parameter(np.array([5.0], dtype=np.float32))
        opt = Adam([p], lr=0.3)
        for _ in range(100):
            p.grad = 2 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.05

    def test_lr_override_per_step(self):
        p = Parameter(np.array([5.0], dtype=np.float32))
        opt = Adam([p], lr=0.0)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step(lr=0.1)
        assert p.data[0] < 5.0  # moved despite base lr 0

    def test_first_step_magnitude_is_lr(self):
        """Bias correction: first Adam update has magnitude ~lr."""
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([123.0], dtype=np.float32)
        opt.step()
        assert abs(abs(p.data[0]) - 0.01) < 1e-4

    def test_weight_decay_shrinks_params(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.array([0.0], dtype=np.float32)
        opt.step()
        assert p.data[0] < 1.0

    def test_state_size(self):
        p = Parameter(np.zeros(10, dtype=np.float32))
        opt = Adam([p])
        assert opt.state_size_bytes() == 2 * 10 * 4

    def test_skips_none_grads(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad: no movement, no crash
        assert p.data[0] == 1.0

    def test_trains_real_model(self, rng):
        """Adam on a tiny regression net reduces the loss."""
        from repro.nn import Linear, Sequential

        net = Sequential(Linear(4, 8, rng=0), Linear(8, 1, rng=1))
        opt = Adam(net.parameters(), lr=1e-2)
        x = rng.standard_normal((32, 4)).astype(np.float32)
        y = x[:, :1] * 2.0
        first = last = None
        for _ in range(60):
            opt.zero_grad()
            pred = net(Tensor(x))
            diff = pred - Tensor(y)
            loss = (diff * diff).mean()
            loss.backward()
            opt.step()
            last = float(loss.data)
            first = first if first is not None else last
        assert last < first * 0.3


class TestClipScaleFoldedIntoTheStep:
    """``clip_grad_norm`` then ``step()`` (three sweeps over the
    gradients) and ``optimizer.grad_norm()`` -> ``clip_scale`` ->
    ``step(grad_scale=)`` (two) are one update, bit for bit — and the
    fold leaves ``p.grad`` unclipped.

    The rungs: ``allocating`` is the reference step (arena off: its
    buffers come from NumPy, not the pool), ``mirror`` the steady step
    (arena on), ``native`` the steady step with the C update and grad
    norm bound to both optimizers (the standalone ``clip_grad_norm`` is
    NumPy on every rung).  On fp32 all three run the in-place update; ``float64``
    (arena off) is the rung that runs the allocating formula, whose fp32
    contract with the in-place one is
    ``TestInPlaceUpdateIsTheAllocatingFormula``."""

    @staticmethod
    def _build(make, dtype=np.float32):
        r = np.random.default_rng(5)
        ps = []
        for shape in [(700,), (31, 9), (4,), (1,)]:
            p = Parameter(r.standard_normal(shape).astype(dtype))
            p.grad = (r.standard_normal(shape) * 5).astype(dtype)
            ps.append(p)
        ps.append(Parameter(np.ones(3, dtype)))  # no gradient: skipped
        return make(ps)

    OPTIMIZERS = {
        "adam": lambda ps: Adam(ps, lr=1e-2),
        "adamw": lambda ps: Adam(ps, lr=1e-2, weight_decay=0.01),
        "sgd": lambda ps: SGD(ps, lr=0.1),
        "sgd-momentum": lambda ps: SGD(ps, lr=0.1, momentum=0.9),
    }

    @pytest.mark.parametrize("max_norm", [1e9, 1.0, 0.0], ids=["inactive", "active", "off"])
    @pytest.mark.parametrize(
        "name, rung",
        [
            (name, rung)
            for name in OPTIMIZERS
            for rung in ("allocating", "mirror", "native", "float64")
            if rung != "native" or name.startswith("adam")  # the native step is Adam's
        ],
    )
    def test_same_update(self, name, max_norm, rung, tmp_path, monkeypatch):
        import contextlib

        from repro.autograd import arena, lower
        from repro.autograd.lower import toolchain
        from repro.training.optim import clip_scale

        dtype = np.float64 if rung == "float64" else np.float32
        make = self.OPTIMIZERS[name]
        separate, folded = self._build(make, dtype), self._build(make, dtype)
        if rung == "native":
            if not lower.cc_available():
                pytest.skip("no C toolchain in this environment")
            monkeypatch.setenv("REPRO_LOWER_CACHE", str(tmp_path / "lower-cache"))
            toolchain._reset_for_tests()
            assert lower.attach_adam(separate) and lower.attach_adam(folded)
        steady = rung in ("mirror", "native")
        try:
            with arena.steady_state() if steady else contextlib.nullcontext():
                for _ in range(3):
                    before = [None if p.grad is None else p.grad.copy() for p in folded.params]
                    norm = clip_grad_norm(separate.params, max_norm)
                    separate.step()
                    assert folded.grad_norm() == norm
                    scale = clip_scale(norm, max_norm)
                    assert (scale != 1.0) == (max_norm == 1.0)
                    folded.step(grad_scale=scale)
                    for p, q, g in zip(separate.params, folded.params, before):
                        assert p.data.tobytes() == q.data.tobytes()
                        if g is not None:  # left unclipped
                            assert q.grad.tobytes() == g.tobytes()
                            p.grad[...] = g
        finally:
            toolchain._reset_for_tests()
        state = lambda o: (o._m + o._v) if isinstance(o, Adam) else o._velocity
        for a, b in zip(state(separate), state(folded)):
            assert a.tobytes() == b.tobytes()


class TestInPlaceUpdateIsTheAllocatingFormula:
    """Every rung — the eager reference included — takes an optimizer's
    ``_in_place`` update on fp32 parameters; ``_allocating``, the update
    as one expression per moment, runs only on other dtypes (the
    ``float64`` rung above).  Their fp32 contract is stated here once:
    every moment and parameter bit-equal, with the clip scale folded in
    or not, and whichever type the learning rate arrives in."""

    SHAPES = [(700,), (31, 9), (4,), (1,)]

    @given(
        name=st.sampled_from(sorted(TestClipScaleFoldedIntoTheStep.OPTIMIZERS)),
        seed=st.integers(0, 2**16),
        grad_scale=st.one_of(st.just(1.0), st.floats(1e-3, 2.0)),
        lr=st.floats(1e-5, 0.5),
        lr_type=st.sampled_from([float, np.float64]),
    )
    def test_bit_equal(self, name, seed, grad_scale, lr, lr_type):
        r = np.random.default_rng(seed)
        make = TestClipScaleFoldedIntoTheStep.OPTIMIZERS[name]
        data = [r.standard_normal(s).astype(np.float32) for s in self.SHAPES]
        in_place = make([Parameter(d.copy()) for d in data])
        allocating = make([Parameter(d.copy()) for d in data])
        allocating._in_place = allocating._allocating  # the formula, on fp32
        for _ in range(3):
            for s, p, q in zip(self.SHAPES, in_place.params, allocating.params):
                p.grad = (r.standard_normal(s) * 5).astype(np.float32)
                q.grad = p.grad.copy()
            in_place.step(lr=lr_type(lr), grad_scale=grad_scale)
            allocating.step(lr=lr_type(lr), grad_scale=grad_scale)
            for p, q in zip(in_place.params, allocating.params):
                assert p.data.dtype == np.float32
                assert p.data.tobytes() == q.data.tobytes()
        state = lambda o: (o._m + o._v) if isinstance(o, Adam) else o._velocity
        for a, b in zip(state(in_place), state(allocating)):
            assert a.tobytes() == b.tobytes()


class TestGradNormFiniteness:
    """The trainer skips a step on a non-finite ``grad_norm`` instead of
    sweeping the gradients for NaN/Inf, so the norm must be non-finite
    exactly when some gradient element is NaN, +inf or -inf — on every
    path the clip can take: NumPy's, and the C sum of squares an
    optimizer bound by ``attach_adam`` takes."""

    @pytest.mark.parametrize("rung", ["allocating", "mirror", "native"])
    def test_nonfinite_exactly_when_an_element_is(self, rung, tmp_path, monkeypatch):
        import contextlib

        from repro.autograd import arena, lower
        from repro.autograd.lower import toolchain
        from repro.training.optim import grad_norm

        if rung == "native":
            if not lower.cc_available():
                pytest.skip("no C toolchain in this environment")
            monkeypatch.setenv("REPRO_LOWER_CACHE", str(tmp_path / "lower-cache"))
            toolchain._reset_for_tests()

        r = np.random.default_rng(3)

        def norm(*grads):
            ps = []
            for g in grads:
                ps.append(Parameter(np.zeros_like(g)))
                ps[-1].grad = g
            if rung != "native":
                return grad_norm(ps)
            opt = Adam(ps)
            assert lower.attach_adam(opt)
            assert opt.native.sumsq() is not None  # the C runs: no decline
            return opt.grad_norm()

        def randn(n):
            return r.standard_normal(n).astype(np.float32)

        big = np.finfo(np.float32).max
        try:
            with arena.steady_state() if rung != "allocating" else contextlib.nullcontext():
                for size in (1, 7, 64, 1000):
                    for g in (randn(size), np.full(size, big), np.full(size, -big)):
                        assert np.isfinite(norm(randn(5), g.astype(np.float32), randn(9)))
                    for where in (0, size // 2, size - 1):
                        for bad in (np.nan, np.inf, -np.inf):
                            g = randn(size)
                            g[where] = bad
                            assert not np.isfinite(norm(randn(5), g, randn(9))), (
                                size, where, bad,
                            )
        finally:
            toolchain._reset_for_tests()
