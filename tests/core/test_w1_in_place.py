"""``expert_mlp`` reads ``w1`` where it lives — and no bit moves.

The dMoE hands the sparse products its expert-major ``(experts, hidden,
ffn)`` parameter; the reference is the same layer fed the materialised
``(hidden, experts * ffn)`` copy ``ExpertWeights.w1_flat`` builds (what
every rung multiplied before).  Same GEMM shapes per group, another base
pointer and leading dimension: outputs, the four expert gradients and a
six-step Adam trajectory are compared bit for bit on every rung, with no
machine-dependent constant involved.
"""

import contextlib

import numpy as np
import pytest

from repro.autograd import Tensor, lower, steady_state
from repro.autograd.lower import toolchain
from repro.core import dmoe as dmoe_mod
from repro.core import make_topology
from repro.core.topology_builder import expert_of_padded_row
from repro.moe.experts import ExpertWeights
from repro.moe.permute import make_padded_plan, padded_gather

from tests.integration.test_step_graph import _assert_same, _fingerprint, _trainer


_expert_mlp = dmoe_mod.expert_mlp


def _flat_reference(xp, w1, *rest):
    """``expert_mlp`` over ``w1_flat``'s transpose + copying reshape."""
    e, h, f = w1.shape
    return _expert_mlp(xp, w1.transpose((1, 0, 2)).reshape((h, e * f)), *rest)


@pytest.fixture
def lower_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LOWER_CACHE", str(tmp_path / "lower-cache"))
    toolchain._reset_for_tests()
    yield
    toolchain._reset_for_tests()


@pytest.mark.parametrize("arena_on", [False, True], ids=["allocating", "steady"])
@pytest.mark.parametrize(
    "counts",
    [[5, 9, 1, 3], [0, 18, 0, 0], [1, 0, 16, 1]],
    ids=["ragged", "all-to-one", "one-token-and-empty"],
)
def test_one_call_outputs_and_expert_gradients(rng, counts, arena_on):
    experts, hidden, ffn, bs = 4, 12, 16, 4
    plan = make_padded_plan(
        np.repeat(np.arange(experts), counts)[:, None], experts, bs
    )
    topo, row_expert = make_topology(plan, ffn), expert_of_padded_row(plan)
    x = rng.standard_normal((sum(counts), hidden)).astype(np.float32)
    seed = rng.standard_normal((plan.total_padded, hidden)).astype(np.float32)
    biases = {
        shape: rng.standard_normal(shape).astype(np.float32)
        for shape in ((experts, ffn), (experts, hidden))
    }

    def run(flat):
        e = ExpertWeights(experts, hidden, ffn, rng=3)
        for p in (e.b1, e.b2):  # initialised to zero: give them values
            p.data[...] = biases[p.shape]
        w1 = e.w1_flat() if flat else e.w1
        y = dmoe_mod.expert_mlp(
            padded_gather(Tensor(x), plan), w1, e.b1_flat(), e.w2_flat(), e.b2,
            topo, row_expert, "gelu",
        )
        y.backward(seed)
        return y.data.copy(), [p.grad.copy() for p in (e.w1, e.b1, e.w2, e.b2)]

    with steady_state() if arena_on else contextlib.nullcontext():
        y, grads = run(flat=False)
        y_ref, grads_ref = run(flat=True)
    assert y.tobytes() == y_ref.tobytes()
    for g, g_ref in zip(grads, grads_ref):
        assert g.shape == g_ref.shape and g.tobytes() == g_ref.tobytes()


@pytest.mark.parametrize(
    "backend, steady",
    [("eager", False), ("eager", True), ("replay", True), ("cc", True)],
    ids=["eager", "steady", "replay", "cc"],
)
def test_six_adam_steps_on_every_rung(backend, steady, lower_cache, monkeypatch):
    if backend == "cc" and not lower.cc_available():
        pytest.skip("no C toolchain in this environment")
    in_place = _trainer(backend, steady=steady, max_steps=6)
    got = _fingerprint(in_place, in_place.train())

    monkeypatch.setattr(dmoe_mod, "expert_mlp", _flat_reference)
    reference = _trainer(backend, steady=steady, max_steps=6)
    want = _fingerprint(reference, reference.train())
    _assert_same(want, got)
    for m, m_ref in zip(in_place.optimizer._v, reference.optimizer._v):
        np.testing.assert_array_equal(m, m_ref)
