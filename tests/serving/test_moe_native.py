"""The serving MoE layer's kernel-table entry against its reference.

``serve_moe`` runs a served MoE layer — router GEMM, softmax, stable
top-k, expert grouping, both expert GEMMs, GELU and the combine — in
three C calls around one ``np.exp`` and one ``np.tanh``;
:func:`repro.moe.inference.moe_forward_ref` is its reference and its
fallback.  Differential: drawn layers (top-1 and top-k, renormalized or
not, fp32 or int8, every routing skew) give the reference's output and
routing bit for bit.  Planned declines — a non-finite logit, a non-GELU
activation, another router — run the reference and count nothing, and a
layer whose tables change is re-checked before the C reads them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.lower import kernels as table
from repro.autograd.lower import runtime
from repro.autograd.lower.kernels import serve
from repro.autograd.tensor import Tensor, inference_mode
from repro.core import dMoE
from repro.moe import DynamicCapacityMoELayer, MoELayer
from repro.moe.inference import moe_forward_ref, moe_inference_forward
from repro.moe.routing_alt import SinkhornRouter
from repro.observability.metrics import registry
from repro.resilience import counters
from repro.serving.quantize import attach_quantized_experts, detach_quantized_experts

native = serve.MOE
call = runtime.direct(native)
pytestmark = pytest.mark.usefixtures("native_rung")


def count(name: str) -> int:
    return registry().counter(name).value


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _assert_same_layer_output(layer, x):
    """The entry's output and routing equal the reference's, and the
    call ran C exactly once (the reference's own GEMMs aside)."""
    before = count("lower_direct_calls")
    got = call(layer, x)
    assert count("lower_direct_calls") == before + 1, "the C did not run"
    routing = layer.last_routing
    want = moe_forward_ref(layer, x)
    ref = layer.last_routing
    assert got.dtype == want.dtype and got.shape == want.shape
    assert _bits(got) == _bits(want)
    assert np.array_equal(routing.expert_indices, ref.expert_indices)
    assert _bits(routing.expert_weights.data) == _bits(ref.expert_weights.data)
    assert _bits(routing.scores.data) == _bits(ref.scores.data)


def test_binding_counts_nothing():
    """The bind check runs the entry and its reference (and with it the
    serving GEMMs) on its draws; that is no work anyone asked for, so it
    leaves the counters as it found them."""
    runtime._direct.clear()
    names = ("serve_gemm_calls", "serve_gemm_flops", "lower_direct_calls")
    before = {name: count(name) for name in names}
    assert runtime.binding(native)[2] is not None  # bound to C: the check passed
    assert {name: count(name) for name in names} == before


def test_drawn_layers_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(21)
    for args in native.checks(rng) + [native.fuzz(rng) for _ in range(40)]:
        _assert_same_layer_output(*args)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("case", ["one token", "empty experts", "all to one", "int8"])
def test_the_routing_edges(case, k):
    rng = np.random.default_rng(7)
    tokens = 1 if case == "one token" else 6
    experts = 16 if case == "empty experts" else 4
    layer, x = serve._moe_layer(rng, tokens, 24, 40, experts, k, int8=case == "int8")
    if case == "all to one":  # every logit ties: experts 0 .. k-1 take every token
        layer.router.proj.weight.data[...] = 0
    _assert_same_layer_output(layer, x)
    if case == "empty experts":
        assert len(np.unique(layer.last_routing.expert_indices)) < experts
    if case == "all to one":
        assert (layer.last_routing.expert_indices == np.arange(k)).all()


def test_a_non_finite_logit_declines_to_the_uniform_fallback():
    rng = np.random.default_rng(3)
    layer, x = serve._moe_layer(rng, 5, 16, 24, 4, 2)
    x[2, 3] = np.inf
    before, fell = count("lower_direct_calls"), counters.get("router_fallback")
    with np.errstate(invalid="ignore"):  # the inf row's GELU
        out = call(layer, x)
        # The reference runs in NumPy alone; serve_moe counted nothing.
        assert count("lower_direct_calls") == before
        assert counters.get("router_fallback") == fell + 1
        assert np.array_equal(
            layer.last_routing.expert_indices, (np.arange(5)[:, None] + np.arange(2)) % 4
        )
        assert _bits(out) == _bits(moe_forward_ref(layer, x))


@pytest.mark.parametrize("variant", ["relu", "sinkhorn"])
def test_layers_outside_the_contract_run_the_reference_uncounted(variant):
    rng = np.random.default_rng(5)
    layer, x = serve._moe_layer(rng, 5, 16, 24, 4, 1)
    if variant == "relu":
        layer.activation = "relu"
    else:
        layer.router = SinkhornRouter(16, 4, rng=1)
    want = moe_forward_ref(layer, x)
    before = count("lower_direct_calls")
    fallbacks = count("lower_segment_fallbacks") + count("lower_toolchain_fallbacks")
    got = call(layer, x)
    # The plain Router's GEMM is the entry's NumPy reference; another
    # router runs its own (training) forward: neither crosses into C.
    assert count("lower_direct_calls") == before
    assert count("lower_segment_fallbacks") + count("lower_toolchain_fallbacks") == fallbacks
    assert _bits(got) == _bits(want)
    assert layer.last_routing.expert_indices.shape == (5, 1)


def test_changed_tables_are_checked_again():
    """The checked tables ride on the layer with the arrays they were
    checked on: quantizing, dropping the int8 tables, a new weight array
    or a new top-k all re-check before the C reads anything."""
    rng = np.random.default_rng(9)
    layer, x = serve._moe_layer(rng, 7, 16, 24, 4, 1)
    _assert_same_layer_output(layer, x)
    attach_quantized_experts(layer)
    _assert_same_layer_output(layer, x)
    detach_quantized_experts(layer)
    _assert_same_layer_output(layer, x)
    layer.experts.w2.data = rng.standard_normal(layer.experts.w2.data.shape).astype(np.float32)
    _assert_same_layer_output(layer, x)
    layer.router.top_k = 2
    _assert_same_layer_output(layer, x)
    # A table the C cannot take (float64 here) declines to the reference.
    layer.experts.w1.data = layer.experts.w1.data.astype(np.float64)
    before = count("lower_direct_calls")
    want = moe_forward_ref(layer, x)
    inner = count("lower_direct_calls") - before  # the reference's own GEMMs
    got = call(layer, x)
    assert count("lower_direct_calls") - before == 2 * inner
    assert _bits(got) == _bits(want)


def test_requantized_tables_are_read_fresh():
    """Detaching, an in-place weight update and attaching again give the
    layer new int8 tables — new arrays even where a freed table object's
    address comes back — and the C reads them, not the first ones."""
    rng = np.random.default_rng(10)
    layer, x = serve._moe_layer(rng, 6, 16, 24, 4, 2)
    attach_quantized_experts(layer)
    _assert_same_layer_output(layer, x)
    first = call(layer, x)
    detach_quantized_experts(layer)
    layer.experts.w1.data *= 3.0
    attach_quantized_experts(layer)
    _assert_same_layer_output(layer, x)
    assert _bits(call(layer, x)) != _bits(first)


@pytest.mark.parametrize("kind", ["dmoe", "moe", "tutel-dmoe"])
def test_every_serving_moe_layer_is_one_entry_call_of_three_gemms(kind):
    """A served layer's forward is one ``serve_moe`` call: one crossing
    into the table, three GEMMs counted; its routing stays populated."""
    if kind == "dmoe":
        layer = dMoE(16, 32, 4, top_k=2, block_size=8, rng=0)
    elif kind == "moe":
        layer = MoELayer(16, 32, 4, top_k=2, rng=0)
    else:
        layer = DynamicCapacityMoELayer(hidden_size=16, ffn_hidden_size=32, num_experts=4, rng=0)
    x = Tensor(np.random.default_rng(1).standard_normal((3, 2, 16)).astype(np.float32))
    with inference_mode():
        moe_inference_forward(layer, x)  # binds
        before, gemms = count("lower_direct_calls"), count("serve_gemm_calls")
        out, aux = layer(x)
    assert aux is None and out.shape == (3, 2, 16)
    assert count("lower_direct_calls") == before + 1
    assert count("serve_gemm_calls") == gemms + 3
    assert layer.last_routing.expert_indices.shape == (6, layer.router.top_k)
    assert _bits(out.data.reshape(6, 16)) == _bits(moe_forward_ref(layer, x.data.reshape(6, 16)))


def test_the_reference_is_the_entrys_declared_one():
    assert table.reference(native) is moe_forward_ref


@pytest.mark.parametrize("int8", [False, True], ids=["fp32", "int8"])
def test_the_reference_runs_both_expert_products_in_numpy(int8):
    """The reference crosses into no C: its router's GEMM is the
    ``serve_gemm`` entry's NumPy reference, and both expert products,
    fp32 or int8, are NumPy's; all three count as serving GEMMs all the
    same."""
    layer, x = serve._moe_layer(np.random.default_rng(5), 6, 24, 40, 4, 2, int8=int8)
    moe_forward_ref(layer, x)
    native_calls, gemms = count("lower_direct_calls"), count("serve_gemm_calls")
    moe_forward_ref(layer, x)
    assert count("lower_direct_calls") == native_calls
    assert count("serve_gemm_calls") == gemms + 3
