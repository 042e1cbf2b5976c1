"""The serving plan and its cache (``repro.serving.plan``).

A prefill or a decode step replays the one plan its cache holds: the
model's calls, bound once, over the step's rows.  Whatever happens to the
cache and the model between steps — slots admitted, prefilled at any
length, decoded in any subset and order, evicted or slid; int8 tables
attached; a parameter's array swapped; a parameter or a module replaced
by another object; the cache released and a new one opened — every
prefilled and decoded row must be the last-position logits of the
uncached full-window forward (:func:`tests.serving.oracle.forward_ref`),
bit for bit.  A
hypothesis state machine drives those operations; the fixed cases beside
it cover a runner declining mid-plan, a plan built from the references,
a released cache and the routing a step leaves on its MoE layers.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.autograd.lower import kernels, runtime
from repro.nn import Linear, Parameter
from repro.observability import registry
from repro.serving.engine import InferenceEngine
from repro.serving.quantize import attach_quantized_experts, detach_quantized_experts

from tests.serving.conftest import MAX_SEQ, VOCAB, make_model
from tests.serving.oracle import forward_ref

SLOTS = 3
_WINDOW = st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=6)


def uncached(model, window) -> np.ndarray:
    """Last-position logits of the uncached full-window forward."""
    return forward_ref(model, [window])[0, -1]


def count(name: str) -> int:
    return registry().counter(name).value


def fallbacks() -> int:
    return count("lower_segment_fallbacks") + count("lower_toolchain_fallbacks")


@contextlib.contextmanager
def pinned_to_references():
    """Every direct entry bound to a runner that declines and no
    library: each call runs its reference, as with no prelude, and a
    plan built meanwhile binds none of the C."""
    decline = lambda *ops: False  # noqa: E731
    runtime._direct.update(
        {e: (decline, kernels.reference(e), None) for e in kernels.TABLE if e.checks}
    )
    try:
        yield
    finally:
        runtime._direct.clear()


class PlanCacheMachine(RuleBasedStateMachine):
    """One model and one cache of ``SLOTS`` slots; ``windows`` holds each
    live slot's tokens — what the cache holds for it."""

    @initialize(top_k=st.sampled_from([1, 2]), data=st.data())
    def build(self, top_k, data):
        self.model = make_model("dmoe", top_k=top_k)
        self.engine = InferenceEngine(self.model)
        self.cache = self.engine.new_cache(SLOTS)
        self.windows = {}
        for slot in range(SLOTS):
            self._prefill(slot, data.draw(_WINDOW))
        self.decode(data)

    def teardown(self):
        self.cache.release()

    def _prefill(self, slot, window):
        self.cache.reset([slot])
        got = self.engine.prefill(np.asarray([window]), self.cache, slots=[slot])[0]
        assert np.array_equal(got, uncached(self.model, window))
        self.windows[slot] = list(window)

    def _refill(self, data):
        """Re-encode every live window — what the cache holds was
        computed by the model as it was — and decode them."""
        for slot, window in list(self.windows.items()):
            self._prefill(slot, window)
        if any(len(w) < MAX_SEQ for w in self.windows.values()):
            self.decode(data)

    @precondition(lambda self: len(self.windows) < SLOTS)
    @rule(data=st.data())
    def admit(self, data):
        slot = data.draw(st.sampled_from(sorted(set(range(SLOTS)) - set(self.windows))))
        self._prefill(slot, data.draw(_WINDOW))

    @rule(data=st.data())
    def prefill_any_length(self, data):
        """Reset a slot and encode a window of any length the cache
        holds: every length is a view of the one plan."""
        slot = data.draw(st.integers(0, SLOTS - 1))
        length = data.draw(st.integers(1, MAX_SEQ))
        self._prefill(slot, data.draw(st.lists(
            st.integers(0, VOCAB - 1), min_size=length, max_size=length
        )))

    @precondition(lambda self: any(len(w) < MAX_SEQ for w in self.windows.values()))
    @rule(data=st.data())
    def decode(self, data):
        open_ = sorted(s for s, w in self.windows.items() if len(w) < MAX_SEQ)
        slots = data.draw(st.permutations(open_).flatmap(
            lambda order: st.integers(1, len(order)).map(lambda n: order[:n])
        ))
        tokens = data.draw(st.lists(
            st.integers(0, VOCAB - 1), min_size=len(slots), max_size=len(slots)
        ))
        logits = self.engine.decode_step(np.asarray(tokens), self.cache, slots=slots)
        for row, slot, token in zip(logits, slots, tokens):
            self.windows[slot].append(token)
            assert np.array_equal(row, uncached(self.model, self.windows[slot]))
        assert self.cache.plan.model is self.model

    @precondition(lambda self: self.windows)
    @rule(data=st.data())
    def evict(self, data):
        del self.windows[data.draw(st.sampled_from(sorted(self.windows)))]

    @precondition(lambda self: self.windows)
    @rule(data=st.data())
    def slide(self, data):
        """Keep a suffix of a window and encode it again (re-prefill)."""
        slot = data.draw(st.sampled_from(sorted(self.windows)))
        window = self.windows[slot]
        keep = data.draw(st.integers(1, len(window)))
        self._prefill(slot, window[-keep:])

    @rule(data=st.data())
    def toggle_int8_experts(self, data):
        if getattr(self.model.blocks[0].ffn, "_quantized", None) is None:
            attach_quantized_experts(self.model)
        else:
            detach_quantized_experts(self.model)
        self._refill(data)

    @rule(data=st.data())
    def swap_a_parameter_array(self, data):
        params = list(self.model.parameters())
        param = params[data.draw(st.integers(0, len(params) - 1))]
        param.data = param.data * np.float32(1.25)
        self._refill(data)

    @rule(data=st.data())
    def replace_a_parameter_or_a_module(self, data):
        """A new object on a link the plan walked: the plan that read the
        old one must not replay it."""
        if data.draw(st.booleans()):
            owners = [(m, n) for m in self.model.modules() for n in m._parameters]
            owner, name = owners[data.draw(st.integers(0, len(owners) - 1))]
            setattr(owner, name, Parameter(getattr(owner, name).data * np.float32(1.25)))
        else:
            block = self.model.blocks[data.draw(st.integers(0, len(self.model.blocks) - 1))]
            block.attn.proj = Linear(
                block.attn.proj.in_features, block.attn.proj.out_features,
                rng=data.draw(st.integers(0, 2**16)),
            )
        self._refill(data)

    @rule()
    def release_and_open_another_cache(self):
        plan = self.cache.plan
        self.cache.release()
        assert self.cache.plan is None and (plan is None or not plan.current())
        with pytest.raises(ValueError, match="released"):
            self.engine.decode_step(np.zeros(1, np.int64), self.cache, slots=[0])
        self.cache = self.engine.new_cache(SLOTS)
        self.windows = {}


PlanCacheMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None, derandomize=True
)
test_every_decoded_row_is_the_uncached_forwards = PlanCacheMachine.TestCase


# ----------------------------------------------------------------------
# Fixed cases
# ----------------------------------------------------------------------
def _decoded(engine, prompts, steps, rng):
    """Prefill ``prompts`` into a fresh cache, then ``steps`` decode steps
    of random tokens; returns the cache, the windows and each step's
    logits."""
    cache = engine.new_cache(len(prompts))
    engine.prefill(prompts, cache)
    windows = [list(p) for p in prompts]
    out = []
    for _ in range(steps):
        tokens = rng.integers(0, VOCAB, len(prompts))
        out.append(engine.decode_step(tokens, cache))
        for window, token in zip(windows, tokens):
            window.append(int(token))
    return cache, windows, out


def test_building_a_plan_counts_nothing_and_a_step_counts_its_c_calls(native_rung):
    model = make_model("dmoe")
    engine = InferenceEngine(model)
    prompts = np.random.default_rng(1).integers(0, VOCAB, (3, 5))
    _decoded(engine, prompts, 1, np.random.default_rng(2))[0].release()  # binds every entry
    cache = engine.new_cache(3)
    engine.prefill(prompts, cache)
    missed, calls = fallbacks(), count("lower_direct_calls")
    engine.decode_step(prompts[:, -1], cache)  # builds this cache's plan, then runs it
    # Per block: two LayerNorms, two GEMMs, attention and the MoE layer; then ln_f.
    assert count("lower_direct_calls") - calls == 6 * len(model.blocks) + 1
    assert fallbacks() == missed
    cache.release()


def test_a_router_that_declines_mid_plan_runs_the_layers_reference(native_rung):
    """A plan bound to ``serve_moe``: a router made non-finite in place
    (the plan stays current) makes ``repro_moe_route`` decline, and that
    layer's reference — the uniform-routing fallback — fills the same
    buffer, counting no fallback.  The fallback routes a token by its
    row in the call, so the oracle is the same step with every entry on
    its reference, not the uncached window."""
    model = make_model("dmoe", top_k=2)
    engine = InferenceEngine(model)
    prompts = np.random.default_rng(3).integers(0, VOCAB, (2, 4))
    with pinned_to_references():
        reference = _decoded(engine, prompts, 1, np.random.default_rng(4))[0]
    cache = _decoded(engine, prompts, 1, np.random.default_rng(4))[0]
    plan = cache.plan
    weight = model.blocks[1].ffn.router.proj.weight.data
    weight[...] = 0.0
    weight[0, 0] = np.nan
    missed, calls = fallbacks(), count("lower_direct_calls")
    with np.errstate(invalid="ignore"):
        got = engine.decode_step(np.array([5, 7]), cache)
        assert cache.plan is plan
        # serve_moe counted nothing for the declining layer, and its
        # reference runs in NumPy alone.
        assert count("lower_direct_calls") - calls == 6 * len(model.blocks)
        assert fallbacks() == missed
        with pinned_to_references():
            want = engine.decode_step(np.array([5, 7]), reference)
    assert got.tobytes() == want.tobytes()
    cache.release()
    reference.release()


def test_a_plan_built_with_every_entry_pinned_runs_the_references(native_rung):
    model = make_model("dmoe", top_k=2)
    engine = InferenceEngine(model)
    prompts = np.random.default_rng(5).integers(0, VOCAB, (3, 6))
    native_cache, _, native = _decoded(engine, prompts, 3, np.random.default_rng(6))
    assert native_cache.plan._native > 0
    native_cache.release()
    with pinned_to_references():
        calls = count("lower_direct_calls")
        cache, _, pinned = _decoded(engine, prompts, 3, np.random.default_rng(6))
        assert cache.plan._native == 0
        assert count("lower_direct_calls") == calls
        cache.release()
    for a, b in zip(native, pinned):
        assert np.array_equal(a, b)


def _kv(cache) -> list:
    return [layer.k.tobytes() + layer.v.tobytes() for layer in cache.layers]


def test_a_step_names_its_slots_unless_it_covers_every_one():
    engine = InferenceEngine(make_model("dense"))
    cache, _, _ = _decoded(engine, np.zeros((3, 2), np.int64), 1, np.random.default_rng(1))
    lengths, kv = cache.lengths.copy(), _kv(cache)
    with pytest.raises(ValueError, match="name the slots"):
        engine.decode_step(np.array([1, 2]), cache)
    for slots in ([0, 3], [-1, 1]):
        with pytest.raises(ValueError, match="slots must lie in"):
            engine.decode_step(np.array([1, 2]), cache, slots=slots)
    for slots in ([2], [0, 1, 2]):
        with pytest.raises(ValueError, match="decode slots for 2 token ids"):
            engine.decode_step(np.array([1, 2]), cache, slots=slots)
    # One distinct integer slot per row: two rows into one slot, a
    # fractional slot.
    with pytest.raises(ValueError, match="slots must be distinct"):
        engine.decode_step(np.array([3, 5]), cache, slots=[1, 1])
    with pytest.raises(ValueError, match="slots must be integers"):
        engine.decode_step(np.array([3]), cache, slots=[1.7])
    assert np.array_equal(cache.lengths, lengths)
    assert _kv(cache) == kv
    cache.release()


def test_a_prefill_names_one_distinct_slot_per_sequence_before_any_write():
    engine = InferenceEngine(make_model("dense"))
    cache = engine.new_cache(3)
    engine.prefill(np.ones((3, 4), np.int64), cache)
    lengths, kv = cache.lengths.copy(), _kv(cache)
    one, two = np.full((1, 2), 7, np.int64), np.full((2, 2), 9, np.int64)
    for ids, slots, match in (
        (one, [0, 2], "2 prefill slots for 1 sequences"),
        (two, [1, 1], "slots must be distinct"),
        (one, [1.0], "slots must be integers"),
        (one, [3], "slots must lie in"),
        (two, None, "name the slots"),
    ):
        with pytest.raises(ValueError, match=match):
            engine.prefill(ids, cache, slots=slots)
    assert np.array_equal(cache.lengths, lengths)
    assert _kv(cache) == kv
    cache.release()


def test_one_plan_serves_every_prompt_length_on_the_same_buffers():
    """Prompts of every length the cache holds, one after another into
    one slot: the first binds the plan at the cache's capacity; every
    later length only derives its calls, on the same buffers."""
    model = make_model("dmoe", top_k=2)
    engine = InferenceEngine(model)
    cache = engine.new_cache(SLOTS)
    tokens = np.random.default_rng(12).integers(0, VOCAB, MAX_SEQ)
    plan = held = None
    for length in range(1, MAX_SEQ + 1):
        cache.reset([1])
        got = engine.prefill(tokens[None, :length], cache, slots=[1])[0]
        assert np.array_equal(got, uncached(model, tokens[:length]))
        if plan is None:
            plan = cache.plan
            held = [(b, b.nbytes) for b in plan.buffers]
        assert cache.plan is plan
        assert len(plan.buffers) == len(held)
        assert sum(b.nbytes for b in plan.buffers) == sum(n for _, n in held)
        assert all(b is was for b, (was, _) in zip(plan.buffers, held))
    assert cache.lengths[1] == MAX_SEQ
    cache.release()


def test_a_released_cache_never_replays_its_plan():
    model = make_model("dense")
    engine = InferenceEngine(model)
    cache, _, _ = _decoded(engine, np.zeros((2, 3), np.int64), 1, np.random.default_rng(7))
    plan = cache.plan
    cache.release()
    assert cache.plan is None and not plan.current()
    with pytest.raises(ValueError, match="released"):
        engine.decode_step(np.array([1, 2]), cache)


def test_last_routing_is_the_uncached_forwards_and_outlives_the_next_step():
    model = make_model("dmoe", top_k=2)
    engine = InferenceEngine(model)
    prompts = np.random.default_rng(8).integers(0, VOCAB, (3, 5))
    cache, windows, _ = _decoded(engine, prompts, 1, np.random.default_rng(9))
    layers = [block.ffn for block in model.blocks]
    routed = [layer.last_routing for layer in layers]
    kept = [
        (r.expert_indices.copy(), r.expert_weights.data.copy(), r.scores.data.copy())
        for r in routed
    ]
    seq = len(windows[0])
    forward_ref(model, windows)
    for layer, (idx, wt, scores) in zip(layers, kept):
        last = layer.last_routing  # the uncached forward's: every position
        rows = np.arange(len(windows)) * seq + seq - 1
        assert np.array_equal(idx, last.expert_indices[rows])
        assert wt.tobytes() == last.expert_weights.data[rows].tobytes()
        assert scores.tobytes() == last.scores.data[rows].tobytes()
    engine.decode_step(np.array([1, 2, 3]), cache)
    for layer, r, (idx, wt, scores) in zip(layers, routed, kept):
        assert layer.last_routing is not r
        assert np.array_equal(r.expert_indices, idx)
        assert r.expert_weights.data.tobytes() == wt.tobytes()
        assert r.scores.data.tobytes() == scores.tobytes()
    cache.release()


def test_the_logits_are_the_callers():
    model = make_model("dmoe")
    engine = InferenceEngine(model)
    cache, _, (first,) = _decoded(engine, np.ones((2, 3), np.int64), 1, np.random.default_rng(0))
    kept = first.copy()
    second = engine.decode_step(np.array([4, 9]), cache)
    assert second is not first and np.array_equal(first, kept)
    cache.release()


# ----------------------------------------------------------------------
# A cache shorter than the model's window
# ----------------------------------------------------------------------
def _short_cache(engine, slots=2, length=8):
    cache = engine.new_cache(slots, max_seq_len=length)
    k_before = [layer.k.copy() for layer in cache.layers]
    return cache, k_before


def test_a_prefill_longer_than_the_cache_is_refused_before_any_row_is_written():
    engine = InferenceEngine(make_model("dmoe"))
    cache, k_before = _short_cache(engine)
    with pytest.raises(ValueError, match="KV cache full"):
        engine.prefill(np.ones((1, 12), np.int64), cache, slots=[0])
    assert not cache.lengths.any()
    for layer, before in zip(cache.layers, k_before):
        assert layer.k.tobytes() == before.tobytes()
    cache.release()


def test_decoding_past_the_caches_length_is_refused_before_any_row_is_written():
    engine = InferenceEngine(make_model("dmoe"))
    cache, _ = _short_cache(engine)
    engine.prefill(np.ones((2, 6), np.int64), cache)
    engine.decode_step(np.array([1, 2]), cache)
    engine.decode_step(np.array([1, 2]), cache)  # both slots now hold 8 rows
    lengths = cache.lengths.copy()
    k_before = [layer.k.copy() for layer in cache.layers]
    with pytest.raises(ValueError, match="KV cache full"):
        engine.decode_step(np.array([3, 4]), cache)
    assert np.array_equal(cache.lengths, lengths)
    for layer, before in zip(cache.layers, k_before):
        assert layer.k.tobytes() == before.tobytes()
    cache.release()
