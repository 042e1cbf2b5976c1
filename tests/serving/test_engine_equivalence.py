"""Bit-identity of KV-cached decode vs the uncached full-window forward.

The tentpole guarantee: for every step, the logits a decode step
(`repro.serving.plan.decode`) produces from the cache are *bitwise
equal* (``np.array_equal`` on fp32) to the last-position logits of a
full uncached ``forward`` over the same window inside
``inference_mode`` — across dense and every MoE variant, top-1 and
top-2 routing, batch composition changes, and sliding-window eviction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import ACTIVATIONS
from repro.autograd.tensor import inference_mode
from repro.nn import MLP, layers
from repro.serving.engine import InferenceEngine
from repro.serving.kv_cache import KVCache

from tests.serving.conftest import MAX_SEQ, VOCAB, make_model

SYSTEMS = [
    ("dense", 1),
    ("dmoe", 1),
    ("dmoe", 2),
    ("moe", 1),
    ("tutel-dmoe", 1),
]


def uncached_logits(model, ids: np.ndarray) -> np.ndarray:
    """Last-position logits of the full-window inference forward."""
    window = ids[:, -model.max_seq_len :]
    with inference_mode():
        return model.forward(window).logits.data[:, -1, :]


@pytest.mark.parametrize("system,top_k", SYSTEMS)
def test_cached_decode_bit_identical(system, top_k, prompts):
    model = make_model(system, top_k=top_k)
    engine = InferenceEngine(model)
    cache = engine.new_cache(prompts.shape[0])

    ids = prompts.copy()
    logits = engine.prefill(ids, cache)
    assert np.array_equal(logits, uncached_logits(model, ids))

    gen = np.random.default_rng(11)
    wobble = set()
    for _ in range(MAX_SEQ - prompts.shape[1]):
        # Random continuations so per-step tokens-per-expert wobbles.
        nxt = gen.integers(0, VOCAB, size=ids.shape[0])
        ids = np.concatenate([ids, nxt[:, None]], axis=1)
        logits = engine.decode_step(nxt, cache)
        assert np.array_equal(logits, uncached_logits(model, ids))
        if system != "dense":
            tpe = model.blocks[0].ffn.last_routing.expert_indices
            wobble.add(tuple(np.bincount(tpe.reshape(-1), minlength=4)))
    cache.release()
    if system != "dense":
        # The decode stream really did exercise shifting expert loads.
        assert len(wobble) > 1


@pytest.mark.parametrize("system", ["dense", "dmoe"])
def test_generate_matches_uncached_past_window(system, prompts):
    """Cached generate == uncached generate, token for token, through
    sliding-window eviction (re-prefill of the retained suffix)."""
    model = make_model(system)
    n_new = MAX_SEQ + 7  # force several window slides
    ref = model.generate(prompts, n_new, temperature=1.0, top_k=5, rng=17)
    got = InferenceEngine(model).generate(
        prompts, n_new, temperature=1.0, top_k=5, rng=17
    )
    assert np.array_equal(ref, got)


def test_generate_matches_uncached_greedy(prompts):
    model = make_model("dmoe", top_k=2)
    ref = model.generate(prompts, 10, temperature=0.0)
    got = InferenceEngine(model).generate(prompts, 10, temperature=0.0)
    assert np.array_equal(ref, got)


def test_cached_decode_spends_a_tenth_of_the_uncached_gemm_flops():
    """What the KV cache is for, as a count: 40 greedy tokens after a
    96-token prompt at batch 4 cost the uncached path one full-window
    forward per token and the cached path one prefill plus one row per
    token — same tokens, at most a tenth of the ``serve_gemm_flops``
    (it reads 38x; ``bench/`` times the same decode as
    ``serving.decode_step_ms_b4``)."""
    from repro.core import dMoE
    from repro.nn import TransformerLM
    from repro.observability import registry

    model = TransformerLM(
        vocab_size=256, hidden_size=64, num_layers=2, num_heads=4, max_seq_len=160,
        ffn_factory=lambda i: dMoE(64, 256, 8, block_size=8, rng=7), rng=0,
    )
    model.eval()
    prompts = np.random.default_rng(3).integers(0, 256, size=(4, 96))
    flops = registry().counter("serve_gemm_flops")

    def counted(generate):
        before = flops.value
        return generate(prompts, 40, temperature=0.0), flops.value - before

    # inference_mode: the full-window forwards go through the same
    # counted, row-stable kernels as the engine's.
    with inference_mode():
        ref, uncached = counted(model.generate)
    got, cached = counted(InferenceEngine(model).generate)
    assert np.array_equal(ref, got)
    assert cached > 0 and uncached / cached >= 10.0, (uncached, cached)


def test_decode_batch_composition_independence():
    """A sequence's logits don't depend on its decode-batch neighbors."""
    model = make_model("dmoe", top_k=2)
    engine = InferenceEngine(model)
    gen = np.random.default_rng(5)
    prompts = gen.integers(0, VOCAB, size=(3, 6))

    # Batched: all three sequences share every decode step.
    cache = engine.new_cache(3)
    batched = [engine.prefill(prompts, cache)]
    steps = gen.integers(0, VOCAB, size=(4, 3))
    for tok in steps:
        batched.append(engine.decode_step(tok, cache))
    cache.release()

    # Solo: each sequence decodes alone.
    for b in range(3):
        cache = engine.new_cache(1)
        solo = [engine.prefill(prompts[b : b + 1], cache)]
        for tok in steps:
            solo.append(engine.decode_step(tok[b : b + 1], cache))
        cache.release()
        for t, (sb, ss) in enumerate(zip(batched, solo)):
            assert np.array_equal(sb[b], ss[0]), (b, t)


def test_forward_step_slots_subset():
    """Decoding a subset of slots matches decoding them in a full batch."""
    model = make_model("dense")
    engine = InferenceEngine(model)
    gen = np.random.default_rng(9)
    prompts = gen.integers(0, VOCAB, size=(3, 4))

    ref_cache = engine.new_cache(3)
    engine.prefill(prompts, ref_cache)
    tok = gen.integers(0, VOCAB, size=3)
    ref = engine.decode_step(tok, ref_cache)
    ref_cache.release()

    cache = engine.new_cache(3)
    engine.prefill(prompts, cache)
    out02 = engine.decode_step(tok[[0, 2]], cache, slots=[0, 2])
    out1 = engine.decode_step(tok[[1]], cache, slots=[1])
    assert np.array_equal(out02[0], ref[0])
    assert np.array_equal(out02[1], ref[2])
    assert np.array_equal(out1[0], ref[1])
    assert list(cache.lengths) == [5, 5, 5]
    cache.release()


def test_forward_step_raises_when_full():
    model = make_model("dense")
    engine = InferenceEngine(model)
    cache = engine.new_cache(1)
    ids = np.random.default_rng(0).integers(0, VOCAB, size=(1, MAX_SEQ))
    engine.prefill(ids, cache)
    with pytest.raises(ValueError, match="full"):
        engine.decode_step(np.array([1]), cache)
    cache.release()


def test_untied_head_inference_path(prompts):
    model = make_model("dense")
    untied = make_model("dense")
    # Rebuild with an untied head to cover the Linear head branch.
    from tests.serving.conftest import HEADS, HIDDEN, LAYERS

    from repro.nn import TransformerLM

    untied = TransformerLM(
        vocab_size=VOCAB, hidden_size=HIDDEN, num_layers=LAYERS,
        num_heads=HEADS, max_seq_len=MAX_SEQ, tie_embeddings=False, rng=1,
    )
    untied.eval()
    engine = InferenceEngine(untied)
    cache = engine.new_cache(prompts.shape[0])
    logits = engine.prefill(prompts, cache)
    assert np.array_equal(logits, uncached_logits(untied, prompts))
    tok = prompts[:, -1]
    step = engine.decode_step(tok, cache)
    ids = np.concatenate([prompts, tok[:, None]], axis=1)
    assert np.array_equal(step, uncached_logits(untied, ids))
    cache.release()


def test_dense_serving_runs_every_block_linear_row_stable(prompts, monkeypatch):
    """The fused bias + GELU is a training op: under inference_mode a
    dense FFN's ``fc1`` takes the row-stable GEMM like the block's other
    Linears, so prefill and decode logits are those of the serving
    composition ``fc2(gelu(fc1(x)))``.  Prefill and decode run the dense
    ``MLP`` as one plan item, its own forward; the attention GEMMs are the
    plan's ``serve_gemm`` calls, bound once (:mod:`repro.serving.plan`)."""
    model = make_model("dense")
    engine = InferenceEngine(model)
    calls = []
    row_stable = layers.stable_linear

    def counted(x, weight, bias=None):
        calls.append(id(weight))
        return row_stable(x, weight, bias)

    monkeypatch.setattr(layers, "stable_linear", counted)

    plans = []

    def prefill_then_decode():
        cache = engine.new_cache(prompts.shape[0])
        logits = [engine.prefill(prompts, cache)]
        logits.append(engine.decode_step(prompts[:, -1], cache))
        plans.append(cache.plan)
        cache.release()
        return logits

    got = prefill_then_decode()
    (plan,) = plans
    for block in model.blocks:
        for linear in (block.attn.qkv, block.attn.proj):
            # Prefill and decode alike: the plan's serve_gemm call on the
            # same table, never the module's.
            assert calls.count(id(linear.weight.data)) == 0
            assert any(v is linear.weight.data for v in plan._values)
        for linear in (block.ffn.fc1, block.ffn.fc2):
            assert calls.count(id(linear.weight.data)) == 2  # prefill, decode

    monkeypatch.setattr(
        MLP, "forward",
        lambda self, x: self.fc2(ACTIVATIONS[self.activation](self.fc1(x))),
    )
    for g, want in zip(got, prefill_then_decode()):
        assert np.array_equal(g, want)
