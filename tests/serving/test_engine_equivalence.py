"""Bit-identity of KV-cached decode vs the uncached full-window forward.

The tentpole guarantee: for every step, the logits a decode step
(`repro.serving.plan.decode`) produces from the cache are *bitwise
equal* (``np.array_equal`` on fp32) to the last-position logits of the
uncached full-window forward over the same window — the straight-line
NumPy oracle of :mod:`tests.serving.oracle` — across dense and every MoE
variant, top-1 and top-2 routing, batch composition changes, and
sliding-window eviction.  A served step calls no module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import VariableSizedDMoE, dMoE
from repro.nn import Module, TransformerLM
from repro.observability import registry
from repro.serving.engine import InferenceEngine

from tests.serving.conftest import FFN, HEADS, HIDDEN, LAYERS, MAX_SEQ, VOCAB, make_model
from tests.serving.oracle import forward_flops, forward_ref

SYSTEMS = [
    ("dense", 1),
    ("dmoe", 1),
    ("dmoe", 2),
    ("moe", 1),
    ("tutel-dmoe", 1),
]


def uncached_logits(model, ids: np.ndarray) -> np.ndarray:
    """Last-position logits of the uncached full-window forward."""
    return forward_ref(model, ids[:, -model.max_seq_len :])[:, -1, :]


def untied_model(ffn_factory=None) -> TransformerLM:
    model = TransformerLM(
        vocab_size=VOCAB, hidden_size=HIDDEN, num_layers=LAYERS, num_heads=HEADS,
        max_seq_len=MAX_SEQ, ffn_factory=ffn_factory, tie_embeddings=False, rng=1,
    )
    model.eval()
    return model


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
    forward per token (its FLOPs from the model's shape) and the cached
    path one prefill plus one row per token — at most a tenth of the
    ``serve_gemm_flops`` (it reads 38x; ``bench/`` times the same decode
    as ``serving.decode_step_ms_b4``).  Every token is the argmax of the
    oracle's logits at the position before it."""
    model = TransformerLM(
        vocab_size=256, hidden_size=64, num_layers=2, num_heads=4, max_seq_len=160,
        ffn_factory=lambda i: dMoE(64, 256, 8, block_size=8, rng=7), rng=0,
    )
    model.eval()
    prompts = np.random.default_rng(3).integers(0, 256, size=(4, 96))
    flops = registry().counter("serve_gemm_flops")
    before = flops.value
    got = InferenceEngine(model).generate(prompts, 40, temperature=0.0)
    cached = flops.value - before
    batch, seq = prompts.shape
    uncached = sum(forward_flops(model, batch * (seq + i)) for i in range(40))
    assert cached > 0 and uncached / cached >= 10.0, (uncached, cached)
    logits = forward_ref(model, got[:, :-1])[:, seq - 1 :]
    assert np.array_equal(got[:, seq:], logits.argmax(axis=-1))


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
    untied = untied_model()
    engine = InferenceEngine(untied)
    cache = engine.new_cache(prompts.shape[0])
    logits = engine.prefill(prompts, cache)
    assert np.array_equal(logits, uncached_logits(untied, prompts))
    tok = prompts[:, -1]
    step = engine.decode_step(tok, cache)
    ids = np.concatenate([prompts, tok[:, None]], axis=1)
    assert np.array_equal(step, uncached_logits(untied, ids))
    cache.release()


def test_dense_serving_runs_every_block_linear_row_stable(prompts):
    """A dense FFN is the plan's own: ``fc1`` and ``fc2`` are ``serve_gemm``
    items on tables the plan holds, like the attention GEMMs, around the
    activation the oracle applies — so prefill and decode logits are those
    of ``fc2(act(fc1(x)))`` through the row-stable GEMM, not the training
    model's fused bias + GELU."""
    model = make_model("dense")
    engine = InferenceEngine(model)
    cache = engine.new_cache(prompts.shape[0])
    assert np.array_equal(engine.prefill(prompts, cache), uncached_logits(model, prompts))
    ids = np.concatenate([prompts, prompts[:, :1]], axis=1)
    assert np.array_equal(engine.decode_step(prompts[:, 0], cache), uncached_logits(model, ids))
    for block in model.blocks:
        for linear in (block.attn.qkv, block.attn.proj, block.ffn.fc1, block.ffn.fc2):
            assert any(v is linear.weight.data for v in cache.plan._values)
    cache.release()


@pytest.mark.parametrize(
    "system,top_k,variant",
    [(system, top_k, None) for system, top_k in SYSTEMS]
    + [("dmoe", 2, "int8"), ("dmoe", 2, "untied")],
)
def test_a_served_step_calls_no_module(system, top_k, variant, prompts, monkeypatch):
    """Prefill and decode with ``Module.__call__`` refusing: the plan's
    calls are the kernel table's and NumPy's, for every FFN it serves."""
    if variant == "untied":
        model = untied_model(lambda i: dMoE(HIDDEN, FFN, 4, top_k=top_k, block_size=8, rng=0))
    else:
        model = make_model(system, top_k=top_k)
    engine = InferenceEngine(model, quantize_experts="int8" if variant == "int8" else None)
    cache = engine.new_cache(prompts.shape[0])

    def refuse(module, *args, **kwargs):
        raise AssertionError(f"a served step called a {type(module).__name__}")

    with monkeypatch.context() as m:
        m.setattr(Module, "__call__", refuse)
        first = engine.prefill(prompts, cache)
        step = engine.decode_step(prompts[:, 0], cache)
    cache.release()
    assert np.array_equal(first, uncached_logits(model, prompts))
    ids = np.concatenate([prompts, prompts[:, :1]], axis=1)
    assert np.array_equal(step, uncached_logits(model, ids))


def test_a_block_ffn_the_plan_cannot_serve_raises_at_build():
    """The plan binds a dense ``MLP`` or an MoE layer; any other FFN is
    refused when the plan is built, before a row is written."""
    model = TransformerLM(
        vocab_size=VOCAB, hidden_size=HIDDEN, num_layers=LAYERS, num_heads=HEADS,
        max_seq_len=MAX_SEQ, rng=0,
        ffn_factory=lambda i: VariableSizedDMoE(HIDDEN, [32, 64, 32, 64], block_size=8, rng=0),
    )
    model.eval()
    engine = InferenceEngine(model)
    cache = engine.new_cache(1)
    with pytest.raises(TypeError, match="VariableSizedDMoE"):
        engine.prefill(np.ones((1, 3), np.int64), cache)
    assert not cache.lengths.any()
    cache.release()
