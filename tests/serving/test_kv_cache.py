"""KVCache sizing, length bookkeeping, and buffers the cache owns."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.arena import get_arena
from repro.serving.engine import InferenceEngine
from repro.serving.kv_cache import KVCache

from tests.serving.conftest import HEADS, HIDDEN, LAYERS, MAX_SEQ, VOCAB, make_model

HEAD_DIM = HIDDEN // HEADS


def test_for_model_shapes_and_dtype():
    model = make_model("dense")
    cache = KVCache.for_model(model, batch_slots=3)
    assert len(cache.layers) == LAYERS
    for layer in cache.layers:
        assert layer.k.shape == (3, HEADS, HEAD_DIM, MAX_SEQ)  # keys transposed
        assert layer.v.shape == (3, HEADS, MAX_SEQ, HEAD_DIM)
        assert layer.k.dtype == np.float32
    assert cache.max_seq_len == MAX_SEQ
    assert list(cache.lengths) == [0, 0, 0]
    assert cache.nbytes == LAYERS * 2 * 3 * HEADS * MAX_SEQ * HEAD_DIM * 4
    cache.release()
    assert cache.layers == []


def test_for_model_max_seq_len_override():
    model = make_model("dense")
    cache = KVCache.for_model(model, batch_slots=1, max_seq_len=8)
    assert cache.layers[0].k.shape == (1, HEADS, HEAD_DIM, 8)
    assert cache.layers[0].v.shape == (1, HEADS, 8, HEAD_DIM)
    assert cache.remaining(0) == 8
    cache.release()


def test_lengths_maintained_by_prefill_and_step():
    model = make_model("dense")
    engine = InferenceEngine(model)
    cache = engine.new_cache(2)
    prompts = np.random.default_rng(0).integers(0, VOCAB, size=(2, 6))
    engine.prefill(prompts, cache)
    assert list(cache.lengths) == [6, 6]
    assert cache.remaining(0) == MAX_SEQ - 6
    engine.decode_step(np.array([1, 2]), cache)
    assert list(cache.lengths) == [7, 7]
    cache.reset([1])
    assert list(cache.lengths) == [7, 0]
    cache.reset()
    assert list(cache.lengths) == [0, 0]
    cache.release()


def test_cache_survives_arena_generation_reclaim():
    """A cache's own K/V arrays outlive ``next_generation`` (the arena's
    per-step reclaim): they never came from the arena."""
    model = make_model("dense")
    engine = InferenceEngine(model)
    cache = engine.new_cache(4)
    prompts = np.random.default_rng(1).integers(0, VOCAB, size=(4, 5))
    logits = engine.prefill(prompts, cache)
    # Compare only the written prefix: rows past the prefill length are
    # uninitialized memory (may hold NaN, which breaks array_equal).
    k_snapshot = cache.layers[0].k[..., :5].copy()

    get_arena().next_generation()

    assert np.array_equal(cache.layers[0].k[..., :5], k_snapshot)
    step = engine.decode_step(prompts[:, -1], cache)
    assert step.shape == (4, VOCAB)
    assert np.isfinite(step).all()
    cache.release()


def test_context_manager_releases():
    model = make_model("dense")
    with KVCache.for_model(model, batch_slots=1) as cache:
        assert len(cache.layers) == LAYERS
    assert cache.layers == []


def test_prefill_slots_writes_only_targeted_rows():
    model = make_model("dense")
    engine = InferenceEngine(model)
    cache = engine.new_cache(3)
    prompts = np.random.default_rng(2).integers(0, VOCAB, size=(3, 4))
    engine.prefill(prompts, cache)
    k_before = cache.layers[0].k.copy()

    other = np.random.default_rng(3).integers(0, VOCAB, size=(1, 4))
    cache.reset([1])
    engine.prefill(other, cache, slots=[1])
    # Only the written prefix: rows past the prefill length are
    # uninitialized memory (may hold NaN, which breaks array_equal).
    k = cache.layers[0].k
    assert np.array_equal(k[0, ..., :4], k_before[0, ..., :4])
    assert np.array_equal(k[2, ..., :4], k_before[2, ..., :4])
    assert not np.array_equal(k[1, ..., :4], k_before[1, ..., :4])
    assert list(cache.lengths) == [4, 4, 4]
    cache.release()
