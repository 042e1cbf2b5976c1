"""Inference serving: KV-cached decode vs full-window re-forward.

The uncached baseline (``TransformerLM.generate``) re-runs the whole
window every token: O(window) matmul work per generated token, O(window²)
per sequence.  The KV-cached :class:`repro.serving.InferenceEngine` pays
that cost once at prefill and then decodes each token against the cached
K/V — O(window) *attention* but O(1) *projection* work per token.  With
a long prompt the gap is the window length itself, so the acceptance bar
is a >=5x decode-throughput speedup.

Measured with the interleaved min-of-``REPS`` protocol the other step
benchmarks use (ambient host load hits both paths equally; the minimum
of interleaved rounds is the stable estimate).  Also measured here:

- continuous-batching scheduler latency percentiles (TTFT / per-token /
  per-step p50/p95/p99) under a mixed-length request stream, straight
  from the PR-4 metrics registry;
- int8 expert-weight quantization: the weight-byte ratio and the
  perplexity delta vs fp32 on a held-out token stream.

Results land in ``BENCH_serving.json`` next to this file.
"""

import gc
import time

import numpy as np

from repro.core import dMoE
from repro.nn import TransformerLM
from repro.autograd.tensor import inference_mode
from repro.observability import registry
from repro.serving import (
    ContinuousBatchingScheduler,
    InferenceEngine,
    Request,
    attach_quantized_experts,
    detach_quantized_experts,
)
from repro.utils.rng import seed_all

from harness import SMOKE, print_header, write_result

VOCAB = 256
HIDDEN = 64
HEADS = 4
LAYERS = 2
EXPERTS = 8
MAX_SEQ = 160
PROMPT_LEN = 96
BATCH = 4
NEW_TOKENS = 40 if SMOKE else 96
REPS = 3

#: Acceptance floor on cached-vs-uncached decode tokens/s.  Interleaved
#: same-process ratio, so host contention cancels; the theoretical gap
#: at these sizes (window ~100-190 re-encoded per uncached token) is far
#: larger, leaving headroom for the per-step Python dispatch the cached
#: path pays.
MIN_DECODE_SPEEDUP = 5.0

SCHED_REQUESTS = 8 if SMOKE else 24
PPL_TOKENS = 8 if SMOKE else 32  # eval rows for the int8 perplexity delta


def _build_model() -> TransformerLM:
    seed_all(0)
    return TransformerLM(
        vocab_size=VOCAB,
        hidden_size=HIDDEN,
        num_layers=LAYERS,
        num_heads=HEADS,
        max_seq_len=MAX_SEQ,
        ffn_factory=lambda i: dMoE(
            HIDDEN, 4 * HIDDEN, EXPERTS, top_k=1, block_size=8, rng=7
        ),
        rng=0,
    )


def _measure_decode(model, prompts):
    """Interleaved timing of uncached vs cached greedy generation."""
    engine = InferenceEngine(model)
    # Warmup both paths (arena pools, BLAS thread spin-up).
    uncached_tokens = model.generate(prompts, NEW_TOKENS, temperature=0.0)
    cached_tokens = engine.generate(prompts, NEW_TOKENS, temperature=0.0)

    times = {"uncached": [], "cached": []}
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            t0 = time.perf_counter()
            model.generate(prompts, NEW_TOKENS, temperature=0.0)
            times["uncached"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            engine.generate(prompts, NEW_TOKENS, temperature=0.0)
            times["cached"].append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return uncached_tokens, cached_tokens, times


def _scheduler_latencies(model):
    """Drain a mixed-length stream; return percentile summaries."""
    engine = InferenceEngine(model)
    gen = np.random.default_rng(11)
    requests = [
        Request(
            prompt=gen.integers(0, VOCAB, size=int(gen.integers(8, PROMPT_LEN))),
            max_new_tokens=int(gen.integers(4, NEW_TOKENS + 1)),
            temperature=0.8,
            top_k=20,
            seed=500 + i,
        )
        for i in range(SCHED_REQUESTS)
    ]
    reg = registry()
    before = {
        name: reg.histogram(name).summary()["count"]
        for name in ("serving/ttft_ms", "serving/token_latency_ms", "serving/step_ms")
    }
    sched = ContinuousBatchingScheduler(engine, max_batch_size=BATCH)
    t0 = time.perf_counter()
    results = sched.run(requests)
    wall = time.perf_counter() - t0
    table = sched.latency_table()
    sched.close()

    assert len(results) == SCHED_REQUESTS
    summaries = {}
    for name in before:
        s = reg.histogram(name).summary()
        assert s["count"] > before[name], f"{name} never observed"
        summaries[name.split("/", 1)[1]] = {
            k: s[k] for k in ("count", "p50", "p95", "p99", "mean")
        }
    generated = sum(r.new_tokens for r in results)
    return results, summaries, generated / wall, sched.peak_concurrency, table


def _perplexity(model, eval_ids) -> float:
    """Mean next-token perplexity under the inference kernels (f64 NLL)."""
    with inference_mode():
        logits = model.forward(eval_ids).logits.data
    logits = logits[:, :-1, :].astype(np.float64)
    targets = eval_ids[:, 1:]
    logits -= logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(logits).sum(axis=-1))
    tok_logp = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return float(np.exp(-(tok_logp - logz).mean()))


def test_serving(benchmark):
    model = _build_model()
    gen = np.random.default_rng(3)
    prompts = gen.integers(0, VOCAB, size=(BATCH, PROMPT_LEN))

    uncached_tokens, cached_tokens, times = benchmark.pedantic(
        lambda: _measure_decode(model, prompts), rounds=1, iterations=1
    )

    total_new = BATCH * NEW_TOKENS
    uncached_s = min(times["uncached"])
    cached_s = min(times["cached"])
    speedup = uncached_s / cached_s
    uncached_tps = total_new / uncached_s
    cached_tps = total_new / cached_s

    # The cached path must be a drop-in: same greedy tokens.
    assert np.array_equal(uncached_tokens, cached_tokens), (
        "cached generation diverged from the uncached baseline"
    )

    results, latencies, sched_tps, peak_conc, table = _scheduler_latencies(model)

    # int8 expert weights: byte ratio and perplexity delta vs fp32.
    eval_ids = gen.integers(0, VOCAB, size=(PPL_TOKENS, MAX_SEQ))
    ppl_fp32 = _perplexity(model, eval_ids)
    quant_report = attach_quantized_experts(model)
    ppl_int8 = _perplexity(model, eval_ids)
    detach_quantized_experts(model)

    print_header("Serving: KV-cached decode vs full-window re-forward")
    print(f"{'path':18} {'total':>10} {'tokens/s':>12}")
    print(f"{'uncached':18} {uncached_s * 1e3:>8.1f}ms {uncached_tps:>12.1f}")
    print(f"{'KV-cached':18} {cached_s * 1e3:>8.1f}ms {cached_tps:>12.1f}")
    print(
        f"decode speedup = {speedup:.2f}x "
        f"(B={BATCH}, prompt={PROMPT_LEN}, new={NEW_TOKENS}, window<={MAX_SEQ})"
    )
    print(f"scheduler: {sched_tps:.1f} tok/s, peak concurrency {peak_conc}")
    print(table)
    print(
        f"int8 experts: {quant_report['ratio']:.2f}x weight bytes "
        f"({quant_report['fp32_bytes']} -> {quant_report['int8_bytes']}), "
        f"ppl {ppl_fp32:.4f} -> {ppl_int8:.4f} "
        f"(delta {ppl_int8 - ppl_fp32:+.4f})"
    )

    result = {
        "config": (
            f"dMoE L{LAYERS} H{HIDDEN} E{EXPERTS} vocab{VOCAB} "
            f"max_seq{MAX_SEQ}"
        ),
        "smoke": SMOKE,
        "batch": BATCH,
        "prompt_len": PROMPT_LEN,
        "new_tokens": NEW_TOKENS,
        "reps": REPS,
        "uncached_s": uncached_s,
        "cached_s": cached_s,
        "uncached_tokens_per_s": uncached_tps,
        "cached_tokens_per_s": cached_tps,
        "decode_speedup": speedup,
        "min_decode_speedup": MIN_DECODE_SPEEDUP,
        "scheduler": {
            "requests": SCHED_REQUESTS,
            "max_batch_size": BATCH,
            "tokens_per_s": sched_tps,
            "peak_concurrency": peak_conc,
            "latency_ms": latencies,
        },
        "int8": {
            "ratio": quant_report["ratio"],
            "fp32_bytes": quant_report["fp32_bytes"],
            "int8_bytes": quant_report["int8_bytes"],
            "ppl_fp32": ppl_fp32,
            "ppl_int8": ppl_int8,
            "ppl_delta": ppl_int8 - ppl_fp32,
        },
    }
    write_result("BENCH_serving.json", result)

    # Interleaved same-process ratio — load-stable, so this gate is firm.
    assert speedup >= MIN_DECODE_SPEEDUP, (
        f"KV-cached decode only {speedup:.2f}x over the uncached baseline "
        f"(< {MIN_DECODE_SPEEDUP}x)"
    )
    # Mixed-length stream actually exercised continuous batching...
    assert peak_conc >= 2
    # ...and the percentile plumbing produced ordered, finite readings.
    for name, s in latencies.items():
        assert 0 <= s["p50"] <= s["p95"] <= s["p99"], name
    # int8: ~4x byte cut with a small quality delta at these sizes.
    assert quant_report["ratio"] > 3.5
    assert abs(ppl_int8 - ppl_fp32) / ppl_fp32 < 0.05
