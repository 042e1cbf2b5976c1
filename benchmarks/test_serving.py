"""Inference serving: KV-cached decode vs full-window re-forward.

The uncached baseline re-runs the whole window every token: O(window)
matmul work per generated token, O(window²) per sequence.  The KV-cached
:class:`repro.serving.InferenceEngine` pays that cost once at prefill and
then decodes each token against the cached K/V — O(window) *attention*
but O(1) *projection* work per token.

The ordering is gated on a quantity that does not drift with host load:
**serving-GEMM FLOPs per generated token**, read from the registry
counters every serving GEMM adds to (``serve_gemm_flops``,
:mod:`repro.serving.kernels`).  The cached path must spend at most a
tenth of the uncached path's, and emit the same tokens.  The wall-clock
ratio (interleaved min-of-``REPS``, uncached = ``model.generate`` on the
training kernels) is still measured, printed and recorded, but nothing is
asserted on it — on a loaded 2-vCPU host it failed 3 runs in 5 on
unchanged code.  Also measured here:

- continuous-batching scheduler latency percentiles (TTFT / per-token /
  per-step p50/p95/p99) under a mixed-length request stream, straight
  from the PR-4 metrics registry;
- int8 expert-weight quantization: the weight-byte ratio and the
  perplexity delta vs fp32 on a held-out token stream.

Results land in ``BENCH_serving.json`` under ``harness.RESULT_DIR`` (path printed).
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

#: The cached path may spend at most 1/MIN_FLOP_RATIO of the uncached
#: path's serving-GEMM FLOPs per generated token.  A count, not a time:
#: uncached re-encodes a ~100-190 token window per token, cached encodes
#: the prompt once plus one row per token, so the true ratio is ~30-70x.
MIN_FLOP_RATIO = 10.0

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


def _gemm_flops(fn):
    """``(fn(), serving-GEMM FLOPs it spent)``."""
    counter = registry().counter("serve_gemm_flops")
    before = counter.value
    out = fn()
    return out, counter.value - before


def _measure_decode(model, prompts):
    """FLOP counts of both paths, then their interleaved timing."""
    engine = InferenceEngine(model)
    # One counted pass per path; doubles as the warmup (arena pools, BLAS
    # thread spin-up, kernel binding).  The uncached pass runs inside
    # inference_mode so its full-window forwards go through the same
    # counted, row-stable kernels — which also makes its logits, hence
    # its tokens, bit-equal to the cached path's.
    def uncached():
        with inference_mode():
            return model.generate(prompts, NEW_TOKENS, temperature=0.0)

    uncached_tokens, uncached_flops = _gemm_flops(uncached)
    cached_tokens, cached_flops = _gemm_flops(
        lambda: engine.generate(prompts, NEW_TOKENS, temperature=0.0)
    )
    model.generate(prompts, NEW_TOKENS, temperature=0.0)  # timed baseline warmup

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
    flops = {"uncached": uncached_flops, "cached": cached_flops}
    return uncached_tokens, cached_tokens, times, flops


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

    uncached_tokens, cached_tokens, times, flops = benchmark.pedantic(
        lambda: _measure_decode(model, prompts), rounds=1, iterations=1
    )

    total_new = BATCH * NEW_TOKENS
    uncached_flops_per_tok = flops["uncached"] / total_new
    cached_flops_per_tok = flops["cached"] / total_new
    flop_ratio = uncached_flops_per_tok / cached_flops_per_tok
    uncached_s = min(times["uncached"])
    cached_s = min(times["cached"])
    speedup = uncached_s / cached_s
    uncached_tps = total_new / uncached_s
    cached_tps = total_new / cached_s

    # The cached path must be a drop-in: same greedy tokens...
    assert np.array_equal(uncached_tokens, cached_tokens), (
        "cached generation diverged from the uncached baseline"
    )
    # ...for at most a tenth of the GEMM work per token.  Counts, not
    # clocks: this holds or fails identically on any host under any load.
    assert flops["cached"] > 0 and flop_ratio >= MIN_FLOP_RATIO, (
        f"KV-cached decode spends {cached_flops_per_tok:.3g} GEMM FLOPs per "
        f"token vs {uncached_flops_per_tok:.3g} uncached "
        f"({flop_ratio:.1f}x, need >= {MIN_FLOP_RATIO}x)"
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
        f"decode speedup = {speedup:.2f}x wall clock (reported, not gated; "
        f"B={BATCH}, prompt={PROMPT_LEN}, new={NEW_TOKENS}, window<={MAX_SEQ})"
    )
    print(
        f"GEMM MFLOPs per generated token: uncached {uncached_flops_per_tok / 1e6:.2f}"
        f", cached {cached_flops_per_tok / 1e6:.2f}  ({flop_ratio:.1f}x, "
        f"gate >= {MIN_FLOP_RATIO}x)"
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
        "uncached_gemm_flops_per_token": uncached_flops_per_tok,
        "cached_gemm_flops_per_token": cached_flops_per_tok,
        "gemm_flop_ratio": flop_ratio,
        "min_gemm_flop_ratio": MIN_FLOP_RATIO,
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

    # Mixed-length stream actually exercised continuous batching...
    assert peak_conc >= 2
    # ...and the percentile plumbing produced ordered, finite readings.
    for name, s in latencies.items():
        assert 0 <= s["p50"] <= s["p95"] <= s["p99"], name
    # int8: ~4x byte cut with a small quality delta at these sizes.
    assert quant_report["ratio"] > 3.5
    assert abs(ppl_int8 - ppl_fp32) / ppl_fp32 < 0.05
