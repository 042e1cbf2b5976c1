"""Continuous-batching scheduler: correctness under mixed-length streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.observability.metrics import registry
from repro.serving.engine import InferenceEngine
from repro.utils.sampling import sample_rows
from repro.serving.scheduler import ContinuousBatchingScheduler, GenerationResult, Request

from tests.serving.conftest import MAX_SEQ, VOCAB, make_model


def _mixed_requests(n: int, seed: int = 0, eos=None):
    gen = np.random.default_rng(seed)
    reqs = []
    for i in range(n):
        plen = int(gen.integers(2, 9))
        reqs.append(
            Request(
                prompt=gen.integers(0, VOCAB, size=plen),
                max_new_tokens=int(gen.integers(3, MAX_SEQ + 6)),
                temperature=0.8,
                top_k=7,
                eos_token_id=eos,
                seed=1000 + i,
            )
        )
    return reqs


@pytest.mark.parametrize("system", ["dense", "dmoe"])
def test_results_match_solo_generate(system):
    """Every scheduled request's tokens == a solo ``engine.generate`` run.

    This is the end-to-end batch-composition-independence guarantee:
    mixed prompt lengths, staggered admission, mid-flight eviction — and
    still bit-equal to running each request alone with its own seed.
    """
    model = make_model(system)
    engine = InferenceEngine(model)
    reqs = _mixed_requests(6, seed=4)
    sched = ContinuousBatchingScheduler(engine, max_batch_size=3)
    results = sched.run([Request(**{
        "prompt": r.prompt, "max_new_tokens": r.max_new_tokens,
        "temperature": r.temperature, "top_k": r.top_k,
        "eos_token_id": r.eos_token_id, "seed": r.seed,
    }) for r in reqs])
    sched.close()

    assert len(results) == len(reqs)
    assert sched.peak_concurrency <= 3
    for res, req in zip(results, reqs):
        solo = engine.generate(
            req.prompt[None, :], req.max_new_tokens,
            temperature=req.temperature, top_k=req.top_k,
            eos_token_id=req.eos_token_id, rng=req.seed,
        )[0]
        assert np.array_equal(res.tokens, solo), res.request_id
        assert res.prompt_len == len(req.prompt)
        assert res.new_tokens == res.tokens.size - len(req.prompt)
        assert res.finish_reason == "length"


def test_requests_admitted_in_one_step_keep_their_own_prefill_logits():
    """Two requests admitted by one step: each solo prefill hands back
    fresh logits, so the first sequence's row survives the second's
    prefill — and both emit what they emit alone."""
    engine = InferenceEngine(make_model("dmoe"))
    reqs = [
        Request(prompt=(np.arange(3 + 2 * i) * 7) % VOCAB, max_new_tokens=5,
                temperature=1.0, seed=70 + i)
        for i in range(2)
    ]
    prefills = []

    def prefill(*args, **kwargs):
        logits = InferenceEngine.prefill(engine, *args, **kwargs)
        prefills.append((logits, logits.copy()))
        return logits

    engine.prefill = prefill
    sched = ContinuousBatchingScheduler(engine, max_batch_size=2)
    for req in reqs:
        sched.submit(req)
    assert sched.step() == [] and len(prefills) == 2  # both admitted in one step
    assert prefills[0][0] is not prefills[1][0]
    for logits, kept in prefills:
        assert np.array_equal(logits, kept)
    results = sched.run()
    sched.close()
    assert [r.request_id for r in results] == [0, 1]
    for res, req in zip(results, reqs):
        solo = engine.generate(req.prompt[None, :], 5, temperature=1.0, rng=req.seed)[0]
        assert np.array_equal(res.tokens, solo)


def test_results_match_solo_generate_through_the_bound_sampler():
    """Requests that share ``temperature > 0`` without a top-k cut: the
    scheduler samples its batch straight from the decode's output, each
    sequence drawing from its own generator — and every request still
    emits what it emits alone."""
    engine = InferenceEngine(make_model("dmoe", top_k=2))
    reqs = [
        Request(prompt=np.arange(2 + i) % VOCAB, max_new_tokens=MAX_SEQ + i,
                temperature=1.0, seed=500 + i)
        for i in range(5)
    ]
    sched = ContinuousBatchingScheduler(engine, max_batch_size=3)
    results = sched.run(reqs)
    sched.close()
    for res, req in zip(results, reqs):
        solo = engine.generate(
            req.prompt[None, :], req.max_new_tokens, temperature=1.0, rng=req.seed
        )[0]
        assert np.array_equal(res.tokens, solo), res.request_id


def test_mid_flight_admission():
    """Requests submitted after stepping join without disturbing others."""
    model = make_model("dense")
    engine = InferenceEngine(model)
    sched = ContinuousBatchingScheduler(engine, max_batch_size=2)
    first = _mixed_requests(2, seed=7)
    for r in first:
        sched.submit(r)
    for _ in range(2):
        sched.step()
    late = Request(
        prompt=np.arange(4) % VOCAB, max_new_tokens=5,
        temperature=0.5, top_k=3, seed=99,
    )
    sched.submit(late)
    results = sched.run()
    sched.close()
    assert sorted(r.request_id for r in results) == [0, 1, 2]
    late_res = [r for r in results if r.request_id == 2][0]
    solo = engine.generate(
        late.prompt[None, :], 5, temperature=0.5, top_k=3, rng=99
    )[0]
    assert np.array_equal(late_res.tokens, solo)


def _shared_stream_tokens(engine, prompts, settings, new, seed, order):
    """Each prompt decoded alone, one generator seeded ``seed`` drawn by
    the sequences in ``order`` at every step: what a scheduler sharing
    that generator across the batch must serve."""
    gen = np.random.default_rng(seed)
    caches = [engine.new_cache(1) for _ in prompts]
    logits = [engine.prefill(p[None], c)[0] for p, c in zip(prompts, caches)]
    tokens = [list(p) for p in prompts]
    for step in range(new):
        for i in order:
            temperature, top_k = settings[i]
            tokens[i].append(int(sample_rows(logits[i][None], temperature, top_k, [gen])[0]))
        if step < new - 1:
            logits = [
                engine.decode_step(np.array([t[-1]]), c)[0] for t, c in zip(tokens, caches)
            ]
    for c in caches:
        c.release()
    return tokens


def test_a_shared_generator_draws_each_setting_in_first_appearance_order():
    """Three requests share one ``Generator``; the first and the third
    share a sampling setting, the second has its own.  Every step draws
    the first setting's rows in batch order, then the second's — the
    first, the third, the second — not the batch order."""
    engine = InferenceEngine(make_model("dense"))
    prompts = np.random.default_rng(5).integers(0, VOCAB, (3, 4))
    settings = [(0.8, 7), (1.3, None), (0.8, 7)]
    shared = np.random.default_rng(77)
    sched = ContinuousBatchingScheduler(engine, max_batch_size=3)
    results = sched.run([
        Request(prompt=p, max_new_tokens=5, temperature=t, top_k=k, seed=shared)
        for p, (t, k) in zip(prompts, settings)
    ])
    sched.close()
    want = _shared_stream_tokens(engine, prompts, settings, 5, 77, order=(0, 2, 1))
    assert [r.tokens.tolist() for r in results] == want
    assert want != _shared_stream_tokens(engine, prompts, settings, 5, 77, order=(0, 1, 2))


def test_eos_finish_reason_and_early_eviction():
    """A request whose eos fires finishes with reason "eos" and stops
    consuming tokens at the eos position."""
    model = make_model("dense")
    engine = InferenceEngine(model)
    # Pick an eos id that actually gets sampled early: run greedy once
    # and use the first generated token as eos for the real run.
    probe = engine.generate(np.array([[1, 2, 3]]), 1, temperature=0.0)
    eos = int(probe[0, -1])
    sched = ContinuousBatchingScheduler(engine, max_batch_size=2)
    req = Request(
        prompt=np.array([1, 2, 3]), max_new_tokens=10,
        temperature=0.0, eos_token_id=eos,
    )
    results = sched.run([req])
    sched.close()
    assert results[0].finish_reason == "eos"
    assert results[0].tokens[-1] == eos
    assert results[0].new_tokens == 1  # stopped immediately


def test_token_budget_bounds_concurrency():
    model = make_model("dense")
    engine = InferenceEngine(model)
    reqs = _mixed_requests(5, seed=11)
    # Budget for roughly one peak window: sequences must mostly run solo.
    sched = ContinuousBatchingScheduler(
        engine, max_batch_size=4, token_budget=MAX_SEQ
    )
    results = sched.run(reqs)
    sched.close()
    assert len(results) == 5
    assert sched.peak_concurrency <= 2  # one active + one over-budget solo

    # Same stream, roomy budget: concurrency actually rises.
    engine2 = InferenceEngine(make_model("dense"))
    sched2 = ContinuousBatchingScheduler(engine2, max_batch_size=4)
    results2 = sched2.run(_mixed_requests(5, seed=11))
    sched2.close()
    assert sched2.peak_concurrency > 2
    for a, b in zip(results, results2):
        assert np.array_equal(a.tokens, b.tokens)  # budget never changes output


def test_over_budget_request_admitted_when_idle():
    """A single request bigger than the budget still runs (no deadlock)."""
    model = make_model("dense")
    engine = InferenceEngine(model)
    sched = ContinuousBatchingScheduler(engine, max_batch_size=2, token_budget=4)
    req = Request(prompt=np.arange(6) % VOCAB, max_new_tokens=4, seed=0)
    results = sched.run([req])
    sched.close()
    assert len(results) == 1
    assert results[0].new_tokens == 4


def test_sliding_window_sequences_complete():
    """Requests whose windows slide past max_seq_len finish correctly."""
    model = make_model("dense")
    engine = InferenceEngine(model)
    req = Request(
        prompt=np.arange(5) % VOCAB, max_new_tokens=MAX_SEQ + 6,
        temperature=0.7, top_k=5, seed=21,
    )
    sched = ContinuousBatchingScheduler(engine, max_batch_size=2)
    results = sched.run([req])
    sched.close()
    solo = engine.generate(
        req.prompt[None, :], MAX_SEQ + 6, temperature=0.7, top_k=5, rng=21
    )[0]
    assert np.array_equal(results[0].tokens, solo)


def test_submit_validation():
    engine = InferenceEngine(make_model("dense"))
    sched = ContinuousBatchingScheduler(engine, max_batch_size=1)
    with pytest.raises(ValueError, match="empty prompt"):
        sched.submit(Request(prompt=np.array([], dtype=np.int64), max_new_tokens=3))
    with pytest.raises(ValueError, match="max_new_tokens"):
        sched.submit(Request(prompt=np.array([1]), max_new_tokens=0))
    sched.close()


def test_metrics_populated():
    reg = registry()
    before_reqs = reg.counter("serving/requests").value
    before_ttft = reg.histogram("serving/ttft_ms").summary()["count"]

    engine = InferenceEngine(make_model("dense"))
    sched = ContinuousBatchingScheduler(engine, max_batch_size=2)
    reqs = _mixed_requests(3, seed=13)
    results = sched.run(reqs)
    table = sched.latency_table()
    sched.close()

    assert reg.counter("serving/requests").value == before_reqs + 3
    ttft = reg.histogram("serving/ttft_ms").summary()
    assert ttft["count"] == before_ttft + 3
    assert ttft["p50"] <= ttft["p95"] <= ttft["p99"]
    tok = reg.histogram("serving/token_latency_ms").summary()
    assert tok["count"] >= sum(r.new_tokens for r in results)
    assert "serving/ttft_ms" in table and "p99" in table
    for r in results:
        assert r.ttft_s >= 0.0
        assert r.total_s >= r.ttft_s


def test_gemm_work_is_counted_and_printed():
    """Every step's serving-GEMM and attention FLOPs land in the registry
    and on the scheduler; the table prints the calls by rung and each kind
    of work on its own line with its achieved rate."""
    reg = registry()
    flops_before = reg.counter("serve_gemm_flops").value
    calls_before = reg.counter("serve_gemm_calls").value
    attn_before = reg.counter("serve_attn_flops").value
    engine = InferenceEngine(make_model("dmoe"))
    sched = ContinuousBatchingScheduler(engine, max_batch_size=2)
    sched.run(_mixed_requests(3, seed=21))
    table = sched.latency_table()
    sched.close()

    spent = reg.counter("serve_gemm_flops").value - flops_before
    assert spent > 0 and sched.step_gemm_flops == spent
    attn = reg.counter("serve_attn_flops").value - attn_before
    assert attn > 0 and sched.step_attn_flops == attn
    assert sched.step_seconds > 0
    calls = reg.counter("serve_gemm_calls").value - calls_before
    native = reg.counter("lower_direct_calls").value
    fallbacks = (
        reg.counter("lower_toolchain_fallbacks").value
        + reg.counter("lower_segment_fallbacks").value
    )
    assert calls > 0 and (native > 0 or fallbacks > 0)
    for field in ("native=", "fallbacks="):
        assert field in table
    lines = table.splitlines()
    for kind in ("gemm", "attn"):
        line = next(l for l in lines if f"{kind}_calls=" in l)
        assert f"{kind}_gflop=" in line and line.endswith("GFLOP/s of step wall")
