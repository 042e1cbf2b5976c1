"""The serving entries of the kernel table against their NumPy
references, bit for bit.

Differential: every GEMM entry point over a grid of awkward shapes and
over hypothesis-drawn ones, special values, non-owning inputs; the
attention pair over drawn heads, head sizes and ragged lengths.
Property: row ``t`` of a batched call equals the single-row call
(row-stability), the MoE reference's grouped product
(``grouped_rows_gemm``) is the per-group ``astype -> einsum -> *= -> +=``
sequence, an attention row is the same alone, in a prefill and in any
decode batch, and keys past its length change no bit.  Failure paths: every way to lose the
prelude lands on the references with one warning, counted, and identical
tokens; a clean train-then-serve run counts no fallback at all.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import lower
from repro.autograd.lower import kernels as table
from repro.autograd.lower import runtime
from repro.autograd.lower.kernels import serve
from repro.autograd.lower.kernels.base import Build
from repro.observability.metrics import registry
from repro.serving import kernels
from repro.serving.engine import InferenceEngine
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.sparse.dispatch import grouped_rows_gemm

from tests.integration.test_step_graph import _trainer
from tests.serving.conftest import VOCAB, make_model, rebind_kernels
from tests.serving.oracle import forward_flops, forward_ref
from tests.serving.test_scheduler import _mixed_requests

MS = (1, 3, 4, 5, 80)
KS = (1, 37, 256)
NS = (1, 2, 19, 64, 83, 1024)


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, same NaN positions, same bits everywhere else (signed
    zeros distinguished; NaN payloads are outside the kernels' contract)."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return np.array_equal(a.view(np.uint32)[~nan], b.view(np.uint32)[~nan])


def f32(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape).astype(np.float32)


def count(name: str) -> int:
    return registry().counter(name).value


def fallbacks() -> int:
    return count("lower_toolchain_fallbacks") + count("lower_segment_fallbacks")


def grouped_case(rng, sizes, k, n, int8=False):
    """Operands of one grouped product with the given rows per group."""
    g, t = len(sizes), int(sum(sizes))
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    x, b = f32(rng, t, k), f32(rng, g, n)
    if int8:
        w = rng.integers(-127, 128, size=(g, k, n)).astype(np.int8)
        scale = (rng.random((g, n)) + 0.5).astype(np.float32)
    else:
        w, scale = f32(rng, g, k, n), None
    return x, offsets, w, b, scale


# ----------------------------------------------------------------------
# Differential: native vs einsum
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("k", KS)
def test_linear_matches_einsum_on_the_grid(native_rung, m, k):
    rng = np.random.default_rng(m * 1000 + k)
    for n in NS:
        x, w, b = f32(rng, m, k), f32(rng, k, n), f32(rng, n)
        for bias in (None, b):
            native_before = count("lower_direct_calls")
            got = kernels._gemm(x, w, bias)
            took_native = count("lower_direct_calls") - native_before
            assert took_native == (1 if n > 1 else 0), (m, k, n)
            assert bits_equal(got, kernels._linear_ref(x, w, bias)), (m, k, n)
        assert bits_equal(kernels._gemm(x, w, None), np.einsum("ij,jk->ik", x, w))


@settings(derandomize=True)
@given(
    m=st.integers(1, 40), k=st.integers(1, 300), n=st.integers(2, 300),
    lead=st.booleans(), seed=st.integers(0, 2**16),
)
def test_linear_matches_einsum_and_is_row_stable(m, k, n, lead, seed):
    """Native = einsum on drawn shapes, and row ``t`` of the batched call
    is the single-row call — on whichever rung is bound."""
    rng = np.random.default_rng(seed)
    x, w, b = f32(rng, m, k), f32(rng, k, n), f32(rng, n)
    xin = x.reshape(m, 1, k) if lead else x
    y = kernels._gemm(xin, w, b)
    assert y.shape == xin.shape[:-1] + (n,)
    assert bits_equal(y.reshape(m, n), kernels._linear_ref(x, w, b))
    t = seed % m
    assert bits_equal(kernels._gemm(x[t : t + 1], w, b), y.reshape(m, n)[t : t + 1])


def test_special_values(native_rung):
    """Signed zeros, infinities and NaNs flow through the same chain."""
    rng = np.random.default_rng(0)
    x, w = f32(rng, 6, 40), f32(rng, 40, 83)
    x[0] = 0.0
    x[1] = -0.0
    x[2, 5] = np.inf
    x[3, 7] = np.nan
    x[4, :] = -np.inf
    w[5, 3] = 0.0  # inf * 0 -> NaN in row 2, column 3 only
    w[:, 11] = -0.0
    for bias in (None, np.zeros(83, np.float32), f32(rng, 83)):
        with np.errstate(invalid="ignore"):
            want = kernels._linear_ref(x, w, bias)
        got = kernels._gemm(x, w, bias)
        assert bits_equal(got, want)
    assert np.signbit(kernels._gemm(x, w, None)[1]).sum() == 0  # +0 + -0


def test_non_owning_and_declined_inputs(native_rung):
    rng = np.random.default_rng(1)
    big, stack, b = f32(rng, 12, 48), f32(rng, 3, 48, 70), f32(rng, 70)
    before = count("lower_direct_calls")
    # Row slices and a slice of a stack are contiguous views: native.
    x, w = big[2:9], stack[1]
    assert not x.flags.owndata and not w.flags.owndata
    assert bits_equal(kernels._gemm(x, w, b), kernels._linear_ref(x, w, b))
    # A read-only weight still runs natively (slower pointer path).
    frozen = w.copy()
    frozen.flags.writeable = False
    assert bits_equal(kernels._gemm(x, frozen, b), kernels._linear_ref(x, w, b))
    assert count("lower_direct_calls") - before == 2
    # Strided, transposed and float64 operands decline to einsum.
    for xd, wd in (
        (big[:, ::2], f32(rng, 24, 70)),
        (x, np.asfortranarray(w)),
        (x.astype(np.float64), w.astype(np.float64)),
    ):
        before = count("lower_direct_calls")
        got = kernels._gemm(xd, wd, b.astype(wd.dtype))
        assert count("lower_direct_calls") == before
        assert np.array_equal(got, kernels._linear_ref(xd, wd, b.astype(wd.dtype)))
    # Empty batches are einsum's business too.
    assert kernels._gemm(big[:0], stack[0], b).shape == (0, 70)


def test_every_gemm_is_counted(native_rung):
    """A dense prefill's counters, from the model's shape: per block the
    qkv, proj, fc1 and fc2 GEMMs, then the head on each sequence's last
    row; one attention call per block at ``4 * heads * d`` FLOPs per key a
    row reads; the C calls — two LayerNorms, four GEMMs and attention per
    block, then ``ln_f`` (the tied head is einsum by design); no fallback."""
    model = make_model("dense")
    engine = InferenceEngine(model)
    ids = np.random.default_rng(2).integers(0, VOCAB, (2, 5))
    cache = engine.new_cache(2)
    engine.prefill(ids[:, :1], cache)  # builds the plan
    names = ("serve_gemm_calls", "serve_gemm_flops", "serve_attn_calls",
             "serve_attn_flops", "lower_direct_calls")
    before, missed = [count(name) for name in names], fallbacks()
    engine.prefill(ids[:, 1:], cache)  # positions 1 .. 4 of both slots
    spent = [count(name) - was for name, was in zip(names, before)]
    cache.release()
    layers, attn, rows = len(model.blocks), model.blocks[0].attn, 8
    unheaded = (rows - 2) * 2 * model.hidden_size * VOCAB
    keys = 2 * (2 + 3 + 4 + 5)
    assert spent == [
        4 * layers + 1, forward_flops(model, rows) - unheaded,
        layers, layers * 4 * attn.num_heads * attn.head_dim * keys, 7 * layers + 1,
    ]
    assert fallbacks() == missed


# ----------------------------------------------------------------------
# The MoE reference's expert products (fp32 and int8), in NumPy
# ----------------------------------------------------------------------
GROUPINGS = {
    "empty-groups": [0, 3, 0, 0, 9, 1, 0],
    "one-row-each": [1, 1, 1, 1],
    "all-to-one": [0, 0, 17, 0],
    "nothing-routed-last": [5, 12, 0],
}


def per_group(x, offsets, w, b, scale):
    """Each occupied group's ``astype -> einsum -> *= scale -> += bias``;
    rows of no group stay zero."""
    out = np.zeros((x.shape[0], w.shape[-1]), np.float32)
    for g in range(w.shape[0]):
        lo, hi = int(offsets[g]), int(offsets[g + 1])
        if lo < hi:
            y = np.einsum("ij,jk->ik", x[lo:hi], w[g].astype(np.float32))
            if scale is not None:
                y *= scale[g]
            if b is not None:
                y += b[g]
            out[lo:hi] = y
    return out


@pytest.mark.parametrize("int8", [False, True], ids=["fp32", "int8"])
@pytest.mark.parametrize("sizes", GROUPINGS.values(), ids=GROUPINGS.keys())
def test_grouped_entry_equals_the_per_group_loop(sizes, int8):
    """The edge groupings — empty groups, a last group with no rows,
    every row in one group — with and without a bias: the per-group
    loop's bits, one serving-GEMM count per call, and no C."""
    rng = np.random.default_rng(sum(sizes))
    for k, n in ((24, 70), (64, 128), (5, 3)):
        x, offs, w, b, scale = grouped_case(rng, sizes, k, n, int8)
        for bias in (b, None):
            calls, native = count("serve_gemm_calls"), count("lower_direct_calls")
            got = grouped_rows_gemm(x, offs, w, bias, stable=True, scale=scale)
            assert count("serve_gemm_calls") - calls == 1
            assert count("lower_direct_calls") == native
            assert bits_equal(got, per_group(x, offs, w, bias, scale))


@settings(derandomize=True)
@given(
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=8).filter(sum),
    k=st.integers(1, 96), n=st.integers(2, 200), int8=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_grouped_entry_matches_einsum_per_group(sizes, k, n, int8, seed):
    """Drawn group sizes: each group is its own row-stable product —
    ``astype -> einsum -> *= scale -> += bias``."""
    rng = np.random.default_rng(seed)
    x, offs, w, b, scale = grouped_case(rng, sizes, k, n, int8)
    got = grouped_rows_gemm(x, offs, w, b, stable=True, scale=scale)
    assert bits_equal(got, per_group(x, offs, w, b, scale))


def test_int8_entry_equals_the_astype_sequence():
    """``astype -> einsum -> *= scale -> += bias`` over int8 tables, and
    one call's serving-GEMM count and FLOPs, running no C."""
    rng = np.random.default_rng(3)
    for rows in (1, 4, 21):
        x, offs, q, b, s = grouped_case(rng, [rows], 96, 130, int8=True)
        y = np.einsum("ij,jk->ik", x, q[0].astype(np.float32))
        y *= s[0]
        y += b[0]
        calls, flops, native = (
            count("serve_gemm_calls"), count("serve_gemm_flops"), count("lower_direct_calls")
        )
        assert bits_equal(grouped_rows_gemm(x, offs, q, b, scale=s), y)
        assert count("serve_gemm_calls") - calls == 1
        assert count("serve_gemm_flops") - flops == 2 * rows * 96 * 130
        assert count("lower_direct_calls") == native


# ----------------------------------------------------------------------
# Attention rows: native = reference, and a row is a row wherever it runs
# ----------------------------------------------------------------------
def attention_case(rng, heads, d, cap, kv_index, lengths, slots, stale=None):
    """Operands of one ``attn_rows`` call.  Keys and values past the
    longest row reading a slot hold ``stale`` (random when ``None``)."""
    q = f32(rng, len(lengths), heads, d)
    k, v = f32(rng, slots, heads, d, cap), f32(rng, slots, heads, cap, d)
    for b in range(slots if stale is not None else 0):
        longest = max((L for L, s in zip(lengths, kv_index) if s == b), default=0)
        k[b, ..., longest:] = stale
        v[b, :, longest:] = stale
    return q, k, v, np.array(kv_index, np.int64), np.array(lengths, np.int64)


def attention_on(rung: str, *args):
    """``attn_rows`` through the C pair as compiled (no bind check in
    the way; ``None`` when the C declines) or through the NumPy
    reference."""
    if rung == "reference":
        return kernels._attention_rows_ref(*args)
    lib = runtime.load_prelude()
    if lib is None:
        pytest.skip("the prelude is unavailable (no toolchain)")
    res = serve.ATTENTION.forward(Build(None, lib, None))(*args)
    return None if res is None else res[0]


RUNGS = ("native", "reference")


@st.composite
def attention_shapes(draw):
    cap = draw(st.integers(1, 70))
    lengths = draw(st.permutations([1, cap] + draw(st.lists(st.integers(1, cap), max_size=5))))
    slots = draw(st.integers(1, 3))
    rows = len(lengths)
    kv_index = draw(st.lists(st.integers(0, slots - 1), min_size=rows, max_size=rows))
    return (
        draw(st.sampled_from((1, 2, 4))), draw(st.sampled_from((1, 3, 16, 64))),
        cap, kv_index, lengths, slots,
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(shape=attention_shapes(), seed=st.integers(0, 2**16))
def test_attention_native_matches_reference(shape, seed):
    """Heads {1, 2, 4} x d {1, 3, 16, 64}, ragged lengths from 1 to the
    capacity, rows out of slot order: the C pair is the reference's bits."""
    heads, d, cap, kv_index, lengths, slots = shape
    args = attention_case(np.random.default_rng(seed), *shape) + (0.37,)
    want = attention_on("reference", *args)
    assert want.shape == (len(lengths), heads * d)
    assert bits_equal(attention_on("native", *args), want)


@pytest.mark.parametrize("rung", RUNGS)
def test_attention_row_is_the_same_alone_in_a_prefill_and_in_any_decode_batch(rung):
    """Row (slot 2, position t) computed alone, as row t of its sequence's
    prefill, and in decode batches that put it at every offset of the
    buffer ``np.exp`` sees, next to rows of other slots and lengths."""
    rng = np.random.default_rng(5)
    heads, d, cap, slots, seq = 4, 16, 24, 4, 20
    q, k, v, _, _ = attention_case(rng, heads, d, cap, [0] * seq, [1] * seq, slots)
    scale = 0.25
    prefill = attention_on(
        rung, q, k, v, np.full(seq, 2, np.int64), np.arange(1, seq + 1), scale
    )
    for t in range(seq):
        alone = attention_on(rung, q[t : t + 1], k, v, np.array([2]), np.array([t + 1]), scale)
        assert bits_equal(alone[0], prefill[t])
        others = rng.integers(0, slots, size=3)
        others[others == 2] = 0
        lens = rng.integers(1, cap + 1, size=3)
        for at in range(4):
            rows = np.insert(rng.integers(0, seq, size=3), at, t)
            batch = attention_on(
                rung, np.ascontiguousarray(q[rows]), k, v,
                np.insert(others, at, 2), np.insert(lens, at, t + 1), scale,
            )
            assert bits_equal(batch[at], prefill[t]), (t, at)


@pytest.mark.parametrize("rung", RUNGS)
@pytest.mark.parametrize("stale", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_keys_and_values_past_a_rows_length_change_no_bit(rung, stale):
    shape = (2, 16, 40, [1, 0, 2, 1, 1], [1, 17, 40, 5, 17], 3)
    clean = attention_case(np.random.default_rng(6), *shape)
    dirty = attention_case(np.random.default_rng(6), *shape, stale=stale)
    assert np.isnan(dirty[1]).any() or np.isinf(dirty[1]).any()
    want = attention_on(rung, *clean, 0.125)
    assert np.isfinite(want).all()
    assert bits_equal(attention_on(rung, *dirty, 0.125), want)


def test_attention_declines_what_the_c_pair_cannot_take(native_rung):
    """Strided, transposed-in-memory and float64 operands run on the
    reference, and get its bits; bad lengths or slots leave the C pair
    untouched and raise through the reference."""
    rng = np.random.default_rng(7)
    q, k, v, idx, lens = attention_case(rng, 2, 16, 12, [0, 1, 1], [3, 12, 7], 2)
    want = kernels._attention_rows_ref(q, k, v, idx, lens, 0.5)
    before = count("lower_direct_calls")
    assert bits_equal(kernels._attention(q, k, v, idx, lens, 0.5), want)
    assert count("lower_direct_calls") - before == 1
    wide = np.zeros((3, 2, 32), np.float32)
    wide[..., ::2] = q
    for args in (
        (wide[..., ::2], k, v),
        (q, np.asfortranarray(k), v),
        (q, k, v[:, :, :, None, :].repeat(2, axis=3)[:, :, :, 0]),
    ):
        before = count("lower_direct_calls")
        assert bits_equal(kernels._attention(*args, idx, lens, 0.5), want)
        assert count("lower_direct_calls") == before
    q64, k64, v64 = (a.astype(np.float64) for a in (q, k, v))
    got = kernels._attention(q64, k64, v64, idx, lens, 0.5)
    assert got.dtype == np.float64 and count("lower_direct_calls") == before
    assert np.array_equal(got, kernels._attention_rows_ref(q64, k64, v64, idx, lens, 0.5))
    bad = (([0, 2, 1], lens), ([0, -1, 1], lens), (idx, [3, 13, 7]), (idx, [0, 12, 7]))
    for bad_idx, bad_lens in bad:
        args = (q, k, v, np.array(bad_idx), np.array(bad_lens), 0.5)
        assert attention_on("native", *args) is None
        for attend in (kernels._attention_rows_ref, kernels._attention):
            with pytest.raises(ValueError, match="attention rows"):
                attend(*args)


# ----------------------------------------------------------------------
# Prefill runs the head on the last position only
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["dense", "dmoe"])
def test_prefill_head_runs_on_the_last_position_only(system, prompts):
    """The uncached forward's FLOPs, from the model's shape, less the
    head on every row but each sequence's last: what a prefill counts."""
    model = make_model(system)
    engine = InferenceEngine(model)
    cache = engine.new_cache(prompts.shape[0])
    before = count("serve_gemm_flops")
    last = engine.prefill(prompts, cache)
    prefill_flops = count("serve_gemm_flops") - before
    cache.release()
    assert np.array_equal(last, forward_ref(model, prompts)[:, -1, :])
    batch, seq = prompts.shape
    head_flops = 2 * batch * model.hidden_size * VOCAB
    assert forward_flops(model, batch * seq) - prefill_flops == (seq - 1) * head_flops


# ----------------------------------------------------------------------
# Failure paths: every way to lose the prelude lands on einsum
# ----------------------------------------------------------------------
def _serve(model):
    """An 8-request scheduled stream plus one prefill's logits."""
    engine = InferenceEngine(model)
    sched = ContinuousBatchingScheduler(engine, max_batch_size=3)
    tokens = [r.tokens for r in sched.run(_mixed_requests(8, seed=9))]
    sched.close()
    cache = engine.new_cache(1)
    logits = engine.prefill(np.arange(7)[None, :] % VOCAB, cache)
    cache.release()
    return tokens, logits


def _no_cc(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CC", "1")


def _missing_cc(monkeypatch):
    monkeypatch.setenv("CC", "no-such-compiler-on-this-path")


def _edit_unit(monkeypatch, holding, edit):
    """Swap the one prelude unit whose C contains ``holding`` for
    ``edit(unit)``; the other units compile as they are."""
    units = table.PRELUDE
    (i,) = [i for i, unit in enumerate(units) if holding in unit]
    assert units[i].count(holding) == 1
    monkeypatch.setattr(
        table, "PRELUDE", units[:i] + (edit(units[i]),) + units[i + 1:]
    )


def _compile_failure(monkeypatch):
    """Serving's unit stops compiling."""
    _edit_unit(monkeypatch, serve.KERNELS[0].source,
               lambda unit: unit + "\n#error broken\n")


def _self_check_mismatch(monkeypatch):
    """A prelude whose attention context is off in one head's
    denominator: only ``attn_rows`` fails its bind check."""
    honest = "d0 = d0 + ps[0][j];"
    _edit_unit(monkeypatch, honest, lambda unit: unit.replace(
        honest, "d0 = d0 + ps[0][j] * 1.5f;"))


@pytest.fixture(scope="module")
def _breakage_cache(tmp_path_factory):
    """One compile cache for every breakage: a broken prelude compiles
    (or fails) once per module, not once per case."""
    return str(tmp_path_factory.mktemp("lower-cache"))


@pytest.mark.parametrize(
    "breakage", [_no_cc, _missing_cc, _compile_failure, _self_check_mismatch],
    ids=lambda f: f.__name__.strip("_"),
)
@pytest.mark.parametrize("system", ["dmoe"])
def test_losing_the_c_family_lands_on_einsum(
    native_rung, monkeypatch, _breakage_cache, caplog, system, breakage
):
    model = make_model(system)
    native_before = count("lower_direct_calls")
    want_tokens, want_logits = _serve(model)  # on the native rung
    assert count("lower_direct_calls") > native_before

    monkeypatch.setenv("REPRO_LOWER_CACHE", _breakage_cache)
    breakage(monkeypatch)
    rebind_kernels()
    native_before, missed = count("lower_direct_calls"), fallbacks()
    attn_before = count("serve_attn_calls")
    try:
        with caplog.at_level(logging.WARNING):
            got_tokens, got_logits = _serve(model)
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1, [r.getMessage() for r in warnings]
        attn_calls = count("serve_attn_calls") - attn_before
        assert attn_calls > 0
        if breakage is _self_check_mismatch:
            # Only attention fell back, prefill and decode alike; every
            # GEMM still ran C.
            assert fallbacks() - missed == attn_calls
            assert count("lower_direct_calls") > native_before
        else:
            # No prelude: every call, GEMMs and attention, fell back.
            assert fallbacks() - missed > attn_calls
            assert count("lower_direct_calls") == native_before
        assert np.array_equal(got_logits, want_logits)
        assert len(got_tokens) == len(want_tokens) == 8
        for got, want in zip(got_tokens, want_tokens):
            assert np.array_equal(got, want)
    finally:
        monkeypatch.undo()
        rebind_kernels()


# ----------------------------------------------------------------------
# The benchmark's clean-run check
# ----------------------------------------------------------------------
CLEAN = ("graph_fallbacks", "lower_segment_fallbacks", "lower_toolchain_fallbacks")


@pytest.mark.skipif(not lower.cc_available(), reason="no C toolchain in this environment")
def test_a_train_then_serve_run_counts_no_fallback():
    """What ``bench/phases.py`` requires of every run: train on the ``cc``
    rung, then serve a scheduled stream on each system here — tied head,
    ``N == 1`` products, dropless and capacity MoE alike — and not one of
    the three fallback counters moves."""
    rebind_kernels()
    before = {name: count(name) for name in CLEAN}
    trainer = _trainer("cc", steady=True)
    for step in range(3):
        trainer.train_step(step)
    assert trainer.step_graph._lowered is not None
    native = count("lower_direct_calls")
    for system in ("dense", "dmoe", "moe", "tutel-dmoe"):
        sched = ContinuousBatchingScheduler(InferenceEngine(make_model(system)), max_batch_size=3)
        sched.run(_mixed_requests(6, seed=4))
        sched.close()
    assert count("lower_direct_calls") > native
    assert {name: count(name) for name in CLEAN} == before
