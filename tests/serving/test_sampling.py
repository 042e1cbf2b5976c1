"""The shared ``sample_tokens`` contract (greedy / temperature / top-k)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.observability.metrics import registry
from repro.serving.sampling import sample_rows, sample_tokens


def _logits(rows: int = 4, vocab: int = 23, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(rows, vocab)).astype(np.float32)


def test_greedy_is_argmax():
    logits = _logits()
    out = sample_tokens(logits, 0.0, None, np.random.default_rng(0))
    assert out.dtype == np.int64
    assert np.array_equal(out, np.argmax(logits, axis=-1))


def test_greedy_consumes_no_rng():
    gen = np.random.default_rng(7)
    sample_tokens(_logits(), 0.0, None, gen)
    fresh = np.random.default_rng(7)
    assert gen.integers(0, 1 << 30) == fresh.integers(0, 1 << 30)


def test_top_k_one_matches_greedy():
    logits = _logits(rows=6)
    greedy = sample_tokens(logits, 0.0, None, np.random.default_rng(1))
    topk1 = sample_tokens(logits, 1.0, 1, np.random.default_rng(1))
    assert np.array_equal(greedy, topk1)


def test_seeded_determinism_batched():
    logits = _logits(rows=5)
    a = sample_tokens(logits, 0.9, 8, np.random.default_rng(42))
    b = sample_tokens(logits, 0.9, 8, np.random.default_rng(42))
    c = sample_tokens(logits, 0.9, 8, np.random.default_rng(43))
    assert np.array_equal(a, b)
    assert a.shape == (5,)
    assert not np.array_equal(a, c)  # different seed, different draws


def test_top_k_restricts_support():
    logits = _logits(rows=3, vocab=50)
    k = 4
    allowed = np.argsort(logits, axis=-1)[:, -k:]
    gen = np.random.default_rng(0)
    for _ in range(25):
        out = sample_tokens(logits, 1.0, k, gen)
        for row, tok in enumerate(out):
            assert tok in allowed[row]


def test_temperature_sharpens():
    """Near-zero temperature concentrates sampling on the argmax."""
    logits = _logits(rows=1, vocab=11)
    gen = np.random.default_rng(5)
    cold = [sample_tokens(logits, 1e-3, None, gen)[0] for _ in range(20)]
    assert set(cold) == {int(np.argmax(logits))}


def test_rng_consumed_per_row_in_row_order():
    """Sampling B rows == sampling each row alone with the same stream."""
    logits = _logits(rows=3, vocab=17)
    batched = sample_tokens(logits, 1.0, 5, np.random.default_rng(9))
    gen = np.random.default_rng(9)
    solo = [sample_tokens(logits[i : i + 1], 1.0, 5, gen)[0] for i in range(3)]
    assert np.array_equal(batched, np.array(solo))


def test_bounds():
    logits = _logits(rows=8, vocab=13)
    out = sample_tokens(logits, 1.3, None, np.random.default_rng(3))
    assert out.min() >= 0 and out.max() < 13


def choice_per_row(logits, temperature, top_k, gen):
    """The sampler as a per-row ``Generator.choice`` loop (the reference
    ``sample_rows`` must reproduce)."""
    logits = np.asarray(logits, dtype=np.float64) / temperature
    if top_k is not None and top_k < logits.shape[-1]:
        kth = np.partition(logits, -top_k, axis=-1)[:, [-top_k]]
        logits = np.where(logits < kth, -np.inf, logits)
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    return [gen.choice(logits.shape[-1], p=row) for row in probs]


@pytest.mark.parametrize("temperature, top_k", [(0.8, None), (1.0, 3), (1.7, 96)])
def test_rows_draw_what_choice_draws_from_their_own_streams(temperature, top_k):
    """Row i of one batched call is ``gens[i].choice(vocab, p=row)``, and
    each stream ends where ``choice`` leaves it."""
    logits = _logits(rows=6, vocab=97, seed=4) * 3
    got = sample_rows(logits, temperature, top_k, [np.random.default_rng(s) for s in range(6)])
    for s in range(6):
        ours, numpys = np.random.default_rng(s), np.random.default_rng(s)
        sample_rows(logits[s : s + 1], temperature, top_k, [ours])
        assert got[s] == choice_per_row(logits[s : s + 1], temperature, top_k, numpys)[0]
        assert ours.random() == numpys.random()


def test_non_finite_probabilities_raise():
    logits = _logits(rows=2)
    logits[1, 3] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        sample_rows(logits, 1.0, None, [np.random.default_rng(0)] * 2)


# ----------------------------------------------------------------------
# The native sampler (the kernel table's ``serve_sample``)
# ----------------------------------------------------------------------
def _native():
    """``serve_sample`` as the scheduler calls it: a sampler bound to the
    call's rows, setting and generators, called once."""
    from repro.autograd.lower import runtime

    if runtime.load_prelude() is None:
        pytest.skip("the prelude is unavailable (no toolchain)")
    from repro.serving.kernels import bound_sample_rows

    return lambda logits, temperature, top_k, gens: bound_sample_rows(
        gens, logits.shape[1], temperature, top_k
    )(logits)


def _direct_calls() -> int:
    return registry().counter("lower_direct_calls").value


def _gens(seed: int, rows: int):
    return [np.random.default_rng([seed, r]) for r in range(rows)]


@pytest.mark.parametrize("seed", range(12))
def test_native_sampler_draws_the_references_tokens_from_the_same_streams(seed):
    """The same token per row and the same generator state after, over
    drawn vocabularies, temperatures, logit scales (flat and
    near-one-hot distributions), -inf logits and top-k that cuts nothing."""
    native = _native()
    rng = np.random.default_rng(seed)
    rows, vocab = int(rng.integers(1, 9)), int(rng.integers(1, 1100))
    logits = (rng.standard_normal((rows, vocab)) * rng.choice([0.05, 2.0, 80.0])).astype(np.float32)
    if vocab > 1:
        logits[rng.integers(0, rows), rng.integers(0, vocab)] = -np.inf
    temperature = float(rng.choice([0.25, 1.0, 3.0]))
    top_k = None if seed % 3 else vocab
    ours, theirs = _gens(seed, rows), _gens(seed, rows)
    before = _direct_calls()
    got = native(logits, temperature, top_k, ours)
    assert _direct_calls() == before + 1  # the C drew them
    want = sample_rows(logits, temperature, top_k, theirs)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [g.random() for g in ours] == [g.random() for g in theirs]


def test_native_sampler_leaves_greedy_top_k_cuts_and_failures_to_the_reference():
    native = _native()
    logits = _logits(rows=3, vocab=40)
    for temperature, top_k in ((0.0, None), (1.0, 5)):
        ours, theirs = _gens(1, 3), _gens(1, 3)
        assert np.array_equal(
            native(logits, temperature, top_k, ours),
            sample_rows(logits, temperature, top_k, theirs),
        )
        assert [g.random() for g in ours] == [g.random() for g in theirs]
    for bad in (np.nan, np.inf, "row of -inf"):
        poisoned = logits.copy()
        if bad == "row of -inf":
            poisoned[1] = -np.inf
        else:
            poisoned[1, 3] = bad
        gens = _gens(2, 3)
        with pytest.raises(ValueError, match="not finite"), np.errstate(invalid="ignore"):
            native(poisoned, 1.0, None, gens)
        # Nothing was drawn before the failure.
        assert [g.random() for g in gens] == [g.random() for g in _gens(2, 3)]


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_a_bound_sampler_draws_the_references_tokens_step_after_step(seed, shared):
    """``bound_sample_rows`` — the scheduler's sampler, bound once per
    batch — samples what ``sample_rows`` samples, step after step, and
    leaves every generator where the reference leaves it.  Shared
    generators (one stream for every row) keep their row order; logits
    outside the bound shape or dtype go through ``sample_rows``."""
    _native()
    from repro.serving.kernels import bound_sample_rows

    rng = np.random.default_rng(seed)
    rows, vocab = int(rng.integers(1, 6)), int(rng.integers(2, 700))
    if shared:
        ours, theirs = [np.random.default_rng(seed)] * rows, [np.random.default_rng(seed)] * rows
    else:
        ours, theirs = _gens(seed, rows), _gens(seed, rows)
    temperature = float(rng.choice([0.5, 1.0, 2.0]))
    sampler = bound_sample_rows(ours, vocab, temperature, None)
    for step in range(4):
        logits = (rng.standard_normal((rows, vocab)) * 3.0).astype(np.float32)
        if step == 3:
            logits = logits.astype(np.float64)  # outside the bound contract
        got = sampler(logits).copy()
        want = sample_rows(logits, temperature, None, theirs)
        assert np.array_equal(got, want), step
    assert [g.random() for g in ours] == [g.random() for g in theirs]
