"""``arena.reshaped``: NumPy's reshape semantics, with the one copy a
non-viewable reshape needs staged through the pool — and no second one.

The old view probe assigned ``view.shape``, which performs the whole
copying reshape into a fresh allocation before it raises; the
``tracemalloc`` test pins that this allocation is gone.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import arena, stats


@st.composite
def reshapes(draw):
    """``(array — permuted, sliced, possibly zero-size —, target shape)``."""
    dims = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 32]), min_size=1, max_size=4))
    base = np.arange(int(np.prod(dims)), dtype=np.float32).reshape(dims)
    a = base.transpose(draw(st.permutations(range(len(dims)))))
    index = tuple(
        draw(st.sampled_from([slice(None), slice(None, None, 2), slice(1, None)]))
        for _ in dims
    )
    a = a[index]
    # A target: a re-factoring of the size, with size-1 axes and maybe a -1.
    factors, rest = [], a.size
    for p in (2, 2, 3, 2, 2, 2):
        if rest and rest % p == 0 and draw(st.booleans()):
            factors.append(p)
            rest //= p
    target = draw(st.permutations(factors + [rest] + [1] * draw(st.integers(0, 2))))
    if a.size and draw(st.booleans()):
        target[draw(st.integers(0, len(target) - 1))] = -1
    return a, tuple(target)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reshapes())
def test_result_and_sharing_are_numpys(case):
    a, shape = case
    want = a.reshape(shape)
    with arena.steady_state():
        stats.reset()
        got = arena.reshaped(a, shape)
        copied = stats.reshape_copy_bytes
        arena.get_arena().next_generation()
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    viewable = np.shares_memory(want, a) or a.size == 0
    assert np.shares_memory(got, a) == np.shares_memory(want, a)
    assert copied == (0 if viewable else got.nbytes)
    # Arena off: plain reshape.
    np.testing.assert_array_equal(arena.reshaped(a, shape), want)


def test_integer_shape_and_an_impossible_shape():
    a = np.arange(12, dtype=np.float32).reshape(3, 4).T
    with arena.steady_state():
        np.testing.assert_array_equal(arena.reshaped(a, 12), a.reshape(12))
        for bad in ((5, 3), (-1, 5)):
            try:
                arena.reshaped(a, bad)
            except ValueError:
                continue
            raise AssertionError(f"reshape to {bad} did not raise")
        arena.get_arena().next_generation()


def test_a_copying_reshape_allocates_nothing_beside_its_pooled_buffer():
    """4 MB through a transpose: one pooled buffer (warm: reused), no
    scratch copy — the probe must not touch data."""
    a = np.zeros((32, 256, 128), np.float32).transpose(1, 0, 2)  # 4 MB
    with arena.steady_state():
        pool = arena.get_arena()
        arena.reshaped(a, (256, 32 * 128))  # warm the bucket
        pool.next_generation()
        tracemalloc.start()
        try:
            out = arena.reshaped(a, (256, 32 * 128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pool.owns(out) and out.nbytes == 4 << 20
        assert peak < 64 << 10, f"{peak} bytes allocated inside reshaped"
        pool.next_generation()
