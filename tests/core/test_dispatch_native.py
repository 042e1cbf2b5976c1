"""The kernel table's ``dispatch`` entry against its reference.

The compiled rung plans each dMoE layer's dispatch in one C call
(``repro_dispatch_plan``) into buffers bound at capacity; the eager
rung keeps the NumPy builders (``make_padded_plan``, ``make_topology``,
``expert_of_padded_row``).  Every array either side hands the layer's
kernels — the plan, the topology, the padded-row expert map, and what
the kernels derive from the topology (dispatch plan, group table, live
table, per-block live rows, transpose segments) — must be equal, on the
entry's fuzz domain and on the corner cases named here.
"""

import numpy as np
import pytest

from repro.autograd import lower
from repro.autograd.lower import kernels, runtime, toolchain
from repro.autograd.lower.kernels.base import Build, I64
from repro.autograd.lower.kernels.gelu import tr_segments
from repro.autograd.lower.kernels.router import fuzz_dispatch
from repro.core.dmoe import _build_dispatch, dMoE
from repro.sparse import dispatch
from repro.sparse.ops import segment_meta

pytestmark = pytest.mark.skipif(
    not lower.cc_available(), reason="no C toolchain in this environment"
)

ENTRY = next(e for e in kernels.TABLE if e.name == "dispatch")


@pytest.fixture(scope="module")
def planner(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_LOWER_CACHE", str(tmp_path_factory.mktemp("lower-cache")))
    toolchain._reset_for_tests()
    lib = runtime.load_prelude()
    yield lambda: ENTRY.forward(Build(None, lib, lambda n: np.empty(n, I64)))
    mp.undo()
    toolchain._reset_for_tests()


def _same(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _assert_plans_equal(got, want):
    (plan, topo, row_expert), (rplan, rtopo, rrow_expert) = got, want
    for f in ("gather_indices", "copy_indices", "tokens_per_expert",
              "padded_tokens_per_expert"):
        _same(getattr(plan, f), getattr(rplan, f), f)
    assert (plan.block_size, plan.num_tokens, plan.top_k) == (
        rplan.block_size, rplan.num_tokens, rplan.top_k)
    _same(row_expert, rrow_expert, "row_expert")

    assert topo.shape == rtopo.shape and topo.block_size == rtopo.block_size
    for f in ("row_offsets", "column_indices", "row_indices",
              "transpose_block_offsets", "transpose_row_offsets", "live_rows"):
        _same(getattr(topo, f), getattr(rtopo, f), f)
    topo.validate()

    dp, rdp = dispatch.analyze(topo), dispatch.analyze(rtopo)
    for f in ("row_start", "row_count", "col_start", "col_count", "val_start"):
        _same(getattr(dp, f), getattr(rdp, f), f"dispatch plan {f}")
    for f in ("cols_disjoint", "col_gaps", "nnz_blocks", "max_group_blocks",
              "rows_covered_blocks", "groups"):
        assert getattr(dp, f) == getattr(rdp, f), f"dispatch plan {f}"
    _same(dispatch.group_table(topo), dispatch.group_table(rtopo), "group table")

    lay, rlay = dispatch.live_layout(topo), dispatch.live_layout(rtopo)
    _same(lay.table, rlay.table, "live table")
    _same(lay.block_rows, rlay.block_rows, "block live rows")
    for f in ("rows", "rows_live", "rows_padded", "has_padding",
              "live_regions", "pad_regions"):
        assert getattr(lay, f) == getattr(rlay, f), f"live layout {f}"

    for got_a, want_a in zip(segment_meta(topo, True), segment_meta(rtopo, True)):
        _same(got_a, np.asarray(want_a, np.intp), "transpose segments")
    ref_segments = tr_segments(rtopo, *segment_meta(rtopo, True))
    for got_a, want_a in zip(tr_segments(topo, None, None), ref_segments):
        _same(got_a, want_a, "native transpose segments")
    width = rtopo.shape[1] // max(1, len(rplan.tokens_per_expert))
    assert dispatch.bands_fit(topo, width) == dispatch.bands_fit(rtopo, width)


def _corners():
    """All to one expert, an empty expert, one token, one expert, top-1
    and top-2, blocks of one row and wider."""
    layer = lambda E, ffn, bs, k=1: dMoE(2, ffn, E, top_k=k, block_size=bs, rng=0)  # noqa: E731

    yield layer(4, 8, 4), np.zeros((9, 1), np.int64)
    yield layer(4, 8, 4, 2), np.full((5, 2), 3, np.int64)
    yield layer(4, 8, 4, 2), np.array([[0, 2], [2, 0], [0, 3]], np.int64)
    yield layer(5, 4, 4), np.array([[4]], np.int64)
    yield layer(1, 2, 1, 1), np.zeros((3, 1), np.int64)
    yield layer(3, 16, 8), np.array([[1], [1], [2], [1]], np.int64)
    # top-2 ids as the host router returns them: a strided int64 view
    yield layer(4, 8, 2, 2), np.argsort(
        -np.random.default_rng(3).random((7, 4)), axis=1, kind="stable")[:, :2]


@pytest.mark.parametrize("case", range(7))
def test_corner_cases_match_the_numpy_builders(planner, case):
    mod, idx = list(_corners())[case]
    run = planner()
    (got,) = run(mod, idx)
    assert mod.last_plan is got[0] and mod.last_topology is got[1]
    _assert_plans_equal(got, _build_dispatch(mod, idx))


def test_fuzz_domain_matches_the_numpy_builders_call_after_call(planner):
    """One unit, many routings: each call rewrites the same capacity
    buffers, and each result equals the NumPy build of its routing."""
    rng = np.random.default_rng(46)
    runs = {}
    for _ in range(200):
        mod, idx = fuzz_dispatch(rng)
        key = (mod.num_experts, mod.ffn_hidden_size, mod.block_size)
        run = runs.setdefault(key, planner())
        (got,) = run(mod, idx)
        _assert_plans_equal(got, _build_dispatch(mod, idx))
        # The static bound the buffers are sized at.
        copies = idx.size
        assert got[0].total_padded <= copies + mod.num_experts * (mod.block_size - 1)


def test_every_call_rewrites_the_same_capacity_buffers(planner):
    """Each call builds a fresh plan and topology over the unit's two
    capacity buffers, a repeated layout included: the arrays an earlier
    call handed out are rewritten by the next one (``dMoE.last_plan``
    and its kin are valid until the layer's next step)."""
    mod, run = dMoE(2, 8, 4, block_size=4, rng=0), planner()
    a = np.array([[0], [1], [1], [3], [0]], np.int64)
    b = np.array([[1], [0], [0], [3], [1]], np.int64)  # same padded layout
    c = np.full((5, 1), 2, np.int64)
    (first,) = run(mod, a)
    for idx in (b, c):
        (got,) = run(mod, idx)
        assert got[0] is not first[0] and got[1] is not first[1]
        assert np.shares_memory(got[0].gather_indices, first[0].gather_indices)
        assert np.shares_memory(got[1].column_indices, first[1].column_indices)
        _assert_plans_equal(got, _build_dispatch(mod, idx))
