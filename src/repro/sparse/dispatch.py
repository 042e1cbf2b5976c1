"""Kernel dispatch: grouped-GEMM fast path for row-sorted rectangular
topologies.

The per-block kernels in :mod:`repro.sparse.ops` treat every nonzero
block independently: gather one ``(bs, bs)`` operand copy per block,
batched-matmul, scatter-accumulate.  That is fully general, but the
topology a dMoE layer actually produces (Figure 3C) is *block-diagonal*:
each expert owns a fully dense rectangle of blocks over a contiguous row
range and a contiguous column range, and the BCSR value order lays those
rectangles out back to back.  For such topologies every sparse product
collapses to one plain ``np.matmul`` per expert group over zero-copy row
and column *slices* of the dense operands — a grouped GEMM — with no
per-block gather and no scatter-add at all.  This is the structure
exploitation ScatterMoE and Megatron-Core's grouped GEMM use to reach
dense throughput, applied to the NumPy substrate.

``analyze`` recognizes the structure (cached per ``Topology``), and the
``grouped_*`` kernels execute all eight SDD/DSD/DDS transpose variants
on it.  Validity per variant:

=========  =========================  ==================================
Variant    Output indexed by          Extra requirement beyond groups
=========  =========================  ==================================
SDD        value array (per group)    none
DSD        group row ranges           none (row ranges always disjoint)
DS^TD      group column ranges        column ranges pairwise disjoint
DDS        group column ranges        column ranges pairwise disjoint
DDS^T      group row ranges           none
=========  =========================  ==================================

Column-range disjointness holds for every block-diagonal topology
(including ragged and empty experts) but not, e.g., for banded attention
patterns — those variants fall back to the per-block path there.

The dispatch decision is ``auto`` by default (grouped when valid and the
groups are coarse enough to beat the batched per-block path); tests and
benchmarks can force either path via :func:`set_mode` /
:func:`dispatch_mode`.

Structural-zero rows
--------------------
A dMoE group is padded to a multiple of the block size because a GPU
tile is a whole block; ``sgemm`` takes any row count.  When the topology
knows how many rows of each group hold data (``Topology.live_rows``,
attached by :func:`with_live_rows` — ``make_topology`` does it from the
``PaddedPlan``), the grouped executors issue each group's GEMM over its
live rows only — M, or K for the two weight-gradient products — stage
and unshuffle only those rows, and write exact ``+0.0`` into the pad
rows of their output.  The padded *layout* (shapes, value order, the
per-block view) is untouched: this skips rows, it is not a second
representation.  A topology without ``live_rows`` runs every row, as
before.  :class:`LiveLayout` holds every form of the counts the NumPy
executors, the sparse bias/GELU ops and the generated-C kernels read.

Banded operands
---------------
The right operand of SDD, the transposed right operand of DSD^T and the
output of DD^TS are the three places a product touches layer-1 expert
weights, and the groups only ever slice them by *column* range.  Such an
operand is a row of equal-width column bands: 2-D ``(K, N)`` is the
one-band case, 3-D ``(G, K, N / G)`` keeps each band's ``(K, N / G)``
matrix contiguous — exactly how ``ExpertWeights.w1`` is stored, one band
per expert.  :func:`band` is the only place a column range becomes a
view: the band is ``lo // width`` (read off the group's column start —
an expert without tokens has no group), the GEMM sees the same
``(transA, transB, M, N, K)`` and only its base pointer and leading
dimension differ from the flat form, so the bits are the flat form's.  A
range that straddles two bands has no such view and raises; a dMoE
cannot produce one (``ffn % block == 0``).

The one-row rule.  NumPy routes a matmul whose row or column extent is 1
through ``sgemv``, which rounds differently from ``cblas_sgemm`` at the
same extent — and the generated-C kernels always call ``sgemm``.  So a
group with exactly one live row runs with that extent set to 2: the
second row is the group's first pad row, which always exists when
``block_size >= 2`` (the native runners decline smaller blocks), and
whatever the GEMM leaves there is overwritten by the pad-row zero-fill.
The weight-gradient products contract over the live rows (K = live),
where extent 1 is bit-stable, so they take the count as it is.
:func:`gemm_rows` is the only statement of this rule; the C kernels
receive its result in the live table.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.autograd import arena
from repro.observability.metrics import registry
from repro.sparse.topology import Topology

_GEMM_CALLS, _GEMM_FLOPS = (registry().counter(f"serve_gemm_{w}") for w in ("calls", "flops"))

#: ``auto`` picks per topology; ``grouped`` / ``blocked`` force a path
#: (grouped still requires a valid plan — invalid structure falls back).
_MODE = "auto"

#: In ``auto`` mode the grouped path fires on a topology without live
#: rows only when its groups average at least this many blocks; finer
#: groupings (e.g. shifting attention bands) degrade into a Python loop
#: of tiny matmuls and the batched per-block path wins.
MIN_BLOCKS_PER_GROUP = 4

_PLAN_KEY = "dispatch_plan"


def set_mode(mode: str) -> None:
    """Set the global dispatch mode: ``auto`` | ``grouped`` | ``blocked``."""
    global _MODE
    if mode not in ("auto", "grouped", "blocked"):
        raise ValueError(f"unknown dispatch mode {mode!r}")
    _MODE = mode


def get_mode() -> str:
    return _MODE


@contextmanager
def dispatch_mode(mode: str):
    """Temporarily force a dispatch mode (used by equivalence tests)."""
    prev = get_mode()
    set_mode(mode)
    try:
        yield
    finally:
        set_mode(prev)


# ----------------------------------------------------------------------
# Structure detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DispatchPlan:
    """Group decomposition of a row-sorted rectangular topology.

    Group ``g`` is the fully dense rectangle of blocks covering block
    rows ``[row_start[g], row_start[g] + row_count[g])`` and block
    columns ``[col_start[g], col_start[g] + col_count[g])``; its values
    occupy the contiguous slice ``[val_start[g], val_start[g] +
    row_count[g] * col_count[g])`` of the BCSR value array, row-major.
    """

    row_start: np.ndarray
    row_count: np.ndarray
    col_start: np.ndarray
    col_count: np.ndarray
    val_start: np.ndarray
    cols_disjoint: bool
    #: Block-column ranges ``(lo, hi)`` that no group writes — the bands
    #: of experts that received no tokens.  Stated only when
    #: ``cols_disjoint`` holds (empty otherwise): see :func:`band_output`.
    col_gaps: tuple

    @property
    def num_groups(self) -> int:
        return len(self.row_start)

    @cached_property
    def nnz_blocks(self) -> int:
        return int((self.row_count * self.col_count).sum())

    @cached_property
    def mean_blocks_per_group(self) -> float:
        g = self.num_groups
        return self.nnz_blocks / g if g else 0.0

    @cached_property
    def max_group_blocks(self) -> int:
        """Blocks in the largest group — sizes the one staging buffer the
        grouped executors reuse across all groups of a call."""
        return int((self.row_count * self.col_count).max())

    @cached_property
    def rows_covered_blocks(self) -> int:
        """Total block rows written by the groups (row ranges are a
        disjoint partition by construction).  When this covers every
        block row of the output, the executors skip the zero-fill: each
        element is assigned exactly once."""
        return int(self.row_count.sum())

    @cached_property
    def groups(self) -> tuple:
        """Per-group ``(row_start, row_count, col_start, col_count,
        val_start)`` as plain Python ints.

        The grouped executors iterate this instead of indexing the five
        arrays per group per call: the plan is cached on its topology
        (and the topology in the builder's LRU), so the int extraction —
        previously redone on every kernel invocation even on cache hits —
        happens once per topology."""
        return tuple(
            zip(
                self.row_start.tolist(),
                self.row_count.tolist(),
                self.col_start.tolist(),
                self.col_count.tolist(),
                self.val_start.tolist(),
            )
        )

    def element_groups(self, bs: int) -> tuple:
        """Per-group slices in *element* coordinates, cached per plan:
        ``(row_lo, row_hi, col_lo, col_hi, row_count, col_count,
        val_start)`` with the block ranges scaled by the block size.

        The grouped executors iterate this beside ``LiveLayout.rows``."""
        cached = self.__dict__.get("_element_groups")
        if cached is None or cached[0] != bs:
            cached = (
                bs,
                tuple(
                    (r0 * bs, (r0 + r) * bs, c0 * bs, (c0 + c) * bs, r, c, v0)
                    for r0, r, c0, c, v0 in self.groups
                ),
            )
            self.__dict__["_element_groups"] = cached
        return cached[1]


def _build_plan(topo: Topology) -> DispatchPlan | None:
    """Decompose ``topo`` into dense rectangular groups, or ``None``.

    Requirements: within each block row the nonzero columns form one
    contiguous range, and consecutive rows with *identical* ranges merge
    into a group (an empty row or a range change starts a new group).
    Block-diagonal MoE topologies — uniform, ragged, or with empty
    experts — always qualify.
    """
    if topo.nnz_blocks == 0:
        return None
    offsets = topo.row_offsets.astype(np.int64)
    counts = offsets[1:] - offsets[:-1]
    nonempty = counts > 0
    ne_rows = np.flatnonzero(nonempty)

    cols = topo.column_indices
    first = cols[offsets[ne_rows]].astype(np.int64)
    last = cols[offsets[ne_rows + 1] - 1].astype(np.int64)
    ne_counts = counts[ne_rows]
    # Canonical BCSR has strictly increasing columns per row, so span
    # equal to count means the range is contiguous (and fully dense).
    if not np.array_equal(last - first + 1, ne_counts):
        return None

    # A group break between consecutive nonempty rows happens when they
    # are not adjacent (an empty row intervenes) or their ranges differ.
    if len(ne_rows) > 1:
        breaks = (
            (ne_rows[1:] - ne_rows[:-1] != 1)
            | (first[1:] != first[:-1])
            | (ne_counts[1:] != ne_counts[:-1])
        )
        starts = np.concatenate([[0], np.flatnonzero(breaks) + 1])
        ends = np.concatenate([starts[1:], [len(ne_rows)]])
    else:
        starts = np.array([0])
        ends = np.array([1])

    row_start = ne_rows[starts]
    row_count = ne_rows[ends - 1] - row_start + 1
    col_start = first[starts]
    col_count = ne_counts[starts]
    val_start = offsets[row_start]

    order = col_start.argsort(kind="stable")
    s, c = col_start[order], col_count[order]
    cols_disjoint = bool(np.all(s[1:] >= (s + c)[:-1])) if len(s) > 1 else True
    col_gaps = ()
    if cols_disjoint:
        # Between consecutive column bands, before the first and after
        # the last.
        lo = np.concatenate([[0], s + c])
        hi = np.concatenate([s, [topo.block_cols]])
        keep = hi > lo
        col_gaps = tuple(zip(lo[keep].tolist(), hi[keep].tolist()))
    return DispatchPlan(
        row_start=row_start,
        row_count=row_count,
        col_start=col_start,
        col_count=col_count,
        val_start=val_start,
        cols_disjoint=cols_disjoint,
        col_gaps=col_gaps,
    )


def analyze(topo: Topology) -> DispatchPlan | None:
    """The (cached) dispatch plan of ``topo``, or ``None`` if it has no
    rectangular group structure."""
    cached = topo.memo.get(_PLAN_KEY, _UNSET)
    if cached is _UNSET:
        # Derived metadata lives in the topology's memo, so its lifetime
        # is the topology's and live-row views share it.
        cached = topo.memo[_PLAN_KEY] = _build_plan(topo)
    return cached


_UNSET = object()

_GROUP_TABLE_KEY = "dispatch_group_table"


def group_table(topo: Topology) -> Optional[np.ndarray]:
    """C-contiguous ``(num_groups, 5)`` int64 group descriptor table —
    ``[row_start, row_count, col_start, col_count, val_start]`` per row,
    in block units.

    This is the flat form the generated-C grouped-GEMM kernels iterate
    (:mod:`repro.autograd.lower.kernels.grouped`); like the plan itself it is
    derived metadata, memoized on the topology so the per-step native
    dispatch never rebuilds it.  ``None`` when the topology has no
    rectangular group structure."""
    plan = analyze(topo)
    if plan is None:
        return None
    table = topo.memo.get(_GROUP_TABLE_KEY)
    if table is None:
        table = topo.memo[_GROUP_TABLE_KEY] = np.ascontiguousarray(
            np.stack(
                [
                    plan.row_start,
                    plan.row_count,
                    plan.col_start,
                    plan.col_count,
                    plan.val_start,
                ],
                axis=1,
            ).astype(np.int64)
        )
    return table


# ----------------------------------------------------------------------
# Structural-zero rows (see the module docstring)
# ----------------------------------------------------------------------
def gemm_rows(live: int, padded: int) -> int:
    """Row (or column) extent a group's GEMM runs with — the one-row
    rule of the module docstring."""
    return min(2, padded) if live == 1 else live


class LiveLayout:
    """The live-row counts of one topology, in every form a kernel reads.

    Built once per topology *view* by :func:`live_layout`; a topology
    without ``live_rows`` gets the all-rows-live layout, so every
    consumer has a single code path.
    """

    def __init__(self, topo: Topology, plan: Optional[DispatchPlan]) -> None:
        bs = topo.block_size
        self.block_size = bs
        self.nnz_blocks = topo.nnz_blocks
        self._plan = plan
        padded = [g[1] * bs for g in self._groups]
        live = topo.live_rows
        if live is None:
            counts = padded
        else:
            counts = np.asarray(live).tolist()
            if len(counts) != len(padded) or any(
                not 0 <= lv <= p for lv, p in zip(counts, padded)
            ):
                raise ValueError(
                    f"live_rows {counts} do not fit the topology's row "
                    f"groups (padded rows {padded})"
                )
        #: False when every row is live (nothing to skip or zero).
        self.has_padding = counts != padded
        #: Per group ``(live rows, GEMM rows)`` as plain ints.
        self.rows = tuple((lv, gemm_rows(lv, p)) for lv, p in zip(counts, padded))
        #: Rows that hold data / rows of the padded layout, over all groups.
        self.rows_live = sum(counts)
        self.rows_padded = sum(padded)

    @classmethod
    def of_tables(
        cls, bs: int, plan: DispatchPlan, table: np.ndarray,
        block_rows: np.ndarray, rows_live: int, rows_padded: int,
    ) -> "LiveLayout":
        """The layout of a topology whose tables were built elsewhere —
        the native dispatch planner (``kernels/router.py``) writes
        ``table`` and ``block_rows`` in the forms above; ``rows`` and
        the regions are derived from them only if a NumPy executor asks."""
        self = cls.__new__(cls)
        self.block_size = bs
        self.nnz_blocks = len(block_rows)
        self._plan = plan
        self.has_padding = rows_live != rows_padded
        self.rows_live = rows_live
        self.rows_padded = rows_padded
        self.__dict__.update(table=table, block_rows=block_rows)
        return self

    @property
    def _groups(self) -> tuple:
        return self._plan.groups if self._plan is not None else ()

    @cached_property
    def rows(self) -> tuple:
        """Per group ``(live rows, GEMM rows)`` as plain ints."""
        return tuple(map(tuple, self.table.tolist()))

    @cached_property
    def table(self) -> np.ndarray:
        """``rows`` as the C-contiguous ``(num_groups, 2)`` int64 table
        the generated-C grouped kernels walk beside the group table."""
        return np.array(self.rows, dtype=np.int64).reshape(-1, 2)

    @cached_property
    def _regions(self):
        bs = self.block_size
        if not self.has_padding:
            return ((0, self.nnz_blocks, bs),), ()
        live, pad = [], []
        for (_, r, _, c, v0), (lv, _) in zip(self._groups, self.rows):
            full, rem = divmod(lv, bs)
            if full:
                live.append((v0, v0 + full * c, bs))
            if rem:
                edge = (v0 + full * c, v0 + (full + 1) * c, rem)
                live.append(edge)
                pad.append(edge)
                full += 1
            if full < r:
                pad.append((v0 + full * c, v0 + r * c, 0))
        return tuple(live), tuple(pad)

    @property
    def live_regions(self) -> tuple:
        """``(lo, hi, rows)`` triples covering exactly the live rows of a
        ``(nnz_blocks, bs, bs)`` value array: ``arr[lo:hi, :rows]``."""
        return self._regions[0]

    @property
    def pad_regions(self) -> tuple:
        """``(lo, hi, rows)`` triples covering exactly the pad rows:
        ``arr[lo:hi, rows:]``."""
        return self._regions[1]

    @cached_property
    def block_rows(self) -> np.ndarray:
        """``(nnz_blocks,)`` int64 live rows inside each nonzero block —
        the per-block form the generated-C bias/GELU kernels loop over."""
        rows = np.full(self.nnz_blocks, self.block_size, dtype=np.int64)
        for lo, hi, n in self.pad_regions:
            rows[lo:hi] = n
        return rows

    def zero_pad_rows(self, *arrays: np.ndarray) -> None:
        """Write ``+0.0`` into the pad rows of value-shaped ``arrays``."""
        for lo, hi, n in self.pad_regions:
            for arr in arrays:
                arr[lo:hi, n:] = 0


_LAYOUT_KEY = "live_layout"


def live_layout(topo: Topology) -> LiveLayout:
    """The (cached) :class:`LiveLayout` of ``topo``: shared through the
    memo when the topology has no ``live_rows``, per view otherwise."""
    store = topo.memo if topo.live_rows is None else topo.__dict__
    layout = store.get(_LAYOUT_KEY)
    if layout is None:
        layout = store[_LAYOUT_KEY] = LiveLayout(topo, analyze(topo))
    return layout


def with_live_rows(topo: Topology, live_rows) -> Topology:
    """A shallow view of ``topo`` that knows how many rows of each dense
    row group hold data (one count per group, in row order).

    The view shares the index arrays and the memoized dispatch metadata
    with ``topo`` — only the counts are per view — so attaching a fresh
    vector every step costs no topology work.  Raises ``ValueError``
    when the counts do not fit the groups.
    """
    view = dataclasses.replace(topo, live_rows=np.asarray(live_rows, np.int64))
    live_layout(view)
    return view


def use_grouped(
    topo: Topology, plan: DispatchPlan | None, needs_disjoint_cols: bool
) -> bool:
    """Dispatch decision for one kernel call on ``topo`` (``plan`` is
    ``analyze(topo)``).

    Nothing routing moves may decide it: a replayed step serves its
    buffers from the plan its first replay recorded, and the two paths
    acquire different buffers.  So a dMoE's topology — it knows its
    live rows (``make_topology``) and, being block-diagonal, always has
    a plan — always takes the grouped path, however few blocks its
    experts' groups hold this step; ``MIN_BLOCKS_PER_GROUP`` weighs
    only topologies without live rows (attention masks, hand-built
    layouts), whose groups are fixed by their shape."""
    if plan is None:
        return False
    if needs_disjoint_cols and not plan.cols_disjoint:
        return False
    if _MODE == "blocked":
        return False
    if _MODE == "grouped" or topo.live_rows is not None:
        return True
    return plan.mean_blocks_per_group >= MIN_BLOCKS_PER_GROUP


# ----------------------------------------------------------------------
# Grouped executors.  All take effective (logical) operands as views —
# callers resolve trans_a/trans_b by passing ``a.T`` / ``b.T`` — so the
# only copies are the per-group block-layout shuffles.  Each group's
# GEMM runs over its live rows (``LiveLayout.rows``); the generated-C
# kernels of ``repro.autograd.lower.kernels.grouped`` issue the same
# ``(transA, transB, M, N, K, ld*)`` sgemm per group, which is what
# keeps eager = replay = cc bitwise.
# ----------------------------------------------------------------------
def band(x: np.ndarray, lo: int, hi: int, axis: int) -> np.ndarray:
    """Rows (``axis`` 0) or columns (``axis`` 1) ``[lo, hi)`` of a dense
    operand as a zero-copy 2-D view.

    ``x`` is a matrix, or — a banded operand, see the module docstring —
    a stack of equal matrices laid side by side along ``axis``: the
    range must then sit inside one of them."""
    if x.ndim == 3:
        width = x.shape[1 + axis]
        e, lo = divmod(lo, width)
        hi -= e * width
        if hi > width:
            raise ValueError(
                f"range [{e * width + lo}, {e * width + hi}) straddles "
                f"operand bands of width {width}"
            )
        x = x[e]
    return x[lo:hi] if axis == 0 else x[:, lo:hi]


def bands_fit(topo: Topology, width: int) -> bool:
    """Whether every group's column range sits inside one band of
    ``width`` columns — the contract clause the generated-C kernels
    check before indexing a banded operand (memoized per topology)."""
    if width >= topo.shape[1]:
        return True
    key = ("bands_fit", width)
    fit = topo.memo.get(key)
    if fit is None:
        plan, bs = analyze(topo), topo.block_size
        fit = topo.memo[key] = plan is not None and bool(
            np.all(plan.col_start * bs % width + plan.col_count * bs <= width)
        )
    return fit


def stage_buf(plan: DispatchPlan, bs: int, dtype) -> np.ndarray:
    """One flat buffer sized for the largest group of ``plan``.

    The grouped executors — these and the generated-C runners — slice
    per-group views out of it instead of acquiring a buffer per group
    (~8 groups × 3 kernels × every sparse matmul adds up), and release
    it when the call ends."""
    return arena.empty((plan.max_group_blocks * bs * bs,), dtype, plan)


def _group_values(
    values: np.ndarray, v0: int, c: int, rows: int, stage: np.ndarray
) -> np.ndarray:
    """The first ``rows`` rows of one group as a dense ``(rows, c*bs)``
    matrix, staged into ``stage`` (one copy of those rows only)."""
    bs = values.shape[-1]
    br = -(-rows // bs)
    blocks = values[v0 : v0 + br * c].reshape(br, c, bs, bs).swapaxes(1, 2)
    buf = stage[: br * bs * c * bs].reshape(br, bs, c, bs)
    full, rem = divmod(rows, bs)
    np.copyto(buf[:full], blocks[:full])
    if rem:
        np.copyto(buf[full, :rem], blocks[full, :rem])
    return buf.reshape(br * bs, c * bs)[:rows]


def band_output(
    plan: DispatchPlan, bs: int, shape: tuple, dtype, axis: int
) -> np.ndarray:
    """Output buffer of a product whose groups each write one column
    band of S along ``axis`` (DS^TD: rows of the output; DD^TS: columns).
    A 3-D ``shape`` asks for the banded form of :func:`band`.

    With disjoint bands every element a group covers is assigned exactly
    once by its GEMM (or by the zero store of a group with no live row),
    so only the bands *no* group writes — ``plan.col_gaps`` — need
    ``+0.0``, not the whole weight-gradient-sized buffer.  Overlapping
    bands keep the whole-buffer fill.  The NumPy executors below and the
    generated-C runners of ``lower/kernels/grouped.py`` all allocate through
    here, which is what keeps the zeros of eager and ``cc`` the same."""
    if not plan.cols_disjoint:
        return arena.zeros(shape, dtype)
    out = arena.empty(shape, dtype)
    width = shape[1 + axis] if len(shape) == 3 else shape[axis]
    for lo, hi in plan.col_gaps:
        lo, hi = lo * bs, hi * bs
        while lo < hi:
            # A gap (consecutive experts without tokens) may span
            # several operand bands; each piece is one contiguous fill.
            cut = min(hi, (lo // width + 1) * width)
            band(out, lo, cut, axis)[...] = 0
            lo = cut
    return out


def grouped_sdd(
    a_eff: np.ndarray,
    b_eff: np.ndarray,
    topo: Topology,
    plan: DispatchPlan,
    out_dtype: np.dtype,
) -> np.ndarray:
    """Values of ``A_eff @ B_eff`` sampled at ``topo``: one GEMM per group
    over contiguous row/column slices, written straight into the BCSR
    value layout."""
    bs = topo.block_size
    layout = live_layout(topo)
    # Every nonzero block belongs to exactly one group and each group
    # writes its live rows from the product and its pad rows as zeros,
    # so every element is assigned exactly once — no zero-init needed.
    values = arena.empty((topo.nnz_blocks, bs, bs), out_dtype, topo)
    stage = stage_buf(plan, bs, np.result_type(a_eff, b_eff))
    for (rlo, _, clo, chi, r, c, v0), (lv, m) in zip(
        plan.element_groups(bs), layout.rows
    ):
        if not m:
            continue
        a_g = a_eff[rlo : rlo + m]
        b_g = band(b_eff, clo, chi, 1)
        prod = np.matmul(a_g, b_g, out=stage[: m * c * bs].reshape(m, c * bs))
        block = values[v0 : v0 + r * c].reshape(r, c, bs, bs)
        full, rem = divmod(lv, bs)
        block[:full] = prod[: full * bs].reshape(full, bs, c, bs).swapaxes(1, 2)
        if rem:
            block[full, :, :rem] = (
                prod[full * bs : lv].reshape(rem, c, bs).swapaxes(0, 1)
            )
    layout.zero_pad_rows(values)
    arena.release(stage)
    return values


def grouped_dsd(
    values: np.ndarray,
    b_eff: np.ndarray,
    topo: Topology,
    plan: DispatchPlan,
    trans_s: bool,
    out_dtype: np.dtype,
) -> np.ndarray:
    """``(S op) @ B_eff`` with one GEMM per group, scatter-free."""
    bs = topo.block_size
    layout = live_layout(topo)
    rows_s, cols_s = topo.shape
    shape = (cols_s if trans_s else rows_s, b_eff.shape[-1])
    if trans_s:
        out = band_output(plan, bs, shape, out_dtype, 0)
    elif plan.rows_covered_blocks * bs == rows_s:
        # Full coverage means every output row is assigned exactly once
        # below (live rows by a GEMM, pad rows by the zero-fill), so an
        # up-front zero-fill would be pure memset overhead.
        out = arena.empty(shape, out_dtype, topo)
    else:
        out = arena.zeros(shape, out_dtype, topo)
    stage = stage_buf(plan, bs, values.dtype)
    for (rlo, rhi, clo, chi, _, c, v0), (lv, m) in zip(
        plan.element_groups(bs), layout.rows
    ):
        if trans_s:
            if lv:
                s_g = _group_values(values, v0, c, lv, stage)
                np.matmul(s_g.T, b_eff[rlo : rlo + lv], out=out[clo:chi])
            else:
                out[clo:chi] = 0
        else:
            if m:
                s_g = _group_values(values, v0, c, m, stage)
                np.matmul(s_g, band(b_eff, clo, chi, 0), out=out[rlo : rlo + m])
            out[rlo + lv : rhi] = 0
    arena.release(stage)
    return out


def grouped_dds(
    a_eff: np.ndarray,
    values: np.ndarray,
    topo: Topology,
    plan: DispatchPlan,
    trans_s: bool,
    out_dtype: np.dtype,
    bands: Optional[int] = None,
) -> np.ndarray:
    """``A_eff @ (S op)`` with one GEMM per group, scatter-free; with
    ``bands`` (``trans_s=False`` only) the output is the banded
    ``(bands, M, N / bands)`` form of :func:`band`."""
    bs = topo.block_size
    layout = live_layout(topo)
    rows_s, cols_s = topo.shape
    shape = (a_eff.shape[0], rows_s if trans_s else cols_s)
    if not trans_s:
        if bands is not None:
            shape = (bands, shape[0], cols_s // bands)
        out = band_output(plan, bs, shape, out_dtype, 1)
    elif plan.rows_covered_blocks * bs == rows_s:
        # Same full-coverage shortcut as ``grouped_dsd``.
        out = arena.empty(shape, out_dtype, a_eff)
    else:
        out = arena.zeros(shape, out_dtype, a_eff)
    stage = stage_buf(plan, bs, values.dtype)
    for (rlo, rhi, clo, chi, _, c, v0), (lv, m) in zip(
        plan.element_groups(bs), layout.rows
    ):
        if trans_s:
            if m:
                s_g = _group_values(values, v0, c, m, stage)
                np.matmul(a_eff[:, clo:chi], s_g.T, out=out[:, rlo : rlo + m])
            out[:, rlo + lv : rhi] = 0
        else:
            out_g = band(out, clo, chi, 1)
            if lv:
                s_g = _group_values(values, v0, c, lv, stage)
                np.matmul(a_eff[:, rlo : rlo + lv], s_g, out=out_g)
            else:
                out_g[...] = 0
    arena.release(stage)
    return out


# ----------------------------------------------------------------------
# Serving: grouped GEMM over expert-grouped token rows (no topology)
# ----------------------------------------------------------------------
def grouped_rows_gemm(
    x: np.ndarray,
    group_offsets: np.ndarray,
    stacked_w: np.ndarray,
    stacked_b: Optional[np.ndarray] = None,
    stable: bool = False,
    scale: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One GEMM per row group:
    ``out[s_g:e_g] = x[s_g:e_g] @ w[g] (* scale[g]) (+ b[g])``.

    The inference-mode MoE dispatch is the degenerate grouped-GEMM case
    of this module: tokens arrive already grouped by expert (a
    ``PaddedPlan`` at block size 1 — no padding rows at all), so each
    expert's product is a plain row-slice GEMM with no block topology,
    no gather copies, and no scatter-add.  ``group_offsets`` is the
    ``(num_groups + 1,)`` prefix sum of group sizes (any integers);
    ``stacked_w`` is ``(num_groups, in, out)``.  With ``scale``
    (``(num_groups, out)``) ``stacked_w`` is int8 and is dequantized on
    the GEMM: the product runs on the integer values and each output
    channel is scaled afterwards.  Rows no group covers are zero.

    Each occupied group is ``astype(float32)`` (int8 only), then
    ``np.einsum("ij,jk->ik")`` — the row-stable order of
    :mod:`repro.serving.kernels` — then ``*= scale[g]``, then
    ``+= b[g]``: the expert products of the served MoE layer's NumPy
    reference (:func:`repro.moe.inference.moe_forward_ref`).  ``stable``
    is ignored (every call is row-stable).  A call counts once in
    ``serve_gemm_calls`` and its FLOPs in ``serve_gemm_flops``.
    """
    out = np.zeros(
        (x.shape[0], stacked_w.shape[-1]), np.result_type(x.dtype, stacked_w.dtype)
    )
    offs = [int(o) for o in group_offsets]
    for s, e, g in zip(offs[:-1], offs[1:], range(stacked_w.shape[0])):
        if s < e:
            w = stacked_w[g] if scale is None else stacked_w[g].astype(np.float32)
            y = np.einsum("ij,jk->ik", x[s:e], w)
            if scale is not None:
                y *= scale[g]
            if stacked_b is not None:
                y += stacked_b[g]
            out[s:e] = y
    _GEMM_CALLS.value += 1
    _GEMM_FLOPS.value += 2 * x.size * stacked_w.shape[-1]
    return out
