"""Partition a captured :class:`StepGraph` into lowerable segments.

The segmenter walks the record list once and classifies every record:

- **Fused segments** — maximal runs of consecutive same-dtype,
  same-output-shape elementwise records (``_Add``/``_Sub``/``_Mul``/
  ``_Div`` and mask-free ``_DropoutResidual``) rendered as one C loop
  nest.  Intermediates consumed only inside the segment are *elided*:
  they live in C registers and are never materialized.
- **Kernel units** — records an entry of the kernel table
  (:mod:`repro.autograd.lower.kernels`) replaces: looked up by the
  record's function, admitted by the entry's operand contract
  evaluated on the capture-time layout descriptors.
- **Host runs** — everything else replays through the NumPy
  interpreter unchanged.

A second pass picks the backward swaps the same way.  Layouts are baked
optimistically from the capture — a dynamic operand's live layout is
re-checked by the runtime guard on every replay.

With ``strict=True`` an elementwise record that *would* fuse but
references a dynamic position with no descriptor to bake raises
:class:`LoweringError` naming the record — the debugging aid for
kernels that are expected to lower.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import ops_basic as _B
from repro.autograd import ops_fused as _F
from repro.autograd.graph import _CONST, _DYN, _REC, _TUPLE, _OpRecord
from repro.autograd.lower import kernels

__all__ = ["LoweringError", "analyze", "Analysis"]


class LoweringError(RuntimeError):
    """A segment references an argument it cannot pin to a static layout."""


#: Elementwise binary ops and the C infix operator each lowers to.
_ELEM_OPS = {
    _B._Add: "+",
    _B._Sub: "-",
    _B._Mul: "*",
    _B._Div: "/",
}

#: Ops whose ``Context`` stores operand *arrays* (not just shapes); an
#: in-segment producer feeding one of these must be materialized.
_CTX_SAVES_ARRAYS = (_B._Mul, _B._Div)

_FLOAT_DTYPES = {"<f4": "float", "<f8": "double"}
_MAX_DIMS = 4


class PyUnit:
    """A run of record indices executed by the NumPy replay interpreter."""

    __slots__ = ("indices",)

    def __init__(self, indices: List[int]):
        self.indices = indices


class KernUnit:
    """One record replaced by a kernel-table entry's forward runner."""

    __slots__ = ("index", "entry")

    def __init__(self, index: int, entry):
        self.index = index
        self.entry = entry

    @property
    def kind(self) -> str:
        return self.entry.name

    @property
    def native(self) -> bool:
        return self.entry.native


class FusedStep:
    """One elementwise record inside a fused segment."""

    __slots__ = ("index", "op", "lhs", "rhs", "materialize", "ctx_saves")

    def __init__(self, index, op, lhs, rhs):
        self.index = index
        self.op = op
        self.lhs = lhs  # ("ext", k) | ("tmp", record_index) | ("lit", value)
        self.rhs = rhs
        self.materialize = True
        self.ctx_saves = None  # "shapes2" | "arrays" | "dropres"


class FusedSeg:
    """A maximal elementwise chain compiled to one C function."""

    __slots__ = (
        "indices", "ctype", "dtype", "shape", "ext", "steps", "name", "flat",
        "flat2", "ekinds",
    )

    def __init__(self, ctype, dtype, shape):
        self.indices: List[int] = []
        self.ctype = ctype
        self.dtype = dtype
        self.shape = shape
        #: list of (spec, desc, padded element strides) — C pointer params.
        self.ext: List[tuple] = []
        self.steps: List[FusedStep] = []
        self.name = ""
        #: True when every external operand is a full-shape C-contiguous
        #: array: the loop nest collapses to one flat loop whose trip
        #: count is read at *call* time, so the segment keeps executing
        #: natively when the live shape drifts from the baked one (the
        #: routing-dependent padded expert rows in the MoE layers).
        self.flat = False
        #: Like ``flat`` but with last-axis broadcasting: every operand
        #: is either full-shape contiguous or a contiguous ``(..., 1)``
        #: column (per-row scale, e.g. routing weights).  The row count
        #: is read at call time; the last-axis width stays baked.
        self.flat2 = False
        #: How each ext slot relates to the live shape: ``"full"`` /
        #: ``"row"`` under ``flat``/``flat2``, else ``"baked"`` (the
        #: captured layout, strides and all, is compiled in).
        self.ekinds: List[str] = []


class Analysis:
    __slots__ = ("units", "bwd", "lowered", "native", "total")

    def __init__(self, units, bwd, lowered, native, total):
        self.units = units
        #: record index -> (backward unit kind, its kernel-table entry).
        self.bwd = bwd
        self.lowered = lowered  # record indices with a lowered forward
        self.native = native  # subset executing generated C
        self.total = total


# ----------------------------------------------------------------------
# Spec helpers
# ----------------------------------------------------------------------
def _spec_key(spec):
    """A hashable identity key for a spec (specs can embed ndarrays)."""
    tag = spec[0]
    if tag == _TUPLE:
        return (tag, tuple(_spec_key(e) for e in spec[1]))
    if tag == _DYN:
        return (tag, spec[1], spec[2])
    if tag == _REC:
        return (tag, spec[1])
    return (tag, id(spec[1]))


def _const_value(s):
    """The frozen value of a ``_CONST`` spec, else a sentinel."""
    if s[0] == _CONST:
        return s[1]
    return _NO_CONST


_NO_CONST = object()


def _iter_rec_refs(spec):
    """Yield every record index a spec references (``_REC``/``_DYN``)."""
    tag = spec[0]
    if tag == _REC or tag == _DYN:
        yield spec[1]
    elif tag == _TUPLE:
        for e in spec[1]:
            yield from _iter_rec_refs(e)


def _elem_strides(desc, out_shape) -> Optional[Tuple[int, ...]]:
    """Element strides of an operand broadcast against ``out_shape``.

    Returns ``None`` when the operand cannot broadcast to the output
    with the baked layout (never happens for a faithfully captured
    record, but the segmenter double-checks rather than trusting)."""
    dtype_str, shape, strides = desc
    itemsize = np.dtype(dtype_str).itemsize
    nd_out = len(out_shape)
    pad = nd_out - len(shape)
    if pad < 0:
        return None
    out: List[int] = []
    for d in range(nd_out):
        if d < pad:
            out.append(0)
            continue
        s_dim = shape[d - pad]
        if s_dim == out_shape[d]:
            b = strides[d - pad]
            if b % itemsize != 0:
                return None
            out.append(b // itemsize)
        elif s_dim == 1:
            out.append(0)
        else:
            return None
    return tuple(out)


def _finite_scalar(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v)


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def _classify_elem(i, rec, strict) -> Optional[tuple]:
    """``(op, operand_specs, operand_descs)`` when record ``i`` can join a
    fused segment, else ``None`` (raising under ``strict`` when the only
    blocker is a dynamic argument)."""
    fn = rec.fn
    op = _ELEM_OPS.get(fn)
    is_dropres = fn is _F._DropoutResidual
    if op is None and not is_dropres:
        return None
    out_desc = rec.descs[0] if rec.descs else None
    if out_desc is None:
        return None
    ctype = _FLOAT_DTYPES.get(out_desc[0])
    if ctype is None or len(out_desc[1]) > _MAX_DIMS:
        return None

    if is_dropres:
        # forward(ctx, y, residual, p, training, rng): only the
        # mask-free configuration is a plain add.
        p = _const_value(rec.specs[2])
        training = _const_value(rec.specs[3])
        if p is _NO_CONST or training is _NO_CONST:
            return None
        if training and (p is not None and p > 0.0):
            return None
        operands = (rec.specs[1], rec.specs[0])  # residual + y
        descs = (rec.descs[1][1], rec.descs[1][0])
        op = "+"
    else:
        operands = rec.specs[:2]
        descs = rec.descs[1][:2]

    for pos, (spec, desc) in enumerate(zip(operands, descs)):
        if desc is None:
            # Non-array operand: only a frozen finite scalar constant is
            # representable as a literal — and not for ops whose Context
            # saves the operand *objects* (the literal would lose the
            # original scalar the eager backward multiplies by).
            if fn in _CTX_SAVES_ARRAYS:
                return None
            if spec[0] != _CONST or not _finite_scalar(spec[1]):
                # Dynamic operands are baked optimistically from the
                # capture-time layout (the runtime guard re-checks every
                # replay) — but with no descriptor there is nothing to
                # bake, and the segment cannot pin the argument.
                if strict and spec[0] != _CONST:
                    raise LoweringError(
                        f"record {i} ({fn.__name__}): argument {pos} "
                        f"resolves to a dynamic position (spec tag "
                        f"{spec[0]}) the fused segment cannot pin to a "
                        f"static layout"
                    )
                return None
        else:
            if desc[0] != out_desc[0]:
                return None  # mixed dtypes: let NumPy's casting rule it
            if _elem_strides(desc, out_desc[1]) is None:
                return None
    return op, operands, descs


# ----------------------------------------------------------------------
# Analysis driver
# ----------------------------------------------------------------------
def analyze(graph, strict: bool = False) -> Analysis:
    records = graph.records
    n = len(records)

    # Who references each record from *outside* a segment —
    # needed for register elision.  Host records and op records both
    # reference through their specs; the loss/root/seed reads count too.
    consumers: Dict[int, List[int]] = {}
    for j, rec in enumerate(records):
        for s in rec.specs:
            for ridx in _iter_rec_refs(s):
                consumers.setdefault(ridx, []).append(j)

    # Classify and group.
    units: List[Any] = []
    bwd: Dict[int, tuple] = {}
    lowered: set = set()
    native: set = set()
    py_run: List[int] = []
    seg: Optional[FusedSeg] = None

    def flush_py():
        nonlocal py_run
        if py_run:
            units.append(PyUnit(py_run))
            py_run = []

    def flush_seg():
        nonlocal seg
        if seg is not None:
            _finish_segment(graph, seg, consumers)
            units.append(seg)
            lowered.update(seg.indices)
            native.update(seg.indices)
            seg = None

    for i, rec in enumerate(records):
        elem = None
        if type(rec) is _OpRecord:
            elem = _classify_elem(i, rec, strict)
        if elem is not None:
            op, operands, descs = elem
            out_desc = rec.descs[0]
            ctype = _FLOAT_DTYPES[out_desc[0]]
            if seg is not None and (
                seg.ctype != ctype or seg.shape != out_desc[1]
            ):
                flush_seg()
            if seg is None:
                flush_py()
                seg = FusedSeg(ctype, out_desc[0], out_desc[1])
            _append_step(seg, i, rec, op, operands, descs)
            continue

        entry = kernels.forward_entry(rec)
        if entry is not None:
            flush_seg()
            flush_py()
            units.append(KernUnit(i, entry))
            lowered.add(i)
            if entry.native:
                native.add(i)
            continue

        flush_seg()
        py_run.append(i)

    flush_seg()
    flush_py()

    # Backward swaps: independent of forward lowering — the Context
    # protocol is identical whether the forward ran eagerly, through the
    # replay interpreter, or in C.
    for i, rec in enumerate(records):
        if type(rec) is _OpRecord and rec.requires_grad:
            entry = kernels.backward_entry(rec)
            if entry is not None:
                bwd[i] = (entry.bwd_name, entry)

    return Analysis(units, bwd, lowered, native, n)


def _append_step(seg: FusedSeg, i: int, rec, op, operands, descs) -> None:
    in_seg = {s.index for s in seg.steps}

    seen = {(_spec_key(e[0]), e[2]): k for k, e in enumerate(seg.ext)}

    def ref_for(spec, desc):
        if desc is None:  # frozen scalar literal
            return ("lit", float(spec[1]))
        if spec[0] == _REC and spec[1] in in_seg:
            return ("tmp", spec[1])
        # External pointer param; reuse an existing slot for the same spec.
        strides = _elem_strides(desc, seg.shape)
        key = (_spec_key(spec), strides)
        k = seen.get(key)
        if k is None:
            k = len(seg.ext)
            seg.ext.append((spec, desc, strides))
            seen[key] = k
        return ("ext", k)

    step = FusedStep(
        i, op, ref_for(operands[0], descs[0]), ref_for(operands[1], descs[1])
    )
    if rec.fn in _CTX_SAVES_ARRAYS:
        step.ctx_saves = "arrays"
    elif rec.fn is _F._DropoutResidual:
        step.ctx_saves = "dropres"
    else:
        step.ctx_saves = "shapes2"
    seg.steps.append(step)
    seg.indices.append(i)


def _finish_segment(graph, seg: FusedSeg, consumers) -> None:
    """Decide which in-segment outputs must hit memory.

    A step's output is register-only when (a) nothing outside the
    segment reads it — including the replay's root/loss reads — and
    (b) no in-segment consumer's ``Context`` captures it as a saved
    operand array (``_Mul``/``_Div`` save ``(a, b)``)."""
    in_seg = set(seg.indices)
    saves_arrays: Dict[int, bool] = {}
    for s in seg.steps:
        if s.ctx_saves == "arrays":
            for ref in (s.lhs, s.rhs):
                if ref[0] == "tmp":
                    saves_arrays[ref[1]] = True
    for s in seg.steps:
        outside = [c for c in consumers.get(s.index, ()) if c not in in_seg]
        s.materialize = (
            bool(outside)
            or s.index == graph.root_idx
            or s.index == graph.lm_idx
            or saves_arrays.get(s.index, False)
        )

    # No broadcasting anywhere → one flat loop with a runtime trip count.
    contig: List[int] = []
    acc = 1
    for dim in reversed(seg.shape):
        contig.append(acc)
        acc *= dim
    contig_t = tuple(reversed(contig))
    seg.ekinds = ["baked"] * len(seg.ext)
    if seg.ext and all(st == contig_t for _s, _d, st in seg.ext):
        seg.flat = True
        seg.ekinds = ["full"] * len(seg.ext)
        return

    # Last-axis broadcast only → rows*H nest with a runtime row count.
    if seg.ext and len(seg.shape) >= 2:
        lead: List[int] = []
        acc = 1
        for dim in reversed(seg.shape[:-1]):
            lead.append(acc)
            acc *= dim
        rowcast_t = tuple(reversed(lead)) + (0,)
        kinds: List[str] = []
        for _s, _d, st in seg.ext:
            if st == contig_t:
                kinds.append("full")
            elif st == rowcast_t:
                kinds.append("row")
            else:
                return
        if "full" in kinds:
            seg.flat2 = True
            seg.ekinds = kinds
