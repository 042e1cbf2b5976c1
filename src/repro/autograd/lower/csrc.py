"""C source rendering: the prelude and the per-graph segment units.

The *prelude* is the kernel table's C — the shared helpers, then each
entry's source in table order (:mod:`repro.autograd.lower.kernels`) —
compiled once per process.  A graph's own translation unit holds only
one generated function per fused elementwise segment.  Everything here
exists to be **bit-identical** to the NumPy eager path: fused segments
evaluate through float registers, and on x86-64 SSE
(``FLT_EVAL_METHOD == 0``, ``-ffp-contract=off``) register temporaries
are bit-identical to materialized intermediates; what each prelude
kernel replicates is stated beside its source in the table.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.autograd.lower import kernels
from repro.autograd.lower.kernels.base import HEADER, SHARED
from repro.autograd.lower.segmenter import FusedSeg

__all__ = ["PRELUDE", "render_fused", "render_unit", "c_literal"]

#: The prelude: every entry's C, in table order, behind the shared helpers.
PRELUDE = HEADER + SHARED + "".join(e.source for e in kernels.TABLE)


def c_literal(value: float, ctype: str) -> str:
    """Exact hexadecimal float literal for a frozen scalar constant.

    NEP 50: a Python scalar combined with a float32 array is cast to
    float32 before the loop, so the float32 rounding happens *here*, at
    render time, and the literal is exact."""
    if ctype == "float":
        v = float(np.float32(value))
    else:
        v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"non-finite constant {value!r} cannot be lowered")
    suffix = "f" if ctype == "float" else ""
    return f"{v.hex()}{suffix}"


def _contig_strides(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    out: List[int] = []
    acc = 1
    for dim in reversed(shape):
        out.append(acc)
        acc *= dim
    return tuple(reversed(out))


def _index_expr(strides: Tuple[int, ...]) -> str:
    terms = []
    for k, s in enumerate(strides):
        if s == 0:
            continue
        terms.append(f"i{k}" if s == 1 else f"i{k} * {s}")
    return " + ".join(terms) if terms else "0"


def render_fused(seg) -> str:
    """Render one fused segment as ``void <name>(void **p)``.

    ``p`` holds the external operand pointers first, then one output
    pointer per materialized step, in step order.  The loop comes in
    three shapes, chosen by the segmenter:

    - *strided*: shapes and strides are baked; broadcast dimensions
      have stride 0.
    - *flat* — every operand is full-shape contiguous: the nest
      collapses to ``for (i = 0; i < n; i++)`` with the element count
      ``n`` read from one extra ``i64`` slot at the end of ``p`` on
      every call, so the segment survives live shapes that drift from
      capture.
    - *flat2* — operands are full-shape contiguous or a contiguous
      per-row ``(..., 1)`` column (e.g. the routing-weight scale applied
      to gathered expert rows): a rows-by-H nest whose row count is read
      from that slot while the last-axis width stays baked."""
    ctype = seg.ctype
    n_ext = len(seg.ext)
    stores = [s for s in seg.steps if s.materialize]
    lines: List[str] = [f"void {seg.name}(void **p)", "{"]
    for k in range(n_ext):
        lines.append(
            f"    const {ctype} *restrict e{k} = (const {ctype} *)p[{k}];"
        )
    for t in range(len(stores)):
        lines.append(
            f"    {ctype} *restrict o{t} = ({ctype} *)p[{n_ext + t}];"
        )
    count = f"*(const i64 *)p[{n_ext + len(stores)}]"
    if seg.flat:
        lines.append(f"    i64 n = {count};")
        lines.append("    for (i64 i = 0; i < n; i++) {")
        depth, out_ix = 1, "i"
        ext_ix = ["i"] * n_ext
    elif seg.flat2:
        H = seg.shape[-1]
        lines.append(f"    i64 r = {count};")
        lines.append("    for (i64 i = 0; i < r; i++) {")
        lines.append(f"        for (i64 j = 0; j < {H}; j++) {{")
        depth, out_ix = 2, f"i * {H} + j"
        ext_ix = ["i" if how == "row" else out_ix for how in seg.ekinds]
    else:
        shape = seg.shape if seg.shape else (1,)
        for k, dim in enumerate(shape):
            lines.append(
                f"{'    ' * (k + 1)}for (i64 i{k} = 0; i{k} < {dim}; i{k}++) {{"
            )
        depth, out_ix = len(shape), _index_expr(_contig_strides(shape))
        ext_ix = [_index_expr(strides) for _s, _d, strides in seg.ext]
    indent = "    " * (depth + 1)

    def ref_expr(ref):
        tag, payload = ref
        if tag == "lit":
            return c_literal(payload, ctype)
        if tag == "tmp":
            return f"t{payload}"
        return f"e{payload}[{ext_ix[payload]}]"

    store_slot = {s.index: t for t, s in enumerate(stores)}
    for step in seg.steps:
        lines.append(
            f"{indent}{ctype} t{step.index} = "
            f"{ref_expr(step.lhs)} {step.op} {ref_expr(step.rhs)};"
        )
        t = store_slot.get(step.index)
        if t is not None:
            lines.append(f"{indent}o{t}[{out_ix}] = t{step.index};")
    for d in range(depth, -1, -1):
        lines.append("    " * d + "}")
    return "\n".join(lines)


def render_unit(analysis) -> str:
    """A graph's translation unit: its fused segments (named here, in
    unit order) behind the typedef header, or ``""`` when it has none."""
    parts = []
    for unit in analysis.units:
        if isinstance(unit, FusedSeg):
            unit.name = f"repro_seg{len(parts)}"
            parts.append(render_fused(unit))
    return "\n\n".join([HEADER] + parts) + "\n" if parts else ""
