"""The kernel table: every native unit of the lowering, declared once.

One module per family; each exports ``KERNELS``, a tuple of
:class:`~repro.autograd.lower.kernels.base.Kernel` entries.  ``TABLE``
concatenates them in a fixed order (``FAMILIES``): :func:`forward_entry`
picks the first entry in that order whose contract admits a record.

``PRELUDE`` is the C of the table, the only C this package compiles —
training's kernels and serving's alike — once per process, as one
library (:func:`repro.autograd.lower.runtime.load_prelude`).  It is a
tuple of translation units, one per group of ``PARTITION``, which the
toolchain compiles concurrently and links once.  Each unit is the
shared helpers, then the sources of its families' entries in table
order.  The ordering rule applies within a unit: an entry's source may
call what an earlier entry *of its unit* defines (``getitem`` after
``scatter``, the grouped GEMMs after ``mm``'s BLAS bridge, serving's
entries after the GEMM that opens their family) — never what another
unit does.  The rendered units, hence the cache key, are deterministic.

Adding a kernel is adding an entry to one family module (or a module to
``FAMILIES`` and to one group of ``PARTITION``): the segmenter, the
runtime, the prelude, ``bind``, ``repro.cli lower report`` and the
conformance test pick it up here.
"""

from __future__ import annotations

import functools
import importlib
from typing import Dict, Optional, Tuple

from repro.autograd.lower.kernels import (
    attention, elementwise, gelu, gemm, grouped, layernorm, optim, router,
    rows, serve, views,
)
from repro.autograd.function import Context, Function
from repro.autograd.lower.kernels.base import HEADER, SHARED, Kernel

__all__ = [
    "FAMILIES", "PARTITION", "PRELUDE", "TABLE", "Kernel", "backward_entry",
    "forward_entry", "reference", "replaced",
]

#: The family modules, in table order.
FAMILIES = (
    rows, layernorm, gelu, attention, gemm, grouped, router, views,
    elementwise, optim, serve,
)

TABLE: Tuple[Kernel, ...] = sum((m.KERNELS for m in FAMILIES), ())

#: The families each translation unit holds.  Two units, balanced by
#: each family's cold ``cc -c`` seconds alone (serve 0.56 with the MoE
#: and sampling entries, layernorm 0.38, attention 0.37, elementwise
#: 0.31, gemm + grouped 0.28, gelu 0.27, optim 0.25, rows 0.19, router
#: 0.09 on a 2-vCPU x86-64 host): one unit per CPU there, since every
#: further unit pays ≈ 0.05 s of ``cc`` start-up and headers.  The
#: second unit is the longer by about a tenth of a second; moving any
#: family across would make the first one longer still.  ``gemm`` and
#: ``grouped`` share a unit because the grouped GEMMs call the BLAS
#: bridge, a ``static`` pointer that ``repro_set_blas`` fills; serving's
#: ``#pragma GCC push_options`` opens and closes inside its own unit.
PARTITION = (
    (rows, layernorm, gelu, gemm, grouped, router),
    (attention, views, elementwise, optim, serve),
)

#: The prelude: one unit per group of ``PARTITION``, each the shared
#: helpers and then its families' entries' C, in table order.
PRELUDE: Tuple[str, ...] = tuple(
    HEADER + SHARED + "".join(
        e.source for m in FAMILIES if m in group for e in m.KERNELS
    )
    for group in PARTITION
)


def replaced(entry: Kernel):
    """The op class or host callable ``entry`` stands in for."""
    target = entry.replaces
    if isinstance(target, str):
        module, _, name = target.rpartition(".")
        target = getattr(importlib.import_module(module), name)
    return target


def reference(entry: Kernel):
    """``entry``'s reference on plain operands, the face a direct call
    is held to and falls back on: the host callable it replaces, or the
    replaced op's NumPy ``forward`` (on a context nothing reads)."""
    target = replaced(entry)
    if isinstance(target, type) and issubclass(target, Function):
        return lambda *ops: target.forward(Context(), *ops)
    return target


@functools.lru_cache(maxsize=None)
def _by_replaced() -> Dict[object, Tuple[Kernel, ...]]:
    # Built on first lookup: a dotted ``replaces`` names a module that
    # imports repro.autograd, which must finish importing first.
    index: Dict[object, Tuple[Kernel, ...]] = {}
    for entry in TABLE:
        if entry.forward is not None or entry.backward is not None:
            key = replaced(entry)
            index[key] = index.get(key, ()) + (entry,)
    return index


def forward_entry(rec) -> Optional[Kernel]:
    """The entry whose forward runner replaces ``rec``, if any: first in
    table order whose contract admits the captured operands."""
    for entry in _by_replaced().get(rec.fn, ()):
        if entry.forward is not None and entry.contract.admits(rec):
            return entry
    return None


def backward_entry(rec) -> Optional[Kernel]:
    """The entry whose closure replaces ``rec``'s backward, if any."""
    for entry in _by_replaced().get(rec.fn, ()):
        if entry.backward is not None and entry.bwd_contract.admits(rec):
            return entry
    return None
