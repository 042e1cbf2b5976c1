"""The kernel table: every native unit of the lowering, declared once.

One module per family; each exports ``KERNELS``, a tuple of
:class:`~repro.autograd.lower.kernels.base.Kernel` entries.  ``TABLE``
concatenates them in a fixed order — the order their C appears in the
prelude, so an entry's source may call what an earlier entry defines
(``getitem`` after ``scatter``, the grouped GEMMs after ``mm``'s BLAS
bridge, serving's entries after the GEMM that opens their family) and
the rendered unit, hence its cache key, is deterministic.

``PRELUDE`` is that unit: the shared helpers, then every entry's source
in table order.  It is the only C this package compiles — training's
kernels and serving's alike — once per process
(:func:`repro.autograd.lower.runtime.load_prelude`).

Adding a kernel is adding an entry to one family module (or a module to
the tuple below): the segmenter, the runtime, the prelude, ``bind``,
``repro.cli lower report`` and the conformance test pick it up here.
"""

from __future__ import annotations

import functools
import importlib
from typing import Dict, Optional, Tuple

from repro.autograd.lower.kernels import (
    attention, elementwise, gelu, gemm, grouped, layernorm, optim, router,
    rows, serve, views,
)
from repro.autograd.lower.kernels.base import HEADER, SHARED, Kernel

__all__ = [
    "PRELUDE", "TABLE", "Kernel", "backward_entry", "forward_entry", "replaced",
]

TABLE: Tuple[Kernel, ...] = sum(
    (
        m.KERNELS
        for m in (
            rows, layernorm, gelu, attention, gemm, grouped, router, views,
            elementwise, optim, serve,
        )
    ),
    (),
)

#: The prelude: every entry's C, in table order, behind the shared helpers.
PRELUDE = HEADER + SHARED + "".join(e.source for e in TABLE)


def replaced(entry: Kernel):
    """The op class or host callable ``entry`` stands in for."""
    target = entry.replaces
    if isinstance(target, str):
        module, _, name = target.rpartition(".")
        target = getattr(importlib.import_module(module), name)
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
