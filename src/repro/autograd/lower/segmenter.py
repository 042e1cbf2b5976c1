"""Partition a captured :class:`StepGraph` into lowerable units.

The segmenter walks the record list once and classifies every record:

- **Kernel units** — records an entry of the kernel table
  (:mod:`repro.autograd.lower.kernels`) replaces: looked up by the
  record's function, admitted by the entry's operand contract
  evaluated on the capture-time layout descriptors.
- **Host runs** — everything else replays through the NumPy
  interpreter unchanged.

A second pass picks the backward swaps the same way.  Layouts are baked
optimistically from the capture — a dynamic operand's live layout is
re-checked by the runtime guard on every replay.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.autograd.graph import _OpRecord
from repro.autograd.lower import kernels

__all__ = ["analyze", "Analysis"]


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


class Analysis:
    __slots__ = ("units", "bwd", "lowered", "native", "total")

    def __init__(self, units, bwd, lowered, native, total):
        self.units = units
        #: record index -> (backward unit kind, its kernel-table entry).
        self.bwd = bwd
        self.lowered = lowered  # record indices with a lowered forward
        self.native = native  # subset executing generated C
        self.total = total


def analyze(graph) -> Analysis:
    records = graph.records
    units: List[Any] = []
    bwd: Dict[int, tuple] = {}
    lowered: set = set()
    native: set = set()
    py_run: List[int] = []

    for i, rec in enumerate(records):
        entry = kernels.forward_entry(rec)
        if entry is None:
            py_run.append(i)
            continue
        if py_run:
            units.append(PyUnit(py_run))
            py_run = []
        units.append(KernUnit(i, entry))
        lowered.add(i)
        if entry.native:
            native.add(i)
    if py_run:
        units.append(PyUnit(py_run))

    # Backward swaps: independent of forward lowering — the Context
    # protocol is identical whether the forward ran eagerly, through the
    # replay interpreter, or in C.
    for i, rec in enumerate(records):
        if type(rec) is _OpRecord and rec.requires_grad:
            entry = kernels.backward_entry(rec)
            if entry is not None:
                bwd[i] = (entry.bwd_name, entry)

    return Analysis(units, bwd, lowered, native, len(records))
