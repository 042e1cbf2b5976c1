"""Native-code lowering of captured step graphs.

``attach(step_graph)`` turns a sealed :class:`StepGraph` into generated
C.  Every native unit is declared once, in the kernel table
(:mod:`repro.autograd.lower.kernels`): the segmenter partitions the
record list into fused elementwise chains, the records a table entry
replaces, and host runs; the renderer emits the table's C as one
prelude per process and each graph's fused segments as a small unit of
its own; the toolchain compiles both (content-addressed on-disk cache)
and loads them via ctypes; the runtime swaps the lowered units into the
replay schedule behind guards built from the entries' operand
contracts, which fall back to the NumPy interpreter on any mismatch.

Fallback ladder: generated C → NumPy replay (PR 5) → eager capture.
Every rung is bit-identical to the last; lowering only changes
dispatch, never numerics.
"""

from repro.autograd.lower.optim_lower import attach_adam
from repro.autograd.lower.runtime import LoweredPlan, attach
from repro.autograd.lower.segmenter import Analysis, LoweringError, analyze
from repro.autograd.lower.toolchain import cc_available

__all__ = [
    "Analysis",
    "LoweredPlan",
    "LoweringError",
    "analyze",
    "attach",
    "attach_adam",
    "cc_available",
]
