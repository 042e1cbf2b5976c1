"""Native-code lowering of captured step graphs.

``attach(step_graph)`` swaps native kernels into a sealed
:class:`StepGraph`.  Every native unit is declared once, in the kernel
table (:mod:`repro.autograd.lower.kernels`), whose C is one prelude
library per process: the toolchain compiles it (content-addressed
on-disk cache) and loads it via ctypes, and a captured graph compiles
nothing of its own.  The segmenter partitions the record list into the
records a table entry replaces and host runs; the runtime swaps the
entries' runners into the replay schedule behind guards built from
their operand contracts, which fall back to the NumPy interpreter on
any mismatch.

Fallback ladder: generated C → NumPy replay (PR 5) → eager capture.
Every rung is bit-identical to the last; lowering only changes
dispatch, never numerics.
"""

from repro.autograd.lower.optim_lower import attach_adam
from repro.autograd.lower.runtime import LoweredPlan, attach
from repro.autograd.lower.segmenter import Analysis, analyze
from repro.autograd.lower.toolchain import cc_available

__all__ = [
    "Analysis",
    "LoweredPlan",
    "analyze",
    "attach",
    "attach_adam",
    "cc_available",
]
