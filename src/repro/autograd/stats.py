"""Counts of the autograd engine's steady-state machinery, kept in the
metrics registry.

Read by benchmarks and surfaced through ``Trainer`` metrics.  The counts
are registry counters (:func:`repro.observability.registry`):

- ``autograd/tape_nodes`` — tape nodes recorded (``Function.apply``);
- ``autograd/fused/<op>`` — calls of each fused op;
- ``autograd/reshape_copy_bytes``, ``autograd/leaf_copy_bytes`` — bytes
  moved by the two copying branches a weight-sized array can take inside
  a step: ``arena.reshaped`` when no view exists, and the first gradient
  to reach a leaf when the leaf cannot adopt the array
  (``tensor._accumulate_leaf``).  Incremented only there, so a step's
  totals repeat exactly and a test can gate on them.

The writers hold the handles below.  ``stats.tape_nodes``,
``stats.reshape_copy_bytes`` and ``stats.leaf_copy_bytes`` read them;
:func:`reset` zeroes this module's counters and no others.  The buffer
pool's hits and misses are state of the arena itself
(``get_arena().stats()``).

Typical use::

    from repro.autograd import stats

    stats.reset()
    run_step()
    print(stats.tape_nodes, stats.nodes_fused())
"""

from __future__ import annotations

from typing import Dict

from repro.observability.metrics import registry

#: Tape nodes each fused op replaces relative to the unfused composition.
#: ``nodes_fused`` counts the *savings* (replaced - 1 recorded node).
FUSION_SAVINGS: Dict[str, int] = {
    "bias_gelu": 2,          # add + gelu -> 1 node (saves 1) plus unbroadcast work
    "sparse_bias_gelu": 1,   # sparse_bias_add + gelu -> 1 node
    "bias_dropout_residual": 2,  # add + dropout + add -> 1 node
    "masked_softmax": 2,     # mul + where + softmax -> 1 node
    "softmax_cross_entropy": 0,  # 1 node either way; fused backward is in-place
    "linear_bias": 1,        # matmul + broadcast add -> 1 node
    "attention_core": 12,    # reshape/transpose/3 slices/key transpose/2
                             # matmuls/mul/where/softmax/transpose/reshape
                             # -> 1 node
}

_REG = registry()
TAPE_NODES = _REG.counter("autograd/tape_nodes")
RESHAPE_COPY_BYTES = _REG.counter("autograd/reshape_copy_bytes")
LEAF_COPY_BYTES = _REG.counter("autograd/leaf_copy_bytes")
_FUSED = {op: _REG.counter(f"autograd/fused/{op}") for op in FUSION_SAVINGS}
_READS = {
    "tape_nodes": TAPE_NODES,
    "reshape_copy_bytes": RESHAPE_COPY_BYTES,
    "leaf_copy_bytes": LEAF_COPY_BYTES,
}


def __getattr__(name: str) -> int:
    """``stats.tape_nodes`` and friends: the current registry values."""
    try:
        return _READS[name].value
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def record_fused(op: str) -> None:
    """Count one fused-op invocation."""
    _FUSED[op].value += 1


def nodes_fused() -> int:
    """Total tape nodes *eliminated* by fusion since the last reset."""
    return sum(FUSION_SAVINGS[op] * c.value for op, c in _FUSED.items())


def reset() -> None:
    """Zero this module's counters (start of a benchmark region or
    training step); every other registry counter keeps its value."""
    for c in (*_READS.values(), *_FUSED.values()):
        c.value = 0
