"""Counts of the autograd engine's steady-state machinery, kept in the
metrics registry.

Read by benchmarks and surfaced through ``Trainer`` metrics.  The counts
are registry counters (:func:`repro.observability.registry`):

- ``autograd/tape_nodes`` — tape nodes recorded (``Function.apply``);
- ``autograd/fused/<op>`` — calls of each fused op;
- ``autograd/nodes_fused`` — tape nodes those calls saved: a call that
  records its node saves the nodes its composition would have recorded,
  less one (``repro.autograd.ops_fused`` states that count per call);
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

from repro.observability.metrics import registry

_REG = registry()
TAPE_NODES = _REG.counter("autograd/tape_nodes")
RESHAPE_COPY_BYTES = _REG.counter("autograd/reshape_copy_bytes")
LEAF_COPY_BYTES = _REG.counter("autograd/leaf_copy_bytes")
NODES_FUSED = _REG.counter("autograd/nodes_fused")
#: Call counts of the fused ops (``repro.autograd.ops_fused`` and
#: ``repro.sparse.autograd_ops.sparse_bias_gelu``).
_FUSED = {
    op: _REG.counter(f"autograd/fused/{op}")
    for op in (
        "bias_gelu",
        "sparse_bias_gelu",
        "dropout_residual",
        "masked_softmax",
        "softmax_cross_entropy",
        "linear_bias",
        "attention_core",
    )
}
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


def record_fused(op: str, out, replaced: int):
    """Count one call of fused op ``op`` and return its output ``out``.

    ``replaced`` is the number of tape nodes the composition the op
    stands for records on this call, with every differentiable input on
    the tape.  The call saves ``replaced - 1`` of them when ``out``'s
    node is recorded, and none under ``no_grad`` (neither side records).
    """
    _FUSED[op].value += 1
    if out.requires_grad:
        NODES_FUSED.value += replaced - 1
    return out


def nodes_fused() -> int:
    """Total tape nodes *eliminated* by fusion since the last reset."""
    return NODES_FUSED.value


def reset() -> None:
    """Zero this module's counters (start of a benchmark region or
    training step); every other registry counter keeps its value."""
    for c in (*_READS.values(), NODES_FUSED, *_FUSED.values()):
        c.value = 0
