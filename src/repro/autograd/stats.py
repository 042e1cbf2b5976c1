"""Counters for the autograd engine's steady-state machinery.

Mirrors :mod:`repro.sparse.stats`: plain integer increments, always on,
read by benchmarks and surfaced through ``Trainer`` metrics.  Tracks how
many tape nodes each step records, how many fused-op calls replaced
multi-node compositions, and (via :mod:`repro.autograd.arena`) how well
the buffer pool is reusing memory.

Typical use::

    from repro.autograd import stats

    stats.reset()
    run_step()
    snap = stats.snapshot()
    print(snap["tape_nodes"], snap["nodes_fused"], snap["arena"]["hit_rate"])
"""

from __future__ import annotations

from typing import Dict

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

tape_nodes = 0
fused_calls: Dict[str, int] = {}
#: Bytes moved by the two copying branches a weight-sized array can
#: take inside a step: ``arena.reshaped`` when no view exists, and the
#: first gradient to reach a leaf when the leaf cannot adopt the array
#: (``tensor._accumulate_leaf``).  Incremented only there, so a step's
#: totals repeat exactly and a test can gate on them.
reshape_copy_bytes = 0
leaf_copy_bytes = 0


def record_node() -> None:
    """Count one tape node (called by ``Function.apply``)."""
    global tape_nodes
    tape_nodes += 1


def record_fused(op: str) -> None:
    """Count one fused-op invocation."""
    fused_calls[op] = fused_calls.get(op, 0) + 1


def nodes_fused() -> int:
    """Total tape nodes *eliminated* by fusion since the last reset."""
    return sum(FUSION_SAVINGS.get(op, 0) * n for op, n in fused_calls.items())


def reset() -> None:
    """Zero every counter (start of a benchmark region or training step)."""
    global tape_nodes, reshape_copy_bytes, leaf_copy_bytes
    tape_nodes = 0
    reshape_copy_bytes = 0
    leaf_copy_bytes = 0
    fused_calls.clear()


def snapshot() -> dict:
    """A deep copy of all counters, including the arena's — mutating the
    snapshot never touches the live counters."""
    import copy

    from repro.autograd.arena import get_arena

    return {
        "tape_nodes": tape_nodes,
        "fused_calls": dict(fused_calls),
        "nodes_fused": nodes_fused(),
        "reshape_copy_bytes": reshape_copy_bytes,
        "leaf_copy_bytes": leaf_copy_bytes,
        "arena": copy.deepcopy(get_arena().stats()),
    }


def summary() -> str:
    """Human-readable counter table for benchmark output."""
    snap = snapshot()
    lines = [
        f"tape nodes recorded : {snap['tape_nodes']}",
        f"tape nodes fused    : {snap['nodes_fused']}",
        f"copied by reshape   : {snap['reshape_copy_bytes']} B",
        f"copied into leaves  : {snap['leaf_copy_bytes']} B",
    ]
    for op in sorted(snap["fused_calls"]):
        lines.append(f"  {op:22} x{snap['fused_calls'][op]}")
    a = snap["arena"]
    lines.append(
        f"arena: {'on' if a['enabled'] else 'off'}, "
        f"{a['hits']} hits / {a['misses']} misses "
        f"({a['hit_rate'] * 100:.1f}%), "
        f"{a['pooled_bytes'] / 1e6:.1f} MB pooled, "
        f"{a['evictions']} evictions"
    )
    return "\n".join(lines)
