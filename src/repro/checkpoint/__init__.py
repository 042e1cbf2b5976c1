"""Checkpointing subsystem: validated, atomic, sharded, elastic, async.

One on-disk format: a sharded streaming directory — per-layer/per-expert
``.npy`` shards written lazily through a :class:`ShardWriter`, a
CRC-carrying sidecar ``manifest.json`` whose atomic rename *is* the
publish, and a lazy :class:`ShardReader`
(:mod:`repro.checkpoint.sharded`).

On top of the format:

- **elastic resume** (:mod:`repro.checkpoint.reshard`) — per-expert
  shards are remapped across world sizes N→M with
  ``DeviceMesh.owner_of_expert``; bit-exact at N==M, numerically exact
  per-expert otherwise.
- **async background writer** (:mod:`repro.checkpoint.async_writer`) —
  snapshot at the step boundary, serialize/fsync on a worker thread
  with a bounded queue, backpressure, and failure surfacing.
- **rotation** (:class:`CheckpointManager`) — keep-last-N plus
  best-by-metric, with fallback past corrupt or torn checkpoints.

See ``docs/robustness.md`` for the full format and failure-mode story.
"""

from repro.checkpoint.async_writer import AsyncCheckpointWriter
from repro.checkpoint.common import (
    MANIFEST_NAME,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointState,
    apply_state,
    build_state,
)
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.reshard import (
    ExpertMove,
    ReshardPlan,
    maybe_plan_reshard,
    plan_reshard,
)
from repro.checkpoint.sharded import (
    ShardReader,
    ShardWriter,
    describe_checkpoint,
    format_describe,
    load_checkpoint,
    load_state,
    save_checkpoint,
    write_state,
)

__all__ = [
    "MANIFEST_NAME",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointState",
    "CheckpointManager",
    "AsyncCheckpointWriter",
    "ShardWriter",
    "ShardReader",
    "ExpertMove",
    "ReshardPlan",
    "plan_reshard",
    "maybe_plan_reshard",
    "build_state",
    "apply_state",
    "write_state",
    "load_state",
    "save_checkpoint",
    "load_checkpoint",
    "describe_checkpoint",
    "format_describe",
]
