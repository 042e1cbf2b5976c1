"""Shared checkpoint substrate: errors, durability helpers, state capture.

The on-disk format (:mod:`repro.checkpoint.sharded`) serializes one
logical object — a :class:`CheckpointState`: a flat ``name -> array``
mapping plus a JSON metadata dict.  :func:`build_state` captures one
from a model/optimizer pair (optionally *copying* every array, which is
what lets the async background writer serialize a step-boundary snapshot
while training mutates the live parameters), and :func:`apply_state`
restores one into a model/optimizer: everything is checked before
anything is mutated.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.logging import get_logger

# Type-only: this package must stay importable before repro.training
# (the trainer itself imports repro.checkpoint).
if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.module import Module
    from repro.training.optim import Optimizer

logger = get_logger("checkpoint")

#: Sharded streaming directory layout — the only format written or
#: read (version 2 was a single-file archive, removed).
FORMAT_VERSION_SHARDED = 3

#: Manifest file that publishes a sharded checkpoint directory.  A
#: directory without it is torn (a write died mid-shard) and is never
#: loadable.
MANIFEST_NAME = "manifest.json"


class CheckpointError(ValueError):
    """A checkpoint could not be saved or restored."""


class CheckpointCorruptError(CheckpointError):
    """The checkpoint is damaged (truncated, bad CRC, bad schema)."""


def crc32(arr: np.ndarray) -> int:
    """CRC32 of an array's C-contiguous byte image."""
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


def fsync_dir(path: str) -> None:
    """fsync a directory so a just-committed rename inside it is durable.

    ``os.replace`` makes a write atomic, but the *rename itself* lives
    in the parent directory's pages — until those are flushed a crash
    can roll the rename back and lose an already-"published" file.
    Shared by the rotation-index write and the manifest publish.
    Best-effort: some filesystems refuse directory fsync; that degrades
    durability, never correctness.
    """
    try:
        dfd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)


def fsync_parent_dir(path: str) -> None:
    """fsync the directory containing ``path`` (see :func:`fsync_dir`)."""
    fsync_dir(os.path.dirname(os.path.abspath(path)))


def write_file_durably(path: str, data: bytes) -> None:
    """Atomically publish ``data`` at ``path``: tmp + fsync + rename +
    parent-directory fsync."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    fsync_parent_dir(path)


# ---------------------------------------------------------------------------
# Logical checkpoint state (format-independent).
# ---------------------------------------------------------------------------
@dataclass
class CheckpointState:
    """One checkpoint's full content, independent of on-disk format.

    Attributes:
        arrays: flat ``name -> ndarray`` map (``model/<param>``,
            ``optim/m|v/<index>``, ``extra/<name>``).
        meta: JSON-serializable metadata (``step``, ``extra``, ``adam``,
            optionally ``mesh``).
        expert_axes: array names that hold stacked per-expert state,
            mapped to ``(axis, num_experts)`` — the sharded writer
            splits these along ``axis`` into one shard per expert so a
            resharded load never has to slice inside a file.
    """

    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any]
    expert_axes: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays.values())


def _named_expert_params(model: Module) -> Dict[str, int]:
    """Qualified parameter names of stacked expert weights -> num_experts.

    Walks the module tree looking for :class:`repro.moe.experts
    .ExpertWeights` containers — the storage every MoE formulation in
    the repo shares — whose parameters stack experts along axis 0.
    """
    from repro.moe.experts import ExpertWeights

    found: Dict[str, int] = {}

    def walk(module: Module, prefix: str) -> None:
        if isinstance(module, ExpertWeights):
            for name, p in module._parameters.items():
                if p.data.ndim >= 1 and p.data.shape[0] == module.num_experts:
                    found[f"{prefix}{name}"] = int(module.num_experts)
        for child_name, child in module._modules.items():
            walk(child, f"{prefix}{child_name}.")

    walk(model, "")
    return found


def build_state(
    model: Module,
    optimizer: Optional[Optimizer] = None,
    step: int = 0,
    extra: Optional[Dict[str, Any]] = None,
    extra_arrays: Optional[Dict[str, np.ndarray]] = None,
    mesh: Optional[Any] = None,
    copy: bool = False,
) -> CheckpointState:
    """Capture model/optimizer/caller state into a :class:`CheckpointState`.

    ``copy=True`` snapshots every array (the async writer's step-boundary
    discipline: once captured, the state is immune to further training
    steps and guardrail rewinds).  ``mesh`` (a
    :class:`repro.distributed.DeviceMesh`) records the world-size
    metadata elastic resume reads back.
    """
    from repro.training.optim import Adam

    expert_params = _named_expert_params(model)
    arrays: Dict[str, np.ndarray] = {}
    expert_axes: Dict[str, Tuple[int, int]] = {}
    param_names: Dict[int, str] = {}
    for name, p in model.named_parameters():
        key = f"model/{name}"
        arrays[key] = p.data.copy() if copy else p.data
        param_names[id(p)] = name
        if name in expert_params:
            expert_axes[key] = (0, expert_params[name])
    meta: Dict[str, Any] = {
        "step": int(step),
        "extra": extra or {},
    }
    if mesh is not None:
        meta["mesh"] = {
            "world": int(mesh.world),
            "expert_parallel": int(mesh.expert_parallel),
        }
    if isinstance(optimizer, Adam):
        meta["adam"] = {
            "t": optimizer.t,
            "lr": optimizer.lr,
            "num_params": len(optimizer._m),
        }
        for i, (p, m, v) in enumerate(
            zip(optimizer.params, optimizer._m, optimizer._v)
        ):
            arrays[f"optim/m/{i}"] = m.copy() if copy else m
            arrays[f"optim/v/{i}"] = v.copy() if copy else v
            # Moments of a stacked expert parameter shard the same way
            # the parameter does, so resharding moves optimizer state
            # together with the weights it tracks.
            pname = param_names.get(id(p))
            if pname in expert_params:
                axes = (0, expert_params[pname])
                expert_axes[f"optim/m/{i}"] = axes
                expert_axes[f"optim/v/{i}"] = axes
    for name, arr in (extra_arrays or {}).items():
        arr = np.asarray(arr)
        arrays[f"extra/{name}"] = arr.copy() if copy else arr
    return CheckpointState(arrays=arrays, meta=meta, expert_axes=expert_axes)


def apply_state(
    state: CheckpointState,
    model: Module,
    optimizer: Optional[Optimizer] = None,
) -> Dict[str, Any]:
    """Restore a validated :class:`CheckpointState` into model/optimizer.

    All structural validation (shape, parameter count) happens before
    any in-place mutation; returns the metadata dict with
    ``extra_arrays`` attached.
    """
    from repro.training.optim import Adam

    arrays, meta = state.arrays, state.meta
    model_state = {
        name[len("model/"):]: arr
        for name, arr in arrays.items()
        if name.startswith("model/")
    }
    model.load_state_dict(model_state)
    if optimizer is not None and isinstance(optimizer, Adam):
        if "adam" not in meta:
            raise KeyError("checkpoint holds no Adam state")
        saved = int(meta["adam"].get("num_params", -1))
        if saved != len(optimizer._m):
            raise ValueError(
                f"optimizer parameter count mismatch: checkpoint holds Adam "
                f"moments for {saved} parameters, optimizer has "
                f"{len(optimizer._m)} — model/optimizer architecture differs "
                f"from the saved run"
            )
        for i in range(len(optimizer._m)):
            for kind, store in (("m", optimizer._m), ("v", optimizer._v)):
                arr = arrays[f"optim/{kind}/{i}"]
                if arr.shape != store[i].shape:
                    raise ValueError(
                        f"optimizer moment optim/{kind}/{i} shape mismatch: "
                        f"checkpoint {arr.shape} vs optimizer {store[i].shape}"
                    )
        optimizer.t = int(meta["adam"]["t"])
        for i in range(len(optimizer._m)):
            optimizer._m[i][...] = arrays[f"optim/m/{i}"]
            optimizer._v[i][...] = arrays[f"optim/v/{i}"]
    out = dict(meta)
    out["extra_arrays"] = {
        name[len("extra/"):]: arr
        for name, arr in arrays.items()
        if name.startswith("extra/")
    }
    return out
