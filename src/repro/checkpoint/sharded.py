"""Sharded streaming checkpoint format (``format_version=3``) — the
only format this package writes or reads.

A checkpoint is a *directory*:

.. code-block:: text

    ckpt-00000040/
        shards/
            shard-000000.npy      one tensor (or one expert slice) each,
            shard-000001.npy      written through an explicit handle and
            ...                   fsynced before the manifest names them
        manifest.json             sidecar index — the publish atom

Tensors stream through a :class:`ShardWriter` one at a time, so saving
never needs the whole model in a second in-memory copy.  Stacked
per-expert state (expert weights and their Adam moments) is split into
one shard per expert, each annotated with the expert index and the
owning rank under the save-time :class:`repro.distributed.DeviceMesh` —
the unit of exchange for elastic resume (:mod:`repro.checkpoint
.reshard`).

Durability contract:

- every shard file is flushed and fsynced before the manifest refers to
  it, and carries a CRC32 in the manifest;
- the manifest itself is written to a temp name, fsynced, ``os.replace``d
  into place, and the parent directory fsynced — *the manifest rename
  is the publish*;
- a directory without a manifest is a torn write (the process died
  mid-shard, or a fault-injected write was killed): it is never
  loadable and :meth:`CheckpointManager.load_latest` skips it;
- a manifest whose referenced shard is missing, truncated, or fails its
  CRC makes the whole checkpoint :class:`CheckpointCorruptError` — loads
  validate every shard *before* mutating any state.

:class:`ShardReader` is the lazy side: it maps tensor names to shard
files from the manifest alone and materializes only what is asked for,
so inspection tools and partial loads never page in the full model.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.checkpoint.common import (
    FORMAT_VERSION_SHARDED,
    MANIFEST_NAME,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointState,
    apply_state,
    build_state,
    crc32,
    fsync_parent_dir,
    logger,
    write_file_durably,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.module import Module
    from repro.training.optim import Optimizer

#: Optional hook signature for fault injection: called with the shard
#: *key* immediately before each shard write; raising aborts the write
#: and leaves the directory torn (no manifest).
FaultHook = Callable[[str], None]


def _registry():
    from repro.observability.metrics import registry

    return registry()


class ShardWriter:
    """Streams tensors into a checkpoint directory, one shard at a time.

    Usage::

        w = ShardWriter(path)
        w.put("model/embed.weight", arr)
        w.put_expert_sharded("model/ffn.experts.w1", w1, num_experts=8)
        w.finalize(meta)          # atomic publish

    Until :meth:`finalize` returns, the directory holds no manifest and
    is invisible to every reader — a crash (or an injected
    ``torn_write`` fault) anywhere before that leaves a torn directory
    that ``load_latest`` skips.
    """

    def __init__(
        self,
        path: str,
        fault_hook: Optional[FaultHook] = None,
        mesh: Optional[Any] = None,
    ) -> None:
        self.path = path
        self.fault_hook = fault_hook
        self.mesh = mesh
        self.entries: List[Dict[str, Any]] = []
        self._finalized = False
        if os.path.isdir(path):
            # Overwrite semantics: the previous checkpoint at this
            # path is superseded.
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
        os.makedirs(os.path.join(path, "shards"))

    # ------------------------------------------------------------------
    def _write_shard(
        self, key: str, arr: np.ndarray, part: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        if self._finalized:
            raise CheckpointError(f"ShardWriter for {self.path!r} is finalized")
        if self.fault_hook is not None:
            # Fault seam: a hook that raises here kills the write
            # "mid-shard" — earlier shards exist, this one does not,
            # and the manifest never lands.
            self.fault_hook(key)
        arr = np.asarray(arr)
        fname = f"shards/shard-{len(self.entries):06d}.npy"
        fpath = os.path.join(self.path, fname)
        with open(fpath, "wb") as fh:
            np.save(fh, arr, allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        entry: Dict[str, Any] = {
            "file": fname,
            "key": key,
            "crc32": crc32(arr),
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "nbytes": int(arr.nbytes),
        }
        if part is not None:
            entry["part"] = part
        self.entries.append(entry)
        reg = _registry()
        reg.counter("ckpt/shards_written").inc()
        reg.counter("ckpt/bytes_written").inc(int(arr.nbytes))
        return entry

    def put(self, key: str, arr: np.ndarray) -> Dict[str, Any]:
        """Write one whole tensor as a single shard."""
        return self._write_shard(key, arr, None)

    def put_expert_sharded(
        self, key: str, arr: np.ndarray, num_experts: int, axis: int = 0
    ) -> List[Dict[str, Any]]:
        """Write a stacked per-expert tensor as one shard per expert.

        Each part records its expert index and — when the writer has a
        mesh — the rank that owned the expert at save time, which is
        what the reshard planner audits on an N→M resume.
        """
        if arr.shape[axis] != num_experts:
            raise CheckpointError(
                f"{key!r}: axis {axis} has extent {arr.shape[axis]}, "
                f"expected num_experts={num_experts}"
            )
        entries = []
        for e in range(num_experts):
            part = {"axis": int(axis), "index": int(e), "count": int(num_experts)}
            if self.mesh is not None:
                part["rank"] = int(self.mesh.owner_of_expert(e, num_experts))
            entries.append(
                self._write_shard(key, np.take(arr, e, axis=axis), part)
            )
        return entries

    # ------------------------------------------------------------------
    def finalize(self, meta: Optional[Dict[str, Any]] = None) -> str:
        """Atomically publish the checkpoint: write ``manifest.json``.

        The manifest is the only file readers trust; shard files are
        already fsynced, so once the manifest rename (plus parent-dir
        fsync) returns, the checkpoint is durable and complete.
        """
        manifest: Dict[str, Any] = dict(meta or {})
        manifest["format_version"] = FORMAT_VERSION_SHARDED
        manifest["shards"] = self.entries
        blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
        write_file_durably(os.path.join(self.path, MANIFEST_NAME), blob)
        self._finalized = True
        return self.path

    def abort(self) -> None:
        """Remove the partially written (unpublished) directory."""
        if not self._finalized and os.path.isdir(self.path):
            shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------
def read_manifest(path: str) -> Dict[str, Any]:
    """Parse and schema-check a checkpoint directory's manifest.

    Raises :class:`FileNotFoundError` when ``path`` does not exist,
    :class:`CheckpointError` when it is a file (the removed single-file
    format), and :class:`CheckpointCorruptError` for a torn directory
    (no manifest) or an unreadable/over-versioned manifest.
    """
    if not os.path.isdir(path):
        if os.path.exists(path):
            raise CheckpointError(
                f"{path!r} is a file, not a checkpoint directory — the "
                f"single-file .npz format (v2) has been removed; "
                f"checkpoints are sharded directories"
            )
        raise FileNotFoundError(path)
    mpath = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(mpath):
        raise CheckpointCorruptError(
            f"checkpoint {path!r} has no {MANIFEST_NAME} — torn write "
            f"(the writer died before publishing)"
        )
    try:
        with open(mpath, "rb") as fh:
            manifest = json.loads(fh.read().decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path!r}: manifest is not valid JSON: {exc}"
        ) from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION_SHARDED:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} has format_version={version!r}; the "
            f"sharded reader expects {FORMAT_VERSION_SHARDED}"
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list):
        raise CheckpointCorruptError(
            f"checkpoint {path!r}: manifest has no shard list"
        )
    for entry in shards:
        for field in ("file", "key", "crc32", "shape", "dtype"):
            if field not in entry:
                raise CheckpointCorruptError(
                    f"checkpoint {path!r}: shard entry {entry.get('file')!r} "
                    f"lacks {field!r}"
                )
    return manifest


class ShardReader:
    """Lazy tensor access over a published sharded checkpoint.

    Construction reads *only* the manifest.  ``reader[name]`` loads,
    CRC-validates, and (for per-expert tensors) reassembles exactly the
    shards backing ``name`` — nothing else touches disk, so mapping a
    100-tensor checkpoint to find one embedding costs one file read.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.manifest = read_manifest(path)
        self._by_key: Dict[str, List[Dict[str, Any]]] = {}
        for entry in self.manifest["shards"]:
            self._by_key.setdefault(entry["key"], []).append(entry)

    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        return list(self._by_key)

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    @property
    def meta(self) -> Dict[str, Any]:
        """Manifest metadata minus the shard table."""
        return {
            k: v for k, v in self.manifest.items() if k not in ("shards",)
        }

    def entries(self, key: str) -> List[Dict[str, Any]]:
        if key not in self._by_key:
            raise KeyError(key)
        return list(self._by_key[key])

    # ------------------------------------------------------------------
    def _read_shard(self, entry: Dict[str, Any]) -> np.ndarray:
        fpath = os.path.join(self.path, entry["file"])
        if not os.path.exists(fpath):
            raise CheckpointCorruptError(
                f"checkpoint {self.path!r}: shard {entry['file']!r} "
                f"(tensor {entry['key']!r}) is missing from disk"
            )
        try:
            arr = np.load(fpath, allow_pickle=False)
        except (OSError, ValueError, EOFError) as exc:
            raise CheckpointCorruptError(
                f"checkpoint {self.path!r}: shard {entry['file']!r} "
                f"(tensor {entry['key']!r}) is unreadable: {exc}"
            ) from exc
        if list(arr.shape) != list(entry["shape"]) or str(arr.dtype) != entry["dtype"]:
            raise CheckpointCorruptError(
                f"checkpoint {self.path!r}: shard {entry['file']!r} "
                f"(tensor {entry['key']!r}) has shape/dtype "
                f"{arr.shape}/{arr.dtype}, manifest says "
                f"{tuple(entry['shape'])}/{entry['dtype']}"
            )
        got = crc32(arr)
        if got != entry["crc32"]:
            raise CheckpointCorruptError(
                f"checkpoint {self.path!r}: checksum mismatch for shard "
                f"{entry['file']!r} (tensor {entry['key']!r}): recorded "
                f"{entry['crc32']:#010x}, got {got:#010x} — the shard is "
                f"corrupt"
            )
        return arr

    def __getitem__(self, key: str) -> np.ndarray:
        """Load (and for per-expert tensors, reassemble) one tensor."""
        entries = self.entries(key)
        if len(entries) == 1 and "part" not in entries[0]:
            return self._read_shard(entries[0])
        if any("part" not in e for e in entries):
            raise CheckpointCorruptError(
                f"checkpoint {self.path!r}: tensor {key!r} mixes whole and "
                f"per-expert shards"
            )
        entries = sorted(entries, key=lambda e: e["part"]["index"])
        count = int(entries[0]["part"]["count"])
        indices = [int(e["part"]["index"]) for e in entries]
        if indices != list(range(count)):
            raise CheckpointCorruptError(
                f"checkpoint {self.path!r}: tensor {key!r} has expert "
                f"shards {indices}, expected 0..{count - 1}"
            )
        axis = int(entries[0]["part"]["axis"])
        return np.stack([self._read_shard(e) for e in entries], axis=axis)

    # ------------------------------------------------------------------
    def load_all(self) -> Dict[str, np.ndarray]:
        """Materialize and CRC-validate every tensor (full-load path)."""
        return {key: self[key] for key in self.keys()}


# ---------------------------------------------------------------------------
# Whole-checkpoint save / load on CheckpointState
# ---------------------------------------------------------------------------
def write_state(
    path: str,
    state: CheckpointState,
    fault_hook: Optional[FaultHook] = None,
    mesh: Optional[Any] = None,
) -> str:
    """Serialize a :class:`CheckpointState` as a checkpoint directory.

    The single serializer behind both the synchronous save and the async
    background writer — which is what makes their outputs byte-identical.
    """
    if mesh is None and state.meta.get("mesh"):
        # Recover the save-time mesh from the captured state so every
        # expert shard carries its owning rank, whichever path wrote it.
        from repro.distributed.mesh import DeviceMesh

        m = state.meta["mesh"]
        mesh = DeviceMesh(
            world=int(m["world"]),
            expert_parallel=int(m["expert_parallel"]),
        )
    writer = ShardWriter(path, fault_hook=fault_hook, mesh=mesh)
    try:
        for key, arr in state.arrays.items():
            if key in state.expert_axes:
                axis, num_experts = state.expert_axes[key]
                writer.put_expert_sharded(key, arr, num_experts, axis=axis)
            else:
                writer.put(key, arr)
        return writer.finalize(state.meta)
    except BaseException:
        # Leave the torn directory in place: that is precisely the
        # artifact the recovery tests (and a real crash) produce.  Only
        # the manifest publish makes it a checkpoint.
        raise


def save_checkpoint(
    path: str,
    model: Module,
    optimizer: Optional[Optimizer] = None,
    step: int = 0,
    extra: Optional[Dict[str, Any]] = None,
    extra_arrays: Optional[Dict[str, np.ndarray]] = None,
    mesh: Optional[Any] = None,
    fault_hook: Optional[FaultHook] = None,
) -> str:
    """Write a checkpoint directory for a model/optimizer."""
    state = build_state(
        model,
        optimizer,
        step=step,
        extra=extra,
        extra_arrays=extra_arrays,
        mesh=mesh,
    )
    return write_state(path, state, fault_hook=fault_hook, mesh=mesh)


def load_state(path: str) -> CheckpointState:
    """Read and fully validate a checkpoint into memory (model-free).

    Every shard's CRC is checked here, before the caller mutates any
    model/optimizer state.
    """
    reader = ShardReader(path)
    arrays = reader.load_all()
    expert_axes: Dict[str, Tuple[int, int]] = {}
    for key in reader.keys():
        entries = reader.entries(key)
        if "part" in entries[0]:
            part = entries[0]["part"]
            expert_axes[key] = (int(part["axis"]), int(part["count"]))
    meta = reader.meta
    meta.pop("format_version", None)
    return CheckpointState(arrays=arrays, meta=meta, expert_axes=expert_axes)


def load_checkpoint(
    path: str,
    model: Module,
    optimizer: Optional[Optimizer] = None,
    mesh: Optional[Any] = None,
) -> Dict[str, Any]:
    """Restore a checkpoint; reshard-aware when ``mesh`` differs.

    Every shard is CRC-validated before any state is mutated.  When
    ``mesh`` is given and its world size differs from the checkpoint's,
    the reshard planner recomputes expert ownership with
    ``DeviceMesh.owner_of_expert`` and the load proceeds per-expert —
    numerically exact (in this in-process simulation, bit-exact) in both
    directions.  Returns the metadata dict; under a reshard it gains a
    ``"reshard"`` summary.

    Raises:
        CheckpointCorruptError: torn directory, missing/damaged shard,
            checksum mismatch, or unknown schema version.
        CheckpointError: ``path`` is a file (the removed single-file
            format).
        FileNotFoundError: nothing at ``path``.
        KeyError / ValueError: architecture mismatches (parameter names,
            Adam moment counts/shapes).
    """
    state = load_state(path)
    reshard_info = None
    saved_mesh = state.meta.get("mesh")
    if mesh is not None and saved_mesh is not None:
        from repro.checkpoint.reshard import maybe_plan_reshard

        plan = maybe_plan_reshard(state, saved_mesh, mesh)
        if plan is not None:
            reshard_info = plan.summary()
            logger.info(
                "elastic resume: resharding experts %s",
                reshard_info,
            )
    meta = apply_state(state, model, optimizer)
    meta["format_version"] = FORMAT_VERSION_SHARDED
    if reshard_info is not None:
        meta["reshard"] = reshard_info
    _registry().counter("ckpt/v3_loads").inc()
    return meta


# ---------------------------------------------------------------------------
# Inspection (CLI `ckpt inspect`)
# ---------------------------------------------------------------------------
def describe_checkpoint(path: str, verify: bool = False) -> Dict[str, Any]:
    """Structured description of a checkpoint.

    Returns ``{"path", "format_version", "step", "mesh", "num_tensors",
    "num_shards", "total_bytes", "shards": [...]}`` where each shard row
    has name/file/shape/dtype/bytes/crc32 (and expert/rank for expert
    shards).  ``verify=True`` re-reads every shard and recomputes its
    CRC (raises :class:`CheckpointCorruptError` on damage).
    """
    reader = ShardReader(path)
    rows = []
    for entry in reader.manifest["shards"]:
        row = {
            "name": entry["key"],
            "file": entry["file"],
            "shape": tuple(entry["shape"]),
            "dtype": entry["dtype"],
            "bytes": int(entry.get("nbytes", 0)),
            "crc32": int(entry["crc32"]),
        }
        if "part" in entry:
            row["expert"] = int(entry["part"]["index"])
            if "rank" in entry["part"]:
                row["rank"] = int(entry["part"]["rank"])
        rows.append(row)
        if verify:
            reader._read_shard(entry)
    meta = reader.meta
    return {
        "path": path,
        "format_version": FORMAT_VERSION_SHARDED,
        "step": meta.get("step"),
        "mesh": meta.get("mesh"),
        "extra": meta.get("extra", {}),
        "num_tensors": len(reader.keys()),
        "num_shards": len(rows),
        "total_bytes": sum(r["bytes"] for r in rows),
        "shards": rows,
    }


def format_describe(info: Dict[str, Any], limit: int = 0) -> str:
    """Human-readable table for :func:`describe_checkpoint`."""
    lines = [
        f"{info['path']}: format_version={info['format_version']} "
        f"step={info['step']}",
    ]
    if info.get("mesh"):
        mesh = info["mesh"]
        lines.append(
            f"mesh: world={mesh['world']} "
            f"expert_parallel={mesh['expert_parallel']}"
        )
    lines.append(
        f"{info['num_tensors']} tensors in {info['num_shards']} shards, "
        f"{info['total_bytes'] / 1e6:.2f} MB"
    )
    rows = info["shards"]
    shown = rows[:limit] if limit else rows
    name_w = max((len(r["name"]) for r in shown), default=4)
    for r in shown:
        part = ""
        if "expert" in r:
            part = f" expert={r['expert']}"
            if "rank" in r:
                part += f" rank={r['rank']}"
        lines.append(
            f"  {r['name']:<{name_w}}  {str(tuple(r['shape'])):<18} "
            f"{r['dtype']:<9} {r['bytes']:>10}  crc32={r['crc32']:#010x}"
            f"{part}"
        )
    if limit and len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more shards")
    return "\n".join(lines)
