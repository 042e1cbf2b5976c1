"""Rotating checkpoint directory: keep-last-N plus best-by-metric.

Checkpoints are sharded directories named ``<prefix>-<step:08d>/``.
``load_latest`` and ``Trainer.fit(resume=manager)`` fall back past
anything broken, whichever way it is broken: a torn shard directory (no
manifest), or a checkpoint whose manifest is intact but whose referenced
shard is missing or fails its CRC.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from repro.checkpoint.common import (
    CheckpointCorruptError,
    CheckpointError,
    fsync_parent_dir,
    logger,
)
from repro.checkpoint.sharded import load_checkpoint, save_checkpoint
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.module import Module
    from repro.training.optim import Optimizer

T = TypeVar("T")


class CheckpointManager:
    """Rotation over ``<prefix>-<step:08d>/`` checkpoint directories.

    The best checkpoint (by a lower-is-better metric) is copied to
    ``<prefix>-best/`` so pruning never discards it.  ``index.json``
    (written atomically, rename fsynced) records rotation state and is
    rebuilt from the directory listing when absent.
    """

    def __init__(
        self,
        directory: str,
        keep_last: int = 3,
        keep_best: bool = True,
        prefix: str = "ckpt",
    ) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = directory
        self.keep_last = keep_last
        self.keep_best = keep_best
        self.prefix = prefix
        os.makedirs(directory, exist_ok=True)
        self._steps: List[int] = []
        self._best: Optional[Dict[str, Any]] = None
        self._load_index()

    # ------------------------------------------------------------------
    def path_for(self, step: int) -> str:
        """On-disk checkpoint directory for ``step``."""
        return os.path.join(self.directory, f"{self.prefix}-{step:08d}")

    @property
    def best_path(self) -> str:
        return os.path.join(self.directory, f"{self.prefix}-best")

    @property
    def _index_path(self) -> str:
        return os.path.join(self.directory, "index.json")

    def _load_index(self) -> None:
        if os.path.exists(self._index_path):
            try:
                with open(self._index_path) as fh:
                    index = json.load(fh)
                self._steps = [int(s) for s in index.get("checkpoints", [])]
                self._best = index.get("best")
            except (json.JSONDecodeError, OSError):
                logger.warning("index.json unreadable; rebuilding from listing")
                self._steps, self._best = [], None
        if not self._steps:
            head = f"{self.prefix}-"
            for name in sorted(os.listdir(self.directory)):
                if not name.startswith(head):
                    continue
                stem = name[len(head):]
                if stem.isdigit():
                    self._steps.append(int(stem))
        self._steps = sorted(set(self._steps))

    def _write_index(self) -> None:
        tmp = self._index_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"checkpoints": self._steps, "best": self._best}, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._index_path)
        # Make the index rename itself crash-safe (shared helper with
        # the manifest publish).
        fsync_parent_dir(self._index_path)

    # ------------------------------------------------------------------
    def save(
        self,
        model: Module,
        optimizer: Optional[Optimizer] = None,
        step: int = 0,
        metric: Optional[float] = None,
        extra: Optional[Dict[str, Any]] = None,
        extra_arrays: Optional[Dict[str, np.ndarray]] = None,
        writer: Optional[Callable[[str], None]] = None,
        mesh: Optional[Any] = None,
    ) -> str:
        """Write the checkpoint for ``step`` and rotate.

        ``writer(path)``, when given, performs the actual write (the
        trainer passes its own state-aware saver); otherwise
        :func:`save_checkpoint` is called with the given pieces.
        ``metric`` (lower is better) drives best-checkpoint tracking.
        """
        path = self.path_for(step)
        if writer is not None:
            writer(path)
        else:
            save_checkpoint(
                path, model, optimizer, step, extra, extra_arrays, mesh=mesh
            )
        self.register(step, metric)
        return path

    def register(self, step: int, metric: Optional[float] = None) -> None:
        """Record an externally written checkpoint for ``step`` and rotate."""
        if step not in self._steps:
            self._steps.append(int(step))
            self._steps.sort()
        if (
            self.keep_best
            and metric is not None
            and (self._best is None or metric < self._best["metric"])
        ):
            shutil.rmtree(self.best_path, ignore_errors=True)
            shutil.copytree(self.path_for(step), self.best_path)
            self._best = {"step": int(step), "metric": float(metric)}
        while len(self._steps) > self.keep_last:
            victim = self._steps.pop(0)
            shutil.rmtree(self.path_for(victim), ignore_errors=True)
        self._write_index()

    # ------------------------------------------------------------------
    @property
    def steps(self) -> List[int]:
        return list(self._steps)

    @property
    def best(self) -> Optional[Dict[str, Any]]:
        """``{"step": ..., "metric": ...}`` of the best checkpoint, if any."""
        return dict(self._best) if self._best else None

    def load_newest(self, load: Callable[[str], T]) -> Tuple[str, T]:
        """``(path, load(path))`` for the newest checkpoint that loads.

        Anything broken is skipped (with a warning) in favour of the
        next-newest — a torn shard directory, or a manifest whose
        referenced shard is missing or corrupt.  That is the reason
        rotation keeps more than one.  Every other error propagates.
        ``load`` must validate before it changes any state, as
        :func:`load_checkpoint` and ``Trainer.restore`` do, so a skipped
        checkpoint leaves nothing half-loaded.
        """
        errors = []
        for step in reversed(self._steps):
            path = self.path_for(step)
            try:
                return path, load(path)
            except (CheckpointCorruptError, FileNotFoundError) as exc:
                logger.warning("skipping %s: %s", path, exc)
                errors.append(f"{path}: {exc}")
        raise CheckpointError(
            "no valid checkpoint in "
            f"{self.directory!r}; tried {len(errors)}: " + "; ".join(errors)
            if errors
            else f"no checkpoints in {self.directory!r}"
        )

    def load_latest(
        self,
        model: Module,
        optimizer: Optional[Optimizer] = None,
        mesh: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Restore the newest *valid* checkpoint (:meth:`load_newest`)."""
        _, meta = self.load_newest(
            lambda path: load_checkpoint(path, model, optimizer, mesh=mesh)
        )
        return meta
