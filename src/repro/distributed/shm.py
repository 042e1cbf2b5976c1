"""Shared-memory tensor transport for the multi-process backend.

Pipes are the control plane, shared memory is the data plane: a payload
above :data:`INLINE_THRESHOLD` bytes is written once into a
``multiprocessing.shared_memory`` segment and only its *name* crosses
the pipe, so a blocking ``Connection.send`` can never fill the ~64 KB
pipe buffer no matter how large the tensor — the deadlock mode of
naive pipe meshes.  Small payloads ride inline in the pickled header
(one syscall beats a segment create/attach round trip).

There are two kinds of segment, with two lifecycles.

**One-shot segments** (:func:`encode_array` / :func:`decode_array`)
carry ``all_to_all``, ``all_gather``, ``broadcast`` and result shipping,
where several posts can be in flight to one peer at once:

- the **sender** creates the segment and never touches it again;
- the **receiver** copies the data out and unlinks the segment.

**Windows** (:class:`Window` / :class:`WindowReader`) carry
``all_reduce``, whose payload has the same size step after step.
Creating, faulting in and unlinking a gradient-sized segment every step
costs more than moving the bytes, so a window is mapped for the
group's lifetime and only its name crosses the pipe:

- **who creates**: each rank owns exactly one window, named
  ``{session}_w{rank}_{generation}``, created on the first
  ``all_reduce`` that needs it and replaced (new generation, old one
  unlinked by its owner) only when a larger payload arrives; capacity
  grows geometrically, so a run maps it once;
- **who may write when**: only the owner writes, and only between
  collectives — after every peer has said it finished reading the
  previous contents (the echo exchange's reply; the ack round of
  ``MpProcessGroup.all_reduce``) and before the owner publishes the
  name again.  Readers never write;
- **who attaches**: a reader maps a peer's window the first time it
  sees the name and keeps the mapping (:class:`WindowReader`), so a
  steady-state step creates, attaches and unlinks nothing;
- **who unlinks**: the owner, in ``close()``.  Readers only unmap;
- **what a SIGKILL leaves**: the dead owner's window, still named in
  ``/dev/shm`` (survivors' mappings of it stay valid).  Its name starts
  with :func:`window_prefix` of the dead rank, so a healer can unlink
  exactly that (:func:`sweep_session` with the rank's prefix) without
  pulling the name from under a live rank's window; the supervisor's
  whole-session sweep on the way out takes whatever is left.

Every segment name carries the run's *session prefix*, so a supervising
parent can :func:`sweep_session` after killing workers (a SIGKILL'd
receiver never unlinks) and tests can assert :func:`leaked_segments` is
empty after clean and chaotic runs alike.

Python 3.11's ``resource_tracker`` registers segments on *attach* as
well as on create (fixed only in 3.13 via ``track=False``), so
tracker bookkeeping must balance per process whether or not the
processes share one tracker.  One rule covers both kinds: whoever
creates or attaches a segment it will not unlink **unregisters** it on
the spot (:func:`_untrack`), and every unlink goes through a fresh
attach (:func:`_unlink`), whose attach-time registration
``SharedMemory.unlink()`` then balances.  Any other combination
double-unregisters and the tracker process logs spurious ``KeyError``
tracebacks at exit.
"""

from __future__ import annotations

import os
import uuid
from typing import Any, Dict, List

import numpy as np

try:  # pragma: no cover - exercised only where shm exists
    from multiprocessing import resource_tracker, shared_memory

    HAVE_SHM = True
except ImportError:  # pragma: no cover - py<3.8 / exotic platforms
    HAVE_SHM = False

# Payloads at or below this many bytes travel inline through the pipe.
# Kept far below the 64 KB pipe buffer so a rank can post headers to
# every peer (world <= 8) before anyone drains: 8 * ~4.2 KB < 64 KB.
INLINE_THRESHOLD = 4096

_SHM_DIR = "/dev/shm"


def session_name() -> str:
    """A unique, greppable prefix for one distributed run's segments."""
    return f"rpd{os.getpid()}_{uuid.uuid4().hex[:8]}"


def _untrack(name: str) -> None:
    """Drop a segment from this process's resource tracker (see module
    docstring — ownership is managed by the receiver-unlink contract)."""
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


def encode_array(
    arr: np.ndarray, session: str, threshold: int = INLINE_THRESHOLD
) -> Dict[str, Any]:
    """Pack ``arr`` into a small picklable header (sender side)."""
    arr = np.ascontiguousarray(arr)
    header: Dict[str, Any] = {
        "dtype": arr.dtype.str,
        "shape": arr.shape,
    }
    if arr.nbytes <= threshold or not HAVE_SHM:
        header["inline"] = arr.tobytes()
        return header
    seg = shared_memory.SharedMemory(
        create=True,
        size=max(1, arr.nbytes),
        name=f"{session}_{uuid.uuid4().hex[:8]}",
    )
    try:
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
    finally:
        seg.close()
    _untrack(seg.name)
    header["shm"] = seg.name
    return header


def decode_array(header: Dict[str, Any]) -> np.ndarray:
    """Unpack a header into a private array copy (receiver side).

    Shared segments are unlinked here — the receiver is the terminal
    owner.
    """
    dtype = np.dtype(header["dtype"])
    shape = tuple(header["shape"])
    if "inline" in header:
        return np.frombuffer(header["inline"], dtype=dtype).reshape(shape).copy()
    seg = shared_memory.SharedMemory(name=header["shm"])
    try:
        view = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
        out = view.copy()
    finally:
        seg.close()
        try:
            # unlink() also unregisters, balancing the attach-time
            # registration (see module docstring).
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - double delivery
            pass
    return out


def _unlink(name: str) -> bool:
    """Unlink segment ``name`` through a fresh attach, whose registration
    ``unlink()`` balances (module docstring); False when already gone."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with another unlink
        _untrack(name)
        return False
    return True


def _unmap(seg) -> None:
    try:
        seg.close()
    except BufferError:
        # A view is still alive (a traceback holding the frame of a
        # failed collective): the mapping goes when the view does.
        pass


def window_prefix(session: str, rank: int) -> str:
    """What every window ``rank`` ever owns in ``session`` starts with."""
    return f"{session}_w{rank}_"


class Window:
    """The one buffer a rank publishes its ``all_reduce`` contribution
    through, mapped for the group's lifetime (module docstring: only
    the owner writes, only between collectives; the owner unlinks)."""

    def __init__(self, session: str, rank: int) -> None:
        self._prefix = window_prefix(session, rank)
        self._generation = 0
        self._seg = None

    @property
    def name(self) -> str:
        return self._seg.name

    def reserve(self, nbytes: int) -> None:
        """Make room for ``nbytes``.  A payload that fits costs nothing;
        one that does not moves the window to a new segment of at least
        twice the capacity (readers re-attach when they see the name)."""
        if self._seg is not None and self._seg.size >= nbytes:
            return
        capacity = max(1, nbytes, 2 * self._seg.size if self._seg else 0)
        self.close()
        self._generation += 1
        self._seg = shared_memory.SharedMemory(
            create=True, size=capacity, name=f"{self._prefix}{self._generation}"
        )
        _untrack(self._seg.name)

    def view(self, dtype, shape) -> np.ndarray:
        """The head of the window as an array; drop it before ``close``."""
        return np.ndarray(shape, dtype=dtype, buffer=self._seg.buf)

    def close(self) -> None:
        if self._seg is not None:
            _unmap(self._seg)
            _unlink(self._seg.name)
            self._seg = None


class WindowReader:
    """A rank's mappings of its peers' windows: attached the first time
    a name is seen, kept until the peer publishes another or is dropped."""

    def __init__(self) -> None:
        self._segs: Dict[int, Any] = {}

    def view(self, rank: int, name: str, dtype, shape) -> np.ndarray:
        seg = self._segs.get(rank)
        if seg is None or seg.name != name:
            self.drop(rank)
            seg = self._segs[rank] = shared_memory.SharedMemory(name=name)
            _untrack(name)
        return np.ndarray(shape, dtype=dtype, buffer=seg.buf)

    def drop(self, rank: int) -> None:
        seg = self._segs.pop(rank, None)
        if seg is not None:
            _unmap(seg)

    def close(self) -> None:
        for rank in list(self._segs):
            self.drop(rank)


def leaked_segments(session: str) -> List[str]:
    """Names of this session's segments still present in ``/dev/shm``
    (``session`` is a prefix: a session name, or one rank's
    :func:`window_prefix`)."""
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return []
    return sorted(n for n in os.listdir(_SHM_DIR) if n.startswith(session))


def sweep_session(session: str) -> List[str]:
    """Unlink every surviving segment whose name starts with ``session``
    (parent cleanup after killing workers); returns the names it
    removed."""
    return [name for name in leaked_segments(session) if _unlink(name)]
