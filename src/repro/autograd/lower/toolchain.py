"""C toolchain detection, the on-disk compile cache, and library loading.

A library is named by its caller's tag and built from a fixed tuple of
translation units; the process builds one, the kernel table's prelude
(``"prelude"``: training's kernels and serving's alike, whatever graphs
are captured).  The units compile concurrently — one ``cc -c`` each, at
most one per CPU the process may run on — and link once into one
``.so``.  The build is keyed by a content hash of the units plus the
compiler's version line, the flags and the host CPU's feature list
(``-march=native`` compiles for it), so a repeat run on the same kind
of host loads the cached ``.so`` straight from ``~/.cache/repro/lower/``
(override with ``REPRO_LOWER_CACHE``) without invoking ``cc`` at all.

Toolchain state is probed once per process.  A missing or broken ``cc``
— or ``REPRO_NO_CC=1`` — logs exactly one warning and pins the probe to
"unavailable"; every later lowering attempt then declines instantly and
the trainer keeps running on the pure-NumPy replay path.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import struct
import subprocess
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

logger = logging.getLogger(__name__)

#: Compile flags, part of the cache key.  ``-ffp-contract=off`` is
#: load-bearing for bit-identity (no FMA contraction of the rendered
#: ``a*b+c`` chains) and stays in force under ``-O3 -march=native``:
#: GCC auto-vectorization never *reassociates* floating-point (that
#: needs ``-fassociative-math``), it only widens independent per-element
#: lanes — the same SIMD NumPy's ufunc loops use — so the generated
#: code stays bit-identical while running 4-16 lanes wide.
#: ``-fno-math-errno`` changes no value: it only drops the ``errno``
#: store C's ``sqrtf`` owes a negative argument (nothing here reads
#: ``errno``), which is what lets a loop with a square root in it — the
#: Adam step — compile to packed ``sqrt``/``div``; both are correctly
#: rounded, scalar or packed.  Every other member of ``-ffast-math``
#: changes values and stays out (``tests/autograd/test_lowering.py``).
CFLAGS = (
    "-O3",
    "-march=native",
    "-fPIC",
    "-ffp-contract=off",
    "-fno-math-errno",
)

#: Artifact-key epoch, bumped when the prelude's runtime ABI changes in
#: a way the source hash alone cannot capture — e.g. the grouped-GEMM
#: kernels now expect ``repro_set_blas`` to be called after load, so a
#: stale ``.so`` from a pre-BLAS-bridge cache must never be served.
CACHE_VERSION = "2"

#: Seconds one build — every unit's ``cc -c`` and the link — may take.
BUILD_TIMEOUT_S = 300.0

# None = not probed yet; False = unavailable;
# (cc_path, version, host_isa) = usable.
_probe: Optional[object] = None
_warned = False
_libs: Dict[str, ctypes.CDLL] = {}


def _warn_once(reason: str) -> None:
    global _warned
    if not _warned:
        _warned = True
        logger.warning(
            "native lowering unavailable (%s); falling back to NumPy replay",
            reason,
        )


def _host_isa() -> str:
    """What ``-march=native`` compiles for on this host: the machine
    type plus the CPU feature list.  Part of the artifact key, so a
    cache directory shared between hosts never hands a smaller CPU an
    artifact holding instructions it lacks.  Reads ``/proc/cpuinfo``
    (no subprocess); ``platform.processor()`` where that has no
    feature line."""
    flags = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    flags = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return f"{platform.machine()} {flags or platform.processor()}"


def _do_probe():
    if os.environ.get("REPRO_NO_CC", "") not in ("", "0"):
        return False, "REPRO_NO_CC=1"
    name = os.environ.get("CC") or "cc"
    path = shutil.which(name)
    if path is None:
        return False, f"no C compiler named {name!r} on PATH"
    try:
        out = subprocess.run(
            [path, "--version"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return False, f"{name} --version failed: {exc}"
    if out.returncode != 0:
        return False, f"{name} --version exited {out.returncode}"
    banner = (out.stdout or out.stderr or "").splitlines()
    version = banner[0].strip() if banner else "unknown"
    return (path, version, _host_isa()), None


def toolchain() -> Optional[Tuple[str, str, str]]:
    """``(cc_path, version_line, host_isa)`` or ``None``; probes once
    per process."""
    global _probe
    if _probe is None:
        result, reason = _do_probe()
        _probe = result
        if result is False:
            _warn_once(reason)
    return _probe if _probe else None


def cc_available() -> bool:
    return toolchain() is not None


def mark_broken(reason: str) -> None:
    """Pin the toolchain to unavailable after a failed compile/load."""
    global _probe
    _probe = False
    _warn_once(reason)


def cache_dir() -> str:
    d = os.environ.get("REPRO_LOWER_CACHE", "")
    if not d:
        d = os.path.join(os.path.expanduser("~"), ".cache", "repro", "lower")
    return d


def _truncated(path: str) -> bool:
    """Whether the ELF file at ``path`` ends before its section-header
    table, which a linker writes last.  ``dlopen`` maps a cut-off
    library and faults (``SIGBUS``) on the missing pages instead of
    failing, so one must be caught before it is loaded.  A file that is
    not ELF is left to ``dlopen`` to refuse."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"\x7fELF":
        return False
    order = "<" if data[5:6] == b"\x01" else ">"
    head = order + ("16x24xQ10xHH" if data[4:5] == b"\x02" else "16x16xI10xHH")
    if len(data) < struct.calcsize(head):
        return True
    shoff, shentsize, shnum = struct.unpack_from(head, data)
    return shoff + shnum * shentsize > len(data)


class _BuildFailed(Exception):
    """A ``cc`` job failed or the build ran out of time."""


def _jobs() -> int:
    """How many ``cc`` jobs run at once: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _diagnosis(path: str) -> str:
    """A job's last line of output that names an error (its last line,
    if none does): the message, not the caret under its source line."""
    with open(path, errors="replace") as f:
        lines = [line.strip() for line in f if line.strip()]
    errors = [line for line in lines if "error" in line]
    return (errors or lines or [""])[-1]


def _run(cmds: Sequence[List[str]], names: Sequence[str], work: str,
         deadline: float) -> List[float]:
    """Run ``cmds``, at most :func:`_jobs` at a time, and return each
    one's wall seconds.  Plain ``Popen`` and polling, no threads: a
    trainer forks workers later, and a live thread at fork is a hazard.
    The first failure, or the ``deadline`` (``time.monotonic``), raises
    :class:`_BuildFailed` naming the job and its error; either way
    every job still running is killed and reaped first."""
    pending = list(enumerate(cmds))
    running: Dict[subprocess.Popen, Tuple[int, float]] = {}
    seconds = [0.0] * len(cmds)
    jobs = _jobs()
    try:
        while pending or running:
            while pending and len(running) < jobs:
                i, cmd = pending.pop(0)
                with open(os.path.join(work, f"{i}.log"), "wb") as log:
                    proc = subprocess.Popen(
                        cmd, stdout=log, stderr=subprocess.STDOUT
                    )
                running[proc] = (i, time.perf_counter())
            time.sleep(0.002)
            for proc in [p for p in running if p.poll() is not None]:
                i, t0 = running.pop(proc)
                seconds[i] = time.perf_counter() - t0
                if proc.returncode:
                    detail = _diagnosis(os.path.join(work, f"{i}.log"))
                    raise _BuildFailed(
                        f"cc failed on {names[i]}: "
                        + (detail or f"exit {proc.returncode}")
                    )
            if running and time.monotonic() > deadline:
                first = min(i for i, _ in running.values())
                raise _BuildFailed(
                    f"cc timed out on {names[first]} after {BUILD_TIMEOUT_S:g} s"
                )
    finally:
        for proc in running:
            proc.kill()
        for proc in running:
            proc.wait()
    return seconds


def compile_and_load(units: Tuple[str, ...], tag: str) -> Optional[ctypes.CDLL]:
    """Build the library ``tag`` from the translation ``units`` (or
    serve it from the cache); ``None`` on failure.

    The artifact key is ``sha256(cc version || host ISA || cflags ||
    units, in order)``: any change to a unit, the compiler, the CPU
    ``-march=native`` resolves to, or the flags produces a fresh
    ``.so``.  Each unit is compiled to an object by its own ``cc -c``,
    concurrently, in a per-process temporary directory (two cold
    processes may build one key at once); the objects are linked once
    and the ``.so`` is renamed into the cache, so the directory only
    ever holds whole libraries.  The ``.c``/``.o`` intermediates are
    removed, built or not.  A failed or timed-out job kills the others
    and marks the whole toolchain broken (one warning), so subsequent
    graphs skip straight to the NumPy replay without retrying ``cc``.

    The registry gets the build's wall time (``lower_compile_ms``) and
    each unit's ``cc`` time (``lower_unit_cc_ms``, one sample a unit).
    """
    tc = toolchain()
    if tc is None:
        return None
    cc, version, isa = tc
    from repro.observability.metrics import registry

    key = hashlib.sha256(
        "\x00".join((CACHE_VERSION, version, isa) + CFLAGS + tuple(units)).encode()
    ).hexdigest()[:24]
    lib = _libs.get(key)
    if lib is not None:
        registry().counter("lower_cache_hits").inc()
        return lib

    d = cache_dir()
    so_path = os.path.join(d, f"{tag}-{key}.so")
    if os.path.exists(so_path):
        try:
            lib = None if _truncated(so_path) else ctypes.CDLL(so_path)
        except OSError:
            lib = None  # stale/corrupt artifact: fall through and rebuild
        if lib is not None:
            registry().counter("lower_cache_hits").inc()
            _libs[key] = lib
            return lib

    t0 = time.perf_counter()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    try:
        os.makedirs(d, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=f".{tag}-", dir=d) as work:
            objs, cmds = [], []
            for i, unit in enumerate(units):
                c_path = os.path.join(work, f"{tag}-{i}.c")
                with open(c_path, "w") as f:
                    f.write(unit)
                objs.append(os.path.join(work, f"{tag}-{i}.o"))
                cmds.append([cc, *CFLAGS, "-c", c_path, "-o", objs[-1]])
            names = [f"the {tag} unit {i}" for i in range(len(units))]
            unit_s = _run(cmds, names, work, deadline)
            tmp = os.path.join(work, f"{tag}.so")
            _run([[cc, "-shared", *objs, "-o", tmp, "-lm"]],
                 [f"the {tag} link"], work, deadline)
            os.replace(tmp, so_path)
        lib = ctypes.CDLL(so_path)
    except _BuildFailed as exc:
        mark_broken(str(exc))
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        mark_broken(f"compile cache unusable: {exc}")
        return None
    reg = registry()
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    reg.counter("lower_compile_ms").inc(max(1, int(elapsed_ms)))
    for s in unit_s:
        reg.histogram("lower_unit_cc_ms").observe(s * 1000.0)
    _libs[key] = lib
    return lib


def _reset_for_tests() -> None:
    """Forget the probe verdict, the warning latch, and loaded libraries."""
    global _probe, _warned
    _probe = None
    _warned = False
    _libs.clear()
