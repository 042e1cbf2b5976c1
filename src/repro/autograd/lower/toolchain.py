"""C toolchain detection, the on-disk compile cache, and library loading.

A translation unit is named by its caller's tag; the process compiles
one, the kernel table's prelude (``"prelude"``: training's kernels and
serving's alike, whatever graphs are captured).  Compilation is keyed
by a content hash of the source plus the compiler's version line, the
flags and the host CPU's feature list (``-march=native`` compiles for
it), so a repeat run on the same kind of host loads the cached ``.so``
straight from ``~/.cache/repro/lower/`` (override with
``REPRO_LOWER_CACHE``) without invoking ``cc`` at all.

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
import subprocess
import tempfile
import time
from typing import Dict, Optional, Tuple

logger = logging.getLogger(__name__)

#: Flags are part of the cache key.  ``-ffp-contract=off`` is
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
    "-shared",
    "-ffp-contract=off",
    "-fno-math-errno",
)

#: Artifact-key epoch, bumped when the prelude's runtime ABI changes in
#: a way the source hash alone cannot capture — e.g. the grouped-GEMM
#: kernels now expect ``repro_set_blas`` to be called after load, so a
#: stale ``.so`` from a pre-BLAS-bridge cache must never be served.
CACHE_VERSION = "2"

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


def compile_and_load(source: str, tag: str) -> Optional[ctypes.CDLL]:
    """Compile ``source`` as unit ``tag`` (or serve it from the cache);
    ``None`` on failure.

    The artifact key is ``sha256(cc version || host ISA || cflags ||
    source)``: any change to the source, the compiler, the CPU
    ``-march=native`` resolves to, or the flags produces a fresh
    ``.so``.  Both the ``.c`` and the ``.so`` are left in the
    cache directory for inspection.  A failed compile marks the whole
    toolchain broken (one warning) so subsequent graphs skip straight to
    the NumPy replay without retrying ``cc`` per capture.
    """
    tc = toolchain()
    if tc is None:
        return None
    cc, version, isa = tc
    from repro.observability.metrics import registry

    key = hashlib.sha256(
        "\x00".join((CACHE_VERSION, version, isa) + CFLAGS + (source,)).encode()
    ).hexdigest()[:24]
    lib = _libs.get(key)
    if lib is not None:
        registry().counter("lower_cache_hits").inc()
        return lib

    d = cache_dir()
    so_path = os.path.join(d, f"{tag}-{key}.so")
    if os.path.exists(so_path):
        try:
            lib = ctypes.CDLL(so_path)
        except OSError:
            lib = None  # stale/corrupt artifact: fall through and rebuild
        if lib is not None:
            registry().counter("lower_cache_hits").inc()
            _libs[key] = lib
            return lib

    t0 = time.perf_counter()
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        c_path = os.path.join(d, f"{tag}-{key}.c")
        with open(c_path, "w") as f:
            f.write(source)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".so")
        os.close(fd)
        proc = subprocess.run(
            [cc, *CFLAGS, c_path, "-o", tmp, "-lm"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip().splitlines()
            mark_broken(
                f"cc failed on the {tag} unit: "
                + (detail[-1] if detail else f"exit {proc.returncode}")
            )
            return None
        os.replace(tmp, so_path)
        tmp = None
        lib = ctypes.CDLL(so_path)
    except (OSError, subprocess.SubprocessError) as exc:
        mark_broken(f"compile cache unusable: {exc}")
        return None
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    registry().counter("lower_compile_ms").inc(max(1, int(elapsed_ms)))
    _libs[key] = lib
    return lib


def _reset_for_tests() -> None:
    """Forget the probe verdict, the warning latch, and loaded libraries."""
    global _probe, _warned
    _probe = None
    _warned = False
    _libs.clear()
