"""What a native kernel declares, and the one checker of its contract.

A :class:`Kernel` entry states, side by side, everything the lowering
knows about one native unit: the op it replaces, its C source and the
ctypes signatures of the symbols that source exports, the operand
:class:`Contract`, the builders of its forward runner and backward
closure, and a fuzz domain — and, for a direct entry (run by host
callers outside any graph), its check draws and declared row
stability.  The segmenter, the runtime, the prelude, ``bind``,
``lower report`` and the conformance test all read the table of
entries (:mod:`repro.autograd.lower.kernels`); none of them knows a
kernel by name.

A contract is an ordered tuple of clauses over an operand tuple.  The
same clause is evaluated against the capture-time layout descriptors
(to classify a record) and against the live arrays (to guard a call):
:class:`View` gives a descriptor the handful of ``ndarray`` attributes
clauses read, so a clause is written once.

Runner protocol.  ``forward(build)`` returns ``run(*args)`` over the
record's resolved positional arguments: ``(saved, out)`` on success
(``(out,)`` for a host record), ``None`` to decline — the runtime then
counts a fallback and replays the record on the interpreter — or
``False`` when declining is the planned path (nothing is counted).
``backward(build)`` returns ``run(grad, *ctx.saved)``: the gradient
tuple, or ``None`` to fall back to the op's own ``backward``.  ``run``
is only ever called behind the guard built from the contract
(:meth:`Contract.guard`).
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import re
from operator import is_ as _is
from typing import Callable, Optional, Tuple

import numpy as np

from repro.autograd import arena
from repro.autograd.graph import _CONST, _OpRecord
from repro.observability.metrics import registry

ndarray = np.ndarray
F4 = np.dtype(np.float32)
I64 = np.dtype(np.int64)

#: Operand index of a record's *output* descriptor (capture-time only:
#: the output does not exist yet when a call is guarded).
OUT = -1

#: Opens the prelude.
HEADER = r"""
#include <math.h>
#include <string.h>

typedef long long i64;
"""

#: Helpers several entries' sources call; rendered right after HEADER.
SHARED = r"""
/* NumPy pairwise summation replica (contiguous float32). */
static float pw32(const float *a, i64 n)
{
    if (n < 8) {
        float r = 0.0f;
        for (i64 i = 0; i < n; i++) r += a[i];
        return r;
    }
    if (n <= 128) {
        float r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        float r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        i64 i = 8;
        for (; i < n - (n % 8); i += 8) {
            r0 += a[i]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        float r = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) r += a[i];
        return r;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pw32(a, n2) + pw32(a + n2, n - n2);
}

/* Pairwise over the gathered column rows[order[s+i]*h + j]. */
static float pw32g(const float *rows, const i64 *order, i64 s, i64 n,
                   i64 h, i64 j)
{
    if (n < 8) {
        float r = 0.0f;
        for (i64 i = 0; i < n; i++) r += rows[order[s + i] * h + j];
        return r;
    }
    if (n <= 128) {
        float r0 = rows[order[s] * h + j], r1 = rows[order[s + 1] * h + j];
        float r2 = rows[order[s + 2] * h + j], r3 = rows[order[s + 3] * h + j];
        float r4 = rows[order[s + 4] * h + j], r5 = rows[order[s + 5] * h + j];
        float r6 = rows[order[s + 6] * h + j], r7 = rows[order[s + 7] * h + j];
        i64 i = 8;
        for (; i < n - (n % 8); i += 8) {
            r0 += rows[order[s + i] * h + j];
            r1 += rows[order[s + i + 1] * h + j];
            r2 += rows[order[s + i + 2] * h + j];
            r3 += rows[order[s + i + 3] * h + j];
            r4 += rows[order[s + i + 4] * h + j];
            r5 += rows[order[s + i + 5] * h + j];
            r6 += rows[order[s + i + 6] * h + j];
            r7 += rows[order[s + i + 7] * h + j];
        }
        float r = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) r += rows[order[s + i] * h + j];
        return r;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pw32g(rows, order, s, n2, h, j)
        + pw32g(rows, order, s + n2, n - n2, h, j);
}
"""


# ----------------------------------------------------------------------
# Contracts
# ----------------------------------------------------------------------
def is_c_contiguous(shape, strides, itemsize) -> bool:
    expect = itemsize
    for dim, st in zip(reversed(shape), reversed(strides)):
        if dim > 1 and st != expect:
            return False
        expect *= dim
    return True


class View:
    """A capture-time ``(dtype str, shape, strides)`` descriptor behind
    the ``ndarray`` attributes contract clauses read."""

    __slots__ = ("dtype", "shape", "strides", "ndim", "size", "c_contiguous")

    def __init__(self, desc):
        self.dtype = np.dtype(desc[0])
        self.shape, self.strides = desc[1], desc[2]
        self.ndim = len(self.shape)
        self.size = int(np.prod(self.shape, dtype=np.int64))
        self.c_contiguous = is_c_contiguous(
            self.shape, self.strides, self.dtype.itemsize
        )

    @property
    def flags(self):
        return self


def matches(a, desc) -> bool:
    """``a`` is exactly the array layout ``desc`` was captured from."""
    return (
        type(a) is ndarray
        and a.dtype.str == desc[0]
        and a.shape == desc[1]
        and a.strides == desc[2]
    )


class Arr:
    """Operand ``k`` is an array: ``dtype`` (a ``np.dtype``, or a string
    of accepted ``dtype.kind`` letters), ``rank`` (an int or a tuple of
    them) and C-contiguity.  Live only: ``shape`` keeps the captured
    shape, and ``pin`` demands the captured layout itself — dtype, shape
    and strides.  A graph unit's guard checks a layout only on an operand
    it does not hold (:meth:`Contract.guard`).  A direct call has no
    capture: there a pinned operand's layout is checked as an unpinned
    one's, and relations live."""

    def __init__(self, k, dtype=F4, rank=None, contig=True, shape=False, pin=False):
        self.k = k
        self.dtype = dtype
        self.rank = (rank,) if isinstance(rank, int) else rank
        self.contig = contig
        self.shape = shape
        self.pin = pin
        self.name = f"operand {k} layout"
        # The layout clause as source over ``a``, ``DTYPE`` and ``RANK``:
        # compiled here for capture-time views, inlined into the flat
        # live guard by ``Contract.guard`` — one statement, two uses.
        tests = ["a.dtype.kind in DTYPE" if type(dtype) is str else "a.dtype is DTYPE"]
        if rank is not None:
            tests.append("a.ndim in RANK")
        if contig:
            tests.append("a.flags.c_contiguous")
        self.source = " and ".join(tests)
        #: The clause on a :class:`View` or an array.
        self.holds = eval(
            f"lambda a: {self.source}", {"DTYPE": dtype, "RANK": self.rank}
        )

    def capture(self, rec, views) -> bool:
        if views is None:  # host record: no descriptors, checked live
            return True
        v = views[self.k]
        return v is not None and self.holds(v)


class Rel:
    """A relation between operands' shapes: ``fn(*operands)``, on views
    at capture and on the live arrays at run time."""

    def __init__(self, name: str, fn: Callable):
        self.name = name
        self.fn = fn

    def capture(self, rec, views) -> bool:
        return views is None or bool(self.fn(*views[:-1]))


class Live(Rel):
    """A clause only live operands can answer: index ranges, anything
    read off a topology (a host-record output with no descriptor)."""

    def capture(self, rec, views) -> bool:
        return True


class Const:
    """Positional argument ``k`` is frozen in the graph (and satisfies
    ``pred``); ``optional`` admits a record that leaves it to the op's
    keyword default.  Capture only."""

    def __init__(self, k: int, pred: Optional[Callable] = None, optional=False):
        self.k = k
        self.pred = pred
        self.optional = optional
        self.name = f"argument {k} frozen"

    def capture(self, rec, views) -> bool:
        if self.k >= len(rec.specs):
            return self.optional
        spec = rec.specs[self.k]
        return spec[0] == _CONST and (self.pred is None or bool(self.pred(spec[1])))


def frozen(rec, k: int, keyword: str, default):
    """The value of an argument a :class:`Const` clause admitted:
    positional ``k``, else the ``keyword`` the op was called with, else
    the op's ``default``."""
    if k < len(rec.specs):
        return rec.specs[k][1]
    return (rec.kwargs or {}).get(keyword, default)


class Capture:
    """A classification-only predicate ``fn(rec, views)``: what the
    capture must look like for the unit to be worth (or capable of)
    installing, with nothing left to re-check per call."""

    def __init__(self, name: str, fn: Callable):
        self.name = name
        self.fn = fn

    def capture(self, rec, views) -> bool:
        return views is not None and bool(self.fn(rec, views))


def _blas_resolved(rec, views) -> bool:
    from repro.autograd.lower import blas

    return blas.available()


#: NumPy's own ``cblas_sgemm`` is resolvable for injection — the
#: precondition of every GEMM-backed kernel (bit-identity with
#: ``np.matmul`` comes from calling the very same function).
BLAS = Capture("cblas_sgemm resolved", _blas_resolved)


class Contract:
    """An ordered tuple of clauses; see the module docstring."""

    def __init__(self, *clauses):
        self.clauses = clauses

    def admits(self, rec) -> bool:
        """Classify: every clause holds on the record's descriptors."""
        descs = getattr(rec, "descs", None)
        if descs is None:
            if type(rec) is _OpRecord:
                return False  # graph captured without layout descriptors
            views = None
        else:
            views = tuple(
                None if d is None else View(d) for d in descs[1] + (descs[0],)
            )
        return all(c.capture(rec, views) for c in self.clauses)

    def guard(self, run: Callable, descs=None, binding=None) -> Callable:
        """``run`` behind the live guard: ``call(*operands)`` returns
        ``run``'s result, or ``None`` when a clause fails.  ``descs``
        are the captured descriptors ``pin``/``shape`` clauses compare
        with.

        With a ``binding`` (a graph unit's :class:`Binding`, shared with
        its runner) the guard holds what it admitted: a call whose
        operands are all the objects the last admitted call held skips
        the layout and relation clauses — identity implies layout — and
        a call with a fresh operand (``lower_binds`` counts it) runs
        them and, when they hold, rebinds: each array operand's data
        pointer is re-read into
        ``binding.args[k]`` only where its object changed.  ``Live``
        clauses read data, not layout, and run on every call.  A unit's
        operand count is fixed (its record's arguments; its backward's
        gradient and saved tuple), so one ``map(is_)`` over the held
        tuple is the whole identity check.

        Several hundred guards run per step, so the clauses are
        compiled into one flat function — each layout clause's source
        inlined, each relation one call — instead of being interpreted
        clause by clause on every call (``run`` itself when no clause
        has anything to check live)."""
        arrays = [c for c in self.clauses if type(c) is Arr and c.k != OUT]
        captured = descs is not None
        # Relations among pinned layouts were settled at capture.
        settled = captured and bool(arrays) and all(c.pin for c in arrays)
        env = {"ndarray": ndarray, "matches": matches, "run": run}
        layouts, relations, live = [], [], []
        for j, c in enumerate(self.clauses):
            if c in arrays:
                if c.pin and captured:
                    env[f"desc{j}"] = descs[c.k]
                    layouts.append((c.k, f"matches(a, desc{j})"))
                    continue
                env[f"dtype{j}"], env[f"rank{j}"] = c.dtype, c.rank
                test = "type(a) is ndarray and " + c.source.replace(
                    "DTYPE", f"dtype{j}"
                ).replace("RANK", f"rank{j}")
                if c.shape:
                    env[f"shape{j}"] = descs[c.k][1]
                    test += f" and a.shape == shape{j}"
                layouts.append((c.k, test))
            elif type(c) is Live or (type(c) is Rel and not settled):
                env[f"holds{j}"] = c.fn
                (live if type(c) is Live else relations).append(
                    f"if not holds{j}(*ops): return None"
                )
        if binding is None or not (layouts or relations):
            checks = [
                line for k, test in layouts
                for line in (f"a = ops[{k}]", f"if not ({test}): return None")
            ] + relations
        else:
            # Bound: a layout clause runs only on an operand that is not
            # the held one, relations when any operand is not, and the
            # pointers are committed once every clause has held.
            if binding.held:
                raise ValueError("a runner's binding serves one guard")
            ks = sorted({k for k, _ in layouts})
            width = ks[-1] + 1 if ks else 1
            # Nothing is ever ``_UNBOUND``: the first call binds.
            binding.held = (_UNBOUND,) * width
            binding.args.extend([0] * (width - len(binding.args)))
            env.update(bound=binding, is_=_is, addr=addr, binds=_BINDS)
            rebind = ["binds.value += 1", "held = bound.held"]
            for k, test in layouts:
                rebind += [
                    f"a = ops[{k}]",
                    f"if a is not held[{k}] and not ({test}): return None",
                ]
            rebind += relations + ["at = bound.args"]
            for k in ks:
                rebind += [f"a = ops[{k}]", f"if a is not held[{k}]: at[{k}] = addr(a)"]
            checks = ["if not all(map(is_, ops, bound.held)):"] + [
                f"    {line}" for line in rebind + ["bound.held = ops"]
            ]
        lines = checks + live
        if not lines:
            return run
        body = "".join(f"    {line}\n" for line in lines)
        exec(compiled(f"def call(*ops):\n{body}    return run(*ops)\n"), env)
        return env["call"]


@functools.lru_cache(maxsize=4096)
def compiled(source: str):
    """``source`` compiled once: a plan binds each unit once per
    accumulation slot, and units of one kind generate the same source,
    so most bindings exec a code object already made."""
    return compile(source, "<string>", "exec")


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------
class Build:
    """What a runner builder may read: the record it replaces (``None``
    when a backward closure is built outside a graph), the bound prelude
    library, the plan's grow-on-demand int64 scratch, and — backward
    only — the gradient slots of the record's inputs (< 0: unwanted).

    ``operands`` is the unit's :class:`~repro.autograd.lower.runtime.Binding`,
    which its guard fills (:meth:`Contract.guard`): while the runner
    runs, ``operands.args[k]`` is the data pointer of operand ``k``, for
    every operand an ``Arr`` clause of the guard lays out.  A direct
    call's guard holds nothing, so a direct runner reads its pointers
    itself (:func:`addr`)."""

    __slots__ = ("rec", "lib", "iscratch", "targets", "operands", "acquired", "scratch")

    def __init__(self, rec, lib, iscratch, targets=()):
        from repro.autograd.lower.runtime import Binding

        self.rec = rec
        self.lib = lib
        self.iscratch = iscratch
        self.targets = targets
        self.operands = Binding((), [])
        #: The bindings :meth:`holds` made for the runner.
        self.acquired: list = []
        #: Arrays :meth:`own` made: the runner's for as long as the unit's.
        self.scratch: list = []

    def const(self, k: int, keyword: str, default):
        return frozen(self.rec, k, keyword, default)

    def shape(self, k: int) -> Tuple[int, ...]:
        """Captured shape of operand ``k`` (``OUT`` for the output)."""
        descs = self.rec.descs
        return (descs[0] if k == OUT else descs[1][k])[1]

    def holds(self, n: int):
        """``(held, args, hold)`` of a new binding of ``n`` positions for
        the arrays a runner acquires itself (its arena outputs, its
        scratch): the graph's memory plan serves the same view object
        on every replay while its shape holds, so the runner reads
        position ``k``'s pointer as ``args[k] if a is held[k] else
        hold(k, a)``."""
        from repro.autograd.lower.runtime import Binding

        bound = Binding([None] * n, [0] * n)
        self.acquired.append(bound)
        return bound.held, bound.args, bound.hold

    def own(self, shape, dtype) -> int:
        """The data pointer of a fresh array the unit keeps for good
        (scratch a runner reuses on every call)."""
        a = np.empty(shape, dtype)
        self.scratch.append(a)
        return addr(a)

    def unhold(self) -> None:
        """Let go of every array the unit's bindings hold; its next call
        binds afresh (counting no fallback)."""
        ops = self.operands
        if ops.held:
            ops.held = (_UNBOUND,) * len(ops.held)
        for bound in self.acquired:
            bound.held[:] = [None] * len(bound.held)
            bound.args[:] = [0] * len(bound.args)  # and what was made of them


_UNBOUND = object()

#: Every (re)bind of a graph unit's guard — its first call's included:
#: a replay whose operands are the objects the last one held counts
#: nothing here.
_BINDS = registry().counter("lower_binds")


#: An exported definition: a non-``static`` function at column 0.
_PROTOTYPE = re.compile(r"^(void|double|i64) (repro_\w+)\(([^)]*)\)", re.M)


_SCALARS = {
    "i64": ctypes.c_longlong, "double": ctypes.c_double, "float": ctypes.c_float,
    "void": None,
}


def _ctype(symbol: str, decl: str):
    """ctypes type of one parameter (or the return) of ``symbol``."""
    if "*" in decl:
        return ctypes.c_void_p
    ctype = decl.split()[0]
    if ctype not in _SCALARS:
        raise TypeError(f"{symbol}: no ctypes type for the C type {ctype!r}")
    return _SCALARS[ctype]


_ADDRESSOF, _FROM_BUFFER = ctypes.addressof, ctypes.c_char.from_buffer


def addr(a: np.ndarray) -> int:
    """Data pointer of any array — ``a.ctypes.data``.  The buffer
    export costs a third of ``a.ctypes.data``, which is most of a
    hidden-64 GEMM; only an array it refuses (read-only, not
    C-contiguous, empty) needs the slow spelling."""
    try:
        return _ADDRESSOF(_FROM_BUFFER(a))
    except (TypeError, ValueError):
        return a.ctypes.data


@dataclasses.dataclass(eq=False)
class Kernel:
    """One declaration of one native unit."""

    #: Unit kind of the forward runner (``lower report`` key).
    name: str
    #: The ``Function`` class or host callable this entry stands in for
    #: — the reference it is compared with — or its dotted path where
    #: importing it here would be circular.
    replaces: object
    _: dataclasses.KW_ONLY
    #: C definitions.  ``symbols`` maps each function they export to its
    #: ctypes ``(argtypes, restype)``, read off the C prototype.
    source: str = dataclasses.field(default="", repr=False)
    #: Operands ``(*args)`` of the replaced op's ``forward``.
    contract: Optional[Contract] = None
    forward: Optional[Callable] = None
    #: When to swap the backward (over the same capture-time operands;
    #: ``None``: when ``contract`` admits them), the live guard of the
    #: swapped closure over ``(grad, *ctx.saved)``, and — where that
    #: guard has ``shape=`` clauses — ``bwd_descs(rec)``, the captured
    #: layouts of those operands.
    bwd_contract: Optional[Contract] = None
    bwd_guard: Optional[Contract] = None
    bwd_descs: Optional[Callable] = None
    backward: Optional[Callable] = None
    #: Unit kind of the backward swap (``Analysis.bwd`` value) where it
    #: differs from ``name``.
    bwd_name: Optional[str] = None
    #: ``fuzz(rng)`` draws conforming ``forward`` arguments.
    fuzz: Optional[Callable] = None
    #: A direct entry — one host callers run on plain arrays, outside any
    #: graph (:func:`repro.autograd.lower.runtime.direct`) — declares
    #: ``checks(rng)``: the fixed draws its runner must match its
    #: reference on, bit for bit, before it serves a call.  They open its
    #: fuzz domain in the conformance test.
    checks: Optional[Callable] = None
    #: Row stability, declared: ``rows(args, pick)`` is the same call over
    #: the rows ``pick`` alone, each reading what it read in ``args``; row
    #: ``i`` of its output must be bit-equal to row ``pick[i]`` of the
    #: full call's, whatever else shares the call.
    rows: Optional[Callable] = None

    def __post_init__(self):
        self.bwd_contract = self.bwd_contract or self.contract
        self.bwd_name = self.bwd_name or self.name
        self.symbols = {
            name: ([_ctype(name, p) for p in params.split(",")], _ctype(name, ret))
            for ret, name, params in _PROTOTYPE.findall(self.source)
        }

    @property
    def native(self) -> bool:
        """Whether the unit executes generated C (a Python-closure unit
        is lowered — off the interpreter — but not native)."""
        return bool(self.source)


def keeper() -> Callable:
    """``keep(shape)``: the tuple ``keep`` returned last when ``shape``
    equals it, else ``shape``.  A runner saves ``keep(x.shape)`` — an
    array's ``shape`` is a new tuple on every read — so a backward unit
    bound to the saved tuple holds it again on the next replay."""
    last = [()]

    def keep(shape):
        if shape != last[0]:
            last[0] = shape
        return last[0]

    return keep


#: ``ix.max()`` / ``ix.min()`` over every axis, without the Python
#: wrapper the methods go through: these run in ``Live`` clauses, on
#: every call.
_MAX, _MIN = np.maximum.reduce, np.minimum.reduce


def ids_below(ix, n) -> bool:
    """No index reaches ``n`` (negative ids are a kernel's own business)."""
    return ix.size == 0 or int(_MAX(ix, None)) < n


def ids_within(ix, n) -> bool:
    return ix.size == 0 or (int(_MIN(ix, None)) >= 0 and int(_MAX(ix, None)) < n)


def matmul_into(a, b, shape) -> np.ndarray:
    """``a @ b`` of float32 operands into an arena buffer of the
    product's ``shape``, which the runner knows: what ``arena.matmul_buf``
    would derive with two ``np.broadcast_shapes`` per call."""
    return np.matmul(a, b, out=arena.empty(shape, F4, (a,)))


def rows_width(shape) -> Tuple[int, int]:
    """``(rows, width)`` of a last-axis kernel over ``shape``."""
    return int(np.prod(shape[:-1], dtype=np.int64)), int(shape[-1])


# ----------------------------------------------------------------------
# Fuzz-domain helpers
# ----------------------------------------------------------------------
def f32(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape).astype(np.float32)


def i64(rng, shape, lo: int, hi: int) -> np.ndarray:
    return rng.integers(lo, hi, size=shape).astype(np.int64)
