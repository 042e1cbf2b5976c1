"""Conformance of the lowering's kernel table, through the table.

Every entry of :mod:`repro.autograd.lower.kernels` is driven the way
training drives it — a captured graph around one call of the op it
replaces, analyzed, attached, replayed — on operands drawn from the
entry's own fuzz domain:

(a) conforming operands: the native unit's output, its saved
    ``Context`` and the swapped backward's gradients equal the replaced
    op's NumPy ``forward``/``backward`` bit for bit, and no fallback is
    counted;
(b) for each clause of the declared contract, operands that break it:
    the unit declines, the outcome is still exactly NumPy's (the same
    bits, or the same exception), and ``lower_segment_fallbacks`` moves
    by exactly one (a backward swap falls to the op's own ``backward``,
    counted here by wrapping it).

The violating operands are derived from the contract itself — a wrong
dtype, a strided view, an extra axis for a layout clause; the first
shape or index mutation that makes a relation false — so a new entry is
covered on arrival.  A direct entry (one host callers run on plain
arrays, :func:`repro.autograd.lower.runtime.direct`) is driven that way
too, from its check draws on: the reference's bits or outcome, and no
fallback counted for either.  An entry that declares row stability is
held to it: a row alone, in its full call and at every offset of other
batches, same bits.  The registry test keeps the table, the compiled
prelude and the docs catalog in step.
"""

import contextlib
import dataclasses
import os
import re
import shutil
import subprocess

import numpy as np
import pytest

from repro.autograd import CaptureSession, Tensor, lower
from repro.autograd.function import Context, Function
from repro.autograd.graph import host as graph_host
from repro.autograd.lower import kernels, runtime, toolchain
from repro.autograd.lower.kernels.base import OUT, Arr, Build, Rel, addr
from repro.moe.permute import PaddedPlan
from repro.observability import registry
from repro.sparse import Topology, dispatch
from repro.training import Adam
from repro.training.optim import grad_norm

pytestmark = pytest.mark.skipif(
    not lower.cc_available(), reason="no C toolchain in this environment"
)

UNITS = [e for e in kernels.TABLE if e.forward or e.backward]
RIDERS = [e for e in kernels.TABLE if not (e.forward or e.backward)]
DIRECT = [e for e in kernels.TABLE if e.checks]
ROW_STABLE = [e for e in kernels.TABLE if e.rows]


@pytest.fixture(scope="module", autouse=True)
def _one_cache_for_the_module(tmp_path_factory):
    """One compile cache — one prelude compile — for every case here."""
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_LOWER_CACHE", str(tmp_path_factory.mktemp("lower-cache")))
    toolchain._reset_for_tests()
    runtime._direct.clear()
    yield
    mp.undo()
    toolchain._reset_for_tests()
    runtime._direct.clear()


def _fallbacks() -> int:
    return registry().counter("lower_segment_fallbacks").value


# ----------------------------------------------------------------------
# Bit-exact comparison of anything a forward saves or a backward returns
# ----------------------------------------------------------------------
def _assert_same(got, want, what):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), what
        assert got.dtype == want.dtype and got.shape == want.shape, what
        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), what
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), what
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{what}[{k}]")
    elif want is None or isinstance(want, (np.generic, int, float)):
        # a saved shape or axis may be a Python or a NumPy integer
        same_kind = want is None or (
            np.asarray(got).dtype.kind == np.asarray(want).dtype.kind
            and np.asarray(got).itemsize == np.asarray(want).itemsize
        )
        assert same_kind and (got is want or got == want), what
    elif isinstance(want, (PaddedPlan, Topology)):
        # built by a host record's runner: every field, array by array
        # (a topology's memo is derived from its arrays)
        assert type(got) is type(want), what
        for f in dataclasses.fields(want):
            if f.name != "memo":
                _assert_same(getattr(got, f.name), getattr(want, f.name), f"{what}.{f.name}")
    else:
        assert got is want, what  # an rng, a module: passed through


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raised", exception type)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the reference and the fallback must agree
        return "raised", type(exc)


def _assert_same_outcome(got, want, what):
    assert got[0] == want[0], f"{what}: {got} vs {want}"
    if want[0] == "raised":
        assert got[1] is want[1], what
    else:
        _assert_same(got[1], want[1], what)


# ----------------------------------------------------------------------
# One captured, lowered call of the op an entry replaces
# ----------------------------------------------------------------------
def _is_input(a) -> bool:
    return isinstance(a, (np.ndarray, Topology))


class Lowered:
    """``args`` captured as one call of ``entry``'s op, every array (or
    topology) argument a named input the replay can substitute."""

    def __init__(self, entry, args):
        self.fn = fn = kernels.replaced(entry)
        self.is_op = isinstance(fn, type) and issubclass(fn, Function)
        sess = CaptureSession(("conformance", entry.name), self.inputs(args)).begin()
        try:
            if self.is_op:
                out = fn.apply(*(
                    Tensor(a, requires_grad=True)
                    if isinstance(a, np.ndarray) and a.dtype.kind == "f" else a
                    for a in args
                ))
            else:
                graph_host(fn, *args)
                out = Tensor(np.ones(3, np.float32), requires_grad=True) * 2.0
            loss = out.sum()
            loss.backward(retain_graph=True)
        except BaseException:
            sess.abort()
            raise
        self.graph = graph = sess.finalize(loss, loss)
        self.index = next(i for i, r in enumerate(graph.records) if r.fn is fn)
        # Count what reaches the op's own backward.
        self.orig_calls = 0
        for pos, (kind, slot, ref, orig, targets) in enumerate(graph._bwd_plan):
            if kind == 0 and ref == self.index:
                self.bwd_pos = pos
                graph._bwd_plan[pos] = (
                    kind, slot, ref, self._counting(orig), targets
                )
        self.analysis = lower.analyze(graph)
        self.plan = lower.attach(graph)
        assert self.plan is not None

    def _counting(self, orig):
        def counted(ctx, grad):
            self.orig_calls += 1
            return orig(ctx, grad)

        return counted

    @staticmethod
    def inputs(args) -> dict:
        named = {}

        def walk(a):
            if _is_input(a):
                named[f"a{len(named)}"] = a
            elif type(a) is tuple:
                for e in a:
                    walk(e)

        for a in args:
            walk(a)
        return named

    def forward(self, args):
        """``(ctx, out)`` of the unit under substitute arguments."""
        return self.plan.run_forward(self.inputs(args))[self.index]

    def reference(self, args):
        ctx = Context()
        if self.is_op:
            return ctx, self.fn.forward(ctx, *args)
        return None, self.fn(*args)

    def backward(self, ctx, grad):
        return self.plan.bwd_plan()[self.bwd_pos][3](ctx, grad)


# ----------------------------------------------------------------------
# Violations, derived from the contract
# ----------------------------------------------------------------------
def _wrong_dtype(clause, a):
    """``a`` cast to the nearest dtype the layout clause rejects."""
    nearest = {"f": [np.float64], "b": [np.uint8]}.get(a.dtype.kind, [np.int32])
    for dtype in nearest + [np.float64]:
        if not clause.holds(a.astype(dtype)):
            return a.astype(dtype)
    raise AssertionError(f"{clause.name} admits every dtype tried")


def _strided(a):
    """The same values behind a non-contiguous layout."""
    wide = np.repeat(a, 2, axis=-1)[..., ::2]
    assert a.ndim and not wide.flags.c_contiguous, "fuzz domain too small"
    return wide


def _other_rank(a, ranks):
    for cand in (a[None], a.reshape(-1), a[None, None]):
        if ranks is None or cand.ndim not in ranks:
            return cand
    raise AssertionError(f"no reshape of rank {a.ndim} leaves {ranks}")


def _mutations(a):
    """Shape and index mutations of one operand, mildest first."""
    if type(a) is tuple and a and isinstance(a[0], np.ndarray):
        for m in _mutations(a[0]):
            yield (m,) + a[1:]
    if type(a) is int:
        yield a - 1
    if not isinstance(a, np.ndarray):
        return
    for axis in range(a.ndim):
        if a.shape[axis] > 1:
            yield np.ascontiguousarray(a.take(range(a.shape[axis] - 1), axis))
            yield np.ascontiguousarray(a.take([0], axis))
    yield a.reshape(-1)
    yield a[None]
    for axis in range(a.ndim):
        yield np.ascontiguousarray(a.take([], axis))
    if a.dtype.kind in "iu" and a.size:
        for bad in (10**6, -7):
            m = a.copy()
            m.flat[0] = bad
            yield m


#: Perturbations of the process, for clauses no operand can break.
_ENVIRONMENTS = (lambda: dispatch.dispatch_mode("blocked"),)


def _violations(contract, ops, captured=True):
    """``(label, operands, environment)`` per live clause of
    ``contract`` (three per array layout: dtype, rank, contiguity).  A
    direct call (``captured=False``) has no captured layout for ``pin``
    or ``shape`` to demand."""
    ops = tuple(ops)

    def swap(k, value):
        return ops[:k] + (value,) + ops[k + 1:]

    for c in contract.clauses:
        if type(c) is Arr and c.k != OUT:
            a = ops[c.k]
            exact = captured and (c.pin or c.shape)
            yield f"{c.name}: dtype", swap(c.k, _wrong_dtype(c, a)), None
            if c.rank is not None or exact:
                yield f"{c.name}: rank", swap(c.k, _other_rank(a, c.rank)), None
            if c.contig or (captured and c.pin):
                yield f"{c.name}: contiguity", swap(c.k, _strided(a)), None
        elif isinstance(c, Rel):
            yield _trip(c, ops, swap)


def _trip(clause, ops, swap):
    def broken(cand):
        try:
            return not clause.fn(*cand)
        except Exception:
            return False  # the clause cannot even be asked: not a trip

    for k, a in enumerate(ops):
        for m in _mutations(a):
            if broken(swap(k, m)):
                return clause.name, swap(k, m), None
    for env in _ENVIRONMENTS:
        with env():
            if broken(ops):
                return clause.name, ops, env
    raise AssertionError(f"nothing trips the clause {clause.name!r}")


# ----------------------------------------------------------------------
# (a) + (b), forward and backward, for every unit entry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entry", UNITS, ids=lambda e: e.name)
def test_unit_conforms_and_every_clause_declines(entry):
    rng = np.random.default_rng(sum(map(ord, entry.name)))
    for draw in range(3):
        args = entry.fuzz(rng)
        low = Lowered(entry, args)
        unit = next(
            (u for u in low.analysis.units if getattr(u, "index", None) == low.index),
            None,
        )
        if entry.forward:
            assert unit is not None and unit.entry is entry, "forward not classified"
        if entry.backward:
            assert low.analysis.bwd[low.index] == (entry.bwd_name, entry)

        # (a) conforming operands, fresh values of the captured layout
        before = _fallbacks()
        ctx, out = low.forward(args)
        ref_ctx, ref_out = low.reference(args)
        _assert_same(out, ref_out, f"{entry.name} forward")
        if low.is_op:
            _assert_same(ctx.saved, ref_ctx.saved, f"{entry.name} saved")
        if entry.backward:
            grad = rng.standard_normal(ref_out.shape).astype(ref_out.dtype)
            _assert_same(
                low.backward(ctx, grad),
                low.fn.backward(ref_ctx, grad),
                f"{entry.name} backward",
            )
            assert low.orig_calls == 0, "a conforming backward fell back"
        assert _fallbacks() == before, "a conforming unit fell back"
        if draw:
            continue

        # (b) one violation per clause
        if entry.forward and entry.native:
            for label, bad, env in _violations(entry.contract, args):
                what = f"{entry.name} forward, {label}"
                with env() if env else contextlib.nullcontext():
                    want = _outcome(lambda: low.reference(bad)[1])
                    before = _fallbacks()
                    got = _outcome(lambda: low.forward(bad)[1])
                _assert_same_outcome(got, want, what)
                # a planned decline (blocked dispatch) is not a breach
                assert _fallbacks() == before + (env is None), what
        if entry.backward:
            for label, bad, env in _violations(entry.bwd_guard, (grad, *ctx.saved)):
                what = f"{entry.name} backward, {label}"
                bad_ctx, ref_bad_ctx = Context(), Context()
                bad_ctx.saved = ref_bad_ctx.saved = bad[1:]
                with env() if env else contextlib.nullcontext():
                    want = _outcome(low.fn.backward, ref_bad_ctx, bad[0])
                    calls = low.orig_calls
                    got = _outcome(low.backward, bad_ctx, bad[0])
                _assert_same_outcome(got, want, what)
                assert low.orig_calls == calls + 1, what


# ----------------------------------------------------------------------
# Bindings: a unit holds its operands; a fresh one rebinds, uncounted
# ----------------------------------------------------------------------
def _fresh(a, rng):
    """New values in a new float array of ``a``'s layout (a transposed
    operand stays transposed); anything else as it is."""
    if not (isinstance(a, np.ndarray) and a.dtype.kind == "f"):
        return a
    b = np.empty_like(a)
    b[...] = rng.standard_normal(a.shape)
    assert b.strides == a.strides
    return b


@pytest.mark.parametrize("name", ["mm", "linbias", "ew_add", "ln", "softmax"])
def test_a_fresh_conforming_operand_rebinds_and_counts_nothing(name):
    """A unit's guard holds the operands of its last admitted call.  New
    arrays of the admitted layout — what a re-recorded buffer script or a
    swapped parameter delivers — run the clauses and rebind: the C reads
    the new memory and no fallback is counted.  A non-conforming operand
    still declines and counts one, and the held operands then run again
    without a count."""
    entry = next(e for e in kernels.TABLE if e.name == name)
    rng = np.random.default_rng(3)
    args = entry.fuzz(rng)
    low = Lowered(entry, args)
    before = _fallbacks()
    for draw in (args, tuple(_fresh(a, rng) for a in args), args):
        _, out = low.forward(draw)
        _assert_same(out, low.reference(draw)[1], f"{name} forward")
    assert _fallbacks() == before, "a conforming rebind counted a fallback"
    bad = (args[0].astype(np.float64),) + tuple(args[1:])
    _, out = low.forward(bad)
    _assert_same(out, low.reference(bad)[1], f"{name} declined")
    assert _fallbacks() == before + 1
    _, out = low.forward(args)
    _assert_same(out, low.reference(args)[1], f"{name} held again")
    assert _fallbacks() == before + 1


def test_a_frozen_basic_index_replays_a_live_view_of_the_same_operand():
    """``x[:, 1:3]`` replayed on the same operand object — a parameter
    Adam updates in place, an arena buffer served again — reads the
    operand's current values: the unit holds a view, never a copy."""
    entry = next(e for e in kernels.TABLE if e.name == "getitem_const")
    x = np.arange(24, dtype=np.float32).reshape(4, 6)
    args = (x, (slice(None), slice(1, 3)))
    low = Lowered(entry, args)
    for fill in (7.0, -2.5):
        x[...] = fill * np.arange(24, dtype=np.float32).reshape(4, 6)
        _, out = low.forward(args)
        assert np.shares_memory(out, x)
        np.testing.assert_array_equal(out, x[:, 1:3])


def test_addr_is_the_data_pointer_of_any_array():
    """``addr`` is ``a.ctypes.data`` for every array, including the ones
    the buffer export refuses (empty, not C-contiguous, read-only)."""
    a = np.arange(24, dtype=np.float32).reshape(4, 6)
    read_only = a.copy()
    read_only.flags.writeable = False
    for x in (
        a, a[2], a[1:, 2:], a.T, a[:, ::2], read_only,
        np.empty(0, np.float32), np.empty((3, 0), np.int64), a[:0],
    ):
        assert addr(x) == x.ctypes.data, (x.shape, x.strides)


def test_planned_blocked_dispatch_declines_uncounted():
    """A topology the dispatch heuristic (or a forced mode) sends down
    the blocked path is the planned eager path, not a guard breach: the
    grouped units step aside and nothing is counted."""
    rng = np.random.default_rng(5)
    for entry in UNITS:
        if not (entry.forward and kernels.replaced(entry).__name__ in ("_SddMM", "_DsdMM")):
            continue
        args = entry.fuzz(rng)
        low = Lowered(entry, args)
        before = _fallbacks()
        with dispatch.dispatch_mode("blocked"):
            _, out = low.forward(args)
            _, ref = low.reference(args)
        _assert_same(out, ref, entry.name)
        assert _fallbacks() == before


# ----------------------------------------------------------------------
# Direct entries: the face host callers use outside any graph
# ----------------------------------------------------------------------
def _counted() -> tuple:
    return tuple(
        registry().counter(n).value
        for n in ("lower_segment_fallbacks", "lower_toolchain_fallbacks")
    )


def _direct_draws(entry, rng) -> list:
    """The entry's check draws, then three from its fuzz domain."""
    return list(entry.checks(rng)) + [entry.fuzz(rng) for _ in range(3)]


@pytest.mark.parametrize("entry", DIRECT, ids=lambda e: e.name)
def test_direct_call_conforms_and_every_clause_declines_uncounted(entry):
    """(a) Conforming operands: the reference's bits, from C
    (``lower_direct_calls`` moves by one), no fallback counted; (b) each
    clause's violation: the reference's outcome, no C of its own, nothing
    counted — a host caller's operand outside the contract is a planned
    path.  A composite entry's reference may itself call direct entries
    (``serve_moe``'s runs the serving GEMMs): those calls are its own, and
    each is measured on the reference and allowed to the fallback."""
    call, reference = runtime.direct(entry), kernels.reference(entry)
    if entry not in runtime._direct:
        runtime._bind_direct(entry)  # its check draws run the reference
    rng = np.random.default_rng(sum(map(ord, entry.name)))
    draws = _direct_draws(entry, rng)
    native = registry().counter("lower_direct_calls")

    def reference_outcome(*args):
        ran = native.value
        return _outcome(reference, *args), native.value - ran

    for args in draws:
        want, _ = reference_outcome(*args)
        before, ran = _counted(), native.value
        _assert_same_outcome(_outcome(call, *args), want, f"{entry.name} direct")
        assert native.value == ran + 1, "a conforming call did not run C"
        assert _counted() == before, "a conforming call counted a fallback"
    for label, bad, env in _violations(entry.contract, draws[0], captured=False):
        what = f"{entry.name} direct, {label}"
        with env() if env else contextlib.nullcontext():
            want, inner = reference_outcome(*bad)
            before, ran = _counted(), native.value
            got = _outcome(call, *bad)
        _assert_same_outcome(got, want, what)
        assert native.value == ran + inner and _counted() == before, what


@pytest.mark.parametrize("entry", DIRECT, ids=lambda e: e.name)
def test_bind_check_holds_the_runner_to_its_reference(entry):
    """The check a direct entry passes before it serves: its runner as
    built passes it, and one ulp off in one output element (one, for an
    integer output) fails it."""
    run = entry.forward(Build(None, runtime.load_prelude(), None))
    reference = kernels.reference(entry)
    assert runtime._passes_check(entry, run, reference)

    def one_ulp_off(*args):
        (out,) = run(*args)
        v = out.flat[0]
        out.flat[0] = v + 1 if out.dtype.kind == "i" else np.nextafter(v, np.float32(np.inf))
        return (out,)

    assert not runtime._passes_check(entry, one_ulp_off, reference)


@pytest.mark.parametrize("entry", ROW_STABLE, ids=lambda e: e.name)
def test_a_row_is_the_same_alone_and_at_every_offset_of_any_batch(entry):
    """Declared row stability, on the C and on the reference: each row's
    output in the full call equals its output alone and at every offset
    of a batch with other rows of the draw."""
    rng = np.random.default_rng(sum(map(ord, entry.name)) + 1)
    draws = _direct_draws(entry, rng)
    for fn in (runtime.direct(entry), kernels.reference(entry)):
        for args in draws:
            full = fn(*args)
            full = full.reshape(-1, full.shape[-1]) if full.ndim > 1 else full[:, None]
            n = len(full)
            others = rng.integers(0, n, size=min(n, 9))
            for t in rng.choice(n, size=min(n, 4), replace=False):
                alone = fn(*entry.rows(args, [t]))
                _assert_same(alone.reshape(1, -1)[0], full[t], f"{entry.name} row {t} alone")
                for at in range(len(others) + 1):
                    pick = np.insert(others, at, t)
                    batch = fn(*entry.rows(args, pick)).reshape(len(pick), -1)
                    _assert_same(batch[at], full[t], f"{entry.name} row {t} at {at}")


# ----------------------------------------------------------------------
# Optimizer riders
# ----------------------------------------------------------------------
def _optimizers(tensors):
    """Two Adams over copies of ``tensors``; the first one native."""
    opts = [
        Adam([Tensor(t.copy(), requires_grad=True) for t in tensors],
             lr=1e-2, weight_decay=0.01)
        for _ in range(2)
    ]
    assert lower.attach_adam(opts[0])
    return opts


def _drive_adam(tensors, rng):
    native, mirror = _optimizers(tensors)
    for _ in range(3):
        for t, p, q in zip(tensors, native.params, mirror.params):
            p.grad = rng.standard_normal(t.shape).astype(np.float32)
            q.grad = p.grad.copy()
        native.step()
        mirror.step()
        for p, q in zip(native.params, mirror.params):
            _assert_same(p.data, q.data, "adam parameter")
        _assert_same(native._m + native._v, mirror._m + mirror._v, "adam moments")


def _drive_clip(tensors, rng):
    native, mirror = _optimizers(tensors)
    for _ in range(3):
        for t, p, q in zip(tensors, native.params, mirror.params):
            p.grad = (rng.standard_normal(t.shape) * 3).astype(np.float32)
            q.grad = p.grad.copy()
        assert native.native.sumsq() is not None  # the C ran: no decline
        assert native.grad_norm() == mirror.grad_norm() == grad_norm(mirror.params)


_RIDER_DRIVERS = {"adam": _drive_adam, "clip": _drive_clip}


@pytest.mark.parametrize("entry", RIDERS, ids=lambda e: e.name)
def test_rider_conforms(entry):
    """``adam`` and ``clip`` ride on the prelude outside any graph:
    bound to one optimizer by ``attach_adam``, compared with an unbound
    one (NumPy) on the entry's tensors."""
    rng = np.random.default_rng(11)
    _RIDER_DRIVERS[entry.name](entry.fuzz(rng), rng)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _catalog_rows():
    here = os.path.dirname(os.path.abspath(__file__))
    doc = open(os.path.join(here, "..", "..", "docs", "codegen.md")).read()
    section = doc[doc.index("## Kernel catalog"):]
    section = section[: section.index("\n## ", 1)]
    return re.findall(r"^\| `\w+` \|.*$", section, re.M)


def _catalog_row(entry) -> str:
    """The row ``docs/codegen.md`` must hold for ``entry``."""
    target = kernels.replaced(entry).__name__
    units = [f"forward `{entry.name}`"] * bool(entry.forward)
    units += [f"backward `{entry.bwd_name}`"] * bool(entry.backward)
    symbols = ", ".join(f"`{s}`" for s in entry.symbols) or "—"
    runs_as = "C" if entry.native else "Python closure"
    return (
        f"| `{entry.name}` | `{target}` | {'; '.join(units) or 'rider'} "
        f"| {symbols} | {runs_as} |"
    )


def test_registry_is_consistent():
    lib = runtime.load_prelude()
    assert lib is not None
    owners = {}
    for entry in kernels.TABLE:
        assert entry.fuzz is not None, f"{entry.name} has no fuzz domain"
        for symbol in entry.symbols:
            assert symbol not in owners, f"{symbol} declared twice"
            owners[symbol] = entry.name
            assert getattr(lib, symbol).argtypes is not None, symbol  # resolves, bound
    # ... and nothing else is exported.
    if shutil.which("nm"):
        listing = subprocess.run(
            ["nm", "-D", "--defined-only", lib._name],
            capture_output=True, text=True, check=True,
        ).stdout
        exported = set(re.findall(r"\b(repro_\w+)$", listing, re.M))
        assert exported == set(owners)
    assert len(owners) == 44

    forward = [e.name for e in kernels.TABLE if e.forward]
    backward = [e.bwd_name for e in kernels.TABLE if e.backward]
    assert len(forward) == len(set(forward)) == 28
    assert len(backward) == len(set(backward)) == 16
    names = [e.name for e in kernels.TABLE]
    assert len(names) == len(set(names))
    # The docs catalog is the table's own listing.
    assert _catalog_rows() == [_catalog_row(e) for e in kernels.TABLE]


def test_every_family_is_built_in_exactly_one_unit():
    """Every module of the package that declares ``KERNELS`` is a family
    of the table and sits in exactly one group of ``PARTITION``, so a
    new family cannot be left out of the build; each entry's C is in
    exactly one unit of the prelude; and the grouped GEMMs share a unit
    with the ``static`` BLAS bridge they call."""
    import importlib
    import pkgutil

    declared = {
        importlib.import_module(f"{kernels.__name__}.{info.name}")
        for info in pkgutil.iter_modules(kernels.__path__)
    }
    declared = {m for m in declared if hasattr(m, "KERNELS")}
    assert declared == set(kernels.FAMILIES)
    placed = [m.__name__ for group in kernels.PARTITION for m in group]
    assert sorted(placed) == sorted(m.__name__ for m in kernels.FAMILIES)
    assert len(kernels.PRELUDE) == len(kernels.PARTITION)
    for entry in kernels.TABLE:
        if entry.source:
            found = sum(unit.count(entry.source) for unit in kernels.PRELUDE)
            assert found == 1, entry.name
    (unit,) = [g for g in kernels.PARTITION if kernels.gemm in g]
    assert kernels.grouped in unit
