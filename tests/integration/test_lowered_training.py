"""Native-code lowering: ``backend="cc"`` must be invisible to training.

``TrainerConfig(backend="cc")`` compiles each captured step graph to
generated C (``repro.autograd.lower``) and installs the fused Adam and
grad-clip kernels.  Lowering is a pure dispatch optimization, so every
test here asserts **bit-identity** against the eager run — losses by
float equality, parameters and optimizer moments by ``array_equal`` —
against the eager reference and the eager steady step, through
guardrail rewinds, and across a checkpoint/resume round trip.  The no-toolchain
path (``REPRO_NO_CC=1``) must degrade to plain replay with exactly one
warning and the fallback counter ticked.
"""

import numpy as np
import pytest

from repro.autograd import getitem, lower, softmax
from repro.autograd.graph import host as graph_host
from repro.autograd.lower import runtime, toolchain
from repro.moe.router import Router, RoutingResult
from repro.observability import registry
from repro.resilience.faults import (
    NAN_GRAD,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.resilience.guardrails import GuardrailConfig

from tests.integration.test_steady_state import fig7_small_trainer
from tests.integration.test_step_graph import (
    _assert_same,
    _fingerprint,
    _trainer,
)


@pytest.fixture(autouse=True)
def _lower_cache(tmp_path, monkeypatch):
    """Isolate the compile cache per test and re-probe the toolchain."""
    monkeypatch.setenv("REPRO_LOWER_CACHE", str(tmp_path / "lower-cache"))
    toolchain._reset_for_tests()
    yield
    toolchain._reset_for_tests()


needs_cc = pytest.mark.skipif(
    not lower.cc_available(), reason="no C toolchain in this environment"
)


@needs_cc
@pytest.mark.parametrize("steady", [False, True], ids=["eager-alloc", "steady"])
class TestLoweredBitIdentity:
    def test_matches_eager_run(self, steady):
        eager = _trainer("eager", steady=steady)
        ref = _fingerprint(eager, eager.train())

        reg = registry()
        before = reg.counter("lower_segment_fallbacks").value
        lowered = _trainer("cc", steady=steady)
        got = _fingerprint(lowered, lowered.train())

        _assert_same(ref, got)
        assert lowered.step_graph is not None
        assert lowered.step_graph._lowered is not None
        # Guards held: this workload's live shapes never left the plan.
        assert reg.counter("lower_segment_fallbacks").value == before


@needs_cc
class TestLoweredCoverage:
    def test_fig7_small_step_is_ninety_percent_native(self):
        """Broad, not just bit-equal: on the Fig-7 Small shape at least
        90% of the replayable records leave the interpreter (only the
        dispatch-plan builders and a few scalar reductions stay host by
        design), through a toolchain that never declined.  ``bench/``
        reads the same fraction as ``autograd.lower.coverage``."""
        reg = registry()
        names = ("graph_lowered", "lower_toolchain_fallbacks")
        before = {k: reg.counter(k).value for k in names}
        tr = fig7_small_trainer(True, backend="cc")
        for step in range(3):
            tr.train_step(step)
        plan = tr.step_graph._lowered
        assert plan is not None, "backend='cc' did not attach a lowered plan"
        assert plan.coverage >= 0.90, (
            f"{plan.records_lowered}/{plan.records_total} records lowered"
        )
        counts = {k: reg.counter(k).value - before[k] for k in names}
        assert counts["graph_lowered"] >= 1
        assert counts["lower_toolchain_fallbacks"] == 0

    @pytest.mark.parametrize(
        "make, native",
        [
            (lambda: fig7_small_trainer(True, backend="cc"), 78),
            (lambda: _trainer("cc", steady=True), 48),
        ],
        ids=["fig7_small", "step_graph"],
    )
    def test_no_elementwise_record_stays_host(self, make, native):
        """Every float32 ``+ - * /`` and mask-free dropout-residual record
        runs as an ``elementwise`` table entry: the one-shape, ``(rows,
        1)`` column and ``(1, S, H)`` block layouts these graphs produce
        are exactly what the contract admits.  One layout missed would
        leave records on the interpreter here — and, with ``bench/``'s
        ``ref_prefill`` at 69/76 lowered against its 0.90 gate, fail its
        correctness check."""
        from repro.autograd.lower.segmenter import PyUnit
        from repro.autograd.ops_basic import _Add, _Div, _Mul, _Sub
        from repro.autograd.ops_fused import _DropoutResidual

        def elementwise(rec):
            if rec.fn is _DropoutResidual:
                p, training = rec.specs[2][1], rec.specs[3][1]
                if training and p > 0.0:
                    return False  # draws a mask
            elif rec.fn not in (_Add, _Sub, _Mul, _Div):
                return False
            return rec.descs[0][0] == "<f4"

        tr = make()
        for step in range(3):
            tr.train_step(step)
        graph = tr.step_graph
        analysis = lower.analyze(graph)
        host = [
            graph.records[i]
            for unit in analysis.units
            if isinstance(unit, PyUnit)
            for i in unit.indices
        ]
        assert [r.fn.__name__ for r in host if elementwise(r)] == []
        assert graph._lowered.records_native == native


class _ForcedRouter(Router):
    """Learned scores, forced assignment: every call picks (from the
    bits of its scores, so all rungs pick alike and replays differ from
    the capture) one of three extreme routings of ``n`` tokens over 4
    experts — a one-token expert beside empty ones, everything on one
    expert, and two one-token experts."""

    def __init__(self, rng):
        super().__init__(16, 4, rng=rng)
        self.seen = set()

    def _indices(self, scores):
        n = scores.shape[0]
        pick = int(scores.view(np.uint32).sum()) % 3
        self.seen.add(pick)
        counts = ([1, 0, n - 1, 0], [0, n, 0, 0], [n - 2, 1, 0, 1])[pick]
        return np.repeat(np.arange(4), counts)[:, None]

    def forward(self, x):
        scores = softmax(self.proj(x), axis=-1)
        indices = graph_host(self._indices, scores.data)
        rows = np.arange(indices.shape[0])[:, None]
        return RoutingResult(
            indices, getitem(scores, (rows, indices)), scores, None, None
        )


@needs_cc
class TestExtremeRoutings:
    def test_one_token_empty_and_all_to_one_experts(self):
        """The one-row rule at work: groups of exactly one live row run
        their GEMMs as two rows on every rung, so eager = replay = cc
        stays bitwise and no native unit declines."""
        reg = registry()
        before = {
            k: reg.counter(k).value
            for k in ("lower_segment_fallbacks", "graph_fallbacks")
        }
        prints = {}
        for backend in ("eager", "replay", "cc"):
            routers = []

            def factory(i):
                routers.append(_ForcedRouter(rng=100 + i))
                return routers[-1]

            tr = _trainer(backend, steady=True, router_factory=factory)
            prints[backend] = _fingerprint(tr, tr.train())
            assert set().union(*(r.seen for r in routers)) == {0, 1, 2}
        _assert_same(prints["eager"], prints["replay"])
        _assert_same(prints["eager"], prints["cc"])
        assert tr.step_graph._lowered is not None
        for k, v in before.items():
            assert reg.counter(k).value == v, k


@needs_cc
class TestLoweredResilience:
    def test_guardrail_rewind_stays_bit_identical(self):
        """NaN-grad skips + snapshot rewind with lowering on must
        converge to the exact same state as the eager guardrail run
        (rewind drops the graph; the recapture re-lowers onto the loaded
        prelude)."""

        def run(backend):
            schedule = FaultSchedule(
                [FaultEvent(NAN_GRAD, step=2), FaultEvent(NAN_GRAD, step=3)]
            )
            guard = GuardrailConfig(max_consecutive_bad=2, snapshot_every=1)
            tr = _trainer(
                backend,
                steady=True,
                injector=FaultInjector(schedule),
                guardrails=guard,
                max_steps=6,
                eval_every=3,
            )
            hist = tr.train()
            assert tr.skipped_steps == 2
            assert tr.guard.rewinds >= 1
            return tr, hist

        eager_tr, eager_hist = run("eager")
        cc_tr, cc_hist = run("cc")
        _assert_same(
            _fingerprint(eager_tr, eager_hist), _fingerprint(cc_tr, cc_hist)
        )
        for p in cc_tr.model.parameters():
            assert np.isfinite(p.data).all()

    def test_checkpoint_roundtrip_mid_run(self, tmp_path):
        """save() mid-run + resume with backend="cc" reproduces the
        uninterrupted lowered run — and the eager run — bit for bit."""
        n, total = 2, 4

        def make(backend):
            return _trainer(
                backend, dropout_p=0.0, max_steps=total, eval_every=0
            )

        eager = make("eager")
        eager.train()
        straight = make("cc")
        straight.train()

        first = make("cc")
        first.config.max_steps = n
        first.train()
        assert first.step_graph is not None
        path = str(tmp_path / "mid")
        first.save(path, step=n)

        resumed = make("cc")
        resumed.fit(resume=path)

        want = {r.step: r.loss for r in straight.history.records}
        got = {r.step: r.loss for r in resumed.history.records}
        for step in range(n, total):
            assert got[step] == want[step], f"loss diverged at step {step}"
        for ref in (straight, eager):
            for a, b in zip(ref.model.parameters(), resumed.model.parameters()):
                np.testing.assert_array_equal(a.data, b.data)


@needs_cc
class TestOnePreludePerProcess:
    def test_cold_cache_compiles_the_prelude_once(self):
        """The kernel table's C is the lowering's one translation unit: a
        cold ``cc`` trainer runs ``cc`` for the prelude (for
        ``attach_adam`` or the first ``attach``, whichever comes first)
        and for what other packages registered to build behind it (the
        serving unit) — never for a graph.  A recapture compiles nothing
        and lowers onto the same prelude object, and a second trainer
        compiles and binds nothing."""
        import glob
        import os
        import subprocess
        from unittest import mock

        from repro.autograd.lower import kernels

        reg = registry()

        def counters():
            return {
                k: reg.counter(k).value
                for k in ("lower_cache_hits", "lower_compile_ms", "graph_lowered")
            }

        prebuilt = {render() for render in toolchain._prebuild.values()}
        with mock.patch.object(
            toolchain.subprocess, "run", wraps=subprocess.run
        ) as spawned:
            first = _trainer("cc", steady=True)
            losses = [first.train_step(s) for s in range(2)]
            after_first = counters()
            compiled = [
                open(next(a for a in c.args[0] if a.endswith(".c"))).read()
                for c in spawned.call_args_list
                if "--version" not in c.args[0]
            ]
            assert compiled.count(kernels.PRELUDE) == 1
            assert set(compiled) <= {kernels.PRELUDE} | prebuilt
            cache = toolchain.cache_dir()
            assert len(glob.glob(os.path.join(cache, "prelude-*.so"))) == 1
            assert len(glob.glob(os.path.join(cache, "*.so"))) == len(compiled)

            # A guardrail skip or a restore drops the graph; the
            # recapture lowers onto the library already loaded.
            lib = first.step_graph._lowered._lib
            spawned.reset_mock()
            first.invalidate_graph()
            first.train_step(2)
            assert not spawned.call_args_list
            assert first.step_graph._lowered._lib is lib

            with mock.patch.object(runtime, "bind", wraps=runtime.bind) as bound:
                second = _trainer("cc", steady=True)
                assert [second.train_step(s) for s in range(2)] == losses
            assert not spawned.call_args_list and not bound.call_args_list
        after_second = counters()
        assert after_second["graph_lowered"] > after_first["graph_lowered"]
        assert after_second["lower_cache_hits"] > after_first["lower_cache_hits"]
        assert after_second["lower_compile_ms"] == after_first["lower_compile_ms"]


class TestNoToolchain:
    def test_missing_blas_symbol_leaves_gemm_records_on_the_interpreter(
        self, monkeypatch
    ):
        """No ``cblas_sgemm`` to inject: no contract admits a GEMM-backed
        unit, those records replay through NumPy, and everything else
        still lowers — with identical bits."""
        from repro.autograd.lower import blas

        if not lower.cc_available():
            pytest.skip("no C toolchain in this environment")
        replay = _trainer("replay", steady=True)
        ref = _fingerprint(replay, replay.train())

        monkeypatch.setattr(blas, "_state", None)
        assert not blas.available()
        reg = registry()
        before = reg.counter("lower_segment_fallbacks").value
        lowered = _trainer("cc", steady=True)
        got = _fingerprint(lowered, lowered.train())

        _assert_same(ref, got)
        graph = lowered.step_graph
        assert graph._lowered is not None
        analysis = lower.analyze(graph)
        kinds = {getattr(u, "kind", None) for u in analysis.units}
        assert {"ln", "softmax", "sbgelu"} <= kinds
        assert not {"linbias", "mm", "sdd", "dsd"} & kinds
        assert not {"sdd", "dsd"} & {e[0] for e in analysis.bwd.values()}
        assert reg.counter("lower_segment_fallbacks").value == before

    def test_no_cc_matches_plain_replay(self, monkeypatch, caplog):
        """REPRO_NO_CC=1: backend="cc" must complete bit-identical to
        capture-only training, warn exactly once, and count the
        declined lowering."""
        monkeypatch.setenv("REPRO_NO_CC", "1")
        toolchain._reset_for_tests()

        replay = _trainer("replay", steady=True)
        ref = _fingerprint(replay, replay.train())

        reg = registry()
        before = reg.counter("lower_toolchain_fallbacks").value
        with caplog.at_level("WARNING", logger="repro.autograd.lower.toolchain"):
            lowered = _trainer("cc", steady=True)
            got = _fingerprint(lowered, lowered.train())

        _assert_same(ref, got)
        assert lowered.step_graph is not None
        assert lowered.step_graph._lowered is None  # never attached
        warnings = [
            r for r in caplog.records
            if "native lowering unavailable" in r.getMessage()
        ]
        assert len(warnings) == 1, "must warn exactly once"
        assert reg.counter("lower_toolchain_fallbacks").value > before

    def test_no_cc_gemm_moe_units_degrade_to_replay(self, monkeypatch, caplog):
        """The GEMM and MoE-dispatch units (linbias/mm/softmax, grouped
        sdd/dsd, router topk1/lbfrac/finite) must obey the same
        degradation contract as the original segments: the pure-Python
        segmenter still classifies them, attach declines with the single
        toolchain warning, and the replay math is untouched."""
        monkeypatch.setenv("REPRO_NO_CC", "1")
        toolchain._reset_for_tests()

        replay = _trainer("replay", steady=True)
        ref = _fingerprint(replay, replay.train())

        with caplog.at_level("WARNING", logger="repro.autograd.lower.toolchain"):
            lowered = _trainer("cc", steady=True)
            got = _fingerprint(lowered, lowered.train())

        _assert_same(ref, got)
        graph = lowered.step_graph
        assert graph is not None and graph._lowered is None

        # Classification is toolchain-independent: the units the native
        # path would have claimed are all visible to the segmenter.
        analysis = lower.analyze(graph)
        kinds = {getattr(u, "kind", None) for u in analysis.units}
        assert {"softmax", "topk1", "lbfrac", "finite"} <= kinds
        bwd_kinds = {entry[0] for entry in analysis.bwd.values()}
        assert "softmax2" in bwd_kinds
        from repro.autograd.lower import blas

        if blas.available():  # GEMM units need the sgemm symbol, not cc
            assert {"linbias", "mm", "sdd", "dsd"} <= kinds
            assert {"sdd", "dsd"} <= bwd_kinds

        warnings = [
            r for r in caplog.records
            if "native lowering unavailable" in r.getMessage()
        ]
        assert len(warnings) == 1, "must warn exactly once"
