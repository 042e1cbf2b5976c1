"""A drift-free gate on the Python a training step runs.

Wall-clock step time on a shared two-core box cannot gate anything
smaller than ~5 %; the interpreter opcodes a step executes are exact
(``sys.settrace`` + ``f_trace_opcodes``, ``tools/step_probe.py``).  The
absolute count belongs to one interpreter version, so what is asserted
is the *ratio* between rungs of one process: what capture removes
(module traversal, tape construction, the topological sort) and what
lowering removes on top (NumPy's per-ufunc dispatch inside fused units)
must stay removed.
"""

import contextlib
import importlib.util
import os

import numpy as np
import pytest

from repro.autograd import lower
from repro.autograd.lower import kernels, runtime, toolchain
from repro.core import dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.serving.engine import InferenceEngine
from repro.training import Adam, Trainer, TrainerConfig

_PROBE = os.path.join(
    os.path.dirname(__file__), "..", "..", "tools", "step_probe.py"
)
_spec = importlib.util.spec_from_file_location("step_probe", _PROBE)
step_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_probe)

#: Measured on this model (CPython 3.11, steps 3-5 after three warm-up
#: steps): replay / eager 0.65-0.66, cc / eager 0.414-0.416 since the
#: dMoE dispatch plan is one native call (0.443-0.446 when it was built
#: in NumPy, 0.57-0.58 when every call built its pointers); the bench
#: shapes read 0.71-0.72 for replay (``step_probe.py --opcodes``).  The
#: ceilings sat 8 % above the measured ratio when set: wide enough for
#: another interpreter's opcode granularity, and a change that adds a
#: tenth to a compiled step's Python trips them (the count had drifted
#: +5 % over three PRs with nothing to notice it).
REPLAY_CEILING = 0.71
CC_CEILING = 0.48
#: A 4-slot decode step of the same model, served: its serving plan bound
#: to the kernel table's C over the same plan built with every entry
#: pinned to its reference measured 0.086 (CPython 3.11: 1 014 / 11 844
#: opcodes); the ceiling sits 7 % above.
DECODE_CEILING = 0.092


@pytest.fixture(autouse=True)
def _lower_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LOWER_CACHE", str(tmp_path / "lower-cache"))
    toolchain._reset_for_tests()
    yield
    toolchain._reset_for_tests()


def _step_opcodes(backend):
    pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
    train = LMDataset(pile.token_stream(12_000, 64), seq_len=32)
    ffn = lambda i: dMoE(32, 64, num_experts=8, block_size=16, rng=i)
    model = TransformerLM(64, 32, 2, 4, 32, ffn_factory=ffn, dropout_p=0.0, rng=0)
    config = TrainerConfig(
        global_batch=8, micro_batch=4, max_steps=10**9, eval_every=0,
        log_every=0, steady_state=True, backend=backend,
    )
    trainer = Trainer(
        model, train, config=config, optimizer=Adam(model.parameters(), lr=1e-3), rng=9,
    )
    return [total for _, total, _ in step_probe.step_opcodes(trainer, steps=3)]


def _model():
    ffn = lambda i: dMoE(32, 64, num_experts=8, block_size=16, rng=i)
    return TransformerLM(64, 32, 2, 4, 32, ffn_factory=ffn, dropout_p=0.0, rng=0)


@contextlib.contextmanager
def _pinned_to_references():
    """Every direct entry bound to a runner that declines and to no
    library: each call runs its reference, as with no prelude, but counts
    nothing, and a serving plan built meanwhile binds none of the C."""
    decline = lambda *ops: False  # noqa: E731
    runtime._direct.update(
        {e: (decline, kernels.reference(e), None) for e in kernels.TABLE if e.checks}
    )
    try:
        yield
    finally:
        runtime._direct.clear()


def _decode_opcodes() -> int:
    engine = InferenceEngine(_model())
    cache = engine.new_cache(4)
    ids = np.random.default_rng(1).integers(0, 64, size=(4, 9))
    try:
        engine.prefill(ids[:, :8], cache)

        def decode():
            cache.lengths[:] = 8
            engine.decode_step(ids[:, 8], cache)

        decode()  # warm: binds every entry
        return step_probe.count_opcodes(decode)[0]
    finally:
        cache.release()


def test_counting_is_exact():
    """The same work counts the same — what makes this a gate."""
    work = lambda: sum(i * i for i in range(100))
    first, per_function = step_probe.count_opcodes(work)
    assert first == step_probe.count_opcodes(work)[0] > 300
    assert sum(per_function.values()) == first


def test_compiled_steps_run_less_python_than_eager():
    eager = _step_opcodes("eager")
    replay = _step_opcodes("replay")
    for e, r in zip(eager, replay):
        assert r <= REPLAY_CEILING * e, (r, e, r / e)
    if not lower.cc_available():
        pytest.skip("no C toolchain in this environment: cc column not counted")
    for e, c in zip(eager, _step_opcodes("cc")):
        assert c <= CC_CEILING * e, (c, e, c / e)


def test_native_decode_runs_less_python_than_its_references():
    """Serving's share: the entries that take a decode step's MoE layers,
    LayerNorms, GEMMs and attention off the interpreter stay taken off."""
    if not lower.cc_available():
        pytest.skip("no C toolchain in this environment")
    native = _decode_opcodes()
    with _pinned_to_references():
        pinned = _decode_opcodes()
    assert native <= DECODE_CEILING * pinned, (native, pinned, native / pinned)
