"""The rung matrix, stated once.

``TrainerConfig`` accepts six ``(backend, steady_state)`` pairs and they
are four configurations — the eager reference, the eager steady step,
``replay`` and ``cc`` (always steady).  Every one of them must train the
same bits as the reference: losses, gradient norms, parameters and both
Adam moments, under each learning-rate schedule the repo ships (the
cosine one returns through ``np.cos``), with the clip biting and not,
over steps that span the end of warm-up.  The type a learning rate
arrives in must not matter either, and neither may the layer: the
variable-width dMoE and the Sinkhorn / BASE routers, whose assignment
or dispatch is host work, train the eager bits on the compiled rungs.

The eager reference and the eager steady step differ in the buffer
arena only: both run the fused ops.  Each fused op's bitwise contract
with the composition it replaces is stated once, op by op, in
``tests/autograd/test_fused_ops.py``.
"""

import json

import numpy as np
import pytest

from repro.autograd import lower
from repro.autograd.lower import toolchain
from repro.cli import main
from repro.core import VariableSizedDMoE, dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.moe import BaseLayerRouter, SinkhornRouter
from repro.nn import TransformerLM
from repro.observability import registry
from repro.training import Adam, Trainer, TrainerConfig, optim
from repro.training.lr_schedule import (
    ConstantLR,
    LRSchedule,
    WarmupCosineLR,
    WarmupLinearLR,
)
from repro.training.optim import clip_scale

STEPS = 8
WARMUP = 3
LR = 1e-3

needs_cc = pytest.mark.skipif(
    not lower.cc_available(), reason="no C toolchain in this environment"
)
RUNGS = [
    pytest.param("eager", False, id="eager-reference"),
    pytest.param("eager", True, id="eager-steady"),
    pytest.param("replay", False, id="replay"),
    pytest.param("replay", True, id="replay-steady"),
    pytest.param("cc", False, id="cc", marks=needs_cc),
    pytest.param("cc", True, id="cc-steady", marks=needs_cc),
]
SCHEDULES = {
    "constant": lambda: ConstantLR(LR),
    "cosine": lambda: WarmupCosineLR(LR, STEPS, warmup_steps=WARMUP),
    "linear": lambda: WarmupLinearLR(LR, STEPS, warmup_steps=WARMUP),
}
#: A clip every step's gradient norm exceeds, and none.
CLIPS = {"clip-active": 0.05, "clip-inactive": 0.0}


@pytest.fixture(scope="module", autouse=True)
def _one_cache_for_the_module(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_LOWER_CACHE", str(tmp_path_factory.mktemp("lower-cache")))
    toolchain._reset_for_tests()
    yield
    mp.undo()
    toolchain._reset_for_tests()


@pytest.fixture(autouse=True)
def _native_clip_only_where_attached():
    """``attach_adam`` installs the native clip module-wide; a rung that
    did not attach it must run NumPy's."""
    optim._CLIP_CC = None
    yield
    optim._CLIP_CC = None


def _dmoe(i):
    return dMoE(16, 32, num_experts=4, block_size=8, rng=i)


#: Layers whose dispatch or routing is host work the compiled rungs must
#: redo from every replay's live routing.
LAYERS = {
    "variable-dmoe": lambda i: VariableSizedDMoE(16, [8, 16, 24, 32], block_size=8, rng=i),
    "sinkhorn": lambda i: dMoE(
        16, 32, num_experts=4, block_size=8, rng=i, router=SinkhornRouter(16, 4, rng=20 + i)
    ),
    "base-layer": lambda i: dMoE(
        16, 32, num_experts=4, block_size=8, rng=i, router=BaseLayerRouter(16, 4, rng=20 + i)
    ),
}


def _trainer(backend, steady, schedule, grad_clip, lr=LR, ffn=_dmoe):
    pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
    train = LMDataset(pile.token_stream(6_000, 32), seq_len=16)
    model = TransformerLM(64, 16, 2, 2, 16, ffn_factory=ffn, dropout_p=0.1, rng=0)
    config = TrainerConfig(
        global_batch=8, micro_batch=4, max_steps=STEPS, eval_every=0,
        log_every=1, grad_clip=grad_clip, steady_state=steady, backend=backend,
    )
    return Trainer(
        model, train, config=config, optimizer=Adam(model.parameters(), lr=lr),
        schedule=schedule, rng=9,
    )


def _run(trainer):
    """Everything a rung must reproduce, plus the per-step records."""
    records = trainer.train().records[:STEPS]
    opt = trainer.optimizer
    bits = (
        [r.loss for r in records],
        [r.grad_norm for r in records],
        [a.copy() for a in [p.data for p in opt.params] + opt._m + opt._v],
    )
    return bits, records


def _assert_same_bits(got, ref):
    assert got[0] == ref[0]  # float equality: bitwise, not approx
    assert got[1] == ref[1]
    for a, b in zip(got[2], ref[2]):
        np.testing.assert_array_equal(a, b)


_REFERENCE = {}


def _reference(schedule, clip):
    """The eager reference's bits for one (schedule, clip), run once."""
    key = (schedule, clip)
    if key not in _REFERENCE:
        bits, _ = _run(_trainer("eager", False, SCHEDULES[schedule](), CLIPS[clip]))
        biting = [clip_scale(norm, CLIPS[clip]) != 1.0 for norm in bits[1]]
        assert all(biting) if clip == "clip-active" else not any(biting)
        _REFERENCE[key] = bits
    return _REFERENCE[key]


@pytest.mark.parametrize("clip", CLIPS)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("backend, steady", RUNGS)
def test_every_rung_trains_the_reference_bits(backend, steady, schedule, clip):
    trainer = _trainer(backend, steady, SCHEDULES[schedule](), CLIPS[clip])
    bits, records = _run(trainer)
    _assert_same_bits(bits, _reference(schedule, clip))
    # The compiled rungs are steady whatever was passed.
    is_steady = steady or backend != "eager"
    assert trainer.config.steady_state is is_steady
    assert all((r.arena_hit_rate is not None) is is_steady for r in records)
    if backend == "cc":
        assert trainer.step_graph._lowered is not None
        assert trainer.optimizer._cc_multi is not None


@pytest.mark.parametrize("layer", LAYERS)
def test_every_rung_trains_each_layer_alike(layer):
    """One capture per run and no fallback: every micro batch after the
    first is a replay, and it trains the eager bits only if the layer's
    assignment, plan and topology were rebuilt from its own routing."""
    make = lambda backend: _trainer(
        backend, False, ConstantLR(LR), CLIPS["clip-active"], ffn=LAYERS[layer]
    )
    ref, _ = _run(make("eager"))
    reg = registry()
    for backend in ["replay"] + (["cc"] if lower.cc_available() else []):
        before = {k: reg.counter(f"graph_{k}").value for k in ("captures", "replays", "fallbacks")}
        bits, _ = _run(make(backend))
        _assert_same_bits(bits, ref)
        counts = {k: reg.counter(f"graph_{k}").value - v for k, v in before.items()}
        assert counts == {"captures": 1, "replays": 2 * STEPS - 1, "fallbacks": 0}, backend


class _Typed(LRSchedule):
    """The same rate every step, returned as whatever it was given."""

    def __init__(self, lr):
        self.lr = lr

    def __call__(self, step):
        return self.lr


@pytest.mark.parametrize(
    "backend, steady",
    [
        pytest.param("eager", False, id="eager-reference"),
        pytest.param("eager", True, id="eager-steady"),
        pytest.param("cc", True, id="cc", marks=needs_cc),
    ],
)
def test_the_type_of_the_learning_rate_does_not_choose_the_arithmetic(backend, steady):
    """``np.float64`` is a strong scalar under NEP 50 — ``lr * update``
    would be formed in float64 — where a Python float adopts float32."""
    ref = _reference("constant", "clip-active")
    for scalar in (float, np.float64, np.float32):
        lr = scalar(LR)
        bits, _ = _run(_trainer(backend, steady, _Typed(lr), CLIPS["clip-active"], lr=lr))
        _assert_same_bits(bits, ref)


def test_schedules_return_python_floats():
    for make in SCHEDULES.values():
        schedule = make()
        assert all(type(schedule(step)) is float for step in range(STEPS + 1))
    assert type(ConstantLR(np.float32(LR)).lr) is float


@needs_cc
def test_cli_cc_run_is_the_steady_step(tmp_path):
    """``--backend cc`` runs the configuration the performance numbers
    were taken on: every logged step has an arena hit rate."""
    run_log = tmp_path / "run.jsonl"
    assert main([
        "--scale", "0.05", "--steps", "4", "--vocab-size", "64", "--tokens", "8000",
        "--global-batch", "8", "--micro-batch", "4", "--backend", "cc",
        "--run-log", str(run_log),
    ]) == 0
    steps = [
        rec for rec in map(json.loads, run_log.read_text().splitlines())
        if rec.get("step_time") is not None
    ]
    assert len(steps) == 4
    assert all(rec["arena_hit_rate"] is not None for rec in steps)
