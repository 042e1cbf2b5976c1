"""The rung matrix, stated once.

``TrainerConfig`` accepts six ``(backend, steady_state)`` pairs and they
are four configurations — the eager reference, the eager steady step,
``replay`` and ``cc`` (always steady).  Every one of them must train the
same bits as the reference: losses, gradient norms, validation losses
taken between steps, parameters and both Adam moments, under each
learning-rate schedule the repo ships (the cosine one returns through
``np.cos``), with the clip biting and not, over steps that span the end
of warm-up.  They must also recover alike: a guardrail-style rewind
after two skipped steps, and a resume mid-replay from a checkpoint into
fresh state.  The type a learning rate arrives in must not matter
either, and neither may the layer: every single-process MoE layer —
the dMoE top-1 and top-2, under the jitter, Sinkhorn and BASE routers,
and the capacity-factor and Tutel dropping layers, whose capacity or
drops move with routing — trains the eager bits on every rung, and the
compiled rungs capture it once and replay every later micro batch.  And
a rung runs alike on a ``sim`` rank, a thread, as on an ``mp`` rank, a
process.

Everything here drives :func:`repro.training.step.run_step` on a
:class:`~repro.training.step.StepState` directly; no ``Trainer`` is
built for a bit-identity check.  The last test is a stateful property:
random interleavings of steps, reshaped micro batches, injected
non-finite gradients and checkpoint restores keep a compiled state on
the eager reference's bits.

The eager reference and the eager steady step run one body per op —
the fused ops, the in-place optimizer update, the backward walk with its
buffer bookkeeping — and differ only in where a buffer comes from (the
arena's switch).  So comparing them checks one thing: the arena's
"fully overwrite" contract.  Each fused op's bitwise contract with the
composition it replaces is stated once, op by op, in
``tests/autograd/test_fused_ops.py``, and the in-place optimizer
update's with its allocating formula in ``tests/training/test_optim.py``.
"""

import json

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.autograd import get_arena, lower, no_grad
from repro.autograd.lower import runtime, toolchain
from repro.checkpoint import apply_state, build_state, load_checkpoint, write_state
from repro.cli import main
from repro.core import dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.distributed import run_distributed
from repro.moe import (
    BaseLayerRouter,
    DynamicCapacityMoELayer,
    MoELayer,
    Router,
    SinkhornRouter,
)
from repro.nn import TransformerLM
from repro.observability import registry
from repro.resilience import guardrails as gr
from repro.resilience.faults import (
    INF_GRAD,
    NAN_GRAD,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.training import Adam, TrainerConfig
from repro.training.lr_schedule import (
    ConstantLR,
    LRSchedule,
    WarmupCosineLR,
    WarmupLinearLR,
)
from repro.training.optim import clip_scale
from repro.training.step import StepState, run_step, sync_gradients

STEPS = 8
WARMUP = 3
LR = 1e-3
MICRO = 4

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


def _dmoe(i):
    return dMoE(16, 32, num_experts=4, block_size=8, rng=i)


#: Layers whose dispatch or routing is host work the compiled rungs must
#: redo from every replay's live routing.  The two narrow layers hold
#: two column blocks per expert, so their mean blocks per group moves
#: with routing across ``MIN_BLOCKS_PER_GROUP``: they hold only while
#: the sparse dispatch path is a function of the topology alone, never
#: of where the tokens went (a replay serves its buffers by position).
#: The dropping layers' drops (capacity factor 1) and capacity (Tutel's,
#: the busiest expert's load) move from micro batch to micro batch: they
#: hold only while nothing routing decides is a constant of the graph.
LAYERS = {
    "dmoe-top1": _dmoe,
    "dmoe-top2": lambda i: dMoE(16, 32, num_experts=4, top_k=2, block_size=8, rng=i),
    "jitter": lambda i: dMoE(
        16, 32, num_experts=4, block_size=8, rng=i,
        router=Router(16, 4, jitter_eps=0.1, rng=20 + i),
    ),
    "sinkhorn": lambda i: dMoE(
        16, 32, num_experts=4, block_size=8, rng=i, router=SinkhornRouter(16, 4, rng=20 + i)
    ),
    "base-layer": lambda i: dMoE(
        16, 32, num_experts=4, block_size=8, rng=i, router=BaseLayerRouter(16, 4, rng=20 + i)
    ),
    "narrow-5-experts": lambda i: dMoE(16, 16, num_experts=5, block_size=8, rng=i),
    "narrow-6-experts": lambda i: dMoE(16, 16, num_experts=6, block_size=8, rng=i),
    "moe-cf1-top1": lambda i: MoELayer(16, 32, 4, capacity_factor=1.0, rng=i),
    "moe-cf1-top2": lambda i: MoELayer(16, 32, 4, capacity_factor=1.0, top_k=2, rng=i),
    "tutel-dmoe": lambda i: DynamicCapacityMoELayer(16, 32, 4, rng=i),
}
#: Steps per layer run: enough micro batches for routing to move.
LAYER_STEPS = 12

_PILE = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
_TRAIN, _VAL = LMDataset(_PILE.token_stream(6_000, 32), seq_len=16).split(0.1)
#: One data order for every rung: micro batch ``i`` holds these rows.
_ORDER = np.random.default_rng(9).permutation(len(_TRAIN))


def _micro_batch(i, rows=MICRO):
    return _TRAIN.batch(_ORDER[(i * MICRO) % len(_ORDER):][:rows])


def _batches(step, rows=MICRO):
    """Step ``step``'s two micro batches."""
    return iter([_micro_batch(2 * step, rows), _micro_batch(2 * step + 1, rows)])


def _state(backend, steady, schedule, grad_clip, lr=LR, ffn=_dmoe, dropout_p=0.1):
    model = TransformerLM(64, 16, 2, 2, 16, ffn_factory=ffn, dropout_p=dropout_p, rng=0)
    config = TrainerConfig(
        global_batch=2 * MICRO, micro_batch=MICRO, grad_clip=grad_clip,
        steady_state=steady, backend=backend,
    )
    return StepState(model, Adam(model.parameters(), lr=lr), schedule, config)


def _evaluate(state):
    """The validation loss a trainer would log: eval mode, no tape, in
    the step's scope (its buffers live until the next step retires them)."""
    state.model.eval()
    with state.scope(), no_grad():
        _, lm, _ = state.model.loss(_VAL.inputs[:MICRO], _VAL.targets[:MICRO])
    state.model.train()
    return float(lm.data)


def _bits(state, losses, norms, vals=()):
    opt = state.optimizer
    arrays = [a.copy() for a in [p.data for p in opt.params] + opt._m + opt._v]
    return losses, norms, list(vals), opt.t, arrays


def _train(state, steps=range(STEPS)):
    """Run ``steps``, evaluating after every other one."""
    losses, norms, vals = [], [], []
    for step in steps:
        loss, norm, verdict = run_step(state, _batches(step), step)
        assert verdict == gr.OK
        losses.append(loss)
        norms.append(norm)
        if step % 2:
            vals.append(_evaluate(state))
    return _bits(state, losses, norms, vals)


def _rewind(make, path):
    """NaN gradients at steps 3 and 4: both skip, and the second rewinds
    to the checkpoint state taken after the last good step (step 2)."""
    state = make()
    state.faults = FaultInjector(
        FaultSchedule([FaultEvent(NAN_GRAD, step=3), FaultEvent(NAN_GRAD, step=4)])
    )
    losses, norms, verdicts = [], [], []
    snapshot, bad = build_state(state.model, state.optimizer, copy=True), 0
    for step in range(STEPS):
        loss, norm, verdict = run_step(state, _batches(step), step)
        losses.append(loss)
        norms.append(norm)
        verdicts.append(verdict)
        if verdict == gr.OK:
            snapshot, bad = build_state(state.model, state.optimizer, copy=True), 0
        else:
            assert state.graph is None  # a skip drops the graph
            bad += 1
            if bad == 2:
                apply_state(snapshot, state.model, state.optimizer)
    assert verdicts == [gr.OK] * 3 + [gr.NONFINITE_GRAD] * 2 + [gr.OK] * 3
    return _bits(state, losses, norms)


def _resume(make, path):
    """Half the steps, a checkpoint written to disk, and the other half
    on fresh state loaded from it (dropout off: per-module dropout
    streams are not checkpointed)."""
    first, half = make(), STEPS // 2
    head = _train(first, range(half))
    write_state(path, build_state(first.model, first.optimizer, step=half))
    resumed = make()
    load_checkpoint(path, resumed.model, resumed.optimizer)
    tail = _train(resumed, range(half, STEPS))
    return (head[0] + tail[0], head[1] + tail[1], head[2] + tail[2], *tail[3:])


def _assert_same_bits(got, ref):
    assert got[:4] == ref[:4]  # float equality: bitwise, not approx
    for a, b in zip(got[4], ref[4]):
        np.testing.assert_array_equal(a, b)


_REFERENCE = {}


def _reference(schedule, clip):
    """The eager reference's bits for one (schedule, clip), run once."""
    key = (schedule, clip)
    if key not in _REFERENCE:
        bits = _train(_state("eager", False, SCHEDULES[schedule](), CLIPS[clip]))
        biting = [clip_scale(norm, CLIPS[clip]) != 1.0 for norm in bits[1]]
        assert all(biting) if clip == "clip-active" else not any(biting)
        _REFERENCE[key] = bits
    return _REFERENCE[key]


def _counters():
    reg = registry()
    names = ["graph_captures", "graph_replays", "graph_fallbacks", "lower_segment_fallbacks"]
    return {k: reg.counter(k).value for k in names}


@pytest.mark.parametrize("clip", CLIPS)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("backend, steady", RUNGS)
def test_every_rung_trains_the_reference_bits(backend, steady, schedule, clip):
    state = _state(backend, steady, SCHEDULES[schedule](), CLIPS[clip])
    arena, before = get_arena(), _counters()
    served = arena.hits + arena.misses
    _assert_same_bits(_train(state), _reference(schedule, clip))
    counts = {k: v - before[k] for k, v in _counters().items()}
    # The compiled rungs are steady whatever was passed.
    is_steady = steady or backend != "eager"
    assert state.config.steady_state is is_steady
    assert (arena.hits + arena.misses > served) is is_steady
    if backend == "eager":
        assert state.graph is None and counts["graph_captures"] == 0
    else:
        # One capture (the first micro batch), replays for the rest —
        # evaluations between steps included — and no guard tripped.
        assert counts == {
            "graph_captures": 1, "graph_replays": 2 * STEPS - 1,
            "graph_fallbacks": 0, "lower_segment_fallbacks": 0,
        }
    if backend == "cc":
        assert state.graph._lowered is not None
        assert state.optimizer.native is not None


SCENARIOS = {"rewind": _rewind, "resume": _resume}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("backend, steady", RUNGS)
def test_every_rung_recovers_to_the_reference_bits(backend, steady, scenario, tmp_path):
    """A skip-and-rewind and a resume mid-replay land every rung on the
    eager reference's bits (a skip or a fresh state recaptures)."""
    dropout_p = 0.0 if scenario == "resume" else 0.1

    def maker(backend, steady):
        schedule, clip = SCHEDULES["cosine"], CLIPS["clip-active"]
        return lambda: _state(backend, steady, schedule(), clip, dropout_p=dropout_p)

    run = SCENARIOS[scenario]
    key = ("scenario", scenario)
    if key not in _REFERENCE:
        _REFERENCE[key] = run(maker("eager", False), str(tmp_path / "reference"))
        if scenario == "resume":  # straight = resumed
            _assert_same_bits(_REFERENCE[key], _train(maker("eager", False)()))
    bits = run(maker(backend, steady), str(tmp_path / "ckpt"))
    _assert_same_bits(bits, _REFERENCE[key])
    assert all(np.isfinite(a).all() for a in bits[4])


@pytest.mark.parametrize("layer", LAYERS)
def test_every_rung_trains_each_layer_alike(layer, monkeypatch):
    """eager = steady = replay = cc, and one capture per run with no
    fallback: every micro batch after the first is a replay, and it
    trains the eager bits only if the layer's assignment, plan, capacity
    and topology were rebuilt from its own routing."""
    capacities = []
    dynamic = DynamicCapacityMoELayer._capacity

    def spy(mod, num_tokens, expert_indices):
        capacities.append(dynamic(mod, num_tokens, expert_indices))
        return capacities[-1]

    monkeypatch.setattr(DynamicCapacityMoELayer, "_capacity", spy)
    make = lambda backend, steady: _state(
        backend, steady, ConstantLR(LR), CLIPS["clip-active"], ffn=LAYERS[layer]
    )
    steps = range(LAYER_STEPS)
    ref = _train(make("eager", False), steps)
    rungs = [("eager", True), ("replay", False)]
    for backend, steady in rungs + ([("cc", False)] if lower.cc_available() else []):
        before = _counters()
        del capacities[:]
        _assert_same_bits(_train(make(backend, steady), steps), ref)
        counts = {k: v - before[k] for k, v in _counters().items()}
        compiled = backend != "eager"
        assert counts == {
            "graph_captures": int(compiled),
            "graph_replays": (2 * LAYER_STEPS - 1) * compiled,
            "graph_fallbacks": 0, "lower_segment_fallbacks": 0,
        }, backend
        if layer == "tutel-dmoe":
            assert len(set(capacities)) > 1, "the capacity never moved"


def _data_parallel_rank(backend, steps=3):
    """A rank body: its own steady state, stepped on its own shard of
    every step with the gradients averaged over the ranks."""

    def fn(group):
        state = _state(backend, True, ConstantLR(LR), CLIPS["clip-active"])
        losses, norms = [], []
        for step in range(steps):
            loss, norm, verdict = run_step(
                state, _batches(group.world * step + group.rank), step,
                sync=lambda: sync_gradients(state, group),
            )
            assert verdict == gr.OK
            losses.append(loss)
            norms.append(norm)
        return _bits(state, losses, norms)

    return fn


@pytest.mark.parametrize(
    "backend",
    [
        pytest.param("eager", id="eager-steady"),
        pytest.param("replay", id="replay"),
        pytest.param("cc", id="cc", marks=needs_cc),
    ],
)
def test_sim_ranks_train_the_bits_of_mp_ranks(backend):
    """Two ranks, each stepping its own state through ``run_step``: on
    ``sim`` they are threads of this process, each with its own pool,
    buffer plans and capture, and train what forked ``mp`` ranks train."""
    fn = _data_parallel_rank(backend)
    sim = run_distributed(fn, 2, backend="sim").values
    mp_ = run_distributed(fn, 2, backend="mp").values
    for s, m in zip(sim, mp_):
        _assert_same_bits(s, m)
    # One averaged gradient: the replicas stay equal.
    assert sim[0][1] == sim[1][1] and sim[0][0] != sim[1][0]
    for a, b in zip(sim[0][4], sim[1][4]):
        np.testing.assert_array_equal(a, b)


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
        bits = _train(_state(backend, steady, _Typed(lr), CLIPS["clip-active"], lr=lr))
        _assert_same_bits(bits, ref)


def test_schedules_return_python_floats():
    for make in SCHEDULES.values():
        schedule = make()
        assert all(type(schedule(step)) is float for step in range(STEPS + 1))
    assert type(ConstantLR(np.float32(LR)).lr) is float


@needs_cc
def test_the_native_optimizer_serves_only_the_state_that_bound_it(monkeypatch):
    """``attach_adam`` binds the C Adam step and gradient norm to one
    optimizer: an eager steady state built after a ``cc`` one, in the
    same process, makes no native optimizer call, and both train the
    same bits."""
    lib = runtime.load_prelude()
    calls = {"repro_adam_multi_f32": 0, "repro_clip_sumsq_f32": 0}
    for name in calls:

        def counted(*args, fn=getattr(lib, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(lib, name, counted)
    schedule, clip = SCHEDULES["constant"], CLIPS["clip-active"]
    states = {backend: _state(backend, True, schedule(), clip) for backend in ("cc", "eager")}
    runs, made = {}, {}
    for backend, state in states.items():
        before = dict(calls)
        runs[backend] = _train(state, range(2))
        made[backend] = {k: v - before[k] for k, v in calls.items()}
    assert made["cc"] == {"repro_adam_multi_f32": 2, "repro_clip_sumsq_f32": 2}
    assert made["eager"] == {"repro_adam_multi_f32": 0, "repro_clip_sumsq_f32": 0}
    _assert_same_bits(runs["eager"], runs["cc"])


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


class CompiledStepMachine(RuleBasedStateMachine):
    """Two step states from one seed — the eager reference and the
    compiled rung (``cc``, or ``replay`` without a toolchain) — take the
    same rules and must hold the same bits after every one."""

    @initialize()
    def build(self):
        compiled = "cc" if lower.cc_available() else "replay"
        self.states = [
            _state(backend, False, ConstantLR(LR), CLIPS["clip-active"])
            for backend in ("eager", compiled)
        ]
        self.step = 0
        self.results = [None, None]
        self.snapshots = [self._snapshot()]

    def _snapshot(self):
        return [build_state(s.model, s.optimizer, copy=True) for s in self.states]

    def _step(self, rows=MICRO, fault=None):
        for i, state in enumerate(self.states):
            if fault is not None:
                state.faults = FaultInjector(
                    FaultSchedule([FaultEvent(fault, step=self.step)])
                )
            self.results[i] = run_step(state, _batches(self.step, rows), self.step)
            state.faults = None
        self.step += 1
        return self.results[0][2]

    @rule()
    def step_normally(self):
        assert self._step() == gr.OK
        self.snapshots.append(self._snapshot())

    @rule(rows=st.sampled_from([1, 2, 3]))
    def step_on_another_shape(self, rows):
        """A micro batch of another shape: the graph's signature fails,
        and the compiled state recaptures (and again on the next step)."""
        assert self._step(rows) == gr.OK
        assert self.states[1].graph.signature[0] == (rows, 16)

    @rule(kind=st.sampled_from([NAN_GRAD, INF_GRAD]))
    def step_with_a_nonfinite_gradient(self, kind):
        """The fault lands after backward: the step skips, and drops its
        gradients and its graph."""
        assert self._step(fault=kind) == gr.NONFINITE_GRAD
        assert self.results[0][1] is None
        for state in self.states:
            assert state.graph is None
            assert all(p.grad is None for p in state.optimizer.params)

    @rule(data=st.data())
    def apply_an_earlier_checkpoint_state(self, data):
        snap = data.draw(st.sampled_from(self.snapshots))
        for saved, state in zip(snap, self.states):
            apply_state(saved, state.model, state.optimizer)

    # -- what a bound replay holds, moved under it ------------------------
    # Each rule below changes an object a lowered unit (or the native Adam
    # table) holds — a buffer, a script, a parameter array, the plan — and
    # then steps: the units holding the old object must rebind, counting
    # no fallback, and the replay must keep the eager bits.
    def _step_ok(self, steps=1):
        fallbacks = registry().counter("lower_segment_fallbacks")
        before = fallbacks.value
        for _ in range(steps):
            assert self._step() == gr.OK
        assert fallbacks.value == before
        self.snapshots.append(self._snapshot())

    @rule()
    def reclaim_the_arena(self):
        """Every pooled buffer dropped: the next pool request — a script
        recording, an unscripted step — gets new memory."""
        get_arena().clear()
        self._step_ok()

    @rule(how=st.sampled_from(["dead", "outgrown"]))
    def force_a_buffer_script_rerecord(self, how):
        """A dead script is dropped after its replay and recorded afresh on
        the next, from new pool buffers; an entry whose base is outgrown
        grows a new base and serves a new view where the old one was."""
        graph = self.states[1].graph
        for script in (graph._scripts.values() if graph is not None else ()):
            if how == "dead":
                script.dead = True
                continue
            for e in script.entries:
                if e[3] is not None:
                    # Too small for any request, and a shape none asks for.
                    e[1], e[3], e[4] = (), e[3][:1], {}
        self._step_ok(2)

    @rule(data=st.data())
    def swap_a_parameter_array(self, data):
        """``Parameter.data`` replaced by a copy: same values, new memory."""
        k = data.draw(st.integers(0, len(self.states[0].optimizer.params) - 1))
        for state in self.states:
            p = state.optimizer.params[k]
            p.data = p.data.copy()
        self._step_ok()

    @rule()
    def drop_and_reattach_the_lowered_plan(self):
        """The graph's lowered plan detached and a new one attached: every
        unit is bound again from nothing."""
        graph = self.states[1].graph
        if graph is not None and graph._lowered is not None:
            graph.detach_lowered()
            assert lower.attach(graph) is not None
        self._step_ok()

    @invariant()
    def the_compiled_state_holds_the_reference_bits(self):
        assert self.results[0] == self.results[1]  # bitwise float equality
        eager, compiled = self.states
        assert eager.optimizer.t == compiled.optimizer.t
        for a, b in zip(eager.optimizer.params, compiled.optimizer.params):
            np.testing.assert_array_equal(a.data, b.data)
        for name in ("_m", "_v"):
            for a, b in zip(getattr(eager.optimizer, name), getattr(compiled.optimizer, name)):
                np.testing.assert_array_equal(a, b)


CompiledStepMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=8, deadline=None, derandomize=True
)
test_the_compiled_step_holds_the_reference_bits = CompiledStepMachine.TestCase
