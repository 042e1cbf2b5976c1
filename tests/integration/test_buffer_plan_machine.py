"""The compiled step's memory plan under moving routing, as a stateful
property, and what it must never do.

A compiled step serves every buffer from its graph's memory plan: one
layout per accumulation slot, laid out by lifetime in an activation
region both slots share, with leaf gradients in a gradient region of
the slot's own (``repro.autograd.memplan``).  Routing moves the
tokens-per-expert counts from one micro batch to the next; the dMoE
declares what routing sizes when a layout records, and every buffer
sized from it is reserved at its bound, so a moved count is a view of
the same range.  The rules move what the compiled
state stands on — the batches, hence the routing; every token onto one
expert (three of four empty); the pool; the layouts; the lowered plan —
and the compiled state must keep the bits of an eager state stepped
alongside, with no guard fallback, no request off the plan, and one
activation region under both slots.

Then the plan's own contract: a poisoned replay (every planned range
filled with NaN the moment its buffer is dead) keeps the bits, so no
buffer was laid over a live one; a two-slot step plans no more
activation memory than a one-slot step of the same micro batch; a
layout does not depend on the micro batch that recorded it, even one
whose padded rows equal its token count; and a replay that leaves the
plan — an entry shrunk under it, a runner asking for one buffer more —
finishes on the pool with the eager bits, counts once, and the next
replay records a layout that serves again.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.autograd import arena, get_arena, lower, memplan
from repro.autograd.lower import kernels, toolchain
from repro.autograd.lower.kernels import gelu
from repro.core import dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.observability import registry
from repro.resilience import guardrails as gr
from repro.training import Adam, TrainerConfig
from repro.training.lr_schedule import ConstantLR
from repro.training.step import StepState, run_step

MICRO = 4

pytestmark = pytest.mark.skipif(
    not lower.cc_available(), reason="no C toolchain in this environment"
)

_PILE = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=2)
_TRAIN = LMDataset(_PILE.token_stream(4_000, 32), seq_len=16)


@pytest.fixture(scope="module", autouse=True)
def _one_cache_for_the_module(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_LOWER_CACHE", str(tmp_path_factory.mktemp("lower-cache")))
    toolchain._reset_for_tests()
    yield
    mp.undo()
    toolchain._reset_for_tests()


def _state(backend, slots=2):
    model = TransformerLM(
        64, 16, 2, 2, 16, dropout_p=0.0, rng=0,
        ffn_factory=lambda i: dMoE(16, 32, num_experts=4, block_size=8, rng=i),
    )
    config = TrainerConfig(
        global_batch=slots * MICRO, micro_batch=MICRO, grad_clip=0.05, backend=backend,
    )
    return StepState(model, Adam(model.parameters(), lr=1e-3), ConstantLR(1e-3), config)


def _batches(first, slots=2):
    n = len(_TRAIN) - MICRO
    starts = (first, first + 7, first + 13)[:slots]
    return iter([_TRAIN.batch(np.arange(i, i + MICRO) % n) for i in starts])


def _counter(name):
    return registry().counter(name)


def _assert_same_bits(eager, compiled):
    for a, b in zip(eager.optimizer.params, compiled.optimizer.params):
        np.testing.assert_array_equal(a.data, b.data)
    for name in ("_m", "_v"):
        for a, b in zip(getattr(eager.optimizer, name), getattr(compiled.optimizer, name)):
            np.testing.assert_array_equal(a, b)


class _Counting:
    """Calls of ``Layout._serve_slow``, the path a request whose shape
    moved takes."""

    def __init__(self):
        self.calls = 0
        self.orig = memplan.Layout._serve_slow
        counting = self

        def serve_slow(layout, *args):
            counting.calls += 1
            return counting.orig(layout, *args)

        memplan.Layout._serve_slow = serve_slow

    def restore(self):
        memplan.Layout._serve_slow = self.orig


class MemoryPlanMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.states = [_state("eager"), _state("cc")]
        self.results = [None, None]
        self.step = 0
        self.fallbacks = _counter("lower_segment_fallbacks")
        self.misses = _counter("memory_plan_misses")
        self.at_start = (self.fallbacks.value, self.misses.value)
        self.slow = _Counting()

    def teardown(self):
        slow = getattr(self, "slow", None)
        if slow is not None:
            slow.restore()

    def _step(self, first):
        for i, state in enumerate(self.states):
            self.results[i] = run_step(state, _batches(first), self.step)
        self.step += 1
        assert self.results[0][2] == gr.OK

    def _moe_layers(self, state):
        return [block.ffn for block in state.model.blocks]

    def _route_to_one_expert(self):
        for state in self.states:
            for layer in self._moe_layers(state):
                layer.router.proj.weight.data[...] = 0.0

    @rule(first=st.integers(0, 400))
    def step_on_a_batch(self, first):
        """Another batch: the tokens-per-expert counts move."""
        self._step(first)

    @rule(first=st.integers(0, 400))
    def route_every_token_to_one_expert(self, first):
        """Zero router weights: every score ties and every token goes to
        expert 0, leaving three experts empty."""
        self._route_to_one_expert()
        self._step(first)
        copies = MICRO * 16
        for layer in self._moe_layers(self.states[1]):
            assert layer.last_plan.tokens_per_expert.tolist() == [copies, 0, 0, 0]

    @rule(first=st.integers(0, 400))
    def repeat_a_layout(self, first):
        """Three steps with every token on expert 0: by the third, each
        slot replays the shapes it replayed last, so no request is
        served on the slow path, nothing is recaptured and nothing
        leaves the plan."""
        captures = _counter("graph_captures")
        for k in range(3):
            self._route_to_one_expert()
            before = (self.slow.calls, captures.value)
            self._step(first + k)
        assert (self.slow.calls, captures.value) == before

    @rule()
    def clear_the_arena(self):
        get_arena().clear()
        self._step(self.step)

    @rule()
    def force_a_rerecord(self):
        graph = self.states[1].graph
        if graph is not None:
            graph.memory.forget()
        self._step(self.step)

    @rule()
    def detach_and_reattach_the_lowered_plan(self):
        graph = self.states[1].graph
        if graph is not None and graph._lowered is not None:
            graph.detach_lowered()
            assert lower.attach(graph) is not None
        self._step(self.step)

    @invariant()
    def the_compiled_state_holds_the_eager_bits(self):
        if self.results[0] is None:
            return
        assert self.results[0] == self.results[1]
        _assert_same_bits(*self.states)

    @invariant()
    def nothing_fell_back_or_left_the_plan(self):
        assert (self.fallbacks.value, self.misses.value) == self.at_start

    @invariant()
    def both_slots_share_one_activation_region(self):
        graph = self.states[1].graph
        layouts = graph.memory.slots if graph is not None else {}
        if {0, 1} <= set(layouts) and all(l.regions[0] is not None for l in layouts.values()):
            assert np.shares_memory(layouts[0].regions[0], layouts[1].regions[0])


MemoryPlanMachine.TestCase.settings = settings(
    max_examples=6, stateful_step_count=6, deadline=None, derandomize=True
)
test_buffer_plans_hold_the_eager_bits_as_routing_moves = MemoryPlanMachine.TestCase


def _warm(slots=2, steps=3):
    """An eager state and a ``cc`` state stepped alike until both slots
    replay on their layouts."""
    states = [_state("eager", slots), _state("cc", slots)]
    for step in range(steps):
        for state in states:
            assert run_step(state, _batches(step, slots), step)[2] == gr.OK
    return states


def _step_both(states, step, slots=2):
    return [run_step(state, _batches(step, slots), step) for state in states]


def test_a_poisoned_replay_keeps_the_bits(monkeypatch):
    """Every planned range is filled with NaN the moment its buffer dies
    (before the request that may reuse it is served): a plan that laid
    a buffer over one still live turns the step's bits to NaN."""
    states = _warm()
    layouts = states[1].graph.memory.slots
    assert set(layouts) == {0, 1}
    poisoned = []
    upto = {}  # layout -> the clock its poisoning has reached
    serve, start = memplan.Layout.acquire, memplan.Layout.start

    def poison_then_start(layout, pool):
        upto[id(layout)] = 0
        start(layout, pool)

    def poison_then_acquire(layout, shape, dtype, rows=None):
        since, now = upto[id(layout)], layout.cursor
        for j, e in enumerate(layout.entries):
            if e[4] == 0 and since <= layout.deaths[j] <= now:
                layout.regions[0][e[5] : e[5] + e[6]] = 0xFF  # NaN as float32
                poisoned.append(j)
        upto[id(layout)] = now + 1
        return serve(layout, shape, dtype, rows)

    monkeypatch.setattr(memplan.Layout, "acquire", poison_then_acquire)
    monkeypatch.setattr(memplan.Layout, "start", poison_then_start)
    results = _step_both(states, 3)
    monkeypatch.undo()
    assert poisoned, "nothing was poisoned"
    assert results[0] == results[1]
    _assert_same_bits(*states)
    results = _step_both(states, 4)
    assert results[0] == results[1]
    _assert_same_bits(*states)


def test_two_slots_plan_no_more_activation_memory_than_one():
    """The slots share one activation region: a step of two micro
    batches plans no more activation memory than a step of one."""
    planned = {}
    for slots in (1, 2):
        state = _warm(slots)[1]
        memory = state.graph.memory
        assert len(memory.slots) == slots
        planned[slots] = memory.nbytes()
        acts = {id(l.regions[0]) for l in memory.slots.values()}
        assert len(acts) == 1
    assert 0 < planned[2] <= planned[1]


def _reserved(memory):
    return {
        slot: [(e[0], e[3], e[6]) for e in layout.entries]
        for slot, layout in memory.slots.items()
    }


def test_a_layout_does_not_depend_on_the_micro_batch_that_recorded_it():
    """Every token on expert 0 pads to exactly ``T`` rows, the token
    count: a layout recorded then must still reserve the routing-sized
    buffers at their bound and every token-major ``(T, ...)`` buffer at
    ``T`` rows — the same layout a spread routing records, entry for
    entry.  A bound matched by extent alone inflates the token-major
    buffers too."""
    state = _state("cc")
    layers = [block.ffn for block in state.model.blocks]
    weights = [layer.router.proj.weight.data.copy() for layer in layers]
    misses = _counter("memory_plan_misses").value
    reserved = []
    for one_expert in (True, False):
        if state.graph is not None:
            state.graph.memory.forget()
        for step in range(3):
            for layer, w in zip(layers, weights):
                layer.router.proj.weight.data[...] = 0.0 if one_expert else w
            assert run_step(state, _batches(step), step)[2] == gr.OK
        tokens = MICRO * 16
        padded = [layer.last_plan.padded_tokens_per_expert.sum() for layer in layers]
        assert (min(padded) == tokens) == one_expert
        reserved.append(_reserved(state.graph.memory))
    assert reserved[0] == reserved[1]
    assert _counter("memory_plan_misses").value == misses


def test_a_slot_replayed_twice_in_one_step_stays_on_its_plan():
    """Three micro batches replay slot 1 twice a step.  Its gradient
    region holds no leaf gradient (they are slot 0's), only the expert
    ids a module keeps for the caller, so its second replay is served
    like the first instead of recording again."""
    states = _warm(3)
    misses = _counter("memory_plan_misses").value
    for step in (3, 4):
        results = _step_both(states, step, 3)
        assert results[0] == results[1]
        _assert_same_bits(*states)
    assert _counter("memory_plan_misses").value == misses
    layouts = states[1].graph.memory.slots
    assert not layouts[1].keeps_grads and layouts[0].keeps_grads


def _left_once(states, step, misses, fallbacks):
    results = _step_both(states, step)
    assert results[0] == results[1]
    _assert_same_bits(*states)
    assert _counter("memory_plan_misses").value == misses + 1
    assert _counter("lower_segment_fallbacks").value == fallbacks


def _serves_again(states, first_step):
    """The slot that left records on its next replay, and serves the
    replay after it with nothing left off the plan."""
    misses = _counter("memory_plan_misses").value
    for step in (first_step, first_step + 1):
        results = _step_both(states, step)
        assert results[0] == results[1]
        _assert_same_bits(*states)
    assert _counter("memory_plan_misses").value == misses
    for layout in states[1].graph.memory.slots.values():
        assert layout.valid and layout.left is None
        assert layout.cursor == len(layout.entries)


def test_a_shrunk_entry_leaves_the_plan_for_the_pool():
    states = _warm()
    misses = _counter("memory_plan_misses").value
    fallbacks = _counter("lower_segment_fallbacks").value
    layout = states[1].graph.memory.slots[1]
    k = max(range(len(layout.entries)), key=lambda i: layout.entries[i][6])
    layout.entries[k][1] = ()  # a shape no request asks for ...
    layout.entries[k][6] = 0  # ... in no bytes
    _left_once(states, 3, misses, fallbacks)
    assert not layout.valid and layout.left is not None and layout.off_plan > 0
    _serves_again(states, 4)


def test_a_runner_asking_for_one_more_buffer_leaves_the_plan(monkeypatch):
    """The block-sparse GELU's runner asks for a scratch buffer its
    layout never saw: each slot's replay leaves the plan at the end of
    that unit, and records a layout with it on the next."""
    states = _warm()
    misses = _counter("memory_plan_misses").value
    fallbacks = _counter("lower_segment_fallbacks").value
    build = gelu._sbgelu_forward
    asked = []

    def one_more(b):
        run = build(b)

        def run_and_ask(*ops):
            asked.append(arena.empty((3,), np.float32))
            return run(*ops)

        return run_and_ask

    entry = next(e for e in kernels.TABLE if e.forward is build)
    monkeypatch.setattr(entry, "forward", one_more)
    graph = states[1].graph
    graph._lowered._slots.clear()  # bind the units again, keep the layouts
    results = _step_both(states, 3)
    assert asked
    assert results[0] == results[1]
    _assert_same_bits(*states)
    assert _counter("memory_plan_misses").value == misses + 2  # once per slot
    assert _counter("lower_segment_fallbacks").value == fallbacks
    for layout in graph.memory.slots.values():
        assert not layout.valid and layout.off_plan > 0
    _serves_again(states, 4)
