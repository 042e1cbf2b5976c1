"""Arena generations and buffer scripts under moving routing, as a
stateful property.

A compiled step serves its buffers from one :class:`BufferScript` per
accumulation slot, and its units hold the arrays they were bound to.
Routing moves the tokens-per-expert counts from one micro batch to the
next; the dMoE's dispatch plan is built (on ``cc``, by the kernel
table's ``dispatch`` entry) into buffers bound at capacity.  The rules
move what the compiled state stands on — the batches, hence the
routing; every token onto one expert (three of four empty); the pool;
the scripts; the lowered plan — and the compiled state must keep the
bits of an eager state stepped alongside, with no guard fallback.  And
a replay whose routing repeats the layout its slot last replayed asks
for every buffer in the shape the script recorded: no slow-path
request and no recapture.  (The units reading the dispatch plan still
bind again: each call wraps its capacity buffers in a fresh plan and
topology.)
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.autograd import arena, get_arena, lower
from repro.autograd.lower import toolchain
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


def _state(backend):
    model = TransformerLM(
        64, 16, 2, 2, 16, dropout_p=0.0, rng=0,
        ffn_factory=lambda i: dMoE(16, 32, num_experts=4, block_size=8, rng=i),
    )
    config = TrainerConfig(
        global_batch=2 * MICRO, micro_batch=MICRO, grad_clip=0.05, backend=backend,
    )
    return StepState(model, Adam(model.parameters(), lr=1e-3), ConstantLR(1e-3), config)


def _batches(first):
    n = len(_TRAIN) - MICRO
    return iter([_TRAIN.batch(np.arange(i, i + MICRO) % n) for i in (first, first + 7)])


class _Counting:
    """Calls of ``BufferScript._serve_slow``, the path a request whose
    shape moved takes."""

    def __init__(self):
        self.calls = 0
        self.orig = arena.BufferScript._serve_slow
        counting = self

        def serve_slow(script, *args):
            counting.calls += 1
            return counting.orig(script, *args)

        arena.BufferScript._serve_slow = serve_slow

    def restore(self):
        arena.BufferScript._serve_slow = self.orig


class BufferPlanMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.states = [_state("eager"), _state("cc")]
        self.results = [None, None]
        self.step = 0
        self.fallbacks = registry().counter("lower_segment_fallbacks")
        self.fallbacks_at_start = self.fallbacks.value
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
        slot replays the layout it replayed last, so nothing is served
        on the slow path and nothing is recaptured."""
        captures = registry().counter("graph_captures")
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
    def force_a_script_rerecord(self):
        graph = self.states[1].graph
        for script in graph._scripts.values() if graph is not None else ():
            script.dead = True
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
        eager, compiled = self.states
        for a, b in zip(eager.optimizer.params, compiled.optimizer.params):
            np.testing.assert_array_equal(a.data, b.data)
        for name in ("_m", "_v"):
            for a, b in zip(getattr(eager.optimizer, name), getattr(compiled.optimizer, name)):
                np.testing.assert_array_equal(a, b)

    @invariant()
    def no_guard_fell_back(self):
        assert self.fallbacks.value == self.fallbacks_at_start


BufferPlanMachine.TestCase.settings = settings(
    max_examples=6, stateful_step_count=6, deadline=None, derandomize=True
)
test_buffer_plans_hold_the_eager_bits_as_routing_moves = BufferPlanMachine.TestCase
