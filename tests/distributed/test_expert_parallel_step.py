"""An expert-parallel rank is an ordinary ``StepState``: ``run_step``
steps it on every rung, with ``sync=lambda: sync_gradients(state,
group)`` as on a data-parallel rank.

Each rank builds a :class:`TransformerLM` whose FFN is an
:class:`ExpertParallelDMoE` over its group and trains its own slice of
every global micro batch.  The contract:

- ``replay`` and ``cc`` train the eager steady step's bits on each rank
  (losses, clipped norms, parameters), ``sim`` = ``mp`` bitwise, and the
  replicated parameters stay bitwise equal across ranks after every step;
- a compiled rung captures once, whatever routing does, with no fallback
  and no buffer off the memory plan after the first step;
- an eager forward of another size between steps (an evaluation) moves
  neither the bound a replay plans for nor the plan;
- a guard that trips on one rank trips on all of them: every rank
  recaptures the micro batch, and the run keeps eager's bits;
- with dropout and the auxiliary losses off, the ranks train the
  single-process dMoE model on the concatenated batch, to a tolerance.
"""

import hashlib

import numpy as np
import pytest

from repro.autograd import lower, no_grad
from repro.core import dMoE
from repro.data.dataset import Batch
from repro.distributed import ExpertParallelDMoE, run_distributed
from repro.nn import TransformerLM
from repro.observability import registry
from repro.resilience import guardrails as gr
from repro.training import Adam, TrainerConfig
from repro.training.lr_schedule import ConstantLR
from repro.training.step import StepState, run_step, sync_gradients

STEPS = 3
LR = 1e-3
#: Below every step's gradient norm, so the clip is active.
CLIP = 0.05
#: Sequences per rank per micro batch, and their length.
ROWS, SEQ = 2, 8
#: Each rank against the single-process model on the concatenated batch
#: after ``STEPS`` Adam steps.  Exact is not promised: the experts'
#: inputs and gradients are summed in another order, and Adam's first
#: steps move a parameter by ≈ ``lr · sign(g)`` whatever ``|g|`` is, so a
#: gradient within rounding of zero may step the other way.  Measured at
#: worlds 2 and 4: losses within 6e-8 relative, norms 2e-8, parameters
#: 6e-8 absolute.
RTOL, PARAM_ATOL = 1e-6, 1e-6

needs_cc = pytest.mark.skipif(
    not lower.cc_available(), reason="no C toolchain in this environment"
)
RUNGS = {
    "eager-steady": ("eager", True),
    "replay": ("replay", True),
    "cc": ("cc", True),
}
_IDS = np.random.default_rng(3).integers(0, 64, size=(2 * STEPS * 4 * ROWS, SEQ + 1))


def _dmoe(i):
    return dMoE(16, 32, num_experts=4, block_size=8, load_balance_coef=0.0, rng=i)


def _state(rung, ffn=_dmoe, rows=ROWS):
    backend, steady = RUNGS[rung]
    model = TransformerLM(64, 16, 2, 2, 16, ffn_factory=ffn, dropout_p=0.0, rng=0)
    config = TrainerConfig(
        global_batch=2 * rows, micro_batch=rows, grad_clip=CLIP,
        steady_state=steady, backend=backend,
    )
    return StepState(model, Adam(model.parameters(), lr=LR), ConstantLR(LR), config)


def _micro_batch(step, m, world, rank=None):
    """Global micro batch ``m`` of ``step`` — ``world`` ranks' rows — or
    rank ``rank``'s slice of it."""
    start = (2 * step + m) * 4 * ROWS
    ids = _IDS[start : start + world * ROWS]
    if rank is not None:
        ids = ids[rank * ROWS : (rank + 1) * ROWS]
    return Batch(ids[:, :-1], ids[:, 1:])


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _ep_rank(rung, poison=None):
    """A rank body: an EP model stepped ``STEPS`` times through
    ``run_step``.  ``poison=(rank, step, m)`` makes that rank's first
    router's logits non-finite for that step's micro batches from ``m``
    on (its weights are infinite while they run, and restored before the
    sync)."""

    def fn(group):
        layers = []

        def ffn(i):
            layers.append(ExpertParallelDMoE(_dmoe(i), group))
            return layers[-1]

        state = _state(rung, ffn)
        params = dict(state.model.named_parameters())
        replicated = [p for p in params.values() if p.shard_group is None]
        reg = registry()
        names = (
            "graph_captures", "graph_fallbacks", "memory_plan_misses",
            "lower_segment_fallbacks",
        )
        start = {k: reg.counter(k).value for k in names}
        losses, norms, received, held = [], [], [], []
        after_first = None
        saved = []

        def batches(step):
            for m in (0, 1):
                if poison == (group.rank, step, m):
                    w = layers[0].router.proj.weight
                    saved.append((w, w.data))
                    w.data = np.full_like(w.data, np.inf)
                yield _micro_batch(step, m, group.world, group.rank)

        def sync():
            while saved:
                w, data = saved.pop()
                w.data = data
            sync_gradients(state, group)

        for step in range(STEPS):
            loss, norm, verdict = run_step(state, batches(step), step, sync=sync)
            assert verdict == gr.OK
            losses.append(loss)
            norms.append(norm)
            received.append([ep.tokens_received for ep in layers])
            held.append(_digest(p.data for p in replicated))
            if step == 0:
                after_first = {k: reg.counter(k).value for k in names}
        end = {k: reg.counter(k).value for k in names}
        return dict(
            losses=losses, norms=norms, received=received, replicated=held,
            params={n: p.data.copy() for n, p in params.items()},
            counts={k: end[k] - start[k] for k in names},
            after_first={k: end[k] - after_first[k] for k in names},
        )

    return fn


def _assert_ranks_equal(got, ref):
    for a, b in zip(got, ref):
        assert a["losses"] == b["losses"] and a["norms"] == b["norms"]
        assert a["replicated"] == b["replicated"]
        for name in a["params"]:
            np.testing.assert_array_equal(a["params"][name], b["params"][name], err_msg=name)


_RUNS = {}


def _run(rung, world, backend, poison=None):
    key = (rung, world, backend, poison)
    if key not in _RUNS:
        _RUNS[key] = run_distributed(
            _ep_rank(rung, poison), world, backend=backend, op_timeout_s=20.0
        ).values
    return _RUNS[key]


@pytest.mark.parametrize("world", [2, 4])
@pytest.mark.parametrize(
    "rung", ["eager-steady", "replay", pytest.param("cc", marks=needs_cc)]
)
def test_every_rung_steps_an_expert_parallel_rank(rung, world):
    sim, mp_ = _run(rung, world, "sim"), _run(rung, world, "mp")
    _assert_ranks_equal(sim, mp_)
    _assert_ranks_equal(sim, _run("eager-steady", world, "sim"))
    # One mean gradient for what is replicated: the replicas stay equal,
    # step by step, while each rank trains its own data and shard.
    assert all(r["replicated"] == sim[0]["replicated"] for r in sim)
    assert all(r["norms"] == sim[0]["norms"] for r in sim)
    assert sim[0]["losses"] != sim[1]["losses"]
    # Routing moved, and a compiled rank captured once per slot
    # signature: no fallback, no buffer off the plan after the first step
    # (counted per process: the mp ranks).
    assert len({tuple(r) for rank in sim for r in rank["received"]}) > 1
    compiled = rung != "eager-steady"
    for rank in mp_:
        assert rank["counts"]["graph_captures"] == int(compiled)
        assert rank["counts"]["graph_fallbacks"] == 0
        assert rank["counts"]["lower_segment_fallbacks"] == 0
        assert rank["after_first"]["memory_plan_misses"] == 0


def _single_process(world):
    state = _state("eager-steady", rows=world * ROWS)
    losses, norms = [], []
    for step in range(STEPS):
        loss, norm, verdict = run_step(
            state, iter([_micro_batch(step, m, world) for m in (0, 1)]), step
        )
        assert verdict == gr.OK
        losses.append(loss)
        norms.append(norm)
    return losses, norms, dict(state.model.named_parameters())


@pytest.mark.parametrize("world", [2, 4])
def test_ranks_train_the_single_process_model(world):
    """The mean of the ranks' losses is the concatenated batch's loss;
    the global norm is the whole model's; replicated parameters match
    the model's, and each shard matches its slice of the experts."""
    ranks = _run("eager-steady", world, "sim")
    losses, norms, params = _single_process(world)
    np.testing.assert_allclose(
        np.mean([r["losses"] for r in ranks], axis=0), losses, rtol=RTOL
    )
    np.testing.assert_allclose(ranks[0]["norms"], norms, rtol=RTOL)
    for name, p in params.items():
        layer, _, leaf = name.rpartition(".experts.")
        for rank, r in enumerate(ranks):
            if layer:  # an expert weight: each rank holds a slice
                per = len(p.data) // world
                want = p.data[rank * per : (rank + 1) * per]
                got = r["params"][f"{layer}.{leaf}"]
            else:
                want, got = p.data, r["params"][name]
            np.testing.assert_allclose(got, want, rtol=0, atol=PARAM_ATOL, err_msg=name)


@needs_cc
def test_a_forward_of_another_size_between_steps_leaves_the_bound_alone():
    """Every rank evaluates one short sequence after each ``cc`` step.
    Each replay's routing record re-sets the bound the dispatch plans
    for — every rank's copies of a training micro batch — instead of
    inheriting the evaluation's smaller one, and no buffer leaves the
    memory plan after the first step."""

    def fn(group):
        layers = []

        def ffn(i):
            layers.append(ExpertParallelDMoE(_dmoe(i), group))
            return layers[-1]

        state = _state("cc", ffn)
        misses = registry().counter("memory_plan_misses")
        seen = []
        for step in range(STEPS):
            run_step(
                state,
                iter([_micro_batch(step, m, group.world, group.rank) for m in (0, 1)]),
                step,
                sync=lambda: sync_gradients(state, group),
            )
            seen.append((layers[0].max_copies, misses.value))
            with no_grad():
                state.model(_micro_batch(step, 0, group.world, group.rank).inputs[:1])
        return seen

    for seen in run_distributed(fn, 2, backend="mp", op_timeout_s=20.0).values:
        assert [bound for bound, _ in seen] == [2 * ROWS * SEQ] * STEPS
        assert seen[-1][1] == seen[0][1]


@needs_cc
@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_a_guard_that_trips_on_one_rank_recaptures_every_rank(backend, first):
    """Rank 1's first router's logits go non-finite in step 1, from
    micro batch ``first`` on: its replayed finite-logits guard trips, and
    every rank — rank 0's guard held — recaptures that micro batch, then
    again at step 2's first, where rank 1's captured fallback branch no
    longer holds.  From micro batch 0 on, that router leaves rank 1 no
    gradient, and its peers' still reach the sync's bucket.  No rank
    waits out a collective, and the run keeps the bits of the eager
    steady run that routes the same way."""
    poison = (1, 1, first)
    got = _run("cc", 2, backend, poison)
    _assert_ranks_equal(got, _run("eager-steady", 2, backend, poison))
    if backend == "mp":  # counters are per process
        _assert_ranks_equal(got, _run("cc", 2, "sim", poison))
        for rank in got:
            assert rank["counts"]["graph_captures"] == 3
            assert rank["counts"]["graph_fallbacks"] == 2
