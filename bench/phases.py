"""Set-up, the timed train and serve phases, and their correctness checks.

Everything here drives the program through its public entry points only
(``Trainer.train_step``, ``ContinuousBatchingScheduler.submit/step``,
``InferenceEngine``) and times it from outside with ``time.perf_counter``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import stats
import workloads
from speed import Speedometer
from workloads import Workload

#: Steps that are set-up: the first captures the graph and compiles it
#: (cold cache), the second is the first replay and records the static
#: buffer plan of every accumulation slot.  Both are lazy one-off work a
#: user pays once per process, so they are timed as ``setup_s``.
SETUP_STEPS = 2
#: Further untimed steps before the timed phase, so it starts in steady
#: state; not set-up, so the set-up-only sample processes skip them.
WARMUP_STEPS = 2
SETUP_REQUESTS = 4
#: cc losses of the first steps must bit-equal a fresh eager trainer's.
REFERENCE_STEPS = 3
SOLO_CHECKS = 4
RATE_CHUNKS = 5
#: Counters that must stay at zero on a clean run: each one means some
#: step silently ran on a different rung or a recovery path fired.
REGISTRY_ZERO = ("graph_fallbacks", "lower_segment_fallbacks", "lower_toolchain_fallbacks")
RESILIENCE_ZERO = ("router_fallback", "collective_retries")


class RungUnavailable(RuntimeError):
    """The C toolchain or NumPy's BLAS symbol is missing: ``backend="cc"``
    would silently run as NumPy replay and the numbers would describe a
    different rung, so the benchmark refuses to produce any."""


def require_native_rung() -> None:
    from repro.autograd import lower
    from repro.autograd.lower import blas

    if not lower.cc_available():
        raise RungUnavailable("no usable C compiler (cc) for backend='cc'")
    if not blas.available():
        raise RungUnavailable("NumPy's bundled cblas_sgemm symbol not found")


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class TrainSetup:
    trainer: object
    dataset: object
    warm_losses: List[float]
    seconds: float


@dataclass
class ServeSetup:
    engine: object
    scheduler: object
    seconds: float


def setup_train(w: Workload, seed: int) -> TrainSetup:
    """Data, model, trainer, then the capture + C compile step and the
    first replay."""
    from repro.observability import registry

    t0 = time.perf_counter()
    trainer = workloads.build_trainer(w, seed)
    lowered_before = registry().counter("graph_lowered").value
    losses = [trainer.train_step(i) for i in range(SETUP_STEPS)]
    if registry().counter("graph_lowered").value == lowered_before:
        trainer.close_dist()
        raise RungUnavailable("the captured step graph was not lowered to C")
    return TrainSetup(trainer, trainer.train_data, losses, time.perf_counter() - t0)


def setup_serve(w: Workload, seed: int, dataset) -> ServeSetup:
    """The scenario's model as initialised, engine (with int8 tables where
    the scenario has them), scheduler and KV cache, then a first batch of
    requests run to completion.

    What is served is *not* the model the train phase just updated: how
    many steps fit into the timed phase depends on the machine, and where
    the router drifts to depends on the seed's data, and serving cost
    follows routing (one seed's trained router collapsed onto fewer
    experts and its ITL read 33% lower).  Serving the fixed initialisation
    keeps the serve phase a function of the request mix alone; it still
    shares the process, arena and caches with the training before it.
    """
    from repro.serving.engine import InferenceEngine
    from repro.serving.scheduler import ContinuousBatchingScheduler

    t0 = time.perf_counter()
    engine = InferenceEngine(workloads.build_model(w), quantize_experts=w.quantize)
    scheduler = ContinuousBatchingScheduler(engine, max_batch_size=w.slots)
    warm = workloads.request_stream(w, seed, 1000, dataset)
    scheduler.run([next(warm) for _ in range(SETUP_REQUESTS)])
    return ServeSetup(engine, scheduler, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# Train phase
# ----------------------------------------------------------------------
@dataclass
class TrainResult:
    step_s: List[float] = field(default_factory=list)
    end_t: List[float] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    dropless_violations: int = 0


def dropless_violations(model, tokens: int) -> int:
    """dMoE layers whose last plan lost or invented a token copy."""
    bad = 0
    for m in model.modules():
        plan = getattr(m, "last_plan", None)
        if plan is not None and int(plan.tokens_per_expert.sum()) != tokens * plan.top_k:
            bad += 1
    return bad


def train_phase(
    w: Workload, trainer, first_step: int, budget_s: float,
    max_steps: Optional[int] = None, speed: Optional[Speedometer] = None,
) -> TrainResult:
    """Step until ``budget_s`` has passed (or ``max_steps`` were taken),
    probing machine speed between steps when a ``speed`` meter is given."""
    out = TrainResult()
    micro_tokens = w.micro_batch * w.seq
    limit = max_steps if max_steps is not None else math.inf
    gc.collect()
    gc.disable()
    try:
        deadline = time.perf_counter() + budget_s
        step = first_step
        while len(out.step_s) < limit:
            if speed is not None:
                speed.tick()
            t0 = time.perf_counter()
            loss = trainer.train_step(step)
            t1 = time.perf_counter()
            out.step_s.append(t1 - t0)
            out.end_t.append(t1)
            out.losses.append(loss)
            out.dropless_violations += dropless_violations(trainer.model, micro_tokens)
            step += 1
            if t1 >= deadline:
                break
        if speed is not None:
            speed.probe()  # every sample has a probe on both sides
    finally:
        gc.enable()
    return out


def reference_losses(w: Workload, seed: int, steps: int = REFERENCE_STEPS) -> List[float]:
    """First losses of a fresh ``backend="eager"`` trainer on the same
    seed (same transport, so ``dp2_int8`` syncs here too)."""
    trainer = workloads.build_trainer(w, seed, backend="eager")
    try:
        return [trainer.train_step(i) for i in range(steps)]
    finally:
        trainer.close_dist()


def train_metrics(w: Workload, r: TrainResult, speed: Optional[Speedometer]) -> Dict[str, float]:
    """Step-time metrics, speed-normalised when a meter is given (raw wall
    time otherwise).  ``train_step_ms_p90`` is computed but not gated: on
    ``dp2_int8`` it is read off the third-slowest of ~20 steps, and ten
    same-code runs on a busy host spread 21%."""
    step_s = speed.normalise(r.step_s, r.end_t) if speed else r.step_s
    ms = [s * 1e3 for s in step_s]
    return {
        "train_tokens_per_s": stats.chunked_rate(
            step_s, [w.tokens_per_step] * len(step_s), RATE_CHUNKS
        ),
        "train_step_ms_p50": stats.percentile(ms, 50),
        "train_step_ms_p90": stats.percentile(ms, 90),
    }


def train_checks(all_losses: List[float], reference: List[float], r: TrainResult,
                 trainer) -> Dict[str, bool]:
    k = min(10, len(all_losses) // 2)
    return {
        "losses_bit_equal_eager": all_losses[: len(reference)] == reference,
        "losses_finite": all(math.isfinite(x) for x in all_losses),
        "loss_decreases": statistics.fmean(all_losses[-k:]) < statistics.fmean(all_losses[:k]),
        "dropless": r.dropless_violations == 0,
        "no_skipped_steps": trainer.skipped_steps == 0,
    }


# ----------------------------------------------------------------------
# Serve phase
# ----------------------------------------------------------------------
@dataclass
class Tracked:
    """One request from ``submit()`` to completion, as the driver saw it."""

    client: int
    request: object
    submit_t: float
    probed_at_submit: float
    first_t: Optional[float] = None
    ttft_s: float = 0.0
    queue_wait_s: float = 0.0
    #: First token sampled inside the timed window (drain-time starts see
    #: an emptying system and are left out of the TTFT sample).
    in_window: bool = False
    tokens: Optional[np.ndarray] = None
    finish_reason: str = ""

    def first_token(self, t_call: float, t_ret: float, timed: bool, probed: float) -> int:
        """Record the step that sampled this request's first token; returns
        1 the first time (the step admitted it, so it held a prefill).
        ``probed`` is the meter's running total: probe time that fell
        between submit and now is not the program's."""
        if self.first_t is not None:
            return 0
        in_probes = probed - self.probed_at_submit
        self.first_t, self.in_window = t_ret, timed
        self.ttft_s = t_ret - self.submit_t - in_probes
        self.queue_wait_s = t_call - self.submit_t - in_probes
        return 1


@dataclass
class ServeResult:
    #: One entry per timed scheduler step: return-to-return gap, tokens
    #: sampled in it (= its batch size), sequences already in flight before
    #: it (each waited exactly this gap for its next token), and whether a
    #: request was admitted (= a prefill ran) in it.
    gap_s: List[float] = field(default_factory=list)
    end_t: List[float] = field(default_factory=list)
    tokens: List[int] = field(default_factory=list)
    carried: List[int] = field(default_factory=list)
    had_prefill: List[bool] = field(default_factory=list)
    completed: List[Tracked] = field(default_factory=list)

    @property
    def prefill_step_share(self) -> float:
        return sum(self.had_prefill) / len(self.had_prefill)


def serve_phase(
    w: Workload, seed: int, scheduler, dataset, budget_s: float,
    max_requests: Optional[int] = None,
    step: Optional[Callable[[], list]] = None,
    speed: Optional[Speedometer] = None,
) -> ServeResult:
    """Closed loop: ``w.clients`` clients, each submitting its next request
    when its previous one completes, driven single-threaded between
    ``scheduler.step()`` calls.  After the budget no new request is sent
    and the in-flight ones drain untimed, so every request sent is
    checked.  ``step`` substitutes a wrapped ``scheduler.step`` (traced
    run).  With a ``speed`` meter, probes run between steps and their time
    is taken out of every gap and TTFT they fell into."""
    step = step or scheduler.step
    probed = (lambda: speed.spent) if speed else (lambda: 0.0)
    streams = [workloads.request_stream(w, seed, c, dataset) for c in range(w.clients)]
    out = ServeResult()
    open_: Dict[int, Tracked] = {}
    limit = max_requests if max_requests is not None else math.inf
    sent = 0

    def submit(client: int) -> None:
        nonlocal sent
        request = next(streams[client])
        open_[scheduler.submit(request)] = Tracked(
            client, request, time.perf_counter(), probed()
        )
        sent += 1

    gc.collect()
    gc.disable()
    try:
        for c in range(min(w.clients, limit)):
            submit(c)
        t_prev = time.perf_counter()
        deadline = t_prev + budget_s
        carried = 0
        timed = True
        probed_prev = probed()
        while open_:
            if speed is not None and timed:
                speed.tick()
            t_call = time.perf_counter()
            finished = step()
            t_ret = time.perf_counter()
            now_probed = probed()
            started = sum(
                open_[seq.request.request_id].first_token(t_call, t_ret, timed, now_probed)
                for seq in scheduler.active.values()
            )
            freed = []
            for res in finished:
                o = open_.pop(res.request_id)
                started += o.first_token(t_call, t_ret, timed, now_probed)
                o.tokens, o.finish_reason = res.tokens, res.finish_reason
                freed.append(o.client)
                out.completed.append(o)
            in_flight = len(scheduler.active)
            if timed:
                out.gap_s.append(t_ret - t_prev - (now_probed - probed_prev))
                out.end_t.append(t_ret)
                out.tokens.append(in_flight + len(finished))
                out.carried.append(carried)
                out.had_prefill.append(started > 0)
                timed = t_ret < deadline and sent < limit
                if not timed and speed is not None:
                    speed.probe()  # every timed sample has a probe on both sides
            if timed:
                for client in freed:
                    if sent < limit:
                        submit(client)
            carried, t_prev, probed_prev = in_flight, t_ret, now_probed
    finally:
        gc.enable()
    return out


def serve_metrics(r: ServeResult, speed: Optional[Speedometer]) -> Dict[str, float]:
    """Serving metrics, speed-normalised when a meter is given.
    ``serve_ttft_ms_p90`` is computed but not gated: it sits on a mode
    boundary (one or two prefills in the admitting step) and rests on
    100-500 requests, and its A/A spread was 7-19%."""
    started = [c for c in r.completed if c.in_window]
    ttft_s, gap_s = [c.ttft_s for c in started], r.gap_s
    if speed:
        ttft_s = speed.normalise(ttft_s, [c.first_t for c in started])
        gap_s = speed.normalise(gap_s, r.end_t)
    ttft_ms = [t * 1e3 for t in ttft_s]
    gap_ms = [g * 1e3 for g in gap_s]
    return {
        "serve_tokens_per_s": stats.chunked_rate(gap_s, r.tokens, RATE_CHUNKS),
        "serve_ttft_ms_p50": stats.percentile(ttft_ms, 50),
        "serve_ttft_ms_p90": stats.percentile(ttft_ms, 90),
        "serve_itl_ms_p50": stats.weighted_percentile(gap_ms, r.carried, 50),
        "serve_itl_ms_p90": stats.weighted_percentile(gap_ms, r.carried, 90),
    }


def request_failures(engine, r: ServeResult) -> int:
    """Requests whose output is wrong: bad length / finish reason / prompt
    echo on any of them, or tokens differing from a solo
    ``engine.generate`` on ``SOLO_CHECKS`` evenly spaced ones."""
    failed = set()
    for i, c in enumerate(r.completed):
        req = c.request
        n_prompt = len(req.prompt)
        if (
            c.finish_reason != "length"
            or len(c.tokens) != n_prompt + req.max_new_tokens
            or not np.array_equal(c.tokens[:n_prompt], req.prompt)
        ):
            failed.add(i)
    n = len(r.completed)
    for i in sorted({j * (n - 1) // max(SOLO_CHECKS - 1, 1) for j in range(min(SOLO_CHECKS, n))}):
        req = r.completed[i].request
        solo = engine.generate(
            req.prompt, req.max_new_tokens, temperature=req.temperature, rng=req.seed
        )[0]
        if not np.array_equal(solo, r.completed[i].tokens):
            failed.add(i)
    return len(failed)


def itl_mode_ok(w: Workload, r: ServeResult) -> bool:
    share = r.prefill_step_share
    return share < 0.05 if w.itl_mode == "decode" else share > 0.20


def counters_zero() -> Dict[str, int]:
    """Current values of the must-stay-zero fallback/retry counters."""
    from repro.observability import registry
    from repro.resilience import counters

    out = {name: registry().counter(name).value for name in REGISTRY_ZERO}
    out.update({name: counters.get(name) for name in RESILIENCE_ZERO})
    return out
