"""Per-layer probes and the traced run.

Every number here is taken from ``bench/`` by timing calls into a layer's
public functions; the program itself is not instrumented.
"""

from __future__ import annotations

import collections
import math
import statistics
import time
from typing import Callable, Dict, List

import numpy as np

import phases
import stats
import workloads
from spans import Recorder

CALIB_N = 1024
CALIB_COPY_BYTES = 64 << 20
#: A run whose machine speed moved by more than this between its start
#: and its end is flagged ``noisy`` (and still reported).
DRIFT_LIMIT = 0.10


def best_of(fn: Callable[[], object], reps: int) -> float:
    """Shortest wall time of ``reps`` calls, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate(reps: int = 5) -> Dict[str, float]:
    """This machine's ceilings right now: single-thread sgemm rate and copy
    bandwidth (bytes copied per second).  Traced runs only: the 128 MB of
    copy buffers would be most of a small workload's ``peak_rss_mb``."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((CALIB_N, CALIB_N), dtype=np.float32)
    b = rng.standard_normal((CALIB_N, CALIB_N), dtype=np.float32)
    out = np.empty_like(a)
    src = np.ones(CALIB_COPY_BYTES // 4, dtype=np.float32)
    dst = np.empty_like(src)
    return {
        "sgemm_gflops": 2.0 * CALIB_N**3 / best_of(lambda: np.matmul(a, b, out=out), reps) / 1e9,
        "memcpy_gb_s": CALIB_COPY_BYTES / best_of(lambda: np.copyto(dst, src), reps) / 1e9,
    }


def calib_summary(start: Dict[str, float], end: Dict[str, float]) -> Dict[str, object]:
    drift = end["sgemm_gflops"] / start["sgemm_gflops"]
    return {**start, "drift": drift, "noisy": abs(drift - 1.0) > DRIFT_LIMIT}


# ----------------------------------------------------------------------
# Small timing helpers
# ----------------------------------------------------------------------
def timed(fn: Callable[[], object]):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def p50_ms(seconds) -> float:
    return stats.percentile([s * 1e3 for s in seconds], 50)


def median_of(acc: Dict[str, list]) -> Dict[str, float]:
    return {name: statistics.median(values) for name, values in acc.items()}


# ----------------------------------------------------------------------
# Training rungs
# ----------------------------------------------------------------------
#: Steps a rung takes before it is timed: the set-up steps and one warm-up.
RUNG_FIRST_STEP = phases.SETUP_STEPS + 1


def rung_step_ms(w, seed: int, backend: str, dp_world, budget_s: float, max_steps: int):
    """p50 of ``Trainer.train_step`` on a fresh trainer of the given rung
    and world, after the set-up steps and one warm-up step.  Returns
    ``(p50_ms, trainer, TrainResult)``; the caller closes the trainer."""
    trainer = workloads.build_trainer(w, seed, backend=backend, dp_world=dp_world)
    for i in range(RUNG_FIRST_STEP):
        trainer.train_step(i)
    r = phases.train_phase(w, trainer, RUNG_FIRST_STEP, budget_s, max_steps=max_steps)
    return p50_ms(r.step_s), trainer, r


# ----------------------------------------------------------------------
# Hand-rolled eager step + probes fed with its live tensors
# ----------------------------------------------------------------------
class EagerStepper:
    """One optimizer step through public calls only, with a span around
    each layer boundary: ``data.batch`` -> ``nn.forward`` ->
    ``autograd.backward`` -> ``training.clip`` -> ``training.optimizer``.

    The first dMoE layer and the first attention layer get an
    instance-level ``forward`` wrapper that keeps a reference to their
    input, so the probes can be fed the step's live activations.
    """

    def __init__(self, w, seed: int, rec: Recorder) -> None:
        from repro.autograd import lower
        from repro.training import Adam

        self.w, self.rec = w, rec
        self.dataset = workloads.build_dataset(w, seed)
        self.model = workloads.build_model(w)
        self.opt = Adam(self.model.parameters(), lr=workloads.LEARNING_RATE)
        lower.attach_adam(self.opt)  # the optimizer + clip the cc rung runs
        self.params = list(self.opt.params)
        self.rng = np.random.default_rng(seed)
        self.moe = self.model.blocks[0].ffn
        self.attn = self.model.blocks[0].attn
        self.live: Dict[str, np.ndarray] = {}
        self._tap(self.moe, "moe_x")
        self._tap(self.attn, "attn_x")
        self.steps = 0
        self.losses: List[float] = []
        self.tape_nodes: List[int] = []
        self.nodes_fused: List[int] = []

    def _tap(self, module, key: str) -> None:
        inner = module.forward

        def forward(x, *args, **kwargs):
            self.live[key] = x.data
            return inner(x, *args, **kwargs)

        module.forward = forward

    def step(self) -> float:
        from repro.autograd import get_arena, steady_state
        from repro.autograd import stats as ag_stats
        from repro.training.optim import clip_grad_norm

        w, rec = self.w, self.rec
        acc = w.global_batch // w.micro_batch
        ag_stats.reset()
        total = 0.0
        t0 = time.perf_counter()
        with steady_state():
            get_arena().next_generation()
            with rec.span("train.step", op=f"train-{self.steps}"):
                with rec.span("training.zero_grad"):
                    self.opt.zero_grad()
                for _ in range(acc):
                    with rec.span("data.batch"):
                        idx = self.rng.integers(0, len(self.dataset), size=w.micro_batch)
                        batch = self.dataset.batch(idx)
                    with rec.span("nn.forward"):
                        loss, lm, _ = self.model.loss(batch.inputs, batch.targets)
                        scaled = loss * (1.0 / acc)
                    with rec.span("autograd.backward"):
                        scaled.backward()
                    total += float(lm.data)
                with rec.span("training.clip"):
                    clip_grad_norm(self.params, 1.0)
                with rec.span("training.optimizer"):
                    self.opt.step()
        wall = time.perf_counter() - t0
        self.steps += 1
        self.losses.append(total / acc)
        self.tape_nodes.append(ag_stats.tape_nodes)
        self.nodes_fused.append(ag_stats.nodes_fused())
        return wall


#: The six products one dMoE layer issues per micro batch (paper section 5.1),
#: with the batched-dense product of the same shape for equal-size experts.
SPARSE_PRODUCTS = ("fwd_sdd", "fwd_dsd", "bwd_sdd", "bwd_dstd", "bwd_dsd", "bwd_dds")


def probe_sparse(moe, xp: np.ndarray, topo, acc: Dict[str, list], table: Dict[str, list]) -> None:
    """Each of the six products through ``repro.sparse.sdd/dsd/dds`` on the
    live topology (FLOPs from ``sparse.stats``), and ``np.matmul`` batched
    over equal-size experts at the same FLOPs: the measured analogue of
    the paper's Figure 9 (block-sparse = 98.6% of cuBLAS batched)."""
    from repro.sparse import dds, dsd, sdd
    from repro.sparse import stats as sparse_stats

    e = moe.experts
    w1, w2 = e.w1_flat().data, e.w2_flat().data
    h = sdd(xp, w1, topo)
    dy = dsd(h, w2)
    dh = sdd(dy, w2, topo, trans_b=True)
    calls = {
        "fwd_sdd": lambda: sdd(xp, w1, topo),
        "fwd_dsd": lambda: dsd(h, w2),
        "bwd_sdd": lambda: sdd(dy, w2, topo, trans_b=True),
        "bwd_dstd": lambda: dsd(h, dy, trans_s=True),
        "bwd_dsd": lambda: dsd(dh, w1, trans_b=True),
        "bwd_dds": lambda: dds(xp, dh, trans_a=True),
    }
    n_e, hid, ffn = e.num_experts, e.hidden_size, e.ffn_hidden_size
    rows = max(xp.shape[0] // n_e, 1)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n_e, rows, hid), dtype=np.float32)
    g = rng.standard_normal((n_e, rows, ffn), dtype=np.float32)
    w1e, w2e = e.w1.data, e.w2.data
    dense = {
        "fwd_sdd": lambda: np.matmul(a, w1e),
        "fwd_dsd": lambda: np.matmul(g, w2e),
        "bwd_sdd": lambda: np.matmul(a, w2e.transpose(0, 2, 1)),
        "bwd_dstd": lambda: np.matmul(g.transpose(0, 2, 1), a),
        "bwd_dsd": lambda: np.matmul(g, w1e.transpose(0, 2, 1)),
        "bwd_dds": lambda: np.matmul(a.transpose(0, 2, 1), g),
    }
    dense_flops = 2.0 * n_e * rows * hid * ffn
    reps = 3
    sparse_s = dense_s = sparse_f = 0.0
    for name in SPARSE_PRODUCTS:
        before = sparse_stats.total_flops()
        t_sparse = best_of(calls[name], reps)
        flops = (sparse_stats.total_flops() - before) / reps
        t_dense = best_of(dense[name], reps)
        acc[f"sparse.{name}_gflops"].append(flops / t_sparse / 1e9)
        table[name].append((flops / t_sparse / 1e9, dense_flops / t_dense / 1e9))
        sparse_s, dense_s, sparse_f = sparse_s + t_sparse, dense_s + t_dense, sparse_f + flops
    dense_rate = 6 * dense_flops / dense_s
    acc["sparse.batched_dense_gflops"].append(dense_rate / 1e9)
    acc["sparse.vs_batched_dense"].append((sparse_f / sparse_s) / dense_rate)
    acc["sparse.six_products_ms"].append(sparse_s * 1e3)


def probe_step(st: EagerStepper, acc: Dict[str, list], table: Dict[str, list]) -> int:
    """Layer probes fed with the step's live activation, plan and topology.
    Returns the number of dropless-invariant violations seen."""
    from repro.autograd import sum_
    from repro.autograd.tensor import Tensor
    from repro.core.topology_builder import clear_topology_cache, make_topology
    from repro.moe.permute import make_padded_plan, padded_gather, padded_scatter

    moe = st.moe
    x = np.array(st.live["moe_x"], copy=True).reshape(-1, moe.hidden_size)
    xt = Tensor(x)
    routing, t = timed(lambda: moe.router(xt))
    acc["moe.route_ms"].append(t * 1e3)
    plan, t = timed(lambda: make_padded_plan(routing.expert_indices, moe.num_experts, moe.block_size))
    acc["moe.plan_ms"].append(t * 1e3)
    # The step itself already built (and cached) this layout; time the build.
    clear_topology_cache()
    topo, t = timed(lambda: make_topology(plan, moe.ffn_hidden_size))
    acc["core.topology_ms"].append(t * 1e3)
    xp, t = timed(lambda: padded_gather(xt, plan))
    acc["moe.gather_ms"].append(t * 1e3)
    y = Tensor(np.zeros((plan.total_padded, moe.hidden_size), dtype=x.dtype))
    _, t = timed(lambda: padded_scatter(y, plan, routing.expert_weights))
    acc["moe.scatter_ms"].append(t * 1e3)
    copies = x.shape[0] * plan.top_k
    acc["moe.padding_ratio"].append(plan.total_padded / copies)
    per_expert = [float(n) for n in plan.tokens_per_expert]
    acc["moe.tokens_per_expert_cv"].append(
        statistics.pstdev(per_expert) / statistics.fmean(per_expert))
    probe_sparse(moe, xp.data, topo, acc, table)

    _, t = timed(lambda: moe(xt))
    acc["core.dmoe_fwd_ms"].append(t * 1e3)

    def fwd_bwd(module, inp):
        out = module(inp)
        out, aux = out if isinstance(out, tuple) else (out, None)
        total = sum_(out)
        (total if aux is None else total + aux).backward()

    xg = Tensor(x.copy(), requires_grad=True)
    _, t = timed(lambda: fwd_bwd(moe, xg))
    acc["core.dmoe_fwdbwd_ms"].append(t * 1e3)
    xa = Tensor(np.array(st.live["attn_x"], copy=True), requires_grad=True)
    _, t = timed(lambda: fwd_bwd(st.attn, xa))
    acc["nn.attention_fwdbwd_ms"].append(t * 1e3)
    return int(int(plan.tokens_per_expert.sum()) != copies)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class TracedServing:
    """Bench-side wrappers on one engine/scheduler pair: a span around
    every ``scheduler.step`` with ``serving.prefill`` / ``serving.decode``
    children around the engine calls it makes."""

    def __init__(self, engine, scheduler, rec: Recorder) -> None:
        self.engine, self.scheduler, self.rec = engine, scheduler, rec
        self.prefill_tokens: List[int] = []
        self.kv_filled: List[int] = []
        self._steps = 0
        inner_prefill, inner_decode = engine.prefill, engine.decode_step

        def prefill(ids, cache, slots=None):
            with rec.span("serving.prefill"):
                out = inner_prefill(ids, cache, slots=slots)
            self.prefill_tokens.append(int(np.asarray(ids).size))
            return out

        def decode_step(ids_t, cache, slots=None):
            with rec.span("serving.decode"):
                return inner_decode(ids_t, cache, slots=slots)

        engine.prefill, engine.decode_step = prefill, decode_step

    def step(self):
        with self.rec.span("serving.step", op=f"serve-{self._steps}"):
            finished = self.scheduler.step()
        self._steps += 1
        self.kv_filled.append(int(self.scheduler.cache.lengths.sum()))
        return finished

    def unwrap(self) -> None:
        del self.engine.prefill, self.engine.decode_step


def decode_step_ms(engine, dataset, batch: int, reps: int) -> float:
    """p50 of ``engine.decode_step`` for ``batch`` sequences, each holding
    a 16-token prompt (grows by one token per call)."""
    cache = engine.new_cache(batch)
    try:
        engine.prefill(dataset.inputs[:batch, :16], cache)
        ids = dataset.inputs[:batch, 16].copy()
        times = [timed(lambda: engine.decode_step(ids, cache))[1] for _ in range(reps)]
    finally:
        cache.release()
    return p50_ms(times)


def probe_serving(w, engine, dataset, x_live: np.ndarray, reps: int) -> Dict[str, float]:
    from repro.autograd.tensor import Tensor, inference_mode
    from repro.serving.quantize import attach_quantized_experts, detach_quantized_experts
    from repro.sparse.dispatch import grouped_rows_gemm

    out = {
        "serving.decode_step_ms_b1": decode_step_ms(engine, dataset, 1, reps),
        "serving.decode_step_ms_b4": decode_step_ms(engine, dataset, 4, reps),
    }
    # The other expert-weight format on the same model, then back.
    if w.quantize:
        detach_quantized_experts(engine.model)
        fp32 = decode_step_ms(engine, dataset, 4, reps)
        attach_quantized_experts(engine.model)
        int8 = out["serving.decode_step_ms_b4"]
    else:
        attach_quantized_experts(engine.model)
        int8 = decode_step_ms(engine, dataset, 4, reps)
        detach_quantized_experts(engine.model)
        fp32 = out["serving.decode_step_ms_b4"]
    out["serving.int8_vs_fp32_decode"] = int8 / fp32

    moe = engine.model.blocks[0].ffn
    with inference_mode():
        for n in (4, 64):
            xt = Tensor(x_live[:n])
            out[f"moe.inference_fwd_ms_t{n}"] = p50_ms(
                [timed(lambda: moe(xt))[1] for _ in range(reps)]
            )
    # Decode-size expert GEMM: 4 tokens spread over the first 4 experts.
    e = moe.experts
    offsets = np.minimum(np.arange(e.num_experts + 1), 4)
    x4 = x_live[:4]
    out["sparse.rows_gemm_ms"] = p50_ms(
        [timed(lambda: grouped_rows_gemm(x4, offsets, e.w1.data, e.b1.data, stable=True))[1]
         for _ in range(reps)]
    )
    return out


# ----------------------------------------------------------------------
# Distributed and checkpoint
# ----------------------------------------------------------------------
SHM_DIR = "/dev/shm"
SHM_PREFIX = "rpd"  # repro.distributed.shm session prefix


def shm_segments() -> set:
    import os

    if not os.path.isdir(SHM_DIR):
        return set()
    return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}


def allreduce_ms(n_floats: int, reps: int) -> float:
    """Best ``all_reduce`` of a gradient-sized buffer across two forked
    ranks (``run_distributed(..., world=2, backend="mp")``)."""
    from repro.distributed import run_distributed

    def body(group):
        buf = np.ones(n_floats, dtype=np.float32)
        group.all_reduce(buf)
        return best_of(lambda: group.all_reduce(buf), reps)

    result = run_distributed(body, world=2, backend="mp", timeout_s=120.0)
    return max(result.values) * 1e3


def dir_bytes(path: str) -> int:
    import os

    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path) for name in names
    )


def probe_checkpoint(trainer, step: int, tmp: str) -> Dict[str, float]:
    import os

    from repro.checkpoint import AsyncCheckpointWriter, build_state, load_checkpoint

    sync_path = os.path.join(tmp, "ckpt-sync")
    _, t_sync = timed(lambda: trainer.save(sync_path, step=step))

    def submit(writer):
        # What the step boundary pays under async_checkpoint=True: the
        # snapshot copy and the hand-off; serialize + fsync run behind it.
        state = build_state(trainer.model, trainer.optimizer, step=step, copy=True)
        writer.submit(os.path.join(tmp, "ckpt-async"), state, step=step)

    with AsyncCheckpointWriter() as writer:
        _, t_stall = timed(lambda: submit(writer))
        writer.drain()
    _, t_load = timed(lambda: load_checkpoint(sync_path, trainer.model, trainer.optimizer))
    return {
        "checkpoint.save_sync_ms": t_sync * 1e3,
        "checkpoint.async_stall_ms": t_stall * 1e3,
        "checkpoint.load_ms": t_load * 1e3,
        "checkpoint.bytes": float(dir_bytes(sync_path)),
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
PROBED_STEPS = 3
RUNG_MAX_STEPS = 20
PAPER_FIG9 = 0.986  # block-sparse throughput relative to cuBLAS batched matmul
LOWER_COUNTERS = (
    "graph_captures", "graph_fallbacks", "lower_compile_ms", "lower_segment_fallbacks")


class Sizes:
    """How much a traced run does: a third of the workload's phase length
    for the spanned phases, an eighth of ``--seconds`` (and at most 20
    steps) per training rung; fixed small counts at smoke size."""

    def __init__(self, seconds: float, smoke: bool) -> None:
        self.smoke = smoke
        self.phase_s = float("inf") if smoke else seconds / 6.0
        self.rung_s = float("inf") if smoke else seconds / 8.0
        self.rung_steps = 3 if smoke else RUNG_MAX_STEPS
        self.requests = 12 if smoke else None
        self.probed_steps = 1 if smoke else PROBED_STEPS
        self.min_eager_steps = 4 if smoke else 8
        self.reps = 5 if smoke else 20


def trace_cc_rung(w, seed: int, rec: Recorder, size: Sizes, m: Dict[str, float]):
    """Set up the trainer the end-to-end run uses, step it, read what the
    capture + lowering did.  Returns ``(TrainSetup, TrainResult)``."""
    from repro.observability import registry

    reg = registry()
    before = {n: reg.counter(n).value for n in LOWER_COUNTERS}
    with rec.span("bench.setup"):
        phases.require_native_rung()
        ts = phases.setup_train(w, seed)
    trainer = ts.trainer
    trainer.train_step(phases.SETUP_STEPS)
    cc = phases.train_phase(w, trainer, RUNG_FIRST_STEP, size.rung_s,
                            max_steps=size.rung_steps)
    delta = {n: float(reg.counter(n).value - before[n]) for n in LOWER_COUNTERS}
    m["training.step_cc_ms"] = p50_ms(cc.step_s)
    m["training.step_cc_ms_p90"] = stats.percentile([s * 1e3 for s in cc.step_s], 90)
    m["training.steps_skipped"] = float(trainer.skipped_steps)
    m["autograd.graph_captures"] = delta["graph_captures"]
    m["autograd.graph_fallbacks"] = delta["graph_fallbacks"]
    m["autograd.lower.compile_ms"] = delta["lower_compile_ms"]
    m["autograd.lower.segment_fallbacks"] = delta["lower_segment_fallbacks"]
    # No public accessor yet; benchmarks/test_step_lower.py and repro.cli read it the same way.
    m["autograd.lower.coverage"] = float(trainer.step_graph._lowered.coverage)
    trainer.close_dist()
    return ts, cc


def trace_serving(w, seed: int, dataset, rec: Recorder, size: Sizes, m: Dict[str, float]):
    """The serve phase with spans around the engine.  Returns
    ``(ServeSetup, ServeResult, shares)``; the caller closes the scheduler."""
    with rec.span("bench.setup"):
        ss = phases.setup_serve(w, seed, dataset)
    traced = TracedServing(ss.engine, ss.scheduler, rec)
    serve = phases.serve_phase(
        w, seed, ss.scheduler, dataset, size.phase_s,
        max_requests=size.requests, step=traced.step,
    )
    traced.unwrap()
    started = [c for c in serve.completed if c.in_window]
    prefill_s = sum(rec.durations("serving.prefill"))
    overhead_s = rec.self_times("serving.step")
    m["serving.kv_reserved_mb"] = ss.scheduler.cache.nbytes / 2**20
    m["serving.kv_utilization"] = statistics.fmean(traced.kv_filled) / (
        w.slots * ss.scheduler.max_seq_len)
    m["serving.prefill_ms_per_tok"] = prefill_s * 1e3 / sum(traced.prefill_tokens)
    m["serving.scheduler_overhead_ms"] = p50_ms(overhead_s)
    m["serving.batch_size_mean"] = statistics.fmean(serve.tokens)
    m["serving.prefill_step_share"] = serve.prefill_step_share
    m["serving.queue_wait_ms_p50"] = p50_ms([c.queue_wait_s for c in started])
    m["serving.ttft_ms_p90"] = stats.percentile([c.ttft_s * 1e3 for c in started], 90)
    m["serving.window_slides"] = float(len(traced.prefill_tokens) - len(serve.completed))
    m["serving.solo_mismatches"] = float(phases.request_failures(ss.engine, serve))
    m["trace.coverage_serve"] = rec.coverage("serving.step")
    wall = sum(rec.durations("serving.step"))
    shares = {
        "serving_prefill": prefill_s / wall,
        "serving_decode": sum(rec.durations("serving.decode")) / wall,
        "scheduler_overhead": sum(overhead_s) / wall,
    }
    return ss, serve, shares


def trace_eager_steps(st: EagerStepper, rec: Recorder, size: Sizes, m: Dict[str, float]) -> None:
    """Eager steps with spans on and off alternately (tracing overhead),
    the counters they move, and one step under ``tracemalloc``."""
    import tracemalloc

    from repro.autograd import get_arena
    from repro.sparse import stats as sparse_stats

    sparse_stats.reset()  # the probes cleared the topology cache; count from here
    arena0 = get_arena().stats()
    walls = {True: [], False: []}
    deadline = time.perf_counter() + (0.0 if size.smoke else size.phase_s)
    done = 0
    while done < size.min_eager_steps or time.perf_counter() < deadline:
        rec.enabled = done % 2 == 0
        walls[rec.enabled].append(st.step())
        done += 1
    rec.enabled = False
    arena1 = get_arena().stats()
    hits = arena1["hits"] - arena0["hits"]
    m["autograd.arena_hit_rate"] = hits / max(hits + arena1["misses"] - arena0["misses"], 1)
    m["core.topology_cache_hit_rate"] = sparse_stats.cache_hit_rate()
    m["sparse.grouped_fraction"] = sparse_stats.grouped_fraction()
    tracemalloc.start()
    st.step()
    m["autograd.step_alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    rec.enabled = True
    m["data.batch_ms"] = p50_ms(rec.durations("data.batch"))
    m["nn.forward_ms"] = p50_ms(rec.durations("nn.forward"))
    m["autograd.backward_ms"] = p50_ms(rec.durations("autograd.backward"))
    m["training.clip_ms"] = p50_ms(rec.durations("training.clip"))
    m["training.optimizer_ms"] = p50_ms(rec.durations("training.optimizer"))
    m["autograd.tape_nodes"] = float(statistics.median(st.tape_nodes))
    m["autograd.nodes_fused"] = float(statistics.median(st.nodes_fused))
    m["trace.coverage_train"] = rec.coverage("train.step")
    m["trace.overhead_frac"] = (
        stats.percentile(walls[True], 50) / stats.percentile(walls[False], 50) - 1.0)


def step_shares(w, m: Dict[str, float]) -> Dict[str, float]:
    """Shares of the ``cc`` optimizer step for the stress-separation table.

    Kernel time = the six sparse products as timed on the live topology,
    the dense GEMMs (attention projections, scores, LM head; forward + two
    backward products) costed at the measured batched-dense rate, the
    native optimizer + clip, and the exposed gradient sync; what is left
    of the step is dispatch.
    """
    micro = w.global_batch // w.micro_batch
    per_step = w.layers * micro
    dense_flops = 6.0 * w.micro_batch * w.seq * micro * (
        w.layers * (4 * w.hidden**2 + 2 * w.seq * w.hidden) + w.hidden * workloads.VOCAB)
    dense_ms = dense_flops / m["sparse.batched_dense_gflops"] / 1e6
    step_ms = m["training.step_cc_ms"]
    sparse_ms = m["sparse.six_products_ms"] * per_step
    optim_ms = m["training.clip_ms"] + m["training.optimizer_ms"]
    plan_ms = per_step * sum(m[k] for k in (
        "moe.route_ms", "moe.plan_ms", "core.topology_ms", "moe.gather_ms", "moe.scatter_ms"))
    sync_ms = m["distributed.grad_sync_ms"] if w.dp_world else 0.0
    return {
        "sparse_kernels": sparse_ms / step_ms,
        # The same products costed at the batched-dense rate: what is left
        # of them once their own call overhead is taken out.
        "sparse_arithmetic": m["sparse.vs_batched_dense"] * sparse_ms / step_ms,
        "optimizer": optim_ms / step_ms,
        "moe_core_planning": plan_ms / step_ms,
        "autograd_dispatch": max(step_ms - sparse_ms - dense_ms - optim_ms - sync_ms, 0.0) / step_ms,
        "distributed_sync": sync_ms / step_ms,
    }


def fig9_notes(w, m: Dict[str, float], table: Dict[str, list], calib: dict) -> List[str]:
    notes = [
        f"measured Fig 9 (paper: block-sparse = {PAPER_FIG9:.1%} of batched dense), "
        f"block {w.block}: product  sparse GFLOP/s  batched-dense GFLOP/s  ratio",
    ]
    for name in SPARSE_PRODUCTS:
        sp = statistics.median(r[0] for r in table[name])
        de = statistics.median(r[1] for r in table[name])
        notes.append(f"    {name:<9} {sp:8.1f} {de:8.1f} {sp / de:7.1%}")
    notes.append(f"    all six  {m['sparse.vs_batched_dense']:.1%} "
                 f"(of calib sgemm: {m['sparse.batched_dense_gflops'] / calib['sgemm_gflops']:.1%} dense)")
    return notes


def run_traced(w, seed: int, seconds: float, smoke: bool, tmp: str, trace_out=None) -> dict:
    """One third of the workload's length with bench-side spans, plus the
    layer probes.  Produces every per-layer metric; end-to-end numbers
    never come from here.  One trainer is alive at a time."""
    import gc
    import os

    from repro.resilience import counters

    rec = Recorder()
    size = Sizes(seconds, smoke)
    m: Dict[str, float] = {}
    shm_before = shm_segments()
    calib_start = calibrate()

    ts, cc = trace_cc_rung(w, seed, rec, size, m)
    first = RUNG_FIRST_STEP
    n_params = sum(p.data.size for p in ts.trainer.model.parameters())
    steps_by_world = {w.dp_world: (m["training.step_cc_ms"], ts.trainer.comm_log,
                                   first + len(cc.step_s))}
    train_steps = first + len(cc.step_s)
    losses = ts.warm_losses + cc.losses
    m.update(probe_checkpoint(ts.trainer, train_steps, tmp))

    ss, serve, shares = trace_serving(w, seed, ts.dataset, rec, size, m)

    # Probed eager steps come before the serving probes: those are fed a
    # live activation too.
    st = EagerStepper(w, seed, rec)
    acc: Dict[str, list] = collections.defaultdict(list)
    table: Dict[str, list] = {name: [] for name in SPARSE_PRODUCTS}
    dropless_bad = cc.dropless_violations
    for _ in range(size.probed_steps):
        st.step()
        dropless_bad += probe_step(st, acc, table)
    m.update(median_of(acc))
    x_live = np.array(st.live["moe_x"], copy=True).reshape(-1, w.hidden)
    m.update(probe_serving(w, ss.engine, ts.dataset, x_live, size.reps))
    ss.scheduler.close()
    del ts, ss
    gc.collect()

    # The other rungs, and the cc rung at the other world size.
    other_world = 0 if w.dp_world else 2
    for backend, world in (("replay", None), ("eager", None), ("cc", other_world)):
        ms, trainer, r = rung_step_ms(w, seed, backend, world, size.rung_s, size.rung_steps)
        if backend == "cc":
            steps_by_world[other_world] = (ms, trainer.comm_log, first + len(r.step_s))
        else:
            m[f"training.step_{backend}_ms"] = ms
        train_steps += first + len(r.step_s)
        losses += r.losses
        trainer.close_dist()
        del trainer
        gc.collect()
    (dp1_ms, _, _), (dp2_ms, comm, dp_steps) = steps_by_world[0], steps_by_world[2]
    m["distributed.grad_sync_ms"] = dp2_ms - dp1_ms
    m["distributed.allreduce_bytes_per_step"] = comm.total_bytes_per_rank("all_reduce") / dp_steps
    m["distributed.allreduce_calls_per_step"] = comm.counts().get("all_reduce", 0) / dp_steps
    m["distributed.allreduce_ms"] = allreduce_ms(n_params, 2 if smoke else 3)

    trace_eager_steps(st, rec, size, m)
    train_steps += st.steps
    losses += st.losses
    m["distributed.collective_retries"] = float(counters.get("collective_retries"))
    m["moe.router_fallbacks"] = float(counters.get("router_fallback"))
    m["distributed.shm_leaks"] = float(len(shm_segments() - shm_before))
    calib = calib_summary(calib_start, calibrate())
    m.update({f"calib.{k}": calib[k] for k in ("sgemm_gflops", "memcpy_gb_s", "drift")})
    shares.update(step_shares(w, m))

    trace_path = trace_out or os.path.join(tmp, "trace.json")
    rec.write(trace_path)

    checks = {
        "losses_finite": all(math.isfinite(x) for x in losses),
        "dropless": dropless_bad == 0,
        "fallback_counters_zero": not any(phases.counters_zero().values()),
        "coverage_train": m["trace.coverage_train"] >= 0.90,
        "coverage_serve": m["trace.coverage_serve"] >= 0.90,
        "no_shm_leaks": m["distributed.shm_leaks"] == 0,
        "itl_mode_rule": phases.itl_mode_ok(w, serve),
    }
    notes = [f"calibration drift {calib['drift']:.3f}" + ("  ** noisy run **" if calib["noisy"] else "")]
    notes += fig9_notes(w, m, table, calib)
    notes.append("shares: " + ", ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    notes.append(f"chrome trace: {len(rec.spans)} spans -> {trace_path}"
                 + ("" if trace_out else " (removed with the run directory)"))
    return {
        "workload": w.name, "seed": seed, "trace": 1,
        "metrics": m,
        "attempted": {"train_steps": train_steps, "requests": len(serve.completed),
                      "checks": len(checks)},
        "failed": {"train_steps": 0 if checks["losses_finite"] else 1,
                   "requests": int(m["serving.solo_mismatches"]),
                   "checks": sum(not ok for ok in checks.values())},
        "checks": checks, "shares": shares, "calib": calib, "notes": notes,
        "claim": None,
    }
