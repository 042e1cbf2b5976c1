"""Continuous-batching scheduler over the KV-cached inference engine.

Orca/vLLM-style iteration-level scheduling on the NumPy substrate: the
decode batch is re-formed *every step*.  Queued requests are admitted
into free cache slots mid-flight (one solo prefill each, so in-flight
sequences never recompute), every active sequence advances by one token
per step through a single batched decode step
(:func:`repro.serving.plan.decode`), and finished
sequences are evicted immediately — their slot and KV rows are reusable
on the very next step.

This is only sound because the model's inference path is
batch-composition independent (row-stable linears, per-slot attention,
dropless per-token MoE dispatch): a sequence's logits — and, with
per-request RNG streams, its sampled tokens — are bit-identical whether
it runs solo or shares the batch with any mix of neighbors.  The
scheduler tests assert exactly that.

Admission is token-budget gated: a request is admitted only while the
sum of *peak* window sizes (``min(prompt + max_new, max_seq_len)``)
across it and all active sequences stays within ``token_budget``, which
bounds decode-step latency under load.

Telemetry flows through the PR 4 registry and tracer:

- histograms ``serving/ttft_ms`` (submit → first sampled token),
  ``serving/token_latency_ms`` (per generated token), and
  ``serving/step_ms`` (whole scheduler step);
- counters ``serving/requests``, ``serving/tokens_generated``,
  ``serving/prefill_tokens``, the kernels' own ``serve_gemm_calls`` /
  ``serve_gemm_flops`` / ``serve_attn_calls`` / ``serve_attn_flops`` and
  the kernel table's ``lower_direct_calls`` and fallbacks (printed by
  :meth:`latency_table`, GEMM and attention each with its achieved
  GFLOP/s);
- gauge ``serving/active_sequences``;
- spans ``serve/step`` / ``serve/prefill`` / ``serve/decode``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.observability.metrics import registry
from repro.observability.tracing import span
from repro.serving.engine import InferenceEngine
from repro.serving.kernels import bound_sample_rows, work_summary
from repro.utils.rng import get_rng


@dataclass
class Request:
    """One generation request submitted to the scheduler."""

    prompt: np.ndarray
    max_new_tokens: int
    temperature: float = 1.0
    top_k: Optional[int] = None
    eos_token_id: Optional[int] = None
    seed: Optional[int] = None
    request_id: int = field(default=-1)  # assigned by submit()


@dataclass
class GenerationResult:
    """Completed request: tokens plus per-request latency readings."""

    request_id: int
    tokens: np.ndarray  # (prompt_len + generated,)
    prompt_len: int
    finish_reason: str  # "eos" | "length"
    ttft_s: float
    total_s: float

    @property
    def new_tokens(self) -> int:
        return len(self.tokens) - self.prompt_len


class _Sequence:
    """Decode state for one request: built when it is submitted (its
    token buffer and RNG), given a slot when it is admitted."""

    __slots__ = (
        "request", "slot", "ids", "n", "window_start", "logits", "rng",
        "submit_t", "first_token_t", "last_token_t", "done_reason", "eos",
        "turn", "peak", "setting",
    )

    def __init__(self, request: Request, max_seq_len: int) -> None:
        self.request = request
        self.slot = -1
        prompt = np.asarray(request.prompt, dtype=np.int64).reshape(-1)
        self.ids = np.empty(len(prompt) + request.max_new_tokens, dtype=np.int64)
        self.ids[: len(prompt)] = prompt
        self.n = len(prompt)
        self.window_start = max(0, len(prompt) - max_seq_len)
        self.logits: Optional[np.ndarray] = None
        self.rng = get_rng(request.seed)
        self.submit_t = self.last_token_t = 0.0  # set on admission
        self.first_token_t: Optional[float] = None
        self.done_reason: Optional[str] = None
        self.eos = request.eos_token_id
        self.set_turn(max_seq_len)
        #: The window it peaks at (the token budget's unit) and its
        #: sampling setting.
        self.peak = min(len(self.ids), max_seq_len)
        self.setting = (request.temperature, request.top_k)

    def set_turn(self, max_seq_len: int) -> None:
        """Set ``turn``: the length at which this sequence leaves plain
        decoding — its budget spent, or its window at the edge."""
        self.turn = min(len(self.ids), self.window_start + max_seq_len + 1)

    @property
    def prompt_len(self) -> int:
        return len(self.ids) - self.request.max_new_tokens


class ContinuousBatchingScheduler:
    """Iteration-level scheduler: admit, decode one step, evict, repeat.

    Args:
        engine: the :class:`InferenceEngine` to drive.
        max_batch_size: decode slots (the KV cache is allocated once for
            this many sequences).
        token_budget: admission bound on the summed peak window sizes of
            concurrent sequences; defaults to
            ``max_batch_size * max_seq_len`` (i.e. slot-limited only).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch_size: int = 4,
        token_budget: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.max_seq_len = engine.model.max_seq_len
        self.max_batch_size = max_batch_size
        self.token_budget = (
            token_budget
            if token_budget is not None
            else max_batch_size * self.max_seq_len
        )
        self.cache = engine.new_cache(max_batch_size)
        self.queue: Deque[_Sequence] = deque()
        self.active: Dict[int, _Sequence] = {}  # slot -> sequence
        self.free_slots: List[int] = list(range(max_batch_size))[::-1]
        # The decode batch — ``active`` in order — with its slots and
        # samplers, re-formed on admission and eviction only; ``_logits``
        # is the last decode's output while its rows are the batch's, in
        # order (otherwise each sequence holds its own row).  ``_sampler``
        # is the one sampler when one setting covers the batch; ``_bound``
        # keeps a sampler per setting and row count, moved to each batch
        # of that shape.  ``_plain`` counts the steps left before a
        # sequence of the batch reaches its turn.
        self._batch: List[_Sequence] = []
        self._slots = np.zeros(0, dtype=np.int64)
        self._samplers: List[tuple] = []
        self._sampler = None
        self._bound: Dict[tuple, object] = {}
        self._eos = False  # some sequence of the batch has an eos token
        self._plain = 0
        self._committed = 0  # the active sequences' summed peak windows
        # The batch's tokens of the plain steps since the batch last
        # changed, a column per step (row ``i``: batch row ``i``), moved
        # into the sequences' ``ids`` before anything reads them
        # (:meth:`_flush`).  A turn comes within ``max_seq_len + 1`` steps.
        self._tokens = np.empty((max_batch_size, self.max_seq_len + 1), np.int64)
        self._column = 0
        self._logits: Optional[np.ndarray] = None
        self._fresh: List[_Sequence] = []  # admitted, first token not sampled
        self._last_token_t = 0.0  # when the batch last got its tokens
        self.peak_concurrency = 0
        #: Wall clock of this scheduler's working steps and the serving-GEMM
        #: and attention FLOPs spent inside them (each quotient is a rate).
        self.step_seconds = 0.0
        self.step_gemm_flops = 0
        self.step_attn_flops = 0
        self._next_id = 0
        self._reg = reg = registry()
        # Handles, taken once: a step looks nothing up by name
        # (``MetricsRegistry.reset`` zeroes instruments in place).
        self._requests = reg.counter("serving/requests")
        self._tokens_generated = reg.counter("serving/tokens_generated")
        self._prefill_tokens = reg.counter("serving/prefill_tokens")
        self._gemm_flops = reg.counter("serve_gemm_flops")
        self._attn_flops = reg.counter("serve_attn_flops")
        self._active_sequences = reg.gauge("serving/active_sequences")
        self._ttft = reg.histogram("serving/ttft_ms")
        self._token_latency = reg.histogram("serving/token_latency_ms")
        self._step_ms = reg.histogram("serving/step_ms")

    # -- lifecycle -------------------------------------------------------
    def submit(self, request: Request) -> int:
        """Queue a request; returns its assigned request id."""
        if request.request_id < 0:
            request.request_id = self._next_id
            self._next_id += 1
        request.prompt = np.asarray(request.prompt, dtype=np.int64).reshape(-1)
        if len(request.prompt) == 0:
            raise ValueError("empty prompt")
        if request.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        self._requests.value += 1
        # Set up here, off the step that admits it: that step holds up
        # every sequence in flight.
        self.queue.append(_Sequence(request, self.max_seq_len))
        return request.request_id

    def close(self) -> None:
        """Release the KV cache: drop its K/V buffers and its plan."""
        self.cache.release()

    # -- admission -------------------------------------------------------
    def _admit(self, now: float) -> None:
        admitted = False
        while self.queue and self.free_slots:
            seq = self.queue[0]
            if self.active and self._committed + seq.peak > self.token_budget:
                break  # token budget full; wait for evictions
            if not admitted:
                self._flush()
                self._hand_out_logits()
                admitted = True
            self.queue.popleft()
            seq.slot = self.free_slots.pop()
            seq.submit_t = seq.last_token_t = now
            self._prefill(seq)
            self.active[seq.slot] = seq
            self._fresh.append(seq)
            self._committed += seq.peak
        if admitted:
            self._rebatch()
        self.peak_concurrency = max(self.peak_concurrency, len(self.active))
        self._active_sequences.set(len(self.active))

    def _rebatch(self) -> None:
        """Re-form the decode batch from ``active`` (admission, eviction),
        with one ``(rows, sampler)`` per distinct ``(temperature, top_k)``
        in order of first appearance: the batch rows of that setting, in
        batch order, and :func:`bound_sample_rows` over their generators
        (an earlier batch's sampler of that setting and row count, moved
        to these).  A step samples in this order, so sequences sharing a
        generator draw from it in this order."""
        batch = self._batch = list(self.active.values())
        self._slots = np.fromiter(self.active, np.int64, len(batch))
        groups: Dict[tuple, List[int]] = {}
        for i, seq in enumerate(batch):
            groups.setdefault(seq.setting, []).append(i)
        vocab = self.engine.model.vocab_size
        bound, self._samplers = self._bound, []
        for setting, rows in groups.items():
            gens = [batch[i].rng for i in rows]
            sampler = bound.get((setting, len(rows)))
            if sampler is None or not sampler.bind(gens):
                sampler = bound[setting, len(rows)] = bound_sample_rows(gens, vocab, *setting)
            self._samplers.append((rows, sampler))
        self._sampler = self._samplers[0][1] if len(self._samplers) == 1 else None
        self._eos = any([seq.eos is not None for seq in batch])
        self._plain = min([seq.turn - seq.n for seq in batch], default=0)

    def _flush(self) -> None:
        """Append the batch's tokens held in ``_tokens`` to its sequences."""
        k = self._column
        if k:
            for seq, row in zip(self._batch, self._tokens):
                n = seq.n
                seq.ids[n : n + k] = row[:k]
                seq.n = n + k
            self._column = 0

    def _hand_out_logits(self) -> None:
        """Give each sequence its row of the last decode's logits."""
        if self._logits is not None:
            for seq, row in zip(self._batch, self._logits):
                seq.logits = row
            self._logits = None

    def _prefill(self, seq: _Sequence) -> None:
        """Solo prefill of ``seq``'s current window into its slot."""
        lo, hi = seq.window_start, seq.n
        with span("serve/prefill"):
            self.cache.reset([seq.slot])
            seq.logits = self.engine.prefill(
                seq.ids[None, lo:hi], self.cache, slots=[seq.slot]
            )[0]
        self._prefill_tokens.value += hi - lo

    # -- stepping --------------------------------------------------------
    def step(self) -> List[GenerationResult]:
        """Admit, sample one token per active sequence, decode, evict.

        Returns the requests that finished during this step.
        """
        t0 = time.perf_counter()
        gemm0, attn0 = self._gemm_flops.value, self._attn_flops.value
        finished: List[GenerationResult] = []
        with span("serve/step"):
            if self.queue and self.free_slots:
                self._admit(t0)
            batch = self._batch
            if not batch:
                return finished

            # Sample the next token of every active sequence from the
            # logits computed last step (or at prefill): straight from
            # the decode's output when it is the batch's and one setting
            # covers the batch, else each setting's rows gathered.
            now = time.perf_counter()
            logits = self._logits
            if logits is None:
                logits = np.array([seq.logits for seq in batch])
            sampler = self._sampler
            if sampler is not None:
                picked = sampler(logits)
            else:
                picked = np.empty(len(batch), dtype=np.int64)
                for rows, sampler in self._samplers:
                    picked[rows] = sampler(logits[rows])
            # Every sequence gets a token every step: one admitted this
            # step waited since its submission (its first token), every
            # other one since the last step.  The fresh come last.
            fresh = self._fresh
            waited = [(now - self._last_token_t) * 1e3] * (len(batch) - len(fresh))
            if fresh:
                for seq in fresh:
                    seq.first_token_t = now
                    waited.append((now - seq.submit_t) * 1e3)
                    self._ttft.observe(waited[-1])
                fresh.clear()
            self._token_latency.observe_all(waited)
            self._last_token_t = now
            self._tokens[: len(batch), self._column] = picked
            self._column += 1
            self._tokens_generated.value += len(batch)
            self._plain -= 1

            if self._plain > 0 and not (self._eos and self._eos_hit(batch, picked)):
                # Every sequence decodes, in batch order: its logits are
                # the next step's batch logits.
                with span("serve/decode"):
                    self._logits = self.engine.decode_step(
                        picked, self.cache, slots=self._slots
                    )
            else:
                self._advance(finished, now, picked)
        dt = time.perf_counter() - t0
        self._step_ms.observe(dt * 1e3)
        self.step_seconds += dt
        self.step_gemm_flops += self._gemm_flops.value - gemm0
        self.step_attn_flops += self._attn_flops.value - attn0
        return finished

    @staticmethod
    def _eos_hit(batch, picked) -> bool:
        return any(tok == seq.eos for seq, tok in zip(batch, picked.tolist()))

    def _advance(self, finished: List[GenerationResult], now: float, picked) -> None:
        """Evict finished sequences (their last token, ``picked``, came
        ``now``), then advance the survivors: sequences at the window edge
        take a solo re-prefill (sliding-window eviction); the rest share
        one batched decode of their last tokens."""
        self._logits = None
        self._flush()
        active = self.active
        gone = []
        for i, seq in enumerate(self._batch):
            if seq.eos is not None and seq.ids[seq.n - 1] == seq.eos:
                seq.done_reason = "eos"
            elif seq.n == len(seq.ids):
                seq.done_reason = "length"
            else:
                continue
            gone.append(i)
            seq.last_token_t = now
            finished.append(self._finish(seq))
            del active[seq.slot]
            self.free_slots.append(seq.slot)
            self._committed -= seq.peak
        if gone:
            self._rebatch()
            self._active_sequences.set(len(active))
            picked = np.delete(picked, gone)
        batch, slots = self._batch, self._slots
        edge = [
            i for i, seq in enumerate(batch)
            if (seq.n - 1) - seq.window_start >= self.max_seq_len
        ]
        for i in edge:
            seq = batch[i]
            seq.window_start = seq.n - self.max_seq_len
            seq.set_turn(self.max_seq_len)
            self._prefill(seq)
        self._plain = min([seq.turn - seq.n for seq in batch], default=0)
        if len(edge) == len(batch):
            return
        if edge:
            picked, slots = np.delete(picked, edge), np.delete(slots, edge)
        with span("serve/decode"):
            logits = self.engine.decode_step(picked, self.cache, slots=slots)
        if not edge:
            self._logits = logits
        else:
            decoded = [seq for i, seq in enumerate(batch) if i not in edge]
            for seq, row in zip(decoded, logits):
                seq.logits = row

    def _finish(self, seq: _Sequence) -> GenerationResult:
        return GenerationResult(
            request_id=seq.request.request_id,
            tokens=seq.ids[: seq.n].copy(),
            prompt_len=seq.prompt_len,
            finish_reason=seq.done_reason or "length",
            ttft_s=(seq.first_token_t or seq.submit_t) - seq.submit_t,
            total_s=seq.last_token_t - seq.submit_t,
        )

    def run(self, requests=None) -> List[GenerationResult]:
        """Submit ``requests`` (optional) and step until everything drains."""
        for req in requests or ():
            self.submit(req)
        results: List[GenerationResult] = []
        while self.queue or self.active:
            results.extend(self.step())
        return sorted(results, key=lambda r: r.request_id)

    def latency_table(self) -> str:
        """Human-readable TTFT / per-token latency percentile table."""
        rows = []
        for name in ("serving/ttft_ms", "serving/token_latency_ms", "serving/step_ms"):
            s = self._reg.histogram(name).summary()
            rows.append(
                f"  {name:<26} n={s['count']:<6d} p50={s['p50']:8.3f}ms "
                f"p95={s['p95']:8.3f}ms  p99={s['p99']:8.3f}ms"
            )
        counters = self._reg
        rows.append(
            f"  requests={counters.counter('serving/requests').value}  "
            f"tokens={counters.counter('serving/tokens_generated').value}  "
            f"prefill_tokens={counters.counter('serving/prefill_tokens').value}  "
            f"peak_concurrency={self.peak_concurrency}"
        )
        # The kernel work: process totals by rung, then this scheduler's
        # own steps as rates, GEMM and attention apart.
        summary = work_summary(
            self.step_gemm_flops, self.step_attn_flops, self.step_seconds, "step wall"
        )
        rows.extend("  " + line for line in summary.splitlines())
        return "\n".join(rows)
