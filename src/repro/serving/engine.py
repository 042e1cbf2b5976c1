"""The inference engine: prefill + KV-cached decode over a TransformerLM.

Wraps a ``TransformerLM`` with the serving primitives the scheduler
composes:

- :meth:`InferenceEngine.prefill` — encodes whole windows into the
  cache and returns their last-position logits;
- :meth:`InferenceEngine.decode_step` — one cached token per active
  slot, O(window) per token instead of the O(window²) full re-forward;
- :meth:`InferenceEngine.generate` — drop-in replacement for
  ``TransformerLM.generate``: same sampling math, same RNG consumption,
  same sliding-window semantics, so with equal seeds it emits the exact
  same tokens — just without re-running the whole window every step.

Prefill and decode are both steps of the cache's one serving plan
(:mod:`repro.serving.plan`), bound once and held bit for bit to the
uncached ``model.forward`` under ``inference_mode``.

Sliding window: once a sequence reaches ``max_seq_len`` the engine
resets the slot and re-prefills the retained window (absolute learned
position embeddings make a cache memmove wrong; see
:mod:`repro.serving.kv_cache`).  Every such step re-encodes the window
exactly as the uncached baseline does, so equivalence holds past the
window edge too.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import inference_mode
from repro.serving.kv_cache import KVCache
from repro.serving.plan import decode, prefill
from repro.serving.quantize import attach_quantized_experts
from repro.utils.sampling import sample_tokens
from repro.utils.rng import RngLike, get_rng


class InferenceEngine:
    """Serving wrapper around a language model.

    Args:
        model: a ``TransformerLM`` (switched to eval mode).
        quantize_experts: ``"int8"`` attaches int8 expert-weight tables
            (see :mod:`repro.serving.quantize`); ``None`` keeps fp32.
            The accepted values mirror ``MoEConfig.quantize_experts``.
    """

    def __init__(self, model, quantize_experts: Optional[str] = None) -> None:
        self.model = model
        model.eval()
        self.quant_report: Optional[dict] = None
        if quantize_experts is not None:
            if quantize_experts != "int8":
                raise ValueError(
                    f"unsupported quantize_experts={quantize_experts!r}; "
                    "options: None, 'int8'"
                )
            self.quant_report = attach_quantized_experts(model)

    # ------------------------------------------------------------------
    def new_cache(
        self, batch_slots: int, max_seq_len: Optional[int] = None
    ) -> KVCache:
        return KVCache.for_model(self.model, batch_slots, max_seq_len)

    def prefill(self, ids, cache: KVCache, slots=None) -> np.ndarray:
        """Encode ``(B, S)`` windows into the cache; returns ``(B, vocab)``
        logits for the last position of each row, the only one the head
        runs on (:func:`repro.serving.plan.prefill`).  Targeted slots must
        be reset."""
        with inference_mode():
            return prefill(self.model, ids, cache, slots)

    def decode_step(self, ids_t, cache: KVCache, slots=None) -> np.ndarray:
        """Append one token per active slot; returns ``(B, vocab)`` logits
        (:func:`repro.serving.plan.decode`)."""
        with inference_mode():
            return decode(self.model, ids_t, cache, slots)

    # ------------------------------------------------------------------
    def generate(
        self,
        prompt,
        max_new_tokens: int,
        temperature: float = 1.0,
        top_k: Optional[int] = None,
        eos_token_id: Optional[int] = None,
        rng: RngLike = None,
    ) -> np.ndarray:
        """KV-cached autoregressive sampling.

        Token-for-token equivalent to ``TransformerLM.generate`` under
        the same seed (bit-identical logits via the shared inference
        kernels, identical per-row RNG consumption via the shared
        :func:`~repro.utils.sampling.sample_tokens`).
        """
        gen = get_rng(rng)
        ids_in = np.asarray(prompt, dtype=np.int64)
        if ids_in.ndim == 1:
            ids_in = ids_in[None, :]
        batch, prompt_len = ids_in.shape
        max_len = self.model.max_seq_len
        out = np.empty((batch, prompt_len + max_new_tokens), dtype=np.int64)
        out[:, :prompt_len] = ids_in
        done = np.zeros(batch, dtype=bool)
        n = prompt_len
        start = max(0, prompt_len - max_len)  # cached window is [start, n)
        cache = self.new_cache(batch)
        try:
            logits = self.prefill(out[:, start:prompt_len], cache)
            for _ in range(max_new_tokens):
                nxt = sample_tokens(logits, temperature, top_k, gen)
                if eos_token_id is not None:
                    nxt = np.where(done, eos_token_id, nxt)
                out[:, n] = nxt
                n += 1
                if eos_token_id is not None:
                    done |= nxt == eos_token_id
                    if done.all():
                        break
                if n == out.shape[1] and n - prompt_len == max_new_tokens:
                    break  # budget exhausted; skip computing unused logits
                if (n - 1) - start >= max_len:
                    # Window slide: re-encode the retained suffix at the
                    # shifted absolute positions (includes the newest
                    # token, so this prefill yields the next logits).
                    start = n - max_len
                    cache.reset()
                    logits = self.prefill(out[:, start:n], cache)
                else:
                    logits = self.decode_step(out[:, n - 1], cache)
        finally:
            cache.release()
        return out[:, :n]
