"""Decoder-only Transformer language model (GPT-2/Megatron-LM style).

The FFN in each block is produced by a caller-supplied factory, which is
how the experiment harness swaps between:

- dense ``MLP``                       (Megatron-LM baseline),
- token-dropping ``MoELayer``         (GShard/Switch/Tutel baseline),
- dropless ``dMoE``                   (the MegaBlocks contribution).

FFN modules may return either a Tensor or a ``(Tensor, aux_loss)`` pair;
auxiliary losses (load balancing) are summed across layers and exposed on
the model output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.autograd.ops_fused import dropout_residual, softmax_cross_entropy
from repro.autograd.tensor import Tensor, is_inference
from repro.nn.attention import CausalSelfAttention
from repro.nn.layers import Dropout, Embedding, LayerNorm
from repro.nn.mlp import MLP
from repro.nn.module import Module, ModuleList
from repro.utils.rng import RngLike, get_rng

FFNFactory = Callable[[int], Module]
"""Maps a layer index to the FFN module for that block."""


@dataclass
class TransformerOutput:
    """Forward results: logits plus any accumulated auxiliary loss."""

    logits: Tensor
    aux_loss: Optional[Tensor] = None


class TransformerBlock(Module):
    """Pre-LayerNorm block: ``x + attn(ln(x))`` then ``x + ffn(ln(x))``."""

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        ffn: Module,
        dropout_p: float = 0.0,
        init_std: float = 0.02,
        num_layers: int = 1,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        self.ln1 = LayerNorm(hidden_size)
        self.attn = CausalSelfAttention(
            hidden_size,
            num_heads,
            dropout_p=dropout_p,
            init_std=init_std,
            output_scale_layers=num_layers,
            rng=rng,
        )
        self.ln2 = LayerNorm(hidden_size)
        self.ffn = ffn
        self.dropout = Dropout(dropout_p, rng=rng)

    def _residual(self, x: Tensor, branch: Tensor) -> Tensor:
        """``x + dropout(branch)``; one fused tape node outside serving
        (the block-level residual has no bias — bias fusion lives inside
        the Linear/MLP layers)."""
        if is_inference():
            return x + self.dropout(branch)
        d = self.dropout
        return dropout_residual(branch, x, d.p, d.training, d.rng)

    def forward(self, x: Tensor):
        x = self._residual(x, self.attn(self.ln1(x)))
        ffn_out = self.ffn(self.ln2(x))
        aux = None
        if isinstance(ffn_out, tuple):
            ffn_out, aux = ffn_out
        return self._residual(x, ffn_out), aux


class TransformerLM(Module):
    """Decoder-only language model with swappable FFN layers.

    Args:
        vocab_size: token vocabulary size.
        hidden_size: model width.
        num_layers: number of Transformer blocks.
        num_heads: attention heads per block.
        max_seq_len: maximum sequence length (learned position embeddings).
        ffn_factory: builds the FFN for layer ``i``; defaults to a dense
            4x MLP matching Table 1.
        tie_embeddings: reuse the token embedding as the LM head (GPT-2).
    """

    def __init__(
        self,
        vocab_size: int,
        hidden_size: int,
        num_layers: int,
        num_heads: int,
        max_seq_len: int,
        ffn_factory: Optional[FFNFactory] = None,
        dropout_p: float = 0.0,
        init_std: float = 0.02,
        tie_embeddings: bool = True,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = get_rng(rng)
        self.vocab_size = vocab_size
        self.hidden_size = hidden_size
        self.max_seq_len = max_seq_len
        self.tie_embeddings = tie_embeddings

        if ffn_factory is None:
            ffn_factory = lambda i: MLP(  # noqa: E731 - default dense FFN
                hidden_size,
                4 * hidden_size,
                init_std=init_std,
                output_scale_layers=num_layers,
                rng=rng,
            )

        self.tok_emb = Embedding(vocab_size, hidden_size, init_std=init_std, rng=rng)
        self.pos_emb = Embedding(max_seq_len, hidden_size, init_std=init_std, rng=rng)
        self.dropout = Dropout(dropout_p, rng=rng)
        self.blocks = ModuleList(
            [
                TransformerBlock(
                    hidden_size,
                    num_heads,
                    ffn=ffn_factory(i),
                    dropout_p=dropout_p,
                    init_std=init_std,
                    num_layers=num_layers,
                    rng=rng,
                )
                for i in range(num_layers)
            ]
        )
        self.ln_f = LayerNorm(hidden_size)
        if not tie_embeddings:
            from repro.nn.layers import Linear

            self.lm_head = Linear(hidden_size, vocab_size, bias=False, rng=rng)

    def forward(self, ids) -> TransformerOutput:
        """Full-window forward; training path unless inside inference_mode.

        Under inference_mode it is the uncached reference the serving plan
        (:mod:`repro.serving.plan`) is held to, bit for bit: every
        position's logits, through the row-stable serving kernels.
        """
        ids_arr = ids.data if isinstance(ids, Tensor) else np.asarray(ids)
        batch, seq = ids_arr.shape
        if seq > self.max_seq_len:
            raise ValueError(f"sequence length {seq} exceeds max {self.max_seq_len}")
        positions = np.arange(seq)[None, :]
        x = self.tok_emb(ids_arr) + self.pos_emb(positions)
        x = self.dropout(x)

        aux_total: Optional[Tensor] = None
        for block in self.blocks:
            x, aux = block(x)
            if aux is not None:
                aux_total = aux if aux_total is None else aux_total + aux

        x = self.ln_f(x)
        logits = self._head(x)
        return TransformerOutput(logits=logits, aux_loss=aux_total)

    def _head(self, x: Tensor) -> Tensor:
        """LM head; routed through the row-stable kernel when serving."""
        if is_inference() and self.tie_embeddings:
            from repro.serving.kernels import stable_matmul_tb

            xd = x.data
            w = self.tok_emb.weight.data
            logits = stable_matmul_tb(xd.reshape(-1, xd.shape[-1]), w)
            return Tensor(logits.reshape(xd.shape[:-1] + (w.shape[0],)))
        if self.tie_embeddings:
            return x @ self.tok_emb.weight.transpose()
        return self.lm_head(x)

    def generate(
        self,
        prompt,
        max_new_tokens: int,
        temperature: float = 1.0,
        top_k: Optional[int] = None,
        eos_token_id: Optional[int] = None,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Autoregressive sampling from the language model (uncached).

        Re-runs the full forward over the sliding window for every new
        token — O(T²) per sequence.  The KV-cached
        :class:`repro.serving.engine.InferenceEngine` produces identical
        tokens without the re-computation; this path is kept as the
        reference baseline.

        Args:
            prompt: ``(batch, prompt_len)`` int array of seed tokens.
            max_new_tokens: tokens to append (the context window slides
                if ``prompt_len + new`` exceeds ``max_seq_len``).
            temperature: 0 means greedy argmax; otherwise softmax
                temperature.
            top_k: restrict sampling to the k most likely tokens.
            eos_token_id: stop early once every sequence has emitted
                this token; finished sequences keep emitting it while
                the rest of the batch continues.

        Returns ``(batch, prompt_len + n)`` where ``n`` is
        ``max_new_tokens``, or fewer if every sequence hit
        ``eos_token_id`` first.
        """
        from repro.autograd import no_grad
        from repro.serving.sampling import sample_tokens

        gen = get_rng(rng)
        ids_in = np.asarray(prompt, dtype=np.int64)
        if ids_in.ndim == 1:
            ids_in = ids_in[None, :]
        batch, prompt_len = ids_in.shape
        # Preallocate the output once instead of np.concatenate per token.
        out = np.empty((batch, prompt_len + max_new_tokens), dtype=np.int64)
        out[:, :prompt_len] = ids_in
        done = np.zeros(batch, dtype=bool)
        n = prompt_len
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                for _ in range(max_new_tokens):
                    start = max(0, n - self.max_seq_len)
                    logits = self.forward(out[:, start:n]).logits.data[:, -1, :]
                    # Sample every row (fixed RNG consumption per step),
                    # then overwrite finished rows with eos.
                    nxt = sample_tokens(logits, temperature, top_k, gen)
                    if eos_token_id is not None:
                        nxt = np.where(done, eos_token_id, nxt)
                    out[:, n] = nxt
                    n += 1
                    if eos_token_id is not None:
                        done |= nxt == eos_token_id
                        if done.all():
                            break
        finally:
            self.train(was_training)
        return out[:, :n]

    def loss(self, ids, targets, ignore_index: int = -100):
        """LM cross-entropy plus any auxiliary (load-balancing) loss.

        Returns ``(total_loss, lm_loss, aux_loss)`` where ``aux_loss`` may
        be None for dense models.
        """
        out = self.forward(ids)
        lm = softmax_cross_entropy(out.logits, targets, ignore_index=ignore_index)
        if out.aux_loss is not None:
            return lm + out.aux_loss, lm, out.aux_loss
        return lm, lm, None
