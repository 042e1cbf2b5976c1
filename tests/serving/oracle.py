"""The uncached oracle a served step is held to: a ``TransformerLM``'s
full-window forward in straight-line NumPy.

Every step is a reference of the kernel table, on plain arrays: the
embedding gathers, ``ln``'s reference, ``_linear_ref`` for every Linear,
``_attention_rows_ref`` over every ``(sequence, position)`` row with
length ``t + 1``, :func:`~repro.moe.inference.moe_forward_ref` for an MoE
layer (int8 tables included; it sets ``last_routing``), the activation a
dense FFN names, and einsum's ``ij,kj`` for a tied head.  No
``Module.forward`` runs, so the plan (:mod:`repro.serving.plan`) is held
to code it shares nothing with but those references.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ACTIVATIONS
from repro.autograd.lower import kernels
from repro.autograd.lower.kernels import layernorm
from repro.autograd.tensor import Tensor
from repro.core import dMoE
from repro.moe import MoELayer
from repro.moe.inference import moe_forward_ref
from repro.nn import MLP
from repro.serving.kernels import _attention_rows_ref, _linear_ref

_layer_norm = kernels.reference(layernorm.LN)


def _ln(ln, x):
    return _layer_norm(x, ln.weight.data, ln.bias.data, ln.eps)


def _linear(linear, x):
    return _linear_ref(x, linear.weight.data, None if linear.bias is None else linear.bias.data)


def _attention(attn, x, batch, seq):
    heads, d = attn.num_heads, attn.head_dim
    qkv = _linear(attn.qkv, x).reshape(batch, seq, 3, heads, d)
    q = np.ascontiguousarray(qkv[:, :, 0]).reshape(batch * seq, heads, d)
    k = np.ascontiguousarray(qkv[:, :, 1].transpose(0, 2, 3, 1))  # keys transposed
    v = np.ascontiguousarray(qkv[:, :, 2].transpose(0, 2, 1, 3))
    rows = np.arange(batch * seq)
    scale = float(1.0 / np.sqrt(d))
    return _linear(attn.proj, _attention_rows_ref(q, k, v, rows // seq, rows % seq + 1, scale))


def _ffn(ffn, x):
    if type(ffn) is MLP:
        h = ACTIVATIONS[ffn.activation](Tensor(_linear(ffn.fc1, x))).data
        return _linear(ffn.fc2, h)
    if isinstance(ffn, (dMoE, MoELayer)):
        return moe_forward_ref(ffn, x)
    raise TypeError(f"no serving reference for a {type(ffn).__name__} FFN")


def forward_ref(model, ids) -> np.ndarray:
    """``(B, S, vocab)`` logits of every position of ``ids`` (``(B, S)``
    token ids, ``S <= model.max_seq_len``)."""
    ids = np.asarray(ids, dtype=np.int64)
    batch, seq = ids.shape
    positions = np.tile(np.arange(seq), batch)
    x = model.tok_emb.weight.data[ids.reshape(-1)] + model.pos_emb.weight.data[positions]
    for block in model.blocks:
        x = x + _attention(block.attn, _ln(block.ln1, x), batch, seq)
        x = x + _ffn(block.ffn, _ln(block.ln2, x))
    x = _ln(model.ln_f, x)
    if model.tie_embeddings:
        logits = np.einsum("ij,kj->ik", x, model.tok_emb.weight.data)
    else:
        logits = _linear(model.lm_head, x)
    return logits.reshape(batch, seq, -1)


def forward_flops(model, rows: int) -> int:
    """The serving-GEMM FLOPs of a full-window forward over ``rows`` token
    rows, from the model's shape alone (a dropless layer's work does not
    depend on its routing): per block qkv and proj, then a dense FFN's two
    GEMMs or an MoE layer's router and expert products,
    ``2·t·h·(e + 2·k·f)``; the head's ``2·h·vocab`` per row."""
    h = model.hidden_size
    flops = 2 * rows * h * model.vocab_size
    for block in model.blocks:
        ffn = block.ffn
        flops += 2 * rows * h * 4 * h
        if type(ffn) is MLP:
            flops += 2 * rows * h * 2 * ffn.ffn_hidden_size
        else:
            flops += 2 * rows * h * (ffn.num_experts + 2 * ffn.router.top_k * ffn.ffn_hidden_size)
    return flops
