"""Core layers: Linear, Embedding, LayerNorm, Dropout."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import dropout as dropout_op
from repro.autograd import embedding as embedding_op
from repro.autograd import layer_norm as layer_norm_op
from repro.autograd.ops_fused import linear_bias
from repro.autograd.tensor import Tensor, is_inference
from repro.serving.kernels import layer_norm, stable_linear
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.rng import RngLike


class Linear(Module):
    """Affine map ``x @ W + b`` with weight of shape (in, out)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        init_std: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.normal((in_features, out_features), init_std, rng))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if is_inference():
            # Serving path: row-stable GEMM (no tape, and bitwise
            # independent of how many token rows are in the batch — the
            # KV-cached decode bit-identity guarantee rests on this).
            return Tensor(
                stable_linear(
                    x.data,
                    self.weight.data,
                    None if self.bias is None else self.bias.data,
                )
            )
        if self.bias is not None:
            return linear_bias(x, self.weight, self.bias)
        return x @ self.weight

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        init_std: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            init.normal((num_embeddings, embedding_dim), init_std, rng)
        )

    def forward(self, ids) -> Tensor:
        return embedding_op(self.weight, ids)

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones(normalized_shape))
        self.bias = Parameter(init.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        if is_inference():
            # Serving path: one native call, no tape.
            return Tensor(layer_norm(x.data, self.weight.data, self.bias.data, self.eps))
        return layer_norm_op(x, self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, rng: RngLike = None) -> None:
        super().__init__()
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return dropout_op(x, self.p, training=self.training, rng=self.rng)
