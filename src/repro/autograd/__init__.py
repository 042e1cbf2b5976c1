"""A small reverse-mode autodiff engine over NumPy arrays.

This package is the repository's substitute for PyTorch: it provides the
Tensor/Function machinery the MoE layers, block-sparse kernels, and
Transformer models are built on, so the paper's forward/backward dataflow
(Figure 6 and §5.1) is exercised with real gradients.
"""

from repro.autograd import arena, stats
from repro.autograd.arena import get_arena, steady_state
from repro.autograd.tensor import (
    Tensor,
    as_tensor,
    full,
    inference_mode,
    is_inference,
    no_grad,
    ones,
    randn,
    zeros,
)
from repro.autograd.function import Context, Function
from repro.autograd import ops_basic as _ops_basic  # registers operators
from repro.autograd.ops_basic import (
    abs_,
    add,
    clip,
    concatenate,
    div,
    exp,
    getitem,
    log,
    matmul,
    max_,
    maximum,
    mean,
    mul,
    neg,
    pow_,
    reshape,
    sqrt,
    stack,
    sub,
    sum_,
    tanh,
    transpose,
    where,
)
from repro.autograd.ops_nn import (
    ACTIVATIONS,
    dropout,
    embedding,
    gather_rows,
    gelu,
    layer_norm,
    log_softmax,
    relu,
    scatter_rows,
    sigmoid,
    softmax,
)
from repro.autograd.ops_loss import cross_entropy, mse_loss
from repro.autograd.ops_fused import (
    attention_core,
    bias_gelu,
    dropout_residual,
    linear_bias,
    masked_softmax,
    softmax_cross_entropy,
)
from repro.autograd.grad_check import check_gradients, numerical_grad
from repro.autograd import graph
from repro.autograd.graph import CaptureSession, GraphInvalidated, StepGraph
from repro.autograd import lower


__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "inference_mode",
    "is_inference",
    "zeros",
    "ones",
    "full",
    "randn",
    "Context",
    "Function",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_",
    "abs_",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "maximum",
    "sum_",
    "mean",
    "max_",
    "reshape",
    "transpose",
    "getitem",
    "concatenate",
    "stack",
    "matmul",
    "where",
    "clip",
    "relu",
    "gelu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "layer_norm",
    "dropout",
    "embedding",
    "gather_rows",
    "scatter_rows",
    "ACTIVATIONS",
    "cross_entropy",
    "mse_loss",
    "check_gradients",
    "numerical_grad",
    "arena",
    "stats",
    "get_arena",
    "attention_core",
    "bias_gelu",
    "dropout_residual",
    "linear_bias",
    "masked_softmax",
    "softmax_cross_entropy",
    "steady_state",
    "graph",
    "CaptureSession",
    "GraphInvalidated",
    "StepGraph",
    "lower",
]
