"""Learned top-k MoE router (Shazeer et al., 2017 style).

Tokens are projected to ``num_experts`` scores, softmax-normalized, and the
top-k experts are selected greedily.  The router also produces:

- per-assignment *weights* (the selected probabilities), differentiable so
  the final output scaling trains the router;
- the auxiliary *load-balancing loss* (Switch Transformer form):
  ``num_experts * sum_e f_e * P_e`` with ``f_e`` the dispatched token
  fraction and ``P_e`` the mean router probability for expert ``e``;
- optionally a *router z-loss* penalizing large logits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.autograd import getitem, mean, softmax, sum_
from repro.autograd.graph import host as graph_host
from repro.autograd.tensor import Tensor, is_inference
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.resilience import counters
from repro.utils.rng import RngLike, get_rng


@dataclass
class RoutingResult:
    """Output of a router forward pass over ``num_tokens`` tokens.

    Attributes:
        expert_indices: ``(num_tokens, top_k)`` int array of expert ids,
            ordered best-first.
        expert_weights: ``(num_tokens, top_k)`` Tensor of assignment
            probabilities (differentiable).
        scores: ``(num_tokens, num_experts)`` full softmax scores Tensor.
        load_balancing_loss: scalar Tensor (already scaled by the loss
            coefficient), or None when the coefficient is zero.
        z_loss: scalar Tensor or None.
    """

    expert_indices: np.ndarray
    expert_weights: Tensor
    scores: Tensor
    load_balancing_loss: Optional[Tensor]
    z_loss: Optional[Tensor]

    @property
    def aux_loss(self) -> Optional[Tensor]:
        """Sum of the enabled auxiliary losses."""
        losses = [l for l in (self.load_balancing_loss, self.z_loss) if l is not None]
        if not losses:
            return None
        total = losses[0]
        for l in losses[1:]:
            total = total + l
        return total


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Greedy top-k expert ids per row, best-first, deterministic ties.

    Ties break toward the lower expert id (stable), so routing is
    reproducible across runs.
    """
    num_experts = scores.shape[-1]
    if not 1 <= k <= num_experts:
        raise ValueError(f"top_k={k} out of range for {num_experts} experts")
    # argsort on (-score, id): stable lexicographic tie-break.
    order = (-scores).argsort(axis=-1, kind="stable")
    return order[..., :k]


def _lb_fractions(expert_indices: np.ndarray, num_experts: int) -> np.ndarray:
    """Dispatch fraction per expert, ``f_e`` — a host computation so a
    captured graph recomputes it from the step's live routing."""
    counts = np.bincount(expert_indices.reshape(-1), minlength=num_experts)
    f = counts.astype(np.float64) / max(expert_indices.size, 1)
    return f.astype(np.float32)


def load_balancing_loss(
    scores: Tensor, expert_indices: np.ndarray, num_experts: int
) -> Tensor:
    """Switch-Transformer auxiliary loss: ``E * sum_e f_e * P_e``.

    ``f_e`` (dispatch fractions) is treated as a constant; gradients flow
    through the mean probabilities ``P_e`` only, as in the reference
    implementations.
    """
    f = graph_host(_lb_fractions, expert_indices, num_experts)
    p = mean(scores, axis=0)  # (num_experts,)
    return sum_(p * f) * float(num_experts)


def _jitter_noise(rng, eps: float, shape, dtype) -> np.ndarray:
    """Multiplicative jitter draw — host-recorded so replays advance the
    router RNG stream exactly like eager steps do."""
    return rng.uniform(1.0 - eps, 1.0 + eps, size=shape).astype(dtype)


def _logits_finite(logits: np.ndarray) -> bool:
    return bool(np.isfinite(logits).all())


def router_z_loss(logits: Tensor) -> Tensor:
    """Mean squared log-partition-function (ST-MoE z-loss)."""
    # logsumexp via stable composition of autograd primitives.
    m = logits.max(axis=-1, keepdims=True)
    lse = (logits - m).exp().sum(axis=-1).log() + m.reshape((logits.shape[0],))
    return mean(lse * lse)


class Router(Module):
    """Learned linear router with softmax normalization and top-k selection.

    Args:
        hidden_size: input feature width.
        num_experts: number of experts to score.
        top_k: experts per token (1-4 typical; the paper uses 1).
        load_balance_coef: multiplier on the auxiliary balancing loss
            (0 disables).
        z_loss_coef: multiplier on the router z-loss (0 disables).
        jitter_eps: multiplicative input jitter amplitude during training
            (Switch uses 1e-2; 0 disables).
        normalize_weights: renormalize the selected top-k probabilities
            to sum to 1 per token (common for top-2 MoEs; irrelevant for
            top-1 where Switch uses the raw probability).
    """

    def __init__(
        self,
        hidden_size: int,
        num_experts: int,
        top_k: int = 1,
        load_balance_coef: float = 0.01,
        z_loss_coef: float = 0.0,
        jitter_eps: float = 0.0,
        normalize_weights: bool = False,
        init_std: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if top_k < 1 or top_k > num_experts:
            raise ValueError(f"top_k={top_k} invalid for {num_experts} experts")
        self.hidden_size = hidden_size
        self.num_experts = num_experts
        self.top_k = top_k
        self.load_balance_coef = load_balance_coef
        self.z_loss_coef = z_loss_coef
        self.jitter_eps = jitter_eps
        self.normalize_weights = normalize_weights
        self._rng = get_rng(rng)
        self.proj = Linear(hidden_size, num_experts, bias=False, init_std=init_std, rng=rng)

    def forward(self, x: Tensor) -> RoutingResult:
        """Route a flat batch of tokens ``x`` of shape (num_tokens, hidden)."""
        if x.ndim != 2:
            raise ValueError(f"router expects (tokens, hidden), got {x.shape}")
        if self.training and self.jitter_eps > 0 and not is_inference():
            noise = graph_host(
                _jitter_noise, self._rng, self.jitter_eps, x.shape, x.dtype
            )
            x = x * Tensor(noise)
        # Non-finite weights/inputs are handled by the fallback below, so
        # the projection is allowed to produce NaN/Inf without warning.
        with np.errstate(invalid="ignore", over="ignore"):
            logits = self.proj(x)
        return self.route(logits)

    def route(self, logits: Tensor) -> RoutingResult:
        """Everything after the projection: softmax, top-k and weights
        of ``(num_tokens, num_experts)`` router logits."""
        # Guarded host check: a captured graph freezes this branch, so a
        # replay whose logits flip finiteness invalidates and recaptures.
        if not graph_host(_logits_finite, logits.data, guard=True):
            return self._uniform_fallback(logits.shape[0], logits.data.dtype)
        scores = softmax(logits, axis=-1)

        indices = graph_host(top_k_indices, scores.data, self.top_k)
        rows = np.arange(indices.shape[0])[:, None]
        weights = getitem(scores, (rows, indices))  # differentiable gather
        if self.normalize_weights and self.top_k > 1:
            weights = weights / sum_(weights, axis=-1, keepdims=True)

        lb = None
        zl = None
        if not is_inference():
            # Serving skips the auxiliary losses entirely: nothing trains,
            # and both reduce over the token batch, which would make the
            # (unused) result depend on decode-batch composition.
            if self.load_balance_coef > 0:
                lb = load_balancing_loss(scores, indices, self.num_experts) * float(
                    self.load_balance_coef
                )
            if self.z_loss_coef > 0:
                zl = router_z_loss(logits) * float(self.z_loss_coef)
        return RoutingResult(
            expert_indices=indices,
            expert_weights=weights,
            scores=scores,
            load_balancing_loss=lb,
            z_loss=zl,
        )

    def _uniform_fallback(self, num_tokens: int, dtype) -> RoutingResult:
        """Graceful degradation when router logits go non-finite.

        A poisoned projection (NaN/Inf logits) would otherwise propagate
        NaN through softmax into the topology build and the whole batch.
        Instead, tokens are spread round-robin across experts with
        constant ``1/num_experts`` weights — balanced, deterministic,
        and detached from the tape so no gradient trains the router from
        garbage.  The ``router_fallback`` counter records the event.
        """
        graph_host(counters.increment, "router_fallback")
        base = np.arange(num_tokens, dtype=np.int64)[:, None]
        offsets = np.arange(self.top_k, dtype=np.int64)[None, :]
        indices = (base + offsets) % self.num_experts
        uniform = 1.0 / self.num_experts
        weight_value = (
            1.0 / self.top_k
            if self.normalize_weights and self.top_k > 1
            else uniform
        )
        weights = Tensor(
            np.full((num_tokens, self.top_k), weight_value, dtype=dtype)
        )
        scores = Tensor(
            np.full((num_tokens, self.num_experts), uniform, dtype=dtype)
        )
        return RoutingResult(
            expert_indices=indices,
            expert_weights=weights,
            scores=scores,
            load_balancing_loss=None,
            z_loss=None,
        )
