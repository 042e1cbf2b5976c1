"""Alternative MoE routing algorithms (paper §7, "MoE Routing").

The paper positions dMoE as *complementary* to improved routing; these
implementations let the two be combined and compared:

- :class:`BaseLayerRouter` — BASE layers (Lewis et al., 2021): routing as
  a balanced linear assignment maximizing aggregate token-expert
  affinity; guaranteed no drops and perfect balance.
- :class:`SinkhornRouter` — the approximation of Clark et al. (2022):
  Sinkhorn-normalize the score matrix toward a balanced transport plan,
  then route greedily; balance is approximate, so it is typically paired
  with a capacity factor.
- :func:`hash_assign` — static hash-based assignment (Roller et al.,
  2021): no learned routing at all.  It maps token ids, not hidden
  states, to experts, so it is an assignment function, not a router.

The two router layers return the same
:class:`~repro.moe.router.RoutingResult` contract as the learned top-k
router, so either can drive the dMoE layer.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import getitem, softmax
from repro.autograd.graph import host as graph_host
from repro.autograd.tensor import Tensor
from repro.moe.router import RoutingResult, load_balancing_loss
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.utils.rng import RngLike
from repro.utils.shapes import ceil_div


def _balanced_assignment(scores: np.ndarray, num_experts: int) -> np.ndarray:
    """BASE-layer expert ids, ``(tokens, 1)``: the Hungarian assignment
    of tokens to per-slot columns, slot ``j`` serving expert ``j %
    num_experts``.  A host computation, so a captured graph reassigns
    each replay's tokens instead of replaying the captured assignment."""
    num_tokens = scores.shape[0]
    slots = ceil_div(num_tokens, num_experts) * num_experts
    slot_expert = np.arange(slots) % num_experts
    # Imported here: SciPy costs ``import repro`` ≈ 0.5 s and 40 MB, and
    # only this router needs it.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-scores[:, slot_expert])
    return slot_expert[cols][np.argsort(rows)][:, None].astype(np.int64)


class BaseLayerRouter(Module):
    """BASE-layer routing: balanced linear assignment (Lewis et al. 2021).

    Tokens are assigned to experts so every expert receives an equal
    share (±1) while maximizing the total affinity, solved exactly with
    the Hungarian algorithm on a token x slot cost matrix.  Guaranteed
    dropless and perfectly balanced; cost is cubic in tokens, which is
    why Clark et al. (2022) sought the Sinkhorn approximation below.
    """

    def __init__(
        self,
        hidden_size: int,
        num_experts: int,
        init_std: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.num_experts = num_experts
        self.top_k = 1
        self.proj = Linear(
            hidden_size, num_experts, bias=False, init_std=init_std, rng=rng
        )

    def forward(self, x: Tensor) -> RoutingResult:
        if x.ndim != 2:
            raise ValueError(f"router expects (tokens, hidden), got {x.shape}")
        num_tokens = x.shape[0]
        logits = self.proj(x)
        scores = softmax(logits, axis=-1)
        indices = graph_host(_balanced_assignment, scores.data, self.num_experts)

        token_rows = np.arange(num_tokens)[:, None]
        weights = getitem(scores, (token_rows, indices))
        return RoutingResult(
            expert_indices=indices,
            expert_weights=weights,
            scores=scores,
            load_balancing_loss=None,  # balance is structural
            z_loss=None,
        )


def sinkhorn(scores: np.ndarray, iterations: int = 8, eps: float = 1e-9) -> np.ndarray:
    """Sinkhorn normalization toward a doubly-"stochastic" plan.

    Rows (tokens) normalize to 1; columns (experts) to tokens/experts —
    the balanced marginals of Clark et al. (2022).
    """
    plan = np.asarray(scores, dtype=np.float64).copy()
    if plan.ndim != 2:
        raise ValueError("sinkhorn expects a 2-D score matrix")
    num_tokens, num_experts = plan.shape
    col_target = num_tokens / num_experts
    for _ in range(iterations):
        plan /= plan.sum(axis=1, keepdims=True) + eps
        plan *= col_target / (plan.sum(axis=0, keepdims=True) + eps)
    return plan


def _sinkhorn_top1(scores: np.ndarray, iterations: int) -> np.ndarray:
    """Greedy top-1 expert ids, ``(tokens, 1)``, on the Sinkhorn plan of
    ``scores`` — a host computation, like :func:`_balanced_assignment`."""
    plan = sinkhorn(scores, iterations=iterations)
    return plan.argmax(axis=1)[:, None].astype(np.int64)


class SinkhornRouter(Module):
    """Approximately balanced routing via Sinkhorn (Clark et al. 2022).

    Greedy top-1 on the Sinkhorn-normalized plan; the result is *close*
    to balanced but not guaranteed, so Clark et al. pair it with a
    capacity factor of 2 — or, here, with the dropless dMoE.
    """

    def __init__(
        self,
        hidden_size: int,
        num_experts: int,
        iterations: int = 8,
        load_balance_coef: float = 0.0,
        init_std: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.num_experts = num_experts
        self.top_k = 1
        self.iterations = iterations
        self.load_balance_coef = load_balance_coef
        self.proj = Linear(
            hidden_size, num_experts, bias=False, init_std=init_std, rng=rng
        )

    def forward(self, x: Tensor) -> RoutingResult:
        if x.ndim != 2:
            raise ValueError(f"router expects (tokens, hidden), got {x.shape}")
        logits = self.proj(x)
        scores = softmax(logits, axis=-1)
        indices = graph_host(_sinkhorn_top1, scores.data, self.iterations)

        rows = np.arange(x.shape[0])[:, None]
        weights = getitem(scores, (rows, indices))
        lb = None
        if self.load_balance_coef > 0:
            lb = load_balancing_loss(scores, indices, self.num_experts) * float(
                self.load_balance_coef
            )
        return RoutingResult(
            expert_indices=indices,
            expert_weights=weights,
            scores=scores,
            load_balancing_loss=lb,
            z_loss=None,
        )


def hash_assign(token_ids: np.ndarray, num_experts: int, seed: int = 0) -> np.ndarray:
    """Static hash routing (Roller et al. 2021): expert = hash(token id).

    Returns one expert id per token id (``int64``, flattened).  Nothing is
    learned, and it reads raw token ids rather than hidden states, so it
    is not a router layer; the §7 bench compares its balance with the
    learned routers'.  Balance depends on the token distribution —
    skewed unigrams give skewed loads, which is exactly the behaviour
    Clark et al. observed underperforming learned routing.
    """
    # A fixed random multiplicative hash: reproducible, well mixed.
    mult = (0x9E3779B97F4A7C15 ^ (seed * 0xBF58476D1CE4E5B9)) % 2**64
    ids = np.asarray(token_ids, dtype=np.uint64).reshape(-1)
    mixed = ids * np.uint64(mult)
    mixed ^= mixed >> np.uint64(31)
    return (mixed % np.uint64(num_experts)).astype(np.int64)
