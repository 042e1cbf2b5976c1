"""Helpers for the expert-parallel tests: a rank function that builds an
:class:`ExpertParallelDMoE` on its group and runs it, and the
single-process dMoE's own autograd on the concatenated batch."""

import numpy as np

from repro.autograd import Tensor
from repro.core import dMoE
from repro.distributed import ExpertParallelDMoE

SHARD = ("w1", "b1", "w2", "b2")


def make_layer(experts=12, top_k=1, hidden=16, ffn=32, bs=4, seed=0, router=None):
    """An eval-mode dMoE with float64 parameters and no auxiliary loss,
    so its gradients compare to 1e-9."""
    layer = dMoE(
        hidden, ffn, experts, top_k=top_k, block_size=bs, rng=seed,
        load_balance_coef=0.0, router=router,
    )
    for p in layer.parameters():
        p.data = p.data.astype(np.float64)
    return layer.eval()


def ep_rank(layer, xs, gs=None, retry_policy=None, before_backward=None):
    """A ``run_distributed`` rank function: build the rank's layer, run
    ``xs[rank]`` forward and, when ``gs`` is given, ``out.backward``
    with ``gs[rank]`` (after ``before_backward(group)``, when given).
    Returns what the rank read, as a dict."""

    def fn(group):
        ep = ExpertParallelDMoE(layer, group, retry_policy=retry_policy)
        x = Tensor(xs[group.rank], requires_grad=gs is not None)
        out, _ = ep(x)
        res = {"output": out.data}
        if gs is not None:
            if before_backward is not None:
                before_backward(group)
            out.backward(gs[group.rank])
            res["input_grad"] = x.grad
            res["router_grads"] = {
                n: p.grad for n, p in ep.router.named_parameters()
            }
            res["shard_grads"] = {n: getattr(ep, n).grad for n in SHARD}
        res.update(
            comm_log=ep.comm_log,
            tokens_received=ep.tokens_received,
            corrupt_detected=ep.corrupt_detected,
            retries=ep.retries,
        )
        return res

    return fn


def single_process(layer, xs, gs):
    """The dMoE's own forward and backward on the concatenated batch:
    ``(output, input_grad, router_grads, expert_grads)``."""
    layer.zero_grad()
    x = Tensor(np.concatenate(xs), requires_grad=True)
    out, _ = layer(x)
    out.backward(np.concatenate(gs))
    router = {n: p.grad.copy() for n, p in layer.router.named_parameters()}
    experts = {n: p.grad.copy() for n, p in layer.experts.named_parameters()}
    layer.zero_grad()
    return out.data, x.grad, router, experts


def assert_matches_single_process(layer, xs, gs, ranks, atol=1e-9):
    """Outputs and input gradients concatenate, router gradients sum and
    shard gradients concatenate (in rank order) to the single-process
    layer's, within ``atol``."""
    out, dx, router, experts = single_process(layer, xs, gs)
    np.testing.assert_allclose(
        np.concatenate([r["output"] for r in ranks]), out, atol=atol
    )
    np.testing.assert_allclose(
        np.concatenate([r["input_grad"] for r in ranks]), dx, atol=atol
    )
    for name, ref in router.items():
        got = sum(r["router_grads"][name] for r in ranks)
        np.testing.assert_allclose(got, ref, atol=atol, err_msg=name)
    for name, ref in experts.items():
        # Expert weights are never all-reduced: the shards' gradients
        # concatenate to the full parameter's.
        got = np.concatenate([r["shard_grads"][name] for r in ranks])
        np.testing.assert_allclose(got, ref, atol=atol, err_msg=name)


def assert_ranks_equal(a, b, ignore=()):
    """Two ranks' dicts from :func:`ep_rank`, bit for bit, but for the
    keys in ``ignore``."""
    assert a.keys() == b.keys()
    for key in a:
        if key in ignore:
            continue
        if key == "comm_log":
            assert a[key].records == b[key].records
        elif isinstance(a[key], dict):
            assert a[key].keys() == b[key].keys()
            for k in a[key]:
                np.testing.assert_array_equal(
                    a[key][k], b[key][k], err_msg=f"{key}.{k}", strict=True
                )
        elif isinstance(a[key], np.ndarray):
            np.testing.assert_array_equal(a[key], b[key], err_msg=key, strict=True)
        else:
            assert a[key] == b[key], key
