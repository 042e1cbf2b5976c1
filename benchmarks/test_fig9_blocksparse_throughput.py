"""Figure 9 — block-sparse matmul vs cuBLAS batched matmul.

The paper benchmarks the 18 problem configurations of MoE-XS/Small/Medium
training (6 ops x 3 models, uniform token distribution, Table 3 micro
batch sizes) and reports 98.6% +- 4% of cuBLAS throughput (min 91%, max
104%).  Here the comparison runs on the A100 performance model, and a
*wall-clock* companion benchmark times the actual NumPy kernels against
an equivalent batched-matmul formulation.
"""

import numpy as np

from repro.gpu.blocksparse import block_sparse_op_time, moe_layer_problems
from repro.gpu.device import A100_SXM4_80GB as A100
from repro.gpu.matmul import batched_matmul_time
from repro.gpu.tiling import MEGABLOCKS_TILE
from repro.observability import registry
from repro.sparse import Topology, dds, dispatch_mode, dsd, sdd, stats
from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.topology import INDEX_DTYPE
from repro.utils.timing import Timer

from harness import SMOKE, print_header

OPS = ["fwd1", "fwd2", "bwd2_data", "bwd2_weight", "bwd1_data", "bwd1_weight"]
MODELS = {"XS": (512, 64), "Small": (768, 32), "Medium": (1024, 8)}
LOCAL_EXPERTS = 8  # 64 experts, 8-way expert parallel


def _relative_throughputs():
    rows = []
    for name, (h, mbs) in MODELS.items():
        f = 4 * h
        tokens_per_expert = mbs * 128  # uniform distribution per §6.3
        for op in OPS:
            p = moe_layer_problems([tokens_per_expert] * LOCAL_EXPERTS, h, f, op)[0]
            t_bs = block_sparse_op_time(
                [tokens_per_expert] * LOCAL_EXPERTS, h, f, op, A100
            ).total_s
            t_cb = batched_matmul_time(
                LOCAL_EXPERTS, p.m, p.n, p.k, MEGABLOCKS_TILE, A100
            ).total_s
            rows.append((name, op, t_cb / t_bs))
    return rows


def test_fig9_modeled_relative_throughput(benchmark):
    rows = benchmark(_relative_throughputs)
    print_header(
        "Figure 9: Block-Sparse Throughput Relative to cuBLAS (modeled A100)"
    )
    for name, op, rel in rows:
        print(f"MoE-{name:7} {op:12} {rel * 100:6.1f}%")
    rels = np.array([r for _, _, r in rows])
    print(
        f"\nmean {rels.mean()*100:.1f}% (paper 98.6%)  "
        f"std {rels.std()*100:.1f}% (paper 4%)  "
        f"min {rels.min()*100:.1f}% (paper 91%)  "
        f"max {rels.max()*100:.1f}% (paper 104%)"
    )
    assert len(rels) == 18
    assert 0.95 <= rels.mean() <= 1.02
    assert rels.min() >= 0.88
    assert rels.max() <= 1.06


def test_fig9_wallclock_numpy_kernels(benchmark):
    """Wall-clock companion: our NumPy SDD vs numpy batched matmul on a
    uniform block-diagonal problem (same math, CPU substrate)."""
    E, bs = 8, 16
    tokens, hidden, ffn = 16 * bs, 64, 8 * bs
    topo = Topology.block_diagonal(
        np.full(E, tokens // bs), np.full(E, ffn // bs), bs
    )
    x = np.random.default_rng(0).standard_normal((E * tokens, hidden)).astype(np.float32)
    w = np.random.default_rng(1).standard_normal((hidden, E * ffn)).astype(np.float32)

    stats.reset()
    result = benchmark(lambda: sdd(x, w, topo))
    grouped = registry().counter("sparse/sdd/grouped").value
    blocked = registry().counter("sparse/sdd/blocked").value
    print(
        f"\nsdd dispatch on block-diagonal MoE shape: "
        f"{grouped} grouped / {blocked} per-block calls"
    )
    # The dMoE topology must be served by the grouped-GEMM fast path.
    assert grouped >= 1 and blocked == 0
    # Correctness spot check against per-expert dense matmuls.
    xe = x.reshape(E, tokens, hidden)
    we = w.reshape(hidden, E, ffn).transpose(1, 0, 2)
    want = np.matmul(xe, we)
    got = result.to_dense().reshape(E, tokens, E, ffn)
    for e in range(E):
        np.testing.assert_allclose(got[e, :, e], want[e], rtol=2e-2, atol=1e-3)


# ----------------------------------------------------------------------
# Grouped-GEMM fast path vs per-block dispatch, full six-op MoE suite
# ----------------------------------------------------------------------
def _dmoe_kernel_suite(topo, x, w1, w2, dy):
    """The six products of one dMoE layer step (forward + backward)."""
    h = sdd(x, w1, topo)                                   # fwd1
    y = dsd(h, w2)                                         # fwd2
    dh = sdd(dy, w2, topo, trans_b=True)                   # bwd2 data (SDD^T)
    dw2 = dsd(h, dy, trans_s=True)                         # bwd2 weight (DS^TD)
    dhm = BlockSparseMatrix(topo, dh.values)
    dx = dsd(dhm, w1, trans_b=True)                        # bwd1 data (DSD^T)
    dw1 = dds(x, dhm, trans_a=True)                        # bwd1 weight (DD^TS)
    return y, dx, dw1, dw2


def test_fig9_wallclock_grouped_vs_blocked(benchmark):
    """Measured speedup of the grouped-GEMM dispatch over the per-block
    path on the block-diagonal dMoE shapes, across all six ops."""
    if SMOKE:
        E, bs, tok_blocks, hidden, ffn_blocks, iters = 4, 8, 4, 32, 4, 2
    else:
        E, bs, tok_blocks, hidden, ffn_blocks, iters = 8, 16, 16, 128, 8, 10
    topo = Topology.block_diagonal(
        np.full(E, tok_blocks), np.full(E, ffn_blocks), bs
    )
    T, n = topo.shape
    rng = np.random.default_rng(0)
    x = rng.standard_normal((T, hidden)).astype(np.float32)
    w1 = rng.standard_normal((hidden, n)).astype(np.float32)
    w2 = rng.standard_normal((n, hidden)).astype(np.float32)
    dy = rng.standard_normal((T, hidden)).astype(np.float32)

    def run(mode):
        with dispatch_mode(mode):
            return _dmoe_kernel_suite(topo, x, w1, w2, dy)

    # Equivalence of the two paths on this exact problem first (float32
    # tolerance: the paths sum partial products in different orders; the
    # bit-level equivalence tests run in float64 in tests/sparse).
    got = run("grouped")
    want = run("blocked")
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=2e-2, atol=1e-3)

    t_grouped, t_blocked = Timer(), Timer()
    stats.reset()
    for _ in range(iters):
        with t_blocked:
            run("blocked")
        with t_grouped:
            run("grouped")
    reg = registry()
    calls = {
        op: (reg.counter(f"sparse/{op}/grouped").value,
             reg.counter(f"sparse/{op}/blocked").value)
        for op in ("sdd", "dsd", "ds^td", "dds")
    }

    benchmark.pedantic(lambda: run("grouped"), rounds=1, iterations=1)
    speedup = t_blocked.mean / t_grouped.mean
    print_header(
        "Figure 9 companion: grouped-GEMM vs per-block dispatch "
        f"(E={E}, bs={bs}, tokens={T}, ffn={ffn_blocks * bs})"
    )
    print(
        f"six-op suite: per-block {t_blocked.mean * 1e3:8.2f} ms   "
        f"grouped {t_grouped.mean * 1e3:8.2f} ms   speedup {speedup:.2f}x"
    )
    # Every op must have taken both paths exactly `iters` times.
    for op, (grouped, blocked) in calls.items():
        print(f"{op:6} {grouped:4d} grouped / {blocked:4d} per-block calls")
        assert grouped == blocked and grouped % iters == 0, op
    # The fast path must actually be faster on the MoE shapes (generous
    # margin: CPU wall-clock under CI noise).
    assert speedup > 1.0
