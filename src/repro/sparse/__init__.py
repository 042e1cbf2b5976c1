"""Block-sparse kernel library — the MegaBlocks compute substrate.

Public surface:

- :class:`Topology` — hybrid blocked-CSR-COO metadata with transpose
  indices (paper §5.1.3-§5.1.4, Figure 5).
- :class:`BlockSparseMatrix` — topology + per-block values.
- :func:`sdd` / :func:`dsd` / :func:`dds` — the kernel family with all
  transpose variants (paper §5.1, Triton-style naming).  Each call is
  routed by :mod:`repro.sparse.dispatch`: block-diagonal (row-sorted
  rectangular) topologies take a grouped-GEMM fast path, everything else
  the general per-block path with segment-reduction accumulation.
- :func:`sdd_mm` / :func:`dsd_mm` — autograd-wrapped kernels used by the
  dMoE layer.
- :mod:`repro.sparse.stats` — per-op call/FLOP/row counts (registry
  counters ``sparse/*``) and the rates benchmarks report from them.
"""

from repro.sparse import dispatch, stats
from repro.sparse.dispatch import DispatchPlan, dispatch_mode
from repro.sparse.topology import Topology, metadata_bytes
from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.ops import add_bias_columns, dds, dsd, map_values, sdd
from repro.sparse.autograd_ops import dds_mm, dsd_mm, sdd_mm, sparse_bias_add
from repro.sparse.reference import (
    dds_reference,
    dsd_reference,
    element_mask,
    random_block_sparse,
    sdd_reference,
)
from repro.sparse.attention_ops import (
    banded_causal_topology,
    causal_block_mask,
    sparse_causal_softmax,
)
from repro.sparse import ablation
from repro.sparse import linalg

__all__ = [
    "Topology",
    "BlockSparseMatrix",
    "metadata_bytes",
    "sdd",
    "dsd",
    "dds",
    "map_values",
    "add_bias_columns",
    "sdd_mm",
    "dsd_mm",
    "dds_mm",
    "sparse_bias_add",
    "sdd_reference",
    "dsd_reference",
    "dds_reference",
    "element_mask",
    "random_block_sparse",
    "ablation",
    "linalg",
    "dispatch",
    "stats",
    "DispatchPlan",
    "dispatch_mode",
    "banded_causal_topology",
    "causal_block_mask",
    "sparse_causal_softmax",
]
