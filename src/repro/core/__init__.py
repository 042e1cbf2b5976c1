"""The paper's primary contribution: dropless MoE via block sparsity."""

from repro.core.dmoe import dMoE
from repro.core.topology_builder import expert_of_padded_row, make_topology

__all__ = [
    "dMoE",
    "make_topology",
    "expert_of_padded_row",
]
