"""Threadblock tiling model (paper §5 preliminaries, Figure 4).

A matmul kernel partitions the output into ``tile_m x tile_n`` tiles, one
threadblock each.  Tile shape trades arithmetic intensity (bigger tiles
reuse operands more) against parallelism (fewer tiles means idle SMs and
wave quantization).  The tile set mirrors the CUTLASS 2.5 configurations
the paper benchmarks, keeping the "first dimension larger" orientation
they report as slightly faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.utils.shapes import ceil_div


@dataclass(frozen=True)
class TileConfig:
    """One threadblock tile shape.

    Attributes:
        m / n: output tile dimensions.
        k: k-loop slice per main-loop iteration.
        threadblocks_per_sm: co-resident threadblocks (occupancy); large
            tiles exhaust registers/shared memory and run one per SM.
    """

    m: int
    n: int
    k: int = 32
    threadblocks_per_sm: int = 1

    @property
    def label(self) -> str:
        return f"{self.m}x{self.n}"

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per fp16 byte moved for this tile's operand traffic.

        Per k-slice the tile loads ``(m + n) * k`` elements and computes
        ``2 * m * n * k`` FLOPs, so intensity is ``m*n/(m+n)`` FLOP/elem.
        """
        return self.m * self.n / (self.m + self.n)

    def grid(self, problem_m: int, problem_n: int) -> int:
        """Number of threadblocks for an ``problem_m x problem_n`` output."""
        return ceil_div(problem_m, self.m) * ceil_div(problem_n, self.n)

    def padded_output(self, problem_m: int, problem_n: int) -> int:
        """Output elements including tile-boundary padding waste."""
        return (
            ceil_div(problem_m, self.m)
            * self.m
            * ceil_div(problem_n, self.n)
            * self.n
        )


#: CUTLASS 2.5 tile shapes benchmarked in Figure 4 (first dim >= second).
CUTLASS_TILES: List[TileConfig] = [
    TileConfig(64, 64, threadblocks_per_sm=4),
    TileConfig(128, 64, threadblocks_per_sm=2),
    TileConfig(128, 128, threadblocks_per_sm=1),
    TileConfig(256, 64, threadblocks_per_sm=1),
    TileConfig(256, 128, threadblocks_per_sm=1),
]

#: The configuration MegaBlocks selects (§5.1.2).
MEGABLOCKS_TILE = TileConfig(128, 128, threadblocks_per_sm=1)


def waves(grid: int, sm_count: int, threadblocks_per_sm: int) -> int:
    """Full scheduling waves needed to run ``grid`` threadblocks."""
    return ceil_div(grid, sm_count * threadblocks_per_sm)


def wave_utilization(grid: int, sm_count: int, threadblocks_per_sm: int) -> float:
    """Fraction of threadblock slots doing useful work across all waves.

    The last partial wave runs as slowly as a full one (wave
    quantization), so utilization is ``grid / (waves * slots)``.
    """
    if grid <= 0:
        return 0.0
    slots = sm_count * threadblocks_per_sm
    return grid / (waves(grid, sm_count, threadblocks_per_sm) * slots)
