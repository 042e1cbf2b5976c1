"""Block-sparse matrix topology: hybrid blocked-CSR-COO with transpose indices.

This module implements the sparse-matrix metadata of MegaBlocks §5.1.3-5.1.4
(Figure 5).  A :class:`Topology` describes *which* ``block_size x block_size``
blocks of a matrix are nonzero; the values live separately in
:class:`~repro.sparse.matrix.BlockSparseMatrix`.

Three encodings coexist over one value array (kept in BCSR order):

- **BCSR** (primary): ``row_offsets`` + ``column_indices`` — cheap iteration
  over the nonzeros of a block row (needed by DSD and DDS^T).
- **COO row indices** (§5.1.3): ``row_indices`` materialized per block so an
  SDD "threadblock" can find its output coordinates with one lookup instead
  of a search through ``row_offsets`` — or instead of over-launching one
  threadblock per dense block and returning early (Gale et al., 2020),
  which the paper found too costly at MoE sparsity levels.
- **Transpose indices** (§5.1.4): a secondary index in transposed
  (column-major) order.  ``transpose_block_offsets[k]`` is the position in
  the value array of the k-th block when iterating the *transposed* matrix;
  no values are ever copied, mirroring a database secondary index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.utils.shapes import ceil_div

INDEX_DTYPE = np.int32


@dataclass(frozen=True)
class Topology:
    """Sparsity pattern of a block-sparse matrix.

    Attributes:
        shape: matrix shape in *elements*; both dims must be multiples of
            ``block_size``.
        block_size: side length of the square nonzero blocks (128 in the
            paper; configurable here so tests can run small).
        row_offsets: BCSR row pointer, length ``block_rows + 1``.
        column_indices: block-column of each nonzero, BCSR order.
        row_indices: block-row of each nonzero (the COO half of the hybrid
            encoding), BCSR order.
        transpose_block_offsets: positions into the value/metadata arrays
            listing nonzero blocks in transposed (column-major) order.
        transpose_row_offsets: row pointer of the transposed matrix,
            length ``block_cols + 1``.
        live_rows: optional per-group count of rows that hold data, one
            entry per dense rectangular group in row order (for a dMoE
            topology: the tokens routed to each non-empty expert).  The
            rows of a group beyond its count are *structural zeros* —
            block-rounding padding — which the grouped kernels skip and
            every sparse op leaves as ``+0.0`` in what it produces
            (:mod:`repro.sparse.dispatch`, "Structural-zero rows").
            ``None``: every row is live.  It
            annotates the rows, not the pattern, so it takes no part in
            ``==`` / ``hash``.  Attach with
            :func:`repro.sparse.dispatch.with_live_rows`.
        memo: metadata derived from the index arrays (dispatch plan,
            group table, segment tables), filled lazily by the kernels.
            Live-row views of one topology share it.
    """

    shape: Tuple[int, int]
    block_size: int
    row_offsets: np.ndarray
    column_indices: np.ndarray
    row_indices: np.ndarray = field(repr=False)
    transpose_block_offsets: np.ndarray = field(repr=False)
    transpose_row_offsets: np.ndarray = field(repr=False)
    live_rows: Optional[np.ndarray] = field(default=None, repr=False)
    memo: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_block_mask(mask: np.ndarray, block_size: int) -> "Topology":
        """Build a topology from a dense boolean grid of nonzero blocks.

        ``mask[r, c]`` marks block ``(r, c)`` nonzero.  The value order is
        BCSR (row-major over nonzero blocks).
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"block mask must be 2-D, got shape {mask.shape}")
        block_rows, block_cols = mask.shape
        rows, cols = np.nonzero(mask)
        row_indices = rows.astype(INDEX_DTYPE)
        column_indices = cols.astype(INDEX_DTYPE)
        row_offsets = np.zeros(block_rows + 1, dtype=INDEX_DTYPE)
        row_offsets[1:] = np.cumsum(np.bincount(rows, minlength=block_rows))
        return Topology._finish(
            shape=(block_rows * block_size, block_cols * block_size),
            block_size=block_size,
            row_offsets=row_offsets,
            column_indices=column_indices,
            row_indices=row_indices,
        )

    @staticmethod
    def block_diagonal(
        rows_per_block_group: np.ndarray,
        cols_per_block_group: np.ndarray,
        block_size: int,
    ) -> "Topology":
        """Topology of Figure 3C: a block-diagonal matrix with variable-sized
        diagonal groups, each tiled by ``block_size`` blocks.

        ``rows_per_block_group[e]`` / ``cols_per_block_group[e]`` give the
        number of *block* rows/cols of group ``e`` (e.g. tokens assigned to
        expert ``e`` divided by block size, and ``ffn_hidden_size`` divided
        by block size).  This is the dMoE activation topology.
        """
        rows_per = np.asarray(rows_per_block_group, dtype=np.int64)
        cols_per = np.asarray(cols_per_block_group, dtype=np.int64)
        if rows_per.shape != cols_per.shape:
            raise ValueError("group row/col arrays must have the same length")
        if (rows_per < 0).any() or (cols_per < 0).any():
            raise ValueError("group sizes must be non-negative")

        block_rows = int(rows_per.sum())
        block_cols = int(cols_per.sum())
        col_starts = np.concatenate([[0], np.cumsum(cols_per)])

        # Vectorized nonzero enumeration (no per-group Python loop): each
        # block row of group ``e`` holds ``cols_per[e]`` nonzeros starting
        # at ``col_starts[e]``, laid out row-major.
        cols_per_row = np.repeat(cols_per, rows_per)  # (block_rows,)
        col_start_per_row = np.repeat(col_starts[:-1], rows_per)
        rows = np.repeat(np.arange(block_rows, dtype=np.int64), cols_per_row)
        nnz = int(cols_per_row.sum())
        row_first = np.concatenate([[0], np.cumsum(cols_per_row)])[:-1]
        cols = (
            np.arange(nnz, dtype=np.int64)
            - np.repeat(row_first, cols_per_row)
            + np.repeat(col_start_per_row, cols_per_row)
        )

        row_offsets = np.zeros(block_rows + 1, dtype=INDEX_DTYPE)
        row_offsets[1:] = np.cumsum(np.bincount(rows, minlength=block_rows))
        return Topology._finish(
            shape=(block_rows * block_size, block_cols * block_size),
            block_size=block_size,
            row_offsets=row_offsets,
            column_indices=cols.astype(INDEX_DTYPE),
            row_indices=rows.astype(INDEX_DTYPE),
        )

    @staticmethod
    def dense(rows: int, cols: int, block_size: int) -> "Topology":
        """Fully dense topology (every block nonzero); useful in tests."""
        if rows % block_size or cols % block_size:
            raise ValueError("dims must be multiples of block_size")
        mask = np.ones((rows // block_size, cols // block_size), dtype=bool)
        return Topology.from_block_mask(mask, block_size)

    @staticmethod
    def _finish(shape, block_size, row_offsets, column_indices, row_indices):
        """Derive the transpose secondary index and build the instance."""
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        block_cols = shape[1] // block_size
        # Stable sort by (column, row): transposed row-major order.  Each
        # entry is an offset into the BCSR-ordered value array (§5.1.4).
        transpose_block_offsets = np.lexsort((row_indices, column_indices)).astype(
            INDEX_DTYPE
        )
        transpose_row_offsets = np.zeros(block_cols + 1, dtype=INDEX_DTYPE)
        transpose_row_offsets[1:] = np.cumsum(
            np.bincount(column_indices, minlength=block_cols)
        )
        return Topology(
            shape=tuple(shape),
            block_size=block_size,
            row_offsets=row_offsets.astype(INDEX_DTYPE),
            column_indices=column_indices.astype(INDEX_DTYPE),
            row_indices=row_indices.astype(INDEX_DTYPE),
            transpose_block_offsets=transpose_block_offsets,
            transpose_row_offsets=transpose_row_offsets,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def block_rows(self) -> int:
        return self.shape[0] // self.block_size

    @property
    def block_cols(self) -> int:
        return self.shape[1] // self.block_size

    @property
    def nnz_blocks(self) -> int:
        return len(self.column_indices)

    @property
    def nnz(self) -> int:
        """Nonzero elements (blocks are dense inside)."""
        return self.nnz_blocks * self.block_size * self.block_size

    @property
    def density(self) -> float:
        total = self.block_rows * self.block_cols
        return self.nnz_blocks / total if total else 0.0

    @property
    def transpose_row_indices(self) -> np.ndarray:
        """Block-column indices of the transposed matrix (derived view)."""
        return self.row_indices[self.transpose_block_offsets]

    def to_block_mask(self) -> np.ndarray:
        """Dense boolean grid of nonzero blocks."""
        mask = np.zeros((self.block_rows, self.block_cols), dtype=bool)
        mask[self.row_indices, self.column_indices] = True
        return mask

    def transpose(self) -> "Topology":
        """Topology of the transposed matrix (fresh primary encoding)."""
        return Topology.from_block_mask(self.to_block_mask().T, self.block_size)

    def validate(self) -> None:
        """Check all structural invariants; raises ``ValueError`` on failure.

        Exercised heavily by property-based tests: BCSR ordering, offset
        consistency, COO/CSR agreement, and that the transpose index is a
        permutation sorted by (column, row).
        """
        br, bc, nnz = self.block_rows, self.block_cols, self.nnz_blocks
        if self.shape[0] % self.block_size or self.shape[1] % self.block_size:
            raise ValueError(f"shape {self.shape} not divisible by block size")
        if len(self.row_offsets) != br + 1:
            raise ValueError("row_offsets has wrong length")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != nnz:
            raise ValueError("row_offsets endpoints invalid")
        if (np.diff(self.row_offsets) < 0).any():
            raise ValueError("row_offsets must be non-decreasing")
        if len(self.row_indices) != nnz or len(self.transpose_block_offsets) != nnz:
            raise ValueError("metadata arrays disagree on nnz")
        if nnz and (
            self.column_indices.min() < 0 or self.column_indices.max() >= bc
        ):
            raise ValueError("column index out of range")
        # COO rows must match CSR expansion.
        expanded = np.repeat(np.arange(br), np.diff(self.row_offsets))
        if not np.array_equal(expanded, self.row_indices):
            raise ValueError("row_indices disagree with row_offsets")
        # Columns sorted within each row (canonical BCSR) and unique blocks.
        for r in range(br):
            seg = self.column_indices[self.row_offsets[r] : self.row_offsets[r + 1]]
            if (np.diff(seg) <= 0).any():
                raise ValueError(f"columns not strictly increasing in row {r}")
        # Transpose index: a permutation, sorted by (col, row).
        perm = self.transpose_block_offsets
        if not np.array_equal(np.sort(perm), np.arange(nnz)):
            raise ValueError("transpose_block_offsets is not a permutation")
        tc = self.column_indices[perm]
        tr = self.row_indices[perm]
        order = np.lexsort((tr, tc))
        if not np.array_equal(order, np.arange(nnz)):
            raise ValueError("transpose index not in (col, row) order")
        if len(self.transpose_row_offsets) != bc + 1:
            raise ValueError("transpose_row_offsets has wrong length")
        if not np.array_equal(
            np.diff(self.transpose_row_offsets),
            np.bincount(self.column_indices, minlength=bc),
        ):
            raise ValueError("transpose_row_offsets disagree with column counts")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.block_size == other.block_size
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.column_indices, other.column_indices)
        )

    def __hash__(self):
        return hash((self.shape, self.block_size, self.nnz_blocks))


def metadata_bytes(topology: Topology) -> int:
    """Bytes of sparse metadata — tiny relative to values (paper §5.1.3-4:
    one index per 128*128 = 16384 values)."""
    itemsize = np.dtype(INDEX_DTYPE).itemsize
    return itemsize * (
        len(topology.row_offsets)
        + len(topology.column_indices)
        + len(topology.row_indices)
        + len(topology.transpose_block_offsets)
        + len(topology.transpose_row_offsets)
    )
