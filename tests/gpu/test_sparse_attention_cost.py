import pytest

from repro.gpu.sparse_attention_cost import (
    dense_attention_time,
    sparse_attention_time,
)


class TestDenseAttentionTime:
    def test_quadratic_in_sequence(self):
        t1 = dense_attention_time(2048, 16, 64, 8)
        t2 = dense_attention_time(4096, 16, 64, 8)
        assert 2.5 < t2 / t1 < 6.0  # ~4x for the quadratic parts

    def test_positive(self):
        assert dense_attention_time(1024, 8, 64, 1) > 0


class TestSparseAttentionTime:
    def test_linear_in_window(self):
        t2 = sparse_attention_time(8192, 2, 16, 64, 8)
        t8 = sparse_attention_time(8192, 8, 16, 64, 8)
        assert 2.0 < t8 / t2 < 5.0

    def test_rejects_indivisible_seq(self):
        with pytest.raises(ValueError):
            sparse_attention_time(1000, 2, 8, 64, 1)

    def test_full_window_close_to_dense(self):
        """window = all blocks ~ dense causal attention cost (within 2x:
        the sparse path keeps the causal half only, dense computes all)."""
        seq = 4096
        dense = dense_attention_time(seq, 16, 64, 8)
        sparse = sparse_attention_time(seq, seq // 128, 16, 64, 8)
        assert sparse < dense * 1.2  # causal band is ~half the dense work

    def test_narrow_window_much_cheaper_at_long_seq(self):
        """The §4 payoff: at long sequences a local window wins big."""
        seq = 16384
        dense = dense_attention_time(seq, 16, 64, 4)
        sparse = sparse_attention_time(seq, 4, 16, 64, 4)
        assert sparse < dense / 4
