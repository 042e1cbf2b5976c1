"""Tables 1 and 2 regression: our formulas reproduce the paper's numbers."""

import pytest

from repro.configs import (
    TABLE1,
    TABLE1_EXPECTED,
    TABLE2,
    TABLE2_EXPECTED,
    TABLE3_MICRO_BATCH_SIZES,
    moe_train_flops,
    transformer_train_flops,
    transformer_train_gflops,
)


class TestTable1:
    @pytest.mark.parametrize("name", list(TABLE1))
    def test_weights_match_paper(self, name):
        cfg = TABLE1[name]
        want_m, _ = TABLE1_EXPECTED[name]
        got_m = cfg.num_parameters / 1e6
        assert abs(got_m - want_m) / want_m < 0.01

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_gflops_match_paper(self, name):
        cfg = TABLE1[name]
        _, want_g = TABLE1_EXPECTED[name]
        assert abs(transformer_train_gflops(cfg) - want_g) / want_g < 0.005

    def test_ffn_is_4x_hidden(self):
        for cfg in TABLE1.values():
            assert cfg.ffn_hidden_size == 4 * cfg.hidden_size

    def test_head_size_64(self):
        for cfg in TABLE1.values():
            assert cfg.hidden_size // cfg.num_heads == 64

    def test_vocab_and_seq(self):
        for cfg in TABLE1.values():
            assert cfg.vocab_size == 51200
            assert cfg.seq_len == 1024

    def test_scaled_variant(self):
        small = TABLE1["XS"].scaled(hidden_size=64, num_layers=2, vocab_size=512)
        assert small.num_parameters < TABLE1["XS"].num_parameters / 100


class TestTable2:
    @pytest.mark.parametrize("name", list(TABLE2))
    def test_weights_match_paper(self, name):
        cfg = TABLE2[name]
        want_m, _ = TABLE2_EXPECTED[name]
        assert abs(cfg.num_parameters / 1e6 - want_m) / want_m < 0.005

    @pytest.mark.parametrize("name", list(TABLE2))
    def test_moe_gflops_equal_dense(self, name):
        """Top-1, cf=1: MoE math == dense math (Table 2 repeats Table 1)."""
        cfg = TABLE2[name]
        _, want_g = TABLE2_EXPECTED[name]
        got = moe_train_flops(cfg.base, top_k=1, capacity_factor=1.0) / 1e9
        assert abs(got - want_g) / want_g < 0.005

    def test_64_experts_top1(self):
        for cfg in TABLE2.values():
            assert cfg.num_experts == 64 and cfg.top_k == 1

    def test_capacity_factor_scales_ffn_flops_only(self):
        cfg = TABLE2["XS"].base
        f1 = moe_train_flops(cfg, capacity_factor=1.0)
        f2 = moe_train_flops(cfg, capacity_factor=2.0)
        ffn = 48 * 1024 * cfg.num_layers * cfg.hidden_size**2
        assert f2 - f1 == pytest.approx(ffn)


class TestFlops:
    def test_batch_scaling_linear(self):
        cfg = TABLE1["Small"]
        assert transformer_train_flops(cfg, 8) == pytest.approx(
            8 * transformer_train_flops(cfg, 1)
        )


class TestTable3Structure:
    def test_all_frameworks_present(self):
        assert set(TABLE3_MICRO_BATCH_SIZES) == {"Megatron-LM", "MegaBlocks", "Tutel"}

    def test_megablocks_at_least_tutel(self):
        for name, mb in TABLE3_MICRO_BATCH_SIZES["MegaBlocks"].items():
            assert mb >= TABLE3_MICRO_BATCH_SIZES["Tutel"][name]
