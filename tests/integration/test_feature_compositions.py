"""Cross-feature compositions: the extensions must work *together*."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.moe import BaseLayerRouter, DynamicCapacityMoELayer, SinkhornRouter
from repro.nn import TransformerLM
from repro.nn.sparse_attention import BlockSparseCausalSelfAttention
from repro.training import Adam, Trainer, TrainerConfig
from repro.utils.rng import seed_all


def _data():
    pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=4), seed=3)
    return LMDataset(pile.token_stream(10_000, 32), seq_len=16).split(0.1)


class TestTutelInTransformer:
    def test_lm_with_tutel_trains(self):
        """The Tutel baseline composed with the captured step: its
        capacity moves with routing and the trainer still learns."""
        seed_all(0)
        train, val = _data()
        model = TransformerLM(
            64, 16, 1, 2, 16,
            ffn_factory=lambda i: DynamicCapacityMoELayer(16, 32, 4, rng=10 + i),
            rng=0,
        )
        cfg = TrainerConfig(global_batch=8, micro_batch=4, max_steps=10,
                            eval_every=0, log_every=5, backend="replay")
        hist = Trainer(model, train, val, cfg,
                       optimizer=Adam(model.parameters(), lr=3e-3)).train()
        assert hist.records[-1].loss < hist.records[0].loss


class TestAlternativeRoutersInTransformer:
    @pytest.mark.parametrize(
        "router_cls", [BaseLayerRouter, SinkhornRouter], ids=["base", "sinkhorn"]
    )
    def test_lm_with_alt_router_trains(self, router_cls):
        seed_all(0)
        train, val = _data()
        model = TransformerLM(
            64, 16, 1, 2, 16,
            ffn_factory=lambda i: dMoE(
                16, 32, 4, block_size=8, rng=10 + i,
                router=router_cls(16, 4, rng=20 + i),
            ),
            rng=0,
        )
        cfg = TrainerConfig(global_batch=8, micro_batch=4, max_steps=8,
                            eval_every=0, log_every=4)
        hist = Trainer(model, train, val, cfg,
                       optimizer=Adam(model.parameters(), lr=3e-3)).train()
        assert np.isfinite(hist.losses).all()


class TestSparseAttentionWithDMoE:
    def test_fully_block_sparse_transformer(self):
        """Both halves of the block — attention AND experts — running on
        the block-sparse kernels, trained end to end."""
        seed_all(0)
        train, val = _data()
        model = TransformerLM(
            64, 16, 1, 2, 16,
            ffn_factory=lambda i: dMoE(16, 32, 4, block_size=8, rng=10 + i),
            rng=0,
        )
        for block in model.blocks:
            block.attn = BlockSparseCausalSelfAttention(
                16, 2, block_size=8, window_blocks=2, rng=5
            )
        cfg = TrainerConfig(global_batch=8, micro_batch=4, max_steps=10,
                            eval_every=0, log_every=5)
        hist = Trainer(model, train, val, cfg,
                       optimizer=Adam(model.parameters(), lr=3e-3)).train()
        assert hist.records[-1].loss < hist.records[0].loss


class TestCheckpointWithMoE:
    def test_dmoe_checkpoint_roundtrip(self, tmp_path):
        from repro.checkpoint import load_checkpoint, save_checkpoint

        seed_all(0)
        a = dMoE(16, 32, 4, block_size=8, rng=0)
        path = str(tmp_path / "dmoe")
        save_checkpoint(path, a, step=1)
        b = dMoE(16, 32, 4, block_size=8, rng=99)
        load_checkpoint(path, b)
        x = Tensor(np.random.default_rng(1).standard_normal((16, 16)), dtype=np.float64)
        out_a, _ = a(x)
        out_b, _ = b(x)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)

