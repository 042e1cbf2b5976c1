import numpy as np
import pytest

from repro.configs import TABLE1
from repro.core import dMoE
from repro.models import build_model, scaled_config
from repro.moe import DynamicCapacityMoELayer, MoELayer


class TestScaledConfig:
    def test_full_scale_is_table1(self):
        assert scaled_config("XS", 1.0) is TABLE1["XS"]

    def test_scaled_dims_shrink(self):
        cfg = scaled_config("Small", 1 / 16)
        base = TABLE1["Small"]
        assert cfg.hidden_size < base.hidden_size
        assert cfg.num_layers <= base.num_layers
        assert cfg.hidden_size % cfg.head_size == 0

    def test_invalid_name_and_scale(self):
        with pytest.raises(ValueError):
            scaled_config("XXL")
        with pytest.raises(ValueError):
            scaled_config("XS", 0.0)

    def test_vocab_override(self):
        assert scaled_config("XS", 1 / 8, vocab_size=100).vocab_size == 100


class TestBuildModel:
    def _ffn_types(self, model):
        return {type(b.ffn).__name__ for b in model.blocks}

    def test_dense(self):
        m = build_model("XS", "dense", scale=1 / 16, rng=0)
        assert self._ffn_types(m) == {"MLP"}

    def test_dmoe(self):
        m = build_model("XS", "dmoe", scale=1 / 16, rng=0)
        assert self._ffn_types(m) == {"dMoE"}

    def test_tutel(self):
        m = build_model("XS", "tutel-dmoe", scale=1 / 16, rng=0)
        assert self._ffn_types(m) == {"DynamicCapacityMoELayer"}

    def test_moe(self):
        m = build_model("XS", "moe", scale=1 / 16, capacity_factor=1.5, rng=0)
        assert self._ffn_types(m) == {"MoELayer"}
        ffn = m.blocks[0].ffn
        assert isinstance(ffn, MoELayer)
        assert ffn.capacity_factor == 1.5

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            build_model("XS", "gshard")

    def test_block_size_divides_ffn(self):
        m = build_model("XS", "dmoe", scale=1 / 16, rng=0)
        ffn = m.blocks[0].ffn
        assert isinstance(ffn, dMoE)
        assert ffn.ffn_hidden_size % ffn.block_size == 0

    def test_scaled_model_runs(self):
        m = build_model("XS", "dmoe", scale=1 / 16, vocab_size=64, rng=0)
        ids = np.random.default_rng(0).integers(0, 64, (2, 16))
        out = m(ids)
        assert out.logits.shape[0] == 2
        assert out.aux_loss is not None

    def test_full_scale_dims_match_paper(self, monkeypatch):
        """scale=1 asks for the paper's exact dMoE-XS.  The constructors
        are stand-ins that record their arguments: 839.5 M parameters are
        not drawn from the RNG to read six integers
        (``test_paper_scale.py`` runs a real full-size layer)."""
        import repro.models as models

        built = {}

        def lm(**kwargs):
            built["lm"] = kwargs
            built["ffn"] = kwargs["ffn_factory"](0)

        def moe(hidden_size, ffn_hidden_size, num_experts, **kwargs):
            return dict(
                kwargs, hidden_size=hidden_size, ffn_hidden_size=ffn_hidden_size,
                num_experts=num_experts,
            )

        monkeypatch.setattr(models, "TransformerLM", lm)
        monkeypatch.setattr(models, "dMoE", moe)
        build_model("XS", "dmoe", scale=1.0, rng=0)
        assert built["lm"]["hidden_size"] == 512
        assert built["lm"]["num_layers"] == 6
        ffn = built["ffn"]
        assert ffn["hidden_size"] == 512
        assert ffn["num_experts"] == 64
        assert ffn["block_size"] == 128
        assert ffn["ffn_hidden_size"] == 2048
        assert ffn["output_scale_layers"] == 6
