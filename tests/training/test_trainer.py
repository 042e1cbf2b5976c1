import numpy as np
import pytest

from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.training import Adam, Trainer, TrainerConfig, WarmupCosineLR


def _tiny_setup(moe=False, steps=12):
    pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
    ds = LMDataset(pile.token_stream(12_000, 32), seq_len=16)
    train, val = ds.split(0.1)
    if moe:
        from repro.core import dMoE

        ffn = lambda i: dMoE(16, 32, num_experts=4, block_size=8, rng=i)
        model = TransformerLM(64, 16, 2, 2, 16, ffn_factory=ffn, rng=0)
    else:
        model = TransformerLM(64, 16, 2, 2, 16, rng=0)
    cfg = TrainerConfig(
        global_batch=8, micro_batch=4, max_steps=steps, eval_every=6, log_every=3
    )
    return model, train, val, cfg


class TestTrainerConfig:
    def test_rejects_indivisible_batches(self):
        with pytest.raises(ValueError):
            TrainerConfig(global_batch=10, micro_batch=4)

    def test_accumulation_steps(self):
        assert TrainerConfig(global_batch=32, micro_batch=8).accumulation_steps == 4

    @pytest.mark.parametrize("world", [3, 6, 12])
    def test_rejects_non_power_of_two_dp_world(self, world):
        """Summing ``world`` copies of ``g / world`` is an exact identity
        only for power-of-two worlds; anything else would silently
        perturb the trajectory, so the config refuses it."""
        with pytest.raises(ValueError, match="power of two"):
            TrainerConfig(dp_world=world)

    @pytest.mark.parametrize("world", [0, 1, 2, 4, 8])
    def test_accepts_power_of_two_dp_world(self, world):
        assert TrainerConfig(dp_world=world).dp_world == world

    def test_backend_is_the_only_step_selector(self):
        assert TrainerConfig().backend == "eager"
        with pytest.raises(TypeError):
            TrainerConfig(capture=True)
        with pytest.raises(ValueError, match="unknown backend"):
            TrainerConfig(backend=None)

    def test_rejects_a_training_set_smaller_than_a_micro_batch(self):
        """Six sequences cannot fill a micro batch of eight: every draw
        would reshuffle and hand the step all six rows, while the
        records counted eight per micro batch."""
        pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
        tiny = LMDataset(pile.token_stream(6 * 16 + 1, 32), seq_len=16)
        assert len(tiny) == 6
        model = TransformerLM(64, 16, 2, 2, 16, rng=0)
        cfg = TrainerConfig(global_batch=8, micro_batch=8)
        with pytest.raises(ValueError, match=r"\b6\b.*micro_batch=8"):
            Trainer(model, tiny, config=cfg)

    def test_default_config_is_not_shared_between_trainers(self):
        model, train, val, _ = _tiny_setup()
        a = Trainer(model, train, val)
        b = Trainer(model, train, val)
        assert a.config is not b.config
        a.config.max_steps = 7
        assert b.config.max_steps == TrainerConfig().max_steps


class TestTrainer:
    def test_loss_decreases(self):
        model, train, val, cfg = _tiny_setup(steps=25)
        tr = Trainer(model, train, val, cfg, optimizer=Adam(model.parameters(), lr=3e-3))
        hist = tr.train()
        assert hist.records[-1].loss < hist.records[0].loss

    def test_history_has_final_val(self):
        model, train, val, cfg = _tiny_setup(steps=6)
        tr = Trainer(model, train, val, cfg)
        hist = tr.train()
        assert hist.final_val_loss() is not None

    def test_gradient_accumulation_equivalent_to_large_batch(self):
        """One step with (global=8, micro=4) equals (global=8, micro=8)
        in expectation: losses recorded from the same data order.

        We verify the weaker invariant that both configurations step the
        same number of optimizer steps and produce finite losses.
        """
        for micro in (4, 8):
            model, train, val, _ = _tiny_setup(steps=3)
            cfg = TrainerConfig(
                global_batch=8, micro_batch=micro, max_steps=3, eval_every=0
            )
            tr = Trainer(model, train, val, cfg)
            hist = tr.train()
            assert np.isfinite(hist.losses).all()

    def test_schedule_used(self):
        model, train, val, cfg = _tiny_setup(steps=4)
        sched = WarmupCosineLR(1e-3, total_steps=4, warmup_steps=2)
        tr = Trainer(model, train, val, cfg, schedule=sched)
        hist = tr.train()
        lrs = [r.lr for r in hist.records if r.lr is not None]
        assert lrs[0] == pytest.approx(sched(0))

    def test_callback_invoked(self):
        model, train, val, cfg = _tiny_setup(steps=6)
        seen = []
        Trainer(model, train, val, cfg).train(callback=lambda r: seen.append(r.step))
        assert len(seen) >= 1

    def test_evaluate_runs_in_eval_mode_and_restores(self):
        model, train, val, cfg = _tiny_setup(steps=2)
        tr = Trainer(model, train, val, cfg)
        tr.evaluate()
        assert model.training  # restored

    def test_moe_routing_stats_collected(self):
        model, train, val, cfg = _tiny_setup(moe=True, steps=4)
        tr = Trainer(model, train, val, cfg)
        tr.train()
        assert len(tr.routing_stats) == 4
        for rs in tr.routing_stats:
            assert rs.max_dynamic_capacity_factor >= 1.0
            assert rs.mean_dynamic_capacity_factor <= rs.max_dynamic_capacity_factor

    def test_dense_model_no_routing_stats(self):
        model, train, val, cfg = _tiny_setup(moe=False, steps=2)
        tr = Trainer(model, train, val, cfg)
        tr.train()
        assert tr.routing_stats == []

    def test_records_the_gradient_norm_the_clip_is_derived_from(self, tmp_path):
        """The pre-clip norm the step computes anyway lands in the record,
        two registry gauges and the JSONL run log; and because the scale
        rides into the optimizer's sweep, ``p.grad`` is left unclipped."""
        import json

        from repro.observability import registry
        from repro.observability.export import JsonlRunLog
        from repro.training.optim import clip_scale, grad_norm

        model, train, val, cfg = _tiny_setup(moe=True, steps=4)
        cfg.log_every, cfg.grad_clip = 1, 0.05  # low enough to clip every step
        tr = Trainer(model, train, val, cfg, optimizer=Adam(model.parameters(), lr=1e-3))
        log = JsonlRunLog(str(tmp_path / "run.jsonl"))
        hist = tr.train(callback=log.write)
        log.close()
        norms = [r.grad_norm for r in hist.records[:-1]]  # last: the eval point
        assert len(norms) == 4 and all(n > cfg.grad_clip for n in norms)
        assert hist.records[-1].grad_norm is None
        assert tr.last_grad_norm == norms[-1] == grad_norm(tr.optimizer.params)
        gauges = registry().snapshot()["gauges"]
        assert gauges["training/grad_norm"] == norms[-1]
        assert gauges["training/clip_scale"] == clip_scale(norms[-1], cfg.grad_clip) < 1
        lines = [json.loads(line) for line in open(tmp_path / "run.jsonl")]
        assert [line["grad_norm"] for line in lines[:4]] == norms
