"""Every weight-sized byte moves once per step — as counts, not clocks.

A wall-clock floor cannot fail a PR on a shared box; these repeat
exactly.  On a scaled-down dMoE language model on the ``cc`` rung, steady
steps 3-6:

- ``autograd.stats.reshape_copy_bytes`` (``arena.reshaped`` without a
  view) stays below one ``experts.w1``: the expert-major weights are read
  where they live, not gathered into Figure 6's flat operand;
- ``autograd.stats.leaf_copy_bytes`` (first gradient copied into a leaf)
  is exactly the gradients too small for the pool to own: every
  kernel-produced weight gradient is adopted;
- ``tracemalloc``'s peak inside a step stays below the largest parameter
  (the old ``reshaped`` view probe allocated a whole ``w1`` per layer).
"""

import tracemalloc

import pytest

from repro.autograd import arena, lower
from repro.autograd import stats as ag_stats
from repro.autograd.lower import blas, toolchain
from repro.core import dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.observability import registry
from repro.training import Adam, Trainer, TrainerConfig
from repro.utils.rng import seed_all


def test_steady_cc_step_copies_no_weight_sized_array(tmp_path, monkeypatch):
    if not (lower.cc_available() and blas.available()):
        pytest.skip("no C toolchain / BLAS symbol in this environment")
    monkeypatch.setenv("REPRO_LOWER_CACHE", str(tmp_path / "lower-cache"))
    toolchain._reset_for_tests()
    hidden, experts, ffn, block, seq, vocab = 64, 32, 128, 8, 16, 128
    seed_all(1)
    model = TransformerLM(
        vocab, hidden, num_layers=2, num_heads=2, max_seq_len=seq, rng=5,
        ffn_factory=lambda i: dMoE(hidden, ffn, experts, block_size=block, rng=100 + i),
    )
    pile = SyntheticPile(PileConfig(vocab_size=vocab, num_domains=4), seed=7)
    data = LMDataset(pile.token_stream(4000, seq, rng=1), seq_len=seq)
    trainer = Trainer(
        model, data, rng=1, optimizer=Adam(model.parameters(), lr=1e-3),
        config=TrainerConfig(
            global_batch=4, micro_batch=4, max_steps=10**9, eval_every=0,
            log_every=0, steady_state=True, backend="cc",
        ),
    )
    params = trainer.optimizer.params
    w1 = max(params, key=lambda p: p.data.nbytes)
    assert w1.data.shape == (experts, hidden, ffn)
    unpooled = sum(p.data.nbytes for p in params if p.data.size < arena.MIN_BUCKET)
    fallbacks = registry().counter("lower_segment_fallbacks").value
    try:
        for step in range(3):
            trainer.train_step(step)
        counts = []
        tracemalloc.start()
        try:
            for step in range(3, 7):
                tracemalloc.reset_peak()
                floor = tracemalloc.get_traced_memory()[0]
                trainer.train_step(step)
                counts.append(
                    (ag_stats.reshape_copy_bytes, ag_stats.leaf_copy_bytes,
                     ag_stats.tape_nodes)
                )
                peak = tracemalloc.get_traced_memory()[1] - floor
                assert peak < w1.data.nbytes, f"step {step}: {peak} B allocated"
        finally:
            tracemalloc.stop()
    finally:
        toolchain._reset_for_tests()
    assert len(set(counts)) == 1, counts  # the counts repeat exactly
    reshape_bytes, leaf_bytes, tape_nodes = counts[0]
    assert tape_nodes == 0  # replayed, not re-taped
    assert 0 < reshape_bytes < w1.data.nbytes  # attention's head merges only
    assert leaf_bytes == unpooled < w1.data.nbytes
    assert registry().counter("lower_segment_fallbacks").value == fallbacks
    snap = registry().snapshot()["sources"]["autograd"]
    assert (snap["reshape_copy_bytes"], snap["leaf_copy_bytes"]) == counts[0][:2]
