"""The four scenarios and the inputs each one is fed.

A workload is a model shape + routing regime + transport, trained and
then served in one process.  Everything here that is random comes from
``--seed``: the token stream the trainer reads, its batch order, and the
serving request mix (prompt lengths and contents, output lengths,
per-request sampling seeds).  Model initialisation is *not* an input: it
is part of the scenario (``skew_queue``'s Zipf-like routing is a
property of its router's initial weights), so it uses fixed constants
and the program under test sees only generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

VOCAB = 512
#: Position-embedding length of every model.  ``small_decode`` trains at
#: seq 64 but serves prompt+output up to 124 tokens; a 128-position model
#: keeps its serve phase in pure KV-cached decode (no window slides).
MAX_SEQ_LEN = 128
PILE_STRUCTURE_SEED = 7
STREAM_TOKENS = 160_000
LEARNING_RATE = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # train phase
    hidden: int
    layers: int
    heads: int
    experts: int
    ffn: int
    block: int
    seq: int
    global_batch: int
    micro_batch: int
    dp_world: int = 0
    skew_router: bool = False
    # serve phase
    quantize: Optional[str] = None
    slots: int = 4
    clients: int = 4
    prompt_len: Tuple[int, int] = (64, 96)
    output_len: Tuple[int, int] = (8, 16)
    #: Which side of the ITL mode rule the serve phase must land on: the
    #: share of scheduler steps that contain a prefill is < 0.05 ("decode")
    #: or > 0.20 ("prefill"), never in between.
    itl_mode: str = "prefill"

    @property
    def tokens_per_step(self) -> int:
        return self.global_batch * self.seq


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref_prefill",
            why=(
                "Paper regime scaled to fit: block 128, expert GEMMs and Adam "
                "over 9M params dominate the step; serving is prefill-bound."
            ),
            hidden=256, layers=2, heads=4, experts=8, ffn=1024, block=128,
            seq=128, global_batch=8, micro_batch=8,
            prompt_len=(64, 96), output_len=(8, 16), itl_mode="prefill",
        ),
        Workload(
            name="small_decode",
            why=(
                "Dispatch-bound: tiny GEMMs, two accumulation slots, so "
                "capture/lowering/scheduler overhead shows and kernels do "
                "not; serving is pure decode."
            ),
            hidden=64, layers=4, heads=4, experts=8, ffn=256, block=16,
            seq=64, global_batch=8, micro_batch=4,
            prompt_len=(4, 12), output_len=(96, 112), itl_mode="decode",
        ),
        Workload(
            name="skew_queue",
            why=(
                "32 experts, Zipf-like routing, a new layout every step: "
                "planning, topology and padded gather/scatter work; 8 clients "
                "on 4 slots put queue wait into TTFT."
            ),
            hidden=128, layers=2, heads=4, experts=32, ffn=512, block=32,
            seq=128, global_batch=8, micro_batch=8, skew_router=True,
            clients=8, prompt_len=(16, 64), output_len=(8, 16),
            itl_mode="prefill",
        ),
        Workload(
            name="dp2_int8",
            why=(
                "ref_prefill's model under dp_world=2 over forked workers "
                "(exposed grad-sync cost) and int8 dequantize-on-GEMM "
                "experts at serve time."
            ),
            hidden=256, layers=2, heads=4, experts=8, ffn=1024, block=128,
            seq=128, global_batch=8, micro_batch=8, dp_world=2,
            quantize="int8", prompt_len=(32, 64), output_len=(8, 16),
            itl_mode="prefill",
        ),
    )
}


def build_dataset(w: Workload, seed: int):
    """The synthetic-Pile training stream drawn from ``seed``."""
    from repro.data import LMDataset, PileConfig, SyntheticPile

    pile = SyntheticPile(
        PileConfig(vocab_size=VOCAB, num_domains=8, branching=4),
        seed=PILE_STRUCTURE_SEED,
    )
    return LMDataset(pile.token_stream(STREAM_TOKENS, 64, rng=seed), seq_len=w.seq)


def build_model(w: Workload):
    """The scenario's model; fixed initialisation (see module docstring)."""
    from repro.core import dMoE
    from repro.moe.router import Router
    from repro.nn import TransformerLM

    def ffn(i: int):
        router = None
        if w.skew_router:
            # No balancing loss and a wide init: a few experts take most
            # tokens, most take few or none, and the layout moves every step.
            router = Router(
                w.hidden, w.experts, load_balance_coef=0.0, init_std=0.5,
                rng=2000 + i,
            )
        return dMoE(
            w.hidden, w.ffn, w.experts, block_size=w.block,
            load_balance_coef=0.01, router=router, rng=1000 + i,
        )

    return TransformerLM(
        VOCAB, w.hidden, num_layers=w.layers, num_heads=w.heads,
        max_seq_len=MAX_SEQ_LEN, ffn_factory=ffn, rng=5,
    )


def build_trainer(w: Workload, seed: int, backend: str = "cc", dp_world: Optional[int] = None):
    """A fresh trainer on the scenario's model and ``seed``'s data, on the
    given rung; ``dp_world`` overrides the scenario's world size."""
    from repro.training import Adam, Trainer, TrainerConfig
    from repro.utils.rng import seed_all

    seed_all(seed)
    world = w.dp_world if dp_world is None else dp_world
    config = TrainerConfig(
        global_batch=w.global_batch, micro_batch=w.micro_batch,
        max_steps=10**9, eval_every=0, log_every=0, steady_state=True,
        backend=backend, dp_world=world,
        dist_backend="mp" if world > 1 else "sim",
    )
    dataset, model = build_dataset(w, seed), build_model(w)
    return Trainer(
        model, dataset, config=config,
        optimizer=Adam(model.parameters(), lr=LEARNING_RATE), rng=seed,
    )


def request_stream(w: Workload, seed: int, client: int, dataset) -> Iterator:
    """Client ``client``'s endless, seed-determined request sequence.

    Prompts are windows of the training stream (in-distribution tokens,
    so routing at serve time resembles routing at train time).  No EOS:
    the drawn output length is exactly what the request generates.
    """
    from repro.serving.scheduler import Request

    rng = np.random.default_rng([seed, client, 0x5E12E])
    while True:
        p_len = int(rng.integers(w.prompt_len[0], w.prompt_len[1] + 1))
        o_len = int(rng.integers(w.output_len[0], w.output_len[1] + 1))
        row = dataset.inputs[int(rng.integers(0, len(dataset)))]
        start = int(rng.integers(0, len(row) - p_len + 1))
        yield Request(
            prompt=row[start : start + p_len].copy(), max_new_tokens=o_len, temperature=1.0,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
