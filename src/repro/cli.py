"""Command-line training entry point and trace reports.

Train any of the paper's configurations (scaled down by default) on the
synthetic Pile, with checkpointing, resume, and optional tracing:

    python -m repro.cli --model XS --system dmoe --scale 0.0625 --steps 100 \
        --checkpoint runs/dmoe-xs
    python -m repro.cli --resume runs/dmoe-xs --steps 200   # steps 100-199
    python -m repro.cli --steps 20 --trace runs/trace.json

Systems follow §6: ``dense``, ``dmoe`` (MegaBlocks), ``tutel-dmoe``
(dynamic capacity padding), ``moe`` (fixed capacity factor).

The ``trace`` subcommand reports on a Chrome-trace JSON written by
``--trace`` (or any ``repro.observability`` exporter):

    python -m repro.cli trace runs/trace.json

prints the per-phase step breakdown; the file itself loads in
``chrome://tracing`` or https://ui.perfetto.dev (see
``docs/observability.md``).

Checkpoints are sharded directories (one CRC'd shard per tensor / per
expert plus a ``manifest.json``); the ``ckpt`` subcommand inspects one:

    python -m repro.cli ckpt inspect runs/ckpt-00000040 --verify

``inspect`` prints step / mesh (world size) metadata and the per-shard
table (name, shape, dtype, size, CRC32); ``--verify`` re-reads every
shard and recomputes checksums.  See ``docs/robustness.md``.

The ``generate`` and ``serve-bench`` subcommands drive the inference
serving stack (see ``docs/serving.md``):

    python -m repro.cli generate --checkpoint runs/dmoe-xs \
        --prompt 5,1,0 --max-new-tokens 64 --gen-top-k 20
    python -m repro.cli serve-bench --requests 32 --max-batch 4 --int8

``generate`` samples through the KV-cached engine (``--uncached`` for
the O(T²) baseline); ``serve-bench`` runs a synthetic mixed-length
request stream through the continuous-batching scheduler and prints the
TTFT / per-token latency percentile table.

The ``lower report`` subcommand trains a few steps with
``backend="cc"`` and prints the native-lowering breakdown — which
replay records run as kernel-table C (elementwise, grouped-GEMM,
router kernels), which stay on the host interpreter, and the fallback
counters (see ``docs/codegen.md``):

    python -m repro.cli lower report --steps 3
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.autograd import get_arena
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.models import SYSTEMS, build_model, scaled_config
from repro.observability import (
    JsonlRunLog,
    format_step_table,
    registry,
    save_chrome_trace,
    step_rows_from_trace,
    step_table,
    tracing,
    validate_chrome_trace,
)
from repro.checkpoint import CheckpointManager, load_checkpoint
from repro.sparse import stats as sparse_stats
from repro.training import Adam, Trainer, TrainerConfig, WarmupCosineLR
from repro.utils.logging import get_logger
from repro.utils.rng import seed_all

logger = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.cli", description="Train a MegaBlocks-reproduction model."
    )
    p.add_argument("--model", default="XS", help="Table-1 size: XS/Small/Medium/Large/XL")
    p.add_argument("--system", default="dmoe", choices=SYSTEMS)
    p.add_argument("--scale", type=float, default=1 / 16,
                   help="model scale in (0, 1]; 1.0 = paper dimensions")
    p.add_argument("--num-experts", type=int, default=None)
    p.add_argument("--capacity-factor", type=float, default=1.0)
    p.add_argument("--top-k", type=int, default=1)
    p.add_argument("--steps", type=int, default=100,
                   help="optimizer steps in the whole run: a --resume run "
                        "continues from its checkpoint's step to this total")
    p.add_argument("--global-batch", type=int, default=16)
    p.add_argument("--micro-batch", type=int, default=8)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab-size", type=int, default=512)
    p.add_argument("--tokens", type=int, default=300_000,
                   help="synthetic-Pile tokens to generate")
    p.add_argument("--backend", default="eager",
                   choices=["eager", "replay", "cc"],
                   help="step execution backend: eager (the allocating "
                        "reference), replay (capture the step graph once and "
                        "replay the compiled op schedule on signature-"
                        "matching steps), or cc (captured graphs lowered to "
                        "generated C; falls back to replay without a C "
                        "toolchain); replay and cc run the steady step: "
                        "buffer arena, fused ops, in-place optimizer")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="sharded checkpoint directory to write when done "
                        "(model, optimizer and trainer state)")
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="checkpoint written by --checkpoint or --ckpt-dir to "
                        "continue bit-exactly (schedule, data order, RNG)")
    p.add_argument("--ckpt-dir", default=None, metavar="DIR",
                   help="rotating checkpoint directory (CheckpointManager)")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="write a rotating checkpoint every N steps "
                        "(requires --ckpt-dir)")
    p.add_argument("--async-checkpoint", action="store_true",
                   help="write rotating checkpoints on a background thread "
                        "(snapshot at the step boundary, serialize off-thread)")
    p.add_argument("--eval-every", type=int, default=None)
    p.add_argument("--dp-world", type=int, default=0, metavar="W",
                   help="data-parallel world size: the trainer runs the whole "
                        "global batch and all-reduces its gradients over an "
                        "echo group of W ranks that hold them (0 disables the "
                        "distributed path)")
    p.add_argument("--dist-backend", default="sim", choices=["sim", "mp"],
                   help="collective transport for --dp-world: 'sim' reduces "
                        "in process, 'mp' routes through forked worker "
                        "processes over shared memory (bit-identical)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="trace the run; write a Chrome-trace JSON here "
                        "(open in chrome://tracing or Perfetto)")
    p.add_argument("--run-log", default=None, metavar="PATH",
                   help="write a structured JSONL run log (one record per "
                        "logged step plus a closing metrics snapshot)")
    return p


def build_trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.cli trace",
        description="Report on a Chrome-trace JSON written by --trace.",
    )
    p.add_argument("trace_file", help="Chrome-trace JSON path")
    p.add_argument("--root", default="step",
                   help="root span to break down (default: step)")
    return p


def trace_main(argv=None) -> int:
    """``python -m repro.cli trace TRACE.json``: per-phase step report."""
    args = build_trace_parser().parse_args(argv)
    with open(args.trace_file) as fh:
        trace = json.load(fh)
    try:
        events = validate_chrome_trace(trace)
    except ValueError as exc:
        print(f"invalid trace {args.trace_file!r}: {exc}", file=sys.stderr)
        return 1
    rows = step_rows_from_trace(trace, args.root)
    print(
        f"{args.trace_file}: {len(events)} events, "
        f"{len(rows)} {args.root!r} spans"
    )
    print(format_step_table(rows, args.root))
    return 0


def build_ckpt_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.cli ckpt",
        description="Inspect sharded checkpoint directories.",
    )
    sub = p.add_subparsers(dest="action", required=True)
    insp = sub.add_parser("inspect", help="print checkpoint metadata + shards")
    insp.add_argument("path", help="checkpoint directory")
    insp.add_argument("--verify", action="store_true",
                      help="re-read every shard and recompute its CRC32")
    insp.add_argument("--limit", type=int, default=0,
                      help="show at most N shard rows (0 = all)")
    insp.add_argument("--json", action="store_true",
                      help="emit the description as JSON instead of a table")
    return p


def ckpt_main(argv=None) -> int:
    """``python -m repro.cli ckpt inspect ...``."""
    from repro.checkpoint import (
        CheckpointError,
        describe_checkpoint,
        format_describe,
    )

    args = build_ckpt_parser().parse_args(argv)
    try:
        info = describe_checkpoint(args.path, verify=args.verify)
    except (FileNotFoundError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(info, indent=2, default=str))
    else:
        print(format_describe(info, limit=args.limit))
        if args.verify:
            print(f"verify: OK ({info['num_shards']} shards)")
    return 0


def _add_serving_model_args(p: argparse.ArgumentParser) -> None:
    """Model-construction flags shared by ``generate`` and ``serve-bench``."""
    p.add_argument("--model", default="XS", help="Table-1 size")
    p.add_argument("--system", default="dmoe", choices=SYSTEMS)
    p.add_argument("--scale", type=float, default=1 / 16)
    p.add_argument("--num-experts", type=int, default=None)
    p.add_argument("--top-k", type=int, default=1)
    p.add_argument("--vocab-size", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None,
                   help="sharded checkpoint directory to load; "
                        "flags must match the architecture it was trained "
                        "with. Omitted = randomly initialized weights.")
    p.add_argument("--int8", action="store_true",
                   help="serve with int8 expert weights (quantize_experts)")


def _build_serving_model(args):
    model = build_model(
        args.model,
        system=args.system,
        scale=args.scale,
        num_experts=args.num_experts,
        top_k=args.top_k,
        vocab_size=args.vocab_size,
        rng=args.seed,
    )
    if args.checkpoint:
        meta = load_checkpoint(args.checkpoint, model)
        logger.info(
            "loaded %s (step %s)", args.checkpoint, meta.get("step", "?")
        )
    return model


def build_generate_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.cli generate",
        description="Sample tokens from a (checkpointed) model via the "
        "KV-cached inference engine.",
    )
    _add_serving_model_args(p)
    p.add_argument("--prompt", default="1,2,3",
                   help="comma-separated seed token ids")
    p.add_argument("--max-new-tokens", type=int, default=32)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--gen-top-k", type=int, default=None, metavar="K",
                   help="sample from the K most likely tokens")
    p.add_argument("--eos-token-id", type=int, default=None)
    p.add_argument("--uncached", action="store_true",
                   help="use the O(T^2) uncached generate() baseline "
                        "instead of the KV-cached engine")
    return p


def generate_main(argv=None) -> int:
    """``python -m repro.cli generate``: checkpoint → sampled token ids."""
    import time

    from repro.serving.engine import InferenceEngine
    from repro.serving.kernels import work_summary

    args = build_generate_parser().parse_args(argv)
    seed_all(args.seed)
    model = _build_serving_model(args)
    try:
        prompt = np.array(
            [int(t) for t in args.prompt.split(",") if t.strip() != ""],
            dtype=np.int64,
        )
    except ValueError:
        print(f"error: --prompt must be comma-separated ints, got "
              f"{args.prompt!r}", file=sys.stderr)
        return 1
    if prompt.size == 0 or prompt.min() < 0 or prompt.max() >= model.vocab_size:
        print(f"error: prompt ids must be in [0, {model.vocab_size})",
              file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    if args.uncached:
        out = model.generate(
            prompt, args.max_new_tokens, temperature=args.temperature,
            top_k=args.gen_top_k, eos_token_id=args.eos_token_id,
            rng=args.seed,
        )
    else:
        engine = InferenceEngine(
            model, quantize_experts="int8" if args.int8 else None
        )
        if engine.quant_report:
            logger.info(
                "int8 experts: %d layers, %.0f -> %.0f KiB (%.2fx)",
                engine.quant_report["layers"],
                engine.quant_report["fp32_bytes"] / 1024,
                engine.quant_report["int8_bytes"] / 1024,
                engine.quant_report["ratio"],
            )
        out = engine.generate(
            prompt, args.max_new_tokens, temperature=args.temperature,
            top_k=args.gen_top_k, eos_token_id=args.eos_token_id,
            rng=args.seed,
        )
    dt = time.perf_counter() - t0
    new = out.shape[1] - prompt.size
    print(" ".join(str(t) for t in out[0]))
    logger.info(
        "%d new tokens in %.3fs (%.1f tok/s, %s)",
        new, dt, new / dt if dt > 0 else float("inf"),
        "uncached" if args.uncached else "kv-cached",
    )
    reg = registry()
    summary = work_summary(
        reg.counter("serve_gemm_flops").value, reg.counter("serve_attn_flops").value,
        dt, "wall",
    )
    for line in summary.splitlines():
        logger.info("serving kernels: %s", line)
    return 0


def build_serve_bench_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.cli serve-bench",
        description="Synthetic load against the continuous-batching "
        "scheduler; prints the latency percentile table.",
    )
    _add_serving_model_args(p)
    p.add_argument("--requests", type=int, default=16)
    p.add_argument("--max-batch", type=int, default=4)
    p.add_argument("--token-budget", type=int, default=None)
    p.add_argument("--min-prompt", type=int, default=4)
    p.add_argument("--max-prompt", type=int, default=32)
    p.add_argument("--min-new", type=int, default=4)
    p.add_argument("--max-new", type=int, default=24)
    p.add_argument("--temperature", type=float, default=1.0)
    return p


def serve_bench_main(argv=None) -> int:
    """``python -m repro.cli serve-bench``: scheduler under synthetic load."""
    import time

    from repro.serving.engine import InferenceEngine
    from repro.serving.scheduler import ContinuousBatchingScheduler, Request

    args = build_serve_bench_parser().parse_args(argv)
    seed_all(args.seed)
    model = _build_serving_model(args)
    engine = InferenceEngine(
        model, quantize_experts="int8" if args.int8 else None
    )
    gen = np.random.default_rng(args.seed + 1)
    requests = [
        Request(
            prompt=gen.integers(
                0, model.vocab_size,
                size=int(gen.integers(args.min_prompt, args.max_prompt + 1)),
            ),
            max_new_tokens=int(gen.integers(args.min_new, args.max_new + 1)),
            temperature=args.temperature,
            seed=args.seed + 100 + i,
        )
        for i in range(args.requests)
    ]
    sched = ContinuousBatchingScheduler(
        engine, max_batch_size=args.max_batch, token_budget=args.token_budget
    )
    t0 = time.perf_counter()
    results = sched.run(requests)
    dt = time.perf_counter() - t0
    sched.close()
    total_new = sum(r.new_tokens for r in results)
    print(sched.latency_table())
    logger.info(
        "%d requests, %d generated tokens in %.3fs (%.1f tok/s)",
        len(results), total_new, dt, total_new / dt if dt > 0 else 0.0,
    )
    return 0


def build_lower_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.cli lower",
        description="Report on the native-code lowering of a captured "
        "step graph (backend='cc').",
    )
    sub = p.add_subparsers(dest="action", required=True)
    rep = sub.add_parser(
        "report", help="train a few steps and print the per-unit breakdown"
    )
    rep.add_argument("--model", default="XS", help="Table-1 size")
    rep.add_argument("--system", default="dmoe", choices=SYSTEMS)
    rep.add_argument("--scale", type=float, default=1 / 16)
    rep.add_argument("--num-experts", type=int, default=None)
    rep.add_argument("--top-k", type=int, default=1)
    rep.add_argument("--steps", type=int, default=3)
    rep.add_argument("--global-batch", type=int, default=8)
    rep.add_argument("--micro-batch", type=int, default=4)
    rep.add_argument("--vocab-size", type=int, default=64)
    rep.add_argument("--tokens", type=int, default=8_000)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of a table")
    return p


def _unit_builds(unit_ms) -> str:
    """``N units, slowest X ms`` over per-unit ``cc`` times (none when
    the library came from the cache)."""
    return f"{len(unit_ms)} units, slowest {max(unit_ms, default=0.0):.0f} ms"


def lower_main(argv=None) -> int:
    """``python -m repro.cli lower report``: native-lowering breakdown."""
    from collections import Counter

    from repro.autograd import lower
    from repro.autograd import stats as ag_stats

    args = build_lower_parser().parse_args(argv)
    seed_all(args.seed)
    model = build_model(
        args.model,
        system=args.system,
        scale=args.scale,
        num_experts=args.num_experts,
        top_k=args.top_k,
        vocab_size=args.vocab_size,
        rng=args.seed,
    )
    pile = SyntheticPile(
        PileConfig(vocab_size=args.vocab_size, num_domains=3), seed=args.seed + 1
    )
    train, _ = LMDataset(
        pile.token_stream(args.tokens, seq_len=32), seq_len=16
    ).split(0.1)
    cfg = TrainerConfig(
        global_batch=args.global_batch,
        micro_batch=args.micro_batch,
        max_steps=args.steps,
        eval_every=0,
        log_every=0,
        backend="cc",
    )
    reg = registry()
    counter_names = (
        "graph_lowered", "lower_compile_ms", "lower_cache_hits",
        "lower_segment_fallbacks", "lower_toolchain_fallbacks",
    )
    before = {k: reg.counter(k).value for k in counter_names}
    units_before = reg.histogram("lower_unit_cc_ms").count
    # The trainer builds the prelude (for its native Adam step).
    trainer = Trainer(
        model, train, config=cfg,
        optimizer=Adam(model.parameters(), lr=3e-3), rng=args.seed + 2,
    )
    copies = []  # per step: bytes the two copying branches moved
    for step in range(args.steps):
        trainer.train_step(step)
        copies.append((ag_stats.reshape_copy_bytes, ag_stats.leaf_copy_bytes))
    counts = {k: reg.counter(k).value - before[k] for k in counter_names}
    unit_ms = reg.histogram("lower_unit_cc_ms").values[units_before:]

    graph = trainer.step_graph
    if graph is None:
        print("error: no step graph was captured", file=sys.stderr)
        return 1
    analysis = lower.analyze(graph)
    plan = graph._lowered

    kern_kinds: Counter = Counter()
    kern_native = {}
    host_fns: Counter = Counter()
    for unit in analysis.units:
        kind = getattr(unit, "kind", None)
        if kind is not None:
            kern_kinds[kind] += 1
            kern_native[kind] = unit.native
        else:  # PyUnit: host-interpreter remainder
            for idx in unit.indices:
                host_fns[graph.records[idx].fn.__name__] += 1
    coverage = len(analysis.lowered) / analysis.total if analysis.total else 0.0

    report = {
        "attached": plan is not None,
        "records_total": analysis.total,
        "records_lowered": len(analysis.lowered),
        "records_native": len(analysis.native),
        "coverage": coverage,
        "kernel_units": dict(sorted(kern_kinds.items())),
        "kernel_native": dict(sorted(kern_native.items())),
        "backward_swaps": dict(
            sorted(Counter(e[0] for e in analysis.bwd.values()).items())
        ),
        "host_records": dict(sorted(host_fns.items())),
        "reshape_copy_bytes": [c[0] for c in copies],
        "leaf_copy_bytes": [c[1] for c in copies],
        "unit_cc_ms": [round(v) for v in unit_ms],
        **counts,
    }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0

    attached = "attached" if plan is not None else "NOT attached (no toolchain?)"
    print(
        f"lowering report ({args.system} {args.model}, {args.steps} steps): "
        f"plan {attached}"
    )
    total = max(1, analysis.total)
    print(
        f"  coverage: of {analysis.total} replay records, "
        f"{report['records_lowered']} lowered (off the interpreter, "
        f"{coverage:.1%}), {report['records_native']} native (in C, "
        f"{report['records_native'] / total:.1%})"
    )
    print("  kernel units:")
    for kind, n in sorted(kern_kinds.items()):
        where = "native" if kern_native[kind] else "python closure"
        print(f"    {kind:14} {n:4}  {where}")
    print("  backward swaps:")
    for kind, n in report["backward_swaps"].items():
        print(f"    {kind:14} {n}")
    print("  host remainder:")
    for name, n in sorted(host_fns.items()):
        print(f"    {name:28} {n}")
    print("  copies per step (bytes):  reshape without a view   leaf gradient")
    for step, (reshape_b, leaf_b) in enumerate(copies):
        print(f"    step {step:<4} {reshape_b:30} {leaf_b:15}")
    print(
        "  counters: "
        f"{counts['graph_lowered']} graphs lowered, "
        f"{counts['lower_compile_ms']}ms compiling "
        f"({_unit_builds(unit_ms)}, {counts['lower_cache_hits']} cache hits), "
        f"{counts['lower_segment_fallbacks']} segment fallbacks, "
        f"{counts['lower_toolchain_fallbacks']} toolchain fallbacks"
    )
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "ckpt":
        return ckpt_main(argv[1:])
    if argv and argv[0] == "generate":
        return generate_main(argv[1:])
    if argv and argv[0] == "serve-bench":
        return serve_bench_main(argv[1:])
    if argv and argv[0] == "lower":
        return lower_main(argv[1:])
    args = build_parser().parse_args(argv)
    seed_all(args.seed)

    cfg = scaled_config(args.model, args.scale, vocab_size=args.vocab_size)
    logger.info(
        "building %s (%s): hidden=%d layers=%d seq=%d vocab=%d",
        cfg.name, args.system, cfg.hidden_size, cfg.num_layers,
        cfg.seq_len, cfg.vocab_size,
    )
    model = build_model(
        args.model,
        system=args.system,
        scale=args.scale,
        num_experts=args.num_experts,
        capacity_factor=args.capacity_factor,
        top_k=args.top_k,
        vocab_size=args.vocab_size,
        rng=args.seed,
    )
    logger.info("parameters: %.2fM", model.num_parameters() / 1e6)

    pile = SyntheticPile(
        PileConfig(vocab_size=cfg.vocab_size, num_domains=8), seed=args.seed + 1
    )
    stream = pile.token_stream(args.tokens, seq_len=min(cfg.seq_len * 2, 256))
    train, val = LMDataset(stream, seq_len=cfg.seq_len).split(0.05)

    optimizer = Adam(model.parameters(), lr=args.lr)
    tcfg = TrainerConfig(
        global_batch=args.global_batch,
        micro_batch=args.micro_batch,
        max_steps=args.steps,
        eval_every=args.eval_every or max(args.steps // 5, 1),
        log_every=max(args.steps // 10, 1),
        backend=args.backend,
        async_checkpoint=args.async_checkpoint,
        dp_world=args.dp_world,
        dist_backend=args.dist_backend,
    )
    manager = None
    if args.ckpt_dir:
        manager = CheckpointManager(args.ckpt_dir)
    trainer = Trainer(
        model, train, val, tcfg,
        optimizer=optimizer,
        schedule=WarmupCosineLR(args.lr, args.steps, warmup_steps=args.steps // 20),
        rng=args.seed + 2,
    )
    run_log = JsonlRunLog(args.run_log) if args.run_log else None

    def callback(r):
        logger.info(
            "step %d loss %.4f%s%s", r.step, r.loss,
            f" gnorm {r.grad_norm:.3f}" if r.grad_norm is not None else "",
            f" val {r.val_loss:.4f}" if r.val_loss is not None else "",
        )
        if run_log is not None:
            run_log.write(r)

    def run():
        return trainer.fit(
            resume=args.resume,
            callback=callback,
            checkpoint_manager=manager,
            checkpoint_every=args.checkpoint_every if manager else 0,
        )

    if args.trace:
        with tracing() as tracer:
            history = run()
        os.makedirs(os.path.dirname(args.trace) or ".", exist_ok=True)
        trace = save_chrome_trace(args.trace, tracer)
        logger.info(
            "trace written to %s (%d events); open in chrome://tracing or "
            "report with: python -m repro.cli trace %s",
            args.trace, len(trace["traceEvents"]), args.trace,
        )
        print(step_table(tracer))
    else:
        history = run()
    if run_log is not None:
        run_log.close(
            final={"metrics": registry().snapshot(), "arena": get_arena().stats()}
        )
        logger.info("run log written to %s", args.run_log)
    final = history.final_val_loss()
    logger.info("done: final val loss %.4f", final if final is not None else float("nan"))

    if args.backend != "eager":
        reg = registry()
        logger.info(
            "step graph: %d captures, %d replays, %d fallbacks",
            reg.counter("graph_captures").value,
            reg.counter("graph_replays").value,
            reg.counter("graph_fallbacks").value,
        )
    if args.backend == "cc":
        reg = registry()
        logger.info(
            "lowering: %d graphs lowered (%d ms compiling: %s, %d cache hits), "
            "%d segment fallbacks, %d toolchain fallbacks",
            reg.counter("graph_lowered").value,
            reg.counter("lower_compile_ms").value,
            _unit_builds(reg.histogram("lower_unit_cc_ms").values),
            reg.counter("lower_cache_hits").value,
            reg.counter("lower_segment_fallbacks").value,
            reg.counter("lower_toolchain_fallbacks").value,
        )
        # With --trace: the native Adam step against what its bytes cost
        # (compare with this machine's copy rate).
        phase = reg.histogram("trainer/phase/optimizer")
        nbytes = reg.gauge("optim_bytes_per_step").value
        if phase.count and nbytes:
            p50 = phase.percentile(50)
            logger.info(
                "optimizer: %.0f MB/step in %.1f ms = %.1f GB/s",
                nbytes / 1e6, p50 * 1e3, nbytes / p50 / 1e9,
            )

    live, padded = sparse_stats.rows_total()
    if padded:
        logger.info(
            "sparse kernels: multiplied %d of %d padded rows "
            "(%.1f%% padding skipped)",
            live, padded, 100.0 * (1 - sparse_stats.live_row_fraction()),
        )

    if trainer.routing_stats:
        cfs = [s.max_dynamic_capacity_factor for s in trainer.routing_stats]
        logger.info(
            "dynamic capacity factor: mean %.2f peak %.2f",
            float(np.mean(cfs)), float(np.max(cfs)),
        )
    if args.checkpoint:
        os.makedirs(os.path.dirname(args.checkpoint) or ".", exist_ok=True)
        trainer.save(
            args.checkpoint, step=args.steps, val_loss=final,
            extra={"system": args.system, "model": args.model},
        )
        logger.info("checkpoint written to %s", args.checkpoint)
    return 0


if __name__ == "__main__":
    sys.exit(main())
