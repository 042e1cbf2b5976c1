"""Comm–compute overlap benchmark: the async expert all-to-all must
hide the token exchange's exposed wait behind independent local work.

The measured unit is the §5 dispatch sequence of the expert-parallel
dMoE, over real forked ranks (the ``"mp"`` backend) with real routed
payloads: exchange the (tiny) expert-id assignments, then move the
token payloads while the receiving rank builds its padded plan + block
topology — host-side metadata that needs only the already-arrived ids.
The serialized schedule exchanges, then plans; the overlapped one (the
only one ``ExpertParallelDMoE`` runs) posts the sends
(:meth:`ProcessGroup.isend_all_to_all`), plans in flight, and only
then waits.  Both schedules are asserted bit-equal.

Two measurement honesty notes, both consequences of running every rank
on one oversubscribed CPU:

- **A straggler models the link.**  With all ranks on one core and no
  wire, payloads "arrive" as fast as the peer can memcpy, so there is
  nothing to hide; real clusters wait on NICs and slow peers.  The
  benchmark makes rank 1 a straggler (a sleep between the id exchange
  and its token sends — latency, not CPU), which is exactly the
  exposure MegaScale-MoE-style overlap targets.
- **One exchange per run.**  In a training loop the next collective is
  a resync: whatever a rank saves by overlapping, it re-pays waiting
  for the same straggler at the next barrier, so *steady-state* wait
  against a uniformly slow rank is conserved no matter the schedule.
  What overlap buys is latency to the dependent compute — so the
  benchmark measures the dispatch in isolation, where the saving is
  visible, and gates on the token exchange's own ``wait_s`` (blocked
  poll time), median over repeats to reject scheduler outliers on
  either tail (a descheduled peer can zero a serial rep; a hiccup can
  inflate an overlapped one).

Results land in ``BENCH_dist.json`` under ``harness.RESULT_DIR`` (path printed).
"""

import time

import numpy as np

from repro.core import dMoE
from repro.distributed import DeviceMesh, ExpertParallelDMoE, run_distributed

from harness import SMOKE, print_header, write_result

WORLD = 2
TOKENS = 2048 if SMOKE else 4096
REPEATS = 4 if SMOKE else 6
HIDDEN, FFN, EXPERTS, BLOCK = 128, 512, 16, 16
#: Modeled straggler link latency on rank 1's token sends.
LINK_LATENCY_S = 0.010
#: Plan-building passes to overlap (sized ~ the latency they hide).
PLAN_REPS = 4


def _build():
    layer = dMoE(
        HIDDEN, FFN, EXPERTS, block_size=BLOCK, rng=0, load_balance_coef=0.0
    )
    layer.eval()
    mesh = DeviceMesh(world=WORLD, expert_parallel=WORLD)
    ep = ExpertParallelDMoE(layer, mesh)
    rng = np.random.default_rng(12)
    xs = [rng.standard_normal((TOKENS, HIDDEN)) for _ in range(WORLD)]
    return ep, xs


def _make_fn(ep, xs, overlap):
    def fn(group):
        x = np.asarray(xs[group.rank])
        rows, cuts, local_ids, _ = ep._route_and_bucket(x)
        send_tokens = np.split(x[rows], cuts)
        recv_experts = group.all_to_all(np.split(local_ids, cuts))
        ids = np.concatenate(recv_experts).astype(np.int64)
        before = group.wait_s
        if group.rank == 1:
            time.sleep(LINK_LATENCY_S)  # the modeled slow link
        if overlap:
            pending = group.isend_all_to_all(send_tokens)
            for _ in range(PLAN_REPS):
                plan, topology = ep._build_local_plan(ids)
            recv = pending.wait()
        else:
            recv = group.all_to_all(send_tokens)
            for _ in range(PLAN_REPS):
                plan, topology = ep._build_local_plan(ids)
        tokens = np.concatenate(recv)
        # (digest, exposed wait of the token exchange alone)
        return float(np.sum(tokens)), group.wait_s - before

    return fn


def _run(ep, xs, overlap):
    return run_distributed(
        _make_fn(ep, xs, overlap),
        WORLD,
        backend="mp",
        timeout_s=120.0,
        op_timeout_s=30.0,
    )


def test_dist_overlap(benchmark):
    ep, xs = _build()

    serial_waits, overlap_waits = [], []
    serial_elapsed, overlap_elapsed = [], []
    # Alternate the two schedules so machine noise hits both equally.
    for rep in range(REPEATS):
        if rep == 0:
            s = benchmark.pedantic(
                lambda: _run(ep, xs, False), rounds=1, iterations=1
            )
        else:
            s = _run(ep, xs, False)
        o = _run(ep, xs, True)
        # The schedule cannot change the math.
        assert [v[0] for v in s.values] == [v[0] for v in o.values], (
            "overlapped exchange produced different tokens"
        )
        serial_waits.append(sum(v[1] for v in s.values))
        overlap_waits.append(sum(v[1] for v in o.values))
        serial_elapsed.append(s.elapsed_s)
        overlap_elapsed.append(o.elapsed_s)

    # Medians, not minima: a lucky descheduling can zero out a single
    # serialized rep (the straggler posted before the peer even asked)
    # and a single overlapped rep can eat a scheduler hiccup — the
    # median rejects both tails.
    med_serial = float(np.median(serial_waits))
    med_overlap = float(np.median(overlap_waits))
    reduction = 1.0 - med_overlap / med_serial if med_serial > 0 else 0.0

    print_header("dMoE expert all-to-all: serialized vs overlapped dispatch")
    print(
        f"  token-exchange exposed wait (median of {REPEATS}, "
        f"{WORLD} ranks summed, {LINK_LATENCY_S * 1e3:.0f} ms straggler "
        f"link): serial {med_serial * 1e3:.2f} ms -> overlap "
        f"{med_overlap * 1e3:.2f} ms ({reduction:.0%} hidden)"
    )
    print(
        f"  makespan (informational): serial "
        f"{min(serial_elapsed) * 1e3:.1f} ms, overlap "
        f"{min(overlap_elapsed) * 1e3:.1f} ms"
    )

    result = {
        "world": WORLD,
        "tokens_per_rank": TOKENS,
        "repeats": REPEATS,
        "link_latency_s": LINK_LATENCY_S,
        "plan_reps": PLAN_REPS,
        "serial_wait_s": serial_waits,
        "overlap_wait_s": overlap_waits,
        "median_serial_wait_s": med_serial,
        "median_overlap_wait_s": med_overlap,
        "wait_reduction": reduction,
        "serial_elapsed_s": serial_elapsed,
        "overlap_elapsed_s": overlap_elapsed,
        "bit_identical": True,
        "smoke": SMOKE,
    }
    write_result("BENCH_dist.json", result)

    # Overlap must hide the straggler's latency behind the plan build.
    # Typical measurement: ~99% of the serialized wait disappears.  The
    # timing gates hold only in full mode — the smoke canary (run
    # in-process inside tier-1, after modules that leave background
    # threads contending for the one CI core) asserts bit-identity and
    # artifact emission, matching the other benchmark smoke tests.
    if not SMOKE:
        assert med_overlap < med_serial, (
            f"overlap exposed {med_overlap * 1e3:.2f} ms of wait, not "
            f"below the serialized {med_serial * 1e3:.2f} ms"
        )
        assert reduction > 0.5, (
            f"only {reduction:.0%} of the serialized exposed wait was "
            "hidden by the overlapped plan build"
        )
