"""The training CLI: argument handling, short runs, checkpoint/resume."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.model == "XS" and args.system == "dmoe"

    def test_rejects_bad_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--system", "gshard"])

    def test_distributed_flags(self):
        args = build_parser().parse_args([])
        assert args.dp_world == 0 and args.dist_backend == "sim"
        args = build_parser().parse_args(
            ["--dp-world", "2", "--dist-backend", "mp"]
        )
        assert args.dp_world == 2 and args.dist_backend == "mp"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dist-backend", "nccl"])


class TestMain:
    COMMON = [
        "--scale", "0.05", "--steps", "3", "--vocab-size", "64",
        "--tokens", "8000", "--global-batch", "8", "--micro-batch", "4",
    ]

    def test_dense_run(self):
        assert main(["--system", "dense"] + self.COMMON) == 0

    def test_dmoe_run(self):
        assert main(["--system", "dmoe"] + self.COMMON) == 0

    def test_moe_with_capacity(self):
        assert main(
            ["--system", "moe", "--capacity-factor", "1.5"] + self.COMMON
        ) == 0

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_data_parallel_run(self, backend):
        """--dp-world routes the step through the sharded data-parallel
        path on either transport (mp forks real echo workers)."""
        assert main(
            ["--system", "dmoe", "--dp-world", "2",
             "--dist-backend", backend] + self.COMMON
        ) == 0

    def test_traced_cc_run_reports_optimizer_bandwidth(self, tmp_path, caplog):
        """The closing summary says what the native Adam step moved and
        how fast, once a traced run has timed the optimizer phase."""
        import logging
        import re

        from repro.autograd import lower
        from repro.observability import registry

        if not lower.cc_available():
            pytest.skip("no C toolchain in this environment")
        args = ["--system", "dmoe", "--backend", "cc"] + self.COMMON
        with caplog.at_level(logging.INFO, logger="repro.cli"):
            assert main(args + ["--trace", str(tmp_path / "trace.json")]) == 0
        nbytes = registry().gauge("optim_bytes_per_step").value
        assert nbytes > 0 and nbytes % 28 == 0
        steps = [
            r.getMessage() for r in caplog.records
            if re.match(r"step \d+ loss", r.getMessage())
        ]  # the last one is the closing evaluation point, not a step
        assert steps[:-1] and all(re.search(r" gnorm [\d.]+", s) for s in steps[:-1])
        line = [r.getMessage() for r in caplog.records if "MB/step" in r.getMessage()]
        assert len(line) == 1
        assert re.fullmatch(
            rf"optimizer: {nbytes / 1e6:.0f} MB/step in [\d.]+ ms = [\d.]+ GB/s",
            line[0],
        )

    def test_checkpoint_and_resume(self, tmp_path):
        ckpt = str(tmp_path / "run")
        assert main(["--system", "dmoe", "--checkpoint", ckpt] + self.COMMON) == 0
        assert os.path.exists(ckpt)
        assert main(["--system", "dmoe", "--resume", ckpt] + self.COMMON) == 0

    def test_a_resumed_run_ends_where_the_straight_run_ends(self, tmp_path):
        """``--steps`` is the run's total: resuming the step-2 rotating
        checkpoint of a 4-step run trains steps 2 and 3 — same schedule,
        data order and RNG streams — and writes the straight run's bits."""
        from repro.checkpoint import CheckpointError, ShardReader, save_checkpoint

        common = ["--system", "dmoe", "--scale", "0.05", "--steps", "4"] + self.COMMON[4:]
        straight, resumed, rotating = (str(tmp_path / n) for n in ("S", "R", "D"))
        assert main(common + ["--ckpt-dir", rotating, "--checkpoint-every", "2",
                              "--checkpoint", straight]) == 0
        assert main(common + ["--resume", os.path.join(rotating, "ckpt-00000002"),
                              "--checkpoint", resumed]) == 0
        s, r = ShardReader(straight), ShardReader(resumed)
        assert s.meta["step"] == r.meta["step"] == 4
        assert sorted(s.keys()) == sorted(r.keys())
        for key in s.keys():
            assert np.array_equal(s[key], r[key]), key
        assert main(["generate", "--checkpoint", resumed, "--scale", "0.05",
                     "--vocab-size", "64", "--max-new-tokens", "4"]) == 0
        # A checkpoint without trainer state cannot continue a run.
        from repro.models import build_model

        bare = str(tmp_path / "bare")
        model = build_model("XS", system="dmoe", scale=0.05, vocab_size=64, rng=0)
        save_checkpoint(bare, model, step=2)
        with pytest.raises(CheckpointError, match="no trainer state"):
            main(common + ["--resume", bare])


class TestLowerReport:
    COMMON = [
        "report", "--steps", "3", "--tokens", "8000",
        "--global-batch", "8", "--micro-batch", "4",
    ]

    def test_report_table(self, capsys):
        assert main(["lower"] + self.COMMON) == 0
        out = capsys.readouterr().out
        assert "lowering report" in out
        assert "lowered (off the interpreter" in out and "native (in C" in out
        assert "python closure" in out  # reshape/transpose units are not C
        assert "host remainder" in out
        assert "copies per step (bytes)" in out and "    step 2 " in out

    def test_report_json_structure(self, capsys):
        import json

        assert main(["lower"] + self.COMMON + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["records_total"] > 0
        assert 0.0 <= report["coverage"] <= 1.0
        assert report["records_lowered"] <= report["records_total"]
        assert 0 < report["records_native"] <= report["records_lowered"]
        assert report["kernel_native"].keys() == report["kernel_units"].keys()
        assert report["kernel_native"]["ln"] and not report["kernel_native"]["reshape"]
        # The segmenter's view is toolchain-independent; the plan only
        # attaches when cc is available.
        from repro.autograd import lower

        assert report["attached"] == lower.cc_available()
        assert isinstance(report["kernel_units"], dict)
        assert isinstance(report["host_records"], dict)
        # The two copying branches, per step: the w1 gather and its
        # backward are not among the records, so what is copied repeats.
        assert report["kernel_units"]["transpose"] == 1
        for key in ("reshape_copy_bytes", "leaf_copy_bytes"):
            assert len(report[key]) == 3 and len(set(report[key])) == 1
