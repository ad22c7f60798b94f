"""Checkpoint/resume tests: per-stage persistence and bit-identical resume."""

import json
import os

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.dp import DPConfig
from repro.flow import FlowConfig, NTUplace4H
from repro.flow.ntuplace4h import FLOW_STAGES
from repro.legal import Legalizer
from repro.resilience import (
    CHECKPOINT_VERSION,
    CheckpointError,
    has_checkpoint,
    inject,
    load_checkpoint,
    reset_plan,
)

SCALARS = (
    "hpwl_gp", "hpwl_legal", "hpwl_final", "rc", "scaled_hpwl",
    "total_overflow", "peak_congestion", "legal",
)


def bench(seed=81):
    return make_benchmark(
        BenchmarkSpec(
            name="c", num_cells=200, num_macros=2, num_fixed_macros=1,
            num_terminals=10, utilization=0.55, cap_factor=4.0, seed=seed,
        )
    )


def fast_flow(checkpoint_dir=None) -> FlowConfig:
    cfg = FlowConfig()
    cfg.gp.clustering = False
    cfg.gp.max_outer_iterations = 12
    cfg.gp.inner_iterations = 14
    cfg.dp = DPConfig(rounds=1, congestion_aware=True)
    cfg.checkpoint_dir = checkpoint_dir
    return cfg


def placement_state(design):
    return [(n.name, n.x, n.y, n.orientation) for n in design.nodes]


@pytest.fixture(autouse=True)
def _isolated_faults():
    yield
    reset_plan()


class TestCheckpointFile:
    def test_written_after_every_stage(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        d = bench()
        NTUplace4H(fast_flow(ckpt_dir)).run(d)
        assert has_checkpoint(ckpt_dir)
        ckpt = load_checkpoint(ckpt_dir)
        assert ckpt.version == CHECKPOINT_VERSION
        assert tuple(ckpt.completed) == FLOW_STAGES
        assert len(ckpt.positions) == d.num_nodes
        assert ckpt.rng  # both RNG streams captured

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "nope"))

    def test_version_mismatch_rejected(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        d = bench()
        NTUplace4H(fast_flow(ckpt_dir)).run(d, route=False)
        path = os.path.join(ckpt_dir, "checkpoint.json")
        data = json.load(open(path))
        data["version"] = 999
        json.dump(data, open(path, "w"))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(ckpt_dir)

    def test_apply_to_mismatched_design_rejected(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        NTUplace4H(fast_flow(ckpt_dir)).run(bench(), route=False)
        other = make_benchmark(
            BenchmarkSpec(name="other", num_cells=50, num_macros=1, seed=9)
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt_dir).apply(other)

    def test_io_error_degrades_but_flow_completes(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        d = bench()
        with inject("checkpoint.io_error"):
            result = NTUplace4H(fast_flow(ckpt_dir)).run(d, route=False)
        assert result.degraded
        assert ("checkpoint", "io_error") in [
            (e["stage"], e["reason"]) for e in result.degradation
        ]
        assert result.legal  # the flow itself was unaffected


class TestResume:
    def test_kill_after_gp_then_resume_bit_identical(self, tmp_path, monkeypatch):
        # Reference: one uninterrupted run.
        ref_design = bench()
        ref_result = NTUplace4H(fast_flow()).run(ref_design)
        ref_state = placement_state(ref_design)

        # Victim: same design, checkpointing on, "process dies" in
        # legalization.  KeyboardInterrupt models a kill — it must NOT
        # be swallowed by the degrade-don't-crash machinery.
        ckpt_dir = str(tmp_path / "ck")
        victim = bench()

        def killed(self, design):
            raise KeyboardInterrupt

        with monkeypatch.context() as mp:
            mp.setattr(Legalizer, "legalize", killed)
            with pytest.raises(KeyboardInterrupt):
                NTUplace4H(fast_flow(ckpt_dir)).run(victim)

        ckpt = load_checkpoint(ckpt_dir)
        assert ckpt.completed == ["gp", "macro_legal_refine"]

        # Resume on a freshly generated design, as a new process would.
        resumed = bench()
        result = NTUplace4H(fast_flow(ckpt_dir)).run(
            resumed, resume_from=ckpt_dir
        )
        assert result.resumed_stages == ["gp", "macro_legal_refine"]
        assert placement_state(resumed) == ref_state
        for name in SCALARS:
            assert getattr(result, name) == getattr(ref_result, name), name
        assert not result.degraded

    def test_resume_from_complete_checkpoint_skips_everything(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        d = bench()
        first = NTUplace4H(fast_flow(ckpt_dir)).run(d)
        done_state = placement_state(d)

        again = bench()
        result = NTUplace4H(fast_flow()).run(again, resume_from=ckpt_dir)
        assert tuple(result.resumed_stages) == FLOW_STAGES
        assert placement_state(again) == done_state
        for name in SCALARS:
            assert getattr(result, name) == getattr(first, name), name
        # Restored telemetry (stage timings of the original run) survives.
        assert set(first.stage_seconds) == set(result.telemetry["stage_seconds"])

    def test_resume_restores_net_weights(self, tmp_path):
        # Congestion-driven net weighting mutates live weights mid-flow;
        # the checkpoint must carry them so later stages see the same
        # objective, while HPWL scoring keeps the original weights.
        ckpt_dir = str(tmp_path / "ck")
        cfg = fast_flow(ckpt_dir)
        cfg.net_weighting = True
        d = bench()
        first = NTUplace4H(cfg).run(d)
        weights_after = [net.weight for net in d.nets]

        again = bench()
        cfg2 = fast_flow(ckpt_dir)
        cfg2.net_weighting = True
        result = NTUplace4H(cfg2).run(again, resume_from=ckpt_dir)
        assert [net.weight for net in again.nets] == weights_after
        assert result.hpwl_final == first.hpwl_final


class TestResultRecord:
    def test_summary_survives_checkpoint_round_trip(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        first = NTUplace4H(fast_flow(ckpt_dir)).run(bench())
        assert load_checkpoint(ckpt_dir).result == first.summary()
        result = NTUplace4H(fast_flow()).run(bench(), resume_from=ckpt_dir)
        expected = dict(first.summary(), resumed_stages=list(FLOW_STAGES))
        assert result.summary() == expected

    def test_checkpoint_in_older_layout_resumes(self, tmp_path, monkeypatch):
        # Older checkpoints hold a result without the design, run id and
        # resumed stages, and a calibration with the supply map.
        reference = bench()
        ref = NTUplace4H(fast_flow()).run(reference)
        ckpt_dir = str(tmp_path / "ck")

        def killed(self, design):
            raise KeyboardInterrupt

        with monkeypatch.context() as mp:
            mp.setattr(Legalizer, "legalize", killed)
            with pytest.raises(KeyboardInterrupt):
                NTUplace4H(fast_flow(ckpt_dir)).run(bench())
        path = os.path.join(ckpt_dir, "checkpoint.json")
        data = json.load(open(path))
        for key in ("design", "run_id", "resumed_stages"):
            del data["result"][key]
        data["calibration"]["supply"] = [[0.0]]
        json.dump(data, open(path, "w"))

        resumed = bench()
        result = NTUplace4H(fast_flow()).run(resumed, resume_from=ckpt_dir)
        assert placement_state(resumed) == placement_state(reference)
        expected = dict(ref.summary(), resumed_stages=["gp", "macro_legal_refine"])
        actual = result.summary()
        for summary in (expected, actual):
            summary.pop("stage_seconds")
        assert actual == expected
        assert set(result.stage_seconds) == set(ref.stage_seconds)
