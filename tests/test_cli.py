"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


@pytest.fixture
def bench_dir(tmp_path):
    out = str(tmp_path / "bench")
    rc = main(
        [
            "generate", "--name", "clitest", "--cells", "150", "--macros", "1",
            "--seed", "3", "--out", out,
        ]
    )
    assert rc == 0
    return out


class TestGenerate:
    def test_creates_aux(self, bench_dir):
        assert os.path.exists(os.path.join(bench_dir, "clitest.aux"))

    def test_suite_generate(self, tmp_path, capsys):
        out = str(tmp_path / "s")
        assert main(["generate", "--suite", "rh01", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "rh01.aux"))
        assert "rh01" in capsys.readouterr().out


class TestStats:
    def test_stats_consistent(self, bench_dir, capsys):
        rc = main(["stats", "--aux", os.path.join(bench_dir, "clitest.aux")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "consistent" in out
        assert "#cells" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["stats", "--aux", str(tmp_path / "missing.aux")])
        assert rc == 2
        assert "cannot load" in capsys.readouterr().err


class TestPlace:
    def test_place_and_write(self, bench_dir, tmp_path, capsys):
        placed = str(tmp_path / "placed")
        svg = str(tmp_path / "p.svg")
        rc = main(
            [
                "place", "--aux", os.path.join(bench_dir, "clitest.aux"),
                "--out", placed, "--svg", svg, "--no-dp", "--wirelength-only",
            ]
        )
        assert rc == 0
        assert os.path.exists(os.path.join(placed, "clitest.aux"))
        assert os.path.exists(svg)
        assert "flow result" in capsys.readouterr().out

    def test_place_baseline(self, bench_dir, capsys):
        rc = main(
            [
                "place", "--aux", os.path.join(bench_dir, "clitest.aux"),
                "--baseline", "random", "--no-route",
            ]
        )
        assert rc == 0

    def test_place_baseline_honours_no_dp(self, bench_dir, monkeypatch):
        from repro.dp import DetailedPlacer

        calls = []
        monkeypatch.setattr(
            DetailedPlacer, "run", lambda self, *a, **k: calls.append(a)
        )
        rc = main(
            [
                "place", "--aux", os.path.join(bench_dir, "clitest.aux"),
                "--baseline", "quadratic", "--no-dp", "--no-route",
            ]
        )
        assert rc == 0
        assert calls == []


class TestValidate:
    def test_clean_design(self, bench_dir, capsys):
        rc = main(["validate", "--aux", os.path.join(bench_dir, "clitest.aux")])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_fatal_design_exits_2(self, bench_dir, tmp_path, capsys):
        import shutil

        bad = str(tmp_path / "bad")
        shutil.copytree(bench_dir, bad)
        nodes = os.path.join(bad, "clitest.nodes")
        text = open(nodes).read().replace(" 1.75 ", " -1.75 ", 1)
        if " -1.75 " not in text:  # fall back to any width token
            lines = text.splitlines()
            for i, line in enumerate(lines):
                parts = line.split()
                if len(parts) >= 3 and parts[0].startswith("c"):
                    parts[1] = "-" + parts[1]
                    lines[i] = " ".join(parts)
                    break
            text = "\n".join(lines) + "\n"
        open(nodes, "w").write(text)
        rc = main(["validate", "--aux", os.path.join(bad, "clitest.aux")])
        assert rc == 2
        out = capsys.readouterr().out
        assert "fatal" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["validate", "--aux", str(tmp_path / "gone.aux")])
        assert rc == 2


class TestResilienceFlags:
    def test_resume_requires_checkpoint_dir(self, bench_dir, capsys):
        rc = main(
            ["place", "--aux", os.path.join(bench_dir, "clitest.aux"), "--resume"]
        )
        assert rc == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_then_resume(self, bench_dir, tmp_path, capsys):
        ckpt = str(tmp_path / "ck")
        aux = os.path.join(bench_dir, "clitest.aux")
        base = ["place", "--aux", aux, "--no-route", "--checkpoint-dir", ckpt]
        assert main(base) == 0
        assert os.path.exists(os.path.join(ckpt, "checkpoint.json"))
        assert main(base + ["--resume"]) == 0

    def test_strict_flags_degraded_run(self, bench_dir, capsys):
        from repro.resilience import FaultPlan, install_plan, reset_plan

        aux = os.path.join(bench_dir, "clitest.aux")
        try:
            install_plan(FaultPlan.parse("raise.dp"))
            rc = main(["place", "--aux", aux, "--no-route", "--strict"])
        finally:
            reset_plan()
        assert rc == 1
        err = capsys.readouterr().err
        assert "degraded" in err and "stage=dp" in err

    def test_missing_checkpoint_reports_failure(self, bench_dir, tmp_path, capsys):
        rc = main(
            [
                "place", "--aux", os.path.join(bench_dir, "clitest.aux"),
                "--checkpoint-dir", str(tmp_path / "nope"), "--resume",
            ]
        )
        assert rc == 3
        assert "flow failed" in capsys.readouterr().err


class TestLegalizationFailure:
    def test_double_failure_reports_and_exits_1(
        self, bench_dir, tmp_path, capsys, monkeypatch
    ):
        # Legalization and its Tetris fallback both raise: the flow
        # degrades, leaves no legality report, and the command still
        # reports the degradations and writes its outputs.
        from repro.legal import Legalizer

        def broken(self, design):
            raise RuntimeError("injected legalization failure")

        monkeypatch.setattr(Legalizer, "legalize", broken)
        placed = str(tmp_path / "placed")
        rc = main(
            [
                "place", "--aux", os.path.join(bench_dir, "clitest.aux"),
                "--no-route", "--out", placed,
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage=legal reason=fallback_failed" in err
        assert os.path.exists(os.path.join(placed, "clitest.aux"))


class TestDPKnobs:
    def test_knobs_reach_flow_config(self):
        from repro.cli import _apply_dp_knobs, build_parser
        from repro.flow.config import FlowConfig

        args = build_parser().parse_args(
            ["place", "--aux", "x.aux", "--dp-passes", "1"]
        )
        cfg = FlowConfig()
        _apply_dp_knobs(cfg, args)
        assert cfg.dp.rounds == 1

    def test_defaults_leave_config_untouched(self):
        from repro.cli import _apply_dp_knobs, build_parser
        from repro.flow.config import FlowConfig

        args = build_parser().parse_args(["place", "--aux", "x.aux"])
        cfg = FlowConfig()
        _apply_dp_knobs(cfg, args)
        default = FlowConfig()
        assert cfg.dp == default.dp

    def test_place_with_dp_knobs(self, bench_dir):
        rc = main(
            [
                "place", "--aux", os.path.join(bench_dir, "clitest.aux"),
                "--no-route", "--dp-passes", "1",
            ]
        )
        assert rc == 0


class TestPredictCLI:
    def test_knobs_reach_flow_config(self):
        from repro.cli import _apply_predict_knobs, build_parser
        from repro.flow.config import FlowConfig

        args = build_parser().parse_args(
            [
                "place", "--aux", "x.aux", "--estimator", "hybrid",
                "--predict-model", "m.json", "--predict-interval", "6",
                "--predict-drift-tol", "0.5",
            ]
        )
        cfg = FlowConfig()
        _apply_predict_knobs(cfg, args)
        assert cfg.gp.congestion_estimator == "hybrid"
        assert cfg.gp.predict_model == "m.json"
        assert cfg.gp.predict_router_interval == 6
        assert cfg.gp.predict_drift_tol == 0.5

    def test_defaults_leave_config_untouched(self):
        from repro.cli import _apply_predict_knobs, build_parser
        from repro.flow.config import FlowConfig

        args = build_parser().parse_args(["place", "--aux", "x.aux"])
        cfg = FlowConfig()
        _apply_predict_knobs(cfg, args)
        default = FlowConfig()
        assert cfg.gp.congestion_estimator == default.gp.congestion_estimator
        assert cfg.gp.predict_model is None

    def test_show_packaged_default(self, capsys):
        rc = main(["predict", "show"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "config_hash" in out

    def test_show_missing_artifact_exits_2(self, tmp_path, capsys):
        rc = main(["predict", "show", "--model", str(tmp_path / "gone.json")])
        assert rc == 2


class TestRoute:
    def test_route_scores(self, bench_dir, tmp_path, capsys):
        placed = str(tmp_path / "placed")
        main(
            [
                "place", "--aux", os.path.join(bench_dir, "clitest.aux"),
                "--out", placed, "--no-dp", "--no-route", "--wirelength-only",
            ]
        )
        capsys.readouterr()
        rc = main(["route", "--aux", os.path.join(placed, "clitest.aux"), "--map"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RC" in out
        assert "scale" in out  # heat-map legend


class TestServeCLI:
    def test_serve_flags_reach_settings(self, tmp_path, monkeypatch, capsys):
        captured = {}

        class FakeServer:
            def __init__(self, root, host="127.0.0.1", port=0,
                         settings=None):
                captured["settings"] = settings
                self.url = f"http://{host}:{port}"
                self.root = str(root)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def drain(self, timeout):
                captured["drain_timeout"] = timeout
                return {
                    "draining": True, "timeout": timeout,
                    "in_flight": 0, "drained": True,
                }

        monkeypatch.setattr("repro.serve.JobServer", FakeServer)
        # ``repro serve`` blocks on SIGTERM/SIGINT; stand in for the
        # signal so the command falls straight through to the drain.
        monkeypatch.setattr(
            "threading.Event.wait", lambda self, timeout=None: True
        )
        rc = main(
            [
                "serve", "--root", str(tmp_path / "srv"), "--port", "0",
                "--workers", "0", "--max-queue-depth", "7",
                "--rate-limit", "2.5", "--drain-timeout", "9",
            ]
        )
        assert rc == 0
        settings = captured["settings"]
        assert settings.max_queue_depth == 7
        assert settings.rate_limit == 2.5
        assert settings.drain_timeout == 9.0
        # SIGTERM path drains with the same deadline it was booted with.
        assert captured["drain_timeout"] == 9.0
        assert "serving jobs" in capsys.readouterr().out

    def test_submit_set_values_parse_as_json(self, tmp_path, monkeypatch):
        from repro.serve.worker import build_flow_config

        captured = {}

        class FakeClient:
            def __init__(self, url):
                pass

            def submit(self, design, *, options=None, priority=0,
                       max_retries=None):
                captured["options"] = options
                return {"job_id": "j1", "state": "queued"}

        monkeypatch.setattr("repro.serve.ServeClient", FakeClient)
        rc = main(
            [
                "submit", "--suite", "rh01", "--json",
                "--set", "gp.routability=false",
                "--set", "gp.max_outer_iterations=8",
                "--set", "gp.congestion_estimator=router",
            ]
        )
        assert rc == 0
        assert captured["options"]["config"] == {
            "gp.routability": False,
            "gp.max_outer_iterations": 8,
            "gp.congestion_estimator": "router",
        }
        cfg = build_flow_config(captured["options"], job_dir=str(tmp_path))
        assert cfg.gp.routability is False

    def test_jobs_drain_against_live_server(self, tmp_path, capsys):
        from repro.serve import JobServer, ServeSettings

        settings = ServeSettings(
            workers=0, poll_interval=0.02, monitor_interval=0.1
        )
        with JobServer(tmp_path / "srv", settings=settings) as server:
            rc = main(["jobs", "--url", server.url, "drain"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "drained" in out
            assert "refused with 503" in out
            # And the server really is draining now.
            assert server.supervisor.draining is True
