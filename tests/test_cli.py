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


# One non-default value per tuning leaf of FlowConfig: the ``--set``
# text and the value the flow must receive.
SET_VALUES = {
    "run_dp": ("false", False),
    "macro_channel": ("2.5", 2.5),
    "net_weighting": ("true", True),
    "timing_weighting": ("true", True),
    "timing_weighting_strength": ("3", 3.0),
    "gp.wirelength_model": ("lse", "lse"),
    "gp.max_outer_iterations": ("12", 12),
    "gp.inner_iterations": ("8", 8),
    "gp.routability": ("false", False),
    "gp.congestion_estimator": ("hybrid", "hybrid"),
    "gp.predict_model": ("m.json", "m.json"),
    "gp.whitespace_reservation": ("false", False),
    "gp.optimize_orientations": ("false", False),
    "gp.clustering": ("false", False),
    "gp.seed": ("3", 3),
    "dp.rounds": ("1", 1),
    "dp.congestion_aware": ("false", False),
}


def tuning_leaves() -> set:
    """The dotted name of every FlowConfig leaf ``--set`` may name."""
    from dataclasses import fields, is_dataclass

    from repro.flow import FlowConfig
    from repro.flow.config import NOT_OVERRIDES

    def walk(cfg, prefix):
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if is_dataclass(value):
                yield from walk(value, f"{prefix}{f.name}.")
            elif prefix + f.name not in NOT_OVERRIDES:
                yield prefix + f.name

    return set(walk(FlowConfig(), ""))


@pytest.fixture
def received(monkeypatch):
    """The FlowConfigs ``repro place`` hands the flow, which stops there."""
    from repro.flow import NTUplace4H

    seen = []

    def run(self, design, **kwargs):
        seen.append(self.config)
        raise RuntimeError("stopped once the config arrived")

    monkeypatch.setattr(NTUplace4H, "run", run)
    monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
    return seen


def place_without_set(bench_dir, received):
    """The FlowConfig a plain ``repro place`` hands the flow."""
    assert main(["place", "--aux", os.path.join(bench_dir, "clitest.aux")]) == 3
    (cfg,) = received
    return cfg


class TestPlaceSet:
    def test_every_tuning_leaf_has_a_case(self):
        assert set(SET_VALUES) == tuning_leaves()

    @pytest.mark.parametrize("key", sorted(SET_VALUES))
    def test_set_reaches_flow_config(self, bench_dir, received, key):
        from repro.flow import FlowConfig

        text, value = SET_VALUES[key]
        aux = os.path.join(bench_dir, "clitest.aux")
        assert main(["place", "--aux", aux, "--set", f"{key}={text}"]) == 3
        expected = FlowConfig()
        *path, leaf = key.split(".")
        target, got = expected, received[0]
        for part in path:
            target, got = getattr(target, part), getattr(got, part)
        setattr(target, leaf, value)
        assert received == [expected]
        assert type(getattr(got, leaf)) is type(value)

    def test_no_set_leaves_defaults(self, bench_dir, received):
        from repro.flow import FlowConfig

        assert place_without_set(bench_dir, received) == FlowConfig()

    @pytest.mark.parametrize(
        "flags", [["--wirelength-only"], ["--baseline", "random"]],
        ids=["wirelength-only", "baseline"],
    )
    def test_overrides_apply_after_flags(self, bench_dir, received, flags):
        aux = os.path.join(bench_dir, "clitest.aux")
        main(
            ["place", "--aux", aux, "--no-dp", *flags,
             "--set", "run_dp=true", "--set", "dp.congestion_aware=true"]
        )
        (cfg,) = received
        assert cfg.run_dp is True
        assert cfg.dp.congestion_aware is True
        assert cfg.gp.routability is False

    @pytest.mark.parametrize(
        "pair,key",
        [
            ("gp.max_outer_iterations", "gp.max_outer_iterations"),
            ("gp.not_a_knob=1", "gp.not_a_knob"),
            ("gp.max_outer_iterations=7.9", "gp.max_outer_iterations"),
            ("gp.congestion_estimator=bogus", "gp.congestion_estimator"),
            ("stage_budget={}", "stage_budget"),
        ],
        ids=["no-equals", "unknown", "fraction", "choice", "not-tuning"],
    )
    def test_bad_set_exits_2_and_names_key(
        self, bench_dir, received, capsys, pair, key
    ):
        aux = os.path.join(bench_dir, "clitest.aux")
        assert main(["place", "--aux", aux, "--set", pair]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert received == []

    def test_place_with_set(self, bench_dir):
        rc = main(
            [
                "place", "--aux", os.path.join(bench_dir, "clitest.aux"),
                "--no-route", "--set", "dp.rounds=1",
            ]
        )
        assert rc == 0


class TestDPKnobs:
    def test_defaults_leave_config_untouched(self, bench_dir, received):
        from repro.flow import FlowConfig

        assert place_without_set(bench_dir, received).dp == FlowConfig().dp


class TestPredictCLI:
    def test_defaults_leave_config_untouched(self, bench_dir, received):
        from repro.flow import FlowConfig

        gp = place_without_set(bench_dir, received).gp
        assert gp.congestion_estimator == FlowConfig().gp.congestion_estimator
        assert gp.predict_model is None

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

    @pytest.fixture
    def submitted(self, monkeypatch):
        """The ``options`` of every job ``repro submit`` sends."""
        sent = []

        class FakeClient:
            def __init__(self, url):
                pass

            def submit(self, design, *, options=None, priority=0,
                       max_retries=None):
                sent.append(options)
                return {"job_id": "j1", "state": "queued"}

        monkeypatch.setattr("repro.serve.ServeClient", FakeClient)
        return sent

    @pytest.mark.parametrize(
        "budget, key",
        [
            # Only the budgeted stages, each named exactly.
            ("gpp=3", "gpp"),
            ("macro_legal_refine=3", "macro_legal_refine"),
            # A finite number of seconds, never a string or a bool ...
            ("gp=abc", "gp"),
            ("gp=true", "gp"),
            ("dp=NaN", "dp"),
            ("route=Infinity", "route"),
            # ... of at least 0.
            ("legal=-1", "legal"),
        ],
        ids=[
            "typo", "unbudgeted-stage", "string", "bool", "nan", "inf",
            "negative",
        ],
    )
    def test_submit_bad_stage_budget_exits_2(self, submitted, capsys, budget, key):
        rc = main(["submit", "--suite", "rh01", "--stage-budget", budget])
        assert rc == 2
        assert submitted == []
        assert f"stage budget {key!r}" in capsys.readouterr().err

    def test_submit_stage_budget_numbers_and_null(self, tmp_path, submitted):
        from repro.serve.worker import build_flow_config

        rc = main(
            [
                "submit", "--suite", "rh01", "--json",
                "--stage-budget", "gp=null", "--stage-budget", "legal=0",
                "--stage-budget", "dp=2", "--stage-budget", "route=0.5",
            ]
        )
        assert rc == 0
        budget = {"gp": None, "legal": 0.0, "dp": 2.0, "route": 0.5}
        assert submitted[0]["stage_budget"] == budget
        cfg = build_flow_config(submitted[0], job_dir=str(tmp_path))
        assert cfg.stage_budget == budget

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
