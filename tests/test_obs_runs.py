"""Tests for the run-history registry (repro.obs.runs) and its CLI."""

import json
import os

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.cli import main
from repro.dp import DPConfig
from repro.flow import FlowConfig, NTUplace4H
from repro.obs import (
    RUN_SCHEMA_VERSION,
    RunRecord,
    RunRegistry,
    RunRegistryError,
    SchemaError,
    diff_runs,
    record_flow_run,
    validate_run_record,
)
from repro.obs.runs import (
    config_hash,
    exceeds_tolerance,
    git_revision,
    new_run_id,
    run_summary_row,
)
from repro.obs.schema import (
    RUN_SCHEMA_VERSION as SCHEMA_RUN_VERSION,
    SCHEMA_VERSION,
    build_run_schema,
    build_trace_schema,
)
from tests.quality import assert_quality


def _record(run_id="rh01-20260807-120000-abc123", design="rh01", *,
            created=1000.0, metrics=None, stages=None, degraded=False):
    return {
        "schema": RUN_SCHEMA_VERSION,
        "run_id": run_id,
        "created": created,
        "design": design,
        "flow": "ntuplace4h",
        "config_hash": "deadbeef0123",
        "git_rev": "a" * 40,
        "legal": True,
        "degraded": degraded,
        "degradation": [],
        "stage_seconds": stages or {"gp": 1.5, "legal": 0.2, "dp": 0.8},
        "metrics": metrics or {
            "hpwl_final": 1000.0, "rc": 1.05, "scaled_hpwl": 1050.0,
        },
        "trace_path": None,
    }


class TestRunRegistry:
    def test_append_list_get_count(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        a = _record("rh01-a-111111", created=1.0)
        b = _record("rh01-b-222222", created=2.0)
        assert reg.append(a) == "rh01-a-111111"
        assert reg.append(b) == "rh01-b-222222"
        assert reg.count() == 2
        listed = reg.list()
        assert [r["run_id"] for r in listed] == [
            "rh01-b-222222", "rh01-a-111111"  # newest first
        ]
        assert reg.get("rh01-a-111111")["created"] == 1.0

    def test_jsonl_mirror_appends(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        reg.append(_record("x-1-aaaaaa"))
        reg.append(_record("x-2-bbbbbb"))
        lines = open(reg.jsonl_path).read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["run_id"] == "x-1-aaaaaa"

    def test_prefix_lookup(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        reg.append(_record("rh01-20260807-aaa111"))
        reg.append(_record("rh02-20260807-bbb222", design="rh02"))
        assert reg.get("rh01")["run_id"] == "rh01-20260807-aaa111"

    def test_ambiguous_prefix_raises(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        reg.append(_record("rh01-a-111111", created=1.0))
        reg.append(_record("rh01-b-222222", created=2.0))
        with pytest.raises(RunRegistryError, match="ambiguous"):
            reg.get("rh01")

    def test_missing_id_raises(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        with pytest.raises(RunRegistryError, match="no run matching"):
            reg.get("nope")

    def test_list_filters_by_design_and_limit(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        for i in range(5):
            reg.append(_record(f"rh01-{i}-{i:06d}", created=float(i)))
        reg.append(_record("rh02-0-999999", design="rh02", created=99.0))
        assert len(reg.list(design="rh01")) == 5
        assert len(reg.list(design="rh01", limit=2)) == 2
        assert reg.list(limit=1)[0]["design"] == "rh02"

    def test_set_trace_path(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        reg.append(_record("rh01-a-111111"))
        reg.set_trace_path("rh01-a", "/tmp/trace.jsonl")
        assert reg.get("rh01-a-111111")["trace_path"] == "/tmp/trace.jsonl"

    def test_invalid_record_rejected(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        bad = _record()
        del bad["design"]
        with pytest.raises(SchemaError, match="design"):
            reg.append(bad)
        assert reg.count() == 0
        assert not os.path.exists(reg.jsonl_path)

    def test_duplicate_run_id_rejected(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        reg.append(_record("dup-1-aaaaaa"))
        with pytest.raises(Exception):
            reg.append(_record("dup-1-aaaaaa"))

    def test_registry_survives_reopen(self, tmp_path):
        root = tmp_path / "runs"
        RunRegistry(root).append(_record("rh01-a-111111"))
        assert RunRegistry(root).count() == 1


class TestProvenance:
    def test_config_hash_stable_and_sensitive(self):
        a, b = FlowConfig(), FlowConfig()
        assert config_hash(a) == config_hash(b)
        b.gp.max_outer_iterations += 1
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 12

    def test_git_revision_resolves_this_repo(self):
        rev = git_revision(os.path.dirname(__file__))
        assert rev is not None
        assert len(rev) == 40
        int(rev, 16)  # hex

    def test_git_revision_none_outside_repo(self, tmp_path):
        assert git_revision(str(tmp_path)) is None

    def test_new_run_id_shape(self):
        rid = new_run_id("rh01")
        assert rid.startswith("rh01-")
        assert len(rid.rsplit("-", 1)[1]) == 6
        assert new_run_id("rh01") != new_run_id("rh01")


class TestFlowIntegration:
    @pytest.fixture(scope="class")
    def flow_run(self, tmp_path_factory):
        runs_dir = str(tmp_path_factory.mktemp("runs"))
        cfg = FlowConfig()
        cfg.gp.clustering = False
        cfg.gp.max_outer_iterations = 6
        cfg.gp.inner_iterations = 16
        cfg.refine_outer_iterations = 2
        cfg.dp = DPConfig(rounds=1)
        cfg.runs_dir = runs_dir
        design = make_benchmark(
            BenchmarkSpec(
                name="runflow", num_cells=200, num_macros=1,
                num_fixed_macros=1, num_terminals=8, utilization=0.5,
                cap_factor=4.0, seed=5,
            )
        )
        result = NTUplace4H(cfg).run(design, route=False)
        return runs_dir, cfg, result

    def test_run_recorded_with_id(self, flow_run):
        runs_dir, cfg, result = flow_run
        assert result.run_id is not None
        record = RunRegistry(runs_dir).get(result.run_id)
        validate_run_record(record)
        assert record["design"] == "runflow"
        assert record["config_hash"] == config_hash(cfg)
        assert record["metrics"]["hpwl_final"] == pytest.approx(
            result.hpwl_final
        )
        assert record["metrics"]["legal_ok"] == 1.0
        assert set(record["stage_seconds"]) >= {"global_place", "legalize"}

    def test_from_flow_and_record_flow_run(self, flow_run, tmp_path):
        _, cfg, result = flow_run
        rec = RunRecord.from_flow(result, cfg, trace_path="t.jsonl")
        validate_run_record(rec.as_record())
        assert rec.trace_path == "t.jsonl"
        rid = record_flow_run(tmp_path / "r2", result, cfg)
        assert RunRegistry(tmp_path / "r2").get(rid)["design"] == "runflow"


class TestDiffRuns:
    def test_within_tolerance_no_regression(self):
        a = _record("a-1-aaaaaa")
        b = _record("b-1-bbbbbb",
                    metrics={"hpwl_final": 1010.0, "rc": 1.055,
                             "scaled_hpwl": 1060.0})
        diff = diff_runs(a, b)
        assert diff["comparable"]
        assert diff["regressions"] == []
        assert all(row["flag"] == "" for row in diff["metrics"])

    def test_regression_flagged_beyond_tolerance(self):
        a = _record("a-1-aaaaaa")
        b = _record("b-1-bbbbbb",
                    metrics={"hpwl_final": 1100.0, "rc": 1.05,
                             "scaled_hpwl": 1050.0})
        diff = diff_runs(a, b)
        assert diff["regressions"] == ["hpwl_final"]
        row = next(r for r in diff["metrics"] if r["metric"] == "hpwl_final")
        assert row["flag"] == "REGRESSION"
        assert row["delta"] == pytest.approx(100.0)
        assert row["rel"] == "+10.00%"

    def test_improvement_also_exceeds_band(self):
        # Tolerances are symmetric drift bands (exceeds_tolerance
        # semantics): a 10% improvement is still flagged for attention.
        a = _record("a-1-aaaaaa")
        b = _record("b-1-bbbbbb",
                    metrics={"hpwl_final": 900.0, "rc": 1.05,
                             "scaled_hpwl": 1050.0})
        assert diff_runs(a, b)["regressions"] == ["hpwl_final"]

    def test_stage_rows_informational(self):
        a = _record("a-1-aaaaaa", stages={"gp": 1.0})
        b = _record("b-1-bbbbbb", stages={"gp": 3.0})
        diff = diff_runs(a, b)
        (row,) = diff["stages"]
        assert row["delta_s"] == pytest.approx(2.0)
        assert row["rel"] == "+200.0%"
        assert diff["regressions"] == []  # runtime never gates

    def test_different_designs_not_comparable(self):
        diff = diff_runs(_record(design="rh01"),
                         _record("z-1-zzzzzz", design="rh02"))
        assert not diff["comparable"]

    def test_exceeds_tolerance_semantics(self):
        # hpwl: (2% rel, 0 abs) -> 1.9% drift passes, 2.1% fails.
        assert not exceeds_tolerance("hpwl", 101.9, 100.0)
        assert exceeds_tolerance("hpwl", 102.1, 100.0)
        # total_overflow: abs bound 1.0 dominates near zero.
        assert not exceeds_tolerance("total_overflow", 0.9, 0.0)
        assert exceeds_tolerance("total_overflow", 1.1, 0.0)
        # unknown metrics get the default band.
        assert exceeds_tolerance("brand_new_metric", 103.0, 100.0)

    def test_run_summary_row_shape(self):
        row = run_summary_row(_record())
        assert row["design"] == "rh01"
        assert row["legal"] == "yes"
        assert row["time_s"] == pytest.approx(2.5)
        assert row["rev"] == "a" * 10


class TestAssertQuality:
    """The suite-design gate of the stage tests applies TOLERANCES too."""

    def test_values_in_band_pass(self):
        assert_quality({"hpwl": 101.9, "dp_accepted": 7},
                       {"hpwl": 100.0, "dp_accepted": 7})

    def test_drift_names_metric_and_prints_fresh_values(self):
        with pytest.raises(AssertionError) as err:
            assert_quality({"hpwl": 100.0, "dp_accepted": 8},
                           {"hpwl": 100.0, "dp_accepted": 7})
        assert "['dp_accepted']" in str(err.value)
        assert "'dp_accepted': 8" in str(err.value)

    @pytest.mark.parametrize("fresh", [{"hpwl": 100.0},
                                       {"hpwl": 100.0, "vias": 3, "rc": 1.0}])
    def test_changed_metric_set_fails(self, fresh):
        with pytest.raises(AssertionError):
            assert_quality(fresh, {"hpwl": 100.0, "vias": 3})


class TestRunsCli:
    @pytest.fixture
    def registry_dir(self, tmp_path):
        root = str(tmp_path / "runs")
        reg = RunRegistry(root)
        reg.append(_record("rh01-base-aaaaaa", created=1.0))
        reg.append(
            _record(
                "rh01-head-bbbbbb", created=2.0,
                metrics={"hpwl_final": 1100.0, "rc": 1.05,
                         "scaled_hpwl": 1050.0},
            )
        )
        return root

    def test_list(self, registry_dir, capsys):
        assert main(["runs", "--runs-dir", registry_dir, "list"]) == 0
        out = capsys.readouterr().out
        assert "rh01-head-bbbbbb" in out and "rh01-base-aaaaaa" in out
        assert out.index("rh01-head") < out.index("rh01-base")  # newest first

    def test_list_empty(self, tmp_path, capsys):
        root = str(tmp_path / "empty")
        RunRegistry(root)
        assert main(["runs", "--runs-dir", root, "list"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show(self, registry_dir, capsys):
        assert main(
            ["runs", "--runs-dir", registry_dir, "show", "rh01-base"]
        ) == 0
        out = capsys.readouterr().out
        assert "stage runtimes" in out
        assert '"config_hash": "deadbeef0123"' in out

    def test_diff_flags_regression_exit_1(self, registry_dir, capsys):
        rc = main(
            ["runs", "--runs-dir", registry_dir, "diff",
             "rh01-base", "rh01-head"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out + captured.err
        assert "hpwl_final" in captured.out

    def test_diff_clean_exit_0(self, registry_dir, capsys):
        rc = main(
            ["runs", "--runs-dir", registry_dir, "diff",
             "rh01-base", "rh01-base-aaaaaa"]
        )
        assert rc == 0

    def test_missing_dir_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
        assert main(["runs", "list"]) == 2
        assert "--runs-dir" in capsys.readouterr().err

    def test_env_var_configures_dir(self, registry_dir, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", registry_dir)
        assert main(["runs", "list"]) == 0
        assert "rh01-base-aaaaaa" in capsys.readouterr().out

    def test_unknown_id_exit_2(self, registry_dir, capsys):
        assert main(
            ["runs", "--runs-dir", registry_dir, "show", "nope"]
        ) == 2
        assert "no run matching" in capsys.readouterr().err

    def test_place_records_run_and_trace_path(self, tmp_path, capsys):
        bench = str(tmp_path / "bench")
        assert main(
            ["generate", "--name", "runcli", "--cells", "120", "--macros",
             "1", "--seed", "9", "--out", bench]
        ) == 0
        runs_dir = str(tmp_path / "runs")
        trace = str(tmp_path / "trace.jsonl")
        rc = main(
            ["place", "--aux", os.path.join(bench, "runcli.aux"),
             "--no-route", "--no-dp", "--runs-dir", runs_dir,
             "--trace", trace]
        )
        assert rc == 0
        reg = RunRegistry(runs_dir)
        assert reg.count() == 1
        (record,) = reg.list()
        validate_run_record(record)
        assert record["design"] == "runcli"
        assert record["trace_path"] == trace
        assert os.path.exists(trace)


class TestSchemaDocs:
    def _docs_dir(self):
        return os.path.join(
            os.path.dirname(__file__), os.pardir, "docs", "schemas"
        )

    def test_committed_trace_schema_matches_builder(self):
        path = os.path.join(
            self._docs_dir(), f"trace-records-v{SCHEMA_VERSION}.schema.json"
        )
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == build_trace_schema()

    def test_committed_run_schema_matches_builder(self):
        path = os.path.join(
            self._docs_dir(), f"run-record-v{SCHEMA_RUN_VERSION}.schema.json"
        )
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == build_run_schema()

    def test_validate_run_record_rejects_extras(self):
        rec = _record()
        rec["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            validate_run_record(rec)

    def test_validate_run_record_type_errors(self):
        rec = _record()
        rec["legal"] = "yes"
        with pytest.raises(SchemaError, match="legal"):
            validate_run_record(rec)
