"""Tests for the chaos/serve quality gate ``benchmarks/check_regression.py``."""

import importlib.util
import json
from pathlib import Path

from repro.obs.runs import exceeds_tolerance

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)
compare = check_regression.compare


def record(design="chaos", **metrics):
    return {"design": design, "metrics": metrics}


class TestCompare:
    def test_identical_record_passes(self):
        base = record(hpwl=100.0, chaos_lost_jobs=0, jobs_requeued=3)
        assert compare(base, base) == []

    def test_drift_within_band_passes(self):
        # hpwl: 2% relative band.
        assert compare(record(hpwl=101.9), record(hpwl=100.0)) == []

    def test_drift_beyond_band_fails(self):
        failures = compare(record(hpwl=102.1), record(hpwl=100.0))
        assert len(failures) == 1 and "'hpwl' drifted" in failures[0]

    def test_same_rule_as_exceeds_tolerance(self):
        # An exact-zero invariant fails on any change; a wide-open
        # artifact band passes; total_overflow's absolute band dominates
        # near zero.  compare flags exactly what exceeds_tolerance does.
        cases = [
            ("chaos_lost_jobs", 1, 0),
            ("jobs_requeued", 40, 2),
            ("total_overflow", 0.9, 0.0),
            ("total_overflow", 1.1, 0.0),
        ]
        for name, value, base in cases:
            failed = bool(compare(record(**{name: value}), record(**{name: base})))
            assert failed == exceeds_tolerance(name, value, base), name

    def test_design_mismatch_stops_the_comparison(self):
        failures = compare(record("a", hpwl=1.0), record("b", hpwl=2.0))
        assert len(failures) == 1 and "design mismatch" in failures[0]

    def test_degraded_record_fails(self):
        fresh = dict(record(hpwl=100.0), degraded=True)
        failures = compare(fresh, record(hpwl=100.0))
        assert len(failures) == 1 and "degraded" in failures[0]

    def test_missing_metric_fails(self):
        failures = compare(record(), record(hpwl=100.0))
        assert failures == ["metric 'hpwl' missing from the fresh record"]

    def test_new_metric_fails(self):
        failures = compare(record(hpwl=100.0, vias=5), record(hpwl=100.0))
        assert len(failures) == 1 and "'vias' present" in failures[0]

    def test_non_numeric_baseline_entry_is_not_gated(self):
        assert compare(record(note="x"), record(note="y")) == []


class TestMain:
    def write(self, path, rec):
        path.write_text(json.dumps(rec))
        return str(path)

    def test_exit_codes(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", record(hpwl=100.0))
        ok = self.write(tmp_path / "ok.json", record(hpwl=101.0))
        bad = self.write(tmp_path / "bad.json", record(hpwl=110.0))
        assert check_regression.main(["--bench", ok, "--baseline", base]) == 0
        assert check_regression.main(["--bench", bad, "--baseline", base]) == 1
        assert "REGRESSION" in capsys.readouterr().out
