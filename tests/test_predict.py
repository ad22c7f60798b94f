"""Tests for the learned congestion predictor (repro.predict) and the
hybrid GP estimator built on it.

:class:`TestHybridOnSuite` places rh04 with the router and the hybrid
estimator under a model trained from scratch, and holds the round
counts, fallbacks, drift, validation MSE and hybrid-versus-router
quality deltas to the values committed in :data:`SUITE_QUALITY`.
"""

import json
import os

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark, make_suite_design
from repro.gp.inflation import CongestionInflator
from repro.gp.initial import initial_placement
from repro.predict import (
    FEATURE_NAMES,
    BoostedStumps,
    CongestionPredictor,
    FeatureExtractor,
    RidgeModel,
    train_predictor,
    training_specs,
)
from repro.predict.features import box_mean_3x3
from repro.predict.model import (
    PredictError,
    build_predict_schema,
    load_artifact,
    save_artifact,
    validate_artifact,
)
from repro.predict.train import collect_dataset
from repro.resilience.faults import inject
from repro.route.steiner import clear_decompose_cache
from tests.quality import assert_quality

#: ``GPConfig(congestion_estimator="hybrid")`` quality per suite design,
#: with a model trained on ``training_specs(3, 0)`` at seed 0; the deltas
#: are hybrid minus router.
SUITE_QUALITY = {
    "rh04": {
        "hpwl": 150461.6290091662,
        "overflow": 0.10756727384036205,
        "gp_iterations": 40,
        "predict_router_rounds": 5,
        "predict_predictor_rounds": 15,
        "predict_fallbacks": 0,
        "predict_final_drift": 0.33755279721499465,
        "predict_val_mse": 0.11555089878679196,
        "predict_train_samples": 9216,
        "predict_hpwl_rel_delta": -0.004203353512612207,
        "predict_overflow_delta": 0.004602906863051329,
    },
}


def small_spec(seed=42, cells=400):
    return BenchmarkSpec(
        name=f"pt{seed}", num_cells=cells, num_macros=2, num_fixed_macros=1,
        macro_area_fraction=0.2, utilization=0.65, cap_factor=4.5, seed=seed,
    )


def placed_design(seed=42, cells=400):
    design = make_benchmark(small_spec(seed, cells))
    initial_placement(design, seed=3)
    return design


@pytest.fixture(scope="module")
def tiny_artifact_path(tmp_path_factory):
    """A real (small) trained artifact shared by the module's tests."""
    specs = [small_spec(seed=11, cells=300), small_spec(seed=12, cells=300)]
    artifact = train_predictor(specs, seed=1, cutoffs=(0, 2), boost_rounds=40)
    path = tmp_path_factory.mktemp("predict") / "model.json"
    save_artifact(artifact, str(path))
    return str(path)


class TestFeatures:
    def test_box_mean_matches_naive(self):
        rng = np.random.default_rng(0)
        a = rng.random((6, 5))
        padded = np.pad(a, 1, mode="edge")
        naive = np.zeros_like(a)
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                naive[i, j] = padded[i : i + 3, j : j + 3].mean()
        assert np.allclose(box_mean_3x3(a), naive)

    def test_matrix_shape_and_finiteness(self):
        design = placed_design()
        ex = FeatureExtractor(design.routing)
        X = ex.compute(design.pin_arrays(), *design.pull_centers())
        grid = design.routing.grid
        assert X.shape == (grid.nx * grid.ny, len(FEATURE_NAMES))
        assert np.isfinite(X).all()

    def test_buffers_reused_across_calls(self):
        design = placed_design()
        ex = FeatureExtractor(design.routing)
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        X1 = ex.compute(arrays, cx, cy)
        first = np.array(X1, copy=True)
        X2 = ex.compute(arrays, cx, cy)
        assert X2 is X1  # same owned buffer
        assert np.array_equal(first, X2)  # and same values for same input

    def test_rudy_column_matches_rudy_map(self):
        from repro.route import rudy_map

        design = placed_design()
        ex = FeatureExtractor(design.routing)
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        X = ex.compute(arrays, cx, cy)
        expect = rudy_map(arrays, cx, cy, design.routing.grid)
        # Shared-geometry rasterization accumulates in a different order
        # than rudy_map's golden sweep, so equality is only up to float
        # summation order.
        assert np.allclose(
            X[:, FEATURE_NAMES.index("rudy")], expect.ravel(), rtol=1e-9
        )


class TestModels:
    def _data(self, n=400, f=len(FEATURE_NAMES)):
        rng = np.random.default_rng(7)
        X = rng.random((n, f))
        y = 2.0 * X[:, 0] - 0.5 * X[:, 3] + 0.1 * rng.standard_normal(n)
        return X, y

    def test_ridge_recovers_linear_signal(self):
        X, y = self._data()
        model = RidgeModel.fit(X, y, alpha=1e-6)
        mse = float(np.mean((model.predict(X) - y) ** 2))
        assert mse < 0.02

    def test_ridge_round_trip_exact(self):
        X, y = self._data()
        model = RidgeModel.fit(X, y)
        clone = RidgeModel.from_dict(
            json.loads(json.dumps(model.as_dict()))
        )
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_stumps_beat_mean_baseline(self):
        X, y = self._data()
        model = BoostedStumps.fit(X, y, rounds=80)
        mse = float(np.mean((model.predict(X) - y) ** 2))
        assert mse < float(np.var(y)) * 0.5

    def test_stumps_round_trip_exact(self):
        X, y = self._data()
        model = BoostedStumps.fit(X, y, rounds=30)
        clone = BoostedStumps.from_dict(
            json.loads(json.dumps(model.as_dict()))
        )
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_stumps_constant_target(self):
        X, _ = self._data()
        y = np.full(len(X), 3.25)
        model = BoostedStumps.fit(X, y, rounds=10)
        assert np.allclose(model.predict(X), 3.25)


class TestArtifact:
    def test_round_trip_and_validation(self, tiny_artifact_path):
        data = load_artifact(tiny_artifact_path)
        validate_artifact(data)
        predictor = CongestionPredictor(data)
        assert predictor.primary in data["models"]
        assert predictor.provenance["num_samples"] > 0

    def test_schema_file_matches_builder(self):
        docs = os.path.join(
            os.path.dirname(__file__), os.pardir, "docs", "schemas",
            "predict-model-v1.schema.json",
        )
        with open(docs, encoding="utf-8") as fh:
            assert json.load(fh) == build_predict_schema()

    def test_rejects_bad_version(self, tiny_artifact_path):
        data = load_artifact(tiny_artifact_path)
        data["schema"] = 99
        with pytest.raises(PredictError, match="schema"):
            validate_artifact(data)

    def test_rejects_unknown_primary(self, tiny_artifact_path):
        data = load_artifact(tiny_artifact_path)
        data["primary"] = "oracle"
        with pytest.raises(PredictError, match="primary"):
            validate_artifact(data)

    def test_rejects_foreign_features(self, tiny_artifact_path):
        data = load_artifact(tiny_artifact_path)
        data["feature_names"] = ["alpha", "beta"]
        with pytest.raises(PredictError, match="retrain"):
            validate_artifact(data)

    def test_rejects_extra_keys(self, tiny_artifact_path):
        data = load_artifact(tiny_artifact_path)
        data["pickle"] = "no"
        with pytest.raises(PredictError):
            validate_artifact(data)

    def test_packaged_default_artifact_is_valid(self):
        from repro.predict import load_predictor
        from repro.predict.train import default_artifact_path

        assert os.path.exists(default_artifact_path())
        predictor = load_predictor()
        assert predictor is load_predictor()  # memoized
        X = np.zeros((4, len(FEATURE_NAMES)))
        assert (predictor.predict(X) >= 0.0).all()

    def test_predictions_non_negative(self, tiny_artifact_path):
        predictor = CongestionPredictor(load_artifact(tiny_artifact_path))
        rng = np.random.default_rng(3)
        X = rng.random((64, len(FEATURE_NAMES))) * 5.0
        assert (predictor.predict(X) >= 0.0).all()


class TestTraining:
    def test_deterministic_artifact(self):
        specs = [small_spec(seed=21, cells=250)]
        a1 = train_predictor(specs, seed=5, cutoffs=(0,), boost_rounds=15)
        a2 = train_predictor(specs, seed=5, cutoffs=(0,), boost_rounds=15)
        assert json.dumps(a1, sort_keys=True) == json.dumps(a2, sort_keys=True)

    def test_config_hash_tracks_settings(self):
        specs = [small_spec(seed=21, cells=250)]
        a1 = train_predictor(specs, seed=5, cutoffs=(0,), boost_rounds=15)
        a2 = train_predictor(specs, seed=5, cutoffs=(0,), boost_rounds=16)
        assert (
            a1["provenance"]["config_hash"] != a2["provenance"]["config_hash"]
        )

    def test_dataset_shapes(self):
        specs = [small_spec(seed=31, cells=250)]
        X, y, groups = collect_dataset(specs, (0, 1))
        grid = make_benchmark(specs[0]).routing.grid
        assert X.shape == (2 * grid.nx * grid.ny, len(FEATURE_NAMES))
        assert y.shape == (len(X),)
        assert set(groups.tolist()) == {0}

    def test_training_specs_seeded(self):
        assert [s.seed for s in training_specs(3, 0)] != [
            s.seed for s in training_specs(3, 1)
        ]
        assert [s.name for s in training_specs(2)] == ["ptrain00", "ptrain01"]


class TestHybridEstimator:
    def _inflator(self, design, path, **kw):
        kw.setdefault("router_interval", 2)
        kw.setdefault("drift_tol", 1e9)  # scheduling tests ignore drift
        return CongestionInflator(
            design, estimator="hybrid", predict_model=path, **kw
        )

    def test_round_scheduling(self, tiny_artifact_path):
        design = placed_design()
        inf = self._inflator(design, tiny_artifact_path)
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        for _ in range(6):
            cong = inf.congestion_map(arrays, cx, cy)
            assert cong.shape == (design.routing.grid.nx, design.routing.grid.ny)
        # interval 2: rounds 0/2/4 routed, rounds 1/3/5 predicted.
        assert inf.hybrid_stats["router_rounds"] == 3
        assert inf.hybrid_stats["predictor_rounds"] == 3
        assert inf.hybrid_stats["fallback_round"] is None
        assert inf.wants_final_check

    def test_final_router_check_records_drift(self, tiny_artifact_path):
        design = placed_design()
        inf = self._inflator(design, tiny_artifact_path)
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        for _ in range(2):
            inf.congestion_map(arrays, cx, cy)
        drift = inf.final_router_check(arrays, cx, cy)
        assert drift >= 0.0
        assert inf.hybrid_stats["final_drift"] == drift

    def test_drift_fault_forces_fallback(self, tiny_artifact_path):
        design = placed_design()
        inf = self._inflator(design, tiny_artifact_path, drift_tol=0.75)
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        with inject("predict.drift@1"):
            inf.congestion_map(arrays, cx, cy)  # poisoned router round
            assert inf.hybrid_stats["fallback_round"] == 0
            for _ in range(3):
                inf.congestion_map(arrays, cx, cy)
        # Permanent fallback: every later round routed, none predicted.
        assert inf.hybrid_stats["router_rounds"] == 4
        assert inf.hybrid_stats["predictor_rounds"] == 0
        assert not inf.wants_final_check

    def test_hybrid_tracks_router_map_on_router_rounds(self, tiny_artifact_path):
        design = placed_design()
        inf = self._inflator(design, tiny_artifact_path)
        ref = CongestionInflator(design, estimator="router")
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        hybrid0 = np.array(inf.congestion_map(arrays, cx, cy), copy=True)
        routed0 = ref.congestion_map(arrays, cx, cy)
        assert np.array_equal(hybrid0, routed0)

    def test_gp_report_carries_hybrid_stats(self, tiny_artifact_path, monkeypatch):
        from repro.gp import GlobalPlacer, GPConfig

        # No drift fallback, so both kinds of round run.
        monkeypatch.setitem(
            CongestionInflator.__init__.__kwdefaults__, "drift_tol", 1e9
        )
        design = make_benchmark(small_spec(seed=44))
        cfg = GPConfig(
            max_outer_iterations=12, clustering=False, seed=3,
            congestion_estimator="hybrid", predict_model=tiny_artifact_path,
        )
        report = GlobalPlacer(cfg).place(design)
        stats = report.inflation
        assert stats["router_rounds"] >= 1
        assert stats["predictor_rounds"] >= 1
        assert stats["final_drift"] is not None

    def test_unknown_estimator_rejected(self):
        design = placed_design()
        with pytest.raises(ValueError, match="estimator"):
            CongestionInflator(design, estimator="oracle")


class TestCalibrationSharing:
    def test_second_inflator_reuses_calibration(self):
        design = placed_design()
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        inf1 = CongestionInflator(design)
        first = np.array(inf1.congestion_map(arrays, cx, cy), copy=True)
        cal = design.congestion_calibration
        assert cal["pin_norm"] is not None
        inf2 = CongestionInflator(design)
        assert inf2._pin_norm == cal["pin_norm"]
        assert inf2.supply is not None
        assert np.array_equal(
            first, inf2.congestion_map(arrays, cx, cy)
        )

    def test_wire_width_change_recalibrates(self):
        design = placed_design()
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        CongestionInflator(design).congestion_map(arrays, cx, cy)
        inf = CongestionInflator(design, wire_width=2.0)
        assert inf._pin_norm is None  # stale calibration not reused

    def test_checkpoint_round_trips_calibration(self):
        from repro.resilience.checkpoint import FlowCheckpoint

        design = placed_design()
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        CongestionInflator(design).congestion_map(arrays, cx, cy)
        original = dict(design.congestion_calibration)
        ckpt = FlowCheckpoint.capture(
            design, completed=["gp"], score_weights=[], result={},
        )
        data = json.loads(json.dumps(ckpt.as_dict()))  # disk round trip
        # The supply map is derived from the routing spec, not stored.
        assert "supply" not in data["calibration"]
        fresh = make_benchmark(small_spec())
        initial_placement(fresh, seed=3)
        FlowCheckpoint.from_dict(data).apply(fresh)
        restored = fresh.congestion_calibration
        assert restored["pin_norm"] == original["pin_norm"]
        assert restored["wire_width"] == original["wire_width"]
        # Resumed inflator must produce the exact same map.
        a = CongestionInflator(design).congestion_map(arrays, cx, cy)
        b = CongestionInflator(fresh).congestion_map(
            fresh.pin_arrays(), *fresh.pull_centers()
        )
        assert np.array_equal(np.array(a, copy=True), b)

    def test_old_checkpoint_without_calibration_loads(self):
        from repro.resilience.checkpoint import FlowCheckpoint

        design = placed_design()
        ckpt = FlowCheckpoint.capture(
            design, completed=[], score_weights=[], result={},
        )
        data = ckpt.as_dict()
        del data["calibration"]  # pre-predictor checkpoint layout
        restored = FlowCheckpoint.from_dict(data)
        assert restored.calibration == {}
        restored.apply(placed_design())  # no error, nothing restored


class TestHybridOnSuite:
    def test_rh04_router_versus_hybrid(self, tmp_path):
        from repro.gp import GlobalPlacer, GPConfig

        artifact = train_predictor(training_specs(3, 0), seed=0)
        model_path = str(tmp_path / "model.json")
        save_artifact(artifact, model_path)
        reports = {}
        for estimator in ("router", "hybrid"):
            # Each leg starts from an empty decomposition memo, as a
            # fresh process would.
            clear_decompose_cache()
            cfg = GPConfig(
                congestion_estimator=estimator,
                predict_model=model_path if estimator == "hybrid" else None,
            )
            reports[estimator] = GlobalPlacer(cfg).place(make_suite_design("rh04"))
        assert not any(
            r.guard_rollbacks or r.guard_exhausted or r.budget_exhausted
            for r in reports.values()
        ), "a resilience fallback fired"
        router, hybrid = reports["router"], reports["hybrid"]
        stats = hybrid.inflation
        fresh = {
            "hpwl": hybrid.final_hpwl,
            "overflow": hybrid.final_overflow,
            "gp_iterations": len(hybrid.iterations),
            "predict_router_rounds": stats["router_rounds"],
            "predict_predictor_rounds": stats["predictor_rounds"],
            "predict_fallbacks": 0 if stats["fallback_round"] is None else 1,
            "predict_final_drift": stats["final_drift"],
            "predict_val_mse": artifact["metrics"][f"val_mse_{artifact['primary']}"],
            "predict_train_samples": artifact["provenance"]["num_samples"],
            "predict_hpwl_rel_delta": (hybrid.final_hpwl - router.final_hpwl)
            / router.final_hpwl,
            "predict_overflow_delta": hybrid.final_overflow - router.final_overflow,
        }
        assert_quality(fresh, SUITE_QUALITY["rh04"])
