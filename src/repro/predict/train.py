"""Training harness: label benchgen designs with lookahead-router maps.

``benchgen`` generates unlimited designs from a seed, so training data is
free: for each training spec the harness replays global placement to a
few outer-iteration cutoffs (the mid-placement states the inflation loop
actually queries — spread-out early clouds through nearly-converged
placements), extracts the per-bin features at each state, and labels
every tile with the congestion a real pattern-only lookahead route
reports there.  Everything is seeded, so the same call produces the
same artifact byte for byte.

``repro predict train`` and the rh04 hybrid-estimator test in
``tests/test_predict.py`` drive this; the committed default artifact
under ``predict/artifacts/`` ships with the package so
``estimator="hybrid"`` works out of the box.
"""

from __future__ import annotations

import os

import numpy as np

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.predict.features import FEATURE_NAMES, FeatureExtractor
from repro.predict.model import (
    ARTIFACT_KIND,
    ARTIFACT_VERSION,
    BoostedStumps,
    RidgeModel,
    config_hash,
)

#: GP outer-iteration cutoffs sampled per design: the initial spread,
#: an early cloud, and a near-settled placement — the range of states
#: the inflation loop queries.
TRAIN_CUTOFFS = (0, 4, 9)

#: Labels are clipped here before fitting.  The inflation response
#: saturates near local congestion ~1.5 (``max_inflation`` caps the
#: area ratchet), so the heavy tail above this adds nothing to the loop
#: but dominates the L2 loss and starves the mid-range fit.
LABEL_CLIP = 4.0

# Base recipes cycled by training_specs(); cap factors and congestion
# bands bracket the bundled rh suite so the model sees both comfortable
# and starved supply regimes.
_RECIPES = (
    dict(
        num_cells=700, num_macros=2, num_fixed_macros=1,
        macro_area_fraction=0.18, utilization=0.64, cap_factor=4.4,
        locality=0.8,
    ),
    dict(
        num_cells=1000, num_macros=3, num_fixed_macros=1,
        macro_area_fraction=0.22, utilization=0.7, cap_factor=5.2,
        congested_band=0.45, locality=0.7,
    ),
    dict(
        num_cells=1300, num_macros=2, num_fixed_macros=2,
        macro_area_fraction=0.28, utilization=0.66, cap_factor=4.0,
        locality=0.85,
    ),
    dict(
        num_cells=900, num_macros=4, num_fixed_macros=1,
        macro_area_fraction=0.3, utilization=0.68, cap_factor=5.8,
        congested_band=0.55, locality=0.75,
    ),
    dict(
        num_cells=1100, num_macros=2, num_fixed_macros=1,
        macro_area_fraction=0.15, utilization=0.62, cap_factor=6.5,
        locality=0.65,
    ),
)


def default_artifact_path() -> str:
    """The committed in-package artifact used when no path is configured."""
    return os.path.join(os.path.dirname(__file__), "artifacts", "default.json")


def training_specs(count: int = 3, seed: int = 0) -> list[BenchmarkSpec]:
    """``count`` seeded benchmark specs cycling the base recipes."""
    specs = []
    for i in range(count):
        kw = dict(_RECIPES[i % len(_RECIPES)])
        specs.append(
            BenchmarkSpec(
                name=f"ptrain{i:02d}",
                seed=1000 * seed + 17 * i + 11,
                **kw,
            )
        )
    return specs


def _placement_state(spec: BenchmarkSpec, cutoff: int, gp_seed: int):
    """A fresh design advanced to ``cutoff`` GP outer iterations."""
    from repro.gp import GlobalPlacer, GPConfig
    from repro.gp.initial import initial_placement

    design = make_benchmark(spec)
    if cutoff <= 0:
        initial_placement(design, seed=gp_seed)
        return design
    cfg = GPConfig(
        max_outer_iterations=cutoff,
        clustering=False,
        congestion_estimator="rudy",
        seed=gp_seed,
    )
    GlobalPlacer(cfg).place(design)
    return design


def _label_map(design) -> np.ndarray:
    """Per-tile congestion from the same lookahead route hybrid mode skips."""
    from repro.route.router import GlobalRouter

    router = GlobalRouter(design.routing, sweeps=1, z_refine=False, maze_rounds=0)
    return router.route(design).congestion_map().ravel()


def collect_dataset(
    specs,
    cutoffs=TRAIN_CUTOFFS,
    *,
    gp_seed: int = 7,
    wire_width: float = 1.0,
):
    """Feature/label rows for every (spec, cutoff) placement state.

    Returns ``(X, y, groups)`` where ``groups[i]`` is the spec index the
    row came from (used for the leave-last-design-out validation split).
    """
    xs, ys, gs = [], [], []
    for gi, spec in enumerate(specs):
        for cutoff in cutoffs:
            design = _placement_state(spec, cutoff, gp_seed)
            extractor = FeatureExtractor(design.routing, wire_width=wire_width)
            X = extractor.compute(design.pin_arrays(), *design.pull_centers())
            xs.append(np.array(X, copy=True))
            ys.append(_label_map(design))
            gs.append(np.full(len(X), gi, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(gs)


def train_predictor(
    specs=None,
    *,
    seed: int = 0,
    cutoffs=TRAIN_CUTOFFS,
    boost_rounds: int = 150,
    ridge_alpha: float = 1.0,
    gp_seed: int = 7,
) -> dict:
    """Train the model zoo and return the artifact document.

    The last spec is held out for validation (model selection); with a
    single spec the split degrades to in-sample selection.  Everything
    downstream of the seeds is deterministic, so the artifact is too.
    """
    if specs is None:
        specs = training_specs(3, seed)
    cutoffs = tuple(int(c) for c in cutoffs)
    X, y, groups = collect_dataset(specs, cutoffs, gp_seed=gp_seed)
    y = np.minimum(y, LABEL_CLIP)
    val_group = int(groups.max()) if len(specs) > 1 else -1
    train_mask = groups != val_group
    val_mask = ~train_mask if val_group >= 0 else train_mask
    Xt, yt = X[train_mask], y[train_mask]
    Xv, yv = X[val_mask], y[val_mask]

    ridge = RidgeModel.fit(Xt, yt, alpha=ridge_alpha)
    stumps = BoostedStumps.fit(Xt, yt, rounds=boost_rounds)
    models = {RidgeModel.kind: ridge, BoostedStumps.kind: stumps}
    val_mse = {
        name: float(np.mean((np.maximum(m.predict(Xv), 0.0) - yv) ** 2))
        for name, m in models.items()
    }
    primary = min(sorted(val_mse), key=lambda name: val_mse[name])
    baseline = float(np.mean((float(yt.mean()) - yv) ** 2))

    train_config = {
        "specs": [vars(s) for s in specs],
        "cutoffs": list(cutoffs),
        "seed": seed,
        "gp_seed": gp_seed,
        "boost_rounds": boost_rounds,
        "ridge_alpha": ridge_alpha,
        "label_clip": LABEL_CLIP,
        "feature_names": list(FEATURE_NAMES),
    }
    metrics = {f"val_mse_{name}": mse for name, mse in val_mse.items()}
    metrics["val_mse_mean_baseline"] = baseline
    metrics["num_stumps"] = float(len(stumps.feature))
    return {
        "schema": ARTIFACT_VERSION,
        "kind": ARTIFACT_KIND,
        "feature_names": list(FEATURE_NAMES),
        "primary": primary,
        "models": {name: m.as_dict() for name, m in models.items()},
        "metrics": metrics,
        "provenance": {
            "seed": int(seed),
            "designs": [s.name for s in specs],
            "cutoffs": list(cutoffs),
            "num_samples": int(len(X)),
            "num_train": int(train_mask.sum()),
            "num_val": int(val_mask.sum()),
            "config_hash": config_hash(train_config),
            "trainer": "repro predict train",
        },
    }
