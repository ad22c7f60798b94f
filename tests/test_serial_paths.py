"""One serial path per stage: no worker-count knobs, reproducible results.

GP, legalization and routing each run in the calling process.  Pinned
here:

* no config field, constructor keyword or CLI flag selects a worker
  count for the placement flow (the job server's own
  ``repro serve --workers`` process count is separate and stays);
* repeated GP, fence-domain legalization and rip-up-and-reroute runs
  are bit-identical;
* a flow killed in detailed placement resumes bit-identically to an
  uninterrupted run;
* profiler rows come only from sampled in-process frames;
* the stage-config fields and constructor keywords that no caller set
  stay gone: each value lives as a constant or callee default beside
  its one reader.
"""

import dataclasses
import inspect
import threading
import time

import numpy as np
import pytest

from repro.baselines.quadratic import QuadraticConfig
from repro.baselines.random_place import random_placement
from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.cli import build_parser
from repro.db import Design, Node, Region, Row
from repro.dp import DetailedPlacer, DPConfig
from repro.flow import FlowConfig, NTUplace4H
from repro.geometry import Rect
from repro.gp import GlobalPlacer, GPConfig
from repro.legal import Legalizer, check_legal
from repro.obs import SamplingProfiler, Tracer
from repro.resilience import load_checkpoint
from repro.route import GlobalRouter
from repro.serve.worker import build_flow_config


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
def gp_bench(seed=11, cells=150):
    return make_benchmark(
        BenchmarkSpec(
            name="p", num_cells=cells, num_macros=2, num_fixed_macros=1,
            num_terminals=8, seed=seed,
        )
    )


def gp_config():
    return GPConfig(
        clustering=False, max_outer_iterations=8, inner_iterations=10
    )


def place(seed=11):
    d = gp_bench(seed=seed)
    GlobalPlacer(gp_config()).place(d)
    return (
        np.array([n.cx for n in d.nodes]),
        np.array([n.cy for n in d.nodes]),
        [n.orientation for n in d.nodes],
    )


def fenced_design(seed=5, n_cells=120, n_rows=12, sites=120):
    rng = np.random.default_rng(seed)
    d = Design("t")
    for r in range(n_rows):
        d.add_row(
            Row(y=float(r), height=1.0, site_width=0.25, x_min=0.0,
                num_sites=sites)
        )
    width = sites * 0.25
    left = d.add_region(Region("left", rects=[Rect(0.0, 0.0, width / 2, 6.0)]))
    right = d.add_region(
        Region("right", rects=[Rect(width / 2, 6.0, width, 12.0)])
    )
    for i in range(n_cells):
        w = 0.25 * int(rng.integers(2, 8))
        node = Node(
            f"c{i}", w, 1.0,
            x=float(rng.uniform(0, width - w)),
            y=float(rng.uniform(0, n_rows - 1)),
        )
        if i % 3 == 0:
            node.region = left.index
        elif i % 3 == 1:
            node.region = right.index
        d.add_node(node)
    return d


def routed_design(seed=3, cells=600):
    d = make_benchmark(
        BenchmarkSpec(name=f"pr{seed}", num_cells=cells, num_macros=2,
                      seed=seed)
    )
    random_placement(d, seed=seed)
    return d


# ----------------------------------------------------------------------
# no worker-count knobs
# ----------------------------------------------------------------------
class TestNoWorkerKnobs:
    @pytest.mark.parametrize(
        "cls", [GPConfig, FlowConfig, DPConfig, QuadraticConfig],
        ids=lambda cls: cls.__name__,
    )
    def test_config_has_no_worker_field(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        assert [n for n in names if "worker" in n] == []
        with pytest.raises(TypeError):
            cls(workers=2)

    @pytest.mark.parametrize(
        "cls", [GPConfig, FlowConfig], ids=lambda cls: cls.__name__
    )
    def test_no_determinism_switch(self, cls):
        # With one path there is no fast, order-dependent mode to opt out of.
        with pytest.raises(TypeError):
            cls(deterministic=False)

    @pytest.mark.parametrize(
        "cls", [GlobalPlacer, Legalizer, DetailedPlacer, GlobalRouter],
        ids=lambda cls: cls.__name__,
    )
    def test_stage_constructor_takes_no_worker_keyword(self, cls):
        params = inspect.signature(cls.__init__).parameters
        assert [p for p in params if "worker" in p] == []
        assert not any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        )

    @pytest.mark.parametrize(
        "argv,removed",
        [
            (["place", "--aux", "x.aux"], ["--workers", "2"]),
            (["place", "--aux", "x.aux"], ["--parallel-fast"]),
            (["route", "--aux", "x.aux"], ["--workers", "2"]),
            (["serve", "--root", "srv"], ["--job-workers", "2"]),
            (["submit", "--suite", "rh01"], ["--job-workers", "2"]),
            (["place", "--aux", "x.aux"], ["--dp-reference"]),
            (["place", "--aux", "x.aux"], ["--cost-refresh", "2"]),
            (["route", "--aux", "x.aux"], ["--cost-refresh", "2"]),
        ],
        ids=[
            "place-workers", "place-parallel-fast", "route-workers",
            "serve-job-workers", "submit-job-workers", "place-dp-reference",
            "place-cost-refresh", "route-cost-refresh",
        ],
    )
    def test_removed_cli_flag_refused(self, argv, removed, capsys):
        parser = build_parser()
        parser.parse_args(argv)  # valid without the removed flag
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + removed)
        assert exc.value.code == 2
        assert removed[0] in capsys.readouterr().err

    def test_serve_workers_still_sets_job_process_count(self):
        args = build_parser().parse_args(
            ["serve", "--root", "srv", "--workers", "3"]
        )
        assert args.workers == 3


# ----------------------------------------------------------------------
# one value, one place
# ----------------------------------------------------------------------
REMOVED_KNOBS = {
    GPConfig: (
        "inflation_exponent", "inflation_max", "inflation_total_max",
        "congestion_threshold", "numerical_guard", "guard_max_retries",
        "guard_divergence_ratio", "guard_divergence_patience",
        "guard_backoff", "guard_gamma_inflate", "cluster_ratio",
        "gamma_factor", "gamma_decay", "lambda_initial_ratio",
        "lambda_growth", "step_init_bins", "step_max_bins",
        "inflation_start_overflow", "inflation_interval",
        "reservation_floor", "fence_weight_initial_ratio",
        "fence_weight_growth", "orientation_interval",
        "coarse_iteration_fraction", "target_bins", "verbose", "reference",
        # The phase schedule is GlobalPlacer's: constants, not copies.
        "target_density", "overflow_target", "freeze_macros",
        "cluster_min_nodes", "cluster_max_levels",
        # Copies of CongestionInflator's keyword defaults.
        "predict_router_interval", "predict_drift_tol",
    ),
    DPConfig: (
        "reorder_window", "swap_candidates", "matching_batch",
        "spread_max_moves", "congestion_gate_threshold", "reference",
        "global_swap", "vertical_swap", "local_reorder", "matching",
        "congestion_spread", "spread_threshold", "min_gain_per_round",
    ),
    Legalizer: ("row_probe", "reference", "config"),
    FlowConfig: (
        "net_weighting_strength", "net_weighting_max",
        "timing_weighting_max", "refine_after_macro_legal",
        "route_cost_refresh", "legal", "refine_outer_iterations",
        "validate_input", "sanitize",
        # Copies of GlobalRouter's keyword defaults.
        "route_sweeps", "route_maze_rounds", "route_max_maze_nets",
    ),
    GlobalRouter: ("cost_refresh", "reference"),
    QuadraticConfig: (
        "anchor_weight_initial", "anchor_weight_growth", "spread_bins",
        "spread_strength",
    ),
}


# Deleted with ``FlowConfig.legal``: the fields it refused, now refused
# at the serve override path ``legal.<field>`` that once reached it.
REMOVED_CLASS_KNOBS = {
    "LegalConfig": ("row_probe", "macro_channel", "reference"),
}


@pytest.mark.parametrize(
    "cls,name",
    [(cls, name) for cls, names in REMOVED_KNOBS.items() for name in names]
    + [(cls, name) for cls, names in REMOVED_CLASS_KNOBS.items()
       for name in names],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
def test_removed_knob_refused(cls, name):
    # No caller set these; a second copy of a value could only drift.
    if cls in REMOVED_CLASS_KNOBS:
        import repro.legal

        assert not hasattr(repro.legal, cls)
        with pytest.raises(ValueError, match="unknown flow-config override"):
            build_flow_config({"config": {f"legal.{name}": None}}, job_dir="")
        return
    assert name not in inspect.signature(cls.__init__).parameters
    with pytest.raises(TypeError):
        cls(**{name: None})


def test_legal_config_removed():
    # Its one field, the Tetris-only fallback switch, is the Legalizer
    # keyword the flow's fallback passes.
    import repro.legal

    assert not hasattr(repro.legal, "LegalConfig")
    assert "tetris_only" in inspect.signature(Legalizer.__init__).parameters


def test_config_surface():
    # Every leaf of the flow's configs is also a serve override.
    configs = (FlowConfig, GPConfig, DPConfig, QuadraticConfig)
    assert sum(len(dataclasses.fields(c)) for c in configs) == 24


# ----------------------------------------------------------------------
# reproducible serial stages
# ----------------------------------------------------------------------
class TestSerialGP:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_placement_bit_identical_run_to_run(self, seed):
        first = place(seed)
        second = place(seed)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        assert first[2] == second[2]


class TestSerialLegal:
    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_fence_domains_legalize_in_place(self, seed):
        d = fenced_design(seed=seed)
        result = Legalizer().legalize(d)
        assert result.ok, result.report.summary()
        assert check_legal(d).ok
        for node in d.nodes:
            if node.region is not None and node.region >= 0:
                assert d.regions[node.region].contains_rect(node.rect)

    def test_bit_identical_run_to_run(self):
        d1, d2 = fenced_design(), fenced_design()
        r1 = Legalizer().legalize(d1)
        r2 = Legalizer().legalize(d2)
        assert [(n.x, n.y) for n in d1.nodes] == [(n.x, n.y) for n in d2.nodes]
        assert r1.max_displacement == r2.max_displacement
        assert r1.total_displacement == r2.total_displacement


class TestSerialRoute:
    def test_ripup_engages_once_per_round(self, monkeypatch):
        rounds = []
        orig = GlobalRouter._reroute_offenders

        def counted(self, *args, **kwargs):
            rerouted = orig(self, *args, **kwargs)
            rounds.append(rerouted)
            return rerouted

        monkeypatch.setattr(GlobalRouter, "_reroute_offenders", counted)
        router = GlobalRouter(routed_design().routing)
        result = router.route(routed_design())
        assert rounds and rounds[0] > 0, "rip-up never engaged"
        assert max(rounds) <= router.max_maze_nets
        # The L-route pass plus one overflow sample per rip-up round.
        assert len(result.overflow_per_round) == 1 + len(rounds)
        # rounds[0] is the Z pass; the maze rounds follow it.
        assert result.maze_rerouted == sum(rounds[1:])

    def test_ripup_bit_identical_run_to_run(self):
        d = routed_design()
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        a = GlobalRouter(d.routing).route(arrays=arrays, cx=cx, cy=cy)
        b = GlobalRouter(d.routing).route(arrays=arrays, cx=cx, cy=cy)
        np.testing.assert_array_equal(a.graph.use_e, b.graph.use_e)
        np.testing.assert_array_equal(a.graph.use_n, b.graph.use_n)
        for attr in ("rc", "total_overflow", "peak_congestion", "vias"):
            assert getattr(a.metrics, attr) == getattr(b.metrics, attr)
        assert a.num_segments == b.num_segments


# ----------------------------------------------------------------------
# checkpoint/resume across a kill in detailed placement
# ----------------------------------------------------------------------
class TestResumeAfterDPKill:
    def test_kill_in_dp_then_resume_bit_identical(self, tmp_path, monkeypatch):
        def flow_cfg(checkpoint_dir=None):
            cfg = FlowConfig()
            cfg.gp.clustering = False
            cfg.gp.max_outer_iterations = 10
            cfg.gp.inner_iterations = 12
            cfg.dp = DPConfig(rounds=1, congestion_aware=True)
            cfg.checkpoint_dir = checkpoint_dir
            return cfg

        def bench():
            return make_benchmark(
                BenchmarkSpec(
                    name="c", num_cells=180, num_macros=2, num_fixed_macros=1,
                    num_terminals=10, utilization=0.55, cap_factor=4.0,
                    seed=81,
                )
            )

        def state(design):
            return [(n.name, n.x, n.y, n.orientation) for n in design.nodes]

        ref = bench()
        NTUplace4H(flow_cfg()).run(ref, route=False)

        ckpt_dir = str(tmp_path / "ck")
        victim = bench()

        def killed(self, *args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as mp:
            mp.setattr(DetailedPlacer, "run", killed)
            with pytest.raises(KeyboardInterrupt):
                NTUplace4H(flow_cfg(ckpt_dir)).run(victim, route=False)
        assert load_checkpoint(ckpt_dir).completed == [
            "gp", "macro_legal_refine", "legal",
        ]

        resumed = bench()
        result = NTUplace4H(flow_cfg(ckpt_dir)).run(
            resumed, route=False, resume_from=ckpt_dir
        )
        assert result.resumed_stages == ["gp", "macro_legal_refine", "legal"]
        assert state(resumed) == state(ref)
        assert not result.degraded


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
class TestProfilerRows:
    def test_rows_come_only_from_sampled_frames(self):
        tracer = Tracer()
        prof = SamplingProfiler(tracer, interval=0.001)
        stop = threading.Event()

        def busy():
            with tracer.span("flow"):
                with tracer.span("gp"):
                    while not stop.wait(0):
                        sum(range(500))

        worker = threading.Thread(target=busy)
        with prof:
            worker.start()
            time.sleep(0.1)
            stop.set()
            worker.join()
        stages = {r["stage"] for r in prof.report(top=1000)}
        assert "flow/gp" in stages
        assert "workers[*]" not in stages
