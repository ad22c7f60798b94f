"""Flow-variant tests: channels, early exits, config propagation."""

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.db import NodeKind
from repro.dp import DPConfig, DetailedPlacer
from repro.dp import engine as dp_engine
from repro.flow import FlowConfig, NTUplace4H
from repro.legal import tetris_legalize


def bench(seed, **kw):
    base = dict(
        name="fv", num_cells=200, num_macros=2, num_fixed_macros=0,
        num_terminals=8, utilization=0.5, cap_factor=4.0, seed=seed,
    )
    base.update(kw)
    return make_benchmark(BenchmarkSpec(**base))


def quick(cfg: FlowConfig) -> FlowConfig:
    cfg.gp.clustering = False
    cfg.gp.max_outer_iterations = 10
    cfg.gp.inner_iterations = 12
    cfg.run_dp = False
    return cfg


class TestMacroChannel:
    def test_channel_clearance_in_flow(self):
        d = bench(81, num_macros=3, macro_area_fraction=0.3)
        cfg = quick(FlowConfig())
        cfg.macro_channel = 1.0
        res = NTUplace4H(cfg).run(d, route=False)
        assert res.legal
        macros = [n for n in d.nodes if n.kind is NodeKind.MACRO]
        for i in range(len(macros)):
            for j in range(i + 1, len(macros)):
                # clearance preserved between macro pairs
                assert not macros[i].rect.inflated(0.49).intersects(macros[j].rect)


class TestDPEarlyExit:
    def test_min_gain_stops_rounds(self, monkeypatch):
        d = bench(82)
        sm = tetris_legalize(d)
        # Absurdly high bar: one round only, regardless of rounds=5.
        monkeypatch.setattr(dp_engine, "MIN_GAIN_PER_ROUND", 0.9)
        cfg = DPConfig(rounds=5, congestion_aware=False)
        report = DetailedPlacer(cfg).run(d, sm)
        names = [p[0] for p in report.passes]
        assert names.count("global_swap") == 1


class TestConfigPropagation:
    def test_gp_model_reaches_placer(self):
        d = bench(83)
        cfg = quick(FlowConfig())
        cfg.gp.wirelength_model = "lse"
        res = NTUplace4H(cfg).run(d, route=False)
        assert res.legal  # and no crash with the LSE path

    def test_wirelength_only_is_independent_config(self):
        a = FlowConfig.wirelength_only()
        b = FlowConfig()
        assert a.gp is not b.gp
        assert b.gp.routability is True
        assert a.gp.routability is False
