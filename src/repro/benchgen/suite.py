"""The named benchmark suite used by the tables and figures.

Six designs spanning the axes the paper's evaluation varies: size, macro
content, hierarchy/fence constraints, and routing pressure.  ``rh``
stands for *routability-hierarchical*; higher numbers are harder.
"""

from __future__ import annotations

from repro.benchgen.circuits import BenchmarkSpec, make_benchmark

SUITE = {
    # Small, mild: sanity row of the tables.
    "rh01": BenchmarkSpec(
        name="rh01",
        num_cells=1200,
        num_macros=2,
        num_fixed_macros=1,
        macro_area_fraction=0.15,
        utilization=0.65,
        num_fences=0,
        cap_factor=4.7,
        seed=101,
    ),
    # Small but congested: a capacity-starved band across the die centre.
    "rh02": BenchmarkSpec(
        name="rh02",
        num_cells=1500,
        num_macros=3,
        num_fixed_macros=2,
        macro_area_fraction=0.20,
        utilization=0.70,
        num_fences=0,
        cap_factor=5.23,
        congested_band=0.5,
        seed=102,
    ),
    # Hierarchical: two fence regions, moderate congestion.
    "rh03": BenchmarkSpec(
        name="rh03",
        num_cells=2000,
        num_macros=3,
        num_fixed_macros=1,
        macro_area_fraction=0.20,
        utilization=0.68,
        num_fences=2,
        fence_level=2,
        cap_factor=4.65,
        seed=103,
    ),
    # Mid-size, macro-heavy: mixed-size stress.
    "rh04": BenchmarkSpec(
        name="rh04",
        num_cells=4000,
        num_macros=6,
        num_fixed_macros=3,
        macro_area_fraction=0.35,
        utilization=0.70,
        num_fences=0,
        cap_factor=4.7,
        seed=104,
    ),
    # Mid-size, hierarchical AND congested: the paper's headline regime.
    "rh05": BenchmarkSpec(
        name="rh05",
        num_cells=5000,
        num_macros=4,
        num_fixed_macros=2,
        macro_area_fraction=0.25,
        utilization=0.66,
        num_fences=3,
        fence_level=2,
        cap_factor=5.71,
        congested_band=0.45,
        seed=105,
    ),
    # The large row: everything at once.
    "rh06": BenchmarkSpec(
        name="rh06",
        num_cells=9000,
        num_macros=8,
        num_fixed_macros=3,
        macro_area_fraction=0.30,
        utilization=0.68,
        num_fences=3,
        fence_level=2,
        cap_factor=11.7,
        congested_band=0.4,
        route_tiles=40,
        seed=106,
    ),
}


def make_suite_design(name: str):
    """Generate one suite design by name."""
    return make_benchmark(SUITE[name])
