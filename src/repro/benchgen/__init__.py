"""Synthetic benchmark generation.

The contest benchmarks the paper evaluated on (superblue*) are
proprietary; this package generates laptop-scale circuits with the same
*statistical* structure — Rent's-rule hierarchical locality, mixed-size
macros, fence regions bound to hierarchy modules, boundary terminals, and
a routing-capacity map with deliberate tight spots — so every code path
the paper's evaluation exercises is exercised here.  Real Bookshelf
benchmarks drop in through :mod:`repro.io` unchanged.
"""

from repro.benchgen.circuits import BenchmarkSpec, make_benchmark
from repro.benchgen.suite import SUITE, make_suite_design

__all__ = [
    "BenchmarkSpec",
    "SUITE",
    "make_benchmark",
    "make_suite_design",
]
