"""Bin-density model for analytical global placement.

``BellDensity`` implements the NTUplace-lineage bell-shaped potential: each
node spreads its area over nearby bins with a smooth, twice-differentiable
kernel; the penalty is the squared deviation of every bin's potential from
its share of the free space.  ``density_overflow`` is the exact-overlap
report metric used for convergence decisions and result tables.
"""

from repro.density.bell import BellDensity, bell_kernel
from repro.density.overflow import density_overflow

__all__ = ["BellDensity", "bell_kernel", "density_overflow"]
