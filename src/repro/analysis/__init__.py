"""Placement-quality analytics.

Post-hoc inspection tools a physical-design engineer reaches for when a
result looks off: net-length distributions and displacement fields
between two placements.
"""

from repro.analysis.quality import displacement_stats, net_length_stats

__all__ = ["displacement_stats", "net_length_stats"]
